//! Engine-conformance traces: a normalized, engine-agnostic record of one
//! dynamics run, and the equivalence assertion the cross-engine
//! conformance matrix is built on.
//!
//! The dynamics crate depends on this crate (for [`faults`](crate::faults)),
//! so the code that *drives* the engines cannot live here — it sits in the
//! facade (`bncg::conformance::trace_engines`). What lives here is the
//! dependency-free contract both sides agree on: every engine family
//! (serial rounds, hand-stepped rounds, the round service, a
//! journal-resumed service) reduces its run to an [`EngineTrace`], and
//! [`assert_equivalent`] demands the traces agree round for round — same proposal count, same accepted count, same
//! social cost — and land on the same final network with the same
//! outcome.
//!
//! The trace deliberately excludes wall-clock phase timings and repair
//! counters: those describe *how* a maintained matrix got to its state,
//! which legitimately differs between a fresh engine and a long-lived
//! service, while everything in the trace is a pure function of the start
//! graph, the rule set, and the response rule.

/// One round of a normalized engine trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRow {
    /// Round number (1-based, continuing across a resume).
    pub round: usize,
    /// Proposals swept (agents with an improving move).
    pub proposed: usize,
    /// Moves accepted by conflict resolution and applied.
    pub applied: usize,
    /// Social cost after the round barrier (`None` while the rule set
    /// reports an infinite/undefined aggregate, e.g. disconnection under
    /// a distance-based game).
    pub social_cost: Option<u64>,
}

/// A full normalized run of one engine on one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineTrace {
    /// Which engine produced the trace (for diagnostics only — not part
    /// of the equivalence relation).
    pub engine: String,
    /// Per-round rows, in execution order.
    pub rounds: Vec<TraceRow>,
    /// Terminal outcome label (`converged` / `cycled` / `capped`).
    pub outcome: String,
    /// The final network, in a stable text encoding (graph6).
    pub final_graph: String,
}

impl EngineTrace {
    /// An empty trace for the named engine.
    pub fn new(engine: impl Into<String>) -> Self {
        EngineTrace {
            engine: engine.into(),
            rounds: Vec::new(),
            outcome: String::new(),
            final_graph: String::new(),
        }
    }

    /// Appends one round row.
    pub fn push(&mut self, round: usize, proposed: usize, applied: usize, cost: Option<u64>) {
        self.rounds.push(TraceRow {
            round,
            proposed,
            applied,
            social_cost: cost,
        });
    }

    /// Describes the first divergence from `other`, or `None` when the
    /// two traces are record-level equivalent.
    pub fn divergence(&self, other: &EngineTrace) -> Option<String> {
        let pair = format!("{} vs {}", self.engine, other.engine);
        for (a, b) in self.rounds.iter().zip(other.rounds.iter()) {
            if a != b {
                return Some(format!("{pair}: round {}: {a:?} != {b:?}", a.round));
            }
        }
        if self.rounds.len() != other.rounds.len() {
            return Some(format!(
                "{pair}: {} rounds vs {} rounds",
                self.rounds.len(),
                other.rounds.len()
            ));
        }
        if self.outcome != other.outcome {
            return Some(format!(
                "{pair}: outcome {:?} != {:?}",
                self.outcome, other.outcome
            ));
        }
        if self.final_graph != other.final_graph {
            return Some(format!(
                "{pair}: final graph {:?} != {:?}",
                self.final_graph, other.final_graph
            ));
        }
        None
    }
}

/// Panics (with the first divergence) unless every trace is record-level
/// equivalent to the first. `context` names the scenario for the panic
/// message. Returns the number of rounds each trace pinned.
pub fn assert_equivalent(traces: &[EngineTrace], context: &str) -> usize {
    let (first, rest) = traces
        .split_first()
        .expect("assert_equivalent needs at least one trace");
    for t in rest {
        if let Some(d) = first.divergence(t) {
            panic!("engine traces diverged ({context}): {d}");
        }
    }
    first.rounds.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(engine: &str) -> EngineTrace {
        let mut t = EngineTrace::new(engine);
        t.push(1, 3, 2, Some(40));
        t.push(2, 0, 0, Some(40));
        t.outcome = "converged".into();
        t.final_graph = "D?{".into();
        t
    }

    #[test]
    fn identical_traces_are_equivalent() {
        let a = sample("serial");
        let b = sample("service");
        assert_eq!(a.divergence(&b), None);
        assert_eq!(assert_equivalent(&[a, b], "sample"), 2);
    }

    #[test]
    fn row_divergence_is_reported_first() {
        let a = sample("serial");
        let mut b = sample("service");
        b.rounds[1].applied = 1;
        b.outcome = "capped".into();
        let d = a.divergence(&b).expect("diverges");
        assert!(d.contains("round 2"), "{d}");
    }

    #[test]
    fn length_outcome_and_graph_divergences_are_caught() {
        let a = sample("serial");
        let mut short = sample("stepwise");
        short.rounds.pop();
        assert!(a.divergence(&short).unwrap().contains("rounds"));
        let mut oc = sample("stepwise");
        oc.outcome = "cycled".into();
        assert!(a.divergence(&oc).unwrap().contains("outcome"));
        let mut fg = sample("stepwise");
        fg.final_graph = "Cr".into();
        assert!(a.divergence(&fg).unwrap().contains("final graph"));
    }

    #[test]
    #[should_panic(expected = "engine traces diverged")]
    fn assert_equivalent_panics_on_divergence() {
        let a = sample("serial");
        let mut b = sample("service");
        b.rounds[0].proposed = 9;
        assert_equivalent(&[a, b], "sample");
    }
}
