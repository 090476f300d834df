//! Round-based (frozen-snapshot) swap dynamics.
//!
//! The sequential engine ([`crate::engine`]) activates one agent at a
//! time, each seeing every earlier move of the same round. The round
//! model studied by Kawald & Lenzner (*On Dynamics in Selfish Network
//! Creation*) instead evaluates a whole activation round against **one
//! frozen snapshot**: every agent proposes its response to the
//! round-start state, a deterministic resolution picks a conflict-free
//! subset, and the accepted moves land simultaneously at the round
//! barrier. Convergence behavior genuinely differs — simultaneous play
//! can oscillate where sequential play converges — so the engine reports
//! the revisit period alongside the usual outcomes.
//!
//! This module holds the round's building blocks — conflict resolution
//! and [`step_round`] — and the one-shot [`RoundDynamics`] entry point.
//! The round loop itself lives in [`crate::service`]: every
//! [`RoundDynamics`] run is one session of a fresh [`RoundService`].
//!
//! **Determinism contract (conflict resolution).** Proposals are scanned
//! in ascending agent index; a proposal is accepted iff its edge
//! footprint (`{vw, vw2}`, see [`SwapMove::footprint`]) is disjoint from
//! the footprints of every previously accepted proposal of the round. The
//! lowest-indexed agent therefore always plays, the accepted set is a
//! deterministic function of the snapshot, and the whole run needs no RNG.
//! Footprint-disjointness also keeps the batch well-formed against the
//! snapshot — deleted edges distinct and present, inserted edges distinct
//! and never colliding with a deletion — which is exactly the
//! precondition of the batch repair
//! ([`DynamicApsp::apply_batch`](bncg_graph::dynamic::DynamicApsp::apply_batch))
//! that patches the shared base matrix once per round instead of once per
//! move.
//!
//! [`SwapMove::footprint`]: bncg_core::swap::SwapMove::footprint

use std::collections::HashSet;

use bncg_core::context::EvalContext;
use bncg_core::rules::GameRules;
use bncg_core::swap::ScoredSwap;
use bncg_graph::adjacency::{Edge, SwapApplied};
use bncg_graph::dynamic::RepairStats;
use bncg_graph::Graph;
use serde::{Deserialize, Serialize};

use crate::engine::{Outcome, Response};
use crate::service::RoundService;
use crate::sink::{MetricsSink, NullSink};

/// Configuration of a round-based dynamics run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RoundConfig {
    /// Response rule each agent uses against the frozen snapshot.
    pub response: Response,
    /// Hard cap on activation rounds.
    pub max_rounds: usize,
    /// Whether to track and stop on revisited round-boundary states.
    pub detect_cycles: bool,
}

impl Default for RoundConfig {
    fn default() -> Self {
        RoundConfig {
            response: Response::Best,
            max_rounds: 10_000,
            detect_cycles: true,
        }
    }
}

/// Result of a round-based dynamics run.
#[derive(Debug, Clone)]
pub struct RoundResult {
    /// Final network.
    pub graph: Graph,
    /// Termination cause (same vocabulary as the sequential engine).
    pub outcome: Outcome,
    /// Rounds executed.
    pub rounds: usize,
    /// Improving moves proposed across all rounds (pre-resolution).
    pub moves_proposed: usize,
    /// Moves actually applied (post-resolution).
    pub moves_applied: usize,
    /// Revisit period when the run [`Cycled`](Outcome::Cycled): `2` is the
    /// classic simultaneous-play oscillation.
    pub cycle_period: Option<usize>,
    /// Dynamic-distance counters aggregated over the whole run
    /// ([`RepairStats::delta_since`] the pre-run snapshot).
    pub repair: RepairStats,
}

/// One resolved activation round (the unit [`step_round`] returns to
/// hand-stepped loops such as the conformance harness's stepwise leg).
#[derive(Debug, Clone)]
pub struct RoundStep {
    /// Agents that proposed an improving move against the snapshot.
    pub proposed: usize,
    /// Moves accepted by conflict resolution and applied.
    pub applied: usize,
    /// The applied records, in ascending agent order (the batch handed to
    /// the repair).
    pub batch: Vec<SwapApplied>,
}

/// Deterministic conflict resolution under `rules`: scan `proposals`
/// (indexed by agent) in ascending agent order and keep every move whose
/// edge footprint is disjoint from all earlier accepted footprints and
/// which the rule set's barrier-time veto
/// ([`GameRules::legal_in_batch`], checked against the moves already
/// accepted this round) allows. The veto lets rule sets forbid
/// interactions footprints cannot see (two disjoint insertions both
/// raising one vertex's degree past its budget); the basic game keeps
/// the trait's default, which always accepts.
///
/// The accepted-footprint membership test is a hash set, so a round with
/// `a` accepted moves costs `O(a)` expected edge probes instead of the
/// `O(a²)` linear rescans the first implementation paid — measurable once
/// dense rounds at n ≥ 8192 accept thousands of moves. Acceptance order
/// (and hence the accepted *set*) is untouched: the scan order is still
/// ascending agent index, and set membership answers exactly the
/// "collides with any earlier accepted footprint" question the linear
/// scan answered (`tests::hashed_resolution_matches_linear_reference`
/// pins this on dense conflict rounds).
pub fn resolve_round_with<R: GameRules>(
    rules: &R,
    ctx: &EvalContext,
    proposals: &[Option<ScoredSwap>],
) -> Vec<ScoredSwap> {
    let mut accepted: Vec<ScoredSwap> = Vec::new();
    let mut touched: HashSet<Edge> = HashSet::with_capacity(2 * proposals.iter().flatten().count());
    for s in proposals.iter().flatten() {
        let fp = s.mv.footprint();
        if fp.iter().any(|e| touched.contains(e)) {
            continue;
        }
        if !rules.legal_in_batch(ctx, &s.mv, &accepted) {
            continue;
        }
        touched.extend(fp);
        accepted.push(*s);
    }
    accepted
}

/// The frozen-snapshot proposal sweep: every agent's response to the
/// current state of `ctx` under `response`, one slot per agent.
pub(crate) fn propose<R: GameRules>(
    rules: &R,
    ctx: &EvalContext,
    response: Response,
) -> Vec<Option<ScoredSwap>> {
    match response {
        Response::Best => rules.best_responses_par(ctx),
        Response::FirstImproving => rules.first_improving_responses_par(ctx),
    }
}

/// Executes one frozen-snapshot round under `rules`: propose (in
/// parallel) against the current state of `ctx`, resolve
/// deterministically ([`resolve_round_with`]), apply the accepted moves
/// to `g`, and repair the context's base matrix as **one batch** at the
/// round barrier. Returns the resolved step (`proposed == 0` means the
/// snapshot is already stable under `response`).
pub fn step_round<R: GameRules>(
    rules: &R,
    ctx: &mut EvalContext,
    g: &mut Graph,
    response: Response,
) -> RoundStep {
    let proposals = propose(rules, ctx, response);
    let proposed = proposals.iter().flatten().count();
    let accepted = resolve_round_with(rules, ctx, &proposals);
    let batch: Vec<SwapApplied> = accepted.iter().map(|s| s.mv.apply(g)).collect();
    if !batch.is_empty() {
        ctx.refresh_after_batch(g, &batch);
    }
    RoundStep {
        proposed,
        applied: batch.len(),
        batch,
    }
}

/// The round-based dynamics engine, generic over the game's rule set
/// ([`GameRules`]; the two basic-game objectives implement it, so
/// `RoundDynamics<SumObjective>` keeps its pre-trait meaning). Fully
/// deterministic: no schedule, no RNG — every agent is activated every
/// round against the same frozen snapshot.
pub struct RoundDynamics<R: GameRules> {
    config: RoundConfig,
    rules: R,
}

impl<R: GameRules> RoundDynamics<R> {
    /// Engine with the given configuration and the rule set's default
    /// value (the basic-game objectives and other stateless rule sets).
    pub fn new(config: RoundConfig) -> Self
    where
        R: Default,
    {
        Self::with_rules(config, R::default())
    }

    /// Engine with an explicit rule-set value (rule sets carrying
    /// per-agent state: budgets, interest sets).
    pub fn with_rules(config: RoundConfig, rules: R) -> Self {
        RoundDynamics { config, rules }
    }

    /// Runs the round dynamics from `start`.
    ///
    /// One [`EvalContext`] lives for the whole run; each round costs one
    /// parallel proposal sweep off the maintained base matrix plus one
    /// batch repair, so the per-round refresh work is bounded by the
    /// round's touched rows, not by `n` BFS trees per applied move.
    pub fn run(&self, start: &Graph) -> RoundResult {
        self.run_with_sink(start, &mut NullSink)
    }

    /// [`run`](Self::run), additionally pushing one [`RoundRecord`] per
    /// executed round into `sink` (see [`crate::sink`] for the schema and
    /// the phase-delta caveat). With [`NullSink`] the record construction
    /// is skipped entirely, so `run` pays one branch per round for this
    /// seam.
    ///
    /// The run is one session of a fresh [`RoundService`] on `start` —
    /// the service's round loop is the only one there is.
    ///
    /// [`RoundRecord`]: crate::sink::RoundRecord
    pub fn run_with_sink(&self, start: &Graph, sink: &mut dyn MetricsSink) -> RoundResult {
        RoundService::with_rules(start, self.config, self.rules.clone())
            .run_session(sink)
            .result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_core::equilibrium::SumGame;
    use bncg_core::objective::{MaxObjective, SumObjective};
    use bncg_core::swap::SwapMove;
    use bncg_graph::generators::classic;

    fn scored(v: u32, w: u32, w2: u32) -> ScoredSwap {
        ScoredSwap {
            mv: SwapMove { v, w, w2 },
            old_cost: 10,
            new_cost: 5,
        }
    }

    /// Resolution under the basic game on an `n`-cycle: its
    /// `legal_in_batch` is the no-veto default, so footprint
    /// disjointness alone decides.
    fn resolve(n: usize, proposals: &[Option<ScoredSwap>]) -> Vec<ScoredSwap> {
        let ctx = EvalContext::new(&classic::cycle(n));
        resolve_round_with(&SumObjective, &ctx, proposals)
    }

    #[test]
    fn resolution_prefers_lowest_agent_index() {
        // Agents 0 and 2 both want edge {0,2}-adjacent moves that collide.
        let proposals = vec![
            Some(scored(0, 1, 2)), // footprint {01, 02}
            None,
            Some(scored(2, 0, 3)), // footprint {02, 23} — collides on 02
            Some(scored(3, 2, 5)), // footprint {23, 35} — disjoint from {01, 02}
        ];
        let accepted = resolve(8, &proposals);
        let agents: Vec<u32> = accepted.iter().map(|s| s.mv.v).collect();
        assert_eq!(agents, vec![0, 3]);
    }

    #[test]
    fn resolution_accepts_disjoint_moves() {
        let proposals = vec![
            Some(scored(0, 1, 2)),
            None,
            None,
            Some(scored(3, 4, 5)),
            Some(scored(4, 3, 6)), // {34} collides with agent 3's deletion
        ];
        let accepted = resolve(8, &proposals);
        let agents: Vec<u32> = accepted.iter().map(|s| s.mv.v).collect();
        assert_eq!(agents, vec![0, 3]);
    }

    /// The original linear-scan resolution, kept verbatim as the
    /// reference the hashed implementation must reproduce move for move.
    fn resolve_round_linear_reference(proposals: &[Option<ScoredSwap>]) -> Vec<ScoredSwap> {
        let mut accepted: Vec<ScoredSwap> = Vec::new();
        let mut touched: Vec<Edge> = Vec::new();
        for s in proposals.iter().flatten() {
            let fp = s.mv.footprint();
            if fp.iter().any(|e| touched.contains(e)) {
                continue;
            }
            touched.extend_from_slice(&fp);
            accepted.push(*s);
        }
        accepted
    }

    #[test]
    fn hashed_resolution_matches_linear_reference() {
        // A dense conflict round: every agent on a 256-vertex cycle wants
        // to rewire one of its two incident edges to a nearby vertex, so
        // footprints collide heavily (each accepted move blocks both its
        // neighbors' proposals) and acceptance order genuinely decides
        // the outcome. A cheap deterministic LCG drives the variety.
        let n: u32 = 256;
        let mut state = 0x9E37_79B9u64;
        let mut next = |m: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % m
        };
        for density in [2u32, 3, 7] {
            // Conflicts are *edge*-equality collisions, so the only way two
            // deletions collide is both endpoints of one edge proposing it:
            // each agent deletes its successor or predecessor cycle edge at
            // random, and every (v picks succ, v+1 picks pred) pair fights
            // over edge {v, v+1}.
            let proposals: Vec<Option<ScoredSwap>> = (0..n)
                .map(|v| {
                    if next(density) == 0 {
                        return None;
                    }
                    let w = if next(2) == 0 {
                        (v + 1) % n
                    } else {
                        (v + n - 1) % n
                    };
                    let w2 = (v + 2 + next(5)) % n;
                    if w2 == v || w2 == w {
                        return None;
                    }
                    Some(ScoredSwap {
                        mv: SwapMove { v, w, w2 },
                        old_cost: 100,
                        new_cost: 90,
                    })
                })
                .collect();
            let hashed = resolve(n as usize, &proposals);
            let linear = resolve_round_linear_reference(&proposals);
            assert!(!hashed.is_empty(), "dense round must accept something");
            assert!(
                hashed.len() < proposals.iter().flatten().count(),
                "dense round must also reject something"
            );
            assert_eq!(
                hashed, linear,
                "acceptance order diverged at density {density}"
            );
        }
    }

    #[test]
    fn star_is_a_round_fixed_point() {
        let engine = RoundDynamics::<SumObjective>::new(RoundConfig::default());
        let result = engine.run(&classic::star(12));
        assert_eq!(result.outcome, Outcome::Converged);
        assert_eq!(result.rounds, 1);
        assert_eq!(result.moves_applied, 0);
        assert_eq!(result.cycle_period, None);
    }

    #[test]
    fn converged_round_runs_end_at_swap_equilibria() {
        let engine = RoundDynamics::<SumObjective>::new(RoundConfig::default());
        for start in [classic::path(9), classic::cycle(8), classic::grid(3, 4)] {
            let result = engine.run(&start);
            assert_eq!(result.graph.m(), start.m(), "swaps preserve edge count");
            if result.outcome == Outcome::Converged {
                assert!(
                    SumGame::is_equilibrium(&result.graph),
                    "converged endpoint must be a swap equilibrium"
                );
            } else {
                assert_eq!(result.outcome, Outcome::Cycled, "round cap must not bind");
            }
        }
    }

    #[test]
    fn round_runs_are_deterministic() {
        let engine = RoundDynamics::<MaxObjective>::new(RoundConfig::default());
        let a = engine.run(&classic::path(11));
        let b = engine.run(&classic::path(11));
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.cycle_period, b.cycle_period);
    }

    #[test]
    fn every_round_repairs_never_rebuilds() {
        // Both orbit shapes: path(10) oscillates, path(9) converges (its
        // final round carries an empty batch and must not skew the
        // counters either way).
        for start in [classic::path(10), classic::path(9)] {
            let engine = RoundDynamics::<SumObjective>::new(RoundConfig::default());
            let result = engine.run(&start);
            assert!(result.repair.updates > 0);
            assert_eq!(
                result.repair.incremental, result.repair.updates,
                "every round must be serviced incrementally"
            );
        }
    }

    #[test]
    fn sink_records_reconcile_with_the_run_result() {
        // path(10) oscillates (cycled), path(9) converges — both final
        // statuses must show up on the last record.
        for start in [classic::path(10), classic::path(9)] {
            let engine = RoundDynamics::<SumObjective>::new(RoundConfig::default());
            let mut sink = crate::sink::MemorySink::new();
            let result = engine.run_with_sink(&start, &mut sink);
            assert_eq!(sink.records.len(), result.rounds);
            let applied: usize = sink.records.iter().map(|r| r.applied).sum();
            assert_eq!(applied, result.moves_applied);
            let proposed: usize = sink.records.iter().map(|r| r.proposed).sum();
            assert_eq!(proposed, result.moves_proposed);
            let updates: u64 = sink.records.iter().map(|r| r.repair.updates).sum();
            assert_eq!(updates, result.repair.updates, "round deltas tile the run");
            let last = sink.records.last().expect("at least one round");
            assert_eq!(last.converged, result.outcome == Outcome::Converged);
            assert_eq!(last.cycle_period, result.cycle_period);
            // Simultaneous rounds may transiently disconnect the network,
            // so `social_cost` is only required on the final record (both
            // endpoints here are connected states).
            assert!(last.social_cost.is_some());
            for r in &sink.records {
                assert_eq!(r.conflicted, r.proposed - r.applied);
            }
            if bncg_telemetry::enabled() {
                for r in sink.records.iter().filter(|r| r.repair.rows_repaired > 0) {
                    assert!(
                        r.phases.phase1_ns > 0,
                        "repairing rounds must carry phase-1 time"
                    );
                }
            }
        }
    }

    #[test]
    fn first_improving_rounds_also_terminate() {
        let config = RoundConfig {
            response: Response::FirstImproving,
            ..RoundConfig::default()
        };
        let engine = RoundDynamics::<SumObjective>::new(config);
        let result = engine.run(&classic::path(8));
        assert_ne!(result.outcome, Outcome::Capped);
    }
}
