//! Streaming round-stats pipeline: one structured record per activation
//! round, pushed into a pluggable sink.
//!
//! The engines' `*_with_sink` variants ([`crate::rounds::RoundDynamics::run_with_sink`],
//! [`crate::engine::SwapDynamics::run_with_sink`]) and the round
//! service's sessions ([`crate::service::RoundService::run_session`],
//! [`replay_session`](crate::service::RoundService::replay_session)) emit
//! a [`RoundRecord`] after every round: proposal/acceptance counts, the
//! social cost and its delta, convergence/cycle status, and the round's
//! slice of the dynamic-distance counters — both the per-`DynamicApsp`
//! [`RepairStats`] delta and the process-global repair-phase timing delta
//! ([`RepairPhases`], all zeros when the `telemetry` feature is off).
//! Every engine builds its records through the one crate-private builder
//! here (`SessionBook` + `emit_record`), so the sequential and round
//! streams cannot drift apart in how they book a round.
//!
//! Records serialize to JSON Lines through [`RoundRecord::to_jsonl`] /
//! [`RoundRecord::from_jsonl`] — hand-rolled over
//! [`bncg_telemetry::json`] because this workspace builds offline (the
//! `serde` shim derives are no-ops). The schema is documented in
//! `ARCHITECTURE.md` ("Observability") and pinned by the round-trip tests
//! below and the facade's `tests/metrics_schema.rs`.
//!
//! **Caveat (phase deltas):** [`RepairPhases`] reads process-global
//! histograms, so two dynamics runs in flight at once attribute each
//! other's repair time to their concurrent rounds. The per-run
//! [`RepairStats`] delta has no such aliasing (it lives on the run's own
//! `DynamicApsp`).

use std::io::{self, Write};

use bncg_core::context::EvalContext;
use bncg_core::rules::GameRules;
use bncg_graph::dynamic::{repair_phase_totals, RepairPhases, RepairStats};
use bncg_telemetry::json::{self, Json};

use crate::engine::Outcome;

/// One resolved activation round, as emitted by the `*_with_sink`
/// engine variants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRecord {
    /// Round number (1-based).
    pub round: usize,
    /// Agents that proposed an improving move this round. For the
    /// sequential engine this equals `applied` (every activation that
    /// found a move played it immediately).
    pub proposed: usize,
    /// Moves actually applied this round (post conflict resolution).
    pub applied: usize,
    /// Proposals dropped by conflict resolution (`proposed - applied`;
    /// always `0` for the sequential engine).
    pub conflicted: usize,
    /// Social usage cost (sum of ordered pairwise distances) *after* the
    /// round; `None` while the network is transiently disconnected.
    pub social_cost: Option<u64>,
    /// `social_cost` minus the previous round's (negative = the round
    /// helped the aggregate); `None` when either endpoint is unknown.
    pub cost_delta: Option<i64>,
    /// Revisit period when this round closed a cycle.
    pub cycle_period: Option<usize>,
    /// Whether this round proved convergence (no agent proposed).
    pub converged: bool,
    /// Dynamic-distance counters attributable to this round
    /// ([`RepairStats::delta_since`] across the round).
    pub repair: RepairStats,
    /// Repair-phase wall-clock attributable to this round
    /// ([`RepairPhases::delta_since`] across the round; all zeros when
    /// telemetry is compiled out).
    pub phases: RepairPhases,
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

fn opt_i64(v: Option<i64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

fn opt_usize(v: Option<usize>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

impl RoundRecord {
    /// The record as one JSON Lines row (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        // `full_rebuilds` and `rebuild_ns` are constant zeros (every update
        // is repaired in place); they stay so recorded streams keep their bytes.
        format!(
            concat!(
                "{{\"round\":{},\"proposed\":{},\"applied\":{},\"conflicted\":{},",
                "\"social_cost\":{},\"cost_delta\":{},\"cycle_period\":{},\"converged\":{},",
                "\"repair\":{{\"updates\":{},\"incremental\":{},\"full_rebuilds\":0,",
                "\"rows_repaired\":{},\"rows_blended\":{},\"batches\":{}}},",
                "\"phases\":{{\"stage_a_ns\":{},\"phase1_ns\":{},\"phase2_ns\":{},",
                "\"blend_ns\":{},\"rebuild_ns\":0}}}}"
            ),
            self.round,
            self.proposed,
            self.applied,
            self.conflicted,
            opt_u64(self.social_cost),
            opt_i64(self.cost_delta),
            opt_usize(self.cycle_period),
            self.converged,
            self.repair.updates,
            self.repair.incremental,
            self.repair.rows_repaired,
            self.repair.rows_blended,
            self.repair.batches,
            self.phases.stage_a_ns,
            self.phases.phase1_ns,
            self.phases.phase2_ns,
            self.phases.blend_ns,
        )
    }

    /// Parses one JSON Lines row back into a record. Top-level and nested
    /// keys are required except the three nullable ones (`social_cost`,
    /// `cost_delta`, `cycle_period`); unknown keys, and the constant
    /// `full_rebuilds` and `rebuild_ns`, are ignored.
    pub fn from_jsonl(line: &str) -> Result<RoundRecord, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let req_usize = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("missing or non-integer key {key:?}"))
        };
        let req_u64 = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer key {key:?}"))
        };
        fn opt<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a Json>, String> {
            match obj.get(key) {
                None => Err(format!("missing key {key:?}")),
                Some(j) if j.is_null() => Ok(None),
                Some(j) => Ok(Some(j)),
            }
        }
        let repair_obj = v
            .get("repair")
            .ok_or_else(|| "missing key \"repair\"".to_string())?;
        let phases_obj = v
            .get("phases")
            .ok_or_else(|| "missing key \"phases\"".to_string())?;
        Ok(RoundRecord {
            round: req_usize(&v, "round")?,
            proposed: req_usize(&v, "proposed")?,
            applied: req_usize(&v, "applied")?,
            conflicted: req_usize(&v, "conflicted")?,
            social_cost: opt(&v, "social_cost")?
                .map(|j| {
                    j.as_u64()
                        .ok_or_else(|| "non-integer social_cost".to_string())
                })
                .transpose()?,
            cost_delta: opt(&v, "cost_delta")?
                .map(|j| {
                    j.as_i64()
                        .ok_or_else(|| "non-integer cost_delta".to_string())
                })
                .transpose()?,
            cycle_period: opt(&v, "cycle_period")?
                .map(|j| {
                    j.as_usize()
                        .ok_or_else(|| "non-integer cycle_period".to_string())
                })
                .transpose()?,
            converged: v
                .get("converged")
                .and_then(Json::as_bool)
                .ok_or_else(|| "missing or non-boolean key \"converged\"".to_string())?,
            repair: RepairStats {
                updates: req_u64(repair_obj, "updates")?,
                incremental: req_u64(repair_obj, "incremental")?,
                rows_repaired: req_u64(repair_obj, "rows_repaired")?,
                rows_blended: req_u64(repair_obj, "rows_blended")?,
                batches: req_u64(repair_obj, "batches")?,
                ..RepairStats::default()
            },
            phases: RepairPhases {
                stage_a_ns: req_u64(phases_obj, "stage_a_ns")?,
                phase1_ns: req_u64(phases_obj, "phase1_ns")?,
                phase2_ns: req_u64(phases_obj, "phase2_ns")?,
                blend_ns: req_u64(phases_obj, "blend_ns")?,
            },
        })
    }
}

/// Consumer of the per-round record stream.
///
/// `record_round` is called once per executed round, in order; `finish`
/// once when the run ends (flush point for buffered writers). `active`
/// lets engines skip building records nobody will read — [`NullSink`]
/// returns `false` and costs a run nothing beyond one branch per round.
pub trait MetricsSink {
    /// Whether the sink wants records at all (`true` for every real sink).
    fn active(&self) -> bool {
        true
    }
    /// Accepts the record of one executed round.
    fn record_round(&mut self, record: &RoundRecord);
    /// Signals the end of the run (default: no-op).
    fn finish(&mut self) {}
}

/// The do-nothing sink the plain `run` entry points use.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl MetricsSink for NullSink {
    fn active(&self) -> bool {
        false
    }
    fn record_round(&mut self, _record: &RoundRecord) {}
}

/// Collects records in memory (tests, experiment summary tables).
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// Every record received, in round order.
    pub records: Vec<RoundRecord>,
}

impl MemorySink {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricsSink for MemorySink {
    fn record_round(&mut self, record: &RoundRecord) {
        self.records.push(*record);
    }
}

/// Streams records as JSON Lines into any writer. I/O errors are sticky:
/// the first one is kept (see [`JsonlSink::error`]) and later records are
/// dropped, so a full disk cannot panic a dynamics run.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Sink writing one JSON object per line into `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            error: None,
        }
    }

    /// The first I/O error hit while writing, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Consumes the sink, returning the writer (flushed by `finish`).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> MetricsSink for JsonlSink<W> {
    fn record_round(&mut self, record: &RoundRecord) {
        if self.error.is_some() {
            return;
        }
        let line = record.to_jsonl();
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.error = Some(e);
        }
    }

    fn finish(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.writer.flush() {
            self.error = Some(e);
        }
    }
}

/// Record bookkeeping of one run or session: the previous round's social
/// cost and the counter snapshots the next record's deltas are taken
/// against. With [`emit_record`] it is the one record builder every
/// engine shares.
pub(crate) struct SessionBook {
    prev_cost: Option<u64>,
    round_stats: RepairStats,
    round_phases: RepairPhases,
}

impl SessionBook {
    /// Opens the books against the state a run or session starts from
    /// (the social-cost read is skipped when `sink` discards records).
    pub(crate) fn open<R: GameRules>(
        sink: &dyn MetricsSink,
        rules: &R,
        ctx: &EvalContext,
        stats_before: RepairStats,
    ) -> Self {
        SessionBook {
            prev_cost: if sink.active() {
                rules.social_cost(ctx)
            } else {
                None
            },
            round_stats: stats_before,
            round_phases: repair_phase_totals(),
        }
    }
}

/// Emits one [`RoundRecord`] for the round just played, if `sink` is
/// active. `ended` is the round's terminal verdict, when it has one: a
/// [`Outcome::Converged`] round sets `converged`, and a cycle-closing
/// round carries its revisit period. The social-cost reading goes
/// through the rule set (the basic game reads the maintained matrix;
/// variant games account their own way).
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_record<R: GameRules>(
    sink: &mut dyn MetricsSink,
    rules: &R,
    ctx: &EvalContext,
    book: &mut SessionBook,
    round: usize,
    proposed: usize,
    applied: usize,
    ended: Option<(Outcome, Option<usize>)>,
) {
    if !sink.active() {
        return;
    }
    let stats_now = ctx.dynamic_stats_snapshot();
    let phases_now = repair_phase_totals();
    let cost = rules.social_cost(ctx);
    sink.record_round(&RoundRecord {
        round,
        proposed,
        applied,
        conflicted: proposed - applied,
        social_cost: cost,
        cost_delta: match (book.prev_cost, cost) {
            (Some(a), Some(b)) => Some(b as i64 - a as i64),
            _ => None,
        },
        cycle_period: ended.and_then(|(_, period)| period),
        converged: matches!(ended, Some((Outcome::Converged, _))),
        repair: stats_now.delta_since(&book.round_stats),
        phases: phases_now.delta_since(&book.round_phases),
    });
    book.round_stats = stats_now;
    book.round_phases = phases_now;
    book.prev_cost = cost;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample() -> RoundRecord {
        RoundRecord {
            round: 3,
            proposed: 7,
            applied: 5,
            conflicted: 2,
            social_cost: Some(412),
            cost_delta: Some(-36),
            cycle_period: None,
            converged: false,
            repair: RepairStats {
                updates: 2,
                incremental: 2,
                rows_repaired: 19,
                rows_blended: 11,
                batches: 1,
                ..RepairStats::default()
            },
            phases: RepairPhases {
                stage_a_ns: 1200,
                phase1_ns: 53000,
                phase2_ns: 41000,
                blend_ns: 9000,
            },
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let rec = sample();
        let parsed = RoundRecord::from_jsonl(&rec.to_jsonl()).expect("round-trip");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn nullable_fields_round_trip_as_null() {
        let rec = RoundRecord {
            social_cost: None,
            cost_delta: None,
            cycle_period: Some(2),
            converged: true,
            ..sample()
        };
        let line = rec.to_jsonl();
        assert!(line.contains("\"social_cost\":null"));
        assert_eq!(RoundRecord::from_jsonl(&line).expect("round-trip"), rec);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(RoundRecord::from_jsonl("{\"round\":1}").is_err());
        assert!(RoundRecord::from_jsonl("not json").is_err());
    }

    /// Writer that accepts `budget` bytes, then fails every call — the
    /// full-disk simulation behind the sticky-error tests here and the
    /// service's mid-run failure test.
    pub(crate) struct FailingWriter {
        pub budget: usize,
        pub written: Vec<u8>,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written.len() + buf.len() > self.budget {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"));
            }
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_failures_stick_and_preserve_the_prefix() {
        let one_line = sample().to_jsonl().len() + 1;
        let mut sink = JsonlSink::new(FailingWriter {
            budget: one_line, // exactly one record fits
            written: Vec::new(),
        });
        sink.record_round(&sample());
        assert!(sink.error().is_none(), "first record fits the budget");
        sink.record_round(&sample());
        let err = sink.error().expect("second record must hit the wall");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // Sticky: later records and the flush are dropped, the first
        // error is preserved, and the written prefix stays intact.
        sink.record_round(&sample());
        sink.finish();
        assert_eq!(
            sink.error().map(io::Error::kind),
            Some(io::ErrorKind::WriteZero)
        );
        let written = String::from_utf8(sink.into_inner().written).expect("utf8");
        assert_eq!(written.lines().count(), 1);
        RoundRecord::from_jsonl(written.lines().next().unwrap()).expect("intact prefix");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record_round(&sample());
        sink.record_round(&sample());
        sink.finish();
        assert!(sink.error().is_none());
        let out = String::from_utf8(sink.into_inner()).expect("utf8");
        assert_eq!(out.lines().count(), 2);
        for line in out.lines() {
            RoundRecord::from_jsonl(line).expect("each line parses");
        }
    }
}
