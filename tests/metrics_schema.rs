//! Schema check for the streaming round-metrics pipeline: a round-engine
//! run and a sequential run, each streamed through [`JsonlSink`], must
//! emit exactly one JSON Lines record per dynamics round, every line must
//! parse back into a [`RoundRecord`] (and re-serialize byte-exact,
//! pinning the documented schema), the stream must reconcile with the
//! engine's own result, and — when the `telemetry` feature is compiled
//! in — every round that repaired rows must carry non-zero per-phase
//! repair timings.

use bncg::dynamics::engine::{DynamicsConfig, Outcome, Schedule, SwapDynamics};
use bncg::dynamics::rounds::{RoundConfig, RoundDynamics};
use bncg::dynamics::{JsonlSink, RoundRecord};
use bncg::game::objective::SumObjective;
use bncg::graph::generators::random::random_connected;
use bncg::graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn start() -> Graph {
    let n = 24;
    let mut rng = StdRng::seed_from_u64(0x5CE4);
    random_connected(&mut rng, n, n / 4)
}

/// Parses a JSONL stream line by line, checking the per-record schema
/// invariants, and returns the records.
fn parse_stream(sink: JsonlSink<Vec<u8>>) -> Vec<RoundRecord> {
    assert!(sink.error().is_none(), "in-memory writes cannot fail");
    let text = String::from_utf8(sink.into_inner()).expect("JSONL output is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "the run must emit at least one round");
    let mut records = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let parsed = RoundRecord::from_jsonl(line)
            .unwrap_or_else(|e| panic!("line {i} does not parse: {e}\n{line}"));
        // The serializer is the schema: re-emitting the parsed record must
        // reproduce the line byte-exact (field order, nulls and all).
        assert_eq!(*line, parsed.to_jsonl(), "line {i} round-trips");
        assert_eq!(parsed.round, i + 1, "rounds are 1-based and consecutive");
        assert!(parsed.applied <= parsed.proposed);
        assert_eq!(parsed.conflicted, parsed.proposed - parsed.applied);
        // Per-phase repair timings per round.
        if bncg::telemetry::enabled() && parsed.repair.rows_repaired > 0 {
            assert!(
                parsed.phases.phase1_ns > 0,
                "round {} repaired {} rows but reports no phase-1 time",
                parsed.round,
                parsed.repair.rows_repaired
            );
        }
        records.push(parsed);
    }
    records
}

/// The final record's verdict agrees with the run's outcome.
fn assert_last_matches(last: &RoundRecord, outcome: Outcome, cycle_period: Option<usize>) {
    assert_eq!(last.converged, outcome == Outcome::Converged);
    assert_eq!(last.cycle_period, cycle_period);
    if last.converged {
        assert_eq!(last.proposed, 0, "a converged final round proposed nothing");
    }
}

#[test]
fn traced_rounds_emit_one_parseable_jsonl_record_per_round() {
    // Input 1: the round engine. The stream reconciles with the run it
    // narrates.
    let engine = RoundDynamics::<SumObjective>::new(RoundConfig {
        max_rounds: 64,
        ..RoundConfig::default()
    });
    let mut sink = JsonlSink::new(Vec::new());
    let result = engine.run_with_sink(&start(), &mut sink);
    let records = parse_stream(sink);
    assert_eq!(records.len(), result.rounds);
    let proposed: usize = records.iter().map(|r| r.proposed).sum();
    let applied: usize = records.iter().map(|r| r.applied).sum();
    assert_eq!(proposed, result.moves_proposed);
    assert_eq!(applied, result.moves_applied);
    assert_last_matches(
        records.last().expect("non-empty"),
        result.outcome,
        result.cycle_period,
    );

    // Input 2: the sequential engine, round-robin. It has no conflict
    // resolution: every activation that found a move played it.
    let engine = SwapDynamics::<SumObjective>::new(DynamicsConfig {
        schedule: Schedule::RoundRobin,
        ..DynamicsConfig::default()
    });
    let mut sink = JsonlSink::new(Vec::new());
    let result = engine.run_with_sink(&start(), &mut StdRng::seed_from_u64(0), &mut sink);
    let records = parse_stream(sink);
    for r in &records {
        assert_eq!(r.proposed, r.applied, "round {}", r.round);
        assert_eq!(r.conflicted, 0, "round {}", r.round);
    }
    assert_eq!(records.len(), result.rounds);
    let applied: usize = records.iter().map(|r| r.applied).sum();
    assert_eq!(applied, result.moves);
    assert_last_matches(
        records.last().expect("non-empty"),
        result.outcome,
        result.cycle_period,
    );
}
