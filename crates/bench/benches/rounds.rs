//! Round-mode benchmarks: batch repair at the round barrier vs per-swap
//! sequential repairs, and the copy-plus-repair masked scan vs the fresh
//! per-edge masked APSP it replaced.
//!
//! `BENCH_rounds.json` is produced from this suite via
//! `BNCG_BENCH_JSON=BENCH_rounds.json cargo bench -p bncg_bench --bench
//! rounds`. The `round_replay_*` pair is the round-trajectory throughput
//! comparison: the same synthesized round stream (k = 16 edge-disjoint
//! swaps per round) with per-round base-matrix audits, switching only
//! whether each barrier repairs as one batch or as k composed per-swap
//! repairs; the `er_wide` family replays k = 64 swaps per round at
//! n = 256, the wide barriers of a cold start's first rounds, where the
//! batch's endpoints cover half the vertices. The `masked_scan_*` pair is the acceptance comparison for the
//! rewritten `EdgeSwapScan`: one deleted-edge APSP derived from the base
//! matrix vs built by `n` masked BFS runs. `round_engine` runs the real
//! frozen-snapshot engine end to end (proposals + resolution + batch
//! repair) against the sequential engine on the same start.

use std::hint::black_box;

use bncg_bench::workload::{replay_round_stream, synth_round_stream};
use bncg_core::objective::SumObjective;
use bncg_dynamics::engine::{DynamicsConfig, SwapDynamics};
use bncg_dynamics::rounds::{RoundConfig, RoundDynamics};
use bncg_graph::dynamic::masked_apsp_from_base;
use bncg_graph::generators::random::random_connected;
use bncg_graph::DistanceMatrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_round_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("rounds");
    group.sample_size(10);
    for &n in &[512usize, 2048] {
        let mut rng = StdRng::seed_from_u64(0x0520 + n as u64);
        for (family, g0) in [
            ("er", random_connected(&mut rng, n, n / 4)),
            (
                "tree",
                bncg_graph::generators::random::random_tree(&mut rng, n),
            ),
            // Very sparse non-tree density (extra = n/64): the regime the
            // ROADMAP flagged as roughly neutral before the fused batch
            // blend — blend work dominates both arms there, so this family
            // is where the k-term fusion has to show up end to end.
            ("er_sparse", random_connected(&mut rng, n, n / 64)),
        ] {
            let stream = synth_round_stream(&mut rng, &g0, 4, 16);
            assert!(stream.iter().all(|r| r.len() == 16));
            assert_eq!(
                replay_round_stream(&g0, &stream, true),
                replay_round_stream(&g0, &stream, false),
                "arms must agree at n = {n}"
            );

            group.bench_with_input(
                BenchmarkId::new(format!("round_replay_sequential_{family}"), n),
                &(&g0, &stream),
                |b, (g0, stream)| b.iter(|| black_box(replay_round_stream(g0, stream, false))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("round_replay_batched_{family}"), n),
                &(&g0, &stream),
                |b, (g0, stream)| b.iter(|| black_box(replay_round_stream(g0, stream, true))),
            );
        }

        let g0 = random_connected(&mut rng, n, n / 4);
        // Masked scan: one deleted edge, fresh build vs copy-plus-repair.
        let csr = g0.to_csr();
        let base = DistanceMatrix::build(&csr);
        let e = g0.edge_vec()[0];
        let edge = (e.u, e.v);
        group.bench_with_input(BenchmarkId::new("masked_scan_fresh", n), &(), |b, ()| {
            b.iter(|| {
                let m = DistanceMatrix::build_masked(&csr, edge);
                let x = black_box(m.get(0, (n - 1) as u32));
                m.recycle();
                x
            })
        });
        group.bench_with_input(
            BenchmarkId::new("masked_scan_from_base", n),
            &(),
            |b, ()| {
                b.iter(|| {
                    let m = masked_apsp_from_base(&csr, &base, edge);
                    let x = black_box(m.get(0, (n - 1) as u32));
                    m.recycle();
                    x
                })
            },
        );
    }

    // Wide barriers, as in a cold start's first rounds: k = 64 swaps per
    // round at n = 256, so the batch's endpoints cover half the vertices.
    // Its own rng, drawn after the loop above, keeps every other id's
    // workload bit-identical.
    let n = 256usize;
    let mut rng = StdRng::seed_from_u64(0x0520_3171);
    let g0 = random_connected(&mut rng, n, 64);
    let stream = synth_round_stream(&mut rng, &g0, 4, 64);
    assert!(stream.iter().all(|r| r.len() == 64));
    assert_eq!(
        replay_round_stream(&g0, &stream, true),
        replay_round_stream(&g0, &stream, false),
        "arms must agree on the wide stream"
    );
    group.bench_with_input(
        BenchmarkId::new("round_replay_sequential_er_wide", n),
        &(&g0, &stream),
        |b, (g0, stream)| b.iter(|| black_box(replay_round_stream(g0, stream, false))),
    );
    group.bench_with_input(
        BenchmarkId::new("round_replay_batched_er_wide", n),
        &(&g0, &stream),
        |b, (g0, stream)| b.iter(|| black_box(replay_round_stream(g0, stream, true))),
    );
    group.finish();
}

fn bench_round_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("rounds");
    group.sample_size(10);
    // The real engines, end to end, on a size where full best-response
    // proposal sweeps stay benchmarkable. Both are capped to the same
    // round budget so a round-mode oscillation cannot skew the comparison.
    let n = 256;
    let mut rng = StdRng::seed_from_u64(0xE46);
    let g0 = random_connected(&mut rng, n, n / 4);
    let round_cfg = RoundConfig {
        max_rounds: 6,
        ..RoundConfig::default()
    };
    let seq_cfg = DynamicsConfig {
        max_rounds: 6,
        ..DynamicsConfig::default()
    };
    group.bench_with_input(BenchmarkId::new("round_engine", n), &g0, |b, g0| {
        b.iter(|| {
            let engine = RoundDynamics::<SumObjective>::new(round_cfg);
            black_box(engine.run(g0).moves_applied)
        })
    });
    group.bench_with_input(BenchmarkId::new("sequential_engine", n), &g0, |b, g0| {
        b.iter(|| {
            let engine = SwapDynamics::<SumObjective>::new(seq_cfg);
            let mut rng = StdRng::seed_from_u64(0xE46);
            black_box(engine.run(g0, &mut rng).moves)
        })
    });
    group.finish();
}

/// Per-phase repair-timing percentiles, published as derived records.
///
/// One batched ER replay at n = 2048 (the canonical `round_replay_batched_er`
/// workload) runs between two telemetry snapshots; the per-phase histograms
/// of the delta — stage-A marking, phase-1 walks, phase-2 settles, cost
/// blends — yield p50/p99 nanoseconds per repaired row,
/// reported via [`Criterion::report_scalar`] so they land in
/// `BENCH_rounds.json` next to the timed medians. The ids live under
/// `rounds/phase/…`, disjoint from every timed id, so existing consumers
/// (the `recorded_median` CI gate) are unaffected. Skipped entirely when
/// the `telemetry` feature is compiled out.
fn bench_round_phases(c: &mut Criterion) {
    use bncg_telemetry as telemetry;
    if !telemetry::enabled() {
        eprintln!("rounds/phase/*: telemetry feature is off; skipping phase percentiles");
        return;
    }
    let n = 2048usize;
    let mut rng = StdRng::seed_from_u64(0x0520 + n as u64);
    let g0 = random_connected(&mut rng, n, n / 4);
    let stream = synth_round_stream(&mut rng, &g0, 4, 16);
    black_box(replay_round_stream(&g0, &stream, true)); // warm pools
    let before = telemetry::snapshot();
    black_box(replay_round_stream(&g0, &stream, true));
    let delta = telemetry::snapshot().delta_since(&before);
    for phase in ["stage_a", "phase1", "phase2", "blend"] {
        let hist = delta
            .histogram(&format!("apsp.{phase}_ns"))
            .cloned()
            .unwrap_or_else(telemetry::HistogramSnapshot::empty);
        c.report_scalar(
            format!("rounds/phase/{phase}/p50_ns"),
            hist.quantile(0.5) as f64,
        );
        c.report_scalar(
            format!("rounds/phase/{phase}/p99_ns"),
            hist.quantile(0.99) as f64,
        );
    }
}

criterion_group!(
    benches,
    bench_round_replay,
    bench_round_engine,
    bench_round_phases
);
criterion_main!(benches);
