//! Dynamic-distance subsystem benchmarks: incremental APSP maintenance
//! (`EvalContext::refresh_after` → `DynamicApsp` row repairs) against the
//! full-refresh baseline (`EvalContext::refresh` → rebuild `n` BFS trees),
//! on the workload that motivated the subsystem — dynamics trajectories
//! whose every step changes exactly one edge.
//!
//! `BENCH_incremental.json` is produced from this suite via
//! `BNCG_BENCH_JSON=BENCH_incremental.json cargo bench -p bncg_bench
//! --bench incremental`. The `trajectory_*` pair is the acceptance
//! comparison: replaying the same recorded best-response moves with the
//! per-move audit the traced engine performs, switching only the refresh
//! path.

use std::hint::black_box;

use bncg_bench::workload::{record_trajectory, replay};
use bncg_graph::adjacency::SwapApplied;
use bncg_graph::dynamic::DynamicApsp;
use bncg_graph::generators::random::random_connected;
use bncg_graph::DistanceMatrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_trajectories(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    for &n in &[512usize, 2048] {
        let mut rng = StdRng::seed_from_u64(0xD15C0 + n as u64);
        let g0 = random_connected(&mut rng, n, n / 4);
        let moves = record_trajectory(&g0, 8);
        assert!(
            moves.len() >= 4,
            "trajectory too short at n = {n}: {} moves",
            moves.len()
        );

        group.bench_with_input(
            BenchmarkId::new("trajectory_full", n),
            &(&g0, &moves),
            |b, (g0, moves)| b.iter(|| black_box(replay(g0, moves, false))),
        );
        group.bench_with_input(
            BenchmarkId::new("trajectory_incremental", n),
            &(&g0, &moves),
            |b, (g0, moves)| b.iter(|| black_box(replay(g0, moves, true))),
        );

        // Single-update comparison: one forward + one inverse swap repair
        // against two full rebuilds, state restored every iteration.
        let Some((fwd, g1)) = moves.iter().find_map(|mv| {
            let mut h = g0.clone();
            matches!(mv.apply(&mut h), SwapApplied::Swapped { .. }).then_some((*mv, h))
        }) else {
            continue;
        };
        let csr0 = g0.to_csr();
        let csr1 = g1.to_csr();
        let fwd_rec = SwapApplied::Swapped {
            v: fwd.v,
            w: fwd.w,
            w2: fwd.w2,
        };
        let inv_rec = SwapApplied::Swapped {
            v: fwd.v,
            w: fwd.w2,
            w2: fwd.w,
        };
        let mut da = DynamicApsp::build(&csr0);
        group.bench_with_input(BenchmarkId::new("swap_repair_pair", n), &(), |b, ()| {
            b.iter(|| {
                da.apply_swap(&csr1, &fwd_rec);
                da.apply_swap(&csr0, &inv_rec);
                black_box(da.matrix().get(0, 1))
            })
        });
        let mut dm = DistanceMatrix::build(&csr0);
        group.bench_with_input(BenchmarkId::new("apsp_rebuild_pair", n), &(), |b, ()| {
            b.iter(|| {
                dm.rebuild(&csr1);
                dm.rebuild(&csr0);
                black_box(dm.get(0, 1))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trajectories);
criterion_main!(benches);
