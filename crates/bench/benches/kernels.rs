//! Compact-distance kernel benchmarks: the vectorized u16 row primitives
//! against the scalar u32 baselines they replaced.
//!
//! `BENCH_kernels.json` is produced from this suite via
//! `BNCG_BENCH_JSON=BENCH_kernels.json cargo bench -p bncg_bench --bench
//! kernels`. Pairs at each size:
//!
//! * `blend_cost_sum_u16` vs `blend_cost_sum_u32_scalar` — the sum
//!   objective's `cost_with_insertion`, the single hottest scan in swap
//!   scoring (one per candidate per deleted edge). The u32 baseline is
//!   the pre-kernel implementation verbatim: branchy early-exit loop over
//!   wide rows.
//! * `blend_cost_ecc_u16` vs `blend_cost_ecc_u32_scalar` — the max
//!   objective's counterpart.
//! * `row_cost_u16` vs `row_cost_u32_scalar` — the plain sum+ecc row
//!   reduction behind `agent_cost` and the maintained aggregates.
//! * `fused_batch_blend_u16/k16` vs `replay_batch_blend_u16/k16` — one
//!   fused pass applying 16 insertions' min terms vs 16 sequential
//!   two-sided passes over the same rows (the round-barrier workload).
//!
//! The CI bench-smoke job gates `blend_cost_sum_u16` at ≥ 1.5× the u32
//! scalar baseline at n = 2048 (see `bncg_bench`'s perf-gate tests).

use std::hint::black_box;

use bncg_bench::baseline::{
    blend_cost_ecc_u32 as blend_cost_ecc_u32_scalar,
    blend_cost_sum_u32 as blend_cost_sum_u32_scalar, row_cost_u32 as row_cost_u32_scalar,
};
use bncg_graph::kernels::{self, BlendTerm, Dist};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random compact row shaped like a real BFS row: distances up to a small
/// diameter, no sentinels (the connected hot path).
fn sample_row(rng: &mut StdRng, n: usize, diam: u16) -> Vec<Dist> {
    (0..n).map(|_| rng.gen_range(0..=diam)).collect()
}

fn widen(row: &[Dist]) -> Vec<u32> {
    row.iter().map(|&d| kernels::widen(d)).collect()
}

fn bench_row_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    for &n in &[512usize, 2048, 8192] {
        let mut rng = StdRng::seed_from_u64(0x16B1 + n as u64);
        let base = sample_row(&mut rng, n, 9);
        let via = sample_row(&mut rng, n, 9);
        let base32 = widen(&base);
        let via32 = widen(&via);

        group.bench_with_input(BenchmarkId::new("blend_cost_sum_u16", n), &(), |b, ()| {
            b.iter(|| black_box(kernels::blend_cost_sum(black_box(&base), black_box(&via))))
        });
        group.bench_with_input(
            BenchmarkId::new("blend_cost_sum_u32_scalar", n),
            &(),
            |b, ()| {
                b.iter(|| {
                    black_box(blend_cost_sum_u32_scalar(
                        black_box(&base32),
                        black_box(&via32),
                    ))
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("blend_cost_ecc_u16", n), &(), |b, ()| {
            b.iter(|| black_box(kernels::blend_cost_ecc(black_box(&base), black_box(&via))))
        });
        group.bench_with_input(
            BenchmarkId::new("blend_cost_ecc_u32_scalar", n),
            &(),
            |b, ()| {
                b.iter(|| {
                    black_box(blend_cost_ecc_u32_scalar(
                        black_box(&base32),
                        black_box(&via32),
                    ))
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("row_cost_u16", n), &(), |b, ()| {
            b.iter(|| black_box(kernels::row_cost(black_box(&base))))
        });
        group.bench_with_input(BenchmarkId::new("row_cost_u32_scalar", n), &(), |b, ()| {
            b.iter(|| black_box(row_cost_u32_scalar(black_box(&base32))))
        });
    }
    group.finish();
}

fn bench_fused_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    let k = 16usize;
    for &n in &[512usize, 2048] {
        let mut rng = StdRng::seed_from_u64(0xF0ED + n as u64);
        let row0 = sample_row(&mut rng, n, 9);
        let snaps: Vec<(Vec<Dist>, Vec<Dist>)> = (0..k)
            .map(|_| (sample_row(&mut rng, n, 9), sample_row(&mut rng, n, 9)))
            .collect();
        let consts: Vec<(Dist, Dist)> = (0..k)
            .map(|_| (rng.gen_range(1..8u16), rng.gen_range(4..12u16)))
            .collect();
        let terms: Vec<BlendTerm<'_>> = (0..k)
            .map(|j| BlendTerm {
                add_a: consts[j].0,
                row_a: &snaps[j].0,
                add_b: consts[j].1,
                row_b: &snaps[j].1,
            })
            .collect();

        let mut buf = row0.clone();
        group.bench_with_input(
            BenchmarkId::new(format!("fused_batch_blend_u16_k{k}"), n),
            &(),
            |b, ()| {
                b.iter(|| {
                    buf.copy_from_slice(&row0);
                    black_box(kernels::fused_blend_cost(
                        black_box(&mut buf),
                        black_box(&terms),
                    ))
                })
            },
        );
        let mut buf2 = row0.clone();
        group.bench_with_input(
            BenchmarkId::new(format!("replay_batch_blend_u16_k{k}"), n),
            &(),
            |b, ()| {
                b.iter(|| {
                    buf2.copy_from_slice(&row0);
                    // k sequential two-sided passes: what the round
                    // barrier paid before the fused kernel.
                    let mut last = kernels::RowCost::default();
                    for term in &terms {
                        last = kernels::fused_blend_cost(
                            black_box(&mut buf2),
                            std::slice::from_ref(term),
                        );
                    }
                    black_box(last)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_row_kernels, bench_fused_batch);
criterion_main!(benches);
