//! Equilibrium-checker benchmarks: the polynomial-time detection claim of
//! the paper, measured (fast scan vs brute-force reference).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bncg_core::context::EvalContext;
use bncg_core::equilibrium::{MaxGame, SumGame};
use bncg_core::objective::{Objective, SumObjective};
use bncg_core::rules::GameRules;
use bncg_core::stability::{is_deletion_critical, is_insertion_stable};
use bncg_core::verify::reference_is_sum_equilibrium;
use bncg_graph::generators::random::random_connected;
use bncg_graph::{BfsScratch, DistanceMatrix, Graph, V};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graphs(n: usize) -> bncg_graph::Graph {
    let mut rng = StdRng::seed_from_u64(n as u64);
    random_connected(&mut rng, n, n / 2)
}

fn bench_sum_check(c: &mut Criterion) {
    // Witness search on random (non-equilibrium) graphs short-circuits at
    // the first improving swap; the full audit runs on stars, which ARE
    // equilibria, so every (edge, agent, candidate) triple is examined.
    let mut group = c.benchmark_group("equilibrium/sum_witness_search");
    group.sample_size(10);
    for &n in &[32usize, 64, 128] {
        let g = graphs(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(SumGame::find_improving_swap(g)));
        });
    }
    group.finish();
    let mut group = c.benchmark_group("equilibrium/sum_full_audit_star");
    group.sample_size(10);
    for &n in &[32usize, 64, 128] {
        let g = bncg_graph::generators::classic::star(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                assert!(SumGame::is_equilibrium(g));
            });
        });
    }
    group.finish();
}

fn bench_fast_vs_reference(c: &mut Criterion) {
    // The repaired Figure 3 is an equilibrium, so neither path can
    // short-circuit: this is the honest fast-vs-brute comparison.
    let mut group = c.benchmark_group("equilibrium/fast_vs_reference");
    group.sample_size(10);
    let g = bncg_constructions::fig3::repaired_fig3();
    group.bench_function("fast_repaired_fig3", |b| {
        b.iter(|| {
            assert!(SumGame::is_equilibrium(&g));
        });
    });
    group.bench_function("reference_repaired_fig3", |b| {
        b.iter(|| {
            assert!(reference_is_sum_equilibrium(&g));
        });
    });
    group.finish();
}

fn bench_max_and_stability(c: &mut Criterion) {
    let mut group = c.benchmark_group("equilibrium/max_and_stability");
    group.sample_size(10);
    let torus = bncg_constructions::torus::rotated_torus(5);
    group.bench_function("max_check_torus_k5", |b| {
        b.iter(|| black_box(MaxGame::is_equilibrium(&torus)));
    });
    group.bench_function("deletion_critical_torus_k5", |b| {
        b.iter(|| black_box(is_deletion_critical(&torus)));
    });
    group.bench_function("insertion_stable_torus_k5", |b| {
        b.iter(|| black_box(is_insertion_stable(&torus)));
    });
    group.finish();
}

fn bench_best_response(c: &mut Criterion) {
    // `ctx/<n>` is the production hot path (long-lived pooled context, as
    // the dynamics engine runs it).
    let mut group = c.benchmark_group("equilibrium/best_response");
    for &n in &[64usize, 256] {
        let g = graphs(n);
        let ctx = EvalContext::new(&g);
        group.bench_with_input(BenchmarkId::new("ctx", n), &n, |b, _| {
            b.iter(|| black_box(SumObjective.best_response(&ctx, 0)));
        });
    }
    group.finish();
}

/// The seed's `SumGame::analyze`, verbatim: CSR + base APSP built here,
/// then the witness search rebuilding *both again* internally (that double
/// build plus the per-scan matrix allocations are exactly what the pooled
/// `EvalContext` path eliminates).
fn naive_analyze_witness(g: &Graph) -> (bool, Option<u32>, u64) {
    let csr = g.to_csr();
    let dm = DistanceMatrix::build(&csr);
    let witness = {
        let csr2 = g.to_csr();
        let base = DistanceMatrix::build(&csr2);
        let mut found = None;
        'outer: for e in g.edge_vec() {
            let scan = bncg_core::evaluator::EdgeSwapScan::new(&csr2, e.u, e.v);
            for agent in [e.u, e.v] {
                let old = SumObjective::cost_of_row(base.row(agent));
                if let Some(s) = scan.best_improving::<SumObjective>(agent, old) {
                    found = Some(s);
                    break 'outer;
                }
            }
        }
        found
    };
    let mut max_cost = 0u64;
    for v in 0..g.n() as V {
        max_cost = max_cost.max(SumObjective::cost_of_row(dm.row(v)));
    }
    (witness.is_some(), dm.diameter(), max_cost)
}

fn bench_evalcontext_n2048(c: &mut Criterion) {
    // The acceptance workload of the EvalContext refactor: a random
    // connected graph with n = 2048, pooled context vs the seed's
    // per-agent-allocation pattern. Recorded into BENCH_baseline.json via
    // BNCG_BENCH_JSON.
    let mut rng = StdRng::seed_from_u64(2048);
    let g = random_connected(&mut rng, 2048, 1024);
    let n = g.n();

    let mut group = c.benchmark_group("evalcontext/agent_cost_sweep_n2048");
    group.sample_size(10);
    group.bench_function("naive_alloc_per_agent", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in 0..n as V {
                // The seed's per-call pattern: fresh CSR snapshot and
                // fresh BFS scratch for every single agent.
                let csr = g.to_csr();
                let mut scratch = BfsScratch::new(n);
                scratch.run(&csr, v);
                acc = acc.wrapping_add(SumObjective::cost_of_wide_row(&scratch.dist));
            }
            black_box(acc)
        });
    });
    group.bench_function("pooled_ctx", |b| {
        b.iter(|| {
            let ctx = EvalContext::new(&g);
            let mut acc = 0u64;
            for v in 0..n as V {
                acc = acc.wrapping_add(ctx.agent_cost::<SumObjective>(v));
            }
            black_box(acc)
        });
    });
    group.finish();

    let mut group = c.benchmark_group("evalcontext/sum_analyze_n2048");
    group.sample_size(10);
    group.bench_function("naive_per_agent_allocation", |b| {
        b.iter(|| black_box(naive_analyze_witness(&g)));
    });
    group.bench_function("pooled_ctx", |b| {
        b.iter(|| black_box(SumGame::analyze(&g).swap_stable));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sum_check,
    bench_fast_vs_reference,
    bench_max_and_stability,
    bench_best_response,
    bench_evalcontext_n2048
);
criterion_main!(benches);
