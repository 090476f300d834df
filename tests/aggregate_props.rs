//! Property tests pinning the maintained per-vertex cost aggregates to
//! fresh recomputation.
//!
//! `DynamicApsp` keeps each source row's sum and eccentricity alongside
//! the matrix, refreshed only for the rows a repair or blend actually
//! rewrites. None of that bookkeeping is allowed to drift: after **every**
//! random swap step (and every batched round), each vertex's maintained
//! cost must equal a fresh `cost_of_row` over the maintained row *and* a
//! fresh BFS-based `agent_cost` on the mutated graph — under both
//! objectives, on ER graphs and trees. A deterministic long-run keeps the
//! total step count ≥ 500 regardless of proptest case budgets.

use bncg::game::context::EvalContext;
use bncg::game::objective::{MaxObjective, Objective, SumObjective};
use bncg::game::rules::GameRules;
use bncg::graph::dynamic::DynamicApsp;
use bncg::graph::generators::random::{gnp, random_tree};
use bncg::graph::{Graph, V};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sparse ER graph on up to `max_n` vertices (connectivity not required —
/// the aggregates must track unreachable rows exactly, as `u64::MAX`).
fn er_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (6usize..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = (3.0 / n as f64).min(0.9);
        gnp(&mut rng, n, p)
    })
}

/// Uniform random labeled tree on up to `max_n` vertices.
fn tree(max_n: usize) -> impl Strategy<Value = Graph> {
    (6usize..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        random_tree(&mut rng, n)
    })
}

/// Random legal swap `(v, w, w2)` of `g` (deletions and no-ops included).
fn random_swap<R: Rng>(rng: &mut R, g: &Graph) -> Option<(V, V, V)> {
    if g.m() == 0 {
        return None;
    }
    let edges = g.edge_vec();
    let e = edges[rng.gen_range(0..edges.len())];
    let (v, w) = if rng.gen_bool(0.5) {
        (e.u, e.v)
    } else {
        (e.v, e.u)
    };
    let n = g.n() as V;
    let mut w2 = rng.gen_range(0..n);
    if w2 == v {
        w2 = if w2 + 1 < n { w2 + 1 } else { 0 };
    }
    if w2 == v {
        return None;
    }
    Some((v, w, w2))
}

/// Asserts every vertex's maintained aggregate equals a fresh row scan of
/// the maintained matrix *and* a fresh BFS recomputation on `g`.
fn assert_aggregates_exact(da: &DynamicApsp, g: &Graph, context: &str) {
    for v in 0..g.n() as V {
        let row = da.matrix().row(v);
        assert_eq!(
            SumObjective::maintained_cost(da, v),
            SumObjective::cost_of_row(row),
            "sum aggregate diverged from row scan at v={v} ({context})"
        );
        assert_eq!(
            MaxObjective::maintained_cost(da, v),
            MaxObjective::cost_of_row(row),
            "ecc aggregate diverged from row scan at v={v} ({context})"
        );
        let fresh_sum = bncg::game::evaluator::agent_cost::<SumObjective>(g, v);
        let fresh_ecc = bncg::game::evaluator::agent_cost::<MaxObjective>(g, v);
        assert_eq!(
            SumObjective::maintained_cost(da, v),
            fresh_sum,
            "sum aggregate diverged from fresh agent_cost at v={v} ({context})"
        );
        assert_eq!(
            MaxObjective::maintained_cost(da, v),
            fresh_ecc,
            "ecc aggregate diverged from fresh agent_cost at v={v} ({context})"
        );
    }
}

/// Replays `steps` random swaps, checking the aggregates after every step.
/// Returns the number of steps applied.
fn replay_and_check(mut g: Graph, seed: u64, steps: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut da = DynamicApsp::build(&g.to_csr());
    assert_aggregates_exact(&da, &g, "initial build");
    let mut applied = 0;
    for step in 0..steps {
        let Some((v, w, w2)) = random_swap(&mut rng, &g) else {
            break;
        };
        let rec = g.apply_swap(v, w, w2);
        da.apply_swap(&g.to_csr(), &rec);
        assert_aggregates_exact(&da, &g, &format!("step {step} swap {v}-{w}->{w2}"));
        applied += 1;
    }
    applied
}

/// Replays whole rounds of edge-disjoint swaps through `apply_batch`,
/// checking the aggregates at every round barrier.
fn replay_rounds_and_check(mut g: Graph, seed: u64, rounds: usize, k: usize) -> usize {
    use bncg::graph::adjacency::{Edge, SwapApplied};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut da = DynamicApsp::build(&g.to_csr());
    let mut total = 0;
    for round in 0..rounds {
        let mut touched: Vec<Edge> = Vec::new();
        let mut batch: Vec<SwapApplied> = Vec::new();
        for _ in 0..8 * k {
            if batch.len() == k {
                break;
            }
            let Some((v, w, w2)) = random_swap(&mut rng, &g) else {
                break;
            };
            if w2 == w || g.has_edge(v, w2) {
                continue; // proper swaps only: footprints stay disjoint
            }
            let fp = [Edge::new(v, w), Edge::new(v, w2)];
            if fp.iter().any(|e| touched.contains(e)) {
                continue;
            }
            touched.extend_from_slice(&fp);
            batch.push(g.apply_swap(v, w, w2));
        }
        da.apply_batch(&g.to_csr(), &batch);
        total += batch.len();
        assert_aggregates_exact(&da, &g, &format!("round {round}"));
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ER graphs: every deletion runs the truncated row repair.
    #[test]
    fn aggregates_track_er_swaps_repair_path(g in er_graph(24), seed in any::<u64>()) {
        replay_and_check(g, seed, 12);
    }

    /// Trees: bridge deletions invalidate whole subtrees (and disconnect
    /// transiently), the worst case for aggregate bookkeeping.
    #[test]
    fn aggregates_track_tree_swaps(g in tree(20), seed in any::<u64>()) {
        replay_and_check(g, seed, 12);
    }

    /// Batched rounds: the fused multi-insertion blend must leave the
    /// aggregates exactly where k sequential blends would.
    #[test]
    fn aggregates_track_batched_rounds(g in er_graph(20), seed in any::<u64>()) {
        replay_rounds_and_check(g, seed, 4, 4);
    }
}

/// Deterministic long-run: ≥ 500 checked swap steps across both families,
/// independent of proptest case budgets.
#[test]
fn aggregates_long_run_500_steps() {
    let mut total = 0;
    let mut seed = 0xA66u64;
    while total < 500 {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 10 + (seed % 14) as usize;
        let er = gnp(&mut rng, n, (3.0 / n as f64).min(0.9));
        let tr = random_tree(&mut rng, n);
        total += replay_and_check(er, seed ^ 1, 16);
        total += replay_and_check(tr, seed ^ 2, 16);
        total += replay_rounds_and_check(gnp(&mut rng, n, 0.3), seed ^ 3, 3, 4);
    }
    assert!(total >= 500, "long-run applied only {total} steps");
}

/// The context-level read path: `EvalContext::agent_cost` and `cost_range`
/// read the maintained aggregates once a base is cached — they must agree
/// with fresh per-call contexts across a trajectory of best responses.
#[test]
fn context_reads_match_fresh_context_across_trajectory() {
    let mut g = bncg::graph::generators::classic::path(12);
    let mut ctx = EvalContext::new(&g);
    ctx.base(); // force the maintained matrix + aggregates
    for _ in 0..20 {
        let Some(s) = (0..12).find_map(|v| SumObjective.best_response(&ctx, v)) else {
            break;
        };
        let rec = s.mv.apply(&mut g);
        ctx.refresh_after(&g, &rec);
        let fresh = EvalContext::new(&g);
        for v in 0..12 as V {
            assert_eq!(
                ctx.agent_cost::<SumObjective>(v),
                fresh.agent_cost::<SumObjective>(v),
                "sum agent_cost diverged at v={v}"
            );
            assert_eq!(
                ctx.agent_cost::<MaxObjective>(v),
                fresh.agent_cost::<MaxObjective>(v),
                "max agent_cost diverged at v={v}"
            );
        }
        assert_eq!(
            ctx.cost_range::<SumObjective>(),
            fresh.cost_range::<SumObjective>()
        );
        assert_eq!(
            ctx.cost_range::<MaxObjective>(),
            fresh.cost_range::<MaxObjective>()
        );
    }
}
