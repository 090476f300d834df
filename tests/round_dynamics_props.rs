//! Property tests pinning the two round-mode kernels to their naive
//! counterparts, byte for byte:
//!
//! 1. **Batch repair ≡ sequential repairs.** Applying an activation
//!    round's edge-disjoint swaps to a [`DynamicApsp`] as one
//!    [`apply_batch`](DynamicApsp::apply_batch) at the round barrier must
//!    produce exactly the matrix that per-swap
//!    [`apply_swap`](DynamicApsp::apply_swap) repairs composed in order
//!    produce — and both must equal a full rebuild of the final graph.
//!    Replayed on Erdős–Rényi graphs and uniform random trees over 500+
//!    random rounds (deterministic volume floor below the proptest
//!    cases).
//! 2. **Masked scan from base ≡ fresh masked APSP.** Deriving the APSP of
//!    `G − e` from the maintained base matrix by copy-plus-repair
//!    ([`masked_apsp_from_base`]) must be byte-identical to the `n`
//!    masked-BFS build ([`DistanceMatrix::build_masked`]) for **every**
//!    edge, and the swap scans built from either matrix must agree on
//!    every verdict — including the sharded candidate loop at `n` large
//!    enough to fan out over the worker pool. The row-subset entry
//!    ([`masked_rows_from_base`], the interest game's per-edge view) must
//!    return exactly the listed rows of that build, for every source list
//!    tried: all sources, a random subset holding both endpoints, none.

use bncg::dynamics::rounds::{resolve_round_with, step_round};
use bncg::game::context::EvalContext;
use bncg::game::evaluator::EdgeSwapScan;
use bncg::game::objective::{MaxObjective, Objective, SumObjective};
use bncg::game::rules::GameRules;
use bncg::graph::adjacency::{Edge, SwapApplied};
use bncg::graph::dynamic::{masked_apsp_from_base, masked_rows_from_base, DynamicApsp};
use bncg::graph::generators::random::{gnp, random_tree};
use bncg::graph::{DistanceMatrix, Graph, V};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sparse Erdős–Rényi graph on up to `max_n` vertices.
fn er_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (8usize..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = (3.0 / n as f64).min(0.9);
        gnp(&mut rng, n, p)
    })
}

/// Uniform random labeled tree on up to `max_n` vertices.
fn tree(max_n: usize) -> impl Strategy<Value = Graph> {
    (8usize..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        random_tree(&mut rng, n)
    })
}

/// Draws a random **round**: up to `k` swap moves with pairwise-disjoint
/// edge footprints, exactly the well-formedness the engine's conflict
/// resolution guarantees. Degenerate deletions (`w2` already adjacent)
/// and no-ops (`w2 == w`) are drawn on purpose — the batch must digest
/// every record shape.
fn random_round<R: Rng>(rng: &mut R, g: &Graph, k: usize) -> Vec<(V, V, V)> {
    let edges = g.edge_vec();
    if edges.is_empty() {
        return Vec::new();
    }
    let n = g.n() as V;
    let mut touched: Vec<Edge> = Vec::new();
    let mut round = Vec::new();
    for _ in 0..8 * k {
        if round.len() == k {
            break;
        }
        let e = edges[rng.gen_range(0..edges.len())];
        let (v, w) = if rng.gen_bool(0.5) {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        };
        let mut w2 = rng.gen_range(0..n);
        if w2 == v {
            w2 = if w2 + 1 < n { w2 + 1 } else { 0 };
        }
        if w2 == v {
            continue;
        }
        let fp = [Edge::new(v, w), Edge::new(v, w2)];
        if fp.iter().any(|edge| touched.contains(edge)) {
            continue;
        }
        touched.extend_from_slice(&fp);
        round.push((v, w, w2));
    }
    round
}

/// Applies one random round three ways — per-swap repairs in order, one
/// batch repair, full rebuild — and asserts all three matrices are
/// byte-identical. Mutates `g` to the post-round state and returns the
/// number of swaps the round carried.
fn check_round(
    g: &mut Graph,
    seq: &mut DynamicApsp,
    bat: &mut DynamicApsp,
    rng: &mut StdRng,
    k: usize,
    context: &str,
) -> usize {
    let round = random_round(rng, g, k);
    if round.is_empty() {
        return 0;
    }
    // Sequential arm: repair through every intermediate graph state.
    let mut records: Vec<SwapApplied> = Vec::with_capacity(round.len());
    for &(v, w, w2) in &round {
        let rec = g.apply_swap(v, w, w2);
        seq.apply_swap(&g.to_csr(), &rec);
        records.push(rec);
    }
    // Batch arm: one repair at the round barrier.
    let csr = g.to_csr();
    bat.apply_batch(&csr, &records);
    assert_eq!(
        bat.matrix(),
        seq.matrix(),
        "batch repair diverged from sequential per-swap repairs ({context})"
    );
    let fresh = DistanceMatrix::build(&csr);
    assert_eq!(
        bat.matrix(),
        &fresh,
        "batch repair diverged from full rebuild ({context})"
    );
    fresh.recycle();
    round.len()
}

/// Replays `rounds` random rounds on `g`, checking batch-vs-sequential
/// byte identity after every round. Returns rounds actually exercised.
fn replay_rounds(mut g: Graph, seed: u64, rounds: usize, k: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let csr0 = g.to_csr();
    let mut seq = DynamicApsp::build(&csr0);
    let mut bat = DynamicApsp::build(&csr0);
    let mut exercised = 0;
    for r in 0..rounds {
        let ctx = format!("round {r}, n {}", g.n());
        if check_round(&mut g, &mut seq, &mut bat, &mut rng, k, &ctx) > 0 {
            exercised += 1;
        }
    }
    exercised
}

#[test]
fn five_hundred_plus_random_rounds_stay_byte_identical() {
    // Deterministic volume floor: ≥ 500 verified rounds across ER graphs
    // and trees, multi-swap batches throughout.
    let mut rng = StdRng::seed_from_u64(0x0040_07E5);
    let mut total = 0usize;
    for i in 0..4 {
        let er = gnp(&mut rng, 26, 0.14);
        total += replay_rounds(er, 0xE0 + i, 80, 5);
        let t = random_tree(&mut rng, 22);
        total += replay_rounds(t, 0x70 + i, 80, 4);
    }
    assert!(
        total >= 500,
        "volume floor not met: only {total} rounds verified"
    );
}

/// Masked-scan identity over every edge of `g`, for the whole matrix and
/// for three source lists of the row-subset entry (all sources; a random
/// subset, drawn from `seed`, that holds both endpoints; none).
fn assert_masked_scans_match(g: &Graph, seed: u64, context: &str) {
    let csr = g.to_csr();
    let base = DistanceMatrix::build(&csr);
    let mut rng = StdRng::seed_from_u64(seed);
    let all: Vec<V> = (0..g.n() as V).collect();
    for e in g.edge_vec() {
        let derived = masked_apsp_from_base(&csr, &base, (e.u, e.v));
        let fresh = DistanceMatrix::build_masked(&csr, (e.u, e.v));
        assert_eq!(
            derived, fresh,
            "copy-plus-repair masked APSP diverged at edge {e:?} ({context})"
        );
        let mut subset: Vec<V> = all.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
        subset.extend([e.v, e.u]);
        for sources in [&all, &subset, &Vec::new()] {
            let rows = masked_rows_from_base(&csr, &base, (e.u, e.v), sources);
            let expected: Vec<_> = sources
                .iter()
                .flat_map(|&s| fresh.row(s))
                .copied()
                .collect();
            assert_eq!(
                rows, expected,
                "masked rows {sources:?} diverged at edge {e:?} ({context})"
            );
        }
        derived.recycle();
        fresh.recycle();
    }
    base.recycle();
}

#[test]
fn masked_scan_from_base_matches_fresh_masked_apsp_deterministic_volume() {
    // ≥ 500 edges verified across ER graphs and trees.
    let mut rng = StdRng::seed_from_u64(0x5CA0);
    let mut edges = 0usize;
    for i in 0..12 {
        let er = gnp(&mut rng, 30, 0.12);
        edges += er.m();
        assert_masked_scans_match(&er, 2 * i, "er");
        let t = random_tree(&mut rng, 26);
        edges += t.m();
        assert_masked_scans_match(&t, 2 * i + 1, "tree");
    }
    assert!(edges >= 500, "only {edges} edges verified");
}

#[test]
fn scan_from_base_and_fresh_scan_agree_on_every_verdict() {
    let mut rng = StdRng::seed_from_u64(0xBEE5);
    let g = gnp(&mut rng, 24, 0.16);
    let csr = g.to_csr();
    let base = DistanceMatrix::build(&csr);
    for e in g.edge_vec() {
        let fresh = EdgeSwapScan::new(&csr, e.u, e.v);
        let derived = EdgeSwapScan::from_base(&csr, &base, e.u, e.v);
        for agent in [e.u, e.v] {
            assert_eq!(
                fresh.deletion_cost::<SumObjective>(agent),
                derived.deletion_cost::<SumObjective>(agent),
                "deletion cost diverged at edge {e:?}"
            );
            let old_sum = SumObjective::cost_of_row(base.row(agent));
            assert_eq!(
                fresh.best_improving::<SumObjective>(agent, old_sum),
                derived.best_improving::<SumObjective>(agent, old_sum),
                "sum verdict diverged at edge {e:?}"
            );
            let old_max = MaxObjective::cost_of_row(base.row(agent));
            assert_eq!(
                fresh.best_improving::<MaxObjective>(agent, old_max),
                derived.best_improving::<MaxObjective>(agent, old_max),
                "max verdict diverged at edge {e:?}"
            );
        }
        fresh.recycle();
        derived.recycle();
    }
    base.recycle();
}

#[test]
fn sharded_candidate_loop_matches_exhaustive_scan_at_large_n() {
    // n ≥ 1024 pushes best_improving onto the parallel candidate shards;
    // the winner must still be a plain loop's first minimum over every
    // strictly improving candidate (lowest new cost, then lowest w2).
    let mut rng = StdRng::seed_from_u64(0x10AD);
    let g = gnp(&mut rng, 1100, 0.004);
    let csr = g.to_csr();
    let base = DistanceMatrix::build(&csr);
    let edges = g.edge_vec();
    for e in edges.iter().take(6) {
        let scan = EdgeSwapScan::from_base(&csr, &base, e.u, e.v);
        let old = SumObjective::cost_of_row(base.row(e.u));
        let sharded = scan.best_improving::<SumObjective>(e.u, old);
        let exhaustive = (0..g.n() as V)
            .filter(|&w2| w2 != e.u && w2 != e.v)
            .map(|w2| (scan.swap_cost::<SumObjective>(e.u, w2), w2))
            .filter(|&(new_cost, _)| new_cost < old)
            .min();
        assert_eq!(
            sharded.map(|s| (s.new_cost, s.mv.w2)),
            exhaustive,
            "shard combine broke determinism"
        );
        if let Some(s) = sharded {
            assert_eq!((s.mv.v, s.mv.w, s.old_cost), (e.u, e.v, old));
        }
        scan.recycle();
    }
    base.recycle();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn er_rounds_match_sequential_repairs(g in er_graph(32), seed in any::<u64>()) {
        replay_rounds(g, seed, 10, 5);
    }

    #[test]
    fn tree_rounds_match_sequential_repairs(t in tree(26), seed in any::<u64>()) {
        replay_rounds(t, seed, 10, 4);
    }

    #[test]
    fn masked_scans_match_on_random_graphs(g in er_graph(28), seed in any::<u64>()) {
        assert_masked_scans_match(&g, seed, "proptest er");
    }

    #[test]
    fn resolved_rounds_apply_cleanly_and_batch_repair_tracks_them(
        g in er_graph(24),
        ) {
        // End-to-end: run the actual engine round step on a maintained
        // context and pin the context's base matrix to a fresh build after
        // every barrier (this exercises proposals, resolution, batch
        // application, and repair together).
        let mut g = g;
        let mut ctx = EvalContext::new(&g);
        ctx.base();
        for _ in 0..6 {
            let step = step_round(
                &SumObjective,
                &mut ctx,
                &mut g,
                bncg::dynamics::engine::Response::Best,
            );
            let fresh = EvalContext::new(&g);
            for v in 0..g.n() as V {
                prop_assert_eq!(
                    ctx.base().row(v),
                    fresh.base().row(v),
                    "row {} diverged after a round barrier", v
                );
            }
            if step.proposed == 0 {
                break;
            }
        }
    }

    #[test]
    fn resolution_is_deterministic_and_conflict_free(g in er_graph(24)) {
        let ctx = EvalContext::new(&g);
        let proposals = SumObjective.best_responses_par(&ctx);
        // The basic game's `legal_in_batch` is the no-veto default, so
        // footprint disjointness alone decides acceptance.
        let a = resolve_round_with(&SumObjective, &ctx, &proposals);
        let b = resolve_round_with(&SumObjective, &ctx, &proposals);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.mv, y.mv);
        }
        // Pairwise edge-disjointness of the accepted set.
        for (i, x) in a.iter().enumerate() {
            for y in &a[i + 1..] {
                prop_assert!(
                    !x.mv.conflicts_with(&y.mv),
                    "accepted moves {:?} and {:?} share an edge", x.mv, y.mv
                );
            }
        }
        // Lowest-agent priority: the first proposer is always accepted.
        if let Some(first) = proposals.iter().flatten().next() {
            prop_assert_eq!(&a[0].mv, &first.mv);
        }
    }
}
