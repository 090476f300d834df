//! Property tests pinning the pooled/parallel evaluation paths to the
//! naive per-call path.
//!
//! The `EvalContext` refactor replaced per-agent CSR snapshots and fresh
//! BFS scratch with pooled, reusable buffers, and made the equilibrium
//! audits parallel. None of that is allowed to change a single bit of any
//! result: these properties compare every context path against a literal
//! reimplementation of the seed's per-call code (rebuild the CSR, allocate
//! scratch, scan) on Erdős–Rényi graphs and uniform random trees with
//! n ≤ 64, under both objectives.

use bncg::game::context::EvalContext;
use bncg::game::equilibrium::{MaxGame, SumGame};
use bncg::game::evaluator::EdgeSwapScan;
use bncg::game::objective::{MaxObjective, Objective, SumObjective};
use bncg::game::rules::GameRules;
use bncg::graph::generators::random::{gnp, random_tree};
use bncg::graph::{BfsScratch, Graph, V};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sparse Erdős–Rényi graph on up to `max_n` vertices (edge probability
/// scaled as ~3/n so audits stay fast in debug builds; connectivity is not
/// required — the evaluator must handle disconnected graphs).
fn er_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4usize..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = (3.0 / n as f64).min(0.9);
        gnp(&mut rng, n, p)
    })
}

/// Uniform random labeled tree on up to `max_n` vertices.
fn tree(max_n: usize) -> impl Strategy<Value = Graph> {
    (4usize..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        random_tree(&mut rng, n)
    })
}

/// The seed's per-call best response, verbatim: fresh CSR snapshot, fresh
/// scratch, one scan per incident edge, nothing pooled.
fn naive_best_response<O: Objective>(g: &Graph, v: V) -> Option<bncg::game::ScoredSwap> {
    let csr = g.to_csr();
    let old = {
        let mut scratch = BfsScratch::new(g.n());
        scratch.run(&csr, v);
        O::cost_of_wide_row(&scratch.dist)
    };
    let mut best: Option<bncg::game::ScoredSwap> = None;
    for &w in g.neighbors(v) {
        let scan = EdgeSwapScan::new(&csr, v, w);
        if let Some(s) = scan.best_improving::<O>(v, old) {
            if best.as_ref().is_none_or(|b| s.new_cost < b.new_cost) {
                best = Some(s);
            }
        }
    }
    best
}

/// The seed's witness search, verbatim: fresh CSR + base APSP, sequential
/// edge scan, first improving swap wins.
fn naive_find_improving_swap<O: Objective>(g: &Graph) -> Option<bncg::game::ScoredSwap> {
    let csr = g.to_csr();
    let base = bncg::graph::DistanceMatrix::build(&csr);
    for e in g.edge_vec() {
        let scan = EdgeSwapScan::new(&csr, e.u, e.v);
        for agent in [e.u, e.v] {
            let old = O::cost_of_row(base.row(agent));
            if let Some(s) = scan.best_improving::<O>(agent, old) {
                return Some(s);
            }
        }
    }
    None
}

fn assert_all_paths_agree<O: Objective + GameRules + Default>(g: &Graph) {
    let ctx = EvalContext::new(g);
    // Per-agent best responses: pooled == naive, byte for byte.
    for v in 0..g.n() as V {
        assert_eq!(
            O::default().best_response(&ctx, v),
            naive_best_response::<O>(g, v),
            "best response diverged for agent {v} under {}",
            O::NAME
        );
    }
    // Whole-graph witness: sequential pooled == parallel == naive.
    let naive = naive_find_improving_swap::<O>(g);
    assert_eq!(ctx.find_improving_swap::<O>(), naive, "{} seq", O::NAME);
    assert_eq!(ctx.find_improving_swap_par::<O>(), naive, "{} par", O::NAME);
    // Agent costs off the pooled scratch match the one-shot path.
    for v in 0..g.n() as V {
        assert_eq!(
            ctx.agent_cost::<O>(v),
            bncg::game::evaluator::agent_cost::<O>(g, v),
            "agent cost diverged for {v} under {}",
            O::NAME
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn er_graphs_sum_paths_agree(g in er_graph(64)) {
        assert_all_paths_agree::<SumObjective>(&g);
    }

    #[test]
    fn er_graphs_max_paths_agree(g in er_graph(64)) {
        assert_all_paths_agree::<MaxObjective>(&g);
    }

    #[test]
    fn random_trees_sum_paths_agree(t in tree(64)) {
        assert_all_paths_agree::<SumObjective>(&t);
    }

    #[test]
    fn random_trees_max_paths_agree(t in tree(64)) {
        assert_all_paths_agree::<MaxObjective>(&t);
    }

    #[test]
    fn analyze_reports_match_naive_witness(g in er_graph(32)) {
        let sum = SumGame::analyze(&g);
        prop_assert_eq!(sum.witness, naive_find_improving_swap::<SumObjective>(&g));
        let max = MaxGame::analyze(&g);
        prop_assert_eq!(max.witness, naive_find_improving_swap::<MaxObjective>(&g));
        prop_assert_eq!(sum.n, g.n());
        prop_assert_eq!(sum.m, g.m());
    }

    #[test]
    fn context_refresh_equals_fresh_context(t in tree(32), seed in any::<u64>()) {
        // Drive a few dynamics moves, refreshing one long-lived context,
        // and compare against a fresh context at every step.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = t;
        let mut ctx = EvalContext::new(&g);
        for _ in 0..6 {
            let v = rand::Rng::gen_range(&mut rng, 0..g.n()) as V;
            let pooled = SumObjective.best_response(&ctx, v);
            let fresh = SumObjective.best_response(&EvalContext::new(&g), v);
            prop_assert_eq!(&pooled, &fresh);
            if let Some(s) = pooled {
                s.mv.apply(&mut g);
                ctx.refresh(&g);
            }
        }
    }
}
