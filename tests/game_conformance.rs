//! The cross-engine game-conformance matrix.
//!
//! Two layers of evidence that routing the whole stack through
//! [`GameRules`](bncg::game::rules::GameRules) changed *nothing* for the
//! basic AlonDHL10 game and holds every engine to the same trajectory for
//! the variant games:
//!
//! 1. **Golden byte identity** — the committed `tests/data/golden_*.txt`
//!    files were rendered against the pre-`GameRules` engines. Re-render
//!    the same battery here and diff byte-for-byte: any drift in a move,
//!    a social-cost reading, or an outcome is a conformance failure. The
//!    battery pins a deterministic 500+-step floor (2742 applied moves).
//! 2. **Engine fan-out** — [`trace_engines`] runs one scenario through
//!    the round engine, a hand-stepped `step_round` loop, the round
//!    service, and a service resumed from a crash-truncated journal,
//!    then asserts record-level equivalence of the normalized traces.
//!    Deterministic batteries cover every shipped rule set; proptest
//!    sweeps cover ER graphs and trees under both objectives and both
//!    response rules.

use bncg::conformance::{
    golden_path, golden_scenarios, render_golden, trace_engines, ROUND_FAMILY_ENGINES,
};
use bncg::dynamics::engine::Response;
use bncg::dynamics::rounds::RoundConfig;
use bncg::game::objective::{MaxObjective, SumObjective};
use bncg::game::rules::{BoundedBudgetGame, GameRules, InterestGame, TwoNeighborhoodGame};
use bncg::graph::generators::random::{gnp, random_tree};
use bncg::graph::Graph;
use bncg::testkit::conformance::assert_equivalent;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// Satellite 1a: golden byte identity against the pre-refactor engines.

#[test]
fn golden_trajectories_are_byte_identical_to_the_prerefactor_pins() {
    let mut steps = 0usize;
    for s in golden_scenarios() {
        let rendered = render_golden(&s);
        let committed = std::fs::read_to_string(golden_path(s.name)).unwrap_or_else(|e| {
            panic!(
                "missing committed golden {:?} — regenerate with \
                 `cargo run --release --example golden_trajectories` ({e})",
                s.name
            )
        });
        assert_eq!(
            rendered.text, committed,
            "golden {:?} drifted from its pre-GameRules pin",
            s.name
        );
        steps += rendered.steps;
    }
    assert!(
        steps >= 500,
        "golden battery thinned out: only {steps} pinned steps"
    );
}

// ---------------------------------------------------------------------------
// Satellite: the engine fan-out, deterministic battery over every rule
// set the workspace ships.

fn conformance<R: GameRules>(rules: &R, start: &Graph, response: Response, label: &str) -> usize {
    let config = RoundConfig {
        response,
        ..RoundConfig::default()
    };
    let traces = trace_engines(rules, start, config);
    assert_eq!(traces.len(), ROUND_FAMILY_ENGINES.len());
    assert_equivalent(&traces, label)
}

fn starts(seed: u64) -> Vec<(Graph, &'static str)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        (gnp(&mut rng, 20, 0.16), "er20"),
        (gnp(&mut rng, 26, 0.12), "er26"),
        (random_tree(&mut rng, 22), "tree22"),
    ]
}

#[test]
fn basic_game_agrees_across_all_engines() {
    let mut rounds = 0usize;
    for (g, tag) in starts(0xC0F1) {
        for response in [Response::Best, Response::FirstImproving] {
            rounds += conformance(&SumObjective, &g, response, &format!("sum/{tag}"));
            rounds += conformance(&MaxObjective, &g, response, &format!("max/{tag}"));
        }
    }
    assert!(rounds >= 20, "battery too thin: {rounds} rounds");
}

#[test]
fn bounded_budget_game_agrees_across_all_engines() {
    for (g, tag) in starts(0xC0F2) {
        let rules = BoundedBudgetGame::<SumObjective>::uniform(g.n(), 3);
        conformance(&rules, &g, Response::Best, &format!("budget-sum/{tag}"));
        let rules = BoundedBudgetGame::<MaxObjective>::uniform(g.n(), 4);
        conformance(
            &rules,
            &g,
            Response::FirstImproving,
            &format!("budget-max/{tag}"),
        );
    }
}

#[test]
fn interest_game_agrees_across_all_engines() {
    for (g, tag) in starts(0xC0F3) {
        let rules = InterestGame::ring(g.n(), 3);
        conformance(&rules, &g, Response::Best, &format!("interest/{tag}"));
        conformance(
            &rules,
            &g,
            Response::FirstImproving,
            &format!("interest-first/{tag}"),
        );
    }
}

#[test]
fn two_neighborhood_game_agrees_across_all_engines() {
    for (g, tag) in starts(0xC0F4) {
        conformance(
            &TwoNeighborhoodGame,
            &g,
            Response::Best,
            &format!("2nb/{tag}"),
        );
        conformance(
            &TwoNeighborhoodGame,
            &g,
            Response::FirstImproving,
            &format!("2nb-first/{tag}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Proptest sweeps: random ER graphs and trees through the full fan-out.

fn er_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (8..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gnp(&mut rng, n, 0.18)
    })
}

fn tree_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (8..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        random_tree(&mut rng, n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_er_graphs_agree_across_engines_and_games(g in er_graph(22)) {
        for response in [Response::Best, Response::FirstImproving] {
            conformance(&SumObjective, &g, response, "prop/er/sum");
            conformance(&MaxObjective, &g, response, "prop/er/max");
        }
        conformance(
            &BoundedBudgetGame::<SumObjective>::uniform(g.n(), 3),
            &g,
            Response::Best,
            "prop/er/budget",
        );
        conformance(&InterestGame::ring(g.n(), 2), &g, Response::Best, "prop/er/interest");
        conformance(&TwoNeighborhoodGame, &g, Response::Best, "prop/er/2nb");
    }

    #[test]
    fn random_trees_agree_across_engines_and_games(g in tree_graph(20)) {
        for response in [Response::Best, Response::FirstImproving] {
            conformance(&SumObjective, &g, response, "prop/tree/sum");
            conformance(&MaxObjective, &g, response, "prop/tree/max");
        }
        conformance(
            &BoundedBudgetGame::<MaxObjective>::uniform(g.n(), 3),
            &g,
            Response::Best,
            "prop/tree/budget",
        );
        conformance(&TwoNeighborhoodGame, &g, Response::FirstImproving, "prop/tree/2nb");
    }
}
