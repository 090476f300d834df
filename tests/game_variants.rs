//! Paper-sanity properties of the shipped game variants.
//!
//! One test family per rule set, plus one oracle for all of them:
//! - **Bounded budgets** — no accepted move (in any engine, batched or
//!   sequential) ever pushes a vertex past its edge budget.
//! - **Communication interests** — the masked-kernel agent cost equals a
//!   brute-force BFS sum over the interest set, reachable or not.
//! - **Response oracle** — for all five rule sets, `best_response` and
//!   `first_improving_response` equal a brute force that applies every
//!   legal swap to a graph copy and prices it by BFS, sharing no code with
//!   the masked-APSP swap scan.
//! - **k-swap stability** — 1-swap stability from the k-swap auditor
//!   coincides with "no improving response".
//! - **Mis-sized rule sets** — budgets or interest sets sized for another
//!   graph, or naming a vertex it lacks, are refused with a typed error
//!   when a service is built or resumed, and a refused resume leaves its
//!   journal untouched.
//!
//! The 2-neighborhood game's no-APSP guarantee lives in its own binary
//! (`tests/game_telemetry.rs`) because it asserts on process-global
//! telemetry counters.

use std::collections::VecDeque;
use std::fs;

use bncg::dynamics::engine::Response;
use bncg::dynamics::rounds::{step_round, RoundConfig, RoundDynamics};
use bncg::dynamics::service::{JournalOptions, RoundService, ServiceConfig};
use bncg::dynamics::RecoveryError;
use bncg::game::context::EvalContext;
use bncg::game::kswap::{is_k_swap_stable, k_swap_audit};
use bncg::game::objective::{MaxObjective, SumObjective, INFINITE_COST};
use bncg::game::rules::{BoundedBudgetGame, GameRules, InterestGame, TwoNeighborhoodGame};
use bncg::game::swap::{ScoredSwap, SwapMove};
use bncg::graph::generators::classic;
use bncg::graph::generators::random::{gnp, random_tree};
use bncg::graph::{Graph, V};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Bounded budgets.

/// Runs round dynamics under `rules` and asserts, after every single
/// round barrier, that no vertex exceeds its budget (the start graph is
/// within budget by construction via `from_degrees`).
fn assert_budgets_hold(start: &Graph, slack: u32, response: Response, label: &str) {
    let rules: BoundedBudgetGame<SumObjective> = BoundedBudgetGame::from_degrees(start, slack);
    let mut g = start.clone();
    let mut ctx = EvalContext::new(&g);
    ctx.base();
    for round in 1..=40 {
        let step = step_round(&rules, &mut ctx, &mut g, response);
        for v in 0..g.n() as V {
            let deg = g.neighbors(v).len() as u32;
            assert!(
                deg <= rules.budget(v),
                "round {round}: vertex {v} at degree {deg} > budget {} ({label})",
                rules.budget(v)
            );
        }
        if step.proposed == 0 {
            break;
        }
    }
    // The engine wrapper takes the same path; pin its final state too.
    let res = RoundDynamics::with_rules(
        RoundConfig {
            response,
            ..RoundConfig::default()
        },
        rules.clone(),
    )
    .run(start);
    for v in 0..res.graph.n() as V {
        let deg = res.graph.neighbors(v).len() as u32;
        assert!(deg <= rules.budget(v), "engine final state ({label})");
    }
}

#[test]
fn budgets_are_never_exceeded_by_accepted_moves() {
    let mut rng = StdRng::seed_from_u64(0xB0D9);
    for i in 0..4 {
        let er = gnp(&mut rng, 18 + 2 * i, 0.18);
        assert_budgets_hold(&er, 1, Response::Best, "er/slack1/best");
        assert_budgets_hold(&er, 2, Response::FirstImproving, "er/slack2/first");
        let t = random_tree(&mut rng, 16 + 2 * i);
        assert_budgets_hold(&t, 1, Response::Best, "tree/slack1/best");
    }
}

#[test]
fn zero_slack_budget_freezes_a_path() {
    // With zero headroom every insertion target is full, so the budget
    // game converges immediately where the basic game would rewire.
    let g = classic::path(10);
    let rules: BoundedBudgetGame<SumObjective> = BoundedBudgetGame::from_degrees(&g, 0);
    let res = RoundDynamics::with_rules(RoundConfig::default(), rules).run(&g);
    assert_eq!(res.graph, g, "zero-slack path must be frozen");
    assert_eq!(res.moves_applied, 0);
}

// ---------------------------------------------------------------------------
// Communication interests.

/// Unweighted BFS distances from `src` (`None` = unreachable).
fn bfs(g: &Graph, src: V) -> Vec<Option<u32>> {
    let n = g.n();
    let mut dist = vec![None; n];
    dist[src as usize] = Some(0);
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize].unwrap();
        for &w in g.neighbors(u) {
            if dist[w as usize].is_none() {
                dist[w as usize] = Some(du + 1);
                q.push_back(w);
            }
        }
    }
    dist
}

fn brute_interest_cost(g: &Graph, v: V, interests: &[V]) -> u64 {
    let dist = bfs(g, v);
    let mut sum = 0u64;
    for &x in interests {
        match dist[x as usize] {
            Some(d) => sum += u64::from(d),
            None => return INFINITE_COST,
        }
    }
    sum
}

#[test]
fn interest_cost_equals_brute_force_bfs_sum() {
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    for i in 0..6 {
        // gnp graphs are frequently disconnected at this density, which
        // is the point: unreachable interests must price as infinite on
        // both sides.
        let g = gnp(&mut rng, 16 + 2 * i, 0.12);
        let rules = InterestGame::ring(g.n(), 3);
        let ctx = EvalContext::new(&g);
        for v in 0..g.n() as V {
            assert_eq!(
                rules.agent_cost(&ctx, v),
                brute_interest_cost(&g, v, rules.interests(v)),
                "agent {v} on graph {i}"
            );
        }
    }
}

#[test]
fn empty_interest_sets_cost_nothing_and_never_move() {
    let g = classic::path(7);
    let ctx = EvalContext::new(&g);
    let rules = InterestGame::new(vec![Vec::new(); 7]);
    for v in 0..7 {
        assert_eq!(rules.agent_cost(&ctx, v), 0);
        assert_eq!(rules.best_response(&ctx, v), None);
        assert_eq!(rules.first_improving_response(&ctx, v), None);
    }
    assert_eq!(rules.social_cost(&ctx), Some(0));
}

// ---------------------------------------------------------------------------
// A brute-force response oracle for all five rule sets.

/// What an agent pays for, priced from one BFS of the whole graph.
#[derive(Clone, Copy)]
enum Pays<'a> {
    /// Sum of distances to everyone.
    Sum,
    /// Largest distance to anyone (local diameter).
    Max,
    /// Sum of distances to the agent's interest set.
    Interest(&'a InterestGame),
    /// `n − |B₂(v)|`: everyone farther than 2 hops.
    TwoBall,
}

/// Agent `v`'s cost in `g` by BFS ([`INFINITE_COST`] when it cannot reach
/// someone it pays for).
fn brute_cost(g: &Graph, v: V, pays: Pays) -> u64 {
    let dist = bfs(g, v);
    let all = || dist.iter().map(|d| d.map(u64::from));
    match pays {
        Pays::Sum => all().sum::<Option<u64>>().unwrap_or(INFINITE_COST),
        Pays::Max => all()
            .try_fold(0, |m, d| d.map(|d| d.max(m)))
            .unwrap_or(INFINITE_COST),
        Pays::Interest(rules) => brute_interest_cost(g, v, rules.interests(v)),
        Pays::TwoBall => dist.iter().filter(|d| d.is_none_or(|d| d > 2)).count() as u64,
    }
}

/// Best and first improving responses of agent `v` by the documented
/// rule, every candidate priced on a swapped graph copy. Candidates are
/// incident edges `vw` in neighbor order, then `w2` ascending, skipping
/// `w2 ∈ {v, w}` and moves `legal` refuses. Best: lowest cost, then
/// earliest edge, then smallest `w2`. First: the best candidate of the
/// first edge that has an improving one.
fn brute_responses(
    g: &Graph,
    v: V,
    pays: Pays,
    legal: impl Fn(V) -> bool,
) -> (Option<ScoredSwap>, Option<ScoredSwap>) {
    let old_cost = brute_cost(g, v, pays);
    let (mut best, mut first): (Option<ScoredSwap>, Option<ScoredSwap>) = (None, None);
    for &w in g.neighbors(v) {
        let mut edge_best: Option<ScoredSwap> = None;
        for w2 in 0..g.n() as V {
            if w2 == v || w2 == w || !legal(w2) {
                continue;
            }
            let mut h = g.clone();
            h.remove_edge(v, w);
            h.add_edge(v, w2);
            let new_cost = brute_cost(&h, v, pays);
            if new_cost < old_cost && edge_best.is_none_or(|b| new_cost < b.new_cost) {
                edge_best = Some(ScoredSwap {
                    mv: SwapMove { v, w, w2 },
                    old_cost,
                    new_cost,
                });
            }
        }
        if let Some(s) = edge_best {
            if best.is_none_or(|b| s.new_cost < b.new_cost) {
                best = Some(s);
            }
            first = first.or(edge_best);
        }
    }
    (best, first)
}

/// Holds `rules`' two responses to the oracle's for every agent of `g`.
fn assert_matches_oracle<R: GameRules>(
    g: &Graph,
    rules: &R,
    pays: Pays,
    legal: impl Fn(V, V) -> bool,
) {
    let ctx = EvalContext::new(g);
    for v in 0..g.n() as V {
        let (best, first) = brute_responses(g, v, pays, |w2| legal(v, w2));
        let label = format!("{} agent {v} on {:?}", rules.name(), g.edge_vec());
        assert_eq!(rules.best_response(&ctx, v), best, "best response, {label}");
        assert_eq!(
            rules.first_improving_response(&ctx, v),
            first,
            "first improving, {label}"
        );
    }
}

/// All five rule sets against the oracle on one graph. Random budgets of
/// `deg` or `deg + 1` leave about half the targets full; random interest
/// sets of 0 to `n − 1` draws leave some agents with nothing to pay for
/// and let others span the graph, across any cut of a disconnected one.
fn assert_all_games_match_oracle(g: &Graph, seed: u64) {
    assert_matches_oracle(g, &SumObjective, Pays::Sum, |_, _| true);
    assert_matches_oracle(g, &MaxObjective, Pays::Max, |_, _| true);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.n() as V;
    let budgets: Vec<u32> = (0..n)
        .map(|x| g.neighbors(x).len() as u32 + rng.gen_range(0..2u32))
        .collect();
    // Legal: a deletion-degenerate swap, or a target below its budget.
    let within_budget =
        |v: V, w2: V| g.has_edge(v, w2) || (g.neighbors(w2).len() as u32) < budgets[w2 as usize];
    let budget_sum = BoundedBudgetGame::<SumObjective>::new(budgets.clone());
    assert_matches_oracle(g, &budget_sum, Pays::Sum, within_budget);
    let budget_max = BoundedBudgetGame::<MaxObjective>::new(budgets.clone());
    assert_matches_oracle(g, &budget_max, Pays::Max, within_budget);
    let interests = InterestGame::new(
        (0..n)
            .map(|_| {
                let k = rng.gen_range(0..n as usize);
                (0..k).map(|_| rng.gen_range(0..n)).collect()
            })
            .collect(),
    );
    assert_matches_oracle(g, &interests, Pays::Interest(&interests), |_, _| true);
    assert_matches_oracle(g, &TwoNeighborhoodGame, Pays::TwoBall, |_, _| true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn responses_match_a_brute_force_oracle_on_er_graphs(n in 4usize..=16, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Sparse enough to leave some graphs disconnected.
        assert_all_games_match_oracle(&gnp(&mut rng, n, 0.2), seed);
    }

    #[test]
    fn responses_match_a_brute_force_oracle_on_trees(n in 4usize..=16, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_all_games_match_oracle(&random_tree(&mut rng, n), seed);
    }
}

// ---------------------------------------------------------------------------
// k-swap stability.

#[test]
fn one_swap_stability_coincides_with_no_improving_response() {
    let mut rng = StdRng::seed_from_u64(0x5CA9);
    for i in 0..4 {
        // k_swap_audit requires connectivity; trees guarantee it.
        let g = random_tree(&mut rng, 12 + i);
        let ctx = EvalContext::new(&g);
        for v in 0..g.n() as V {
            let stable = k_swap_audit(&g, v, 1).is_stable();
            let response = GameRules::best_response(&MaxObjective, &ctx, v);
            assert_eq!(
                stable,
                response.is_none(),
                "agent {v} on tree {i}: audit and response rule disagree"
            );
        }
        assert_eq!(
            is_k_swap_stable(&g, 1),
            (0..g.n() as V).all(|v| GameRules::best_response(&MaxObjective, &ctx, v).is_none())
        );
    }
}

// ---------------------------------------------------------------------------
// Mis-sized rule sets.

/// Vertex count of the graph the mis-sized rule sets are played on.
const N: usize = 16;

/// Interest sets that fit an `N`-vertex graph except that agent 3 is
/// interested in vertex `N`.
fn stray_interest() -> InterestGame {
    let mut sets: Vec<Vec<V>> = (0..N).map(|v| vec![((v + 1) % N) as V]).collect();
    sets[3].push(N as V);
    InterestGame::new(sets)
}

/// The error `try_with_rules` returns for `rules` on `g`, which it must
/// refuse.
fn construction_error<R: GameRules>(g: &Graph, rules: R) -> String {
    let name = rules.name();
    match RoundService::try_with_rules(g, ServiceConfig::default(), rules) {
        Ok(_) => panic!("mis-sized {name} rules were accepted"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn mis_sized_rules_are_refused_when_a_service_is_built() {
    let g = classic::cycle(N);
    let cases = [
        (
            construction_error(&g, InterestGame::ring(8, 2)),
            "8 interest sets for 16 vertices",
        ),
        (
            construction_error(&g, BoundedBudgetGame::<SumObjective>::uniform(8, 3)),
            "8 budgets for 16 vertices",
        ),
        (
            construction_error(&g, stray_interest()),
            "interested in vertex 16",
        ),
    ];
    for (error, expected) in cases {
        assert!(error.contains(expected), "{error:?} lacks {expected:?}");
    }
    // Rule sets sized for the graph still build.
    for rules in [
        InterestGame::ring(N, 2),
        InterestGame::new(vec![Vec::new(); N]),
    ] {
        assert!(RoundService::try_with_rules(&g, ServiceConfig::default(), rules).is_ok());
    }
}

#[test]
#[should_panic(expected = "8 budgets for 16 vertices")]
fn with_rules_panics_with_the_mismatch() {
    let rules = BoundedBudgetGame::<SumObjective>::uniform(8, 3);
    RoundService::with_rules(&classic::cycle(N), ServiceConfig::default(), rules);
}

/// Journals a session played under `fits` on an `N`-vertex cycle, tears
/// its last line, and asserts that resuming under `misfit` is refused as a
/// [`RecoveryError::Mismatch`] naming `expected`, with the file unchanged.
fn assert_resume_refused<R: GameRules>(fits: R, misfit: R, expected: &str) {
    let path = std::env::temp_dir().join(format!(
        "bncg-variants-{}-{}-{expected}.wal",
        std::process::id(),
        fits.name()
    ));
    let mut service = RoundService::with_rules(&classic::cycle(N), ServiceConfig::default(), fits);
    service
        .attach_journal(&path, JournalOptions::default())
        .expect("attach journal");
    let _ = service.run_session_plain();
    drop(service);
    let mut bytes = fs::read(&path).expect("read journal");
    bytes.extend_from_slice(b"{\"t\":\"ro");
    fs::write(&path, &bytes).expect("tear the journal");
    match RoundService::resume_with_rules(&path, misfit) {
        Ok(_) => panic!("a resume under mis-sized rules was accepted ({expected})"),
        Err(RecoveryError::Mismatch(why)) => {
            assert!(why.contains(expected), "{why:?} lacks {expected:?}")
        }
        Err(e) => panic!("wrong error for mis-sized rules: {e}"),
    }
    assert!(
        fs::read(&path).expect("reread journal") == bytes,
        "a refused resume rewrote the journal ({expected})"
    );
    fs::remove_file(&path).ok();
}

#[test]
fn mis_sized_rules_are_refused_at_resume_without_touching_the_journal() {
    assert_resume_refused(
        InterestGame::ring(N, 2),
        InterestGame::ring(8, 2),
        "8 interest sets for 16 vertices",
    );
    assert_resume_refused(
        BoundedBudgetGame::<SumObjective>::uniform(N, 3),
        BoundedBudgetGame::<SumObjective>::uniform(8, 3),
        "8 budgets for 16 vertices",
    );
    assert_resume_refused(
        InterestGame::ring(N, 2),
        stray_interest(),
        "interested in vertex 16",
    );
}
