//! The game-rules layer: one dynamics core, many games.
//!
//! Every game in this workspace moves the same way: an agent replaces one
//! incident edge `vw` by `vw2`. A [`GameRules`] rule set therefore does not
//! search for moves; it **prices** them. It owns objective evaluation
//! (`agent_cost`, `social_cost`), the price of one candidate swap
//! (`swap_cost`), and move legality (`legal_move` at proposal time,
//! `legal_in_batch` at the round barrier). The response sweeps
//! (`best_response`, `first_improving_response` and their `_par` fan-outs)
//! are provided methods over the one sweep in
//! [`best_response`](crate::best_response), which owns edge order, the
//! per-edge view's build and recycle, the legality filter and the tie
//! order. The engines consult only the trait. Each rule set builds, once per scanned edge
//! `vw`, only the view of `G − vw` its pricing reads
//! ([`GameRules::EdgeView`]) and prices every candidate against it. The
//! basic game implements `GameRules` for the two existing [`Objective`]s
//! on the full masked APSP ([`EdgeSwapScan`]), and its trajectories are
//! byte-identical to the pre-trait engines (pinned by
//! `tests/game_conformance.rs` against committed goldens).
//!
//! Three variant rule sets from the related-work literature ship here:
//!
//! * [`BoundedBudgetGame`] — per-agent edge budgets (Ehsani et al.'s
//!   bounded-budget NCG, adapted to swap dynamics): a swap may not raise
//!   the target vertex's degree beyond its budget, checked both per
//!   proposal and re-checked against the round's accepted batch (two
//!   accepted insertions may target one vertex even when their edge
//!   footprints are disjoint). Priced on the full masked APSP, like the
//!   basic game.
//! * [`InterestGame`] — communication interests (Cord-Landwehr et al.):
//!   each agent pays distance only to its interest set `I(v)`: the
//!   standing cost through [`kernels::masked_row_cost`], a swap on the
//!   masked rows of `I(v)` alone ([`InterestRows`]).
//! * [`TwoNeighborhoodGame`] — maximize the 2-ball `|B₂(v)|`, a purely
//!   local objective: [`GameRules::needs_apsp`] is `false` and every
//!   evaluation walks the CSR directly ([`TwoBall`]), so engines must not
//!   build (or repair) a distance matrix at all — asserted via the
//!   `apsp.*` telemetry counters in `tests/game_telemetry.rs`.

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use bncg_graph::dynamic::masked_rows_from_base;
use bncg_graph::kernels::{self, Dist, UNREACHABLE_D};
use bncg_graph::{Csr, Graph, V};
use rayon::prelude::*;

use crate::best_response::sweep;
use crate::context::EvalContext;
use crate::evaluator::EdgeSwapScan;
use crate::objective::{MaxObjective, Objective, SumObjective, INFINITE_COST};
use crate::swap::{ScoredSwap, SwapMove};

/// A rule set whose per-agent state does not fit the graph it was asked
/// to play on ([`GameRules::check_vertex_count`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulesMismatch {
    /// The rule set's [`name`](GameRules::name).
    pub game: &'static str,
    /// What does not fit.
    pub why: String,
}

impl fmt::Display for RulesMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rules do not fit the graph: {}", self.game, self.why)
    }
}

impl std::error::Error for RulesMismatch {}

/// A complete rule set for a swap-based network creation game.
///
/// Engines hold a value of the implementing type (rule sets may carry
/// per-agent state — budgets, interest sets) and consult it for every
/// evaluation, proposal, and legality decision. Implementations must be
/// cheap to clone ([`Arc`] internals): every round-engine run clones its
/// rules into the one-session service it plays through.
///
/// # Determinism contract
/// Responses come from one sweep (see [`best_response`](crate::best_response)):
/// a best response is the lowest-cost strictly improving legal swap, ties
/// broken by the earliest incident edge in CSR neighbor order, then the
/// smallest replacement endpoint `w2`. The `*_responses_par` methods
/// return slot-per-agent vectors identical to mapping the sequential
/// method over `0..n`. The cross-engine conformance harness
/// (`bncg::conformance`) assumes nothing else.
pub trait GameRules: Clone + Send + Sync + 'static {
    /// What the candidates of one scanned edge `vw` are priced against:
    /// built once per edge by [`edge_view`](Self::edge_view), read by
    /// [`swap_cost`](Self::swap_cost) for every candidate `w2`, then handed
    /// to [`recycle_view`](Self::recycle_view).
    type EdgeView: Sync;

    /// Stable, file-name-safe rule-set tag. Journals persist it in their
    /// `Seed` record and refuse to resume under a differently-named rule
    /// set; the CLI `--game` flag uses the same vocabulary.
    fn name(&self) -> &'static str;

    /// Whether this game's evaluation consults all-pairs distances.
    ///
    /// When `false`, engines skip every APSP touch-point: no eager base
    /// build at run start, no matrix CRC in journal checkpoints and no
    /// base rebuild on journal replay, and the rule set's
    /// [`edge_view`](Self::edge_view) must not read the base matrix.
    /// Local objectives (the 2-neighborhood game) turn
    /// `O(n²)`-per-round bookkeeping into nothing.
    fn needs_apsp(&self) -> bool {
        true
    }

    /// Refuses per-agent state sized for another graph: `Ok` when the
    /// rule set can play on a graph of `n` vertices. Engines that take a
    /// rule set from a caller check it before they build anything.
    /// Default: stateless rules fit every graph.
    fn check_vertex_count(&self, _n: usize) -> Result<(), RulesMismatch> {
        Ok(())
    }

    /// Usage cost of agent `v` in the snapshot ([`INFINITE_COST`] when
    /// the agent cannot reach someone it pays for).
    fn agent_cost(&self, ctx: &EvalContext, v: V) -> u64;

    /// The view of `G − vw` this rule set prices the swaps of agent `v`
    /// that delete its edge `vw` against; `vw` must be an edge.
    fn edge_view(&self, ctx: &EvalContext, v: V, w: V) -> Self::EdgeView;

    /// Cost of agent `mv.v` after the swap `mv` (replace edge `v–w` by
    /// `v–w2`), priced on `view`, the [`edge_view`](Self::edge_view) of
    /// `(mv.v, mv.w)`. The sweep calls this only for legal moves with
    /// `w2 ∉ {v, w}`.
    fn swap_cost(&self, ctx: &EvalContext, view: &Self::EdgeView, mv: &SwapMove) -> u64;

    /// Takes back a view once its edge is priced, so its buffers can be
    /// reused. Default: drop it.
    fn recycle_view(&self, _view: Self::EdgeView) {}

    /// The best legal improving swap available to agent `v` (lowest new
    /// cost; ties per the determinism contract), or `None` if `v` cannot
    /// improve.
    fn best_response(&self, ctx: &EvalContext, v: V) -> Option<ScoredSwap> {
        sweep(self, ctx, v, false)
    }

    /// The best legal improving swap on the first incident edge (CSR
    /// order) that has one, or `None`. This is not the first improving
    /// candidate in scan order: within that edge the best candidate wins.
    fn first_improving_response(&self, ctx: &EvalContext, v: V) -> Option<ScoredSwap> {
        sweep(self, ctx, v, true)
    }

    /// Best responses of all agents against one frozen snapshot, one slot
    /// per agent: [`best_response`](Self::best_response) fanned over the
    /// worker pool.
    fn best_responses_par(&self, ctx: &EvalContext) -> Vec<Option<ScoredSwap>> {
        (0..ctx.n() as V)
            .into_par_iter()
            .map(|v| self.best_response(ctx, v))
            .collect()
    }

    /// First improving responses of all agents, one slot per agent.
    fn first_improving_responses_par(&self, ctx: &EvalContext) -> Vec<Option<ScoredSwap>> {
        (0..ctx.n() as V)
            .into_par_iter()
            .map(|v| self.first_improving_response(ctx, v))
            .collect()
    }

    /// Social cost of the snapshot under this game's accounting; `None`
    /// when undefined (disconnection, for games that pay for everyone).
    /// Default: sum of [`agent_cost`](Self::agent_cost) over all agents.
    fn social_cost(&self, ctx: &EvalContext) -> Option<u64> {
        let mut total = 0u64;
        for v in 0..ctx.n() as V {
            let c = self.agent_cost(ctx, v);
            if c == INFINITE_COST {
                return None;
            }
            total += c;
        }
        Some(total)
    }

    /// Proposal-time legality of a single move against the snapshot.
    /// Default: everything is legal (the basic game).
    fn legal_move(&self, _ctx: &EvalContext, _mv: &SwapMove) -> bool {
        true
    }

    /// Barrier-time legality of a move given the moves already `accepted`
    /// this round (scanned in ascending agent order). Footprint
    /// disjointness is enforced by the resolver before this hook runs;
    /// rule sets veto interactions footprints cannot see (e.g. two
    /// insertions raising one vertex's degree past its budget). Default:
    /// no veto.
    fn legal_in_batch(&self, _ctx: &EvalContext, _mv: &SwapMove, _accepted: &[ScoredSwap]) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// The basic game: GameRules for the two paper objectives.
// ---------------------------------------------------------------------------

macro_rules! basic_game_rules {
    ($ty:ty) => {
        impl GameRules for $ty {
            type EdgeView = EdgeSwapScan;

            fn name(&self) -> &'static str {
                <$ty as Objective>::NAME
            }

            fn agent_cost(&self, ctx: &EvalContext, v: V) -> u64 {
                ctx.agent_cost::<$ty>(v)
            }

            fn edge_view(&self, ctx: &EvalContext, v: V, w: V) -> EdgeSwapScan {
                ctx.scan(v, w)
            }

            fn swap_cost(&self, _ctx: &EvalContext, scan: &EdgeSwapScan, mv: &SwapMove) -> u64 {
                scan.swap_cost::<$ty>(mv.v, mv.w2)
            }

            fn recycle_view(&self, scan: EdgeSwapScan) {
                scan.recycle();
            }

            fn social_cost(&self, ctx: &EvalContext) -> Option<u64> {
                // The paper's social usage cost (sum of ordered pairwise
                // distances) for BOTH objectives — matching the pre-trait
                // record schema byte for byte.
                ctx.social_cost()
            }
        }
    };
}

basic_game_rules!(SumObjective);
basic_game_rules!(MaxObjective);

// ---------------------------------------------------------------------------
// Bounded-budget game.
// ---------------------------------------------------------------------------

/// Per-agent edge budgets over a basic-game objective: a swap `v: w → w2`
/// that *inserts* a new edge is legal only while the target's degree
/// stays within `budget[w2]`. Deletion-degenerate swaps (`w2` already
/// adjacent) are always legal — they free capacity.
///
/// The acting agent's own degree is unchanged by a swap (it trades one
/// incident edge for another), so only the target side is constrained;
/// [`GameRules::legal_in_batch`] re-projects the target's degree through
/// the round's already-accepted batch, which footprint disjointness alone
/// cannot bound.
#[derive(Debug, Clone)]
pub struct BoundedBudgetGame<O: Objective = SumObjective> {
    budgets: Arc<Vec<u32>>,
    _marker: PhantomData<O>,
}

impl<O: Objective> BoundedBudgetGame<O> {
    /// Uniform budget `b` for all `n` agents.
    pub fn uniform(n: usize, b: u32) -> Self {
        Self::new(vec![b; n])
    }

    /// Budgets of `deg(v) + slack` per agent — every start-graph edge is
    /// affordable, with `slack` headroom to grow.
    pub fn from_degrees(g: &Graph, slack: u32) -> Self {
        Self::new(
            (0..g.n() as V)
                .map(|v| g.neighbors(v).len() as u32 + slack)
                .collect(),
        )
    }

    /// Explicit per-agent budgets (`budgets.len()` must equal the graph
    /// order the game is played on).
    pub fn new(budgets: Vec<u32>) -> Self {
        BoundedBudgetGame {
            budgets: Arc::new(budgets),
            _marker: PhantomData,
        }
    }

    /// The budget of agent `v`.
    pub fn budget(&self, v: V) -> u32 {
        self.budgets[v as usize]
    }

    /// Whether targeting `w2` with a *new* edge is within budget in the
    /// snapshot (deletion-degenerate targets are always fine).
    fn target_ok(&self, csr: &Csr, v: V, w2: V) -> bool {
        if csr.neighbors(v).contains(&w2) {
            return true; // degenerates to deletion of vw
        }
        (csr.neighbors(w2).len() as u32) < self.budgets[w2 as usize]
    }
}

impl<O: Objective> GameRules for BoundedBudgetGame<O> {
    type EdgeView = EdgeSwapScan;

    fn name(&self) -> &'static str {
        match O::NAME {
            "sum" => "budget-sum",
            _ => "budget-max",
        }
    }

    fn check_vertex_count(&self, n: usize) -> Result<(), RulesMismatch> {
        if self.budgets.len() == n {
            return Ok(());
        }
        Err(RulesMismatch {
            game: self.name(),
            why: format!("{} budgets for {n} vertices", self.budgets.len()),
        })
    }

    fn agent_cost(&self, ctx: &EvalContext, v: V) -> u64 {
        ctx.agent_cost::<O>(v)
    }

    fn edge_view(&self, ctx: &EvalContext, v: V, w: V) -> EdgeSwapScan {
        ctx.scan(v, w)
    }

    fn swap_cost(&self, _ctx: &EvalContext, scan: &EdgeSwapScan, mv: &SwapMove) -> u64 {
        scan.swap_cost::<O>(mv.v, mv.w2)
    }

    fn recycle_view(&self, scan: EdgeSwapScan) {
        scan.recycle();
    }

    fn social_cost(&self, ctx: &EvalContext) -> Option<u64> {
        ctx.social_cost()
    }

    fn legal_move(&self, ctx: &EvalContext, mv: &SwapMove) -> bool {
        mv.w2 != mv.v && mv.w2 != mv.w && self.target_ok(ctx.csr(), mv.v, mv.w2)
    }

    fn legal_in_batch(&self, ctx: &EvalContext, mv: &SwapMove, accepted: &[ScoredSwap]) -> bool {
        let csr = ctx.csr();
        let adjacent = |a: V, b: V| csr.neighbors(a).contains(&b);
        if adjacent(mv.v, mv.w2) {
            return true; // pure deletion: frees capacity at both ends
        }
        let w2 = mv.w2;
        // Project the target's degree through the accepted batch: each
        // accepted move removes its snapshot edge and (unless deletion-
        // degenerate) inserts a new one.
        let mut deg = csr.neighbors(w2).len() as i64;
        for s in accepted {
            let m = &s.mv;
            if m.v == w2 || m.w == w2 {
                deg -= 1;
            }
            if !adjacent(m.v, m.w2) && (m.v == w2 || m.w2 == w2) {
                deg += 1;
            }
        }
        deg < i64::from(self.budgets[w2 as usize])
    }
}

// ---------------------------------------------------------------------------
// Communication-interest game.
// ---------------------------------------------------------------------------

/// Communication interests: agent `v` pays `Σ_{x ∈ I(v)} d(v, x)` for its
/// interest set `I(v)` only. The standing cost reads `|I(v)|` entries of
/// the base row ([`kernels::masked_row_cost`]); a swap deleting `vw` is
/// priced on the masked rows of `I(v)` alone ([`InterestRows`]), so a
/// scanned edge repairs at most `|I(v)|` rows instead of copying an
/// `n × n` matrix, and a candidate touches `2·|I(v)|` entries instead of
/// `n`.
///
/// An agent disconnected from an interest pays [`INFINITE_COST`]; agents
/// with empty interest sets pay `0` and never move.
#[derive(Debug, Clone)]
pub struct InterestGame {
    interests: Arc<Vec<Vec<V>>>,
}

impl InterestGame {
    /// Explicit interest sets (deduplicated, self-interest dropped, kept
    /// sorted so scan order is deterministic).
    pub fn new(mut interests: Vec<Vec<V>>) -> Self {
        for (v, set) in interests.iter_mut().enumerate() {
            set.sort_unstable();
            set.dedup();
            set.retain(|&x| x as usize != v);
        }
        InterestGame {
            interests: Arc::new(interests),
        }
    }

    /// Deterministic synthetic instance: agent `v` is interested in the
    /// `k` vertices `v+1, …, v+k (mod n)` — a ring of overlapping
    /// interests that keeps every agent active without an RNG.
    pub fn ring(n: usize, k: usize) -> Self {
        Self::new(
            (0..n)
                .map(|v| {
                    (1..=k.min(n.saturating_sub(1)))
                        .map(|d| ((v + d) % n) as V)
                        .collect()
                })
                .collect(),
        )
    }

    /// The interest set of agent `v` (sorted ascending).
    pub fn interests(&self, v: V) -> &[V] {
        &self.interests[v as usize]
    }
}

/// The masked rows of `G − vw` for agent `v`'s interests `I(v)`, in
/// interest order: the [`InterestGame`]'s per-edge view.
#[derive(Debug)]
pub struct InterestRows {
    n: usize,
    rows: Vec<Dist>,
}

impl InterestRows {
    /// `Σ_{x ∈ I(v)} min(m(v,x), 1 + m(x,w2))` over the masked distances
    /// `m` of `G − vw` — `v`'s interest cost once it links to `w2` — or
    /// [`INFINITE_COST`] when an interest stays unreachable. Both terms
    /// are read from row `x` (`m` is symmetric), so `v`'s own row is never
    /// needed.
    fn cost_via(&self, v: V, w2: V) -> u64 {
        let mut sum = 0u64;
        let mut worst: Dist = 0;
        for row in self.rows.chunks_exact(self.n) {
            let d = row[v as usize].min(row[w2 as usize].saturating_add(1));
            worst = worst.max(d);
            sum += u64::from(d);
        }
        if worst == UNREACHABLE_D {
            INFINITE_COST
        } else {
            sum
        }
    }
}

impl GameRules for InterestGame {
    type EdgeView = InterestRows;

    fn name(&self) -> &'static str {
        "interest"
    }

    fn check_vertex_count(&self, n: usize) -> Result<(), RulesMismatch> {
        // Sets are sorted, so each one's last id is its largest.
        let stray = || {
            (self.interests.iter().enumerate())
                .find_map(|(v, set)| set.last().filter(|&&x| x as usize >= n).map(|&x| (v, x)))
        };
        let why = if self.interests.len() != n {
            format!("{} interest sets for {n} vertices", self.interests.len())
        } else if let Some((v, x)) = stray() {
            format!("agent {v} is interested in vertex {x} of a {n}-vertex graph")
        } else {
            return Ok(());
        };
        Err(RulesMismatch {
            game: self.name(),
            why,
        })
    }

    fn agent_cost(&self, ctx: &EvalContext, v: V) -> u64 {
        kernels::masked_row_cost(ctx.base().row(v), self.interests(v))
    }

    fn edge_view(&self, ctx: &EvalContext, v: V, w: V) -> InterestRows {
        InterestRows {
            n: ctx.n(),
            rows: masked_rows_from_base(ctx.csr(), ctx.base(), (v, w), self.interests(v)),
        }
    }

    fn swap_cost(&self, _ctx: &EvalContext, rows: &InterestRows, mv: &SwapMove) -> u64 {
        rows.cost_via(mv.v, mv.w2)
    }
}

// ---------------------------------------------------------------------------
// 2-neighborhood game.
// ---------------------------------------------------------------------------

/// Local 2-neighborhood maximization: agent `v` wants the largest 2-ball
/// `B₂(v)` (itself, its neighbors, their neighbors), so its cost is
/// `n − |B₂(v)|`. Everything is computed from the CSR alone —
/// [`GameRules::needs_apsp`] is `false`, and the telemetry suite asserts
/// that no engine run under these rules builds or repairs a distance
/// matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoNeighborhoodGame;

/// `B₂(v)` with one incident edge `vw` cut, marked once per scanned edge:
/// the [`TwoNeighborhoodGame`]'s per-edge view. Linking `v` to a
/// candidate `w2` adds exactly `w2` and `N(w2)`: only edges at `v`
/// change, the 2-ball reads each remaining neighbor's unchanged adjacency
/// list, and the one list that does change (`w2` gains `v`) only re-marks
/// `v` itself. So a candidate costs `O(deg w2)`.
#[derive(Debug)]
pub struct TwoBall {
    mark: Vec<bool>,
    size: u64,
}

impl TwoBall {
    /// Marks `B₂(v)` in `csr` without the edge `v–cut` (`None`: the whole
    /// ball).
    fn new(csr: &Csr, v: V, cut: Option<V>) -> Self {
        let mut ball = TwoBall {
            mark: vec![false; csr.n()],
            size: 0,
        };
        ball.add(v);
        for &u in csr.neighbors(v) {
            if Some(u) != cut {
                ball.add(u);
                for &x in csr.neighbors(u) {
                    ball.add(x);
                }
            }
        }
        ball
    }

    fn add(&mut self, x: V) {
        if !self.mark[x as usize] {
            self.mark[x as usize] = true;
            self.size += 1;
        }
    }

    /// The ball's size once `v` also links to `w2`.
    fn size_via(&self, csr: &Csr, w2: V) -> u64 {
        let fresh = |x: V| u64::from(!self.mark[x as usize]);
        self.size + fresh(w2) + csr.neighbors(w2).iter().map(|&x| fresh(x)).sum::<u64>()
    }
}

impl GameRules for TwoNeighborhoodGame {
    type EdgeView = TwoBall;

    fn name(&self) -> &'static str {
        "2nb"
    }

    fn needs_apsp(&self) -> bool {
        false
    }

    fn agent_cost(&self, ctx: &EvalContext, v: V) -> u64 {
        ctx.n() as u64 - TwoBall::new(ctx.csr(), v, None).size
    }

    fn edge_view(&self, ctx: &EvalContext, v: V, w: V) -> TwoBall {
        TwoBall::new(ctx.csr(), v, Some(w))
    }

    fn swap_cost(&self, ctx: &EvalContext, ball: &TwoBall, mv: &SwapMove) -> u64 {
        ctx.n() as u64 - ball.size_via(ctx.csr(), mv.w2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators::classic;

    fn ctx_of(g: &Graph) -> EvalContext {
        EvalContext::new(g)
    }

    #[test]
    fn basic_rules_match_the_edge_scan() {
        // The sweep's best response is the cheapest per-edge
        // `EdgeSwapScan::best_improving` winner, earliest edge on a tie.
        let g = classic::path(9);
        let ctx = ctx_of(&g);
        for v in 0..9 {
            let old = ctx.agent_cost::<SumObjective>(v);
            let mut expected: Option<ScoredSwap> = None;
            for &w in g.neighbors(v) {
                let found = ctx.scan(v, w).best_improving::<SumObjective>(v, old);
                if let Some(s) = found {
                    if expected.as_ref().is_none_or(|b| s.new_cost < b.new_cost) {
                        expected = Some(s);
                    }
                }
            }
            assert_eq!(GameRules::best_response(&SumObjective, &ctx, v), expected);
            assert_eq!(
                GameRules::agent_cost(&MaxObjective, &ctx, v),
                ctx.agent_cost::<MaxObjective>(v)
            );
        }
        assert_eq!(
            GameRules::social_cost(&SumObjective, &ctx),
            ctx.social_cost()
        );
        assert_eq!(SumObjective.name(), "sum");
        assert!(SumObjective.needs_apsp());
    }

    #[test]
    fn budget_zero_slack_blocks_every_insertion() {
        let g = classic::path(8);
        let ctx = ctx_of(&g);
        let rules: BoundedBudgetGame<SumObjective> = BoundedBudgetGame::from_degrees(&g, 0);
        // With zero headroom, every non-degenerate insertion target is
        // full; responses can only be deletion-degenerate (never improving
        // on a path, where deleting disconnects), so nobody moves.
        for v in 0..8 {
            assert_eq!(rules.best_response(&ctx, v), None);
            assert_eq!(rules.first_improving_response(&ctx, v), None);
        }
    }

    #[test]
    fn budget_with_slack_matches_basic_when_unconstrained() {
        let g = classic::path(8);
        let ctx = ctx_of(&g);
        let rules: BoundedBudgetGame<SumObjective> = BoundedBudgetGame::uniform(8, u32::MAX);
        for v in 0..8 {
            assert_eq!(
                rules.best_response(&ctx, v),
                SumObjective.best_response(&ctx, v)
            );
            assert_eq!(
                rules.first_improving_response(&ctx, v),
                SumObjective.first_improving_response(&ctx, v),
                "agent {v}"
            );
        }
    }

    #[test]
    fn interest_cost_reads_masked_rows() {
        let g = classic::path(5); // 0-1-2-3-4
        let ctx = ctx_of(&g);
        let rules = InterestGame::new(vec![vec![4], vec![], vec![0, 4], vec![], vec![0]]);
        assert_eq!(rules.agent_cost(&ctx, 0), 4);
        assert_eq!(rules.agent_cost(&ctx, 1), 0);
        assert_eq!(rules.agent_cost(&ctx, 2), 4);
        assert_eq!(rules.agent_cost(&ctx, 4), 4);
        // Agent 0 can swap 0:1>4 — but that disconnects nothing it pays
        // for? Deleting 0-1 cuts 0 from the rest unless the new edge
        // reconnects: 0-4 gives d(0,4)=1.
        let best = rules.best_response(&ctx, 0).expect("0 can improve");
        assert_eq!((best.mv.v, best.mv.w, best.mv.w2), (0, 1, 4));
        assert_eq!(best.new_cost, 1);
    }

    #[test]
    fn two_neighborhood_counts_balls_without_apsp() {
        let g = classic::path(7); // B2(0) = {0,1,2}
        let ctx = ctx_of(&g);
        let rules = TwoNeighborhoodGame;
        assert!(!rules.needs_apsp());
        assert_eq!(rules.agent_cost(&ctx, 0), 7 - 3);
        assert_eq!(rules.agent_cost(&ctx, 3), 7 - 5);
        let best = rules.best_response(&ctx, 0).expect("endpoint can improve");
        assert!(best.new_cost < best.old_cost);
        // Social cost is defined (finite) even though no APSP exists.
        assert!(rules.social_cost(&ctx).is_some());
    }
}
