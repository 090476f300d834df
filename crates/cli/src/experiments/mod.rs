//! The thirteen experiments of the reproduction (see DESIGN.md §3).

/// Options handed to every experiment runner.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Reduced-scale run (`bncg quick` / `--quick`).
    pub quick: bool,
    /// When set, experiments with a streaming round-record pipeline (E13)
    /// write one JSON Lines [`bncg_dynamics::RoundRecord`] per dynamics
    /// round to this path (`--metrics <path>`); the others ignore it.
    pub metrics: Option<std::path::PathBuf>,
    /// When set, E13's service run journals every round barrier to this
    /// path (`--journal <path>`), making the run crash-recoverable via
    /// `--resume`.
    pub journal: Option<std::path::PathBuf>,
    /// When set, E13 resumes a crashed/killed journaled run from this
    /// path (`--resume <path>`) instead of starting fresh, and reports
    /// the recovery statistics.
    pub resume: Option<std::path::PathBuf>,
    /// When nonzero, E13's service run audits a rotating stripe of the
    /// maintained distance matrix against fresh BFS every this many
    /// rounds (`--audit-every <k>`), self-healing divergent rows.
    pub audit_every: usize,
    /// Which rule set E13's streaming run and crash-safe service play
    /// (`--game <name>`). Every other experiment is pinned to the basic
    /// game whose theorems it reproduces and ignores this.
    pub game: GameChoice,
}

/// A `--game` selection: one of the shipped [`GameRules`] sets.
///
/// [`GameRules`]: bncg_core::rules::GameRules
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GameChoice {
    /// The basic AlonDHL10 game under the sum objective (the default).
    #[default]
    Basic,
    /// Bounded-budget variant
    /// ([`BoundedBudgetGame`](bncg_core::rules::BoundedBudgetGame)):
    /// a uniform per-vertex edge budget of this many endpoints.
    Budget(u32),
    /// Communication-interest variant
    /// ([`InterestGame`](bncg_core::rules::InterestGame)): ring interest
    /// sets of this half-width.
    Interest(usize),
    /// 2-neighborhood variant
    /// ([`TwoNeighborhoodGame`](bncg_core::rules::TwoNeighborhoodGame)):
    /// purely local costs, no distance matrix maintained.
    TwoNeighborhood,
}

impl GameChoice {
    /// Parses a `--game` argument: `basic`, `budget[:cap]` (default cap
    /// 3), `interest[:k]` (default half-width 3), or `2nb`.
    pub fn parse(s: &str) -> Option<Self> {
        let (head, tail) = match s.split_once(':') {
            Some((h, t)) => (h, Some(t)),
            None => (s, None),
        };
        match (head, tail) {
            ("basic", None) => Some(GameChoice::Basic),
            ("budget", None) => Some(GameChoice::Budget(3)),
            ("budget", Some(t)) => t.parse().ok().map(GameChoice::Budget),
            ("interest", None) => Some(GameChoice::Interest(3)),
            ("interest", Some(t)) => t.parse().ok().map(GameChoice::Interest),
            ("2nb", None) => Some(GameChoice::TwoNeighborhood),
            _ => None,
        }
    }
}

/// Records that a `--metrics` stream was lost to an I/O error (a full
/// disk, a bad path). Experiment runners return their report regardless —
/// the tables are still good — but `main` checks this flag afterwards and
/// exits nonzero, so scripted pipelines cannot mistake a silently dropped
/// JSONL stream for a complete one.
pub fn note_metrics_failure() {
    METRICS_FAILED.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// Whether any runner reported a lost `--metrics` stream.
pub fn metrics_failed() -> bool {
    METRICS_FAILED.load(std::sync::atomic::Ordering::Relaxed)
}

static METRICS_FAILED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

pub mod e01_tree_census;
pub mod e02_max_trees;
pub mod e03_fig3;
pub mod e04_sum_diameter;
pub mod e05_insertion_gain;
pub mod e06_torus;
pub mod e07_multidim;
pub mod e08_spread;
pub mod e09_uniformity;
pub mod e10_spider;
pub mod e11_cayley;
pub mod e12_alpha;
pub mod e13_convergence;

/// One-line description per experiment id.
pub fn description(name: &str) -> &'static str {
    match name {
        "e1" => "Theorem 1: exhaustive tree census — sum-equilibrium trees are stars",
        "e2" => "Theorem 4 / Figure 2: max-equilibrium trees have diameter <= 3",
        "e3" => "Theorem 5 / Figure 3: diameter-3 sum equilibrium (erratum + repair)",
        "e4" => "Theorem 9: sum-equilibrium diameters and ball growth",
        "e5" => "Lemma 10 / Corollary 11: insertion-gain audits on sum equilibria",
        "e6" => "Theorem 12 / Figure 4: the rotated torus is a Θ(√n)-diameter max equilibrium",
        "e7" => "Section 4: d-dimensional tori and the k-insertion stability trade-off",
        "e8" => "Lemma 2: local diameters in max equilibria differ by at most 1",
        "e9" => "Theorem 13: power graphs of equilibria become distance-(almost-)uniform",
        "e10" => "Section 5 remark: the spider — pairwise uniformity is not enough",
        "e11" => "Theorem 15: distance-uniform Abelian Cayley graphs have small diameter",
        "e12" => "Baseline: the alpha-game — PoA vs diameter, for every alpha at once",
        "e13" => "Dynamics: convergence behavior and polynomial equilibrium detection",
        _ => "unknown",
    }
}
