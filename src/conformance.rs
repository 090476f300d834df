//! Cross-engine game-conformance machinery.
//!
//! Two jobs live here:
//!
//! 1. **Golden trajectories** — a deterministic scenario battery for the
//!    *basic* AlonDHL10 game, rendered to a stable text format. The
//!    committed files under `tests/data/` were generated by
//!    `examples/golden_trajectories.rs` against the pre-`GameRules`
//!    engines; `tests/game_conformance.rs` re-renders the same battery on
//!    every run and diffs byte-for-byte, so any refactor of the dynamics
//!    core that shifts even one move, one social-cost reading, or one
//!    repair counter for the basic game is caught immediately.
//! 2. **Engine fan-out** (grown alongside the `GameRules` trait) — run
//!    one seeded scenario through every engine family and normalize the
//!    outputs for record-level equivalence checks.
//!
//! The renderer deliberately zeroes the wall-clock `phases` field of each
//! [`RoundRecord`] before serializing:
//! everything else in a record is a deterministic function of the start
//! graph and the engine, while phase timings are host noise.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use bncg_core::context::EvalContext;
use bncg_core::objective::{MaxObjective, Objective, SumObjective};
use bncg_dynamics::engine::{DynamicsConfig, Outcome, Response, Schedule, SwapDynamics};
use bncg_dynamics::rounds::{step_round, RoundConfig, RoundDynamics};
use bncg_dynamics::sink::MemorySink;
use bncg_graph::adjacency::SwapApplied;
use bncg_graph::generators::classic;
use bncg_graph::generators::random::{random_connected, random_tree};
use bncg_graph::{graph6, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hard cap on the hand-driven round loop of a golden render (the
/// engine-driven sections use the engines' own defaults).
const GOLDEN_MAX_ROUNDS: usize = 600;

/// Start-graph family of a golden scenario.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// `random_connected(n, extra)` from the given seed.
    Er {
        /// Vertex count.
        n: usize,
        /// Extra edges beyond the spanning tree.
        extra: usize,
        /// RNG seed.
        seed: u64,
    },
    /// `random_tree(n)` from the given seed.
    Tree {
        /// Vertex count.
        n: usize,
        /// RNG seed.
        seed: u64,
    },
    /// The path `P_n`.
    Path(usize),
    /// The cycle `C_n`.
    Cycle(usize),
}

impl Family {
    /// Materializes the start graph.
    pub fn build(self) -> Graph {
        match self {
            Family::Er { n, extra, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                random_connected(&mut rng, n, extra)
            }
            Family::Tree { n, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                random_tree(&mut rng, n)
            }
            Family::Path(n) => classic::path(n),
            Family::Cycle(n) => classic::cycle(n),
        }
    }
}

/// Which of the two AlonDHL10 objectives a golden scenario plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveTag {
    /// Sum of distances (the usage cost of the SUM game).
    Sum,
    /// Eccentricity (the usage cost of the MAX game).
    Max,
}

impl ObjectiveTag {
    /// Stable label used in golden headers and file names.
    pub fn label(self) -> &'static str {
        match self {
            ObjectiveTag::Sum => "sum",
            ObjectiveTag::Max => "max",
        }
    }
}

/// One deterministic golden scenario: a start graph, an objective, and a
/// response rule, rendered through three engine views.
#[derive(Debug, Clone, Copy)]
pub struct GoldenScenario {
    /// File-name-safe scenario id (`golden_<name>.txt`).
    pub name: &'static str,
    /// Start-graph family.
    pub family: Family,
    /// Objective under play.
    pub objective: ObjectiveTag,
    /// Response rule for every engine section.
    pub response: Response,
}

/// A rendered golden: the stable text plus the number of applied moves it
/// pins (summed over all three engine sections).
#[derive(Debug, Clone)]
pub struct Golden {
    /// The byte-exact golden text.
    pub text: String,
    /// Applied moves pinned by this scenario across all sections.
    pub steps: usize,
}

/// The committed scenario battery. Deterministic by construction (seeded
/// RNGs only); together the scenarios pin well over 500 applied moves —
/// `tests/game_conformance.rs` asserts the floor.
pub fn golden_scenarios() -> Vec<GoldenScenario> {
    use Family::{Cycle, Er, Path, Tree};
    use ObjectiveTag::{Max, Sum};
    vec![
        scenario(
            "er48_sum_best",
            Er {
                n: 48,
                extra: 24,
                seed: 0xA1,
            },
            Sum,
            Response::Best,
        ),
        scenario(
            "er48_max_best",
            Er {
                n: 48,
                extra: 24,
                seed: 0xA2,
            },
            Max,
            Response::Best,
        ),
        scenario(
            "er48_sum_first",
            Er {
                n: 48,
                extra: 24,
                seed: 0xA3,
            },
            Sum,
            Response::FirstImproving,
        ),
        scenario(
            "er48_max_first",
            Er {
                n: 48,
                extra: 24,
                seed: 0xA4,
            },
            Max,
            Response::FirstImproving,
        ),
        scenario(
            "tree32_sum_best",
            Tree { n: 32, seed: 0xB1 },
            Sum,
            Response::Best,
        ),
        scenario(
            "tree32_max_best",
            Tree { n: 32, seed: 0xB2 },
            Max,
            Response::Best,
        ),
        scenario(
            "tree32_sum_first",
            Tree { n: 32, seed: 0xB3 },
            Sum,
            Response::FirstImproving,
        ),
        scenario(
            "tree32_max_first",
            Tree { n: 32, seed: 0xB4 },
            Max,
            Response::FirstImproving,
        ),
        scenario("path24_sum_best", Path(24), Sum, Response::Best),
        scenario("path24_max_best", Path(24), Max, Response::Best),
        scenario("cycle24_sum_best", Cycle(24), Sum, Response::Best),
        scenario(
            "cycle24_max_first",
            Cycle(24),
            Max,
            Response::FirstImproving,
        ),
        scenario(
            "er64_sum_best",
            Er {
                n: 64,
                extra: 32,
                seed: 0xC1,
            },
            Sum,
            Response::Best,
        ),
        scenario(
            "er64_max_first",
            Er {
                n: 64,
                extra: 32,
                seed: 0xC2,
            },
            Max,
            Response::FirstImproving,
        ),
    ]
}

fn scenario(
    name: &'static str,
    family: Family,
    objective: ObjectiveTag,
    response: Response,
) -> GoldenScenario {
    GoldenScenario {
        name,
        family,
        objective,
        response,
    }
}

/// Path of the committed golden file for `name` (repo-root relative via
/// the facade's manifest dir, so tests and examples agree).
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data"))
        .join(format!("golden_{name}.txt"))
}

/// Renders one scenario to its golden text.
pub fn render_golden(s: &GoldenScenario) -> Golden {
    match s.objective {
        ObjectiveTag::Sum => render_for::<SumObjective>(s),
        ObjectiveTag::Max => render_for::<MaxObjective>(s),
    }
}

fn response_label(r: Response) -> &'static str {
    match r {
        Response::Best => "best",
        Response::FirstImproving => "first",
    }
}

fn outcome_label(o: Outcome) -> &'static str {
    match o {
        Outcome::Converged => "converged",
        Outcome::Cycled => "cycled",
        Outcome::Capped => "capped",
    }
}

fn applied_label(a: &SwapApplied) -> String {
    match a {
        SwapApplied::Noop => "noop".into(),
        SwapApplied::Swapped { v, w, w2 } => format!("{v}:{w}>{w2}"),
        SwapApplied::Deleted { v, w } => format!("{v}:{w}>x"),
    }
}

fn cost_label(c: Option<u64>) -> String {
    c.map_or_else(|| "-".into(), |x| x.to_string())
}

fn render_for<O: Objective + bncg_core::rules::GameRules + Default>(s: &GoldenScenario) -> Golden {
    let g0 = s.family.build();
    let mut out = String::new();
    let mut steps = 0usize;
    let _ = writeln!(
        out,
        "golden {} objective={} response={}",
        s.name,
        s.objective.label(),
        response_label(s.response)
    );
    let _ = writeln!(out, "start {}", graph6::encode(&g0));

    // Section 1: hand-driven frozen-snapshot rounds, move-by-move. This
    // pins the exact accepted batch of every round (agent, dropped edge,
    // new endpoint), not just the counts.
    let _ = writeln!(out, "[rounds:moves]");
    {
        let mut g = g0.clone();
        let mut ctx = EvalContext::new(&g);
        ctx.base();
        let mut seen: HashMap<String, usize> = HashMap::new();
        seen.insert(graph6::encode(&g), 0);
        let mut outcome = Outcome::Capped;
        let mut period: Option<usize> = None;
        let mut rounds = 0usize;
        for round in 1..=GOLDEN_MAX_ROUNDS {
            rounds = round;
            let step = step_round(&O::default(), &mut ctx, &mut g, s.response);
            steps += step.applied;
            let moves: Vec<String> = step.batch.iter().map(applied_label).collect();
            let _ = writeln!(
                out,
                "R{round} proposed={} applied={} cost={} moves=[{}]",
                step.proposed,
                step.applied,
                cost_label(ctx.social_cost()),
                moves.join(",")
            );
            if step.proposed == 0 {
                outcome = Outcome::Converged;
                break;
            }
            if let Some(prev) = seen.insert(graph6::encode(&g), round) {
                outcome = Outcome::Cycled;
                period = Some(round - prev);
                break;
            }
        }
        let _ = writeln!(
            out,
            "[rounds:end] outcome={} rounds={rounds} period={} final={}",
            outcome_label(outcome),
            period.map_or_else(|| "-".into(), |p| p.to_string()),
            graph6::encode(&g)
        );
    }

    // Section 2: the round engine proper, one record per round (phases
    // zeroed — wall-clock is the only nondeterministic field).
    let _ = writeln!(out, "[round-engine]");
    {
        let mut sink = MemorySink::new();
        let engine = RoundDynamics::<O>::new(RoundConfig {
            response: s.response,
            ..RoundConfig::default()
        });
        let res = engine.run_with_sink(&g0, &mut sink);
        for rec in &sink.records {
            let mut r = *rec;
            r.phases = Default::default();
            let _ = writeln!(out, "{}", r.to_jsonl());
        }
        steps += res.moves_applied;
        let _ = writeln!(
            out,
            "[round-engine:end] outcome={} rounds={} proposed={} applied={} period={} final={}",
            outcome_label(res.outcome),
            res.rounds,
            res.moves_proposed,
            res.moves_applied,
            res.cycle_period
                .map_or_else(|| "-".into(), |p| p.to_string()),
            graph6::encode(&res.graph)
        );
    }

    // Section 3: the sequential engine under a round-robin schedule (no
    // RNG consumed), one record per sweep.
    let _ = writeln!(out, "[sequential]");
    {
        let mut sink = MemorySink::new();
        let engine = SwapDynamics::<O>::new(DynamicsConfig {
            schedule: Schedule::RoundRobin,
            response: s.response,
            ..DynamicsConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let res = engine.run_with_sink(&g0, &mut rng, &mut sink);
        for rec in &sink.records {
            let mut r = *rec;
            r.phases = Default::default();
            let _ = writeln!(out, "{}", r.to_jsonl());
        }
        steps += res.moves;
        let _ = writeln!(
            out,
            "[sequential:end] outcome={} rounds={} moves={} period={} final={}",
            outcome_label(res.outcome),
            res.rounds,
            res.moves,
            res.cycle_period
                .map_or_else(|| "-".into(), |p| p.to_string()),
            graph6::encode(&res.graph)
        );
    }

    Golden { text: out, steps }
}

// ---------------------------------------------------------------------------
// Engine fan-out: one scenario, every round-family engine, normalized
// traces.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use bncg_core::rules::GameRules;
use bncg_dynamics::service::{JournalOptions, RoundService};
use bncg_dynamics::sink::RoundRecord;
use bncg_testkit::conformance::EngineTrace;

/// The round-family engines [`trace_engines`] fans a scenario across.
pub const ROUND_FAMILY_ENGINES: [&str; 4] = [
    "round-serial",
    "round-stepwise",
    "service-serial",
    "service-resumed",
];

fn temp_journal(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "bncg-conformance-{}-{}-{}.journal",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn trace_from_records(
    engine: &str,
    records: &[RoundRecord],
    outcome: Outcome,
    graph: &Graph,
) -> EngineTrace {
    let mut t = EngineTrace::new(engine);
    for r in records {
        t.push(r.round, r.proposed, r.applied, r.social_cost);
    }
    t.outcome = outcome_label(outcome).into();
    t.final_graph = graph6::encode(graph);
    t
}

/// Runs one seeded scenario through every engine of the round family —
/// the round engine, a hand-stepped [`step_round`] loop, the round
/// service, and a service resumed from a crash-truncated journal — under
/// the same [`GameRules`], and returns
/// one normalized [`EngineTrace`] per engine (in
/// [`ROUND_FAMILY_ENGINES`] order).
///
/// Pass the traces to
/// [`assert_equivalent`](bncg_testkit::conformance::assert_equivalent)
/// for the conformance verdict; callers that want to diff engines
/// pairwise can use
/// [`EngineTrace::divergence`] directly.
pub fn trace_engines<R: GameRules>(
    rules: &R,
    start: &Graph,
    config: RoundConfig,
) -> Vec<EngineTrace> {
    let mut traces = Vec::with_capacity(ROUND_FAMILY_ENGINES.len());

    // 1. The one-shot round engine.
    {
        let mut sink = MemorySink::new();
        let engine = RoundDynamics::with_rules(config, rules.clone());
        let res = engine.run_with_sink(start, &mut sink);
        traces.push(trace_from_records(
            "round-serial",
            &sink.records,
            res.outcome,
            &res.graph,
        ));
    }

    // 2. A hand-stepped loop over `step_round` — the driver every
    // embedding that owns its own round loop would write.
    {
        let mut t = EngineTrace::new("round-stepwise");
        let mut g = start.clone();
        let mut ctx = EvalContext::new(&g);
        if rules.needs_apsp() {
            ctx.base();
        }
        let mut seen: HashMap<String, usize> = HashMap::new();
        if config.detect_cycles {
            seen.insert(graph6::encode(&g), 0);
        }
        let mut outcome = Outcome::Capped;
        for round in 1..=config.max_rounds {
            let step = step_round(rules, &mut ctx, &mut g, config.response);
            t.push(round, step.proposed, step.applied, rules.social_cost(&ctx));
            if step.proposed == 0 {
                outcome = Outcome::Converged;
                break;
            }
            if config.detect_cycles && seen.insert(graph6::encode(&g), round).is_some() {
                outcome = Outcome::Cycled;
                break;
            }
        }
        t.outcome = outcome_label(outcome).into();
        t.final_graph = graph6::encode(&g);
        traces.push(t);
    }

    // 3. The round service, driven directly.
    {
        let mut sink = MemorySink::new();
        let mut service = RoundService::with_rules(start, config, rules.clone());
        let report = service.run_session(&mut sink);
        traces.push(trace_from_records(
            "service-serial",
            &sink.records,
            report.result.outcome,
            &report.result.graph,
        ));
    }

    // 4. A journaled service crash-truncated mid-run and resumed: the
    // spliced record stream (rounds safely on disk before the "crash" +
    // the resumed continuation) must match an uninterrupted run.
    {
        let path = temp_journal(rules.name());
        let mut sink = MemorySink::new();
        let mut service = RoundService::with_rules(start, config, rules.clone());
        service
            .attach_journal(
                &path,
                JournalOptions {
                    checkpoint_every: 3,
                },
            )
            .expect("conformance journal in temp dir");
        service.run_session(&mut sink);
        assert!(
            service.journal_error().is_none(),
            "conformance journal stayed healthy"
        );
        drop(service);
        traces.push(resume_trace(rules, &path, &sink.records));
        std::fs::remove_file(&path).ok();
    }

    traces
}

/// Truncates the journal at `path` to simulate a crash before its last
/// round commit, resumes a service from the cut, runs the continuation,
/// and splices `prefix_records` (the rounds already on disk at the cut)
/// with the continuation's records into one `service-resumed` trace.
fn resume_trace<R: GameRules>(rules: &R, path: &Path, full_records: &[RoundRecord]) -> EngineTrace {
    let text = std::fs::read_to_string(path).expect("read conformance journal");
    let lines: Vec<&str> = text.lines().collect();
    // Cut strictly before the last round commit (everything after it —
    // checkpoints, the SessionEnd — goes too): replay then always lands
    // *inside* the session, even when it ended by closing a cycle, and
    // the continuation genuinely re-runs at least the final round.
    let cut = lines
        .iter()
        .rposition(|l| l.contains("\"t\":\"round\""))
        .unwrap_or(lines.len().saturating_sub(1))
        .max(1);
    let partial = temp_journal("cut");
    std::fs::write(&partial, lines[..cut].join("\n") + "\n").expect("write journal prefix");
    let (mut resumed, report) =
        RoundService::resume_with_rules(&partial, rules.clone()).expect("conformance resume");
    let k = report.midsession.unwrap_or(0);
    let mut sink = MemorySink::new();
    let cont = resumed.run_session(&mut sink);
    std::fs::remove_file(&partial).ok();
    let mut t = EngineTrace::new("service-resumed");
    for r in full_records.iter().take(k) {
        t.push(r.round, r.proposed, r.applied, r.social_cost);
    }
    for r in &sink.records {
        t.push(r.round, r.proposed, r.applied, r.social_cost);
    }
    // A fully-converged/cycled journal can leave nothing to continue; the
    // continuation then re-reports the terminal outcome from the same
    // state, which is exactly what the equivalence check wants.
    t.outcome = outcome_label(cont.result.outcome).into();
    t.final_graph = graph6::encode(&cont.result.graph);
    t
}
