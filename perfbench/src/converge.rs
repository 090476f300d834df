//! `converge`: E13-style research batches — cold runs from seeded starts.
//!
//! Each cycle draws two n = 256 starts, `random_connected(n, n/4)` and
//! `watts_strogatz(n, 4, 0.1)`, and runs each through the round engine
//! under the sum and max objectives, the bounded-budget game
//! (`from_degrees(g, 1)`), the interest game (`ring(n, 8)`) and the
//! 2-neighbourhood game, plus the sequential engine (round-robin best
//! response) under sum: twelve operations, each one run capped at
//! [`CAP`] rounds with no records, so the first rounds — where about n
//! moves land as one conflicted batch — carry most of the work. Every run pays its own APSP build
//! except the 2-neighbourhood runs, which never build one — so scan and
//! barrier work predict no change for them.

use std::time::{Duration, Instant};

use bncg_core::equilibrium::{MaxGame, SumGame};
use bncg_core::objective::{MaxObjective, SumObjective};
use bncg_core::rules::{BoundedBudgetGame, GameRules, InterestGame, TwoNeighborhoodGame};
use bncg_dynamics::engine::{Outcome, SwapDynamics};
use bncg_dynamics::rounds::{RoundConfig, RoundDynamics};
use bncg_graph::components::is_connected;
use bncg_graph::generators::random::{random_connected, watts_strogatz};
use bncg_graph::{Graph, V};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks::OpOutput;
use crate::hand;
use crate::host::Region;
use crate::layers::TracedRun;
use crate::report::{Digest, Tally};
use crate::trace::Tracer;
use crate::{Config, Report, Timed, SETUPS};

/// Round cap of every run (sweeps, for the sequential engine). With 12
/// rounds a cycle took 10 s, a run held 36 operations spread from 0.2 s to
/// 2.1 s, and the median fell in a 300 ms gap between run kinds; at 4 the
/// first, heaviest rounds still dominate, a cycle takes about 5 s and the
/// kinds fill 0.2–0.8 s without such a gap.
const CAP: usize = 4;
/// Interest-set size of the interest game.
const INTEREST_K: usize = 8;
/// Percentile reported as `op_tail_ms`.
pub const TAIL_PCT: f64 = 85.0;

/// The run kinds of one cycle, each played on both starts.
const KINDS: [&str; 6] = ["sum", "max", "budget", "interest", "2nb", "seq-sum"];
/// The start families of one cycle.
const FAMILIES: [&str; 2] = ["er", "ws"];

fn n(cfg: &Config) -> usize {
    if cfg.smoke {
        48
    } else {
        256
    }
}

/// Whole cycles every timed region completes: 72 operations, so the tail
/// percentile has at least ten beyond it.
fn min_cycles(cfg: &Config) -> usize {
    if cfg.smoke {
        1
    } else {
        6
    }
}

fn starts(cfg: &Config, cycle: usize) -> [Graph; 2] {
    let n = n(cfg);
    let c = cycle as u64;
    [
        random_connected(&mut crate::gen::rng(cfg.seed, "converge-er", c), n, n / 4),
        watts_strogatz(&mut crate::gen::rng(cfg.seed, "converge-ws", c), n, 4, 0.1),
    ]
}

/// Round cap of the untimed runs that stand in for the equilibrium sample
/// when no capped run of a kind converged.
const SAMPLE_CAP: usize = 64;

fn round_config(cap: usize) -> RoundConfig {
    RoundConfig {
        max_rounds: cap,
        ..RoundConfig::default()
    }
}

/// Whether every vertex of `g` is within its budget.
fn within(b: &BoundedBudgetGame<SumObjective>, g: &Graph) -> bool {
    (0..g.n() as V).all(|v| g.degree(v) as u32 <= b.budget(v))
}

/// A run's game, built before the run starts.
enum Game {
    Sum,
    Max,
    Budget(BoundedBudgetGame<SumObjective>),
    Interest(InterestGame),
    TwoNb,
    Sequential,
}

impl Game {
    fn new(kind: &str, start: &Graph) -> Game {
        match kind {
            "sum" => Game::Sum,
            "max" => Game::Max,
            "budget" => Game::Budget(BoundedBudgetGame::from_degrees(start, 1)),
            "interest" => Game::Interest(InterestGame::ring(start.n(), INTEREST_K)),
            "2nb" => Game::TwoNb,
            _ => Game::Sequential,
        }
    }

    /// The run through the library's engines, capped at `cap` rounds.
    fn run(&self, start: &Graph, cap: usize) -> OpOutput {
        fn rounds<R: GameRules>(rules: R, start: &Graph, cap: usize) -> OpOutput {
            let r = RoundDynamics::with_rules(round_config(cap), rules).run(start);
            OpOutput {
                graph: r.graph,
                outcome: r.outcome,
                rounds: r.rounds,
                applied: r.moves_applied,
            }
        }
        match self {
            Game::Sum => rounds(SumObjective, start, cap),
            Game::Max => rounds(MaxObjective, start, cap),
            Game::Budget(b) => rounds(b.clone(), start, cap),
            Game::Interest(i) => rounds(i.clone(), start, cap),
            Game::TwoNb => rounds(TwoNeighborhoodGame, start, cap),
            Game::Sequential => {
                let r = SwapDynamics::<SumObjective>::new(hand::sequential_config(cap))
                    .run(start, &mut StdRng::seed_from_u64(0));
                OpOutput {
                    graph: r.graph,
                    outcome: r.outcome,
                    rounds: r.rounds,
                    applied: r.moves,
                }
            }
        }
    }

    /// The same run hand-stepped with spans, capped at [`CAP`] rounds. The
    /// flag says whether every budget held after every barrier (always
    /// true outside the budget game).
    fn run_traced(&self, tr: &mut Tracer, start: &Graph) -> (OpOutput, bool) {
        let cfg = round_config(CAP);
        let mut kept = true;
        let mut unchecked = |_: &Graph| {};
        let out = match self {
            Game::Sum => hand::round_run(tr, &SumObjective, start, cfg, &mut unchecked),
            Game::Max => hand::round_run(tr, &MaxObjective, start, cfg, &mut unchecked),
            Game::Budget(b) => hand::round_run(tr, b, start, cfg, &mut |g| kept &= within(b, g)),
            Game::Interest(i) => hand::round_run(tr, i, start, cfg, &mut unchecked),
            Game::TwoNb => hand::round_run(tr, &TwoNeighborhoodGame, start, cfg, &mut unchecked),
            Game::Sequential => hand::sequential_run(tr, &SumObjective, start, CAP),
        };
        (out, kept)
    }
}

/// One operation's outputs and the checks that need its inputs.
struct Done {
    kind: &'static str,
    family: &'static str,
    out: OpOutput,
    edges_kept: bool,
    within_budget: bool,
    builds: u64,
}

fn apsp_builds() -> u64 {
    bncg_telemetry::counter("apsp.builds").get()
}

/// Runs whole cycles until `until(cycles)` says stop. `tr` selects the
/// hand-stepped path.
fn run_cycles(
    cfg: &Config,
    mut tr: Option<&mut Tracer>,
    mut until: impl FnMut(usize) -> bool,
) -> (Vec<Done>, Vec<Duration>) {
    let mut done = Vec::new();
    let mut lat = Vec::new();
    for cycle in 0.. {
        let starts = starts(cfg, cycle);
        for kind in KINDS {
            for (start, family) in starts.iter().zip(FAMILIES) {
                let game = Game::new(kind, start);
                let builds = apsp_builds();
                let t = Instant::now();
                // The library's run returns only the final network; the
                // hand-stepped run also holds every barrier to the budgets.
                let (out, barriers_kept) = match tr.as_deref_mut() {
                    None => (game.run(start, CAP), true),
                    Some(tr) => {
                        tr.set_op(done.len() as u64 + 1);
                        let span = tr.open("op");
                        let out = game.run_traced(tr, start);
                        tr.close(span);
                        out
                    }
                };
                lat.push(t.elapsed());
                let within_budget = barriers_kept
                    && match &game {
                        Game::Budget(b) => within(b, &out.graph),
                        _ => true,
                    };
                done.push(Done {
                    kind,
                    family,
                    edges_kept: out.graph.m() == start.m(),
                    within_budget,
                    builds: apsp_builds() - builds,
                    out,
                });
            }
        }
        if until(cycle + 1) {
            break;
        }
    }
    (done, lat)
}

/// The equilibrium sample of one basic-game kind: the first converged
/// endpoint among `done`, or, when no capped run of the kind converged, the
/// first converged endpoint of the kind run untimed on the first cycle's
/// starts with the cap raised to [`SAMPLE_CAP`]. `None` when that fails too.
fn sample(cfg: &Config, kind: &'static str, done: &[Done]) -> Option<(Graph, &'static str)> {
    let converged = |o: &OpOutput| o.outcome == Outcome::Converged;
    if let Some(d) = done.iter().find(|d| d.kind == kind && converged(&d.out)) {
        return Some((d.out.graph.clone(), "a timed run"));
    }
    starts(cfg, 0).iter().find_map(|start| {
        let out = Game::new(kind, start).run(start, SAMPLE_CAP);
        converged(&out).then_some((out.graph, "an untimed run with the cap raised"))
    })
}

/// Whether a converged endpoint of `kind` is stable on a fresh context. A
/// connected sum endpoint must be a sum equilibrium. Simultaneous moves can
/// split the network, and a split network is no equilibrium of the paper's
/// game, so a disconnected endpoint is held to what the dynamics promise:
/// no agent has an improving swap. So is every max endpoint: off trees a
/// max-swap-stable graph need not be deletion-critical.
fn stable(kind: &str, g: &Graph) -> bool {
    if kind == "max" {
        MaxGame::find_improving_swap(g).is_none()
    } else if is_connected(g) {
        SumGame::is_equilibrium(g)
    } else {
        SumGame::find_improving_swap(g).is_none()
    }
}

/// Output checks and the digest of the first cycle.
fn check(cfg: &Config, done: &[Done], tally: &mut Tally) -> Digest {
    for (i, d) in done.iter().enumerate() {
        tally.op(
            &format!("converge op {i} ({} on {})", d.kind, d.family),
            &[
                (d.edges_kept, "swaps preserve the edge count"),
                (d.within_budget, "budgets are never exceeded"),
                (d.kind != "2nb" || d.builds == 0, "2nb runs build no APSP"),
            ],
        );
    }
    // A fixed sample of converged basic-game endpoints, one per kind.
    for kind in ["sum", "seq-sum", "max"] {
        match sample(cfg, kind, done) {
            None => tally.check(false, &format!("no converged {kind} endpoint to sample")),
            Some((g, from)) => {
                let ok = stable(kind, &g);
                println!(
                    "converge: {kind} sample from {from}, connected {}: stable {ok}",
                    is_connected(&g)
                );
                tally.check(ok, &format!("converged {kind} endpoint is stable"));
            }
        }
    }
    let first_cycle = KINDS.len() * FAMILIES.len();
    let mut digest = Digest::default();
    for d in done.iter().take(first_cycle) {
        digest.text(d.kind);
        d.out.fold(&mut digest);
    }
    let mut by_kind = String::new();
    for kind in KINDS {
        let runs: Vec<&Done> = done.iter().filter(|d| d.kind == kind).collect();
        let converged = runs
            .iter()
            .filter(|d| d.out.outcome == Outcome::Converged)
            .count();
        by_kind.push_str(&format!(" {kind} {converged}/{}", runs.len()));
    }
    println!(
        "converge: converged runs by kind:{by_kind}; digest covers the first {first_cycle} ops"
    );
    digest
}

/// Input generation plus an untimed warm-up that starts the worker pool
/// and fills the matrix pools: a sum round run and a sequential run on
/// both of the first cycle's starts. Both starts keep set-up above half a
/// second of work; on the random graph alone it read 0.48 s on a fast run.
fn warm_up(cfg: &Config, mut tr: Option<&mut Tracer>) {
    let root = tr.as_deref_mut().map(|tr| tr.open("setup"));
    for start in starts(cfg, 0) {
        match tr.as_deref_mut() {
            None => {
                Game::Sum.run(&start, CAP);
                Game::Sequential.run(&start, CAP);
            }
            Some(tr) => {
                Game::Sum.run_traced(tr, &start);
                Game::Sequential.run_traced(tr, &start);
            }
        }
    }
    if let (Some(tr), Some(root)) = (tr, root) {
        tr.close(root);
    }
}

/// The untraced run.
pub fn run(cfg: &Config) -> Report {
    let mut tally = Tally::default();
    let mut timed = Timed::default();
    for _ in 0..SETUPS {
        let t = Region::start();
        warm_up(cfg, None);
        timed.setups.push(t.finish());
    }
    let region = Region::start();
    let (done, lat) = run_cycles(cfg, None, |cycles| {
        cycles >= min_cycles(cfg) && region.elapsed_s() >= cfg.seconds
    });
    timed.cost = region.finish();
    timed.rounds = done.iter().map(|d| d.out.rounds as u64).sum();
    timed.cycles = (done.len() / (KINDS.len() * FAMILIES.len())) as u64;
    for kind in KINDS {
        for family in FAMILIES {
            let pop: Vec<Duration> = done
                .iter()
                .zip(&lat)
                .filter(|(d, _)| d.kind == kind && d.family == family)
                .map(|(_, l)| *l)
                .collect();
            crate::print_population(&format!("{kind} on {family}"), &pop);
        }
    }
    timed.latencies = lat;
    // The library's budget runs show only their final network; the first
    // cycle's are stepped again by hand, untimed, to check every barrier.
    let mut scratch = Tracer::default();
    for (start, family) in starts(cfg, 0).iter().zip(FAMILIES) {
        let (_, kept) = Game::new("budget", start).run_traced(&mut scratch, start);
        tally.check(
            kept,
            &format!("budgets hold after every barrier of the first budget run on {family}"),
        );
    }
    let digest = check(cfg, &done, &mut tally);
    println!("digest {}", digest.hex());
    Report {
        metrics: timed.metrics(TAIL_PCT),
        tally,
    }
}

/// The traced run: the first cycle through the library, then again
/// hand-stepped with spans.
pub fn run_traced(cfg: &Config) -> Report {
    let mut tally = Tally::default();
    warm_up(cfg, None);
    let (untraced_digest, untraced_ms) = {
        let (done, lat) = run_cycles(cfg, None, |_| true);
        let d = check(cfg, &done, &mut Tally::default());
        (d, lat.iter().map(|d| d.as_secs_f64() * 1e3).sum::<f64>())
    };
    let mut tr = Tracer::default();
    let tel0 = bncg_telemetry::snapshot();
    let region = Region::start();
    warm_up(cfg, Some(&mut tr));
    let (done, lat) = run_cycles(cfg, Some(&mut tr), |_| true);
    let cost = region.finish();
    let telemetry = bncg_telemetry::snapshot().delta_since(&tel0);
    let digest = check(cfg, &done, &mut tally);
    println!("digest {}", digest.hex());
    tally.check(
        digest == untraced_digest,
        "traced run reproduces the untraced digest",
    );
    crate::write_spans(cfg, "converge", &tr);
    let run = TracedRun {
        tracer: &tr,
        telemetry: &telemetry,
        wall_ns: (cost.wall_s * 1e9) as u64,
        sink_bytes: 0,
        traced_ops_ms: lat.iter().map(|d| d.as_secs_f64() * 1e3).sum(),
        untraced_ops_ms: untraced_ms,
        steal_s: cost.steal_s,
    };
    Report {
        metrics: run.metrics(),
        tally,
    }
}
