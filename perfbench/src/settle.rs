//! `settle`: perturb-and-settle traffic on warm serial round services.
//!
//! Set-up draws two uniform random trees (n = 256), brings each to a
//! swap equilibrium with the sequential engine — sum on one, max on the
//! other — moves the equilibrium's hub to the middle label (see
//! [`centred`]) and starts a warm serial `RoundService` on each, with
//! records streamed to a `JsonlSink` file. One operation injects two seeded
//! connectivity-keeping swaps with `perturb` and runs the session that
//! settles them. Almost all the time goes to the proposal sweep: on a
//! tree every deletion is a bridge, so every candidate edge is a masked
//! scan. There is no journal, and barrier work is a few rows per round.
//!
//! The sequential engine makes the equilibria because simultaneous best
//! responses on a random tree can split it: the round engine leaves a
//! random n = 256 tree under the sum objective in three components after
//! one round, where no agent can improve and every session is empty.

use std::cmp::Reverse;
use std::time::{Duration, Instant};

use bncg_core::equilibrium::{MaxGame, SumGame};
use bncg_core::objective::{MaxObjective, SumObjective};
use bncg_core::rules::GameRules;
use bncg_core::swap::SwapMove;
use bncg_dynamics::engine::{Outcome, SwapDynamics};
use bncg_dynamics::rounds::RoundConfig;
use bncg_dynamics::service::{RoundService, ServiceConfig};
use bncg_graph::components::is_connected;
use bncg_graph::generators::random::random_tree;
use bncg_graph::{Graph, V};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks::{bfs_social_cost, OpOutput};
use crate::hand::{self, HandService};
use crate::host::Region;
use crate::layers::TracedRun;
use crate::report::{Digest, Tally};
use crate::sinks::BenchSink;
use crate::trace::Tracer;
use crate::{Config, Report, Timed, SETUPS};

/// The service each operation of a cycle goes to: fifteen sum sessions per
/// max session. Sum sessions on the star are alike whatever the seed (two
/// rounds each), while a seed-dependent share of max sessions takes a
/// third round; with max at one sixteenth of the mix, both the median and
/// the 90th percentile stay inside the sum population.
const CYCLE: [usize; 16] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
/// Labels of the two services.
const GAMES: [&str; 2] = ["sum", "max"];
/// Swaps injected per operation.
const PERTURB: usize = 2;
/// Percentile reported as `op_tail_ms`.
pub const TAIL_PCT: f64 = 90.0;

fn n(cfg: &Config) -> usize {
    if cfg.smoke {
        48
    } else {
        256
    }
}

/// Operations the digest covers (and the traced run repeats): whole
/// cycles, so both services are in it.
fn digest_ops(cfg: &Config) -> usize {
    if cfg.smoke {
        CYCLE.len()
    } else {
        2 * CYCLE.len()
    }
}

fn trees(cfg: &Config) -> [Graph; 2] {
    [0, 1].map(|k| random_tree(&mut crate::gen::rng(cfg.seed, "settle-tree", k), n(cfg)))
}

fn perturbation(cfg: &Config, g: &Graph, op: usize) -> Vec<SwapMove> {
    crate::gen::perturbation(
        g,
        &mut crate::gen::rng(cfg.seed, "settle-op", op as u64),
        PERTURB,
    )
}

fn equilibrium<R: GameRules + Default>(tree: &Graph) -> Graph {
    SwapDynamics::<R>::new(hand::sequential_config(usize::MAX))
        .run(tree, &mut StdRng::seed_from_u64(0))
        .graph
}

/// `g` with the labels of its highest-degree vertex and vertex n/2
/// exchanged. The star's centre owns about half of a sweep's work, and
/// the worker pool hands agents out in label order, so the centre's label
/// decides how evenly the two workers share a round: on a 2-vCPU KVM
/// host a seed-drawn label moved the sum sessions' median from 116 ms to
/// 152 ms between seeds. In the middle it stands for the average
/// placement, the same for every seed.
fn centred(g: &Graph) -> Graph {
    let n = g.n();
    let hub = (0..n as V)
        .max_by_key(|&v| (g.degree(v), Reverse(v)))
        .expect("a non-empty graph");
    let mut perm: Vec<V> = (0..n as V).collect();
    perm.swap(hub as usize, n / 2);
    g.relabel(&perm)
}

/// One operation's outputs.
struct Done {
    game: usize,
    perturbed: usize,
    out: OpOutput,
    last_cost: Option<u64>,
}

/// Either engine path, driven one operation at a time.
trait Settler {
    fn graph(&self, game: usize) -> &Graph;
    fn op(&mut self, op: usize, game: usize, swaps: &[SwapMove]) -> Done;
}

/// The library's own services.
struct Live {
    sum: RoundService<SumObjective>,
    max: RoundService<MaxObjective>,
    sinks: [BenchSink; 2],
}

impl Live {
    fn setup(cfg: &Config, tally: &mut Tally) -> Live {
        let [t_sum, t_max] = trees(cfg);
        let (eq_sum, eq_max) = (
            centred(&equilibrium::<SumObjective>(&t_sum)),
            centred(&equilibrium::<MaxObjective>(&t_max)),
        );
        let mut live = Live {
            sum: RoundService::new(&eq_sum, ServiceConfig::default()),
            max: RoundService::new(&eq_max, ServiceConfig::default()),
            sinks: GAMES.map(|g| {
                BenchSink::create(&cfg.file(&format!("settle-{g}.jsonl")), false)
                    .expect("record file")
            }),
        };
        let warm = [
            live.sum.run_session(&mut live.sinks[0]),
            live.max.run_session(&mut live.sinks[1]),
        ];
        let ok = warm.iter().all(|w| w.result.moves_applied == 0)
            && is_connected(live.sum.graph())
            && is_connected(live.max.graph());
        tally.check(ok, "set-up: both services start at a connected equilibrium");
        live
    }
}

impl Settler for Live {
    fn graph(&self, game: usize) -> &Graph {
        if game == 0 {
            self.sum.graph()
        } else {
            self.max.graph()
        }
    }

    fn op(&mut self, _op: usize, game: usize, swaps: &[SwapMove]) -> Done {
        let sink = &mut self.sinks[game];
        let (perturbed, rep) = if game == 0 {
            (self.sum.perturb(swaps), self.sum.run_session(sink))
        } else {
            (self.max.perturb(swaps), self.max.run_session(sink))
        };
        Done {
            game,
            perturbed,
            out: OpOutput {
                graph: rep.result.graph,
                outcome: rep.result.outcome,
                rounds: rep.result.rounds,
                applied: rep.result.moves_applied,
            },
            last_cost: sink.last.and_then(|r| r.social_cost),
        }
    }
}

/// The hand-stepped services of the traced run.
struct Traced<'t> {
    tr: &'t mut Tracer,
    sum: HandService<SumObjective>,
    max: HandService<MaxObjective>,
    sinks: [BenchSink; 2],
}

impl<'t> Traced<'t> {
    fn setup(cfg: &Config, tr: &'t mut Tracer, tally: &mut Tally) -> Traced<'t> {
        let root = tr.open("setup");
        let [t_sum, t_max] = trees(cfg);
        let eq_sum = centred(&hand::sequential_run(tr, &SumObjective, &t_sum, usize::MAX).graph);
        let eq_max = centred(&hand::sequential_run(tr, &MaxObjective, &t_max, usize::MAX).graph);
        let config = RoundConfig::default();
        let sum = HandService::new(tr, &eq_sum, SumObjective, config);
        let max = HandService::new(tr, &eq_max, MaxObjective, config);
        let sinks = GAMES.map(|g| {
            BenchSink::create(&cfg.file(&format!("traced-{g}.jsonl")), false).expect("record file")
        });
        let mut t = Traced {
            tr,
            sum,
            max,
            sinks,
        };
        let warm = [
            t.sum.run_session(t.tr, &mut t.sinks[0]),
            t.max.run_session(t.tr, &mut t.sinks[1]),
        ];
        let ok =
            warm.iter().all(|w| w.applied == 0) && is_connected(&t.sum.g) && is_connected(&t.max.g);
        tally.check(
            ok,
            "traced set-up: both services start at a connected equilibrium",
        );
        t.tr.close(root);
        t
    }
}

impl Settler for Traced<'_> {
    fn graph(&self, game: usize) -> &Graph {
        if game == 0 {
            &self.sum.g
        } else {
            &self.max.g
        }
    }

    fn op(&mut self, op: usize, game: usize, swaps: &[SwapMove]) -> Done {
        self.tr.set_op(op as u64 + 1);
        let span = self.tr.open("op");
        let sink = &mut self.sinks[game];
        let (perturbed, s, g) = if game == 0 {
            let p = self.sum.perturb(self.tr, swaps);
            (p, self.sum.run_session(self.tr, sink), self.sum.g.clone())
        } else {
            let p = self.max.perturb(self.tr, swaps);
            (p, self.max.run_session(self.tr, sink), self.max.g.clone())
        };
        self.tr.close(span);
        Done {
            game,
            perturbed,
            out: OpOutput {
                graph: g,
                outcome: s.outcome,
                rounds: s.rounds,
                applied: s.applied,
            },
            last_cost: sink.last.and_then(|r| r.social_cost),
        }
    }
}

/// Runs whole cycles of operations until `until` says stop; returns the
/// outputs and per-operation latencies.
fn run_ops(
    cfg: &Config,
    engine: &mut dyn Settler,
    mut until: impl FnMut(usize) -> bool,
) -> (Vec<Done>, Vec<Duration>) {
    let mut done = Vec::new();
    let mut lat = Vec::new();
    loop {
        for &game in &CYCLE {
            let op = done.len();
            let swaps = perturbation(cfg, engine.graph(game), op);
            let t = Instant::now();
            let d = engine.op(op, game, &swaps);
            lat.push(t.elapsed());
            done.push(d);
        }
        if until(done.len()) {
            return (done, lat);
        }
    }
}

/// Output checks (outside every timed region) and the digest of the
/// first `digest_ops` operations.
fn check(cfg: &Config, done: &[Done], tally: &mut Tally) -> Digest {
    let n = n(cfg);
    for (i, d) in done.iter().enumerate() {
        tally.op(
            &format!("settle op {i} ({})", GAMES[d.game]),
            &[
                (d.perturbed == PERTURB, "perturb applied every swap"),
                (d.out.graph.m() == n - 1, "swaps preserve the edge count"),
                (
                    d.last_cost == bfs_social_cost(&d.out.graph),
                    "last record's social cost equals the BFS sum",
                ),
            ],
        );
    }
    // A fixed sample of converged endpoints — the first and last of each
    // service — must pass the paper's equilibrium test on a fresh context.
    for (game, label) in GAMES.iter().enumerate() {
        let converged: Vec<&Done> = done
            .iter()
            .filter(|d| d.game == game && d.out.outcome == Outcome::Converged)
            .collect();
        for d in [converged.first(), converged.last()].into_iter().flatten() {
            let ok = if game == 0 {
                SumGame::is_equilibrium(&d.out.graph)
            } else {
                MaxGame::is_equilibrium(&d.out.graph)
            };
            tally.check(ok, &format!("{label} endpoint is an equilibrium"));
        }
    }
    let mut digest = Digest::default();
    for d in done.iter().take(digest_ops(cfg)) {
        digest.num(d.game as u64);
        d.out.fold(&mut digest);
        digest.num(d.last_cost.unwrap_or(u64::MAX));
    }
    let settled = done
        .iter()
        .filter(|d| d.out.outcome == Outcome::Converged)
        .count();
    println!(
        "settle: {settled}/{} sessions converged; digest covers the first {} ops",
        done.len(),
        digest_ops(cfg).min(done.len())
    );
    digest
}

/// The untraced run.
pub fn run(cfg: &Config) -> Report {
    let mut tally = Tally::default();
    let mut timed = Timed::default();
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take());
        let t = Region::start();
        live = Some(Live::setup(cfg, &mut tally));
        timed.setups.push(t.finish());
    }
    let mut live = live.expect("at least one set-up");
    let region = Region::start();
    let min_ops = digest_ops(cfg);
    let (done, lat) = run_ops(cfg, &mut live, |ops| {
        ops >= min_ops && region.elapsed_s() >= cfg.seconds
    });
    timed.cost = region.finish();
    timed.rounds = done.iter().map(|d| d.out.rounds as u64).sum();
    timed.cycles = (done.len() / CYCLE.len()) as u64;
    for (game, label) in GAMES.iter().enumerate() {
        for rounds in 1..=3 {
            let pop: Vec<Duration> = done
                .iter()
                .zip(&lat)
                .filter(|(d, _)| d.game == game && d.out.rounds.min(3) == rounds)
                .map(|(_, l)| *l)
                .collect();
            if !pop.is_empty() {
                let more = if rounds == 3 { "+" } else { "" };
                crate::print_population(&format!("{label}, {rounds}{more} rounds"), &pop);
            }
        }
    }
    timed.latencies = lat;
    for s in &live.sinks {
        tally.check(s.error().is_none(), "record stream stayed healthy");
    }
    let digest = check(cfg, &done, &mut tally);
    println!("digest {}", digest.hex());
    Report {
        metrics: timed.metrics(TAIL_PCT),
        tally,
    }
}

/// The traced run: the digest prefix through the library, then again
/// hand-stepped with spans.
pub fn run_traced(cfg: &Config) -> Report {
    let mut tally = Tally::default();
    let ops = digest_ops(cfg);
    let (untraced_digest, untraced_ms) = {
        let mut live = Live::setup(cfg, &mut tally);
        let (done, lat) = run_ops(cfg, &mut live, |k| k >= ops);
        let mut scratch = Tally::default();
        let d = check(cfg, &done, &mut scratch);
        (d, lat.iter().map(|d| d.as_secs_f64() * 1e3).sum::<f64>())
    };
    let mut tr = Tracer::default();
    let tel0 = bncg_telemetry::snapshot();
    let region = Region::start();
    let (done, lat, sink_bytes) = {
        let mut traced = Traced::setup(cfg, &mut tr, &mut tally);
        let (done, lat) = run_ops(cfg, &mut traced, |k| k >= ops);
        let [a, b] = traced.sinks;
        (done, lat, a.bytes() + b.bytes())
    };
    let cost = region.finish();
    let telemetry = bncg_telemetry::snapshot().delta_since(&tel0);
    let digest = check(cfg, &done, &mut tally);
    println!("digest {}", digest.hex());
    tally.check(
        digest == untraced_digest,
        "traced run reproduces the untraced digest",
    );
    crate::write_spans(cfg, "settle", &tr);
    let run = TracedRun {
        tracer: &tr,
        telemetry: &telemetry,
        wall_ns: (cost.wall_s * 1e9) as u64,
        sink_bytes,
        traced_ops_ms: lat.iter().map(|d| d.as_secs_f64() * 1e3).sum(),
        untraced_ops_ms: untraced_ms,
        steal_s: cost.steal_s,
    };
    Report {
        metrics: run.metrics(),
        tally,
    }
}
