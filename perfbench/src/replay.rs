//! `replay`: the barrier path alone — journaled replay traffic and crash
//! recovery.
//!
//! Set-up draws an n = 2048 uniform random tree and an
//! n = 2048 `random_connected(n, n/4)` graph, starts a serial
//! `RoundService` on each with a write-ahead journal
//! (`JournalOptions::default()`, an fsync at every barrier) and a
//! `JsonlSink` record stream, and pre-draws palindromic streams: 8 rounds
//! of 16 vertex-disjoint swaps, then their inverses, so every session
//! restores its start. Each n × n matrix is 8 MiB, more than a core's L2.
//! Sessions go through `replay_session` — no proposal sweep — so the time
//! is deletion repair (trees), fused blends (the random graph), the WAL
//! append and fsync, and the records. One operation is one round commit,
//! timed by the sink stamping each record.
//!
//! After the timed region a copy of the tree journal is cut 40 rounds in,
//! mid-session, with a torn final line, and `RoundService::resume` must
//! rebuild exactly the network the live service held at the cut.

use std::path::Path;
use std::time::{Duration, Instant};

use bncg_core::objective::SumObjective;
use bncg_core::swap::SwapMove;
use bncg_dynamics::recovery::{read_journal, RecoveryError};
use bncg_dynamics::rounds::RoundConfig;
use bncg_dynamics::service::{
    AuditPolicy, JournalOptions, ResumeReport, RoundService, ServiceConfig,
};
use bncg_graph::generators::random::{random_connected, random_tree};
use bncg_graph::{graph6, Graph};

use crate::checks::bfs_social_cost;
use crate::hand::HandService;
use crate::host::Region;
use crate::layers::TracedRun;
use crate::report::{Digest, Tally};
use crate::sinks::BenchSink;
use crate::trace::Tracer;
use crate::{Config, Report, Timed, SETUPS};

/// The service each session of a cycle goes to: one tree session per three
/// on the random graph, so the median sits inside the random-graph
/// commits and the tail inside the slower tree commits.
const CYCLE: [usize; 4] = [0, 1, 1, 1];
/// Labels of the two services.
const FAMILIES: [&str; 2] = ["tree", "er"];
/// Distinct palindromes drawn per service: enough that a run's tree
/// sessions never repeat one, since tree commit latency depends on which
/// edges a round cuts (33–117 ms within one run).
const STREAMS: usize = 12;
/// Whole cycles every run completes: enough tree rounds for the cut.
const MIN_CYCLES: usize = 3;
/// Percentile reported as `op_tail_ms`.
pub const TAIL_PCT: f64 = 95.0;

struct Sizes {
    n: usize,
    /// Swaps per round.
    width: usize,
    /// Rounds before the stream turns back.
    half: usize,
    /// `half` of the set-up warm-up stream.
    warm_half: usize,
    /// Journal rounds kept by the crash cut.
    cut: usize,
}

fn sizes(cfg: &Config) -> Sizes {
    if cfg.smoke {
        Sizes {
            n: 48,
            width: 4,
            half: 4,
            warm_half: 1,
            cut: 7,
        }
    } else {
        Sizes {
            n: 2048,
            width: 16,
            half: 8,
            warm_half: 3,
            cut: 40,
        }
    }
}

/// Start graphs and every stream the run replays.
struct Inputs {
    starts: [Graph; 2],
    warm: [Vec<Vec<SwapMove>>; 2],
    streams: [Vec<Vec<Vec<SwapMove>>>; 2],
}

fn inputs(cfg: &Config) -> Inputs {
    let sz = sizes(cfg);
    let starts = [
        random_tree(&mut crate::gen::rng(cfg.seed, "replay-tree", 0), sz.n),
        random_connected(
            &mut crate::gen::rng(cfg.seed, "replay-er", 0),
            sz.n,
            sz.n / 4,
        ),
    ];
    let draw = |k: usize, i: u64, half: usize| {
        let mut rng = crate::gen::rng(cfg.seed, FAMILIES[k], i);
        crate::gen::palindrome(&starts[k], &mut rng, half, sz.width, k == 0)
    };
    let warm = [0, 1].map(|k| draw(k, 0, sz.warm_half));
    let streams = [0, 1].map(|k| (1..=STREAMS as u64).map(|i| draw(k, i, sz.half)).collect());
    Inputs {
        starts,
        warm,
        streams,
    }
}

/// One session's outputs.
struct Done {
    family: usize,
    graph: Graph,
    rounds: usize,
    applied: usize,
    last_cost: Option<u64>,
}

/// Either engine path, driven one session at a time.
trait Replayer {
    /// Replays `stream` on service `k`; returns the outputs and the commit
    /// latencies, when this path stamps them.
    fn session(&mut self, op: usize, k: usize, stream: &[Vec<SwapMove>]) -> (Done, Vec<Duration>);
}

/// Commit latencies from the session start and the stamp of each round
/// record.
fn commit_latencies(start: Instant, stamps: &[Instant]) -> Vec<Duration> {
    let mut prev = start;
    stamps
        .iter()
        .map(|&t| {
            let d = t - prev;
            prev = t;
            d
        })
        .collect()
}

fn journal_path(cfg: &Config, tag: &str, k: usize) -> std::path::PathBuf {
    cfg.file(&format!("{tag}-{}.journal", FAMILIES[k]))
}

/// The library's own services.
struct Live {
    svc: Vec<RoundService<SumObjective>>,
    sinks: Vec<BenchSink>,
}

impl Live {
    fn setup(cfg: &Config, inputs: &Inputs, tally: &mut Tally) -> Live {
        let mut live = Live {
            svc: Vec::new(),
            sinks: Vec::new(),
        };
        for (k, family) in FAMILIES.iter().enumerate() {
            let mut svc = RoundService::new(&inputs.starts[k], ServiceConfig::default());
            let attached =
                svc.attach_journal(&journal_path(cfg, "replay", k), JournalOptions::default());
            tally.check(attached.is_ok(), "journal attaches");
            let path = cfg.file(&format!("replay-{family}.jsonl"));
            let mut sink = BenchSink::create(&path, true).expect("record file");
            svc.replay_session(&inputs.warm[k], &mut sink);
            live.svc.push(svc);
            live.sinks.push(sink);
        }
        live
    }
}

impl Replayer for Live {
    fn session(&mut self, _op: usize, k: usize, stream: &[Vec<SwapMove>]) -> (Done, Vec<Duration>) {
        let sink = &mut self.sinks[k];
        sink.take_stamps();
        let t = Instant::now();
        let rep = self.svc[k].replay_session(stream, sink);
        let lat = commit_latencies(t, &sink.take_stamps());
        let done = Done {
            family: k,
            graph: rep.result.graph,
            rounds: rep.result.rounds,
            applied: rep.result.moves_applied,
            last_cost: sink.last.and_then(|r| r.social_cost),
        };
        (done, lat)
    }
}

/// The hand-stepped services of the traced run.
struct Traced<'t> {
    tr: &'t mut Tracer,
    svc: Vec<HandService<SumObjective>>,
    sinks: Vec<BenchSink>,
}

impl<'t> Traced<'t> {
    fn setup(cfg: &Config, inputs: &Inputs, tr: &'t mut Tracer, tally: &mut Tally) -> Traced<'t> {
        let root = tr.open("setup");
        let mut svc = Vec::new();
        let mut sinks = Vec::new();
        for (k, family) in FAMILIES.iter().enumerate() {
            let mut s =
                HandService::new(tr, &inputs.starts[k], SumObjective, RoundConfig::default());
            let attached = s.attach_journal(
                tr,
                &journal_path(cfg, "traced", k),
                JournalOptions::default(),
            );
            tally.check(attached.is_ok(), "journal attaches");
            let path = cfg.file(&format!("traced-{family}.jsonl"));
            let mut sink = BenchSink::create(&path, false).expect("record file");
            s.replay_session(tr, &inputs.warm[k], &mut sink);
            svc.push(s);
            sinks.push(sink);
        }
        tr.close(root);
        Traced { tr, svc, sinks }
    }
}

impl Replayer for Traced<'_> {
    /// Traced sessions stamp no commits: the benchmark's clock reads would
    /// sit inside the `sink.record` spans.
    fn session(&mut self, op: usize, k: usize, stream: &[Vec<SwapMove>]) -> (Done, Vec<Duration>) {
        let sink = &mut self.sinks[k];
        self.tr.set_op(op as u64 + 1);
        let span = self.tr.open("op");
        let out = self.svc[k].replay_session(self.tr, stream, sink);
        self.tr.close(span);
        let done = Done {
            family: k,
            graph: self.svc[k].g.clone(),
            rounds: out.rounds,
            applied: out.applied,
            last_cost: sink.last.and_then(|r| r.social_cost),
        };
        (done, Vec::new())
    }
}

/// What a run of sessions gave.
struct Sessions {
    done: Vec<Done>,
    /// Commit latencies, oldest first (empty on the traced path).
    commits: Vec<Duration>,
    /// Wall time of the sessions, each timed whole.
    whole: Duration,
}

/// Runs whole cycles of sessions until `until(cycles)` says stop.
fn run_sessions(
    inputs: &Inputs,
    engine: &mut dyn Replayer,
    mut until: impl FnMut(usize) -> bool,
) -> Sessions {
    let mut out = Sessions {
        done: Vec::new(),
        commits: Vec::new(),
        whole: Duration::ZERO,
    };
    let mut per_family = [0usize; 2];
    for cycle in 1.. {
        for &k in &CYCLE {
            let stream = &inputs.streams[k][per_family[k] % STREAMS];
            per_family[k] += 1;
            let t = Instant::now();
            let (d, l) = engine.session(out.done.len(), k, stream);
            out.whole += t.elapsed();
            out.done.push(d);
            out.commits.extend(l);
        }
        if until(cycle) {
            break;
        }
    }
    out
}

/// The tree network after its first `cut` journaled rounds.
fn graph_at_cut(cfg: &Config, inputs: &Inputs) -> Graph {
    let sz = sizes(cfg);
    let mut g = inputs.starts[0].clone();
    let sessions = std::iter::once(&inputs.warm[0]).chain(inputs.streams[0].iter().cycle());
    for round in sessions.flatten().take(sz.cut) {
        for mv in round {
            mv.apply(&mut g);
        }
    }
    g
}

/// Copies the journal at `from` to `to`, keeping its first `rounds` round
/// commits and then half of the next line, as a crash mid-write leaves it.
fn crash_cut(from: &Path, to: &Path, rounds: usize) -> bool {
    let Ok(text) = std::fs::read_to_string(from) else {
        return false;
    };
    let lines: Vec<&str> = text.lines().collect();
    let Some(last) = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("\"t\":\"round\""))
        .nth(rounds - 1)
        .map(|(i, _)| i)
    else {
        return false;
    };
    let Some(next) = lines.get(last + 1) else {
        return false;
    };
    let mut cut = lines[..=last].join("\n");
    cut.push('\n');
    cut.push_str(&next[..next.len() / 2]);
    std::fs::write(to, cut).is_ok()
}

/// What resuming from the crash cut gave.
type Resumed = Result<(RoundService<SumObjective>, ResumeReport), RecoveryError>;

/// Cuts a copy of the tree journal at `journal` and resumes a service from
/// it, with `recovery.*` spans when traced. Returns the outcome and the
/// resume wall time.
fn resume(
    cfg: &Config,
    journal: &Path,
    tr: Option<&mut Tracer>,
    tally: &mut Tally,
) -> (Resumed, Duration) {
    let cut = cfg.file("cut-tree.journal");
    tally.check(
        crash_cut(journal, &cut, sizes(cfg).cut),
        "crash cut of the tree journal",
    );
    let Some(tr) = tr else {
        let t = Instant::now();
        let resumed = RoundService::resume(&cut);
        return (resumed, t.elapsed());
    };
    tr.set_op(0);
    let scan = tr.leaf("recovery.read", || read_journal(&cut));
    tally.check(
        scan.is_ok_and(|s| s.truncated_tail),
        "journal scan finds the torn tail",
    );
    let t = Instant::now();
    let resumed = tr.leaf("recovery.resume", || RoundService::resume(&cut));
    let took = t.elapsed();
    if let Ok((_, rep)) = &resumed {
        tr.counts.rounds_replayed += rep.rounds_replayed as u64;
    }
    (resumed, took)
}

/// Checks a resumed service against the live network at the cut and a
/// full-stripe audit, and folds the result into `digest`.
fn check_resume(
    cfg: &Config,
    inputs: &Inputs,
    resumed: Resumed,
    took: Duration,
    tally: &mut Tally,
    digest: &mut Digest,
) {
    let sz = sizes(cfg);
    let expected = graph_at_cut(cfg, inputs);
    match resumed {
        Err(e) => tally.check(false, &format!("resume failed: {e}")),
        Ok((mut svc, rep)) => {
            tally.check(rep.truncated_tail, "resume truncates the torn tail");
            tally.check(
                rep.rounds_replayed == sz.cut,
                "resume replays every kept round",
            );
            tally.check(
                svc.graph() == &expected,
                "resumed graph equals the live graph at the cut",
            );
            svc.set_audit_policy(AuditPolicy {
                every_rounds: 0,
                stripe_rows: sz.n,
            });
            tally.check(
                svc.run_audit() == 0,
                "full-stripe audit finds no divergent row",
            );
            digest.num(rep.rounds_replayed as u64);
        }
    }
    digest.text(&graph6::encode(&expected));
    println!(
        "replay: resume of {} journaled rounds took {:.3} s",
        sz.cut,
        took.as_secs_f64()
    );
}

/// Output checks and the digest of the first `MIN_CYCLES` cycles.
fn check(inputs: &Inputs, sz: &Sizes, done: &[Done], tally: &mut Tally) -> Digest {
    let costs = [0, 1].map(|k| bfs_social_cost(&inputs.starts[k]));
    for (i, d) in done.iter().enumerate() {
        tally.ops(
            &format!("replay session {i} ({})", FAMILIES[d.family]),
            d.rounds as u64,
            &[
                (d.rounds == 2 * sz.half, "every round committed"),
                (d.applied == 2 * sz.half * sz.width, "every swap applied"),
                (
                    d.graph == inputs.starts[d.family],
                    "palindrome restores its start",
                ),
                (
                    d.last_cost == costs[d.family],
                    "last record's social cost equals the BFS sum",
                ),
            ],
        );
    }
    let mut digest = Digest::default();
    for d in done.iter().take(MIN_CYCLES * CYCLE.len()) {
        digest.num(d.family as u64);
        digest.num(d.rounds as u64);
        digest.num(d.applied as u64);
        digest.text(&graph6::encode(&d.graph));
    }
    digest
}

/// The untraced run.
pub fn run(cfg: &Config) -> Report {
    let sz = sizes(cfg);
    let mut tally = Tally::default();
    let mut timed = Timed::default();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Region::start();
        let inputs = inputs(cfg);
        let live = Live::setup(cfg, &inputs, &mut tally);
        timed.setups.push(t.finish());
        state = Some((inputs, live));
    }
    let (inputs, mut live) = state.expect("at least one set-up");
    let region = Region::start();
    let sessions = run_sessions(&inputs, &mut live, |cycles| {
        cycles >= MIN_CYCLES && region.elapsed_s() >= cfg.seconds
    });
    timed.cost = region.finish();
    let (done, lat) = (sessions.done, sessions.commits);
    let mut commits = lat.iter();
    let mut by_family: [Vec<Duration>; 2] = Default::default();
    for d in &done {
        by_family[d.family].extend(commits.by_ref().take(d.rounds));
    }
    for (label, pop) in FAMILIES.iter().zip(&by_family) {
        crate::print_population(&format!("{label} commits"), pop);
    }
    timed.rounds = done.iter().map(|d| d.rounds as u64).sum();
    timed.cycles = (done.len() / CYCLE.len()) as u64;
    timed.latencies = lat;
    for (svc, sink) in live.svc.iter().zip(&live.sinks) {
        tally.check(svc.journal_error().is_none(), "journal stayed healthy");
        tally.check(sink.error().is_none(), "record stream stayed healthy");
    }
    let mut digest = check(&inputs, &sz, &done, &mut tally);
    let (resumed, took) = resume(cfg, &journal_path(cfg, "replay", 0), None, &mut tally);
    check_resume(cfg, &inputs, resumed, took, &mut tally, &mut digest);
    println!("digest {}", digest.hex());
    Report {
        metrics: timed.metrics(TAIL_PCT),
        tally,
    }
}

/// The traced run: the digest prefix and the resume through the library,
/// then again hand-stepped with spans. Both legs time each session whole,
/// from the call to its return, so the overhead compares like with like.
pub fn run_traced(cfg: &Config) -> Report {
    let sz = sizes(cfg);
    let mut tally = Tally::default();
    let inputs = inputs(cfg);
    let ms = |s: &Sessions, resume: Duration| (s.whole + resume).as_secs_f64() * 1e3;
    let (untraced_digest, untraced_ms) = {
        let mut live = Live::setup(cfg, &inputs, &mut tally);
        let sessions = run_sessions(&inputs, &mut live, |c| c >= MIN_CYCLES);
        let mut scratch = Tally::default();
        let mut d = check(&inputs, &sz, &sessions.done, &mut scratch);
        let path = journal_path(cfg, "replay", 0);
        let (resumed, took) = resume(cfg, &path, None, &mut scratch);
        check_resume(cfg, &inputs, resumed, took, &mut scratch, &mut d);
        (d, ms(&sessions, took))
    };
    let mut tr = Tracer::default();
    let tel0 = bncg_telemetry::snapshot();
    let region = Region::start();
    let (sessions, sink_bytes, resumed, took) = {
        let mut traced = Traced::setup(cfg, &inputs, &mut tr, &mut tally);
        let sessions = run_sessions(&inputs, &mut traced, |c| c >= MIN_CYCLES);
        for s in &traced.svc {
            tally.check(s.journal_error().is_none(), "journal stayed healthy");
        }
        let sink_bytes = traced.sinks.into_iter().map(BenchSink::bytes).sum::<u64>();
        let path = journal_path(cfg, "traced", 0);
        let (resumed, took) = resume(cfg, &path, Some(&mut tr), &mut tally);
        (sessions, sink_bytes, resumed, took)
    };
    let cost = region.finish();
    let telemetry = bncg_telemetry::snapshot().delta_since(&tel0);
    let mut digest = check(&inputs, &sz, &sessions.done, &mut tally);
    check_resume(cfg, &inputs, resumed, took, &mut tally, &mut digest);
    println!("digest {}", digest.hex());
    tally.check(
        digest == untraced_digest,
        "traced run reproduces the untraced digest",
    );
    crate::write_spans(cfg, "replay", &tr);
    let run = TracedRun {
        tracer: &tr,
        telemetry: &telemetry,
        wall_ns: (cost.wall_s * 1e9) as u64,
        sink_bytes,
        traced_ops_ms: ms(&sessions, took),
        untraced_ops_ms: untraced_ms,
        steal_s: cost.steal_s,
    };
    Report {
        metrics: run.metrics(),
        tally,
    }
}
