//! The traced run's engines: the serial round service, the round engine
//! and the sequential engine, hand-stepped through the library's public
//! calls with a span around each call. Every loop mirrors its library
//! counterpart step for step (`RoundService`'s serial session and replay
//! paths, `RoundDynamics::run`, `SwapDynamics::run` under round-robin), so
//! a traced run must reproduce the untraced run's outputs exactly; the
//! output digest holds it to that.

use std::io;
use std::path::Path;

use bncg_core::context::EvalContext;
use bncg_core::rules::GameRules;
use bncg_core::swap::{ScoredSwap, SwapMove};
use bncg_dynamics::convergence::StateLog;
use bncg_dynamics::engine::{DynamicsConfig, Outcome, Response, Schedule};
use bncg_dynamics::recovery::{self, Journal, JournalRecord};
use bncg_dynamics::rounds::{resolve_round_with, RoundConfig};
use bncg_dynamics::service::JournalOptions;
use bncg_dynamics::sink::{MetricsSink, RoundRecord};
use bncg_graph::adjacency::SwapApplied;
use bncg_graph::dynamic::{repair_phase_totals, RepairPhases, RepairStats};
use bncg_graph::{graph6, Graph, RepairStrategy, V};

use crate::checks::OpOutput;
use crate::trace::Tracer;

/// A fresh evaluation context on `g`, with the matrix built inside a
/// `distance.build` span when the game needs it.
fn context(tr: &mut Tracer, g: &Graph, needs_apsp: bool) -> EvalContext {
    let mut ctx = EvalContext::new(g);
    ctx.set_repair_strategy(RepairStrategy::default());
    if needs_apsp {
        tr.leaf("distance.build", || {
            ctx.base();
        });
    }
    ctx
}

/// One frozen-snapshot proposal sweep plus conflict resolution.
fn propose_and_resolve<R: GameRules>(
    tr: &mut Tracer,
    rules: &R,
    ctx: &EvalContext,
    response: Response,
) -> (usize, Vec<ScoredSwap>) {
    let proposals = tr.leaf("rules.propose", || match response {
        Response::Best => rules.best_responses_par(ctx),
        Response::FirstImproving => rules.first_improving_responses_par(ctx),
    });
    let proposed = proposals.iter().flatten().count();
    let accepted = tr.leaf("rounds.resolve", || {
        resolve_round_with(rules, ctx, &proposals)
    });
    tr.counts.agents += ctx.n() as u64;
    tr.counts.proposals += proposed as u64;
    tr.counts.accepted += accepted.len() as u64;
    tr.counts.conflicted += (proposed - accepted.len()) as u64;
    (proposed, accepted)
}

fn apply_all(tr: &mut Tracer, g: &mut Graph, moves: &[SwapMove]) -> Vec<SwapApplied> {
    tr.counts.swaps += moves.len() as u64;
    moves
        .iter()
        .map(|mv| tr.leaf("graph.apply", || mv.apply(g)))
        .collect()
}

/// The per-session record bookkeeping of the service.
struct Book {
    prev_cost: Option<u64>,
    stats: RepairStats,
    phases: RepairPhases,
}

/// Journal state of a hand-stepped service.
struct HandJournal {
    journal: Journal,
    checkpoint_every: usize,
    rounds_journaled: u64,
    since_checkpoint: usize,
}

/// Builds and commits one journal record (append + fsync) inside a
/// `recovery.append` span; a no-op without a journal.
fn append(tr: &mut Tracer, journal: &mut Option<HandJournal>, rec: impl FnOnce() -> JournalRecord) {
    if let Some(j) = journal.as_mut() {
        tr.leaf("recovery.append", || j.journal.append_synced(&rec()));
    }
}

/// Report of one hand-stepped session.
#[derive(Debug, Clone, Copy)]
pub struct SessionOut {
    /// How the session ended.
    pub outcome: Outcome,
    /// Rounds run.
    pub rounds: usize,
    /// Moves applied.
    pub applied: usize,
}

/// The serial `RoundService`, hand-stepped.
pub struct HandService<R: GameRules> {
    /// The network.
    pub g: Graph,
    ctx: EvalContext,
    rules: R,
    config: RoundConfig,
    log: StateLog,
    journal: Option<HandJournal>,
}

impl<R: GameRules> HandService<R> {
    /// `RoundService::with_rules` on a copy of `start`.
    pub fn new(tr: &mut Tracer, start: &Graph, rules: R, config: RoundConfig) -> Self {
        let g = start.clone();
        let ctx = context(tr, &g, rules.needs_apsp());
        HandService {
            g,
            ctx,
            rules,
            config,
            log: StateLog::new(),
            journal: None,
        }
    }

    /// `RoundService::attach_journal`.
    pub fn attach_journal(
        &mut self,
        tr: &mut Tracer,
        path: &Path,
        opts: JournalOptions,
    ) -> io::Result<()> {
        let journal = Journal::create(path)?;
        self.journal = Some(HandJournal {
            journal,
            checkpoint_every: opts.checkpoint_every,
            rounds_journaled: 0,
            since_checkpoint: 0,
        });
        append(tr, &mut self.journal, || JournalRecord::Seed {
            objective: self.rules.name().to_string(),
            response: self.config.response,
            max_rounds: self.config.max_rounds,
            detect_cycles: self.config.detect_cycles,
            pipelined: false,
            checkpoint_every: opts.checkpoint_every,
            graph6: graph6::encode(&self.g),
        });
        match self.journal.as_ref().and_then(|j| j.journal.error()) {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }

    /// The sticky journal error, if journaling degraded.
    pub fn journal_error(&self) -> Option<&io::Error> {
        self.journal.as_ref().and_then(|j| j.journal.error())
    }

    /// `RoundService::perturb`.
    pub fn perturb(&mut self, tr: &mut Tracer, swaps: &[SwapMove]) -> usize {
        let span = tr.open("service.perturb");
        let mut applied = Vec::new();
        for mv in swaps {
            let rec = apply_all(tr, &mut self.g, std::slice::from_ref(mv))[0];
            if matches!(rec, SwapApplied::Noop) {
                continue;
            }
            tr.leaf("dynamic.single", || self.ctx.refresh_after(&self.g, &rec));
            applied.push(*mv);
        }
        let n = applied.len();
        if n > 0 {
            self.log.clear();
            append(tr, &mut self.journal, || JournalRecord::Perturb {
                moves: applied,
                graph_crc: recovery::graph_crc(&self.g),
            });
        }
        tr.close(span);
        n
    }

    fn book(&self, tr: &mut Tracer, sink: &mut dyn MetricsSink) -> Book {
        let (rules, ctx) = (&self.rules, &self.ctx);
        let prev_cost = if sink.active() {
            tr.leaf("sink.record", || rules.social_cost(ctx))
        } else {
            None
        };
        Book {
            prev_cost,
            stats: ctx.dynamic_stats_snapshot(),
            phases: repair_phase_totals(),
        }
    }

    /// The service's `emit_record`.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        tr: &mut Tracer,
        sink: &mut dyn MetricsSink,
        book: &mut Book,
        round: usize,
        proposed: usize,
        applied: usize,
        ended: Option<(Outcome, Option<usize>)>,
    ) {
        if !sink.active() {
            return;
        }
        tr.counts.records += 1;
        let (rules, ctx) = (&self.rules, &self.ctx);
        tr.leaf("sink.record", || {
            let stats = ctx.dynamic_stats_snapshot();
            let phases = repair_phase_totals();
            let cost = rules.social_cost(ctx);
            sink.record_round(&RoundRecord {
                round,
                proposed,
                applied,
                conflicted: proposed - applied,
                social_cost: cost,
                cost_delta: match (book.prev_cost, cost) {
                    (Some(a), Some(b)) => Some(b as i64 - a as i64),
                    _ => None,
                },
                cycle_period: ended.and_then(|(_, p)| p),
                converged: matches!(ended, Some((Outcome::Converged, _))),
                repair: stats.delta_since(&book.stats),
                phases: phases.delta_since(&book.phases),
            });
            book.stats = stats;
            book.phases = phases;
            book.prev_cost = cost;
        });
    }

    /// The write-ahead round commit, the batch repair and the periodic
    /// checkpoint of one round that applied moves.
    fn barrier(
        &mut self,
        tr: &mut Tracer,
        round: usize,
        moves: &[SwapMove],
        batch: &[SwapApplied],
    ) {
        if let Some(j) = self.journal.as_mut() {
            j.rounds_journaled += 1;
        }
        append(tr, &mut self.journal, || JournalRecord::Round {
            round,
            moves: moves.to_vec(),
            graph_crc: recovery::graph_crc(&self.g),
        });
        tr.leaf("dynamic.barrier", || {
            self.ctx.refresh_after_batch(&self.g, batch)
        });
        let due = match self.journal.as_mut() {
            Some(j) if j.checkpoint_every > 0 => {
                j.since_checkpoint += 1;
                let due = j.since_checkpoint >= j.checkpoint_every;
                if due {
                    j.since_checkpoint = 0;
                }
                due.then_some(j.rounds_journaled)
            }
            _ => None,
        };
        if let Some(rounds_logged) = due {
            append(tr, &mut self.journal, || JournalRecord::Checkpoint {
                rounds_logged,
                graph6: graph6::encode(&self.g),
                matrix_crc: if self.rules.needs_apsp() {
                    recovery::matrix_crc(self.ctx.base())
                } else {
                    0
                },
            });
        }
    }

    fn end_session(&mut self, tr: &mut Tracer, sink: &mut dyn MetricsSink, outcome: Outcome) {
        tr.leaf("sink.record", || sink.finish());
        append(tr, &mut self.journal, || JournalRecord::SessionEnd {
            outcome,
        });
    }

    /// `RoundService::run_session` on the serial path.
    pub fn run_session(&mut self, tr: &mut Tracer, sink: &mut dyn MetricsSink) -> SessionOut {
        let span = tr.open("service.session");
        tr.counts.sessions += 1;
        self.log.clear();
        if self.config.detect_cycles {
            self.log.record_period(&self.g);
        }
        append(tr, &mut self.journal, || JournalRecord::SessionStart {
            replay: false,
        });
        let mut book = self.book(tr, sink);
        let mut applied_total = 0;
        let mut rounds = 0;
        let mut end: Option<(Outcome, Option<usize>)> = None;
        for round in 0..self.config.max_rounds {
            rounds = round + 1;
            let (proposed, accepted) =
                propose_and_resolve(tr, &self.rules, &self.ctx, self.config.response);
            let moves: Vec<SwapMove> = accepted.iter().map(|s| s.mv).collect();
            let batch = apply_all(tr, &mut self.g, &moves);
            if !batch.is_empty() {
                self.barrier(tr, rounds, &moves, &batch);
            }
            applied_total += batch.len();
            let ended = if proposed == 0 {
                Some((Outcome::Converged, None))
            } else if self.config.detect_cycles {
                self.log
                    .record_period(&self.g)
                    .map(|p| (Outcome::Cycled, Some(p)))
            } else {
                None
            };
            self.emit(tr, sink, &mut book, rounds, proposed, batch.len(), ended);
            if ended.is_some() {
                end = ended;
                break;
            }
        }
        let outcome = end.map_or(Outcome::Capped, |e| e.0);
        self.end_session(tr, sink, outcome);
        tr.close(span);
        SessionOut {
            outcome,
            rounds,
            applied: applied_total,
        }
    }

    /// `RoundService::replay_session`.
    pub fn replay_session(
        &mut self,
        tr: &mut Tracer,
        stream: &[Vec<SwapMove>],
        sink: &mut dyn MetricsSink,
    ) -> SessionOut {
        let span = tr.open("service.session");
        tr.counts.sessions += 1;
        self.log.clear();
        append(tr, &mut self.journal, || JournalRecord::SessionStart {
            replay: true,
        });
        let mut book = self.book(tr, sink);
        let mut applied_total = 0;
        for (i, moves) in stream.iter().enumerate() {
            let round = i + 1;
            let batch = apply_all(tr, &mut self.g, moves);
            applied_total += batch.len();
            if batch.is_empty() {
                self.emit(tr, sink, &mut book, round, 0, 0, None);
                continue;
            }
            self.barrier(tr, round, moves, &batch);
            self.emit(tr, sink, &mut book, round, batch.len(), batch.len(), None);
        }
        self.end_session(tr, sink, Outcome::Capped);
        tr.close(span);
        SessionOut {
            outcome: Outcome::Capped,
            rounds: stream.len(),
            applied: applied_total,
        }
    }
}

/// `RoundDynamics::run` (no records). `at_barrier` sees the network after
/// every round that applied moves.
pub fn round_run<R: GameRules>(
    tr: &mut Tracer,
    rules: &R,
    start: &Graph,
    config: RoundConfig,
    at_barrier: &mut dyn FnMut(&Graph),
) -> OpOutput {
    let mut g = start.clone();
    let mut ctx = context(tr, &g, rules.needs_apsp());
    let mut log = StateLog::new();
    if config.detect_cycles {
        log.record_period(&g);
    }
    let mut applied = 0;
    for round in 0..config.max_rounds {
        let (proposed, accepted) = propose_and_resolve(tr, rules, &ctx, config.response);
        let moves: Vec<SwapMove> = accepted.iter().map(|s| s.mv).collect();
        let batch = apply_all(tr, &mut g, &moves);
        if !batch.is_empty() {
            tr.leaf("dynamic.barrier", || ctx.refresh_after_batch(&g, &batch));
            at_barrier(&g);
        }
        applied += batch.len();
        let ended = if proposed == 0 {
            Some(Outcome::Converged)
        } else if config.detect_cycles {
            log.record_period(&g).map(|_| Outcome::Cycled)
        } else {
            None
        };
        if let Some(outcome) = ended {
            return OpOutput {
                graph: g,
                outcome,
                rounds: round + 1,
                applied,
            };
        }
    }
    OpOutput {
        graph: g,
        outcome: Outcome::Capped,
        rounds: config.max_rounds,
        applied,
    }
}

/// `SwapDynamics::run` under round-robin best response (no records).
pub fn sequential_run<R: GameRules>(
    tr: &mut Tracer,
    rules: &R,
    start: &Graph,
    max_rounds: usize,
) -> OpOutput {
    let span = tr.open("engine.run");
    let mut g = start.clone();
    let mut ctx = context(tr, &g, rules.needs_apsp());
    let mut log = StateLog::new();
    log.record(&g);
    let mut moves = 0;
    let mut out = None;
    for round in 0..max_rounds {
        let mut round_moves = 0;
        let mut cycled = false;
        for v in 0..g.n() as V {
            tr.counts.activations += 1;
            tr.counts.agents += 1;
            let swap = tr.leaf("rules.propose", || rules.best_response(&ctx, v));
            let Some(s) = swap else { continue };
            tr.counts.proposals += 1;
            let rec = apply_all(tr, &mut g, &[s.mv])[0];
            tr.leaf("dynamic.single", || ctx.refresh_after(&g, &rec));
            moves += 1;
            round_moves += 1;
            if log.record_period(&g).is_some() {
                cycled = true;
                break;
            }
        }
        if cycled || round_moves == 0 {
            let outcome = if cycled {
                Outcome::Cycled
            } else {
                Outcome::Converged
            };
            out = Some((outcome, round + 1));
            break;
        }
    }
    tr.counts.moves += moves as u64;
    tr.close(span);
    let (outcome, rounds) = out.unwrap_or((Outcome::Capped, max_rounds));
    OpOutput {
        graph: g,
        outcome,
        rounds,
        applied: moves,
    }
}

/// The sequential engine configuration every workload uses.
pub fn sequential_config(max_rounds: usize) -> DynamicsConfig {
    DynamicsConfig {
        schedule: Schedule::RoundRobin,
        response: Response::Best,
        max_rounds,
        detect_cycles: true,
    }
}
