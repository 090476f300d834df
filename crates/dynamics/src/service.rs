//! The round service: the one round loop behind every round-engine entry
//! point.
//!
//! [`RoundService`] plays the frozen-snapshot round model on one
//! maintained [`EvalContext`]: every round sweeps each agent's proposal
//! against the round-start state, resolves conflicts deterministically
//! ([`resolve_round_with`]), applies the accepted batch to the graph, and
//! repairs the base matrix once at the barrier
//! ([`DynamicApsp::apply_batch`]). [`RoundDynamics`] is a one-session
//! service: each run builds a service on its start graph, runs one
//! session, and returns that session's [`RoundResult`], so the one-shot
//! engine and the long-running service share every line of the loop.
//!
//! # Sessions
//!
//! A service stays warm across *sessions*: thousands of rounds stream
//! through one context, one reusable [`StateLog`], and one
//! [`MetricsSink`] without ever re-running the `O(n·m)` base APSP build
//! that a fresh [`RoundDynamics`] run pays. Between sessions the caller
//! [`perturb`](RoundService::perturb)s the network (each perturbation is
//! an incremental repair, not a rebuild) and runs the next session.
//! Sustained throughput — rounds serviced per second of engine time, the
//! headline of `benches/service.rs` — is exposed as
//! [`sustained_rounds_per_sec`](RoundService::sustained_rounds_per_sec).
//!
//! # Crash safety and self-healing
//!
//! Two opt-in robustness layers ride on the determinism of the barrier
//! repair:
//!
//! * **Journal** ([`attach_journal`](RoundService::attach_journal) /
//!   [`resume`](RoundService::resume)): every round barrier commits its
//!   accepted batch to a write-ahead journal (one fsynced line) *before*
//!   the matrix repair, so a crash at any point loses at most the round
//!   in flight. Resume replays the journal — graph from the seed, matrix
//!   rebuilt at the last checkpoint and batch-repaired forward — into a
//!   context byte-identical to the one that was lost, then continues a
//!   mid-session run where it stopped. See [`crate::recovery`].
//! * **Audit** ([`set_audit_policy`](RoundService::set_audit_policy)):
//!   every *k* rounds, before the round's proposal sweep, a rotating
//!   stripe of maintained matrix rows (and their cost aggregates) is
//!   verified against fresh BFS. A divergence — memory fault, codec bug,
//!   anything — is healed by rebuilding only the divergent rows before
//!   any proposal or batch repair reads them.
//!
//! [`DynamicApsp::apply_batch`]: bncg_graph::dynamic::DynamicApsp::apply_batch
//! [`RoundDynamics`]: crate::rounds::RoundDynamics

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use bncg_core::context::EvalContext;
use bncg_core::rules::{GameRules, RulesMismatch};
use bncg_core::swap::SwapMove;
use bncg_graph::adjacency::SwapApplied;
use bncg_graph::dynamic::RepairStats;
use bncg_graph::{graph6, DistOverflow, Graph, V};

use crate::convergence::StateLog;
use crate::engine::Outcome;
use crate::recovery::{self, Journal, JournalRecord, RecoveryError};
use crate::rounds::{propose, resolve_round_with, RoundConfig, RoundResult};
use crate::sink::{emit_record, MetricsSink, NullSink, SessionBook};

/// Configuration of a [`RoundService`]: the per-session round
/// configuration (response rule, per-session round cap, cycle
/// detection) — the same knobs as [`RoundDynamics`](crate::rounds::RoundDynamics).
pub type ServiceConfig = RoundConfig;

/// Report of one [`RoundService::run_session`] call.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The session's outcome in the round engine's vocabulary — for a
    /// single session from a fresh start this is exactly what
    /// [`RoundDynamics::run`](crate::rounds::RoundDynamics::run) returns.
    pub result: RoundResult,
    /// Whether the session ended because a testkit kill point fired
    /// (or had fired before the session began) rather than because the
    /// dynamics terminated (an interrupted session reports
    /// [`Outcome::Capped`]).
    pub interrupted: bool,
    /// Wall-clock spent inside the session.
    pub wall: Duration,
}

/// Configuration of [`RoundService::attach_journal`].
#[derive(Debug, Clone, Copy)]
pub struct JournalOptions {
    /// Full checkpoints (graph6 + matrix CRC) every this many journaled
    /// rounds; `0` disables checkpoints (resume then batch-repairs all
    /// the way from the seed).
    pub checkpoint_every: usize,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions {
            checkpoint_every: 256,
        }
    }
}

/// Configuration of the divergence audit
/// ([`RoundService::set_audit_policy`]).
#[derive(Debug, Clone, Copy)]
pub struct AuditPolicy {
    /// Audit every this many executed rounds; `0` disables auditing.
    pub every_rounds: usize,
    /// Rows verified per audit (a rotating stripe, so successive audits
    /// sweep the whole matrix).
    pub stripe_rows: usize,
}

impl Default for AuditPolicy {
    fn default() -> Self {
        AuditPolicy {
            every_rounds: 0,
            stripe_rows: 16,
        }
    }
}

/// Lifetime audit counters of one service
/// ([`RoundService::audit_stats`]); mirrored into the `audit.*`
/// telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Audits run.
    pub checks: u64,
    /// Divergent rows found across all audits.
    pub row_mismatches: u64,
    /// Audits that found (and healed) at least one divergent row.
    pub heals: u64,
}

/// What [`RoundService::resume`] reconstructed from a journal.
#[derive(Debug, Clone, Copy)]
pub struct ResumeReport {
    /// Intact journal records scanned.
    pub records: usize,
    /// `Round` records replayed into the rebuilt state.
    pub rounds_replayed: usize,
    /// Whether a torn final line was truncated away.
    pub truncated_tail: bool,
    /// `Some(rounds already run)` when the journal ended inside a live
    /// session — the next [`run_session`](RoundService::run_session)
    /// continues that session instead of starting a new one.
    pub midsession: Option<usize>,
    /// Whether the matrix was rebuilt at a checkpoint rather than
    /// batch-repaired from the seed.
    pub used_checkpoint: bool,
}

/// Why [`RoundService::try_with_rules`] refused to build a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The rule set's per-agent state is sized for another graph.
    Rules(RulesMismatch),
    /// A finite distance of the start graph overflows the compact `u16`
    /// domain.
    Overflow(DistOverflow),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Rules(e) => e.fmt(f),
            ServiceError::Overflow(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Rules(e) => Some(e),
            ServiceError::Overflow(e) => Some(e),
        }
    }
}

impl From<RulesMismatch> for ServiceError {
    fn from(e: RulesMismatch) -> Self {
        ServiceError::Rules(e)
    }
}

impl From<DistOverflow> for ServiceError {
    fn from(e: DistOverflow) -> Self {
        ServiceError::Overflow(e)
    }
}

/// A long-running, restartless round-dynamics driver: one frozen-snapshot
/// engine kept warm across sessions. See the [module docs](self).
pub struct RoundService<R: GameRules> {
    config: ServiceConfig,
    g: Graph,
    /// The one maintained context: every proposal sweep, query, cycle
    /// check, and record reads it.
    ctx: EvalContext,
    log: StateLog,
    stats_origin: RepairStats,
    rounds_total: usize,
    sessions_run: usize,
    busy: Duration,
    /// Write-ahead journal, when attached. Errors are sticky inside the
    /// journal: a failing disk degrades journaling (see
    /// [`journal_error`](Self::journal_error)), never the dynamics.
    journal: Option<Journal>,
    /// Checkpoint cadence in journaled rounds (`0` = never).
    checkpoint_every: usize,
    rounds_journaled: u64,
    rounds_since_ckpt: usize,
    /// Set by [`resume`](Self::resume) when the journal ended inside a
    /// live session: the next `run_session` continues that session
    /// (skipping the session-start reset) from this round count.
    resume_midsession: Option<usize>,
    /// A simulated crash (testkit kill point) landed between the journal
    /// commit and the matrix apply: the service is dead — resume from
    /// the journal file.
    killed: bool,
    audit: AuditPolicy,
    audit_stats: AuditStats,
    audit_tick: u64,
    audit_cursor: V,
    /// The game being played: objective evaluation, move generation, and
    /// move legality all route through this rule set.
    rules: R,
}

impl<R: GameRules> RoundService<R> {
    /// Service on a copy of `start` under the rule set's default value,
    /// paying the one full APSP build the whole service lifetime
    /// amortizes.
    pub fn new(start: &Graph, config: ServiceConfig) -> Self
    where
        R: Default,
    {
        Self::with_rules(start, config, R::default())
    }

    /// [`new`](Self::new) with an explicit (possibly stateful) rule set —
    /// the constructor for game variants that carry per-agent data
    /// (budgets, interest sets).
    ///
    /// # Panics
    /// When `rules` does not fit `start`'s vertex count
    /// ([`GameRules::check_vertex_count`]) or a finite distance of
    /// `start` overflows the compact `u16` domain;
    /// [`try_with_rules`](Self::try_with_rules) returns either as an
    /// error instead.
    pub fn with_rules(start: &Graph, config: ServiceConfig, rules: R) -> Self {
        Self::try_with_rules(start, config, rules).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`with_rules`](Self::with_rules) with a typed [`ServiceError`]
    /// instead of the panic — the fallible seam long-running callers
    /// should construct through. The rule set is checked against `start`
    /// before anything is built.
    pub fn try_with_rules(
        start: &Graph,
        config: ServiceConfig,
        rules: R,
    ) -> Result<Self, ServiceError> {
        rules.check_vertex_count(start.n())?;
        let g = start.clone();
        let ctx = EvalContext::new(&g);
        if rules.needs_apsp() {
            ctx.try_base()?; // force the matrix: every barrier repairs, none rebuilds
        }
        Ok(Self::assemble(config, g, ctx, rules))
    }

    /// Rebuilds a service from a crash-safe journal written by
    /// [`attach_journal`](Self::attach_journal): the network is replayed
    /// from the journaled seed, the maintained matrix is rebuilt at the
    /// last checkpoint (verified against its recorded CRC) and
    /// batch-repaired through every later round — **byte-identical** to
    /// the matrix the crashed process held — and the journal is reopened
    /// for appending. Once replay has accepted the journal, a torn final
    /// line (crash mid-write) is truncated away; interior corruption and
    /// records that do not describe valid moves are refused, and a
    /// refused journal is left byte-for-byte as it was. When the journal
    /// ends inside a live session, the next
    /// [`run_session`](Self::run_session) continues that session from the
    /// round it stopped at.
    pub fn resume(path: &Path) -> Result<(Self, ResumeReport), RecoveryError>
    where
        R: Default,
    {
        Self::resume_with_rules(path, R::default())
    }

    /// [`resume`](Self::resume) with an explicit rule set — required for
    /// game variants whose rules carry state the journal does not record.
    /// The journal's seed tag must match `rules.name()`, and a rule set
    /// with per-agent state ([`BoundedBudgetGame`](bncg_core::rules::BoundedBudgetGame),
    /// [`InterestGame`](bncg_core::rules::InterestGame)) must be sized for
    /// the vertex count of the journal's seed graph, not of any other
    /// start graph (decode the `Seed` record of
    /// [`read_journal`](crate::recovery::read_journal) to learn it): a
    /// mis-sized rule set is refused with [`RecoveryError::Mismatch`]
    /// before anything is built.
    pub fn resume_with_rules(path: &Path, rules: R) -> Result<(Self, ResumeReport), RecoveryError> {
        let scan = recovery::read_journal(path)?;
        let st = recovery::replay(&rules, &scan)?;
        let truncated = recovery::truncate_torn_tail(path, &scan)?;
        let journal = Journal::open_append(path)?;
        let report = ResumeReport {
            records: scan.records.len(),
            rounds_replayed: st.rounds_replayed,
            truncated_tail: truncated,
            midsession: st.midsession,
            used_checkpoint: st.used_checkpoint,
        };
        let mut service = Self::assemble(st.config, st.g, st.ctx, rules);
        service.log = st.log;
        service.rounds_total = st.rounds_replayed;
        service.sessions_run = st.sessions_closed;
        service.journal = Some(journal);
        service.checkpoint_every = st.checkpoint_every;
        service.rounds_journaled = st.rounds_replayed as u64;
        service.resume_midsession = st.midsession;
        Ok((service, report))
    }

    /// The one place the struct is filled: a fresh service on `g` with
    /// its context already built, no history, no journal, no audit.
    fn assemble(config: ServiceConfig, g: Graph, ctx: EvalContext, rules: R) -> Self {
        let stats_origin = ctx.dynamic_stats_snapshot();
        RoundService {
            config,
            g,
            ctx,
            log: StateLog::new(),
            stats_origin,
            rounds_total: 0,
            sessions_run: 0,
            busy: Duration::ZERO,
            journal: None,
            checkpoint_every: 0,
            rounds_journaled: 0,
            rounds_since_ckpt: 0,
            resume_midsession: None,
            killed: false,
            audit: AuditPolicy::default(),
            audit_stats: AuditStats::default(),
            audit_tick: 0,
            audit_cursor: 0,
            rules,
        }
    }

    /// Attaches a crash-safe write-ahead journal at `path` (truncating
    /// any existing file) and writes its seed record — the current
    /// configuration and network state, which is what
    /// [`resume`](Self::resume) replays from. Attach before running
    /// sessions; rounds run before attachment are simply not part of the
    /// journaled history (the seed is the state at attach time).
    ///
    /// Only the creation and the seed write report errors here; once
    /// attached, journal I/O errors are sticky and degrade journaling
    /// silently (see [`journal_error`](Self::journal_error)) so a
    /// failing disk never takes the dynamics down.
    pub fn attach_journal(&mut self, path: &Path, opts: JournalOptions) -> io::Result<()> {
        let mut journal = Journal::create(path)?;
        journal.append_synced(&JournalRecord::Seed {
            objective: self.rules.name().to_string(),
            response: self.config.response,
            max_rounds: self.config.max_rounds,
            detect_cycles: self.config.detect_cycles,
            pipelined: false,
            checkpoint_every: opts.checkpoint_every,
            graph6: graph6::encode(&self.g),
        });
        if let Some(e) = journal.error() {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        self.checkpoint_every = opts.checkpoint_every;
        self.rounds_journaled = 0;
        self.rounds_since_ckpt = 0;
        self.journal = Some(journal);
        Ok(())
    }

    /// The attached journal's path, if any.
    pub fn journal_path(&self) -> Option<&Path> {
        self.journal.as_ref().map(Journal::path)
    }

    /// The sticky journal I/O error, if journaling has degraded.
    pub fn journal_error(&self) -> Option<&io::Error> {
        self.journal.as_ref().and_then(Journal::error)
    }

    /// Configures the periodic divergence audit (`every_rounds == 0`
    /// disables it). Audits verify a rotating stripe of maintained
    /// matrix rows against fresh BFS and heal what diverged; see the
    /// [module docs](self).
    pub fn set_audit_policy(&mut self, policy: AuditPolicy) {
        self.audit = policy;
    }

    /// Lifetime audit counters.
    pub fn audit_stats(&self) -> AuditStats {
        self.audit_stats
    }

    /// Whether a testkit kill point fired: the service simulated a crash
    /// after a journal commit and is permanently stopped — recover with
    /// [`resume`](Self::resume) on the journal file.
    pub fn is_killed(&self) -> bool {
        self.killed
    }

    /// Runs one audit immediately (ignoring the cadence): verifies the
    /// next stripe of rows and heals divergences. Returns the number of
    /// divergent rows found.
    pub fn run_audit(&mut self) -> usize {
        let n = self.g.n();
        if n == 0 {
            return 0;
        }
        let stripe = self.audit.stripe_rows.clamp(1, n);
        let rows: Vec<V> = (0..stripe)
            .map(|i| (self.audit_cursor as usize + i) as V % n as V)
            .collect();
        self.audit_cursor = (self.audit_cursor as usize + stripe) as V % n as V;
        bncg_telemetry::counter!("audit.checks").incr();
        self.audit_stats.checks += 1;
        let divergent = self.ctx.audit_rows(&rows);
        if divergent.is_empty() {
            return 0;
        }
        bncg_telemetry::counter!("audit.row_mismatches").add(divergent.len() as u64);
        self.audit_stats.row_mismatches += divergent.len() as u64;
        self.ctx.heal_rows(&divergent);
        bncg_telemetry::counter!("audit.heals").incr();
        self.audit_stats.heals += 1;
        divergent.len()
    }

    /// Overwrites one entry of the maintained matrix — the
    /// fault-injection hook behind the audit tests. Testkit builds only
    /// (the hook it forwards to on [`EvalContext`] is feature-gated the
    /// same way, so a bare `cfg(test)` build of this crate could not
    /// link it).
    #[cfg(feature = "testkit")]
    pub fn corrupt_live_entry(&mut self, u: V, v: V, d: bncg_graph::Dist) {
        self.ctx.corrupt_base_entry(u, v, d);
    }

    fn run_audit_if_due(&mut self) {
        if self.audit.every_rounds == 0 {
            return;
        }
        self.audit_tick += 1;
        if self
            .audit_tick
            .is_multiple_of(self.audit.every_rounds as u64)
        {
            self.run_audit();
        }
    }

    /// Commits one round's accepted batch to the journal (append + fsync
    /// — the write-ahead barrier), then services the testkit kill point
    /// that simulates a crash *between* the journal commit and the
    /// matrix apply. `moves` is `Some` exactly when a journal is
    /// attached (the caller skips building the vector otherwise); an
    /// unjournaled barrier has no commit to crash after.
    fn journal_round_barrier(&mut self, round: usize, moves: Option<Vec<SwapMove>>) {
        let (Some(journal), Some(moves)) = (self.journal.as_mut(), moves) else {
            return;
        };
        self.rounds_journaled += 1;
        journal.append_synced(&JournalRecord::Round {
            round,
            moves,
            graph_crc: recovery::graph_crc(&self.g),
        });
        if crate::fault_point("service.kill.after_journal") {
            self.killed = true;
        }
    }

    fn journal_session_start(&mut self, replay: bool) {
        if let Some(journal) = self.journal.as_mut() {
            journal.append_synced(&JournalRecord::SessionStart { replay });
        }
    }

    fn journal_session_end(&mut self, outcome: Outcome) {
        if let Some(journal) = self.journal.as_mut() {
            journal.append_synced(&JournalRecord::SessionEnd { outcome });
        }
    }

    /// Writes a full checkpoint (graph6 + matrix CRC) every
    /// `checkpoint_every` journaled rounds. Called after the matrix
    /// repair at a round barrier, so the matrix CRC describes the
    /// post-round matrix a resume must reproduce.
    fn maybe_checkpoint(&mut self) {
        if self.checkpoint_every == 0 || self.journal.is_none() {
            return;
        }
        self.rounds_since_ckpt += 1;
        if self.rounds_since_ckpt < self.checkpoint_every {
            return;
        }
        self.rounds_since_ckpt = 0;
        // Games that never touch distances keep the matrix lazy; the
        // checkpoint records a zero CRC and resume skips verification.
        let matrix_crc = if self.rules.needs_apsp() {
            recovery::matrix_crc(self.ctx.base())
        } else {
            0
        };
        let rec = JournalRecord::Checkpoint {
            rounds_logged: self.rounds_journaled,
            graph6: graph6::encode(&self.g),
            matrix_crc,
        };
        if let Some(journal) = self.journal.as_mut() {
            journal.append_synced(&rec);
        }
    }

    /// The current network state.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// Rounds serviced since construction, across all sessions.
    pub fn rounds_total(&self) -> usize {
        self.rounds_total
    }

    /// Sessions completed (interrupted ones included).
    pub fn sessions_run(&self) -> usize {
        self.sessions_run
    }

    /// Dynamic-distance counters of the maintained context accumulated
    /// over the whole service lifetime ([`RepairStats::delta_since`]
    /// construction).
    pub fn repair_totals(&self) -> RepairStats {
        self.ctx
            .dynamic_stats_snapshot()
            .delta_since(&self.stats_origin)
    }

    /// The service's headline number: rounds serviced per second of
    /// engine time, across every session so far (`None` before the first
    /// round). Setup cost — the one APSP build — is *excluded* by
    /// construction, which is the point: a driver streaming thousands of
    /// rounds through one service measures here what per-run engines
    /// re-pay at every start.
    pub fn sustained_rounds_per_sec(&self) -> Option<f64> {
        if self.rounds_total == 0 || self.busy.is_zero() {
            return None;
        }
        Some(self.rounds_total as f64 / self.busy.as_secs_f64())
    }

    /// Applies external swaps between sessions — traffic injection — each
    /// through the incremental single-swap repair (no rebuild). No-op
    /// moves are skipped; returns the number of swaps actually applied.
    /// Clears the cycle log (the state genuinely changed). A killed
    /// service applies nothing.
    pub fn perturb(&mut self, swaps: &[SwapMove]) -> usize {
        if self.killed {
            return 0;
        }
        let mut applied_moves: Vec<SwapMove> = Vec::new();
        for mv in swaps {
            let rec = mv.apply(&mut self.g);
            if matches!(rec, SwapApplied::Noop) {
                continue;
            }
            self.ctx.refresh_after(&self.g, &rec);
            applied_moves.push(*mv);
        }
        let applied = applied_moves.len();
        if applied > 0 {
            self.log.clear();
            if let Some(journal) = self.journal.as_mut() {
                journal.append_synced(&JournalRecord::Perturb {
                    moves: applied_moves,
                    graph_crc: recovery::graph_crc(&self.g),
                });
            }
        }
        applied
    }

    /// Runs one session without records (the [`NullSink`] fast path).
    pub fn run_session_plain(&mut self) -> SessionReport {
        self.run_session(&mut NullSink)
    }

    /// Runs rounds from the current state until the dynamics terminate
    /// (converged / cycled / per-session cap) or a testkit kill point
    /// fires, streaming one [`RoundRecord`](crate::sink::RoundRecord) per
    /// round into `sink`. A killed service runs no rounds.
    ///
    /// A single session from a fresh start *is*
    /// [`RoundDynamics::run_with_sink`](crate::rounds::RoundDynamics::run_with_sink)
    /// — same outcome, same graph, same records. Cycle detection restarts
    /// at each session boundary.
    pub fn run_session(&mut self, sink: &mut dyn MetricsSink) -> SessionReport {
        let t0 = Instant::now();
        let stats_before = self.ctx.dynamic_stats_snapshot();
        if self.killed {
            sink.finish();
            return self.report(Outcome::Capped, 0, 0, 0, None, &stats_before, t0.elapsed());
        }
        // A resumed mid-session run continues where the journal stopped:
        // the cycle log was reconstructed by replay, the session-start
        // record is already on disk, and round numbering picks up.
        let start_round = match self.resume_midsession.take() {
            Some(done) => done,
            None => {
                self.log.clear();
                if self.config.detect_cycles {
                    self.log.record_period(&self.g);
                }
                self.journal_session_start(false);
                0
            }
        };
        let mut book = SessionBook::open(sink, &self.rules, &self.ctx, stats_before);
        let mut moves_proposed = 0usize;
        let mut moves_applied = 0usize;
        let mut rounds = start_round;
        let mut session_end: Option<(Outcome, Option<usize>)> = None;
        for round in start_round..self.config.max_rounds {
            // Audit before the sweep reads the matrix, so a divergence is
            // healed before any proposal or batch repair builds on it.
            self.run_audit_if_due();
            rounds = round + 1;
            let (proposed, applied, ended) = self.play_round(sink, &mut book, rounds);
            moves_proposed += proposed;
            moves_applied += applied;
            if self.killed {
                break;
            }
            if let Some(end) = ended {
                session_end = Some(end);
                break;
            }
        }
        sink.finish();
        let (outcome, cycle_period) = session_end.unwrap_or((Outcome::Capped, None));
        if !self.killed {
            self.journal_session_end(outcome);
        }
        self.report(
            outcome,
            rounds - start_round,
            moves_proposed,
            moves_applied,
            cycle_period,
            &stats_before,
            t0.elapsed(),
        )
    }

    /// One round: the [`step_round`](crate::rounds::step_round) sequence
    /// plus its bookkeeping, inlined so the journal commit lands
    /// *between* the graph mutation and the matrix repair (the
    /// write-ahead barrier).
    fn play_round(
        &mut self,
        sink: &mut dyn MetricsSink,
        book: &mut SessionBook,
        round: usize,
    ) -> (usize, usize, Option<(Outcome, Option<usize>)>) {
        let proposals = propose(&self.rules, &self.ctx, self.config.response);
        let proposed = proposals.iter().flatten().count();
        let accepted = resolve_round_with(&self.rules, &self.ctx, &proposals);
        let batch: Vec<SwapApplied> = accepted.iter().map(|s| s.mv.apply(&mut self.g)).collect();
        let applied = batch.len();
        if !batch.is_empty() {
            let moves = self
                .journal
                .is_some()
                .then(|| accepted.iter().map(|s| s.mv).collect());
            self.journal_round_barrier(round, moves);
            if self.killed {
                return (proposed, applied, None);
            }
            self.ctx.refresh_after_batch(&self.g, &batch);
            self.maybe_checkpoint();
        }
        let ended: Option<(Outcome, Option<usize>)> = if proposed == 0 {
            Some((Outcome::Converged, None))
        } else if self.config.detect_cycles {
            self.log
                .record_period(&self.g)
                .map(|p| (Outcome::Cycled, Some(p)))
        } else {
            None
        };
        emit_record(
            sink,
            &self.rules,
            &self.ctx,
            book,
            round,
            proposed,
            applied,
            ended,
        );
        (proposed, applied, ended)
    }

    /// Streams externally recorded rounds — traffic replay — through the
    /// service's barrier machinery: each round of `stream` is applied as
    /// one batch, booked through the same
    /// [`RoundRecord`](crate::sink::RoundRecord) path as live
    /// rounds, and repaired into the maintained matrix. Every round must
    /// be pairwise footprint-disjoint and valid against the state its
    /// predecessors left behind — exactly what [`resolve_round_with`]
    /// guarantees for live rounds and what recorded round streams carry
    /// by construction.
    ///
    /// Replay differs from [`run_session`](Self::run_session) in what it
    /// *decides*: nothing. The stream is fixed, so there is no proposal
    /// sweep, no convergence test, and no cycle termination — the session
    /// drains the stream (reported as [`Outcome::Capped`]) unless a
    /// testkit kill point fires first. Replayed traffic changes the
    /// network, so the cycle log is cleared like
    /// [`perturb`](Self::perturb) does. This is
    /// the entry the sustained-throughput benchmark and the CI service
    /// gate drive: it isolates the service's barrier cost (repair +
    /// bookkeeping + streaming, no per-session setup) from the
    /// proposal-sweep cost both engines share.
    pub fn replay_session(
        &mut self,
        stream: &[Vec<SwapMove>],
        sink: &mut dyn MetricsSink,
    ) -> SessionReport {
        let t0 = Instant::now();
        let stats_before = self.ctx.dynamic_stats_snapshot();
        if self.killed {
            sink.finish();
            return self.report(Outcome::Capped, 0, 0, 0, None, &stats_before, t0.elapsed());
        }
        self.log.clear();
        self.journal_session_start(true);
        let mut book = SessionBook::open(sink, &self.rules, &self.ctx, stats_before);
        let mut moves_proposed = 0usize;
        let mut moves_applied = 0usize;
        let mut rounds = 0usize;
        for round in stream {
            rounds += 1;
            moves_proposed += round.len();
            let batch: Vec<SwapApplied> = round.iter().map(|mv| mv.apply(&mut self.g)).collect();
            moves_applied += batch.len();
            if batch.is_empty() {
                emit_record(sink, &self.rules, &self.ctx, &mut book, rounds, 0, 0, None);
                continue;
            }
            let applied = batch.len();
            let moves = self.journal.is_some().then(|| round.clone());
            self.journal_round_barrier(rounds, moves);
            if self.killed {
                break;
            }
            self.ctx.refresh_after_batch(&self.g, &batch);
            self.maybe_checkpoint();
            emit_record(
                sink,
                &self.rules,
                &self.ctx,
                &mut book,
                rounds,
                applied,
                applied,
                None,
            );
        }
        sink.finish();
        if !self.killed {
            self.journal_session_end(Outcome::Capped);
        }
        self.report(
            Outcome::Capped,
            rounds,
            moves_proposed,
            moves_applied,
            None,
            &stats_before,
            t0.elapsed(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &mut self,
        outcome: Outcome,
        rounds: usize,
        moves_proposed: usize,
        moves_applied: usize,
        cycle_period: Option<usize>,
        stats_before: &RepairStats,
        wall: Duration,
    ) -> SessionReport {
        self.rounds_total += rounds;
        self.sessions_run += 1;
        self.busy += wall;
        SessionReport {
            result: RoundResult {
                graph: self.g.clone(),
                outcome,
                rounds,
                moves_proposed,
                moves_applied,
                cycle_period,
                repair: self.ctx.dynamic_stats_snapshot().delta_since(stats_before),
            },
            interrupted: self.killed,
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::RoundDynamics;
    use crate::sink::{MemorySink, RoundRecord};
    use bncg_core::objective::{MaxObjective, SumObjective};
    use bncg_graph::generators::classic;

    fn assert_records_match_modulo_phases(a: &[RoundRecord], b: &[RoundRecord]) {
        assert_eq!(a.len(), b.len(), "round counts diverged");
        for (x, y) in a.iter().zip(b) {
            let mut y = *y;
            // Phase *timings* are wall-clock and process-global — never
            // byte-stable.
            y.phases = x.phases;
            assert_eq!(*x, y, "record diverged at round {}", x.round);
        }
    }

    #[test]
    fn service_sessions_continue_without_rebuilds() {
        let start = classic::path(12);
        let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
        let first = service.run_session_plain();
        assert_eq!(first.result.outcome, Outcome::Converged);
        assert!(!first.interrupted);
        // Converged state: every further session is one empty round.
        let again = service.run_session_plain();
        assert_eq!(again.result.outcome, Outcome::Converged);
        assert_eq!(again.result.rounds, 1);
        assert_eq!(again.result.moves_applied, 0);
        // Perturb and run a fresh session: still no rebuilds anywhere.
        let g = service.graph().clone();
        let e = g.edge_vec()[0];
        let v = e.u;
        let w = e.v;
        let w2 = (0..g.n() as u32)
            .find(|&x| x != v && x != w && !g.has_edge(v, x))
            .expect("sparse graph has a non-neighbor");
        assert_eq!(service.perturb(&[SwapMove { v, w, w2 }]), 1);
        let third = service.run_session_plain();
        assert!(!third.interrupted);
        assert_eq!(service.sessions_run(), 3);
        assert!(service.rounds_total() >= 3);
        let totals = service.repair_totals();
        assert!(totals.updates > 0);
        assert!(service.sustained_rounds_per_sec().is_some());
    }

    #[test]
    fn service_session_after_perturb_matches_fresh_serial_run() {
        // The restartless continuation must land exactly where a fresh
        // engine run from the perturbed state lands.
        let start = classic::path(11);
        let mut service = RoundService::<MaxObjective>::new(&start, ServiceConfig::default());
        service.run_session_plain();
        let g = service.graph().clone();
        let e = g.edge_vec()[1];
        let (v, w) = (e.u, e.v);
        let w2 = (0..g.n() as u32)
            .find(|&x| x != v && x != w && !g.has_edge(v, x))
            .expect("non-neighbor exists");
        service.perturb(&[SwapMove { v, w, w2 }]);
        let perturbed = service.graph().clone();
        let mut service_sink = MemorySink::new();
        let continued = service.run_session(&mut service_sink);
        let serial = RoundDynamics::<MaxObjective>::new(RoundConfig::default());
        let mut serial_sink = MemorySink::new();
        let fresh = serial.run_with_sink(&perturbed, &mut serial_sink);
        assert_eq!(continued.result.graph, fresh.graph);
        assert_eq!(continued.result.outcome, fresh.outcome);
        assert_eq!(continued.result.rounds, fresh.rounds);
        assert_records_match_modulo_phases(&service_sink.records, &serial_sink.records);
    }

    #[test]
    fn replay_session_streams_external_rounds() {
        // A palindromic traffic stream (two rounds + their inverses) on a
        // cycle: after replay the network is back at the start and the
        // maintained matrix is byte-identical to a fresh build.
        let start = classic::cycle(16);
        let stream = vec![
            vec![
                SwapMove { v: 0, w: 1, w2: 5 },
                SwapMove { v: 8, w: 9, w2: 12 },
            ],
            vec![SwapMove { v: 2, w: 3, w2: 7 }],
            vec![SwapMove { v: 2, w: 7, w2: 3 }],
            vec![
                SwapMove { v: 0, w: 5, w2: 1 },
                SwapMove { v: 8, w: 12, w2: 9 },
            ],
        ];
        let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
        let mut sink = MemorySink::new();
        let report = service.replay_session(&stream, &mut sink);
        assert_eq!(service.graph(), &start, "palindrome must restore the start");
        assert_eq!(report.result.rounds, 4);
        assert_eq!(report.result.moves_applied, 6);
        assert_eq!(report.result.outcome, Outcome::Capped);
        assert!(!report.interrupted);
        assert_eq!(sink.records.len(), 4);
        assert_eq!(service.rounds_total(), 4);
        assert!(service.sustained_rounds_per_sec().is_some());
        let fresh = EvalContext::new(&start);
        assert_eq!(service.ctx.base(), fresh.base());
        // A live session after replay must still match a fresh engine
        // run byte for byte.
        let continued = service.run_session_plain();
        let expected = RoundDynamics::<SumObjective>::new(RoundConfig::default()).run(&start);
        assert_eq!(continued.result.graph, expected.graph);
        assert_eq!(continued.result.outcome, expected.outcome);
        assert_eq!(continued.result.rounds, expected.rounds);
    }

    #[test]
    fn sink_failure_mid_service_run_is_sticky_and_survivable() {
        use crate::sink::tests::FailingWriter;
        use crate::sink::JsonlSink;
        use std::io;

        let start = classic::path(9);
        // Size a two-record budget from a dry run — the mid-run full disk.
        // Records carry wall-clock phase timings, so line lengths vary
        // between runs by a few digits: half the third line of slack keeps
        // exactly two lines fitting.
        let probe = {
            let mut sink = MemorySink::new();
            RoundDynamics::<SumObjective>::new(RoundConfig::default())
                .run_with_sink(&start, &mut sink);
            assert!(sink.records.len() > 2, "need a run longer than the budget");
            let line = |r: &RoundRecord| r.to_jsonl().len() + 1;
            line(&sink.records[0]) + line(&sink.records[1]) + line(&sink.records[2]) / 2
        };
        let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
        let mut sink = JsonlSink::new(FailingWriter {
            budget: probe,
            written: Vec::new(),
        });
        let report = service.run_session(&mut sink);
        // The dynamics are unaffected — only the stream is lost.
        assert_eq!(report.result.outcome, Outcome::Converged);
        let err = sink.error().expect("mid-run write failure must stick");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let written = String::from_utf8(sink.into_inner().written).expect("utf8");
        assert_eq!(written.lines().count(), 2, "intact prefix only");
        for line in written.lines() {
            RoundRecord::from_jsonl(line).expect("prefix lines parse");
        }
    }
}
