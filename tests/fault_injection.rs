//! Deterministic fault-injection suite (requires `--features testkit`).
//!
//! Each test drives the round service through an injected failure —
//! most through a [`FaultPlan`](bncg::testkit::faults::FaultPlan):
//! journal write errors must degrade the stream without stopping the
//! dynamics, a kill between the journal commit and the matrix apply must
//! leave a resumable journal whose continuation is byte-identical to the
//! uninterrupted run, a panic inside a pool job (raised by a test-local
//! rule set) must neither deadlock nor poison the worker pool, and
//! injected row corruption must be detected by the divergence audit
//! within its cadence and healed row-wise — no full-context rebuild.
//!
//! Fault plans are process-global (the pool threads must see them), so
//! `with_plan` sections serialize; this binary is the dedicated home for
//! them per the `bncg_testkit::faults` scope rules, and its tests run one
//! at a time ([`serial`]) because runs outside a section still count
//! hits against whatever plan is installed.

#![cfg(feature = "testkit")]

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bncg::dynamics::rounds::RoundConfig;
use bncg::dynamics::service::{AuditPolicy, JournalOptions, RoundService, ServiceConfig};
use bncg::dynamics::sink::MemorySink;
use bncg::game::context::EvalContext;
use bncg::game::evaluator::EdgeSwapScan;
use bncg::game::objective::{MaxObjective, SumObjective};
use bncg::game::rules::GameRules;
use bncg::game::swap::{ScoredSwap, SwapMove};
use bncg::graph::generators::random::{gnp, random_tree};
use bncg::graph::V;
use bncg::testkit::faults::{self, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes this binary's tests. A plan counts hits from every thread,
/// so a journaled run outside one test's `with_plan` section would
/// consume the hits another test's plan is waiting for. The guarded
/// value is `()`, so a guard poisoned by a failed test is still valid.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bncg-fault-{}-{tag}-{id}.wal", std::process::id()))
}

#[test]
fn journal_write_failure_degrades_the_stream_but_not_the_dynamics() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(0xFA01);
    let start = gnp(&mut rng, 20, 0.15);
    // Reference: the same start without a journal.
    let expected = RoundService::<SumObjective>::new(&start, ServiceConfig::default())
        .run_session_plain()
        .result;

    let path = temp_path("ewrite");
    let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
    service
        .attach_journal(&path, JournalOptions::default())
        .expect("journal");
    let report = faults::with_plan(
        // The seed record is hit 0; fail the first round barrier's write.
        FaultPlan::new().fail_nth("journal.append", 1),
        || service.run_session_plain(),
    );
    // The stream is degraded and says so loudly...
    let err = service
        .journal_error()
        .expect("injected failure must stick");
    assert_eq!(err.to_string(), "injected journal write failure");
    // ...but the dynamics were never interrupted and end identically.
    assert!(!report.interrupted);
    assert!(!service.is_killed());
    assert_eq!(report.result.graph, expected.graph);
    assert_eq!(report.result.outcome, expected.outcome);
    assert_eq!(report.result.rounds, expected.rounds);
    fs::remove_file(&path).ok();
}

#[test]
fn a_kill_between_journal_commit_and_apply_resumes_byte_identically() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(0xFA02);
    let mut kills = 0usize;
    for i in 0..4 {
        let start = if i % 2 == 0 {
            gnp(&mut rng, 18 + i, 0.16)
        } else {
            random_tree(&mut rng, 18 + i)
        };
        let config = ServiceConfig::default();
        // Uninterrupted reference run, journaled (journal contents aside,
        // journaling must not perturb the dynamics).
        let ref_path = temp_path("kill-ref");
        let mut reference = RoundService::<MaxObjective>::new(&start, config);
        reference
            .attach_journal(&ref_path, JournalOptions::default())
            .expect("journal");
        let mut ref_sink = MemorySink::new();
        let full = reference.run_session(&mut ref_sink).result;
        let rounds_total = reference.rounds_total();
        drop(reference);

        // Kill at every achievable barrier: the fault fires *between* the
        // fsync'd journal append and the matrix apply — the worst-case
        // crash point the WAL discipline is designed for.
        for kill_at in 0..ref_sink.records.len() as u64 {
            let path = temp_path("kill");
            let mut victim = RoundService::<MaxObjective>::new(&start, config);
            victim
                .attach_journal(&path, JournalOptions::default())
                .expect("journal");
            let report = faults::with_plan(
                FaultPlan::new().fail_nth("service.kill.after_journal", kill_at),
                || victim.run_session_plain(),
            );
            if !victim.is_killed() {
                // Fewer barriers than records (the converged tail round
                // journals nothing): this plan never fired.
                fs::remove_file(&path).ok();
                continue;
            }
            assert!(report.interrupted, "a killed session reports interrupted");
            // A dead service refuses further work: no rounds, no swaps.
            let after = victim.run_session_plain();
            assert!(after.interrupted, "kill at {kill_at}");
            assert_eq!(after.result.rounds, 0, "kill at {kill_at}");
            let g = victim.graph();
            let e = g.edge_vec()[0];
            let w2 = (0..g.n() as V)
                .find(|&x| x != e.u && x != e.v && !g.has_edge(e.u, x))
                .expect("sparse graph has a non-neighbor");
            let legal = SwapMove { v: e.u, w: e.v, w2 };
            assert_eq!(victim.perturb(&[legal]), 0, "kill at {kill_at}");
            kills += 1;
            drop(victim);

            let (mut resumed, resume_report) =
                RoundService::<MaxObjective>::resume(&path).expect("resume after kill");
            let k = resume_report.midsession.expect("killed mid-session");
            assert_eq!(
                k as u64,
                kill_at + 1,
                "the killed round was already on disk"
            );
            let mut cont_sink = MemorySink::new();
            let cont = resumed.run_session(&mut cont_sink).result;
            assert_eq!(cont.graph, full.graph, "kill at {kill_at}");
            assert_eq!(cont.outcome, full.outcome, "kill at {kill_at}");
            assert_eq!(resumed.rounds_total(), rounds_total, "kill at {kill_at}");
            assert_eq!(
                cont_sink.records.len(),
                ref_sink.records.len() - k,
                "kill at {kill_at}"
            );
            for (c, r) in cont_sink.records.iter().zip(&ref_sink.records[k..]) {
                let mut r = *r;
                r.phases = c.phases;
                r.repair.last_repair_candidates = c.repair.last_repair_candidates;
                r.repair.last_rows_repaired = c.repair.last_rows_repaired;
                r.repair.last_rows_walked = c.repair.last_rows_walked;
                r.repair.last_rows_blended = c.repair.last_rows_blended;
                r.repair.last_batch_swaps = c.repair.last_batch_swaps;
                assert_eq!(*c, r, "record diverged, kill at {kill_at}");
            }
            fs::remove_file(&path).ok();
        }
        fs::remove_file(&ref_path).ok();
    }
    assert!(
        kills >= 4,
        "the sweep must actually kill sessions, not skip them (killed {kills})"
    );
}

/// The sum game, except that agent `agent`'s first best-response query
/// panics. Only `best_response` is overridden, so the default
/// `best_responses_par` sweep fans it over the worker pool and the panic
/// fires inside a pool job.
#[derive(Clone)]
struct PanicOnce {
    agent: V,
    armed: Arc<AtomicBool>,
}

impl GameRules for PanicOnce {
    type EdgeView = EdgeSwapScan;

    fn name(&self) -> &'static str {
        "sum"
    }

    fn agent_cost(&self, ctx: &EvalContext, v: V) -> u64 {
        SumObjective.agent_cost(ctx, v)
    }

    fn best_response(&self, ctx: &EvalContext, v: V) -> Option<ScoredSwap> {
        if v == self.agent && self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected best-response panic");
        }
        SumObjective.best_response(ctx, v)
    }

    fn edge_view(&self, ctx: &EvalContext, v: V, w: V) -> EdgeSwapScan {
        SumObjective.edge_view(ctx, v, w)
    }

    fn swap_cost(&self, ctx: &EvalContext, scan: &EdgeSwapScan, mv: &SwapMove) -> u64 {
        SumObjective.swap_cost(ctx, scan, mv)
    }

    fn recycle_view(&self, scan: EdgeSwapScan) {
        SumObjective.recycle_view(scan);
    }

    fn social_cost(&self, ctx: &EvalContext) -> Option<u64> {
        SumObjective.social_cost(ctx)
    }
}

#[test]
fn a_panicking_pool_job_neither_deadlocks_nor_poisons_the_pool() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(0xFA03);
    let start = random_tree(&mut rng, 22);
    let reference = RoundService::<SumObjective>::new(&start, ServiceConfig::default())
        .run_session_plain()
        .result;
    let armed = Arc::new(AtomicBool::new(true));
    let rules = PanicOnce {
        agent: (start.n() / 2) as V,
        armed: Arc::clone(&armed),
    };
    let mut victim = RoundService::with_rules(&start, ServiceConfig::default(), rules.clone());
    let attempt =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| victim.run_session_plain()));
    assert!(attempt.is_err(), "the injected panic must surface");
    assert!(
        !armed.load(Ordering::SeqCst),
        "the panic fired exactly once"
    );
    drop(victim); // a panicked service is dead; recovery is via resume

    // The pool must come back healthy: a fresh service on the same pool
    // (same rules, now disarmed) finishes and matches the reference.
    let again = RoundService::with_rules(&start, ServiceConfig::default(), rules)
        .run_session_plain()
        .result;
    assert_eq!(again.graph, reference.graph);
    assert_eq!(again.outcome, reference.outcome);
    assert_eq!(again.rounds, reference.rounds);
}

#[test]
fn injected_corruption_is_detected_within_the_audit_cadence_and_healed_row_wise() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(0xFA04);
    let start = gnp(&mut rng, 24, 0.15);
    let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
    let _ = service.run_session_plain();
    let n = service.graph().n();
    service.set_audit_policy(AuditPolicy {
        every_rounds: 1,
        stripe_rows: n, // full-matrix stripe: detection within one check
    });
    let totals_before = service.repair_totals();

    // Flip one maintained distance (a bit-flip / torn write stand-in).
    service.corrupt_live_entry(0, (n - 1) as V, 1);
    let healed = service.run_audit();
    assert!(healed >= 1, "the corrupted row must be rebuilt");
    let stats = service.audit_stats();
    assert_eq!(stats.checks, 1);
    assert!(stats.row_mismatches >= 1);
    assert_eq!(stats.heals, healed as u64);

    // The heal must be row-wise: an audit action, not a repair update.
    assert_eq!(service.repair_totals(), totals_before);

    // The next audit passes clean...
    assert_eq!(service.run_audit(), 0);
    // ...and the healed service keeps working exactly like a fresh one.
    let fresh = RoundService::<SumObjective>::new(service.graph(), ServiceConfig::default())
        .run_session_plain()
        .result;
    let healed_run = service.run_session_plain().result;
    assert_eq!(healed_run.graph, fresh.graph);
    assert_eq!(healed_run.outcome, fresh.outcome);
}

#[test]
fn corruption_mid_run_is_detected_and_healed_in_run() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(0xFA05);
    let start = gnp(&mut rng, 22, 0.16);
    let config = RoundConfig {
        max_rounds: 6,
        detect_cycles: false,
        ..RoundConfig::default()
    };
    let n = start.n();
    let mut service = RoundService::<SumObjective>::new(&start, config);
    service.set_audit_policy(AuditPolicy {
        every_rounds: 1,
        stripe_rows: n,
    });
    service.corrupt_live_entry(1, (n - 2) as V, 1);
    // The in-run audit detects the divergence after the first round and
    // heals it; the session finishes despite starting from a corrupted
    // matrix.
    let report = service.run_session_plain();
    let stats = service.audit_stats();
    assert!(stats.checks >= 1);
    assert!(
        stats.row_mismatches >= 1,
        "in-run audit must catch the flip"
    );
    assert!(stats.heals >= 1);
    assert!(!report.interrupted);
    // The maintained matrix is clean again: a final full-stripe audit
    // heals nothing.
    assert_eq!(service.run_audit(), 0);
}
