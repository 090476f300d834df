//! Crash-recovery property sweep: kill a journaled round service at
//! every round boundary and prove resume is byte-identical.
//!
//! The journal is a write-ahead log — every accepted batch is fsync'd
//! *before* it is applied to the maintained matrix — so any prefix of
//! whole records is a legal crash state. This suite runs a journaled
//! session to completion, then for **every** line-prefix of the journal
//! resumes a fresh service from the cut file and runs it to completion,
//! asserting the final graph, the outcome, and the continuation's
//! [`RoundRecord`] stream are identical to the uninterrupted run (modulo
//! the wall-clock phase timings, which are never byte-stable). Torn
//! tails (a crash mid-`write`) must be truncated, interior corruption,
//! CRC-valid records naming impossible moves and CRC-valid lines nested
//! too deep to parse must be refused, and
//! resume must restart from the last checkpoint when one exists. Warm
//! sessions of one service are held to fresh engine runs the same way.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bncg::dynamics::engine::{Outcome, Response};
use bncg::dynamics::recovery::{crc32, read_journal, JournalRecord};
use bncg::dynamics::rounds::{RoundConfig, RoundDynamics};
use bncg::dynamics::service::{JournalOptions, RoundService, ServiceConfig};
use bncg::dynamics::sink::{MemorySink, NullSink, RoundRecord};
use bncg::dynamics::RecoveryError;
use bncg::game::objective::{MaxObjective, Objective, SumObjective};
use bncg::game::rules::GameRules;
use bncg::game::swap::SwapMove;
use bncg::graph::generators::classic;
use bncg::graph::generators::random::{gnp, random_tree};
use bncg::graph::{graph6, Graph, V};
use bncg::telemetry::json;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bncg-recovery-{}-{tag}-{id}.wal",
        std::process::id()
    ))
}

/// Asserts two record streams are identical modulo the phase timings
/// (wall-clock, process-global — never byte-stable) and the `last_*`
/// repair gauges. The gauges describe the maintained matrix's *most
/// recent* repair — a lifetime gauge, not a per-round counter — so a
/// context rebuilt at resume (full build, or from a checkpoint)
/// legitimately reports none where the uninterrupted run still shows its
/// last batch, and a warm session reports the previous session's last
/// repair where a fresh engine reports none. Every per-round counter
/// stays strict.
fn assert_records_match(continued: &[RoundRecord], reference: &[RoundRecord], context: &str) {
    assert_eq!(
        continued.len(),
        reference.len(),
        "continuation record counts diverged ({context})"
    );
    for (c, r) in continued.iter().zip(reference) {
        let mut r = *r;
        r.phases = c.phases;
        r.repair.last_repair_candidates = c.repair.last_repair_candidates;
        r.repair.last_rows_repaired = c.repair.last_rows_repaired;
        r.repair.last_rows_walked = c.repair.last_rows_walked;
        r.repair.last_rows_blended = c.repair.last_rows_blended;
        r.repair.last_batch_swaps = c.repair.last_batch_swaps;
        assert_eq!(*c, r, "record diverged at round {} ({context})", c.round);
    }
}

/// Runs one journaled session to completion, then kills it at **every**
/// journal line prefix and resumes: every cut must reconstruct the live
/// state byte-identically and finish exactly like the uninterrupted run.
/// Returns the number of distinct crash states verified.
fn sweep_kills<O: Objective + GameRules + Default>(
    start: &Graph,
    config: RoundConfig,
    ckpt_every: usize,
    label: &str,
) -> usize {
    let path = temp_path("full");
    let mut service = RoundService::<O>::new(start, config);
    service
        .attach_journal(
            &path,
            JournalOptions {
                checkpoint_every: ckpt_every,
            },
        )
        .expect("journal in temp dir");
    let mut sink = MemorySink::new();
    let full = service.run_session(&mut sink).result;
    assert!(service.journal_error().is_none(), "journal stayed healthy");
    let rounds_total = service.rounds_total();
    drop(service);

    let text = fs::read_to_string(&path).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    let mut verified = 0usize;
    let mut checkpoint_used = false;
    // lines[0] is the seed; the last line is the SessionEnd. Every prefix
    // in between — seed only, seed+start, each round, each checkpoint —
    // is a crash the WAL discipline promises to recover from.
    for cut in 1..lines.len() {
        let partial = temp_path("cut");
        fs::write(&partial, lines[..cut].join("\n") + "\n").expect("write prefix");
        let (mut resumed, report) = RoundService::<O>::resume(&partial).unwrap_or_else(|e| {
            panic!("resume failed at cut {cut} ({label}): {e}");
        });
        checkpoint_used |= report.used_checkpoint;
        // Rounds already safely on disk before the kill; the continuation
        // must replay exactly the missing suffix.
        let k = report.midsession.unwrap_or(0);
        assert_eq!(report.rounds_replayed, k, "cut {cut} ({label})");
        let mut continuation = MemorySink::new();
        let cont = resumed.run_session(&mut continuation).result;
        assert_eq!(cont.graph, full.graph, "final graph, cut {cut} ({label})");
        assert_eq!(cont.outcome, full.outcome, "outcome, cut {cut} ({label})");
        assert_eq!(
            resumed.rounds_total(),
            rounds_total,
            "aggregate rounds, cut {cut} ({label})"
        );
        assert_records_match(
            &continuation.records,
            &sink.records[k..],
            &format!("cut {cut} ({label})"),
        );
        fs::remove_file(&partial).ok();
        verified += 1;
    }
    if ckpt_every > 0 && lines.iter().any(|l| l.contains("\"k\":\"ckpt\"")) {
        assert!(
            checkpoint_used,
            "some cut must resume from the checkpoint ({label})"
        );
    }
    fs::remove_file(&path).ok();
    verified
}

#[test]
fn kill_at_every_round_boundary_resumes_byte_identically() {
    let mut rng = StdRng::seed_from_u64(0x0DEA_D0A1);
    let bounded = RoundConfig {
        max_rounds: 12,
        detect_cycles: false,
        ..RoundConfig::default()
    };
    let mut verified = 0usize;
    for i in 0..3 {
        let er = gnp(&mut rng, 18 + 2 * i, 0.16);
        verified += sweep_kills::<SumObjective>(&er, RoundConfig::default(), 0, "er/sum");
        verified += sweep_kills::<MaxObjective>(&er, bounded, 0, "er/max bounded");
        let t = random_tree(&mut rng, 16 + 2 * i);
        verified += sweep_kills::<SumObjective>(&t, bounded, 3, "tree/sum ckpt");
        verified += sweep_kills::<MaxObjective>(&t, RoundConfig::default(), 2, "tree/max ckpt");
    }
    assert!(
        verified >= 60,
        "crash-state volume floor not met: only {verified} prefixes verified"
    );
}

/// Writes `lines` to a fresh journal file with record `line` (1-based)
/// rewritten by `edit` and its CRC resealed — content damage a CRC
/// cannot see.
fn reseal(lines: &[&str], line: usize, edit: impl FnOnce(&mut JournalRecord)) -> PathBuf {
    let mut rec = JournalRecord::from_line(lines[line - 1]).expect("intact record");
    edit(&mut rec);
    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    out[line - 1] = rec.to_line();
    let path = temp_path("resealed");
    fs::write(&path, out.join("\n") + "\n").expect("write resealed journal");
    path
}

/// The first legal swap of `g`: its first edge `vw`, rewired from `v`
/// onto the lowest non-neighbor `w2`.
fn legal_swap(g: &Graph) -> SwapMove {
    let e = *g.edge_vec().first().expect("non-empty graph");
    let w2 = (0..g.n() as V)
        .find(|&x| x != e.u && x != e.v && !g.has_edge(e.u, x))
        .expect("a non-neighbor exists");
    SwapMove { v: e.u, w: e.v, w2 }
}

#[test]
fn resealed_impossible_moves_are_refused_as_corrupt() {
    // One Round and one Perturb record at a time get a move the replayed
    // graph cannot take — a vertex id out of range, a deleted edge that
    // is not there, a self-loop, or (rounds only) two moves with
    // overlapping footprints. Resume must name the record's line instead
    // of panicking inside `Graph::apply_swap`.
    let mut rng = StdRng::seed_from_u64(0xBAD2);
    let start = random_tree(&mut rng, 20);
    let n = start.n() as V;
    let path = temp_path("badmove");
    let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
    service
        .attach_journal(&path, JournalOptions::default())
        .expect("journal");
    let _ = service.run_session_plain();
    assert_eq!(service.perturb(&[legal_swap(service.graph())]), 1);
    let _ = service.run_session_plain();
    drop(service);

    let text = fs::read_to_string(&path).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    let line_of = |kind: &str| {
        1 + lines
            .iter()
            .position(|l| l.contains(&format!("\"t\":\"{kind}\"")))
            .unwrap_or_else(|| panic!("the journal holds a {kind} record"))
    };
    type Breakage = fn(&mut SwapMove, V);
    let breakages: [(&str, Breakage); 3] = [
        ("vertex out of range", |mv, n| mv.w2 = n),
        ("missing edge", |mv, _| mv.w = mv.v),
        ("self-loop", |mv, _| mv.w2 = mv.v),
    ];
    for kind in ["round", "perturb"] {
        let line = line_of(kind);
        for (what, break_move) in breakages {
            let bad = reseal(&lines, line, |rec| match rec {
                JournalRecord::Round { moves, .. } | JournalRecord::Perturb { moves, .. } => {
                    break_move(&mut moves[0], n)
                }
                other => panic!("line {line} is not a move record: {other:?}"),
            });
            match RoundService::<SumObjective>::resume(&bad) {
                Err(RecoveryError::Corrupt { line: got, .. }) => {
                    assert_eq!(got, line, "{kind} record, {what}")
                }
                Err(other) => panic!("{kind} record, {what}: expected Corrupt, got {other}"),
                Ok(_) => panic!("{kind} record, {what}: an impossible move must be refused"),
            }
            fs::remove_file(&bad).ok();
        }
    }
    let line = line_of("round");
    let bad = reseal(&lines, line, |rec| {
        if let JournalRecord::Round { moves, .. } = rec {
            moves.push(moves[0]);
        }
    });
    match RoundService::<SumObjective>::resume(&bad) {
        Err(RecoveryError::Corrupt { line: got, .. }) => assert_eq!(got, line, "overlap"),
        Err(other) => panic!("overlapping round: expected Corrupt, got {other}"),
        Ok(_) => panic!("a round with overlapping footprints must be refused"),
    }
    fs::remove_file(&bad).ok();
    fs::remove_file(&path).ok();
}

#[test]
fn journals_with_a_pipelined_seed_still_resume() {
    // Builds that could pipeline round barriers wrote `"pipelined":true`
    // into the seed record. The key is read and ignored: resuming such a
    // journal mid-session must continue exactly like the uninterrupted
    // run, record for record.
    let mut rng = StdRng::seed_from_u64(0x01D5);
    let start = gnp(&mut rng, 22, 0.14);
    let path = temp_path("pipelined-seed");
    let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
    service
        .attach_journal(&path, JournalOptions::default())
        .expect("journal");
    let mut sink = MemorySink::new();
    let full = service.run_session(&mut sink).result;
    drop(service);

    let text = fs::read_to_string(&path).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].contains("\"pipelined\":false"),
        "seed: {}",
        lines[0]
    );
    // Cut before the last round commit so resume lands inside the session.
    let cut = lines
        .iter()
        .rposition(|l| l.contains("\"t\":\"round\""))
        .expect("the run journaled a round");
    let legacy = reseal(&lines[..cut], 1, |rec| match rec {
        JournalRecord::Seed { pipelined, .. } => *pipelined = true,
        other => panic!("line 1 is not the seed: {other:?}"),
    });
    let seed = fs::read_to_string(&legacy).expect("reread");
    assert!(seed.starts_with("{\"crc\"") && seed.contains("\"pipelined\":true"));
    let (mut resumed, report) =
        RoundService::<SumObjective>::resume(&legacy).expect("pipelined seed resumes");
    let k = report.midsession.expect("cut inside the session");
    let mut continuation = MemorySink::new();
    let cont = resumed.run_session(&mut continuation).result;
    assert_eq!(cont.graph, full.graph);
    assert_eq!(cont.outcome, full.outcome);
    assert_records_match(&continuation.records, &sink.records[k..], "pipelined seed");
    fs::remove_file(&path).ok();
    fs::remove_file(&legacy).ok();
}

#[test]
fn restartless_sessions_match_fresh_serial_runs_round_for_round() {
    // The amortization claim, verified for correctness: continuing a warm
    // service from a converged state must behave exactly like a fresh
    // engine run from that state (one empty converged round).
    let mut rng = StdRng::seed_from_u64(0xA11C);
    let start = random_tree(&mut rng, 24);
    let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
    let first = service.run_session_plain();
    for session in 0..3 {
        let state = service.graph().clone();
        let mut service_sink = MemorySink::new();
        let continued = service.run_session(&mut service_sink).result;
        let mut fresh_sink = MemorySink::new();
        let fresh = RoundDynamics::<SumObjective>::new(RoundConfig::default())
            .run_with_sink(&state, &mut fresh_sink);
        assert_eq!(continued.graph, fresh.graph, "session {session}");
        assert_eq!(continued.outcome, fresh.outcome, "session {session}");
        assert_eq!(continued.rounds, fresh.rounds, "session {session}");
        assert_records_match(
            &service_sink.records,
            &fresh_sink.records,
            &format!("session {session}"),
        );
    }
    assert!(matches!(
        first.result.outcome,
        Outcome::Converged | Outcome::Cycled
    ));
}

#[test]
fn resume_of_a_completed_journal_behaves_like_the_original_service() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let start = gnp(&mut rng, 20, 0.15);
    let path = temp_path("done");
    let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
    service
        .attach_journal(&path, JournalOptions::default())
        .expect("journal");
    let first = service.run_session_plain();
    let rounds_total = service.rounds_total();
    drop(service);

    let (mut resumed, report) =
        RoundService::<SumObjective>::resume(&path).expect("resume complete journal");
    assert!(report.midsession.is_none(), "the session was closed");
    assert!(!report.truncated_tail);
    assert_eq!(resumed.graph(), &first.result.graph);
    assert_eq!(resumed.rounds_total(), rounds_total);
    // A fresh session from the recovered converged state must terminate
    // immediately, exactly like the original service would have.
    let second = resumed.run_session_plain();
    assert_eq!(second.result.graph, first.result.graph);
    assert_eq!(second.result.moves_applied, 0);
    fs::remove_file(&path).ok();
}

#[test]
fn a_torn_tail_is_truncated_and_resume_succeeds() {
    let mut rng = StdRng::seed_from_u64(0x70B1);
    let start = random_tree(&mut rng, 18);
    let path = temp_path("torn");
    let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
    service
        .attach_journal(&path, JournalOptions::default())
        .expect("journal");
    let full = service.run_session_plain().result;
    drop(service);

    // A crash mid-`write` leaves a partial record on the last line; the
    // scanner must drop exactly that line and resume from the rest.
    let clean = fs::read_to_string(&path).expect("read journal");
    let torn = temp_path("torn-cut");
    let lines: Vec<&str> = clean.lines().collect();
    let keep = lines.len() - 2; // drop SessionEnd and the last round...
    let mut text = lines[..keep].join("\n") + "\n";
    text.push_str("{\"crc\":\"deadbeef\",\"rec\":{\"k\":\"round\",\"ro"); // ...then tear one
    fs::write(&torn, &text).expect("write torn journal");

    let (mut resumed, report) =
        RoundService::<SumObjective>::resume(&torn).expect("resume torn journal");
    assert!(report.truncated_tail, "the torn record must be dropped");
    let on_disk = fs::read_to_string(&torn).expect("reread");
    assert!(
        on_disk.ends_with('\n') && on_disk.lines().count() == keep,
        "the torn line must be physically truncated"
    );
    let cont = resumed.run_session_plain().result;
    assert_eq!(
        cont.graph, full.graph,
        "recovery converges to the same state"
    );
    fs::remove_file(&path).ok();
    fs::remove_file(&torn).ok();
}

#[test]
fn interior_corruption_is_refused_not_papered_over() {
    let mut rng = StdRng::seed_from_u64(0xBAD);
    let start = gnp(&mut rng, 16, 0.2);
    let path = temp_path("corrupt");
    let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
    service
        .attach_journal(&path, JournalOptions::default())
        .expect("journal");
    let _ = service.run_session_plain();
    drop(service);

    let clean = fs::read_to_string(&path).expect("read journal");
    let mut lines: Vec<String> = clean.lines().map(str::to_owned).collect();
    assert!(lines.len() >= 3, "need an interior record to corrupt");
    let mid = lines.len() / 2;
    lines[mid] = lines[mid].replace(['0', '1'], "7"); // flip digits, keep shape
    let bad = temp_path("corrupt-cut");
    fs::write(&bad, lines.join("\n") + "\n").expect("write corrupt journal");
    match RoundService::<SumObjective>::resume(&bad) {
        Err(RecoveryError::Corrupt { line, .. }) => assert_eq!(line, mid + 1),
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("interior corruption must be refused"),
    }

    // A resealed interior line nesting 100 000 arrays deep: the parser
    // must refuse it, not recurse until the stack overflows.
    let body = "[".repeat(100_000) + &"]".repeat(100_000);
    lines[mid] = format!(
        "{{\"crc\":\"{:08x}\",\"rec\":{body}}}",
        crc32(body.as_bytes())
    );
    fs::write(&bad, lines.join("\n") + "\n").expect("write deep journal");
    match read_journal(&bad) {
        Err(RecoveryError::Corrupt { line, .. }) => assert_eq!(line, mid + 1),
        Err(other) => panic!("deep line: expected Corrupt, got {other}"),
        Ok(_) => panic!("a 100 000-deep interior line must be refused"),
    }
    fs::remove_file(&path).ok();
    fs::remove_file(&bad).ok();
}

#[test]
fn perturbations_are_journaled_and_replayed() {
    let mut rng = StdRng::seed_from_u64(0x9E27);
    let start = random_tree(&mut rng, 20);
    let path = temp_path("perturb");
    let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
    service
        .attach_journal(&path, JournalOptions::default())
        .expect("journal");
    let _ = service.run_session_plain();
    // Swap one existing edge onto a currently non-adjacent endpoint, then
    // settle again — both the perturbation and the second session land in
    // the journal.
    assert_eq!(service.perturb(&[legal_swap(service.graph())]), 1);
    let _ = service.run_session_plain();
    let final_graph = service.graph().clone();
    let rounds_total = service.rounds_total();
    let sessions_run = service.sessions_run();
    drop(service);

    let (resumed, report) =
        RoundService::<SumObjective>::resume(&path).expect("resume perturbed journal");
    assert!(report.midsession.is_none());
    assert_eq!(resumed.graph(), &final_graph);
    assert_eq!(resumed.rounds_total(), rounds_total);
    assert_eq!(resumed.sessions_run(), sessions_run);
    fs::remove_file(&path).ok();
}

#[test]
fn resumed_midsession_records_match_a_fresh_engine_suffix() {
    // The continuation must not only match the journaled service's own
    // records — it must match what the *serial reference engine* emits
    // from the recovered state, closing the loop against the engine the
    // byte-identity suite pins the service to.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let start = gnp(&mut rng, 22, 0.14);
    let path = temp_path("xcheck");
    let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
    service
        .attach_journal(&path, JournalOptions::default())
        .expect("journal");
    let full = service.run_session_plain().result;
    drop(service);

    let text = fs::read_to_string(&path).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() < 4 {
        return; // converged without enough rounds to cut mid-session
    }
    let cut = lines.len() / 2;
    let partial = temp_path("xcheck-cut");
    fs::write(&partial, lines[..cut].join("\n") + "\n").expect("write prefix");
    let (mut resumed, _) = RoundService::<SumObjective>::resume(&partial).expect("resume");
    let recovered = resumed.graph().clone();
    let fresh = RoundDynamics::<SumObjective>::new(RoundConfig {
        response: Response::Best,
        ..RoundConfig::default()
    })
    .run(&recovered);
    let cont = resumed.run_session_plain().result;
    assert_eq!(cont.graph, fresh.graph);
    assert_eq!(cont.graph, full.graph);
    assert_eq!(cont.outcome, fresh.outcome);
    fs::remove_file(&path).ok();
    fs::remove_file(&partial).ok();
}

/// Journals one `n`-vertex service run that writes every record kind: a
/// session, a perturbation, a second session, a two-round replay session
/// and a final session, with a checkpoint every two rounds. The final
/// `SessionEnd` line is cut off, as by a crash after the last round.
fn mixed_journal(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let start = gnp(&mut rng, n, 0.2);
    let path = temp_path("mixed");
    let mut service = RoundService::<SumObjective>::new(&start, ServiceConfig::default());
    service
        .attach_journal(
            &path,
            JournalOptions {
                checkpoint_every: 2,
            },
        )
        .expect("journal");
    let _ = service.run_session_plain();
    assert_eq!(service.perturb(&[legal_swap(service.graph())]), 1);
    let _ = service.run_session_plain();
    let mut g = service.graph().clone();
    let stream: Vec<Vec<SwapMove>> = (0..2)
        .map(|_| {
            let mv = legal_swap(&g);
            mv.apply(&mut g);
            vec![mv]
        })
        .collect();
    let _ = service.replay_session(&stream, &mut NullSink);
    // A converged final session keeps every resumed continuation short.
    let last = service.run_session_plain().result;
    assert_eq!(last.outcome, Outcome::Converged);
    assert!(last.rounds > 1, "the final session must journal rounds");
    drop(service);
    let text = fs::read_to_string(&path).expect("read journal");
    fs::remove_file(&path).ok();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let end = lines.pop().expect("non-empty journal");
    assert!(end.contains("\"t\":\"end\""), "last line: {end}");
    for kind in ["seed", "start", "round", "perturb", "end", "ckpt"] {
        let tag = format!("\"t\":\"{kind}\"");
        assert!(lines.iter().any(|l| l.contains(&tag)), "no {kind} record");
    }
    lines
}

/// A mutable handle on one field of a journal record.
enum Field<'a> {
    Count(&'a mut usize),
    Count64(&'a mut u64),
    Flag(&'a mut bool),
    Crc(&'a mut u32),
    Graph6(&'a mut String),
    Outcome(&'a mut Outcome),
    Moves(&'a mut Vec<SwapMove>),
}

/// Every field of `rec` the mutation sweep edits.
fn fields(rec: &mut JournalRecord) -> Vec<Field<'_>> {
    match rec {
        JournalRecord::Seed {
            max_rounds,
            detect_cycles,
            pipelined,
            checkpoint_every,
            graph6,
            ..
        } => vec![
            Field::Count(max_rounds),
            Field::Flag(detect_cycles),
            Field::Flag(pipelined),
            Field::Count(checkpoint_every),
            Field::Graph6(graph6),
        ],
        JournalRecord::SessionStart { replay } => vec![Field::Flag(replay)],
        JournalRecord::Round {
            round,
            moves,
            graph_crc,
        } => vec![
            Field::Count(round),
            Field::Moves(moves),
            Field::Crc(graph_crc),
        ],
        JournalRecord::Perturb { moves, graph_crc } => {
            vec![Field::Moves(moves), Field::Crc(graph_crc)]
        }
        JournalRecord::SessionEnd { outcome } => vec![Field::Outcome(outcome)],
        JournalRecord::Checkpoint {
            rounds_logged,
            graph6,
            matrix_crc,
        } => vec![
            Field::Count64(rounds_logged),
            Field::Graph6(graph6),
            Field::Crc(matrix_crc),
        ],
    }
}

/// The values a count or a move endpoint is set to: both ends of the
/// vertex range, one past each, and the largest value a record holds.
fn extremes(n: usize) -> [usize; 5] {
    [0, 1, n, n + 1, u32::MAX as usize]
}

impl Field<'_> {
    /// Number of distinct mutations [`Field::mutate`] applies.
    fn mutations(&self) -> usize {
        match self {
            Field::Count(_) | Field::Count64(_) | Field::Graph6(_) => 5,
            Field::Flag(_) | Field::Crc(_) => 1,
            Field::Outcome(_) => 3,
            // Each endpoint to each extreme, plus `w` and `w2` swapped.
            Field::Moves(moves) => 16 * moves.len(),
        }
    }

    /// Applies mutation `k < self.mutations()` for an `n`-vertex journal.
    fn mutate(self, k: usize, n: usize) {
        let x = extremes(n)[k % 5];
        match self {
            Field::Count(c) => *c = x,
            Field::Count64(c) => *c = x as u64,
            Field::Flag(b) => *b = !*b,
            Field::Crc(c) => *c = c.wrapping_add(1),
            Field::Graph6(g6) => {
                *g6 = match k {
                    0..=2 => graph6::encode(&classic::path(n - 1 + k)),
                    3 => graph6::encode(&Graph::new(n)),
                    _ => "not graph6!".into(),
                }
            }
            Field::Outcome(o) => *o = [Outcome::Converged, Outcome::Cycled, Outcome::Capped][k],
            Field::Moves(moves) => {
                let mv = &mut moves[k / 16];
                let end = match k % 16 / 5 {
                    0 => &mut mv.v,
                    1 => &mut mv.w,
                    2 => &mut mv.w2,
                    _ => return std::mem::swap(&mut mv.w, &mut mv.w2),
                };
                *end = x as V;
            }
        }
    }
}

/// Resumes `path` under `R` and, when that succeeds, runs one more
/// session; returns whether the resume was accepted.
fn resume_and_run<R: GameRules + Default>(path: &Path) -> bool {
    match RoundService::<R>::resume(path) {
        Ok((mut service, _)) => {
            let _ = service.run_session_plain();
            true
        }
        Err(_) => false,
    }
}

#[test]
fn resealed_mutations_of_every_line_resume_or_fail_without_panicking() {
    // Every single-field mutation of every line, resealed so the CRC
    // passes, and every dropped, duplicated or swapped line: resume must
    // return `Ok` or a `RecoveryError`, and an `Ok` service must run one
    // more session — never a panic. A refused resume must leave the file
    // byte-identical, including inputs that end in a torn line, which an
    // accepted resume would truncate.
    let n = 14;
    let owned = mixed_journal(0x3A7E, n);
    let lines: Vec<&str> = owned.iter().map(String::as_str).collect();
    let (mut resumed, mut refused) = (0usize, 0usize);
    let mut check_as = |path: PathBuf, label: String, resume: fn(&Path) -> bool| {
        let before = fs::read(&path).expect("read journal before resume");
        let ok = std::panic::catch_unwind(|| resume(&path))
            .unwrap_or_else(|_| panic!("resume or the next session panicked: {label}"));
        if ok {
            resumed += 1;
        } else {
            refused += 1;
            let after = fs::read(&path).expect("read journal after resume");
            assert!(
                after == before,
                "a refused resume rewrote the file: {label}"
            );
        }
        fs::remove_file(&path).ok();
    };
    let mut check = |path: PathBuf, label: String| {
        check_as(path, label, resume_and_run::<SumObjective>);
    };
    for line in 1..=lines.len() {
        let mut probe = JournalRecord::from_line(lines[line - 1]).expect("intact record");
        let counts: Vec<usize> = fields(&mut probe).iter().map(Field::mutations).collect();
        for (i, &count) in counts.iter().enumerate() {
            for k in 0..count {
                let path = reseal(&lines, line, |rec| fields(rec).swap_remove(i).mutate(k, n));
                check(path, format!("line {line}, field {i}, mutation {k}"));
            }
        }
    }
    for i in 0..lines.len() {
        let mut dropped = lines.clone();
        dropped.remove(i);
        let mut duplicated = lines.clone();
        duplicated.insert(i, lines[i]);
        let mut damaged = vec![("dropped", dropped), ("duplicated", duplicated)];
        if i + 1 < lines.len() {
            let mut swapped = lines.clone();
            swapped.swap(i, i + 1);
            damaged.push(("swapped with the next", swapped));
        }
        for (what, out) in damaged {
            let path = temp_path("damaged");
            fs::write(&path, out.join("\n") + "\n").expect("write damaged journal");
            check(path, format!("line {} {what}", i + 1));
        }
    }
    // Refused inputs that end in a torn line: a one-line file that is no
    // journal at all, and the intact journal with half a line appended,
    // resumed under the wrong game.
    let path = temp_path("not-a-journal");
    fs::write(&path, "hello world\n").expect("write non-journal");
    check(path, "a one-line non-journal file".into());
    let last = lines[lines.len() - 1];
    let torn = lines.join("\n") + "\n" + &last[..last.len() / 2];
    let path = temp_path("torn-wrong-game");
    fs::write(&path, &torn).expect("write torn journal");
    check_as(
        path,
        "a torn journal resumed under the wrong game".into(),
        resume_and_run::<MaxObjective>,
    );
    let path = temp_path("torn-right-game");
    fs::write(&path, &torn).expect("write torn journal");
    let (_, report) = RoundService::<SumObjective>::resume(&path).expect("the right game resumes");
    assert!(report.truncated_tail, "the torn line must be truncated");
    assert_eq!(
        fs::read_to_string(&path).expect("read resumed journal"),
        lines.join("\n") + "\n",
        "an accepted resume truncates exactly the torn line"
    );
    fs::remove_file(&path).ok();
    assert!(
        resumed > 0 && refused > 0,
        "the sweep must both resume and refuse ({resumed} resumed, {refused} refused)"
    );
    assert!(
        resumed + refused >= 500,
        "only {} journals",
        resumed + refused
    );
}

#[test]
fn random_and_mutated_strings_never_panic_the_parsers() {
    // A deterministic sweep of random strings and byte-mutated valid
    // inputs (journal lines and bodies, round records, graph6) through
    // every parser that reads external input. Bodies are also resealed,
    // so the journal decoder sees them past its CRC check.
    let mut corpus = mixed_journal(0x3A7E, 14);
    let bodies: Vec<String> = corpus
        .iter()
        .filter_map(|l| Some(l.split_once(",\"rec\":")?.1.strip_suffix('}')?.to_owned()))
        .collect();
    corpus.extend(bodies);
    let mut sink = MemorySink::new();
    let mut rng = StdRng::seed_from_u64(0x9A25);
    let g = gnp(&mut rng, 24, 0.15);
    let _ = RoundDynamics::<SumObjective>::new(RoundConfig::default()).run_with_sink(&g, &mut sink);
    corpus.extend(sink.records.iter().map(RoundRecord::to_jsonl));
    corpus.push(graph6::encode(&g));
    // A long-form graph6 header (n = 72) with a cut-short body.
    corpus.push("~?@G".to_string() + &"~".repeat(40));
    const TOKENS: &[u8] = b"{}[]\":,.-+eE0123456789truefalsnul\\ ?~_crecg6t";
    for i in 0..50_000u32 {
        let bytes: Vec<u8> = if i % 4 == 0 {
            (0..rng.gen_range(0..80usize))
                .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
                .collect()
        } else {
            let mut b = corpus[rng.gen_range(0..corpus.len())].clone().into_bytes();
            for _ in 0..rng.gen_range(1..=4usize) {
                let at = rng.gen_range(0..=b.len());
                match rng.gen_range(0..4u32) {
                    0 if at < b.len() => b[at] = rng.gen_range(0..=255u8),
                    1 => b.insert(at, TOKENS[rng.gen_range(0..TOKENS.len())]),
                    2 if at < b.len() => {
                        b.remove(at);
                    }
                    _ => b.truncate(at),
                }
            }
            b
        };
        let s = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&s);
        let _ = RoundRecord::from_jsonl(&s);
        let _ = JournalRecord::from_line(&s);
        let sealed = format!("{{\"crc\":\"{:08x}\",\"rec\":{s}}}", crc32(s.as_bytes()));
        let _ = JournalRecord::from_line(&sealed);
        let _ = graph6::decode(&s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_starts_survive_kills_at_every_boundary(
        n in 12usize..=22,
        seed in any::<u64>(),
        sum in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gnp(&mut rng, n, 0.15);
        let config = RoundConfig { max_rounds: 10, detect_cycles: false, ..RoundConfig::default() };
        if sum {
            sweep_kills::<SumObjective>(&g, config, 4, "proptest/sum");
        } else {
            sweep_kills::<MaxObjective>(&g, config, 0, "proptest/max");
        }
    }
}
