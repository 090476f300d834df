//! Crash-safe session journal and checkpoint/resume for the round service.
//!
//! # What is journaled, and why that is enough
//!
//! The round service's state is a deterministic function of (seed graph,
//! accepted batches): the maintained matrix is pinned byte-identical to a
//! fresh rebuild after every batch repair, conflict resolution is
//! deterministic, and the cycle log hashes only the graph. So the journal
//! never serializes the `n²` matrix — it is a **write-ahead log of
//! decisions**: one [`Seed`](JournalRecord::Seed) record (configuration +
//! graph6 of the start state), one [`Round`](JournalRecord::Round) record
//! per round that applied moves (written and fsynced *before* the live
//! matrix repair — the WAL discipline), session open/close markers,
//! [`Perturb`](JournalRecord::Perturb) records for external traffic, and
//! periodic [`Checkpoint`](JournalRecord::Checkpoint) records carrying the
//! full graph6 plus a CRC of the maintained matrix.
//!
//! Resume ([`RoundService::resume`](crate::service::RoundService::resume))
//! replays the journal: the graph is reconstructed move by move from the
//! seed, the eval context is rebuilt at the **last checkpoint** (one APSP
//! build) and batch-repaired through every later round — exactly the
//! repairs the original process ran, so the resumed matrix is
//! byte-identical to the one that was lost. Checkpoints therefore bound
//! resume cost without growing the journal quadratically.
//!
//! # Corruption model
//!
//! Every record line carries a CRC-32 over its body, so the scanner
//! ([`read_journal`]) distinguishes two failure shapes:
//!
//! * a **torn tail** — the final line is incomplete or fails its CRC
//!   (the crash landed mid-`write`). This is expected and recoverable:
//!   the scan reports [`JournalScan::truncated_tail`] and resume drops
//!   the partial line ([`truncate_torn_tail`]), losing at most the round
//!   that was being committed.
//! * **interior corruption** — any earlier line fails. That means the
//!   storage lied about previously fsynced data, and the scan refuses
//!   with [`RecoveryError::Corrupt`] rather than resurrect a state the
//!   process never was in.
//!
//! A CRC catches accidental damage, not bad content: a record can carry
//! a valid CRC and still name a move the graph cannot take. Replay
//! therefore checks every journaled move before applying it — vertex ids
//! in range, the deleted edge present, no self-loop, and the moves of one
//! round pairwise footprint-disjoint (the batch repair's precondition) —
//! and refuses a bad one as [`RecoveryError::Corrupt`]. It also verifies
//! a CRC of the reconstructed graph against every `Round`/`Perturb`
//! record and the checkpoint's matrix CRC against the rebuilt matrix, so
//! codec bugs or cross-version drift surface as
//! [`RecoveryError::Mismatch`], never as silently wrong dynamics.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use bncg_core::context::EvalContext;
use bncg_core::rules::GameRules;
use bncg_core::swap::SwapMove;
use bncg_graph::adjacency::SwapApplied;
use bncg_graph::{graph6, DistanceMatrix, Graph};
use bncg_telemetry::json::{self, Json};

use crate::convergence::StateLog;
use crate::engine::{Outcome, Response};
use crate::rounds::RoundConfig;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected) — hand-rolled because the workspace builds
// offline; the known-answer test below pins the polynomial.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC-32 of a graph's exact labeled state (`n` plus the sorted edge
/// list) — the integrity tag every `Round`/`Perturb` record carries so
/// replay can prove it reconstructed the same network.
pub fn graph_crc(g: &Graph) -> u32 {
    let mut bytes = Vec::with_capacity(8 + 8 * g.m());
    bytes.extend_from_slice(&(g.n() as u64).to_le_bytes());
    for e in g.edge_vec() {
        bytes.extend_from_slice(&e.u.to_le_bytes());
        bytes.extend_from_slice(&e.v.to_le_bytes());
    }
    crc32(&bytes)
}

/// CRC-32 of a distance matrix's compact (`u16`) payload, little-endian —
/// the checkpoint tag that proves a resumed rebuild reproduced the
/// maintained matrix byte for byte.
pub fn matrix_crc(dm: &DistanceMatrix) -> u32 {
    let data = dm.data();
    let mut bytes = Vec::with_capacity(data.len() * 2);
    for &d in data {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    crc32(&bytes)
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// One journal record. The wire format is one JSON line per record,
/// `{"crc":"xxxxxxxx","rec":{…}}`, where the CRC-32 is computed over the
/// raw `rec` body text (the body serializer
/// [`json::write`] is a fixed point of the parser on integer documents,
/// so the bytes checked are the bytes parsed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// The journal header: service configuration plus the graph6 of the
    /// state the journal's replay starts from.
    Seed {
        /// Game tag ([`GameRules::name`]) — resume refuses a journal
        /// written under a different objective.
        objective: String,
        /// Response rule of every session.
        response: Response,
        /// Per-session round cap.
        max_rounds: usize,
        /// Whether cycle detection is on (it shapes the replayed log).
        detect_cycles: bool,
        /// Kept for journal compatibility: always written `false`, read
        /// either way, and ignored on resume (journals from builds that
        /// could pipeline round barriers may carry `true`).
        pipelined: bool,
        /// Checkpoint cadence in journaled rounds (`0` = never).
        checkpoint_every: usize,
        /// graph6 of the journal's start state.
        graph6: String,
    },
    /// A session opened (live proposal-driven session or external-stream
    /// replay session).
    SessionStart {
        /// `true` for [`replay_session`](crate::service::RoundService::replay_session)
        /// streams, `false` for live sessions.
        replay: bool,
    },
    /// One round that applied at least one move, written *before* the
    /// matrix repair (write-ahead).
    Round {
        /// 1-based round number within its session.
        round: usize,
        /// The accepted moves, in ascending agent order.
        moves: Vec<SwapMove>,
        /// [`graph_crc`] of the network *after* the moves landed.
        graph_crc: u32,
    },
    /// External swaps injected between sessions.
    Perturb {
        /// The swaps actually applied (no-ops excluded).
        moves: Vec<SwapMove>,
        /// [`graph_crc`] after the perturbation.
        graph_crc: u32,
    },
    /// A session closed with the given outcome. Absent after a crash —
    /// resume treats a dangling live session as mid-session work to
    /// continue.
    SessionEnd {
        /// How the session ended.
        outcome: Outcome,
    },
    /// Periodic full-state checkpoint: resume rebuilds the eval context
    /// here instead of batch-repairing from the seed.
    Checkpoint {
        /// Journaled rounds at the time of the checkpoint (diagnostic).
        rounds_logged: u64,
        /// graph6 of the full network state.
        graph6: String,
        /// [`matrix_crc`] of the maintained matrix at the checkpoint.
        matrix_crc: u32,
    },
}

fn response_tag(r: Response) -> &'static str {
    match r {
        Response::Best => "best",
        Response::FirstImproving => "first",
    }
}

fn response_from_tag(s: &str) -> Result<Response, String> {
    match s {
        "best" => Ok(Response::Best),
        "first" => Ok(Response::FirstImproving),
        other => Err(format!("unknown response tag {other:?}")),
    }
}

fn outcome_tag(o: Outcome) -> &'static str {
    match o {
        Outcome::Converged => "converged",
        Outcome::Cycled => "cycled",
        Outcome::Capped => "capped",
    }
}

fn outcome_from_tag(s: &str) -> Result<Outcome, String> {
    match s {
        "converged" => Ok(Outcome::Converged),
        "cycled" => Ok(Outcome::Cycled),
        "capped" => Ok(Outcome::Capped),
        other => Err(format!("unknown outcome tag {other:?}")),
    }
}

fn moves_json(moves: &[SwapMove]) -> Json {
    Json::Arr(
        moves
            .iter()
            .map(|m| {
                Json::Arr(vec![
                    Json::Num(f64::from(m.v)),
                    Json::Num(f64::from(m.w)),
                    Json::Num(f64::from(m.w2)),
                ])
            })
            .collect(),
    )
}

fn moves_from_json(v: &Json) -> Result<Vec<SwapMove>, String> {
    let items = v.as_array().ok_or("moves is not an array")?;
    items
        .iter()
        .map(|m| {
            let triple = m.as_array().ok_or("move is not an array")?;
            if triple.len() != 3 {
                return Err("move is not a [v, w, w2] triple".into());
            }
            let field = |i: usize| {
                triple[i]
                    .as_u64()
                    .filter(|&x| x <= u64::from(u32::MAX))
                    .map(|x| x as u32)
                    .ok_or_else(|| "move endpoint is not a vertex index".to_string())
            };
            Ok(SwapMove {
                v: field(0)?,
                w: field(1)?,
                w2: field(2)?,
            })
        })
        .collect()
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl JournalRecord {
    /// The record's body as a [`Json`] document (the `rec` field of the
    /// wire line).
    fn body(&self) -> Json {
        match self {
            JournalRecord::Seed {
                objective,
                response,
                max_rounds,
                detect_cycles,
                pipelined,
                checkpoint_every,
                graph6,
            } => obj(vec![
                ("t", Json::Str("seed".into())),
                ("objective", Json::Str(objective.clone())),
                ("response", Json::Str(response_tag(*response).into())),
                ("max_rounds", Json::Num(*max_rounds as f64)),
                ("detect_cycles", Json::Bool(*detect_cycles)),
                ("pipelined", Json::Bool(*pipelined)),
                ("checkpoint_every", Json::Num(*checkpoint_every as f64)),
                ("g6", Json::Str(graph6.clone())),
            ]),
            JournalRecord::SessionStart { replay } => obj(vec![
                ("t", Json::Str("start".into())),
                ("replay", Json::Bool(*replay)),
            ]),
            JournalRecord::Round {
                round,
                moves,
                graph_crc,
            } => obj(vec![
                ("t", Json::Str("round".into())),
                ("round", Json::Num(*round as f64)),
                ("moves", moves_json(moves)),
                ("g", Json::Num(f64::from(*graph_crc))),
            ]),
            JournalRecord::Perturb { moves, graph_crc } => obj(vec![
                ("t", Json::Str("perturb".into())),
                ("moves", moves_json(moves)),
                ("g", Json::Num(f64::from(*graph_crc))),
            ]),
            JournalRecord::SessionEnd { outcome } => obj(vec![
                ("t", Json::Str("end".into())),
                ("outcome", Json::Str(outcome_tag(*outcome).into())),
            ]),
            JournalRecord::Checkpoint {
                rounds_logged,
                graph6,
                matrix_crc,
            } => obj(vec![
                ("t", Json::Str("ckpt".into())),
                ("rounds", Json::Num(*rounds_logged as f64)),
                ("g6", Json::Str(graph6.clone())),
                ("m", Json::Num(f64::from(*matrix_crc))),
            ]),
        }
    }

    /// Serializes the record as one CRC-tagged journal line (no trailing
    /// newline).
    pub fn to_line(&self) -> String {
        let body = json::write(&self.body());
        format!(
            "{{\"crc\":\"{:08x}\",\"rec\":{body}}}",
            crc32(body.as_bytes())
        )
    }

    /// Parses a CRC-tagged journal line, verifying the checksum.
    pub fn from_line(line: &str) -> Result<JournalRecord, String> {
        let rest = line
            .strip_prefix("{\"crc\":\"")
            .ok_or("missing crc header")?;
        // Checked: a multi-byte character inside the first eight bytes
        // must be refused, not split.
        let (hex, rest) = rest.split_at_checked(8).ok_or("malformed crc header")?;
        let body = rest
            .strip_prefix("\",\"rec\":")
            .ok_or("malformed record envelope")?
            .strip_suffix('}')
            .ok_or("unterminated record envelope")?;
        let want = u32::from_str_radix(hex, 16).map_err(|_| "non-hex crc".to_string())?;
        let got = crc32(body.as_bytes());
        if got != want {
            return Err(format!(
                "crc mismatch: line says {want:08x}, body is {got:08x}"
            ));
        }
        let v = json::parse(body).map_err(|e| e.to_string())?;
        JournalRecord::from_json(&v)
    }

    fn from_json(v: &Json) -> Result<JournalRecord, String> {
        let tag = v
            .get("t")
            .and_then(Json::as_str)
            .ok_or("record has no type tag")?;
        let req_str = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string key {key:?}"))
        };
        let req_usize = |key: &str| {
            v.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("missing or non-integer key {key:?}"))
        };
        let req_u32 = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .filter(|&x| x <= u64::from(u32::MAX))
                .map(|x| x as u32)
                .ok_or_else(|| format!("missing or non-u32 key {key:?}"))
        };
        let req_bool = |key: &str| {
            v.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("missing or non-boolean key {key:?}"))
        };
        match tag {
            "seed" => Ok(JournalRecord::Seed {
                objective: req_str("objective")?,
                response: response_from_tag(&req_str("response")?)?,
                max_rounds: req_usize("max_rounds")?,
                detect_cycles: req_bool("detect_cycles")?,
                pipelined: req_bool("pipelined")?,
                checkpoint_every: req_usize("checkpoint_every")?,
                graph6: req_str("g6")?,
            }),
            "start" => Ok(JournalRecord::SessionStart {
                replay: req_bool("replay")?,
            }),
            "round" => Ok(JournalRecord::Round {
                round: req_usize("round")?,
                moves: moves_from_json(v.get("moves").ok_or("missing key \"moves\"")?)?,
                graph_crc: req_u32("g")?,
            }),
            "perturb" => Ok(JournalRecord::Perturb {
                moves: moves_from_json(v.get("moves").ok_or("missing key \"moves\"")?)?,
                graph_crc: req_u32("g")?,
            }),
            "end" => Ok(JournalRecord::SessionEnd {
                outcome: outcome_from_tag(&req_str("outcome")?)?,
            }),
            "ckpt" => Ok(JournalRecord::Checkpoint {
                rounds_logged: v
                    .get("rounds")
                    .and_then(Json::as_u64)
                    .ok_or("missing or non-integer key \"rounds\"")?,
                graph6: req_str("g6")?,
                matrix_crc: req_u32("m")?,
            }),
            other => Err(format!("unknown record tag {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors from journal scanning and resume.
#[derive(Debug)]
pub enum RecoveryError {
    /// The journal file could not be read or repaired.
    Io(io::Error),
    /// A non-final record line failed to parse or failed its CRC — the
    /// storage corrupted previously fsynced data, which resume refuses
    /// to paper over — or an intact record names a move the replayed
    /// graph cannot take.
    Corrupt {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The journal is internally consistent but does not describe a
    /// resumable state (wrong objective, graph CRC drift, checkpoint
    /// disagreement, missing seed, …).
    Mismatch(String),
    /// Rebuilding the eval context hit the compact-distance overflow
    /// guard (the journal describes a graph this build cannot evaluate).
    Overflow(bncg_graph::DistOverflow),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "journal I/O error: {e}"),
            RecoveryError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
            RecoveryError::Mismatch(why) => write!(f, "journal does not match: {why}"),
            RecoveryError::Overflow(e) => write!(f, "journal replay overflow: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io(e) => Some(e),
            RecoveryError::Overflow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl From<bncg_graph::DistOverflow> for RecoveryError {
    fn from(e: bncg_graph::DistOverflow) -> Self {
        RecoveryError::Overflow(e)
    }
}

// ---------------------------------------------------------------------------
// Journal writer
// ---------------------------------------------------------------------------

/// Append-only journal writer with sticky error semantics: the first I/O
/// failure is kept ([`Journal::error`]) and every later append becomes a
/// no-op, so a full disk degrades journaling without taking the dynamics
/// down (mirroring [`JsonlSink`](crate::sink::JsonlSink)).
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    error: Option<io::Error>,
    records_written: u64,
}

impl Journal {
    /// Creates (truncating) a journal at `path`.
    pub fn create(path: &Path) -> io::Result<Journal> {
        let file = File::create(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            error: None,
            records_written: 0,
        })
    }

    /// Opens an existing journal for appending (the resume path).
    pub fn open_append(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            error: None,
            records_written: 0,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The first I/O error hit, if any (journaling is disabled past it).
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Records appended by this writer (excludes replayed history).
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    fn fail(&mut self, e: io::Error) {
        bncg_telemetry::counter!("journal.errors").incr();
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Appends one record as a single `write(2)` of the full line. On a
    /// sticky error this is a no-op.
    pub fn append(&mut self, rec: &JournalRecord) {
        if self.error.is_some() {
            return;
        }
        if crate::fault_point("journal.append") {
            self.fail(io::Error::other("injected journal write failure"));
            return;
        }
        let mut line = rec.to_line();
        line.push('\n');
        match self.file.write_all(line.as_bytes()) {
            Ok(()) => {
                self.records_written += 1;
                bncg_telemetry::counter!("journal.records").incr();
                bncg_telemetry::counter!("journal.bytes").add(line.len() as u64);
            }
            Err(e) => self.fail(e),
        }
    }

    /// Forces the journal to stable storage (`fdatasync`) — called at
    /// every round barrier *before* the matrix repair, which is what
    /// makes the log write-ahead. No-op past a sticky error.
    pub fn sync(&mut self) {
        if self.error.is_some() {
            return;
        }
        if crate::fault_point("journal.sync") {
            self.fail(io::Error::other("injected journal sync failure"));
            return;
        }
        match self.file.sync_data() {
            Ok(()) => {
                bncg_telemetry::counter!("journal.fsyncs").incr();
            }
            Err(e) => self.fail(e),
        }
    }

    /// [`append`](Self::append) + [`sync`](Self::sync) in one call — the
    /// round-barrier commit.
    pub fn append_synced(&mut self, rec: &JournalRecord) {
        self.append(rec);
        self.sync();
    }
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

/// Result of scanning a journal file.
#[derive(Debug)]
pub struct JournalScan {
    /// Every intact record, in file order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the intact prefix (where a torn tail would be
    /// truncated).
    pub valid_bytes: u64,
    /// Whether the file ended in a torn (incomplete or CRC-failing)
    /// final line.
    pub truncated_tail: bool,
}

/// Reads and validates a journal file.
///
/// Only the *final* line is allowed to be damaged (reported as
/// [`JournalScan::truncated_tail`]); a damaged interior line is
/// [`RecoveryError::Corrupt`].
pub fn read_journal(path: &Path) -> Result<JournalScan, RecoveryError> {
    let bytes = std::fs::read(path)?;
    let mut records = Vec::new();
    let mut valid_bytes = 0u64;
    let mut truncated_tail = false;
    let mut line_no = 0usize;
    let mut pos = 0usize;
    while pos < bytes.len() {
        line_no += 1;
        let (end, has_nl) = match bytes[pos..].iter().position(|&b| b == b'\n') {
            Some(i) => (pos + i, true),
            None => (bytes.len(), false),
        };
        let parsed = std::str::from_utf8(&bytes[pos..end])
            .map_err(|e| e.to_string())
            .and_then(JournalRecord::from_line);
        let next = if has_nl { end + 1 } else { end };
        match parsed {
            Ok(rec) => {
                records.push(rec);
                valid_bytes = next as u64;
                pos = next;
            }
            Err(reason) => {
                if next >= bytes.len() {
                    // Damage confined to the very last line: a torn
                    // in-flight write, recoverable by truncation.
                    truncated_tail = true;
                    break;
                }
                return Err(RecoveryError::Corrupt {
                    line: line_no,
                    reason,
                });
            }
        }
    }
    Ok(JournalScan {
        records,
        valid_bytes,
        truncated_tail,
    })
}

/// Truncates a journal with a torn tail back to its intact prefix.
/// Returns whether anything was cut.
pub fn truncate_torn_tail(path: &Path, scan: &JournalScan) -> io::Result<bool> {
    if !scan.truncated_tail {
        return Ok(false);
    }
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(scan.valid_bytes)?;
    f.sync_data()?;
    Ok(true)
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What a session marker on the replay cursor refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpenSession {
    Live,
    Replay,
}

/// The service state reconstructed from a journal — everything
/// [`RoundService::resume`](crate::service::RoundService::resume) needs
/// to rebuild its fields.
pub(crate) struct ReplayedState {
    pub config: RoundConfig,
    pub checkpoint_every: usize,
    pub g: Graph,
    pub ctx: EvalContext,
    pub log: StateLog,
    /// `Round` records applied during replay.
    pub rounds_replayed: usize,
    pub sessions_closed: usize,
    /// `Some(rounds already run)` when the journal ends inside a live
    /// session (crash mid-session): the next `run_session` continues it.
    pub midsession: Option<usize>,
    /// Whether the eval context was rebuilt at a checkpoint rather than
    /// batch-repaired all the way from the seed.
    pub used_checkpoint: bool,
}

/// Checks that `mv` can be applied to `g`: every vertex id is below `n`,
/// the deleted edge `vw` is present, and `w2 ≠ v` — the preconditions
/// [`Graph::apply_swap`] asserts.
fn check_move(g: &Graph, mv: &SwapMove) -> Result<(), String> {
    let n = g.n();
    if [mv.v, mv.w, mv.w2].iter().any(|&x| x as usize >= n) {
        return Err(format!("move {mv:?} names a vertex outside 0..{n}"));
    }
    if !g.has_edge(mv.v, mv.w) {
        return Err(format!("move {mv:?} deletes a missing edge"));
    }
    if mv.w2 == mv.v {
        return Err(format!("move {mv:?} would insert a self-loop"));
    }
    Ok(())
}

/// [`check_move`] for every move of one round, plus pairwise
/// footprint-disjointness — the precondition of the batch repair the
/// round is replayed through. Checking every move against the pre-round
/// graph is exact: disjoint footprints mean no move touches an edge
/// another move of the round deletes or inserts.
fn check_round(g: &Graph, moves: &[SwapMove]) -> Result<(), String> {
    let mut touched = HashSet::with_capacity(2 * moves.len());
    for mv in moves {
        check_move(g, mv)?;
        let fp = mv.footprint();
        if fp.iter().any(|e| touched.contains(e)) {
            return Err(format!("move {mv:?} overlaps an earlier move of its round"));
        }
        touched.extend(fp);
    }
    Ok(())
}

/// Replays a scanned journal into a live service state. `rules.name()`
/// must match the journal's seed objective tag and `rules` must fit the
/// seed graph's vertex count (both checked before anything is built);
/// the maintained matrix is rebuilt at the last checkpoint (verified
/// against its recorded CRC) and repaired through every later batch, so
/// it is byte-identical to the crashed process's matrix. Rule sets that never touch distances
/// (`needs_apsp() == false`) keep the context lazy and skip matrix-CRC
/// verification — their checkpoints record a zero CRC.
pub(crate) fn replay<R: GameRules>(
    rules: &R,
    scan: &JournalScan,
) -> Result<ReplayedState, RecoveryError> {
    let mut iter = scan.records.iter().enumerate();
    let Some((
        _,
        JournalRecord::Seed {
            objective,
            response,
            max_rounds,
            detect_cycles,
            pipelined: _,
            checkpoint_every,
            graph6: seed_g6,
        },
    )) = iter.next()
    else {
        return Err(RecoveryError::Mismatch(
            "journal does not begin with a seed record".into(),
        ));
    };
    if objective != rules.name() {
        return Err(RecoveryError::Mismatch(format!(
            "journal was written for game {objective:?}, resume asked for {:?}",
            rules.name()
        )));
    }
    let config = RoundConfig {
        response: *response,
        max_rounds: *max_rounds,
        detect_cycles: *detect_cycles,
    };
    let detect = *detect_cycles;
    let mut g = graph6::decode(seed_g6)
        .map_err(|e| RecoveryError::Mismatch(format!("seed graph6: {e}")))?;
    rules
        .check_vertex_count(g.n())
        .map_err(|e| RecoveryError::Mismatch(e.to_string()))?;

    // The eval context is rebuilt at the *last* checkpoint; rounds before
    // it replay onto the graph only.
    let last_ckpt = scan
        .records
        .iter()
        .rposition(|r| matches!(r, JournalRecord::Checkpoint { .. }));
    let mut live: Option<EvalContext> = None;
    let needs_apsp = rules.needs_apsp();
    let build_ctx = move |g: &Graph| -> Result<EvalContext, RecoveryError> {
        let ctx = EvalContext::new(g);
        if needs_apsp {
            ctx.try_base()?;
        }
        Ok(ctx)
    };
    if last_ckpt.is_none() {
        live = Some(build_ctx(&g)?);
    }

    let mut log = StateLog::new();
    let mut open: Option<OpenSession> = None;
    let mut rounds_in_session = 0usize;
    let mut rounds_replayed = 0usize;
    let mut sessions_closed = 0usize;

    for (idx, rec) in iter {
        match rec {
            JournalRecord::Seed { .. } => {
                return Err(RecoveryError::Corrupt {
                    line: idx + 1,
                    reason: "second seed record".into(),
                });
            }
            JournalRecord::SessionStart { replay } => {
                log.clear();
                if !replay && detect {
                    log.record_period(&g);
                }
                open = Some(if *replay {
                    OpenSession::Replay
                } else {
                    OpenSession::Live
                });
                rounds_in_session = 0;
            }
            JournalRecord::Round {
                moves, graph_crc, ..
            } => {
                if moves.is_empty() {
                    return Err(RecoveryError::Corrupt {
                        line: idx + 1,
                        reason: "round record with no moves".into(),
                    });
                }
                check_round(&g, moves).map_err(|reason| RecoveryError::Corrupt {
                    line: idx + 1,
                    reason,
                })?;
                let batch: Vec<SwapApplied> = moves.iter().map(|mv| mv.apply(&mut g)).collect();
                if crate::recovery::graph_crc(&g) != *graph_crc {
                    return Err(RecoveryError::Mismatch(format!(
                        "graph diverged from record {} during replay",
                        idx + 1
                    )));
                }
                if let Some(ctx) = live.as_mut() {
                    ctx.refresh_after_batch(&g, &batch);
                }
                rounds_replayed += 1;
                rounds_in_session += 1;
                if open == Some(OpenSession::Live) && detect && log.record_period(&g).is_some() {
                    // The round that closed a cycle ended its session even
                    // if the crash beat the SessionEnd record to disk.
                    open = None;
                    sessions_closed += 1;
                }
            }
            JournalRecord::Perturb { moves, graph_crc } => {
                for mv in moves {
                    check_move(&g, mv).map_err(|reason| RecoveryError::Corrupt {
                        line: idx + 1,
                        reason,
                    })?;
                    let rec = mv.apply(&mut g);
                    if matches!(rec, SwapApplied::Noop) {
                        continue;
                    }
                    if let Some(ctx) = live.as_mut() {
                        ctx.refresh_after(&g, &rec);
                    }
                }
                if crate::recovery::graph_crc(&g) != *graph_crc {
                    return Err(RecoveryError::Mismatch(format!(
                        "graph diverged from perturb record {} during replay",
                        idx + 1
                    )));
                }
                log.clear();
                open = None;
            }
            JournalRecord::SessionEnd { outcome } => {
                if open.take().is_some() {
                    sessions_closed += 1;
                    // A converged session's final round proposed no moves,
                    // so it was never journaled — the closing record is
                    // the only trace of it. Count it so resumed aggregate
                    // round totals match the uninterrupted service.
                    if *outcome == Outcome::Converged {
                        rounds_replayed += 1;
                    }
                }
            }
            JournalRecord::Checkpoint {
                graph6: ckpt_g6,
                matrix_crc: want,
                ..
            } => {
                if Some(idx) != last_ckpt {
                    continue; // superseded by a later checkpoint
                }
                let ckpt_g = graph6::decode(ckpt_g6)
                    .map_err(|e| RecoveryError::Mismatch(format!("checkpoint graph6: {e}")))?;
                if ckpt_g != g {
                    return Err(RecoveryError::Mismatch(format!(
                        "checkpoint {} disagrees with the replayed graph",
                        idx + 1
                    )));
                }
                let ctx = build_ctx(&g)?;
                if needs_apsp {
                    let got = matrix_crc(ctx.base());
                    if got != *want {
                        return Err(RecoveryError::Mismatch(format!(
                            "checkpoint {} matrix crc {want:08x} != rebuilt {got:08x}",
                            idx + 1
                        )));
                    }
                }
                live = Some(ctx);
            }
        }
    }

    let ctx = match live {
        Some(ctx) => ctx,
        None => build_ctx(&g)?, // journal ended exactly at its last checkpoint
    };
    let midsession = (open == Some(OpenSession::Live)).then_some(rounds_in_session);
    Ok(ReplayedState {
        config,
        checkpoint_every: *checkpoint_every,
        g,
        ctx,
        log,
        rounds_replayed,
        sessions_closed,
        midsession,
        used_checkpoint: last_ckpt.is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators::classic;

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn graph_crc_tracks_the_labeled_edge_set() {
        let a = classic::path(6);
        let mut b = classic::path(6);
        assert_eq!(graph_crc(&a), graph_crc(&b));
        b.remove_edge(0, 1);
        b.add_edge(0, 2);
        assert_ne!(graph_crc(&a), graph_crc(&b));
    }

    fn samples() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Seed {
                objective: "sum".into(),
                response: Response::Best,
                max_rounds: 10_000,
                detect_cycles: true,
                pipelined: true,
                checkpoint_every: 64,
                graph6: graph6::encode(&classic::path(7)),
            },
            JournalRecord::SessionStart { replay: false },
            JournalRecord::Round {
                round: 1,
                moves: vec![
                    SwapMove { v: 0, w: 1, w2: 3 },
                    SwapMove { v: 5, w: 6, w2: 2 },
                ],
                graph_crc: 0xDEAD_BEEF,
            },
            JournalRecord::Perturb {
                moves: vec![SwapMove { v: 2, w: 3, w2: 6 }],
                graph_crc: 7,
            },
            JournalRecord::SessionEnd {
                outcome: Outcome::Cycled,
            },
            JournalRecord::Checkpoint {
                rounds_logged: 128,
                graph6: graph6::encode(&classic::star(5)),
                matrix_crc: 0x0123_4567,
            },
        ]
    }

    #[test]
    fn every_record_kind_round_trips_through_its_line() {
        for rec in samples() {
            let line = rec.to_line();
            assert!(line.starts_with("{\"crc\":\""), "envelope shape: {line}");
            let back = JournalRecord::from_line(&line).expect("round-trip");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn a_flipped_byte_fails_the_crc() {
        let line = samples()[2].to_line();
        // Flip one digit inside a vertex index (keeps the JSON valid).
        let tampered = line.replacen("[0,1,3]", "[0,1,4]", 1);
        assert_ne!(line, tampered, "tamper target must exist");
        let err = JournalRecord::from_line(&tampered).expect_err("must fail");
        assert!(err.contains("crc mismatch"), "got: {err}");
    }

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bncg-recovery-{tag}-{}-{id}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn scanner_accepts_a_clean_file_and_truncates_a_torn_tail() {
        let path = temp_path("scan");
        let recs = samples();
        {
            let mut j = Journal::create(&path).expect("create");
            for r in &recs {
                j.append(r);
            }
            j.sync();
            assert!(j.error().is_none());
            assert_eq!(j.records_written(), recs.len() as u64);
        }
        let clean = read_journal(&path).expect("clean scan");
        assert_eq!(clean.records, recs);
        assert!(!clean.truncated_tail);
        assert!(!truncate_torn_tail(&path, &clean).expect("no-op"));

        // Tear the tail: append half a line, as a crash mid-write would.
        let whole = std::fs::metadata(&path).expect("meta").len();
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        f.write_all(b"{\"crc\":\"0000").expect("torn write");
        drop(f);
        let torn = read_journal(&path).expect("torn scan still succeeds");
        assert_eq!(torn.records, recs, "intact prefix preserved");
        assert!(torn.truncated_tail);
        assert_eq!(torn.valid_bytes, whole);
        assert!(truncate_torn_tail(&path, &torn).expect("truncate"));
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), whole);
        let again = read_journal(&path).expect("rescan");
        assert!(!again.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_refused() {
        let path = temp_path("interior");
        let recs = samples();
        {
            let mut j = Journal::create(&path).expect("create");
            for r in &recs {
                j.append(r);
            }
        }
        // Flip a byte in the middle of the file (inside line 2's body).
        let mut bytes = std::fs::read(&path).expect("read");
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        let target = line_starts[1] + 30;
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write back");
        match read_journal(&path) {
            Err(RecoveryError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected interior corruption, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
