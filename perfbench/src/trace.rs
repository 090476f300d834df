//! In-memory spans around the calls the traced run makes into each layer,
//! plus the benchmark-side work counters recorded at the same boundaries.
//!
//! A span has a name (`<layer>.<call>`), a start and an end, the span that
//! was open when it started, and the id of the operation it belongs to.
//! Self time is a span's duration minus the durations of its children.
//! Spans stay in memory until [`Tracer::write_jsonl`] at the end of the run.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, or `op` / `setup` for the roots.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    /// Nanoseconds since the tracer started (`0` while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation id (`0` during set-up).
    pub op: u64,
}

/// Benchmark-side work counters, bumped where the traced calls are made.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Agents asked for a response (`rules.agents`).
    pub agents: u64,
    /// Improving responses returned (`rules.proposals`).
    pub proposals: u64,
    /// Moves accepted by conflict resolution.
    pub accepted: u64,
    /// Proposals dropped by conflict resolution (`rounds.conflicted`).
    pub conflicted: u64,
    /// `SwapMove::apply` calls (`graph.swaps`).
    pub swaps: u64,
    /// Sessions run (`service.sessions`).
    pub sessions: u64,
    /// Sequential-engine activations (`engine.activations`).
    pub activations: u64,
    /// Moves the sequential engine applied (`engine.moves`).
    pub moves: u64,
    /// Round records written (`sink.records`).
    pub records: u64,
    /// Rounds a journal resume replayed (`recovery.rounds_replayed`).
    pub rounds_replayed: u64,
}

/// Span recorder for one traced run.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Work counters.
    pub counts: Counts,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
            counts: Counts::default(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span with no children of its own.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(*c);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        w.flush()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
