//! The benchmark-owned record sink: forwards every round record to the
//! program's `JsonlSink`, keeps the last record for the output checks and,
//! when asked, stamps when each record arrived (the replay workload's
//! per-commit clock).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use bncg_dynamics::sink::{JsonlSink, MetricsSink, RoundRecord};

/// A writer that counts the bytes it passes on.
pub struct Counting<W: Write> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for Counting<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// See the module docs.
pub struct BenchSink {
    inner: JsonlSink<Counting<BufWriter<File>>>,
    /// `Some` when stamping: arrival times not yet taken.
    stamps: Option<Vec<Instant>>,
    /// The most recent record received.
    pub last: Option<RoundRecord>,
}

impl BenchSink {
    /// A sink streaming JSON Lines into a new file at `path`; `stamp`
    /// records each record's arrival time.
    pub fn create(path: &Path, stamp: bool) -> io::Result<BenchSink> {
        let file = BufWriter::new(File::create(path)?);
        Ok(BenchSink {
            inner: JsonlSink::new(Counting {
                inner: file,
                bytes: 0,
            }),
            stamps: stamp.then(Vec::new),
            last: None,
        })
    }

    /// Arrival times of the records since the last call, oldest first.
    pub fn take_stamps(&mut self) -> Vec<Instant> {
        self.stamps.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The sticky write error of the underlying `JsonlSink`, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.inner.error()
    }

    /// Bytes written so far (flushed or buffered).
    pub fn bytes(self) -> u64 {
        self.inner.into_inner().bytes
    }
}

impl MetricsSink for BenchSink {
    fn record_round(&mut self, record: &RoundRecord) {
        if let Some(stamps) = self.stamps.as_mut() {
            stamps.push(Instant::now());
        }
        self.last = Some(*record);
        self.inner.record_round(record);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}
