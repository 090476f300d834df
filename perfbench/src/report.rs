//! Order statistics, output digests, failure accounting and the result
//! line the benchmark prints last.

use std::fmt::Write as _;

/// Value at percentile `p` (0–100) of `xs`, interpolating linearly
/// between the two closest ranks. `xs` need not be sorted.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// FNV-1a over the outputs a workload must reproduce: final graphs,
/// outcomes and round counts. Stable across builds and platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// Folds a number into the digest.
    pub fn num(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Folds a string into the digest.
    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// The digest as a number.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Attempted and failed operations. An operation fails when the program
/// returns an error or any output check on it fails; each failure keeps a
/// one-line reason for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Checks that failed outside any operation (set-up, crash recovery,
    /// trace agreement). Any of them makes the run incorrect.
    pub broken: u64,
    /// Reasons, in the order found.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless every check in `checks` holds.
    pub fn op(&mut self, label: &str, checks: &[(bool, &str)]) {
        self.ops(label, 1, checks);
    }

    /// Counts `count` operations checked together: all fail unless every
    /// check in `checks` holds.
    pub fn ops(&mut self, label: &str, count: u64, checks: &[(bool, &str)]) {
        self.attempted += count;
        let bad: Vec<&str> = checks.iter().filter(|c| !c.0).map(|c| c.1).collect();
        if !bad.is_empty() {
            self.failed += count;
            self.note(format!("{label}: {}", bad.join(", ")));
        }
    }

    /// Records a check that belongs to no single operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.broken += 1;
            self.note(what.to_string());
        }
    }

    fn note(&mut self, reason: String) {
        if self.reasons.len() < 20 {
            self.reasons.push(reason);
        }
    }

    /// Whether every operation and every other check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken == 0 && self.attempted > 0
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints every metric on its own line, then the result object as the
/// last line of standard output.
pub fn print_result(tally: &Tally, metrics: &[Metric]) {
    for m in metrics {
        println!("metric {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for r in &tally.reasons {
        println!("FAILED {r}");
    }
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed
    );
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}
