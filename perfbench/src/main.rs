//! Round-service benchmark of the bncg engines.
//!
//! ```text
//! perfbench --workload settle|converge|replay --seed N --seconds S
//!           [--trace 0|1] [--smoke] [--work-dir DIR]
//! ```
//!
//! One process runs one workload. With `--trace 0` it sets up, runs a
//! closed loop of operations for `--seconds`, checks every output and
//! prints the end-to-end metrics. With `--trace 1` it runs a fixed prefix
//! of the same operations twice — once through the library's own loops,
//! once hand-stepped with a span around every call into a layer — checks
//! that both give the same output digest, and prints the per-layer
//! metrics. The last line of standard output is the result object;
//! `perfbench/run.py` builds this program and relays that line.

mod checks;
mod converge;
mod gen;
mod hand;
mod host;
mod layers;
mod replay;
mod report;
mod settle;
mod sinks;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{median, metric, percentile, Metric, Tally};

/// Run parameters shared by every workload.
pub struct Config {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: f64,
    /// Small inputs (n ≤ 48) for the benchmark's own tests.
    pub smoke: bool,
    /// Directory for journals, record streams and span dumps.
    pub work: PathBuf,
}

impl Config {
    /// A file in the work directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// Times, in seconds, of each repeated set-up; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What an untraced run measured.
#[derive(Default)]
pub struct Timed {
    /// Wall, CPU and steal of each set-up.
    pub setups: Vec<host::RegionCost>,
    /// Wall-clock latency of every operation in the timed region.
    pub latencies: Vec<Duration>,
    /// Rounds completed in the timed region.
    pub rounds: u64,
    /// Whole operation cycles completed in the timed region.
    pub cycles: u64,
    /// Wall, CPU and steal over the timed region.
    pub cost: host::RegionCost,
}

impl Timed {
    /// The end-to-end metrics; `op_tail_ms` is read at `tail_pct`. Every
    /// wall time is scaled once by the share of its region the host did
    /// not steal ([`host::RegionCost::unstolen`]); the raw wall-clock
    /// figures are printed beside them.
    pub fn metrics(&self, tail_pct: f64) -> Vec<Metric> {
        let raw: Vec<f64> = self
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let kept = self.cost.unstolen();
        let ms: Vec<f64> = raw.iter().map(|x| x * kept).collect();
        let tail = percentile(&ms, tail_pct);
        let beyond = ms.iter().filter(|&&x| x > tail).count();
        let setup_wall: Vec<f64> = self.setups.iter().map(|c| c.wall_s).collect();
        let setup_net: Vec<f64> = self.setups.iter().map(|c| c.net_s()).collect();
        println!(
            "ops {} in {:.3} s wall, {} cycles, {} rounds; tail p{tail_pct} has {beyond} ops beyond it{}",
            ms.len(),
            self.cost.wall_s,
            self.cycles,
            self.rounds,
            if beyond < 10 { " (fewer than 10: raise --seconds)" } else { "" },
        );
        println!(
            "host cores {} cpu_s {:.2} steal_s {:.3} over {} vCPUs in the timed region: {:.2} % of its wall time kept; setups {setup_wall:?} s wall",
            host::cores(),
            self.cost.cpu_s,
            self.cost.steal_s,
            self.cost.vcpus,
            kept * 1e2,
        );
        println!(
            "raw wall clock: setup_s {:.6} rounds_per_s {:.6} op_p50_ms {:.6} op_tail_ms {:.6}",
            median(&setup_wall),
            self.rounds as f64 / self.cost.wall_s,
            median(&raw),
            percentile(&raw, tail_pct),
        );
        vec![
            metric("setup_s", median(&setup_net), "s"),
            metric(
                "rounds_per_s",
                self.rounds as f64 / self.cost.net_s(),
                "rounds/s",
            ),
            metric("op_p50_ms", median(&ms), "ms"),
            metric("op_tail_ms", tail, "ms"),
            metric("cpu_s", self.cost.cpu_s / self.cycles.max(1) as f64, "s"),
            metric("peak_rss_mib", host::peak_rss_mib(), "MiB"),
        ]
    }
}

/// Prints the latency spread of one population of operations.
pub fn print_population(label: &str, lat: &[Duration]) {
    let ms: Vec<f64> = lat.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    println!(
        "  {label}: {} ops, p10 {:.2} ms, p50 {:.2} ms, p90 {:.2} ms, max {:.2} ms",
        ms.len(),
        percentile(&ms, 10.0),
        median(&ms),
        percentile(&ms, 90.0),
        percentile(&ms, 100.0)
    );
}

/// A workload's verdict and metrics.
pub struct Report {
    /// Operations attempted and failed, plus other failed checks.
    pub tally: Tally,
    /// Metrics to print.
    pub metrics: Vec<Metric>,
}

/// Writes the traced run's spans beside the work directory, one JSON
/// object per line, and says where.
pub fn write_spans(cfg: &Config, workload: &str, tr: &trace::Tracer) {
    let path = cfg.work.with_file_name(format!("spans-{workload}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("trace: {} spans written to {}", tr.len(), path.display()),
        Err(e) => println!("trace: spans not written to {}: {e}", path.display()),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload settle|converge|replay --seed N --seconds S \
         [--trace 0|1] [--smoke] [--work-dir DIR]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut work = PathBuf::from(".bench_build/perfbench-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = value() == "1",
            "--smoke" => smoke = true,
            "--work-dir" => work = PathBuf::from(value()),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage();
    };
    let work = work.join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let cfg = Config {
        seed,
        seconds,
        smoke,
        work,
    };
    let report = match (workload.as_str(), trace) {
        ("settle", false) => settle::run(&cfg),
        ("settle", true) => settle::run_traced(&cfg),
        ("converge", false) => converge::run(&cfg),
        ("converge", true) => converge::run_traced(&cfg),
        ("replay", false) => replay::run(&cfg),
        ("replay", true) => replay::run_traced(&cfg),
        _ => return usage(),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    report::print_result(&report.tally, &report.metrics);
    ExitCode::SUCCESS
}
