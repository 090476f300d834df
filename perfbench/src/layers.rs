//! The per-layer metrics of a traced run: span self times, the
//! benchmark's own work counters and the program's telemetry counters,
//! reconciled against the traced wall time.

use bncg_telemetry::MetricsSnapshot;

use crate::report::{metric, Metric};
use crate::trace::Tracer;

/// Span names whose self time is reported. Everything else — the `setup`
/// and `op` roots, input generation and the loop itself — is the `other`
/// residual.
const TIMED: [&str; 13] = [
    "rules.propose",
    "rounds.resolve",
    "graph.apply",
    "dynamic.barrier",
    "dynamic.single",
    "distance.build",
    "recovery.append",
    "recovery.read",
    "recovery.resume",
    "sink.record",
    "service.perturb",
    "service.session",
    "engine.run",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What a traced run measured besides its spans.
pub struct TracedRun<'a> {
    /// The span recorder of the traced leg.
    pub tracer: &'a Tracer,
    /// Program telemetry over the traced leg.
    pub telemetry: &'a MetricsSnapshot,
    /// Wall time of the traced leg, nanoseconds.
    pub wall_ns: u64,
    /// Round-record bytes the traced leg's sinks wrote.
    pub sink_bytes: u64,
    /// Wall time of the operations traced, milliseconds.
    pub traced_ops_ms: f64,
    /// Wall time of the same operations untraced, milliseconds.
    pub untraced_ops_ms: f64,
    /// Hypervisor steal over the traced leg, seconds.
    pub steal_s: f64,
}

impl TracedRun<'_> {
    fn counter(&self, name: &str) -> u64 {
        self.telemetry.counter(name).unwrap_or(0)
    }

    fn hist_sum(&self, name: &str) -> u64 {
        self.telemetry.histogram(name).map_or(0, |h| h.sum)
    }

    fn hist_count(&self, name: &str) -> u64 {
        self.telemetry.histogram(name).map_or(0, |h| h.count)
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let selfs = self.tracer.self_times();
        let t = |name: &str| selfs.get(name).copied().unwrap_or(0);
        let c = self.tracer.counts;
        let layered: u64 = TIMED.iter().map(|span| t(span)).sum();
        let other = self.wall_ns.saturating_sub(layered);
        let simd = self.counter("kernels.dispatch.sse2")
            + self.counter("kernels.dispatch.neon")
            + self.counter("kernels.dispatch.swar");
        let scalar = self.counter("kernels.dispatch.scalar");
        let candidates = self.counter("swap_scan.candidates");
        let improving = self.counter("swap_scan.improving");
        let ns = |name: &'static str, span: &str| metric(name, t(span) as f64, "ns");
        let count = |name: &'static str, v: u64| metric(name, v as f64, "count");
        let overhead = self.traced_ops_ms - self.untraced_ops_ms;
        vec![
            ns("rules.propose_ns", "rules.propose"),
            count("rules.agents", c.agents),
            count("rules.proposals", c.proposals),
            metric(
                "rules.proposal_yield",
                ratio(c.proposals, c.agents),
                "ratio",
            ),
            count("dynamic.scan_calls", self.hist_count("scan.copy_ns")),
            metric(
                "dynamic.scan_copy_ns",
                self.hist_sum("scan.copy_ns") as f64,
                "ns",
            ),
            metric(
                "dynamic.scan_repair_ns",
                (self.hist_sum("scan.stage_a_ns")
                    + self.hist_sum("scan.phase1_ns")
                    + self.hist_sum("scan.phase2_ns")) as f64,
                "ns",
            ),
            count(
                "dynamic.scan_rows_repaired",
                self.counter("scan.rows_repaired"),
            ),
            count("evaluator.candidates", candidates),
            count("evaluator.improving", improving),
            metric("evaluator.hit_ratio", ratio(improving, candidates), "ratio"),
            ns("rounds.resolve_ns", "rounds.resolve"),
            count("rounds.conflicted", c.conflicted),
            metric(
                "rounds.accept_ratio",
                ratio(c.accepted, c.accepted + c.conflicted),
                "ratio",
            ),
            ns("graph.apply_ns", "graph.apply"),
            count("graph.swaps", c.swaps),
            ns("dynamic.barrier_ns", "dynamic.barrier"),
            ns("dynamic.single_ns", "dynamic.single"),
            count("dynamic.rows_repaired", self.counter("apsp.rows_repaired")),
            count("dynamic.rows_blended", self.counter("apsp.rows_blended")),
            count("dynamic.rebuilds", self.counter("apsp.rebuilds")),
            ns("distance.build_ns", "distance.build"),
            count("distance.builds", self.counter("apsp.builds")),
            ns("recovery.append_ns", "recovery.append"),
            count("recovery.fsyncs", self.counter("journal.fsyncs")),
            metric(
                "recovery.bytes",
                self.counter("journal.bytes") as f64,
                "bytes",
            ),
            count("recovery.errors", self.counter("journal.errors")),
            ns("recovery.read_ns", "recovery.read"),
            ns("recovery.resume_ns", "recovery.resume"),
            count("recovery.rounds_replayed", c.rounds_replayed),
            ns("sink.record_ns", "sink.record"),
            count("sink.records", c.records),
            metric("sink.bytes", self.sink_bytes as f64, "bytes"),
            ns("service.perturb_ns", "service.perturb"),
            ns("service.session_ns", "service.session"),
            count("service.sessions", c.sessions),
            count("engine.activations", c.activations),
            count("engine.moves", c.moves),
            ns("engine.run_ns", "engine.run"),
            count("kernels.simd_calls", simd),
            count("kernels.scalar_calls", scalar),
            metric("kernels.simd_share", ratio(simd, simd + scalar), "ratio"),
            count("pool.jobs", self.counter("pool.jobs")),
            count("pool.steals", self.counter("pool.steals")),
            metric("trace.wall_ns", self.wall_ns as f64, "ns"),
            metric("trace.other_ns", other as f64, "ns"),
            metric("trace.other_share", ratio(other, self.wall_ns), "ratio"),
            metric("trace.overhead_ms", overhead, "ms"),
            metric(
                "trace.overhead_share",
                if self.untraced_ops_ms > 0.0 {
                    overhead / self.untraced_ops_ms
                } else {
                    0.0
                },
                "ratio",
            ),
            count("trace.spans", self.tracer.len() as u64),
            metric("host.steal_s", self.steal_s, "s"),
        ]
    }
}
