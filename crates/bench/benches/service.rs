//! Round-service benchmarks: sustained streaming throughput of the
//! long-running [`RoundService`] vs per-session engine setup.
//!
//! `BENCH_service.json` is produced from this suite via
//! `BNCG_BENCH_JSON=BENCH_service.json cargo bench -p bncg_bench --bench
//! service`. The `service_session_*` pair replays the same palindromic
//! round stream (one round of 2 edge-disjoint swaps plus its inverse —
//! the stream returns the graph to its start, so every session sees
//! identical work; short perturb-and-settle sessions are the traffic
//! the service exists for, where per-session setup is a real fraction
//! of session time) two ways:
//!
//! * `per_session_engine` — the pre-service calling convention: every
//!   session builds a fresh maintained context (one full APSP build) and
//!   replays the stream through batched round barriers
//!   ([`replay_round_stream`]);
//! * `round_service` — one warm [`RoundService`] constructed once,
//!   streaming session after session through
//!   [`replay_session`](RoundService::replay_session) with no per-session
//!   setup.
//!
//! The delta is the amortized per-session APSP build — the service's
//! reason to exist. The headline scalar
//! `service/sustained_rounds_per_sec/{n}` reports the warm service's
//! steady-state round throughput ([`RoundService::sustained_rounds_per_sec`]),
//! the number the README quotes.

use std::hint::black_box;

use bncg_bench::workload::{replay_round_stream, synth_round_palindrome};
use bncg_core::objective::SumObjective;
use bncg_dynamics::service::{RoundService, ServiceConfig};
use bncg_dynamics::sink::NullSink;
use bncg_graph::generators::random::random_tree;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_service_sessions(c: &mut Criterion) {
    let mut sustained_scalars = Vec::new();
    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    for &n in &[512usize, 2048] {
        let mut rng = StdRng::seed_from_u64(0x5E21 + n as u64);
        // Trees: the paper's canonical dynamics instances and the repair
        // walkers' worst case (every bridge deletion detaches a subtree),
        // so the per-round barrier work both arms share is substantial.
        let g0 = random_tree(&mut rng, n);
        let stream = synth_round_palindrome(&mut rng, &g0, 1, 2);
        assert!(stream.iter().all(|r| r.len() == 2));

        group.bench_with_input(
            BenchmarkId::new("service_session_per_session_engine", n),
            &(&g0, &stream),
            |b, (g0, stream)| {
                // Each iteration = one session the old way: fresh context
                // (full APSP build) + batched replay.
                b.iter(|| black_box(replay_round_stream(g0, stream, true)))
            },
        );

        let mut service = RoundService::<SumObjective>::new(&g0, ServiceConfig::default());
        // Warm the service (pools, lazy allocations) outside the timer —
        // steady state is the claim under measurement.
        black_box(service.replay_session(&stream, &mut NullSink).result.rounds);
        group.bench_with_input(
            BenchmarkId::new("service_session_round_service", n),
            &stream,
            |b, stream| {
                // Each iteration = one session through the warm service;
                // the palindromic stream hands the next iteration the
                // same start state.
                b.iter(|| black_box(service.replay_session(stream, &mut NullSink).result.rounds))
            },
        );
        assert_eq!(service.graph(), &g0, "palindrome must restore the start");

        let sustained = service
            .sustained_rounds_per_sec()
            .expect("sessions were serviced");
        sustained_scalars.push((n, sustained));
    }
    group.finish();
    for (n, sustained) in sustained_scalars {
        c.report_scalar(format!("service/sustained_rounds_per_sec/{n}"), sustained);
    }
}

criterion_group!(benches, bench_service_sessions);
criterion_main!(benches);
