//! Criterion benchmark harness for the bncg workspace (see benches/),
//! plus the shared workload definitions and the CI perf gate for the
//! dynamic-distance subsystem.
//!
//! The gate below is an `#[ignore]`d test so `cargo test --workspace`
//! stays timing-free; the CI bench-smoke job runs it explicitly with
//! `cargo test -p bncg_bench --release -- --ignored`.

pub mod workload {
    //! The trajectory-replay workload shared by `benches/incremental.rs`
    //! and the CI perf gate — one definition, so the published
    //! `BENCH_incremental.json` numbers and the regression gate can never
    //! measure different things.

    use bncg_core::context::EvalContext;
    use bncg_core::objective::SumObjective;
    use bncg_core::rules::GameRules;
    use bncg_core::swap::SwapMove;
    use bncg_graph::adjacency::Edge;
    use bncg_graph::Graph;
    use rand::Rng;

    /// Records up to `k` improving round-robin best-response moves from
    /// `g0` — the exact move stream a dynamics run would apply.
    pub fn record_trajectory(g0: &Graph, k: usize) -> Vec<SwapMove> {
        let mut g = g0.clone();
        let n = g.n();
        let mut ctx = EvalContext::new(&g);
        let mut moves = Vec::new();
        let mut progressed = true;
        while moves.len() < k && progressed {
            progressed = false;
            for v in 0..n as u32 {
                if moves.len() == k {
                    break;
                }
                if let Some(s) = SumObjective.best_response(&ctx, v) {
                    let rec = s.mv.apply(&mut g);
                    ctx.refresh_after(&g, &rec);
                    moves.push(s.mv);
                    progressed = true;
                }
            }
        }
        moves
    }

    /// Replays the recorded moves with a per-move base-matrix audit (what
    /// the traced engine and equilibrium monitors do), using either the
    /// incremental (`refresh_after`) or the full (`refresh`) path.
    pub fn replay(g0: &Graph, moves: &[SwapMove], incremental: bool) -> u32 {
        let mut g = g0.clone();
        let mut ctx = EvalContext::new(&g);
        let last = (g.n() - 1) as u32;
        let mut acc = ctx.base().get(0, last); // initial build, paid by both arms
        for mv in moves {
            let rec = mv.apply(&mut g);
            if incremental {
                ctx.refresh_after(&g, &rec);
            } else {
                ctx.refresh(&g);
            }
            acc ^= ctx.base().get(0, last);
        }
        acc
    }

    /// Synthesizes one activation **round**: up to `k` proper swaps with
    /// pairwise-disjoint edge footprints, each valid against the current
    /// state of `g` — the well-formedness the round engine's conflict
    /// resolution guarantees, without paying `n` best-response scans to
    /// produce it (the repair path under measurement does not care how
    /// the moves were chosen).
    pub fn synth_round<R: Rng>(rng: &mut R, g: &Graph, k: usize) -> Vec<SwapMove> {
        let edges = g.edge_vec();
        if edges.is_empty() {
            return Vec::new();
        }
        let n = g.n() as u32;
        let mut touched: Vec<Edge> = Vec::new();
        let mut round = Vec::new();
        for _ in 0..16 * k {
            if round.len() == k {
                break;
            }
            let e = edges[rng.gen_range(0..edges.len())];
            let (v, w) = if rng.gen_bool(0.5) {
                (e.u, e.v)
            } else {
                (e.v, e.u)
            };
            let w2 = rng.gen_range(0..n);
            if w2 == v || w2 == w || g.has_edge(v, w2) {
                continue; // proper swaps only: every record is `Swapped`
            }
            let fp = [Edge::new(v, w), Edge::new(v, w2)];
            if fp.iter().any(|edge| touched.contains(edge)) {
                continue;
            }
            touched.extend_from_slice(&fp);
            round.push(SwapMove { v, w, w2 });
        }
        round
    }

    /// Synthesizes `rounds` successive rounds of `k` swaps each, every
    /// round valid against the graph state its predecessors left behind.
    pub fn synth_round_stream<R: Rng>(
        rng: &mut R,
        g0: &Graph,
        rounds: usize,
        k: usize,
    ) -> Vec<Vec<SwapMove>> {
        let mut g = g0.clone();
        (0..rounds)
            .map(|_| {
                let round = synth_round(rng, &g, k);
                for mv in &round {
                    mv.apply(&mut g);
                }
                round
            })
            .collect()
    }

    /// Extends a synthesized round stream with its own inverse — each
    /// round's moves inverted (`v, w, w2` → `v, w2, w`), rounds in
    /// reverse order — producing a palindrome that returns the graph to
    /// its start state. Footprint-disjointness and validity survive the
    /// inversion (each inverse round undoes exactly its forward round
    /// against the state that round left behind), so the palindrome is a
    /// well-formed stream a long-running service can replay forever: the
    /// session workload of `benches/service.rs` and the service CI gate.
    pub fn synth_round_palindrome<R: Rng>(
        rng: &mut R,
        g0: &Graph,
        rounds: usize,
        k: usize,
    ) -> Vec<Vec<SwapMove>> {
        let mut stream = synth_round_stream(rng, g0, rounds, k);
        let inverse: Vec<Vec<SwapMove>> = stream
            .iter()
            .rev()
            .map(|round| {
                round
                    .iter()
                    .map(|mv| SwapMove {
                        v: mv.v,
                        w: mv.w2,
                        w2: mv.w,
                    })
                    .collect()
            })
            .collect();
        stream.extend(inverse);
        stream
    }

    /// Replays a round stream with a per-round base-matrix audit, routing
    /// the refresh either through one batch repair at each round barrier
    /// (`batched = true`) or through per-swap repairs across the round's
    /// intermediate states (`batched = false`). Identical results either
    /// way — that is pinned by `tests/round_dynamics_props.rs` — so the
    /// timing difference isolates the batching itself.
    pub fn replay_round_stream(g0: &Graph, stream: &[Vec<SwapMove>], batched: bool) -> u32 {
        let mut g = g0.clone();
        let mut ctx = EvalContext::new(&g);
        let last = (g.n() - 1) as u32;
        let mut acc = ctx.base().get(0, last); // initial build, paid by both arms
        for round in stream {
            if batched {
                let batch: Vec<_> = round.iter().map(|mv| mv.apply(&mut g)).collect();
                ctx.refresh_after_batch(&g, &batch);
            } else {
                for mv in round {
                    let rec = mv.apply(&mut g);
                    ctx.refresh_after(&g, &rec);
                }
            }
            acc ^= ctx.base().get(0, last);
        }
        acc
    }

    /// The batched arm of [`replay_round_stream`], with every round
    /// barrier routed through the engines' actual resolution seam,
    /// [`resolve_round_with`](bncg_dynamics::resolve_round_with) under
    /// the basic game's [`GameRules`]
    /// implementation — footprint resolution plus the (always-true)
    /// `legal_in_batch` hook. The stream's rounds are footprint-disjoint
    /// by construction, so every move survives resolution and the
    /// repaired matrices are bit-identical to the plain batched arm;
    /// the timing difference isolates the cost of the rules indirection
    /// at the barrier, which the CI gate pins to noise level.
    pub fn replay_round_stream_rules(g0: &Graph, stream: &[Vec<SwapMove>]) -> u32 {
        use bncg_core::swap::ScoredSwap;
        let rules = SumObjective;
        let mut g = g0.clone();
        let mut ctx = EvalContext::new(&g);
        let last = (g.n() - 1) as u32;
        let mut acc = ctx.base().get(0, last);
        for round in stream {
            let proposals: Vec<Option<ScoredSwap>> = round
                .iter()
                .map(|&mv| {
                    Some(ScoredSwap {
                        mv,
                        old_cost: 1,
                        new_cost: 0,
                    })
                })
                .collect();
            let accepted = bncg_dynamics::resolve_round_with(&rules, &ctx, &proposals);
            assert_eq!(accepted.len(), round.len(), "synth round must survive");
            let batch: Vec<_> = accepted.iter().map(|s| s.mv.apply(&mut g)).collect();
            ctx.refresh_after_batch(&g, &batch);
            acc ^= ctx.base().get(0, last);
        }
        acc
    }
}

pub mod baseline {
    //! Scalar `u32` reference implementations of the row kernels — the
    //! exact pre-kernel-layer code, kept as the measured baseline for
    //! `benches/kernels.rs` and the CI kernel perf gate (one definition,
    //! so the published `BENCH_kernels.json` ratios and the regression
    //! gate can never measure different baselines).

    /// The old `SumObjective::cost_with_insertion`: branchy early-exit
    /// scan over wide rows.
    pub fn blend_cost_sum_u32(base: &[u32], via: &[u32]) -> u64 {
        let mut sum = 0u64;
        for (&b, &v) in base.iter().zip(via) {
            let d = b.min(v.saturating_add(1));
            if d == u32::MAX {
                return u64::MAX;
            }
            sum += u64::from(d);
        }
        sum
    }

    /// The old `MaxObjective::cost_with_insertion`.
    pub fn blend_cost_ecc_u32(base: &[u32], via: &[u32]) -> u64 {
        let mut m = 0u32;
        for (&b, &v) in base.iter().zip(via) {
            let d = b.min(v.saturating_add(1));
            if d == u32::MAX {
                return u64::MAX;
            }
            m = m.max(d);
        }
        u64::from(m)
    }

    /// The old two-objective row reduction (`cost_of_row`): sum + max in
    /// one early-exit pass.
    pub fn row_cost_u32(row: &[u32]) -> (u64, u32) {
        let mut sum = 0u64;
        let mut m = 0u32;
        for &d in row {
            if d == u32::MAX {
                return (u64::MAX, u32::MAX);
            }
            sum += u64::from(d);
            m = m.max(d);
        }
        (sum, m)
    }
}

#[cfg(test)]
mod perf_gate {
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    use bncg_core::context::EvalContext;
    use bncg_core::swap::SwapMove;
    use bncg_graph::components::connected_components;
    use bncg_graph::generators::random::random_connected;
    use bncg_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::workload::{
        record_trajectory, replay, replay_round_stream, replay_round_stream_rules,
        synth_round_stream,
    };

    /// Replays `stream` the way [`replay_round_stream`] does and returns
    /// the rows its updates repaired in total, with every update's
    /// `last_rows_walked` and whether the graph it started from was a
    /// forest: one entry per barrier when `batched`, one per swap
    /// otherwise.
    fn round_stream_repairs(
        g0: &Graph,
        stream: &[Vec<SwapMove>],
        batched: bool,
    ) -> (u64, Vec<(usize, bool)>) {
        let is_forest = |g: &Graph| g.m() + connected_components(g).1 == g.n();
        let mut g = g0.clone();
        let mut ctx = EvalContext::new(&g);
        ctx.base();
        let start = ctx.dynamic_stats_snapshot();
        let mut walked = Vec::new();
        for round in stream {
            if batched {
                let forest = is_forest(&g);
                let batch: Vec<_> = round.iter().map(|mv| mv.apply(&mut g)).collect();
                ctx.refresh_after_batch(&g, &batch);
                walked.push((ctx.dynamic_stats_snapshot().last_rows_walked, forest));
            } else {
                for mv in round {
                    let forest = is_forest(&g);
                    let rec = mv.apply(&mut g);
                    ctx.refresh_after(&g, &rec);
                    walked.push((ctx.dynamic_stats_snapshot().last_rows_walked, forest));
                }
            }
        }
        let repaired = ctx
            .dynamic_stats_snapshot()
            .delta_since(&start)
            .rows_repaired;
        (repaired, walked)
    }

    fn best_of(reps: usize, mut f: impl FnMut() -> u32) -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..reps {
            let t = Instant::now();
            black_box(f());
            best = best.min(t.elapsed());
        }
        best
    }

    /// The acceptance bar of the dynamic-distance subsystem, sized down to
    /// CI scale: replaying a real best-response move stream with per-move
    /// audits must be ≥ 2× faster through `refresh_after` than through
    /// full `refresh` rebuilds. Regressions in the repair path fail here
    /// before they reach `BENCH_incremental.json`.
    #[test]
    #[ignore = "perf gate — run by the CI bench-smoke job (release only)"]
    fn incremental_refresh_is_at_least_twice_as_fast() {
        let n = 512;
        let mut rng = StdRng::seed_from_u64(0x5A11);
        let g0 = random_connected(&mut rng, n, n / 4);
        let moves = record_trajectory(&g0, 8);
        assert!(moves.len() >= 4, "trajectory too short: {}", moves.len());
        // Warm both paths (thread-local pools, lazy allocations).
        black_box(replay(&g0, &moves, false));
        black_box(replay(&g0, &moves, true));
        let full = best_of(3, || replay(&g0, &moves, false));
        let incremental = best_of(3, || replay(&g0, &moves, true));
        assert_eq!(
            replay(&g0, &moves, false),
            replay(&g0, &moves, true),
            "paths must agree before their timings mean anything"
        );
        assert!(
            incremental * 2 <= full,
            "dynamic-distance subsystem regressed: incremental {incremental:?} vs full {full:?}"
        );
    }

    /// Round-mode gate: repairing a `k`-swap round as **one batch** at the
    /// round barrier must beat composing `k` sequential per-swap repairs
    /// (each through its own intermediate snapshot) at n = 2048 — the
    /// batch dedupes row repairs across the round's deletions and pays one
    /// CSR refill instead of `k`. Measured on random trees, the paper's
    /// canonical dynamics instances and the workload where per-deletion
    /// affected sets overlap most (every bridge deletion invalidates whole
    /// subtrees), so the dedup is the dominant term rather than the
    /// blend work both arms share.
    #[test]
    #[ignore = "perf gate — run by the CI bench-smoke job (release only)"]
    fn round_batch_repair_beats_sequential_repairs() {
        let n = 2048;
        let mut rng = StdRng::seed_from_u64(0x0520);
        let g0 = bncg_graph::generators::random::random_tree(&mut rng, n);
        let stream = synth_round_stream(&mut rng, &g0, 4, 16);
        assert!(
            stream.iter().all(|r| r.len() == 16),
            "round synthesis came up short"
        );
        assert_eq!(
            replay_round_stream(&g0, &stream, true),
            replay_round_stream(&g0, &stream, false),
            "paths must agree before their timings mean anything"
        );
        // The structural claim, in counters on the same stream. A barrier
        // repairs each row once however many of the round's deletions
        // reach it, so the batched arm repairs fewer rows in total. And an
        // update on a forest walks no row, batched or not: every deletion
        // there cuts a component off, which each row stamps unreachable
        // instead. The stream keeps a tree only through its first barrier
        // (`w2` is drawn anywhere, so about half the swaps close a cycle),
        // and the later updates walk the rows those cycles reach.
        let (sequential_rows, swaps) = round_stream_repairs(&g0, &stream, false);
        let (batched_rows, barriers) = round_stream_repairs(&g0, &stream, true);
        assert!(
            batched_rows < sequential_rows,
            "batch repaired {batched_rows} rows vs {sequential_rows} sequentially"
        );
        assert!(barriers[0].1, "the stream must start on a tree");
        for (what, updates) in [("barrier", &barriers), ("swap", &swaps)] {
            for (i, &(walked, forest)) in updates.iter().enumerate() {
                assert!(
                    !forest || walked == 0,
                    "{what} {i} walked {walked} rows on a forest"
                );
            }
        }
        // The measured advantage (~2.5× on `benches/rounds.rs`'s n = 2048
        // tree stream since single swaps stamp cut-off components too,
        // ~2.8× when only the batch did, ~1.8× before) is thinner than the
        // incremental gate's, so the arms are measured in *interleaved*
        // best-of-5 pairs: a spurious failure would need noise to inflate
        // every batched rep while sparing some adjacent sequential rep,
        // rather than one bad scheduling window swallowing a whole arm.
        let mut sequential = Duration::MAX;
        let mut batched = Duration::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            black_box(replay_round_stream(&g0, &stream, false));
            sequential = sequential.min(t.elapsed());
            let t = Instant::now();
            black_box(replay_round_stream(&g0, &stream, true));
            batched = batched.min(t.elapsed());
        }
        assert!(
            batched < sequential,
            "batch repair regressed: batched {batched:?} vs sequential {sequential:?}"
        );
    }

    /// Masked-scan gate: deriving a deleted edge's APSP from the base
    /// matrix by copy-plus-repair must beat the `n` fresh masked BFS runs
    /// it replaced, at n = 2048.
    #[test]
    #[ignore = "perf gate — run by the CI bench-smoke job (release only)"]
    fn masked_scan_from_base_beats_fresh_masked_apsp() {
        use bncg_graph::dynamic::masked_apsp_from_base;
        use bncg_graph::DistanceMatrix;

        let n = 2048;
        let mut rng = StdRng::seed_from_u64(0x5CAB);
        let g = random_connected(&mut rng, n, n / 4);
        let csr = g.to_csr();
        let base = DistanceMatrix::build(&csr);
        let edge = {
            let e = g.edge_vec()[0];
            (e.u, e.v)
        };
        // Warm the pools, and prove byte identity while at it.
        let a = masked_apsp_from_base(&csr, &base, edge);
        let b = DistanceMatrix::build_masked(&csr, edge);
        assert_eq!(a, b, "copy-plus-repair must be byte-identical");
        a.recycle();
        b.recycle();
        let fresh = best_of(3, || {
            let m = DistanceMatrix::build_masked(&csr, edge);
            let x = m.get(0, (n - 1) as u32);
            m.recycle();
            x
        });
        let derived = best_of(3, || {
            let m = masked_apsp_from_base(&csr, &base, edge);
            let x = m.get(0, (n - 1) as u32);
            m.recycle();
            x
        });
        assert!(
            derived < fresh,
            "masked scan regressed: from-base {derived:?} vs fresh {fresh:?}"
        );
    }

    /// Kernel-layer gate: the vectorized u16 sum-blend kernel must beat
    /// the scalar u32 baseline it replaced by ≥ 1.5× at n = 2048. The
    /// blend is the single hottest scan in swap scoring (one per candidate
    /// per deleted edge), so a regression here taxes everything above it.
    #[test]
    #[ignore = "perf gate — run by the CI bench-smoke job (release only)"]
    fn kernel_sum_blend_beats_scalar_u32_by_1_5x() {
        use bncg_graph::kernels::{self, Dist};
        use rand::Rng;

        let n = 2048usize;
        let mut rng = StdRng::seed_from_u64(0x16B1);
        let base: Vec<Dist> = (0..n).map(|_| rng.gen_range(0..10u16)).collect();
        let via: Vec<Dist> = (0..n).map(|_| rng.gen_range(0..10u16)).collect();
        let base32: Vec<u32> = base.iter().map(|&d| u32::from(d)).collect();
        let via32: Vec<u32> = via.iter().map(|&d| u32::from(d)).collect();
        // Sanity: both paths agree before their timings mean anything.
        assert_eq!(
            kernels::blend_cost_sum(&base, &via),
            crate::baseline::blend_cost_sum_u32(&base32, &via32)
        );
        // Each measured shot amortizes the timer over many row passes.
        const REPS: usize = 4096;
        let vectorized = best_of(5, || {
            let mut acc = 0u64;
            for _ in 0..REPS {
                acc = acc.wrapping_add(kernels::blend_cost_sum(black_box(&base), black_box(&via)));
            }
            acc as u32
        });
        let scalar = best_of(5, || {
            let mut acc = 0u64;
            for _ in 0..REPS {
                acc = acc.wrapping_add(crate::baseline::blend_cost_sum_u32(
                    black_box(&base32),
                    black_box(&via32),
                ));
            }
            acc as u32
        });
        assert!(
            vectorized * 3 <= scalar * 2,
            "kernel regressed below 1.5x: vectorized {vectorized:?} vs scalar u32 {scalar:?}"
        );
    }

    /// End-to-end non-regression gate: replaying the canonical batched
    /// round workload (ER, n = 2048, 4 rounds × 16 swaps — the exact
    /// `round_replay_batched_er/2048` workload of `benches/rounds.rs`)
    /// must not run slower than the median recorded in the repo's
    /// `BENCH_rounds.json`, within a 1.5× allowance. The allowance is
    /// deliberately loose: identical code measures ±30% across runs on a
    /// busy single-core host, and this gate exists to catch the
    /// structural regressions (a lost fused blend, a disabled repair
    /// path — 1.5–2× slowdowns), not to re-litigate scheduler noise.
    /// When even that budget is blown, a same-process batched-vs-
    /// sequential ratio renders the final verdict, so a CI host that is
    /// uniformly slower than the recording host cannot fail the gate on
    /// speed alone.
    #[test]
    #[ignore = "perf gate — run by the CI bench-smoke job (release only)"]
    fn batched_round_replay_does_not_regress_vs_recorded() {
        let recorded_ns = recorded_median("round_replay_batched_er/2048")
            .expect("BENCH_rounds.json must record round_replay_batched_er/2048");
        let n = 2048usize;
        // Exactly the rounds-bench workload: same seed AND the same rng
        // consumption order — benches/rounds.rs draws all three family
        // graphs (er, tree, er_sparse) before synthesizing the ER round
        // stream, so the throwaway draws below keep the gate's stream
        // bit-identical to the one whose median is recorded.
        let mut rng = StdRng::seed_from_u64(0x0520 + n as u64);
        let g0 = random_connected(&mut rng, n, n / 4);
        let _tree = bncg_graph::generators::random::random_tree(&mut rng, n);
        let _sparse = random_connected(&mut rng, n, n / 64);
        let stream = synth_round_stream(&mut rng, &g0, 4, 16);
        assert!(stream.iter().all(|r| r.len() == 16));
        black_box(replay_round_stream(&g0, &stream, true)); // warm pools
        black_box(replay_round_stream(&g0, &stream, true));
        black_box(replay_round_stream(&g0, &stream, false));
        let measured = best_of(5, || replay_round_stream(&g0, &stream, true));
        let budget = Duration::from_nanos((recorded_ns * 1.5) as u64);
        if measured <= budget {
            return;
        }
        // Absolute budget blown — but the recording may simply come from
        // a faster host than this runner. Fall back to a same-process
        // ratio: a *structural* regression (lost fused blend, disabled
        // repair path) makes the batched arm lose to the sequential arm
        // outright, while a uniformly slower host slows both arms alike.
        let sequential = best_of(5, || replay_round_stream(&g0, &stream, false));
        assert!(
            measured <= sequential,
            "batched round replay regressed: measured {measured:?} vs recorded \
             {:?} (+50% allowance {budget:?}), and it also lost to the \
             same-process sequential arm ({sequential:?})",
            Duration::from_nanos(recorded_ns as u64)
        );
    }

    /// GameRules-routing gate: the canonical batched round workload (ER,
    /// n = 2048 — the recorded `round_replay_batched_er/2048` of
    /// `BENCH_rounds.json`, whose median predates the `GameRules`
    /// refactor and is deliberately *not* re-recorded), replayed with
    /// every round barrier routed through
    /// [`resolve_round_with`](bncg_dynamics::resolve_round_with) under
    /// the basic game, must land within 1.05× of that pre-refactor
    /// median: the rules indirection has to be free at the barrier. The
    /// 5% absolute budget is tight for a shared CI host, so when it is
    /// blown the verdict falls back to a same-process ratio against the
    /// plain (rules-free) batched arm — a real routing regression slows
    /// only the routed arm, while a uniformly slower host slows both.
    #[test]
    #[ignore = "perf gate — run by the CI conformance job (release only)"]
    fn gamerules_routed_replay_is_free_at_the_barrier() {
        let recorded_ns = recorded_median("round_replay_batched_er/2048")
            .expect("BENCH_rounds.json must record round_replay_batched_er/2048");
        let n = 2048usize;
        // Same seed and rng consumption order as the recorded workload
        // (see batched_round_replay_does_not_regress_vs_recorded).
        let mut rng = StdRng::seed_from_u64(0x0520 + n as u64);
        let g0 = random_connected(&mut rng, n, n / 4);
        let _tree = bncg_graph::generators::random::random_tree(&mut rng, n);
        let _sparse = random_connected(&mut rng, n, n / 64);
        let stream = synth_round_stream(&mut rng, &g0, 4, 16);
        // The routed arm must compute the exact same matrices.
        assert_eq!(
            replay_round_stream_rules(&g0, &stream),
            replay_round_stream(&g0, &stream, true)
        );
        black_box(replay_round_stream_rules(&g0, &stream)); // warm pools
        let routed = best_of(5, || replay_round_stream_rules(&g0, &stream));
        let budget = Duration::from_nanos((recorded_ns * 1.05) as u64);
        if routed <= budget {
            return;
        }
        let plain = best_of(5, || replay_round_stream(&g0, &stream, true));
        assert!(
            routed.as_nanos() * 100 <= plain.as_nanos() * 105,
            "GameRules routing regressed the round barrier: routed {routed:?} vs \
             recorded pre-refactor median {:?} (+5% budget {budget:?}), and it \
             also exceeded the same-process rules-free batched arm ({plain:?}) \
             by more than 5%",
            Duration::from_nanos(recorded_ns as u64)
        );
    }

    /// Telemetry overhead gate: the instrumented build must replay the
    /// canonical batched round workload (ER, n = 2048) within 1.05× of
    /// the instrumentation-free build. Two-step protocol, driven by the
    /// `BNCG_TELEMETRY_BASELINE` env var (a scratch file path):
    ///
    /// 1. `cargo test -p bncg_bench --release --no-default-features --
    ///    --ignored telemetry_overhead` — the telemetry-off build measures
    ///    the workload (best of 7) and **writes** the baseline ns to the
    ///    file;
    /// 2. the same command without `--no-default-features` — the
    ///    instrumented build measures the same workload and **asserts**
    ///    against the recorded baseline.
    ///
    /// The role switch is `cfg!(feature = "telemetry")`, so a single test
    /// serves both steps and the two builds cannot drift apart on the
    /// workload. With the env var unset (the plain `--ignored` sweep) the
    /// gate skips; set-but-missing-file in the assert step is a hard
    /// failure, so a mis-sequenced CI pipeline cannot silently pass.
    /// Both arms are best-of-7: the 5% budget is far tighter than this
    /// host's run-to-run spread, and minima are the only statistic stable
    /// enough to compare across two processes.
    #[test]
    #[ignore = "perf gate — run by the CI bench-smoke job (release only)"]
    fn telemetry_overhead_within_five_percent() {
        let Some(path) = std::env::var_os("BNCG_TELEMETRY_BASELINE") else {
            eprintln!("BNCG_TELEMETRY_BASELINE unset; skipping the telemetry overhead gate");
            return;
        };
        let path = std::path::PathBuf::from(path);
        let n = 2048usize;
        let mut rng = StdRng::seed_from_u64(0x0520 + n as u64);
        let g0 = random_connected(&mut rng, n, n / 4);
        let stream = synth_round_stream(&mut rng, &g0, 4, 16);
        assert!(stream.iter().all(|r| r.len() == 16));
        black_box(replay_round_stream(&g0, &stream, true)); // warm pools
        let measured = best_of(7, || replay_round_stream(&g0, &stream, true));
        if cfg!(feature = "telemetry") {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "BNCG_TELEMETRY_BASELINE is set but {} is unreadable ({e}); \
                     run this gate under --no-default-features first to record it",
                    path.display()
                )
            });
            let baseline_ns: u64 = text
                .trim()
                .parse()
                .expect("baseline file must hold one integer (best-of-7 ns)");
            let budget = Duration::from_nanos(baseline_ns + baseline_ns / 20);
            assert!(
                measured <= budget,
                "telemetry overhead exceeds 5%: instrumented {measured:?} vs \
                 disabled-build baseline {:?} (budget {budget:?})",
                Duration::from_nanos(baseline_ns)
            );
            eprintln!(
                "telemetry overhead OK: instrumented {measured:?} vs baseline {:?}",
                Duration::from_nanos(baseline_ns)
            );
        } else {
            std::fs::write(&path, format!("{}\n", measured.as_nanos()))
                .expect("write the telemetry-off baseline file");
            eprintln!(
                "recorded telemetry-off baseline {measured:?} to {}",
                path.display()
            );
        }
    }

    /// Round-service gate: a warm [`RoundService`] streaming sessions of
    /// the canonical palindromic round workload (trees, n = 2048, one
    /// round of 2 edge-disjoint swaps + its inverse) must sustain more
    /// rounds per second than the per-session serial batched engine on
    /// the same stream — i.e. one session through `replay_session` (no
    /// setup, incremental barriers only) must beat one
    /// `replay_round_stream` call (which pays the full APSP build every
    /// session, the pre-service calling convention). Both arms process
    /// byte-identical round streams; the palindrome returns the state to
    /// the start so every session sees the same work. Arms are measured
    /// in interleaved best-of-6 pairs like the round-batch gate. The
    /// margin is the amortized per-session APSP build, so the workload is
    /// the perturb-and-settle traffic the service exists for: short
    /// sessions of small batched rounds. At this size and seed a fresh
    /// build costs ~47ms against ~40ms of barrier repairs per 2-round
    /// session — a ~1.8x measured gap, comfortably above noise (heavy
    /// 16-swap rounds cost ~106ms *each*, which would drown the build in
    /// session time and turn the gate into a coin flip).
    #[test]
    #[ignore = "perf gate — run by the CI bench-smoke job (release only)"]
    fn warm_service_beats_per_session_replay() {
        use bncg_core::objective::SumObjective;
        use bncg_dynamics::service::{RoundService, ServiceConfig};
        use bncg_dynamics::sink::NullSink;

        let n = 2048;
        let mut rng = StdRng::seed_from_u64(0x5E21 + n as u64);
        let g0 = bncg_graph::generators::random::random_tree(&mut rng, n);
        let stream = crate::workload::synth_round_palindrome(&mut rng, &g0, 1, 2);
        assert!(
            stream.iter().all(|r| r.len() == 2),
            "round synthesis came up short"
        );
        let mut service = RoundService::<SumObjective>::new(&g0, ServiceConfig::default());
        // Warm both arms (pools, lazy allocations); the warm-up session
        // also proves the palindrome restores the start state, so every
        // measured session replays the identical workload.
        black_box(replay_round_stream(&g0, &stream, true));
        let report = service.replay_session(&stream, &mut NullSink);
        assert_eq!(report.result.rounds, stream.len());
        assert_eq!(service.graph(), &g0, "palindrome must restore the start");
        let mut per_session = Duration::MAX;
        let mut serviced = Duration::MAX;
        for _ in 0..6 {
            let t = Instant::now();
            black_box(replay_round_stream(&g0, &stream, true));
            per_session = per_session.min(t.elapsed());
            let t = Instant::now();
            black_box(service.replay_session(&stream, &mut NullSink).result.rounds);
            serviced = serviced.min(t.elapsed());
        }
        assert_eq!(service.graph(), &g0);
        assert!(
            serviced < per_session,
            "round service regressed: serviced session {serviced:?} vs \
             per-session engine {per_session:?}"
        );
    }

    /// Crash-safety tax gate: journaling every round barrier (audit off,
    /// no checkpoints) must cost at most 10% over the unjournaled warm
    /// service on the canonical n = 2048 palindromic batched replay. The
    /// journal's per-barrier work is one serialized record, one `write`,
    /// and one `fsync` — against a barrier whose batch repair already
    /// touches thousands of matrix rows, that must stay in the noise
    /// floor's neighborhood, and this gate keeps it there. Arms are
    /// interleaved best-of-6 (minima — the only cross-process-stable
    /// statistic on a shared CI host); the palindrome restores the start
    /// state so every session replays identical work.
    #[test]
    #[ignore = "perf gate — run by the CI bench-smoke job (release only)"]
    fn journaled_replay_overhead_within_ten_percent() {
        use bncg_core::objective::SumObjective;
        use bncg_dynamics::service::{JournalOptions, RoundService, ServiceConfig};
        use bncg_dynamics::sink::NullSink;

        let n = 2048;
        let mut rng = StdRng::seed_from_u64(0x3A11 + n as u64);
        let g0 = bncg_graph::generators::random::random_tree(&mut rng, n);
        let stream = crate::workload::synth_round_palindrome(&mut rng, &g0, 8, 2);
        assert!(
            stream.iter().all(|r| r.len() == 2),
            "round synthesis came up short"
        );
        let config = ServiceConfig::default();
        let mut plain = RoundService::<SumObjective>::new(&g0, config);
        let mut journaled = RoundService::<SumObjective>::new(&g0, config);
        let wal = std::env::temp_dir().join(format!(
            "bncg-bench-journal-gate-{}.wal",
            std::process::id()
        ));
        journaled
            .attach_journal(
                &wal,
                JournalOptions {
                    checkpoint_every: 0,
                },
            )
            .expect("journal in temp dir");
        // Warm both services (pools, lazy allocations) and prove the
        // palindrome restores the start, so every measured session
        // replays the identical workload.
        let report = plain.replay_session(&stream, &mut NullSink);
        assert_eq!(report.result.rounds, stream.len());
        assert_eq!(plain.graph(), &g0, "palindrome must restore the start");
        let _ = journaled.replay_session(&stream, &mut NullSink);
        assert_eq!(journaled.graph(), &g0);
        let mut plain_best = Duration::MAX;
        let mut journaled_best = Duration::MAX;
        for _ in 0..6 {
            let t = Instant::now();
            black_box(plain.replay_session(&stream, &mut NullSink).result.rounds);
            plain_best = plain_best.min(t.elapsed());
            let t = Instant::now();
            black_box(
                journaled
                    .replay_session(&stream, &mut NullSink)
                    .result
                    .rounds,
            );
            journaled_best = journaled_best.min(t.elapsed());
        }
        assert!(
            journaled.journal_error().is_none(),
            "the journal stream must stay healthy"
        );
        std::fs::remove_file(&wal).ok();
        let budget = plain_best + plain_best / 10;
        assert!(
            journaled_best <= budget,
            "journaling overhead exceeds 10%: journaled {journaled_best:?} vs \
             plain {plain_best:?} (budget {budget:?})"
        );
        eprintln!("journaling overhead OK: journaled {journaled_best:?} vs plain {plain_best:?}");
    }

    /// Median ns recorded for `id` in the repo's `BENCH_rounds.json`
    /// (hand-rolled parse — the record format is the criterion shim's own
    /// fixed output, one `{"id": …, "median_ns": …}` object per line).
    fn recorded_median(id: &str) -> Option<f64> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rounds.json");
        let text = std::fs::read_to_string(path).ok()?;
        for line in text.lines() {
            let Some(pos) = line.find(&format!("\"rounds/{id}\"")) else {
                continue;
            };
            let rest = &line[pos..];
            let key = "\"median_ns\": ";
            let start = rest.find(key)? + key.len();
            let tail = &rest[start..];
            let end = tail.find([',', '}'])?;
            return tail[..end].trim().parse().ok();
        }
        None
    }
}
