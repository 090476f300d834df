//! Game telemetry assertions: the 2-neighborhood game's no-APSP guarantee,
//! asserted through the `apsp.*` telemetry counters, and the interest
//! game's masked kernel counted as a scalar dispatch.
//!
//! [`TwoNeighborhoodGame`] reports `needs_apsp() == false`, and every
//! engine gates its eager matrix builds, checkpoint CRCs, and resume
//! verification on that flag — so a full run across the engine family
//! (serial rounds, hand-stepped rounds, the service, a journal resume)
//! must never build or repair a distance matrix. Telemetry
//! counters are process-global, so these assertions live alone in their
//! own test binary: the single `#[test]` below runs the whole sequence
//! serially and owns the counters for the process lifetime.

#![cfg(feature = "telemetry")]

use bncg::conformance::trace_engines;
use bncg::dynamics::engine::Response;
use bncg::dynamics::rounds::{RoundConfig, RoundDynamics};
use bncg::game::objective::SumObjective;
use bncg::game::rules::TwoNeighborhoodGame;
use bncg::graph::generators::random::gnp;
use bncg::graph::kernels::{self, Dist};
use bncg::graph::V;
use bncg::telemetry;
use bncg::testkit::conformance::assert_equivalent;
use rand::rngs::StdRng;
use rand::SeedableRng;

const APSP_COUNTERS: [&str; 3] = ["apsp.builds", "apsp.rows_repaired", "apsp.rows_blended"];

fn apsp_totals() -> [u64; 3] {
    APSP_COUNTERS.map(|name| telemetry::counter(name).get())
}

#[test]
fn two_neighborhood_game_never_touches_the_apsp_subsystem() {
    let mut rng = StdRng::seed_from_u64(0x2B2B);
    let before = apsp_totals();

    // The full engine fan-out — including a journaled crash/resume —
    // under the 2-neighborhood rules, on graphs busy enough to run
    // several rounds each.
    for i in 0..3 {
        let g = gnp(&mut rng, 20 + 2 * i, 0.15);
        for response in [Response::Best, Response::FirstImproving] {
            let traces = trace_engines(
                &TwoNeighborhoodGame,
                &g,
                RoundConfig {
                    response,
                    ..RoundConfig::default()
                },
            );
            assert_equivalent(&traces, "2nb telemetry fan-out");
        }
    }

    let after = apsp_totals();
    for (i, name) in APSP_COUNTERS.iter().enumerate() {
        assert_eq!(
            after[i] - before[i],
            0,
            "{name} moved during a 2-neighborhood run: the no-APSP fast \
             path regressed"
        );
    }

    // Sanity that the counters are live at all: the basic game on the
    // same start must build (and, over rounds, repair) the matrix.
    let g = gnp(&mut rng, 20, 0.15);
    RoundDynamics::<SumObjective>::new(RoundConfig::default()).run(&g);
    let basic = apsp_totals();
    assert!(
        basic[0] > after[0],
        "apsp.builds must move under the basic game — is telemetry wired?"
    );

    // The interest game's masked kernel is a scalar loop on every
    // stratum, so a call counts as a scalar dispatch even when its index
    // set is a full vector wide.
    let simd = || {
        telemetry::counter("kernels.dispatch.sse2").get()
            + telemetry::counter("kernels.dispatch.neon").get()
    };
    let scalar = || telemetry::counter("kernels.dispatch.scalar").get();
    let (simd0, scalar0) = (simd(), scalar());
    let row: Vec<Dist> = (0..32).collect();
    let idx: Vec<V> = (0..16).collect();
    assert_eq!(kernels::masked_row_cost(&row, &idx), 120);
    assert_eq!(scalar() - scalar0, 1, "the masked kernel counts as scalar");
    assert_eq!(
        simd() - simd0,
        0,
        "the masked kernel never dispatches to SIMD"
    );
}
