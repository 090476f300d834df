//! Swap-dynamics simulation engine and exhaustive tree census.
//!
//! The paper studies the *statics* of swap equilibria; this crate supplies
//! the *dynamics* that find them: agents activated under a schedule apply
//! improving swaps until none exists. Because the basic game is not known
//! to admit a potential function, the engine carries cycle detection and a
//! round cap, and reports honestly which of {converged, cycled, capped}
//! happened.
//!
//! * [`engine`] — the sequential dynamics loop ([`engine::SwapDynamics`])
//!   with round-robin / random / greedy-global schedules and best- or
//!   first-improving response rules;
//! * [`rounds`] — the **round-based** engine ([`rounds::RoundDynamics`]):
//!   whole activation rounds evaluated against one frozen snapshot,
//!   conflicts resolved deterministically (lowest agent index), accepted
//!   moves applied to the maintained base matrix as one batch repair at
//!   the round barrier;
//! * [`service`] — the round loop itself, as the long-running round
//!   service ([`service::RoundService`]): sessions stream thousands of
//!   rounds through one maintained context with no per-run setup, and
//!   every [`rounds::RoundDynamics`] run is one session of a fresh
//!   service;
//! * [`convergence`] — state hashing for cycle detection, with revisit
//!   periods;
//! * [`cache`] — equilibrium audits memoized by canonical graph strings,
//!   shared by the census and batch layers;
//! * [`census`] — the exhaustive tree classification behind Experiments
//!   E1/E2 (Theorems 1 and 4);
//! * [`batch`] — seeded multi-run experiments with summary statistics
//!   (Experiments E4 and E13).
//!
//! # How the engines consume the lower layers
//!
//! Both engines keep **one** `EvalContext` (hence one maintained
//! `DynamicApsp` base matrix) alive for a whole run: the sequential
//! engine patches it per move through `refresh_after`, the round engine
//! once per round through `refresh_after_batch` at the barrier. Pool
//! reuse is inherited: a run allocates its working set once and recycles
//! it across every round. See `ARCHITECTURE.md` at the repository root
//! for the full layer stack.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod census;
pub mod convergence;
pub mod engine;
pub mod recovery;
pub mod rounds;
pub mod service;
pub mod sink;

/// Fault-injection seam: with the `testkit` feature this resolves to the
/// deterministic fault registry's `fire` (see `bncg_testkit::faults`);
/// without it, to a constant `false` the optimizer deletes — release
/// builds carry no trace of the harness, mirroring how telemetry
/// compiles out.
#[cfg(feature = "testkit")]
pub(crate) use bncg_testkit::faults::fire as fault_point;

/// Inert stand-in for the fault seam when the `testkit` feature is off.
#[cfg(not(feature = "testkit"))]
#[inline(always)]
pub(crate) fn fault_point(_point: &'static str) -> bool {
    false
}

pub use cache::EquilibriumCache;
pub use census::{tree_census, tree_census_with_cache, TreeCensus};
pub use engine::{DynamicsConfig, DynamicsResult, Outcome, Response, Schedule, SwapDynamics};
pub use recovery::{read_journal, Journal, JournalRecord, JournalScan, RecoveryError};
pub use rounds::{resolve_round_with, step_round, RoundConfig, RoundDynamics, RoundResult};
pub use service::{
    AuditPolicy, AuditStats, JournalOptions, ResumeReport, RoundService, ServiceConfig,
    ServiceError, SessionReport,
};
pub use sink::{JsonlSink, MemorySink, MetricsSink, NullSink, RoundRecord};
