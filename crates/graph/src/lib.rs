//! Graph substrate for the *basic network creation games* reproduction
//! (Alon, Demaine, Hajiaghayi, Leighton — SPAA 2010).
//!
//! This crate is a from-scratch, dependency-light graph library tuned for the
//! workloads of the paper: simple undirected graphs on up to ~10⁵ vertices,
//! breadth-first-search–based metric computations (sums of distances,
//! eccentricities, diameters), exhaustive enumeration of small trees, and the
//! generators behind every construction in the paper.
//!
//! # Layout
//!
//! * [`Graph`] — mutable adjacency-list graph supporting the *edge swap*
//!   operation at the heart of the game.
//! * [`Csr`] — immutable compressed-sparse-row snapshot used by all hot
//!   loops; [`bfs`] runs on it with reusable scratch buffers.
//! * [`DistanceMatrix`] — all-pairs shortest paths (computed in parallel
//!   with rayon), plus the single-edge *insertion identities* used to
//!   evaluate many candidate moves from one APSP (see the crate-level
//!   documentation of [`distance`]).
//! * [`DynamicApsp`] — the dynamic-distance subsystem: the same matrix
//!   maintained incrementally across single-edge swaps (truncated
//!   Ramalingam–Reps row repairs; see [`dynamic`]), together with
//!   per-vertex cost aggregates (row sums and eccentricities) updated only
//!   for the rows each repair touches.
//! * [`kernels`] — the compact-distance kernel layer: `u16` rows,
//!   SIMD min-plus blends, fused batch blends, and one-pass row
//!   aggregates; every hot scan above routes through it.
//! * [`generators`] — classic families, random models, Prüfer codecs, and
//!   exhaustive rooted/free tree enumeration (Beyer–Hedetniemi + AHU).
//! * [`canon`] — AHU tree canonicalization and brute-force canonical forms
//!   for small graphs.
//! * [`ops`] — graph operators (powers, complements, unions, …); the power
//!   graph is the uniformization device of the paper's Theorem 13.
//!
//! # Distance conventions
//!
//! Two distance encodings coexist, with a checked seam between them:
//!
//! * **Compact** ([`Dist`] = `u16`): what every matrix row stores and
//!   every kernel operates on. Unreachable pairs hold the sentinel
//!   [`UNREACHABLE_D`] (`u16::MAX`), chosen so lane-saturating adds
//!   implement "unreachable + 1 = unreachable" branch-free; finite
//!   distances stay `≤` [`MAX_FINITE_DIST`] (`u16::MAX − 2`, so `d + 1`
//!   can never collide with the sentinel in the repair walker's level
//!   arithmetic). Builders reject `n > 65 534` up front.
//! * **Wide** (`u32`, sentinel [`UNREACHABLE`]): the BFS scratch layer and
//!   the widening scalar accessors ([`DistanceMatrix::get`] and friends),
//!   so metric consumers keep plain `u32` arithmetic. The
//!   [`kernels::narrow_checked`] seam panics — never wraps — on a finite
//!   distance that does not fit the compact domain.
//!
//! # Pool-reuse contract
//!
//! The hot paths are allocation-free at steady state because every big
//! buffer cycles through a **thread-local pool**: BFS scratch
//! ([`with_scratch`]), matrix backing buffers
//! ([`DistanceMatrix::recycle`] / `clone_pooled`), and the repair scratch
//! inside [`dynamic`]. The contract is uniform: *dropping* a pooled value
//! is always correct (pools are a performance lever, never a correctness
//! requirement), pools are per-thread so rayon workers compose without
//! locking, and each pool is capacity-capped so pathological sweeps
//! cannot hoard memory. Callers that finish with a matrix should
//! `recycle()` it so the next build on that thread reuses the buffer.
//!
//! # Quick example
//!
//! ```
//! use bncg_graph::{Graph, generators::classic};
//!
//! let g = classic::star(8);
//! let csr = g.to_csr();
//! let dm = bncg_graph::DistanceMatrix::build(&csr);
//! assert_eq!(dm.diameter(), Some(2));
//! ```

#![warn(missing_docs)]
// Unsafe code is denied workspace-wide; the single exception is the
// `#[allow]`-scoped SIMD module in `kernels` (unaligned vector loads and
// stores on in-bounds slice regions, invariants documented there).

pub mod adjacency;
pub mod articulation;
pub mod bfs;
pub mod canon;
pub mod components;
pub mod csr;
pub mod distance;
pub mod dynamic;
pub mod generators;
pub mod girth;
pub mod graph6;
pub mod io;
pub mod kernels;
pub mod ops;
pub mod properties;

pub use adjacency::{Edge, Graph};
pub use bfs::{bfs_distances, with_scratch, BfsScratch};
pub use csr::Csr;
pub use distance::{DistanceMatrix, UNREACHABLE};
pub use dynamic::{DynamicApsp, RepairStats, RepairStrategy};
pub use kernels::{Dist, DistOverflow, MAX_FINITE_DIST, UNREACHABLE_D};

/// Vertex identifier. Graphs in this workspace are small enough (≤ ~10⁵
/// vertices) that `u32` indices keep every structure compact and cache
/// friendly, per the HPC sizing guidance.
pub type V = u32;
