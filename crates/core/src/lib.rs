//! The **basic network creation game** of Alon, Demaine, Hajiaghayi and
//! Leighton (SPAA 2010) — the primary contribution of the paper this
//! workspace reproduces.
//!
//! `n` selfish agents sit at the vertices of a connected undirected graph.
//! The only move is the **edge swap**: agent `v` replaces one incident edge
//! `vw` with another incident edge `vw'` (swapping onto an existing edge
//! deletes `vw`). There is *no* edge-price parameter `α`; agents compare
//! networks only through their **usage cost**, in one of two flavors:
//!
//! * **sum** — `Σ_x d(v, x)`, the total distance to everyone; a graph is in
//!   **sum equilibrium** when no swap strictly decreases any agent's sum;
//! * **max** — `max_x d(v, x)`, the *local diameter*; a graph is in
//!   **max equilibrium** when no swap strictly decreases any agent's local
//!   diameter **and** the graph is *deletion-critical* (deleting any edge
//!   strictly increases the local diameter of both endpoints).
//!
//! The crate provides:
//!
//! * [`context`] — the pooled [`EvalContext`] every hot path threads
//!   through: one CSR snapshot + lazily cached base APSP + thread-local
//!   scratch/matrix pools, with parallel edge sweeps;
//! * [`objective`] — the two usage costs behind one trait;
//! * [`swap`] — move representation and candidate enumeration;
//! * [`evaluator`] — the fast scan evaluating *all* candidate swaps of a
//!   deleted edge from a single masked APSP (see `DESIGN.md` §4);
//! * [`equilibrium`] — equilibrium checkers and witnesses
//!   ([`SumGame`], [`MaxGame`]);
//! * [`stability`] — deletion-criticality, insertion-stability, and the
//!   `k`-insertion stability ladder of Section 4;
//! * [`rules`] — the [`GameRules`] rule sets (basic, bounded budget,
//!   interests, 2-neighborhood): each prices one candidate swap;
//! * [`best_response`] — the one response sweep every rule set plays
//!   through (best and first improving responses);
//! * [`verify`] — slow literal-transcription reference checkers, kept
//!   independent so property tests can cross-validate the fast path;
//! * [`lemmas`] — executable forms of Lemma 2, Lemma 3, Lemma 10,
//!   Corollary 11 and the Theorem 9 ball-growth inequality.
//!
//! # Conventions inherited from `bncg_graph`
//!
//! Costs are `u64` with [`INFINITE_COST`] (`u64::MAX`) for disconnected
//! agents — by construction equal to what the compact-row kernels report
//! when a row holds the `u16` sentinel, so objective code never branches
//! on reachability. The pool-reuse contract also carries through:
//! [`EvalContext`] keeps one CSR snapshot refreshed **in place**, builds
//! its base APSP lazily inside a `DynamicApsp` (repaired across moves,
//! never rebuilt per move), and every per-edge scan draws its masked
//! matrix from the thread-local pools — call `EdgeSwapScan::recycle` when
//! done to keep the loop allocation-free. See `ARCHITECTURE.md` at the
//! repository root for how this crate sits between the graph substrate
//! and the dynamics engines.
//!
//! # Example: Theorem 1 in one assertion
//!
//! ```
//! use bncg_core::equilibrium::SumGame;
//! use bncg_graph::generators::classic;
//!
//! // The star is in sum equilibrium …
//! assert!(SumGame::is_equilibrium(&classic::star(9)));
//! // … but the path is not: an endpoint prefers to re-attach elsewhere.
//! assert!(!SumGame::is_equilibrium(&classic::path(9)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod best_response;
pub mod context;
pub mod equilibrium;
pub mod evaluator;
pub mod kswap;
pub mod lemmas;
pub mod objective;
pub mod rules;
pub mod stability;
pub mod swap;
pub mod verify;

pub use context::EvalContext;
pub use equilibrium::{EquilibriumReport, MaxGame, SumGame};
pub use objective::{MaxObjective, Objective, SumObjective, INFINITE_COST};
pub use rules::{BoundedBudgetGame, GameRules, InterestGame, TwoNeighborhoodGame};
pub use swap::{ScoredSwap, SwapMove};
