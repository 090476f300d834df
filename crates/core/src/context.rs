//! The pooled evaluation context — the seam every swap scan goes through.
//!
//! Before this module existed, every [`best_response`](crate::best_response)
//! call re-materialized a CSR snapshot and allocated fresh BFS scratch, and
//! every equilibrium audit rebuilt the base APSP from scratch. An
//! [`EvalContext`] owns those resources for a whole round of swap scans:
//!
//! * the **CSR snapshot** of the current graph, refreshed in place (no
//!   allocation) after each dynamics move via [`EvalContext::refresh`];
//! * the **base distance matrix**, built lazily at most once per snapshot
//!   and shared by every agent's old-cost lookup — held inside a
//!   [`DynamicApsp`] so that [`EvalContext::refresh_after`] can *patch* it
//!   after a single swap (truncated row repairs) instead of rebuilding `n`
//!   BFS trees per move;
//! * access to the thread-local **scratch and matrix pools** in
//!   `bncg_graph`, so per-agent BFS runs and per-edge masked APSPs recycle
//!   their buffers instead of allocating.
//!
//! The context is `Sync`: parallel sweeps (`find_improving_swap_par`,
//! [`GameRules::best_responses_par`](crate::rules::GameRules::best_responses_par))
//! share one `&EvalContext` across rayon workers,
//! each worker drawing from its own thread-local pools. Parallel variants
//! return **byte-identical** results to their sequential counterparts —
//! the winner is selected by lowest edge index, matching the sequential
//! scan order — so callers can switch freely between them (property tests
//! in `tests/evalcontext_props.rs` pin this down).

use std::sync::OnceLock;

use bncg_graph::adjacency::SwapApplied;
use bncg_graph::dynamic::{DynamicApsp, RepairStats, RepairStrategy};
use bncg_graph::{with_scratch, Csr, DistanceMatrix, Graph, V};
use rayon::prelude::*;

use crate::evaluator::EdgeSwapScan;
use crate::objective::Objective;
use crate::swap::ScoredSwap;

/// Edges scanned per parallel block in
/// [`EvalContext::find_improving_swap_par`]: one edge per worker thread.
/// Each block costs one masked-APSP of wall-clock regardless of width, so
/// the deterministic early exit never does more *wall-clock* work than the
/// sequential scan — and on a single-core host the block degenerates to
/// exactly the sequential short-circuit.
fn par_edge_block() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Pooled evaluation state for one graph snapshot.
///
/// Construct once per graph (or keep one alive across a dynamics run and
/// [`refresh`](EvalContext::refresh) it after each move), then route all
/// swap evaluation through it.
pub struct EvalContext {
    csr: Csr,
    base: OnceLock<DynamicApsp>,
}

impl EvalContext {
    /// Context for the current state of `g` (snapshots the CSR once).
    pub fn new(g: &Graph) -> Self {
        EvalContext {
            csr: g.to_csr(),
            base: OnceLock::new(),
        }
    }

    /// Re-snapshots `g` in place after a mutation.
    ///
    /// **Invalidation contract:** the cached base matrix is dropped (and
    /// its buffer recycled) only when `g`'s edge set actually differs from
    /// the current snapshot; a refresh against an unchanged graph keeps
    /// both the CSR and the matrix, so interleaving refreshes with audits
    /// costs nothing when no move was applied. Callers that know *which*
    /// move changed the graph should use
    /// [`refresh_after`](EvalContext::refresh_after) instead, which patches
    /// the matrix incrementally rather than dropping it.
    pub fn refresh(&mut self, g: &Graph) {
        if g.matches_csr(&self.csr) {
            return;
        }
        g.refresh_csr(&mut self.csr);
        if let Some(old) = self.base.take() {
            old.recycle();
        }
    }

    /// Re-snapshots `g` after the single swap recorded in `applied`,
    /// repairing the cached base matrix through the dynamic-distance
    /// subsystem ([`DynamicApsp`]) instead of discarding it.
    ///
    /// `g` must be the graph state *after* the move (the state
    /// [`Graph::apply_swap`] left behind when it produced `applied`). When
    /// no base matrix has been built yet this degrades to a plain CSR
    /// refill — laziness is preserved.
    ///
    /// Aggregation across a *span* of refreshes (a whole activation round,
    /// a whole trajectory) is exposed through
    /// [`dynamic_stats_snapshot`](Self::dynamic_stats_snapshot) +
    /// [`RepairStats::delta_since`]: snapshot before the span, diff after,
    /// and the cumulative counters (updates, rows repaired/blended) cover
    /// every call in between — not just the most recent one.
    ///
    /// # Examples
    /// ```
    /// use bncg_core::context::EvalContext;
    /// use bncg_core::objective::SumObjective;
    /// use bncg_core::rules::GameRules;
    /// use bncg_graph::generators::classic;
    ///
    /// let mut g = classic::path(7);
    /// let mut ctx = EvalContext::new(&g);
    /// ctx.base(); // force the matrix so the move exercises the repair
    /// let s = SumObjective.best_response(&ctx, 0).expect("endpoint improves");
    /// let rec = s.mv.apply(&mut g);
    /// ctx.refresh_after(&g, &rec);
    /// // The context now scores the *post-move* graph …
    /// assert_eq!(ctx.agent_cost::<SumObjective>(0), s.new_cost);
    /// // … and the move was serviced by row repair.
    /// assert_eq!(ctx.dynamic_stats_snapshot().incremental, 1);
    /// ```
    pub fn refresh_after(&mut self, g: &Graph, applied: &SwapApplied) {
        g.refresh_csr(&mut self.csr);
        if let Some(mut dyn_apsp) = self.base.take() {
            dyn_apsp.apply_swap(&self.csr, applied);
            let _ = self.base.set(dyn_apsp);
        }
    }

    /// Re-snapshots `g` after a whole **round** of swaps, repairing the
    /// cached base matrix as one batch at the round barrier
    /// ([`DynamicApsp::apply_batch`]): one multi-edge deletion pass on
    /// `g` minus the round's insertions, then the insertion blends in
    /// order.
    ///
    /// `g` must be the state after *all* of `batch` was applied, and the
    /// batch's moves must have pairwise edge-disjoint footprints relative
    /// to the round-start graph — the contract the round engine's
    /// lowest-agent-index conflict resolution guarantees. Byte-identical
    /// to calling [`refresh_after`](Self::refresh_after) per move through
    /// the intermediate states.
    pub fn refresh_after_batch(&mut self, g: &Graph, batch: &[SwapApplied]) {
        g.refresh_csr(&mut self.csr);
        if let Some(mut dyn_apsp) = self.base.take() {
            dyn_apsp.apply_batch(&self.csr, batch);
            let _ = self.base.set(dyn_apsp);
        }
    }

    /// Does nothing: the dynamic-distance subsystem has one deletion-repair
    /// implementation, and [`RepairStrategy`] has one variant. Kept for
    /// callers that still name it.
    pub fn set_repair_strategy(&mut self, _strategy: RepairStrategy) {}

    /// Update counters of the dynamic-distance subsystem, when a base
    /// matrix is currently cached.
    pub fn dynamic_stats(&self) -> Option<&RepairStats> {
        self.base.get().map(DynamicApsp::stats)
    }

    /// Owned snapshot of the dynamic-distance counters (zeroed default
    /// when no base matrix is cached yet). Pair with
    /// [`RepairStats::delta_since`] to aggregate over a span of
    /// [`refresh_after`](Self::refresh_after) /
    /// [`refresh_after_batch`](Self::refresh_after_batch) calls.
    pub fn dynamic_stats_snapshot(&self) -> RepairStats {
        self.dynamic_stats().copied().unwrap_or_default()
    }

    /// The CSR snapshot.
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.csr.n()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.csr.m()
    }

    /// The base all-pairs distance matrix of the snapshot, built on first
    /// use and cached until the next *effective*
    /// [`refresh`](EvalContext::refresh) (no-change refreshes and
    /// [`refresh_after`](EvalContext::refresh_after) keep it alive).
    pub fn base(&self) -> &DistanceMatrix {
        self.base
            .get_or_init(|| DynamicApsp::build(&self.csr))
            .matrix()
    }

    /// [`base`](Self::base) with a typed error instead of the panic when a
    /// finite distance overflows the compact `u16` domain
    /// ([`DynamicApsp::try_build`]) — the round service constructs its
    /// contexts through this seam so a pathological graph degrades a
    /// session instead of aborting the process. Identical caching
    /// behavior: on `Ok` the matrix is built at most once.
    pub fn try_base(&self) -> Result<&DistanceMatrix, bncg_graph::DistOverflow> {
        if self.base.get().is_none() {
            let dyn_apsp = DynamicApsp::try_build(&self.csr)?;
            // A concurrent base() may have won the race; either value is
            // the same deterministic build, so the loser is just dropped.
            let _ = self.base.set(dyn_apsp);
        }
        Ok(self.base.get().expect("just initialized").matrix())
    }

    /// Divergence audit over a sampled row stripe of the maintained base
    /// matrix: each listed row (and its maintained per-vertex cost
    /// aggregate) is checked against a fresh BFS, and the divergent rows
    /// are returned ([`DynamicApsp::verify_rows`]). Returns an empty list
    /// when no base matrix is cached — there is no maintained state to
    /// drift.
    pub fn audit_rows(&self, rows: &[V]) -> Vec<V> {
        match self.base.get() {
            Some(dyn_apsp) => dyn_apsp.verify_rows(&self.csr, rows),
            None => Vec::new(),
        }
    }

    /// Heals exactly the listed rows of the maintained base matrix
    /// (fresh BFS per row, in-place overwrite, aggregate re-reduce —
    /// [`DynamicApsp::rebuild_rows`]; no full-context rebuild). No-op
    /// when no base matrix is cached.
    pub fn heal_rows(&mut self, rows: &[V]) {
        if let Some(dyn_apsp) = self.base.get_mut() {
            dyn_apsp.rebuild_rows(&self.csr, rows);
        }
    }

    /// Fault-injection hook: corrupts one entry of the maintained base
    /// matrix ([`DynamicApsp::corrupt_entry`]) to exercise the audit
    /// escalation. Forces the base build if it has not happened yet.
    /// Compiled only into `testkit`-feature builds.
    #[cfg(feature = "testkit")]
    pub fn corrupt_base_entry(&mut self, u: V, v: V, d: bncg_graph::Dist) {
        self.base();
        self.base
            .get_mut()
            .expect("base just forced")
            .corrupt_entry(u, v, d);
    }

    /// Usage cost of agent `v` under `O` in the current snapshot.
    ///
    /// When a base matrix is cached this is an **`O(1)` lookup** into the
    /// dynamic subsystem's maintained per-vertex aggregates (row sums and
    /// eccentricities, refreshed only for the rows each repair touches);
    /// otherwise one pooled BFS (it does *not* force the full APSP — the
    /// dynamics engine calls this per activated agent).
    pub fn agent_cost<O: Objective>(&self, v: V) -> u64 {
        if let Some(dyn_apsp) = self.base.get() {
            return O::maintained_cost(dyn_apsp, v);
        }
        with_scratch(self.n(), |scratch| {
            scratch.run(&self.csr, v);
            O::cost_of_wide_row(&scratch.dist)
        })
    }

    /// Prepares the swap scan deleting edge `vw`, deriving the masked APSP
    /// by **copy-plus-repair** from the cached base matrix (built on first
    /// use) instead of `n` fresh masked BFS runs — see
    /// [`EdgeSwapScan::from_base`]. Call [`EdgeSwapScan::recycle`] when
    /// done to keep the loop allocation-free.
    pub fn scan(&self, v: V, w: V) -> EdgeSwapScan {
        EdgeSwapScan::from_base(&self.csr, self.base(), v, w)
    }

    /// First improving swap over the whole graph in deterministic scan
    /// order (edges ascending, then agent `u` before `v`), or `None` when
    /// the graph is swap-stable under `O`. Sequential with short-circuit.
    pub fn find_improving_swap<O: Objective>(&self) -> Option<ScoredSwap> {
        let base = self.base();
        for (u, v) in self.csr.edge_vec() {
            let found = self.edge_improving::<O>(base, u, v);
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Parallel version of [`find_improving_swap`](Self::find_improving_swap)
    /// with **identical** output: edges are scanned in worker-sized blocks
    /// (one edge per worker thread), each block fans out over rayon workers,
    /// and the lowest-indexed hit wins — exactly the sequential answer,
    /// with the sequential early exit preserved at block granularity.
    pub fn find_improving_swap_par<O: Objective>(&self) -> Option<ScoredSwap> {
        let base = self.base();
        let edges = self.csr.edge_vec();
        for block in edges.chunks(par_edge_block()) {
            let hits: Vec<Option<ScoredSwap>> = block
                .to_vec()
                .into_par_iter()
                .map(|(u, v)| self.edge_improving::<O>(base, u, v))
                .collect();
            if let Some(s) = hits.into_iter().flatten().next() {
                return Some(s);
            }
        }
        None
    }

    /// Sum of all *ordered* pairwise distances of the snapshot (the
    /// paper's social usage cost), read off the dynamic subsystem's
    /// maintained per-row aggregates — `O(n)` once the lazy base matrix
    /// exists. `None` while the graph is disconnected.
    pub fn social_cost(&self) -> Option<u64> {
        self.base(); // force the maintained matrix + aggregates
        let dyn_apsp = self.base.get().expect("base() just initialized it");
        let mut total = 0u64;
        for v in 0..self.n() as V {
            let s = dyn_apsp.cost_sum(v);
            if s == u64::MAX {
                return None;
            }
            total += s;
        }
        Some(total)
    }

    /// Smallest and largest agent cost under `O`. `(0, 0)` for the empty
    /// graph.
    ///
    /// Reads the dynamic subsystem's maintained per-vertex aggregates —
    /// `O(n)` lookups over costs that were updated alongside the repairs,
    /// instead of the `O(n²)` full-matrix rescan this used to be. (The
    /// first call on a fresh snapshot still pays the lazy base build.)
    pub fn cost_range<O: Objective>(&self) -> (u64, u64) {
        let n = self.n();
        if n == 0 {
            return (0, 0);
        }
        self.base(); // force the maintained matrix + aggregates
        let dyn_apsp = self.base.get().expect("base() just initialized it");
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for v in 0..n as V {
            let c = O::maintained_cost(dyn_apsp, v);
            lo = lo.min(c);
            hi = hi.max(c);
        }
        (lo, hi)
    }

    /// Scans one edge for an improving swap: agent `u` first, then `v`,
    /// sharing a single pooled masked APSP.
    fn edge_improving<O: Objective>(
        &self,
        base: &DistanceMatrix,
        u: V,
        v: V,
    ) -> Option<ScoredSwap> {
        let scan = self.scan(u, v);
        let mut found = None;
        for agent in [u, v] {
            let old = O::cost_of_row(base.row(agent));
            if let Some(s) = scan.best_improving::<O>(agent, old) {
                found = Some(s);
                break;
            }
        }
        scan.recycle();
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{MaxObjective, SumObjective};
    use crate::rules::GameRules;
    use bncg_graph::generators::classic;

    #[test]
    fn context_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<EvalContext>();
    }

    #[test]
    fn refresh_tracks_mutations() {
        let mut g = classic::path(6);
        let mut ctx = EvalContext::new(&g);
        let s = SumObjective.best_response(&ctx, 0).expect("path improves");
        s.mv.apply(&mut g);
        ctx.refresh(&g);
        assert_eq!(ctx.m(), g.m());
        // After refresh the context scores agents on the new graph.
        assert_eq!(
            ctx.agent_cost::<SumObjective>(0),
            crate::evaluator::agent_cost::<SumObjective>(&g, 0)
        );
    }

    #[test]
    fn refresh_keeps_base_when_graph_unchanged() {
        let g = classic::cycle(7);
        let mut ctx = EvalContext::new(&g);
        let before = ctx.base().row(0).as_ptr();
        ctx.refresh(&g); // no-op: same edge set
        assert_eq!(
            ctx.base().row(0).as_ptr(),
            before,
            "no-change refresh must keep the cached matrix"
        );
        let mut h = g.clone();
        h.apply_swap(0, 1, 3);
        ctx.refresh(&h); // real change: cache dropped
        assert_eq!(
            ctx.agent_cost::<SumObjective>(0),
            crate::evaluator::agent_cost::<SumObjective>(&h, 0)
        );
    }

    #[test]
    fn refresh_after_patches_base_incrementally() {
        let mut g = classic::path(10);
        let mut ctx = EvalContext::new(&g);
        ctx.base(); // force the matrix so every move exercises the repair
        for _ in 0..12 {
            let Some(s) = (0..10).find_map(|v| SumObjective.best_response(&ctx, v)) else {
                break;
            };
            let rec = s.mv.apply(&mut g);
            ctx.refresh_after(&g, &rec);
            let fresh = EvalContext::new(&g);
            for v in 0..10 as V {
                assert_eq!(
                    ctx.base().row(v),
                    fresh.base().row(v),
                    "row {v} diverged after incremental refresh"
                );
            }
        }
        let stats = ctx.dynamic_stats().expect("base is cached");
        assert!(stats.updates > 0);
    }

    #[test]
    fn parallel_and_sequential_witnesses_agree() {
        for g in [
            classic::path(11),
            classic::cycle(12),
            classic::star(9),
            classic::grid(3, 5),
        ] {
            let ctx = EvalContext::new(&g);
            assert_eq!(
                ctx.find_improving_swap::<SumObjective>(),
                ctx.find_improving_swap_par::<SumObjective>()
            );
            assert_eq!(
                ctx.find_improving_swap::<MaxObjective>(),
                ctx.find_improving_swap_par::<MaxObjective>()
            );
        }
    }

    #[test]
    fn cost_range_matches_direct_scan() {
        let g = classic::star(8);
        let ctx = EvalContext::new(&g);
        assert_eq!(ctx.cost_range::<SumObjective>(), (7, 13));
        assert_eq!(ctx.cost_range::<MaxObjective>(), (1, 2));
    }
}
