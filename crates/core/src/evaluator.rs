//! The fast swap evaluator.
//!
//! Checking equilibrium naively costs one BFS per *(agent, deleted edge,
//! candidate)* triple. The evaluator instead fixes the deleted edge `vw`,
//! computes the full APSP of `G − vw` once (parallel masked BFS), and then
//! scores **every** candidate `w'` with the insertion identity
//!
//! ```text
//! d_{G − vw + vw'}(v, x) = min( d_{G−vw}(v, x), 1 + d_{G−vw}(w', x) )
//! ```
//!
//! — valid because a shortest path from `v` can use the new edge at most
//! once, and if it does, the edge must come first (a simple path cannot
//! return to `v`). Deletions fall out for free: when `vw'` already exists
//! in `G − vw`, the blend changes nothing and the score is exactly the
//! deletion cost. Re-adding `w' = w` reproduces the original graph.
//!
//! One evaluator instance therefore answers every question the paper's
//! equilibrium notions pose about one (agent, edge) pair in `O(n)` per
//! candidate after one `O(n·m)` preprocessing step.

use bncg_graph::{Csr, DistanceMatrix, Graph, V};
use bncg_telemetry as telemetry;
use rayon::prelude::*;

use crate::objective::Objective;
use crate::swap::{ScoredSwap, SwapMove};

/// Below this vertex count the candidate loop ([`best_candidate`]) runs
/// sequentially: each candidate costs one `O(n)` row blend, so the loop
/// only becomes worth sharding over the persistent worker pool once `n²`
/// work is in play.
const PAR_CANDIDATE_MIN_N: usize = 1024;

/// Candidates per parallel shard of the candidate loop (large enough that
/// one shard amortizes a pool hand-off, small enough to fan out).
const PAR_CANDIDATE_CHUNK: usize = 256;

/// Scores all candidate swaps that delete a fixed edge `vw`.
pub struct EdgeSwapScan {
    /// APSP of `G − vw`.
    masked: DistanceMatrix,
    /// The deleted edge.
    pub edge: (V, V),
}

impl EdgeSwapScan {
    /// Prepares the scan for deleting edge `vw` of `g` (given as its CSR).
    ///
    /// # Panics
    /// Panics (in debug builds) if `vw` is not an edge of the graph backing
    /// `csr`.
    pub fn new(csr: &Csr, v: V, w: V) -> Self {
        debug_assert!(
            csr.neighbors(v).contains(&w),
            "EdgeSwapScan requires an existing edge vw"
        );
        EdgeSwapScan {
            masked: DistanceMatrix::build_masked(csr, (v, w)),
            edge: (v, w),
        }
    }

    /// Prepares the scan by **copy-plus-repair** from an exact base APSP
    /// of the graph backing `csr`, instead of `n` fresh masked BFS runs:
    /// the base matrix is cloned into a pooled buffer and only the rows
    /// the deleted edge actually lies on shortest paths of are repaired
    /// (see [`bncg_graph::dynamic::masked_apsp_from_base`]). Byte-identical
    /// to [`EdgeSwapScan::new`]; callers holding an
    /// [`EvalContext`](crate::context::EvalContext) get this path
    /// automatically through [`EvalContext::scan`](crate::context::EvalContext::scan).
    pub fn from_base(csr: &Csr, base: &DistanceMatrix, v: V, w: V) -> Self {
        EdgeSwapScan {
            masked: bncg_graph::dynamic::masked_apsp_from_base(csr, base, (v, w)),
            edge: (v, w),
        }
    }

    /// The masked distance matrix (of `G − vw`).
    pub fn masked(&self) -> &DistanceMatrix {
        &self.masked
    }

    /// Returns the scan's masked matrix buffer to the thread-local pool,
    /// making back-to-back scans (one per deleted edge) allocation-free.
    /// Dropping a scan without recycling is correct but allocates anew on
    /// the next scan.
    pub fn recycle(self) {
        self.masked.recycle();
    }

    /// Cost of agent `agent` after swapping the deleted edge onto `w2`
    /// (i.e. in the graph `G − vw + (agent, w2)`), under objective `O`.
    ///
    /// `agent` must be an endpoint of the deleted edge.
    #[inline]
    pub fn swap_cost<O: Objective>(&self, agent: V, w2: V) -> u64 {
        debug_assert!(agent == self.edge.0 || agent == self.edge.1);
        O::cost_with_insertion(self.masked.row(agent), self.masked.row(w2))
    }

    /// Cost of `agent` if the edge is deleted outright (no replacement).
    #[inline]
    pub fn deletion_cost<O: Objective>(&self, agent: V) -> u64 {
        O::cost_of_row(self.masked.row(agent))
    }

    /// Scores every candidate `w2 ≠ agent` for `agent ∈ {v, w}` against the
    /// baseline cost `old_cost`, returning the best strictly-improving swap
    /// (minimum new cost; ties broken by smallest `w2`). Runs the same
    /// candidate loop as the response sweep of
    /// [`best_response`](crate::best_response), sharded over the worker
    /// pool from `n = 1024` with a byte-identical result.
    pub fn best_improving<O: Objective>(&self, agent: V, old_cost: u64) -> Option<ScoredSwap> {
        let other = self.other_endpoint(agent);
        best_candidate(self.masked.n() as V, old_cost, |w2| {
            // w2 == other re-creates the original graph
            (w2 != agent && w2 != other).then(|| self.swap_cost::<O>(agent, w2))
        })
        .map(|(w2, new_cost)| ScoredSwap {
            mv: SwapMove {
                v: agent,
                w: other,
                w2,
            },
            old_cost,
            new_cost,
        })
    }

    /// The endpoint of the deleted edge that is not `agent`.
    #[inline]
    fn other_endpoint(&self, agent: V) -> V {
        if agent == self.edge.0 {
            self.edge.1
        } else {
            debug_assert_eq!(agent, self.edge.1);
            self.edge.0
        }
    }
}

/// The one candidate loop behind every response: prices each replacement
/// endpoint `w2 ∈ 0..n` through `price` (`None` skips `w2`: an endpoint of
/// the deleted edge, or an illegal move) and returns the cheapest strictly
/// improving candidate as `(w2, new_cost)`, ties broken by smallest `w2`.
///
/// For large `n` the loop is sharded over the persistent worker pool in
/// fixed chunks; shard winners are combined in ascending chunk order under
/// the same `(new_cost, w2)` ordering, so the result is **byte-identical**
/// to the sequential loop.
pub(crate) fn best_candidate<F>(n: V, old_cost: u64, price: F) -> Option<(V, u64)>
where
    F: Fn(V) -> Option<u64> + Sync,
{
    telemetry::counter!("swap_scan.sweeps").incr();
    if (n as usize) < PAR_CANDIDATE_MIN_N {
        return best_candidate_in(&price, old_cost, 0, n);
    }
    let chunks: Vec<V> = (0..n).step_by(PAR_CANDIDATE_CHUNK).collect();
    chunks
        .into_par_iter()
        .map(|lo| {
            let hi = (lo + PAR_CANDIDATE_CHUNK as V).min(n);
            best_candidate_in(&price, old_cost, lo, hi)
        })
        .collect::<Vec<Option<(V, u64)>>>()
        .into_iter()
        .flatten()
        .reduce(|a, b| if b.1 < a.1 { b } else { a })
}

/// Sequential candidate loop over `lo..hi` (one shard of
/// [`best_candidate`]).
fn best_candidate_in<F: Fn(V) -> Option<u64>>(
    price: &F,
    old_cost: u64,
    lo: V,
    hi: V,
) -> Option<(V, u64)> {
    let mut best: Option<(V, u64)> = None;
    let mut scored = 0u64;
    let mut improving = 0u64;
    for w2 in lo..hi {
        let Some(new_cost) = price(w2) else {
            continue;
        };
        scored += 1;
        if new_cost < old_cost {
            improving += 1;
            if best.is_none_or(|(_, c)| new_cost < c) {
                best = Some((w2, new_cost));
            }
        }
    }
    telemetry::counter!("swap_scan.candidates").add(scored);
    telemetry::counter!("swap_scan.improving").add(improving);
    best
}

/// Convenience: cost of agent `v` in `g` under objective `O` via one
/// pooled BFS. Callers holding an [`EvalContext`](crate::context::EvalContext)
/// should use [`EvalContext::agent_cost`](crate::context::EvalContext::agent_cost)
/// instead, which also skips the CSR snapshot.
pub fn agent_cost<O: Objective>(g: &Graph, v: V) -> u64 {
    let csr = g.to_csr();
    bncg_graph::with_scratch(g.n(), |scratch| {
        scratch.run(&csr, v);
        O::cost_of_wide_row(&scratch.dist)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{MaxObjective, SumObjective, INFINITE_COST};
    use bncg_graph::generators::classic;

    /// Brute-force cost of `v` in `G - vw + vw2`.
    fn brute_cost<O: Objective>(g: &Graph, v: V, w: V, w2: V) -> u64 {
        let mut h = g.clone();
        let rec = h.apply_swap(v, w, w2);
        let c = agent_cost::<O>(&h, v);
        h.undo_swap(rec);
        c
    }

    #[test]
    fn scan_matches_brute_force_on_cycle() {
        let g = classic::cycle(9);
        let csr = g.to_csr();
        let scan = EdgeSwapScan::new(&csr, 0, 1);
        for w2 in 2..9 as V {
            assert_eq!(
                scan.swap_cost::<SumObjective>(0, w2),
                brute_cost::<SumObjective>(&g, 0, 1, w2),
                "sum mismatch at w2={w2}"
            );
            assert_eq!(
                scan.swap_cost::<MaxObjective>(0, w2),
                brute_cost::<MaxObjective>(&g, 0, 1, w2),
                "max mismatch at w2={w2}"
            );
        }
    }

    #[test]
    fn deletion_cost_detects_disconnection() {
        let g = classic::path(5);
        let csr = g.to_csr();
        let scan = EdgeSwapScan::new(&csr, 2, 3);
        assert_eq!(scan.deletion_cost::<SumObjective>(2), INFINITE_COST);
        // Swapping 2-3 to 2-4 reconnects.
        assert_ne!(scan.swap_cost::<SumObjective>(2, 4), INFINITE_COST);
    }

    #[test]
    fn best_improving_finds_path_endpoint_shortcut() {
        // On a path, endpoint 0 (attached to 1) prefers attaching to the
        // center: old sum = 0+1+2+3+4 = 10, best new = attach to 2:
        // distances 2,1 via... compute: new graph 0-2 edge: d(0,1)=2? No:
        // path 0-1-2-3-4 becomes 1-2-3-4 plus 0-2: d(0,·)=[0,2,1,2,3] sum 8.
        let g = classic::path(5);
        let csr = g.to_csr();
        let scan = EdgeSwapScan::new(&csr, 0, 1);
        let old = agent_cost::<SumObjective>(&g, 0);
        assert_eq!(old, 10);
        let best = scan.best_improving::<SumObjective>(0, old).unwrap();
        assert_eq!(best.mv.w2, 2);
        assert_eq!(best.new_cost, 8);
    }

    #[test]
    fn no_improving_swap_on_star_leaf() {
        let g = classic::star(8);
        let csr = g.to_csr();
        let scan = EdgeSwapScan::new(&csr, 1, 0);
        let old = agent_cost::<SumObjective>(&g, 1);
        assert!(scan.best_improving::<SumObjective>(1, old).is_none());
        let oldm = agent_cost::<MaxObjective>(&g, 1);
        assert!(scan.best_improving::<MaxObjective>(1, oldm).is_none());
    }
}
