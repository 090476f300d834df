//! All-pairs shortest paths and metric summaries.
//!
//! The paper's equilibrium notions are defined through two per-vertex
//! functionals of the shortest-path metric: the *sum of distances* (sum
//! version) and the *local diameter* / eccentricity (max version). This
//! module computes the full metric in parallel (one BFS per source, spread
//! over rayon workers) and exposes the two **insertion identities** that let
//! higher layers evaluate *every* single-edge insertion from one APSP:
//!
//! * `d_{G+uv}(u, x) = min(d_G(u, x), 1 + d_G(v, x))` — a shortest path from
//!   `u` uses the new edge at most once, and if so, first (a simple path
//!   cannot revisit `u`);
//! * hence the post-insertion sum/eccentricity of `u` is a single `O(n)`
//!   scan over precomputed rows.
//!
//! These identities are what make the Corollary 11 audit, the insertion
//! stability check of Theorem 12, and the skew-triple machinery of
//! Theorem 13 run at `O(n²)` instead of `O(n² · m)`.
//!
//! Storage is **compact**: every entry is a [`Dist`] (`u16`, sentinel
//! [`UNREACHABLE_D`]) — BFS distances in any graph this system handles fit
//! in 16 bits, and halving the matrix footprint doubles the effective
//! memory bandwidth of every row scan (see [`crate::kernels`]). The wide
//! `u32` convention (sentinel [`UNREACHABLE`]) survives at the BFS-scratch
//! boundary and in the scalar accessors below, which widen on read so
//! metric consumers keep their `u32` arithmetic.

use std::cell::RefCell;

use rayon::prelude::*;

use crate::bfs::BfsScratch;
use crate::kernels::{self, Dist, MAX_FINITE_DIST, UNREACHABLE_D};
use crate::{Csr, V};

/// Sentinel distance for unreachable pairs in the wide (`u32`) convention
/// used by the BFS layer and the widening scalar accessors.
pub const UNREACHABLE: u32 = u32::MAX;

/// Largest vertex count a dense compact matrix supports: every finite
/// distance must stay `≤` [`MAX_FINITE_DIST`], and a connected graph on
/// `n` vertices can realize distance `n − 1`.
pub const MAX_MATRIX_N: usize = MAX_FINITE_DIST as usize + 1;

thread_local! {
    /// Per-thread free list of matrix backing buffers. An `n × n` distance
    /// matrix is by far the largest allocation in the swap evaluator's hot
    /// loop (one masked APSP per scanned edge); recycling the backing
    /// `Vec` through [`DistanceMatrix::recycle`] makes steady-state scans
    /// allocation-free.
    static MATRIX_POOL: RefCell<Vec<Vec<Dist>>> = const { RefCell::new(Vec::new()) };
}

/// Per-thread cap on pooled matrix buffers, adapted to the buffer size: a
/// compact `n × n` matrix is `2n²` bytes (8 MiB at n = 2048 — half the
/// old `u32` footprint), so big-`n` buffers are capped tightly while
/// small-`n` sweeps (tree census, enumeration audits, the per-edge scans
/// of tiny graphs) may pool far more without memory pressure.
fn matrix_pool_cap(bytes: usize) -> usize {
    if bytes >= 1 << 22 {
        // ≥ 4 MiB per buffer (n ≳ 1448): a handful is plenty.
        4
    } else if bytes >= 1 << 16 {
        // 64 KiB ..= 4 MiB (n ≳ 181): mid-size working sets.
        16
    } else {
        // Small-n sweeps recycle aggressively; 64 buffers ≤ 4 MiB total.
        64
    }
}

/// Rejects vertex counts whose distances cannot fit the compact domain —
/// checked **before** the `n²` buffer is allocated, so oversized requests
/// fail fast instead of first committing gigabytes.
fn assert_matrix_n(n: usize) {
    assert!(
        n <= MAX_MATRIX_N,
        "DistanceMatrix supports at most {MAX_MATRIX_N} vertices (got {n}): \
         finite distances must fit the compact u16 domain"
    );
}

/// A backing buffer of length `len`, recycled when possible. Contents are
/// arbitrary; every builder below overwrites all `n × n` entries.
fn take_matrix_buf(len: usize) -> Vec<Dist> {
    MATRIX_POOL
        .with(|pool| pool.borrow_mut().pop())
        .map(|mut buf| {
            buf.resize(len, UNREACHABLE_D);
            buf
        })
        .unwrap_or_else(|| vec![UNREACHABLE_D; len])
}

fn give_matrix_buf(buf: Vec<Dist>) {
    MATRIX_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < matrix_pool_cap(buf.capacity() * size_of::<Dist>()) {
            pool.push(buf);
        }
    });
}

/// Below this vertex count the APSP builders fill rows sequentially on
/// pooled scratch: each per-row BFS is microseconds, far below the cost of
/// standing up worker threads — and the small case is exactly the one hit
/// thousands of times from *inside* outer parallel sweeps (per-edge masked
/// APSPs in census/audit workloads), where nested fan-out would
/// oversubscribe the machine.
const PAR_APSP_MIN_N: usize = 256;

/// Fills the `n` rows of `d`, choosing sequential (pooled scratch) or
/// parallel (per-worker scratch) execution by problem size. Each BFS runs
/// on wide (`u32`) scratch and is narrowed into its compact row through
/// the checked seam ([`BfsScratch::write_narrowed`]), which panics —
/// rather than wraps — on a finite distance beyond [`MAX_FINITE_DIST`].
fn fill_rows(d: &mut [Dist], n: usize, f: impl Fn(&mut BfsScratch, V, &mut [Dist]) + Sync) {
    if n < PAR_APSP_MIN_N {
        crate::bfs::with_scratch(n, |scratch| {
            for (src, row) in d.chunks_mut(n.max(1)).enumerate() {
                f(scratch, src as V, row);
            }
        });
    } else {
        d.par_chunks_mut(n.max(1)).enumerate().for_each_init(
            || BfsScratch::new(n),
            |scratch, (src, row)| f(scratch, src as V, row),
        );
    }
}

/// Dense all-pairs shortest-path matrix (row-major, `n × n`, compact
/// [`Dist`] entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    d: Vec<Dist>,
}

impl DistanceMatrix {
    /// Computes all-pairs shortest paths by parallel per-source BFS.
    pub fn build(csr: &Csr) -> Self {
        let n = csr.n();
        assert_matrix_n(n);
        let mut d = take_matrix_buf(n * n);
        fill_rows(&mut d, n, |scratch, src, row| {
            scratch.run(csr, src);
            scratch.write_narrowed(row);
        });
        DistanceMatrix { n, d }
    }

    /// [`build`](Self::build) with a typed error on finite-distance
    /// overflow instead of the panic — the service construction path.
    /// Oversized *vertex counts* still panic up front like every builder
    /// ([`MAX_MATRIX_N`] is a capacity contract, not a data condition);
    /// the `Err` arm covers a finite distance beyond
    /// [`MAX_FINITE_DIST`] discovered
    /// while narrowing rows.
    pub fn try_build(csr: &Csr) -> Result<Self, crate::kernels::DistOverflow> {
        use std::sync::atomic::{AtomicU32, Ordering};
        let n = csr.n();
        assert_matrix_n(n);
        let mut d = take_matrix_buf(n * n);
        // Rows narrow in parallel, so a poison cell carries the first
        // overflow out of the fill instead of unwinding across the pool.
        let poison = AtomicU32::new(0);
        fill_rows(&mut d, n, |scratch, src, row| {
            scratch.run(csr, src);
            if let Err(e) = scratch.try_write_narrowed(row) {
                poison.store(e.value.max(1), Ordering::Relaxed);
            }
        });
        let bad = poison.load(Ordering::Relaxed);
        if bad != 0 {
            give_matrix_buf(d);
            return Err(crate::kernels::DistOverflow { value: bad });
        }
        Ok(DistanceMatrix { n, d })
    }

    /// Computes all-pairs shortest paths of `G − xy` (one edge masked)
    /// without materializing the modified graph. This is the per-deleted-edge
    /// step of the swap evaluator.
    pub fn build_masked(csr: &Csr, mask: (V, V)) -> Self {
        let n = csr.n();
        assert_matrix_n(n);
        let mut d = take_matrix_buf(n * n);
        fill_rows(&mut d, n, |scratch, src, row| {
            scratch.run_masked(csr, src, mask);
            scratch.write_narrowed(row);
        });
        DistanceMatrix { n, d }
    }

    /// Computes all-pairs shortest paths with a *set* of edges masked out
    /// (the `k`-swap generalization of [`DistanceMatrix::build_masked`]).
    pub fn build_masked_many(csr: &Csr, masks: &[(V, V)]) -> Self {
        let n = csr.n();
        assert_matrix_n(n);
        let mut d = take_matrix_buf(n * n);
        fill_rows(&mut d, n, |scratch, src, row| {
            scratch.run_masked_many(csr, src, masks);
            scratch.write_narrowed(row);
        });
        DistanceMatrix { n, d }
    }

    /// Recomputes every row in place for `csr`, reusing the backing buffer
    /// (no allocation when the vertex count is unchanged): the full APSP
    /// that the incremental repairs of [`crate::dynamic`] are benchmarked
    /// against.
    pub fn rebuild(&mut self, csr: &Csr) {
        let n = csr.n();
        assert_matrix_n(n);
        self.n = n;
        self.d.resize(n * n, UNREACHABLE_D);
        fill_rows(&mut self.d, n, |scratch, src, row| {
            scratch.run(csr, src);
            scratch.write_narrowed(row);
        });
    }

    /// Raw mutable access to the row-major backing storage, for the
    /// in-place row repairs of [`crate::dynamic::DynamicApsp`].
    pub(crate) fn data_mut(&mut self) -> &mut [Dist] {
        &mut self.d
    }

    /// The row-major backing storage (`n × n` compact entries). Read-only
    /// — checkpoint CRCs and byte-identity audits hash this directly.
    pub fn data(&self) -> &[Dist] {
        &self.d
    }

    /// Copy of this matrix backed by a pooled buffer (parallel row copy
    /// for large `n`). This is the "copy" half of the copy-plus-repair
    /// masked scans in [`crate::dynamic::masked_apsp_from_base`]: cloning
    /// `n²` compact (`u16`) entries and repairing a few rows beats
    /// re-running `n` masked BFS traversals whenever the deleted edge's
    /// affected set is small.
    pub fn clone_pooled(&self) -> DistanceMatrix {
        let n = self.n;
        let mut d = take_matrix_buf(n * n);
        if n < PAR_APSP_MIN_N {
            d.copy_from_slice(&self.d);
        } else {
            let src = &self.d;
            d.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
                row.copy_from_slice(&src[i * n..(i + 1) * n]);
            });
        }
        DistanceMatrix { n, d }
    }

    /// Returns the backing buffer to this thread's matrix pool so the next
    /// [`DistanceMatrix::build`]/[`DistanceMatrix::build_masked`] call on
    /// this thread is allocation-free. Dropping a matrix instead of
    /// recycling it is always correct — recycling is purely a performance
    /// lever for hot loops (one masked APSP per scanned edge).
    pub fn recycle(self) {
        give_matrix_buf(self.d);
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance between `u` and `v`, widened to the `u32` convention
    /// (`UNREACHABLE` if disconnected).
    #[inline]
    pub fn get(&self, u: V, v: V) -> u32 {
        kernels::widen(self.d[u as usize * self.n + v as usize])
    }

    /// Compact distance between `u` and `v` (`UNREACHABLE_D` if
    /// disconnected) — the unwidened storage entry.
    #[inline]
    pub fn get_compact(&self, u: V, v: V) -> Dist {
        self.d[u as usize * self.n + v as usize]
    }

    /// Row of compact distances from `u`.
    #[inline]
    pub fn row(&self, u: V) -> &[Dist] {
        &self.d[u as usize * self.n..(u as usize + 1) * self.n]
    }

    /// Whether every pair is connected.
    pub fn is_connected(&self) -> bool {
        self.n == 0 || !self.d.contains(&UNREACHABLE_D)
    }

    /// Sum of distances from `u` (the paper's *sum usage cost*), `None` when
    /// some vertex is unreachable. One vectorized row pass.
    pub fn sum_from(&self, u: V) -> Option<u64> {
        let c = kernels::row_cost(self.row(u));
        (c.sum != kernels::INF_SUM).then_some(c.sum)
    }

    /// Eccentricity of `u` (the paper's *local diameter*), `None` when some
    /// vertex is unreachable. One vectorized row pass.
    pub fn ecc(&self, u: V) -> Option<u32> {
        let c = kernels::row_cost(self.row(u));
        (c.ecc != UNREACHABLE_D).then_some(u32::from(c.ecc))
    }

    /// All eccentricities, `None` if the graph is disconnected.
    pub fn eccentricities(&self) -> Option<Vec<u32>> {
        (0..self.n as V).map(|u| self.ecc(u)).collect()
    }

    /// Exact diameter, `None` if disconnected (or the graph is empty).
    pub fn diameter(&self) -> Option<u32> {
        if self.n == 0 {
            return None;
        }
        let mut best = 0;
        for u in 0..self.n as V {
            best = best.max(self.ecc(u)?);
        }
        Some(best)
    }

    /// Exact radius (minimum eccentricity), `None` if disconnected/empty.
    pub fn radius(&self) -> Option<u32> {
        if self.n == 0 {
            return None;
        }
        let mut best = u32::MAX;
        for u in 0..self.n as V {
            best = best.min(self.ecc(u)?);
        }
        Some(best)
    }

    /// The Wiener-type total: sum over *ordered* pairs of `d(u,v)`.
    pub fn total_distance(&self) -> Option<u64> {
        let mut t = 0u64;
        for u in 0..self.n as V {
            t += self.sum_from(u)?;
        }
        Some(t)
    }

    /// Sum of distances from `u` in `G + uv` via the insertion identity
    /// (`G` must be connected for a meaningful result; unreachable entries
    /// propagate as `None`). One vectorized blend-and-reduce pass
    /// ([`kernels::blend_cost_sum`]).
    pub fn sum_from_with_insertion(&self, u: V, v: V) -> Option<u64> {
        let s = kernels::blend_cost_sum(self.row(u), self.row(v));
        (s != kernels::INF_SUM).then_some(s)
    }

    /// Eccentricity of `u` in `G + uv` via the insertion identity. One
    /// vectorized blend-and-reduce pass ([`kernels::blend_cost_ecc`]).
    pub fn ecc_with_insertion(&self, u: V, v: V) -> Option<u32> {
        let e = kernels::blend_cost_ecc(self.row(u), self.row(v));
        (e != kernels::INF_SUM).then_some(e as u32)
    }

    /// Histogram of distances from `u`: `hist[k]` = number of vertices at
    /// distance exactly `k` (the sphere sizes `S_k(u)` of Theorem 9).
    /// Unreachable vertices are not counted.
    pub fn sphere_sizes(&self, u: V) -> Vec<usize> {
        let mut hist = Vec::new();
        for &x in self.row(u) {
            if x == UNREACHABLE_D {
                continue;
            }
            let x = x as usize;
            if hist.len() <= x {
                hist.resize(x + 1, 0);
            }
            hist[x] += 1;
        }
        hist
    }
}

/// All eccentricities computed without storing the full matrix — the
/// memory-light path for large graphs (used by the torus sweeps).
pub fn eccentricities_streaming(csr: &Csr) -> Option<Vec<u32>> {
    let n = csr.n();
    if n < PAR_APSP_MIN_N {
        return crate::bfs::with_scratch(n, |scratch| {
            (0..n as V)
                .map(|src| {
                    let s = scratch.run(csr, src);
                    (s.reached == n).then_some(s.ecc)
                })
                .collect()
        });
    }
    let eccs: Vec<Option<u32>> = (0..n as V)
        .into_par_iter()
        .map_init(
            || BfsScratch::new(n),
            |scratch, src| {
                let s = scratch.run(csr, src);
                (s.reached == n).then_some(s.ecc)
            },
        )
        .collect();
    eccs.into_iter().collect()
}

/// Exact diameter via the iFUB (iterative fringe upper bound) algorithm:
/// usually touches only a handful of BFS trees on low-diameter graphs, and
/// degrades gracefully to `O(n)` BFS runs in the worst case.
///
/// Returns `None` on disconnected or empty graphs.
pub fn diameter_ifub(csr: &Csr) -> Option<u32> {
    let n = csr.n();
    if n == 0 {
        return None;
    }
    let mut scratch = BfsScratch::new(n);

    // Double sweep from a max-degree vertex to find a good root.
    let start = csr.max_degree_vertex()?;
    let s1 = scratch.run(csr, start);
    if s1.reached != n {
        return None;
    }
    let far = argmax(&scratch.dist);
    let s2 = scratch.run(csr, far);
    let far2 = argmax(&scratch.dist);
    let mut lb = s2.ecc;
    // Root at the midpoint of the (far, far2) path approximated by a vertex
    // whose distances to both are balanced.
    let dist_far = scratch.dist.clone();
    scratch.run(csr, far2);
    let root = (0..n as V)
        .filter(|&v| dist_far[v as usize] != UNREACHABLE)
        .min_by_key(|&v| {
            let a = dist_far[v as usize];
            let b = scratch.dist[v as usize];
            (a.max(b) - a.min(b), a.max(b))
        })
        .unwrap_or(start);

    let root_summary = scratch.run(csr, root);
    let root_dist = scratch.dist.clone();
    let mut levels: Vec<Vec<V>> = vec![Vec::new(); root_summary.ecc as usize + 1];
    for (v, &d) in root_dist.iter().enumerate() {
        levels[d as usize].push(v as V);
    }
    lb = lb.max(root_summary.ecc);
    let mut i = root_summary.ecc;
    let mut ub = 2 * i;
    while ub > lb && i > 0 {
        let mut level_max = 0;
        for &v in &levels[i as usize] {
            let s = scratch.run(csr, v);
            level_max = level_max.max(s.ecc);
        }
        lb = lb.max(level_max);
        ub = 2 * (i - 1);
        i -= 1;
    }
    Some(lb)
}

fn argmax(dist: &[u32]) -> V {
    let mut best = 0;
    let mut best_d = 0;
    for (v, &d) in dist.iter().enumerate() {
        if d != UNREACHABLE && d > best_d {
            best_d = d;
            best = v;
        }
    }
    best as V
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic;
    use crate::Graph;

    #[test]
    fn path_metric_summaries() {
        let dm = DistanceMatrix::build(&classic::path(5).to_csr());
        assert_eq!(dm.get(0, 4), 4);
        assert_eq!(dm.diameter(), Some(4));
        assert_eq!(dm.radius(), Some(2));
        assert_eq!(dm.sum_from(0), Some(10));
        assert_eq!(dm.sum_from(2), Some(6));
        assert_eq!(dm.ecc(2), Some(2));
        assert!(dm.is_connected());
    }

    #[test]
    fn star_has_diameter_two() {
        let dm = DistanceMatrix::build(&classic::star(10).to_csr());
        assert_eq!(dm.diameter(), Some(2));
        assert_eq!(dm.radius(), Some(1));
        // center: n-1 leaves at distance 1
        assert_eq!(dm.sum_from(0), Some(9));
        // leaf: 1 + 2*(n-2)
        assert_eq!(dm.sum_from(1), Some(1 + 2 * 8));
    }

    #[test]
    fn disconnected_graph_reports_none() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let dm = DistanceMatrix::build(&g.to_csr());
        assert!(!dm.is_connected());
        assert_eq!(dm.diameter(), None);
        assert_eq!(dm.sum_from(0), None);
        assert_eq!(dm.ecc(0), None);
        assert_eq!(dm.total_distance(), None);
    }

    #[test]
    fn insertion_identity_matches_explicit_insertion() {
        // Chord a long cycle and compare against actually inserting the edge.
        let g = classic::cycle(12);
        let dm = DistanceMatrix::build(&g.to_csr());
        for (u, v) in [(0u32, 6u32), (1, 5), (2, 9), (0, 3)] {
            let mut h = g.clone();
            h.add_edge(u, v);
            let dm2 = DistanceMatrix::build(&h.to_csr());
            assert_eq!(
                dm.sum_from_with_insertion(u, v),
                dm2.sum_from(u),
                "sum identity failed for chord ({u},{v})"
            );
            assert_eq!(
                dm.ecc_with_insertion(u, v),
                dm2.ecc(u),
                "ecc identity failed for chord ({u},{v})"
            );
        }
    }

    #[test]
    fn sphere_sizes_partition_the_graph() {
        let dm = DistanceMatrix::build(&classic::cycle(9).to_csr());
        let hist = dm.sphere_sizes(0);
        assert_eq!(hist, vec![1, 2, 2, 2, 2]);
        assert_eq!(hist.iter().sum::<usize>(), 9);
    }

    #[test]
    fn total_distance_of_complete_graph() {
        let dm = DistanceMatrix::build(&classic::complete(6).to_csr());
        // ordered pairs: 6*5 at distance 1
        assert_eq!(dm.total_distance(), Some(30));
    }

    #[test]
    fn ifub_agrees_with_apsp_on_families() {
        let graphs = vec![
            classic::path(17),
            classic::cycle(20),
            classic::star(9),
            classic::complete(7),
            classic::grid(4, 5),
            classic::hypercube(4),
            classic::petersen(),
        ];
        for g in graphs {
            let csr = g.to_csr();
            let dm = DistanceMatrix::build(&csr);
            assert_eq!(diameter_ifub(&csr), dm.diameter());
        }
    }

    #[test]
    fn ifub_none_on_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(diameter_ifub(&g.to_csr()), None);
    }

    #[test]
    fn streaming_eccentricities_match_matrix() {
        let g = classic::grid(3, 6);
        let csr = g.to_csr();
        let dm = DistanceMatrix::build(&csr);
        assert_eq!(eccentricities_streaming(&csr), dm.eccentricities());
    }

    #[test]
    fn masked_matrix_equals_matrix_of_masked_graph() {
        let mut g = classic::cycle(8);
        g.add_edge(0, 4);
        let csr = g.to_csr();
        let masked = DistanceMatrix::build_masked(&csr, (0, 4));
        let mut g2 = g.clone();
        g2.remove_edge(0, 4);
        let direct = DistanceMatrix::build(&g2.to_csr());
        assert_eq!(masked, direct);
    }
}
