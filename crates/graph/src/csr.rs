//! Immutable compressed-sparse-row snapshot of a graph.
//!
//! All metric kernels (BFS, APSP, eccentricities) run on [`Csr`] rather than
//! the mutable [`Graph`](crate::Graph): a flat `offsets`/`targets` pair keeps
//! neighbor scans sequential in memory, which is what the per-source BFS
//! sweeps spend essentially all of their time doing.

use crate::V;

/// Compressed-sparse-row adjacency structure for an undirected graph.
///
/// Each undirected edge appears twice in `targets` (once per direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<V>,
}

impl Csr {
    /// Builds a CSR from per-vertex neighbor lists.
    pub fn from_adjacency(adj: &[Vec<V>]) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut targets = Vec::with_capacity(total);
        offsets.push(0);
        for nbrs in adj {
            targets.extend_from_slice(nbrs);
            targets_len_guard(targets.len());
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    /// Builds a CSR directly from an edge list over `n` vertices.
    ///
    /// Duplicate and self-loop edges must not be present.
    pub fn from_edges(n: usize, edges: &[(V, V)]) -> Self {
        let mut deg = vec![0u32; n];
        for &(u, v) in edges {
            assert_ne!(u, v, "self-loops are not allowed");
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as V; 2 * edges.len()];
        for &(u, v) in edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        Csr { offsets, targets }
    }

    /// Rebuilds this CSR in place from per-vertex neighbor lists, reusing
    /// the existing `offsets`/`targets` allocations. This is the refresh
    /// path of the evaluation context: after a dynamics move mutates the
    /// graph, the snapshot is refilled without touching the allocator.
    pub fn refill_from_adjacency(&mut self, adj: &[Vec<V>]) {
        self.offsets.clear();
        self.targets.clear();
        self.offsets.reserve(adj.len() + 1);
        self.offsets.push(0);
        for nbrs in adj {
            self.targets.extend_from_slice(nbrs);
            targets_len_guard(self.targets.len());
            self.offsets.push(self.targets.len() as u32);
        }
    }

    /// Refills this CSR in place with `src` minus the `removed` edges
    /// (each an edge of `src`, none repeated), keeping every surviving
    /// neighbor list in `src`'s order. `cut` is caller-owned scratch: it
    /// collects the `2k` removed slots of `targets` in ascending order, and
    /// the runs between them are copied whole, each run of `offsets`
    /// shifted down by the slots cut before it. `O(n + m)` copying plus
    /// `O(k (d + log m))` for `k` removed edges at degree `d`.
    ///
    /// # Panics
    /// Panics when a removed edge is not an edge of `src`.
    pub(crate) fn refill_without(&mut self, src: &Csr, removed: &[(V, V)], cut: &mut Vec<u32>) {
        cut.clear();
        for &(a, b) in removed {
            for (p, q) in [(a, b), (b, a)] {
                let at = src.neighbors(p).iter().position(|&z| z == q);
                cut.push(src.offsets[p as usize] + at.expect("removed edge not in src") as u32);
            }
        }
        cut.sort_unstable();
        self.offsets.clear();
        self.targets.clear();
        let (mut v, mut from) = (0usize, 0usize);
        for (shift, &slot) in (0u32..).zip(cut.iter()) {
            // Vertices starting at or before `slot` lose only the earlier
            // slots.
            let end = v + src.offsets[v..].partition_point(|&o| o <= slot);
            self.offsets
                .extend(src.offsets[v..end].iter().map(|&o| o - shift));
            self.targets
                .extend_from_slice(&src.targets[from..slot as usize]);
            (v, from) = (end, slot as usize + 1);
        }
        let shift = cut.len() as u32;
        self.offsets
            .extend(src.offsets[v..].iter().map(|&o| o - shift));
        self.targets.extend_from_slice(&src.targets[from..]);
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbors of `v` as a contiguous slice.
    #[inline]
    pub fn neighbors(&self, v: V) -> &[V] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: V) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// All undirected edges, each reported once with `u < v`, in the same
    /// order as [`Graph::edge_vec`](crate::Graph::edge_vec) (ascending `u`,
    /// then ascending `v` — neighbor lists are sorted).
    pub fn edge_vec(&self) -> Vec<(V, V)> {
        let mut out = Vec::with_capacity(self.m());
        for u in 0..self.n() as V {
            for &v in self.neighbors(u) {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// A vertex of maximum degree (ties broken by smallest id); `None` for
    /// the empty graph.
    pub fn max_degree_vertex(&self) -> Option<V> {
        (0..self.n() as V).max_by_key(|&v| (self.degree(v), std::cmp::Reverse(v)))
    }
}

#[inline]
fn targets_len_guard(len: usize) {
    assert!(
        len <= u32::MAX as usize,
        "graph too large for u32 CSR offsets"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn csr_matches_adjacency() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let csr = g.to_csr();
        assert_eq!(csr.n(), 5);
        assert_eq!(csr.m(), 6);
        for v in 0..5 {
            assert_eq!(csr.neighbors(v), g.neighbors(v));
            assert_eq!(csr.degree(v), g.degree(v));
        }
    }

    #[test]
    fn from_edges_agrees_with_from_adjacency() {
        let edges = [(0, 1), (1, 2), (0, 2), (2, 3)];
        let g = Graph::from_edges(4, &edges);
        let a = g.to_csr();
        let b = Csr::from_edges(4, &edges);
        for v in 0..4 {
            let mut nb = b.neighbors(v).to_vec();
            nb.sort_unstable();
            assert_eq!(a.neighbors(v), nb.as_slice());
        }
    }

    #[test]
    fn refill_without_drops_exactly_the_removed_edges() {
        // A hub losing several edges at once, plus an edge away from it.
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
        ];
        let removed = [(2, 0), (0, 4), (3, 4)];
        let src = Graph::from_edges(6, &edges).to_csr();
        let kept: Vec<(V, V)> = edges
            .iter()
            .copied()
            .filter(|&(a, b)| {
                !removed
                    .iter()
                    .any(|&(x, y)| (a, b) == (x, y) || (a, b) == (y, x))
            })
            .collect();
        let want = Graph::from_edges(6, &kept).to_csr();
        let mut out = Csr::from_adjacency(&[]);
        let mut cut = Vec::new();
        out.refill_without(&src, &removed, &mut cut);
        assert_eq!(out, want);
        // Buffers are reused: nothing removed gives the source back.
        out.refill_without(&src, &[], &mut cut);
        assert_eq!(out, src);
    }

    #[test]
    fn max_degree_vertex_picks_hub() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]);
        assert_eq!(g.to_csr().max_degree_vertex(), Some(0));
        let empty = Graph::new(0);
        assert_eq!(empty.to_csr().max_degree_vertex(), None);
    }

    #[test]
    fn isolated_vertices_have_empty_slices() {
        let g = Graph::new(3);
        let csr = g.to_csr();
        for v in 0..3 {
            assert!(csr.neighbors(v).is_empty());
        }
    }
}
