//! Executable forms of the paper's lemmas.
//!
//! Each function turns a lemma's statement into a checkable predicate (or a
//! witness extractor); integration tests and benches audit them over every
//! equilibrium the experiments produce. A lemma checker returning a
//! violation on a *verified equilibrium* would falsify the implementation
//! (or the paper) — they are the reproduction's tripwires.

use bncg_graph::components::connected_components;
use bncg_graph::{BfsScratch, DistanceMatrix, Graph, V};

use crate::context::EvalContext;
use crate::objective::SumObjective;
use crate::rules::GameRules;

/// **Lemma 6.** For a vertex `v` of local diameter 2, swapping an incident
/// edge does not improve the sum of distances from `v`. Audited literally:
/// returns `true` iff no swap by any ecc-2 vertex strictly improves its
/// sum. (Holds unconditionally — not only in equilibrium — so the audit
/// runs on arbitrary graphs.) One [`EvalContext`] prices every swap by
/// copy-plus-repair scans off its base matrix.
pub fn lemma6_holds(g: &Graph) -> bool {
    let ctx = EvalContext::new(g);
    (0..g.n() as V)
        .filter(|&v| ctx.base().ecc(v) == Some(2))
        .all(|v| SumObjective.best_response(&ctx, v).is_none())
}

/// **Lemma 7.** For a vertex `v` of local diameter 3, adding an edge `vw`
/// (with `d(v,w) = r`) decreases the sum from `v` by at most `r − 1` for
/// `w` itself plus 1 for each neighbor of `w` previously at distance 3.
/// Returns `true` iff the realized gain of every such insertion respects
/// that bound.
pub fn lemma7_holds(g: &Graph) -> bool {
    let dm = DistanceMatrix::build(&g.to_csr());
    for v in 0..g.n() as V {
        if dm.ecc(v) != Some(3) {
            continue;
        }
        let base = match dm.sum_from(v) {
            Some(b) => b,
            None => return true,
        };
        for w in 0..g.n() as V {
            if w == v || g.has_edge(v, w) {
                continue;
            }
            let r = u64::from(dm.get(v, w));
            let with = dm
                .sum_from_with_insertion(v, w)
                .expect("insertion keeps connectivity");
            let gain = base - with;
            let far_neighbors = g
                .neighbors(w)
                .iter()
                .filter(|&&x| dm.get(v, x) == 3)
                .count() as u64;
            let bound = (r - 1) + far_neighbors;
            if gain > bound {
                return false;
            }
        }
    }
    true
}

/// **Lemma 8.** In a graph of girth ≥ 4, swapping `vw` for `vw'` increases
/// `d(v, w)` by at least 2 — **unless `w'` is a neighbor of `w`, in which
/// case by at least 1**. (The overlooked exception is exactly what breaks
/// the printed Figure 3; see `bncg-constructions::fig3`.) Returns `true`
/// iff every swap in `g` respects the bound.
pub fn lemma8_holds(g: &Graph) -> bool {
    if bncg_graph::girth::girth(g).is_some_and(|x| x < 4) {
        return true; // premise fails; nothing to check
    }
    let csr = g.to_csr();
    let mut scratch = BfsScratch::new(g.n());
    for e in g.edge_vec() {
        for (v, w) in [(e.u, e.v), (e.v, e.u)] {
            scratch.run_masked(&csr, v, (v, w));
            let masked: Vec<u32> = scratch.dist.clone();
            for w2 in 0..g.n() as V {
                if w2 == v || w2 == w {
                    continue;
                }
                // d_{G-vw+vw'}(v, w) = min(masked[w], 1 + masked_from(w2, w)).
                // Use the insertion identity through w2's masked distances.
                scratch.run_masked(&csr, w2, (v, w));
                let new_d = masked[w as usize].min(scratch.dist[w as usize].saturating_add(1));
                let required = if g.has_edge(w, w2) { 1 + 1 } else { 1 + 2 };
                if new_d < required {
                    return false;
                }
            }
        }
    }
    true
}

/// **Lemma 2.** In any max-equilibrium graph, local diameters of any two
/// nodes differ by at most 1. Returns the observed spread
/// `max ecc − min ecc` (`None` on disconnected input).
pub fn local_diameter_spread(dm: &DistanceMatrix) -> Option<u32> {
    let eccs = dm.eccentricities()?;
    let lo = *eccs.iter().min()?;
    let hi = *eccs.iter().max()?;
    Some(hi - lo)
}

/// Whether the Lemma 2 bound (`spread ≤ 1`) holds.
pub fn lemma2_holds(dm: &DistanceMatrix) -> bool {
    local_diameter_spread(dm).is_some_and(|s| s <= 1)
}

/// **Lemma 3.** If a max-equilibrium graph has a cut vertex `v`, only one
/// component of `G − v` may contain a vertex at distance > 1 from `v`.
/// Checks the property for every cut vertex; returns the first violating
/// vertex if any.
pub fn lemma3_violation(g: &Graph) -> Option<V> {
    let cuts = bncg_graph::articulation::articulation_points(g);
    if cuts.is_empty() {
        return None;
    }
    let csr = g.to_csr();
    let mut scratch = BfsScratch::new(g.n());
    for &c in &cuts {
        // Distances from c and components of G - c.
        scratch.run(&csr, c);
        let dist_from_c = scratch.dist.clone();
        let mut without = g.clone();
        let nbrs: Vec<V> = g.neighbors(c).to_vec();
        for &w in &nbrs {
            without.remove_edge(c, w);
        }
        let (labels, _) = connected_components(&without);
        let mut deep_components: Vec<u32> = (0..g.n() as V)
            .filter(|&x| x != c && dist_from_c[x as usize] > 1)
            .map(|x| labels[x as usize])
            .collect();
        deep_components.sort_unstable();
        deep_components.dedup();
        if deep_components.len() > 1 {
            return Some(c);
        }
    }
    None
}

/// Whether the Lemma 3 property holds for all cut vertices.
pub fn lemma3_holds(g: &Graph) -> bool {
    lemma3_violation(g).is_none()
}

/// **Corollary 11.** In a sum equilibrium, adding any edge `uv` decreases
/// the sum of distances from `u` by at most `5 n lg n`. Returns the
/// maximum observed single-insertion gain over all ordered pairs, together
/// with the bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertionGainAudit {
    /// Largest observed `sum_from(u) − sum_from_with_insertion(u, v)`.
    pub max_gain: u64,
    /// The pair attaining it.
    pub argmax: (V, V),
    /// The paper's bound `5 n lg n`.
    pub bound: f64,
}

impl InsertionGainAudit {
    /// Whether the observed gain respects the Corollary 11 bound.
    pub fn holds(&self) -> bool {
        (self.max_gain as f64) <= self.bound
    }
}

/// Audits Corollary 11 on a connected graph.
///
/// # Panics
/// Panics on disconnected input.
pub fn corollary11_audit(dm: &DistanceMatrix) -> InsertionGainAudit {
    let n = dm.n();
    assert!(dm.is_connected(), "Corollary 11 presumes a connected graph");
    let mut max_gain = 0u64;
    let mut argmax = (0, 0);
    for u in 0..n as V {
        let base = dm.sum_from(u).expect("connected");
        for v in 0..n as V {
            if v == u {
                continue;
            }
            let with = dm
                .sum_from_with_insertion(u, v)
                .expect("insertion keeps connectivity");
            let gain = base.saturating_sub(with);
            if gain > max_gain {
                max_gain = gain;
                argmax = (u, v);
            }
        }
    }
    let bound = 5.0 * n as f64 * (n as f64).log2();
    InsertionGainAudit {
        max_gain,
        argmax,
        bound,
    }
}

/// Outcome of the **Lemma 10** search from a vertex `u`.
#[derive(Debug, Clone, PartialEq)]
pub enum Lemma10Outcome {
    /// The graph has diameter ≤ 2 lg n, first alternative of the lemma.
    SmallDiameter {
        /// The diameter.
        diameter: u32,
        /// The threshold `2 lg n`.
        threshold: f64,
    },
    /// An edge `xy` with `d(u,x) ≤ lg n` whose removal increases the sum of
    /// distances from `x` by at most `2n(1 + lg n)`.
    CheapEdge {
        /// The edge found.
        edge: (V, V),
        /// Observed increase in `x`'s sum of distances upon removal
        /// (`u64::MAX` when removal disconnects).
        increase: u64,
        /// The bound `2n(1 + lg n)`.
        bound: f64,
    },
    /// Neither alternative held — would falsify Lemma 10 on a sum
    /// equilibrium.
    Violation,
}

/// Searches for the Lemma 10 witness from vertex `u`.
pub fn lemma10_search(g: &Graph, dm: &DistanceMatrix, u: V) -> Lemma10Outcome {
    let n = g.n();
    let lg_n = (n as f64).log2();
    if let Some(d) = dm.diameter() {
        if (d as f64) <= 2.0 * lg_n {
            return Lemma10Outcome::SmallDiameter {
                diameter: d,
                threshold: 2.0 * lg_n,
            };
        }
    }
    let bound = 2.0 * n as f64 * (1.0 + lg_n);
    let csr = g.to_csr();
    let mut scratch = BfsScratch::new(n);
    for e in g.edge_vec() {
        for (x, y) in [(e.u, e.v), (e.v, e.u)] {
            if f64::from(dm.get(u, x)) > lg_n {
                continue;
            }
            let base = dm.sum_from(x).expect("connected");
            scratch.run_masked(&csr, x, (x, y));
            let after = match scratch.sum_if_connected() {
                Some(s) => s,
                None => continue, // removal disconnects; not a cheap edge
            };
            let increase = after.saturating_sub(base);
            if (increase as f64) <= bound {
                return Lemma10Outcome::CheapEdge {
                    edge: (x, y),
                    increase,
                    bound,
                };
            }
        }
    }
    Lemma10Outcome::Violation
}

/// One evaluation of the **Theorem 9 ball-growth inequality (1)**:
/// `B_{4k} > n/2` **or** `B_{4k} ≥ (k / (20 lg n)) · B_k`, where
/// `B_k = min_u |ball_k(u)|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BallGrowthCheck {
    /// The radius parameter `k`.
    pub k: u32,
    /// `min_u B_k(u)`.
    pub b_k: usize,
    /// `min_u B_{4k}(u)`.
    pub b_4k: usize,
    /// Vertex count.
    pub n: usize,
    /// The multiplicative factor `k / (20 lg n)`.
    pub factor: f64,
}

impl BallGrowthCheck {
    /// Whether inequality (1) holds for this `k`.
    pub fn holds(&self) -> bool {
        (self.b_4k as f64) > self.n as f64 / 2.0
            || (self.b_4k as f64) >= self.factor * self.b_k as f64
    }
}

/// Evaluates the Theorem 9 inequality for radius `k` on a connected graph.
pub fn theorem9_ball_growth(dm: &DistanceMatrix, k: u32) -> BallGrowthCheck {
    let n = dm.n();
    let b_of = |r: u32| -> usize {
        (0..n as V)
            .map(|u| {
                let spheres = dm.sphere_sizes(u);
                spheres.iter().take(r as usize + 1).sum::<usize>()
            })
            .min()
            .unwrap_or(0)
    };
    BallGrowthCheck {
        k,
        b_k: b_of(k),
        b_4k: b_of(4 * k),
        n,
        factor: f64::from(k) / (20.0 * (n as f64).log2()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators::classic;

    #[test]
    fn lemma6_holds_everywhere_we_look() {
        // Lemma 6 is unconditional; exercise it on graphs rich in ecc-2
        // vertices.
        for g in [
            classic::star(9),
            classic::petersen(),
            classic::complete_bipartite(3, 4),
            classic::cycle(5),
        ] {
            assert!(lemma6_holds(&g));
        }
    }

    #[test]
    fn lemma7_gain_bound_on_diameter3_graphs() {
        for g in [
            classic::double_star(3, 3),
            classic::cycle(6),
            classic::cycle(7),
        ] {
            assert!(lemma7_holds(&g));
        }
    }

    #[test]
    fn lemma8_loss_bound_on_girth4_graphs() {
        for g in [
            classic::cycle(8),
            classic::complete_bipartite(3, 3),
            classic::hypercube(3),
            classic::grid(3, 3),
            classic::star(7), // forest: girth premise satisfied vacuously
        ] {
            assert!(lemma8_holds(&g), "Lemma 8 failed on n={}", g.n());
        }
        // Triangle-containing graphs: premise fails, audit returns true.
        assert!(lemma8_holds(&classic::complete(4)));
    }

    #[test]
    fn lemma8_exception_is_tight_on_fig3() {
        // The erratum hinges on the adjacency exception: on the printed
        // Figure 3 (girth 4), d1's swap from c11 to its matched partner
        // c21 raises d(d1, c11) from 1 to exactly 2 — the "unless" branch
        // of the lemma, not the +2 branch. Lemma 8 itself HOLDS; the
        // proof's application of it is what slipped.
        // (The fig3 graph lives in bncg-constructions, which depends on
        // this crate; rebuild it inline.)
        let mut g = Graph::new(13);
        let edges: [(V, V); 21] = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 4),
            (1, 5),
            (2, 6),
            (2, 7),
            (3, 8),
            (3, 9),
            (10, 4),
            (10, 5),
            (11, 6),
            (11, 7),
            (12, 8),
            (12, 9),
            (4, 6),
            (5, 7),
            (6, 8),
            (7, 9),
            (4, 9),
            (5, 8),
        ];
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        assert!(lemma8_holds(&g), "Lemma 8 must hold on the fig3 graph");
        // The exception instance: d(10, 4) after swapping 10-4 -> 10-6.
        let mut h = g.clone();
        h.apply_swap(10, 4, 6);
        let dm = DistanceMatrix::build(&h.to_csr());
        assert_eq!(dm.get(10, 4), 2, "only +1, via the matched partner");
    }

    #[test]
    fn spread_on_known_families() {
        let star = DistanceMatrix::build(&classic::star(9).to_csr());
        assert_eq!(local_diameter_spread(&star), Some(1)); // center 1, leaves 2
        assert!(lemma2_holds(&star));
        let path = DistanceMatrix::build(&classic::path(9).to_csr());
        assert_eq!(local_diameter_spread(&path), Some(4)); // 8 vs 4
        assert!(!lemma2_holds(&path));
    }

    #[test]
    fn lemma3_on_double_star_and_path() {
        // Double star: both roots are cut vertices but all deep vertices
        // hang off a single component... root 0's removal leaves leaves of
        // 0 isolated (distance 1) and the rest in one component: fine.
        assert!(lemma3_holds(&classic::double_star(3, 3)));
        // Path P5: center 2 separates {0,1} and {3,4}, both containing a
        // vertex at distance 2: violation.
        assert_eq!(lemma3_violation(&classic::path(5)), Some(2));
        // Graphs without cut vertices pass trivially.
        assert!(lemma3_holds(&classic::cycle(6)));
    }

    #[test]
    fn corollary11_on_star_and_cycle() {
        let star = DistanceMatrix::build(&classic::star(16).to_csr());
        let audit = corollary11_audit(&star);
        // Star: adding a leaf-leaf edge gains exactly 1.
        assert_eq!(audit.max_gain, 1);
        assert!(audit.holds());
        // Long cycle: the antipodal chord gains a lot, but C_64 is not a
        // sum equilibrium, so the bound may legitimately fail there; we
        // only check the arithmetic here.
        let cyc = DistanceMatrix::build(&classic::cycle(64).to_csr());
        let audit2 = corollary11_audit(&cyc);
        assert!(audit2.max_gain > 0);
        assert_eq!(audit2.argmax.1, 32); // antipode of vertex 0
    }

    #[test]
    fn lemma10_small_diameter_branch() {
        let g = classic::star(20);
        let dm = DistanceMatrix::build(&g.to_csr());
        match lemma10_search(&g, &dm, 0) {
            Lemma10Outcome::SmallDiameter { diameter, .. } => assert_eq!(diameter, 2),
            other => panic!("expected SmallDiameter, got {other:?}"),
        }
    }

    #[test]
    fn lemma10_cheap_edge_branch() {
        // A long cycle has diameter > 2 lg n and every edge removal is
        // cheap-ish; the search must find a qualifying edge near u.
        let g = classic::cycle(40);
        let dm = DistanceMatrix::build(&g.to_csr());
        match lemma10_search(&g, &dm, 0) {
            Lemma10Outcome::CheapEdge {
                edge,
                increase,
                bound,
            } => {
                assert!((increase as f64) <= bound);
                // The edge must be near vertex 0.
                let near = f64::from(dm.get(0, edge.0)) <= (40f64).log2();
                assert!(near, "edge {edge:?} is too far from u");
            }
            other => panic!("expected CheapEdge, got {other:?}"),
        }
    }

    #[test]
    fn ball_growth_on_small_diameter_graph() {
        // Complete graph: B_k = n for k >= 1, so B_{4k} > n/2 holds.
        let dm = DistanceMatrix::build(&classic::complete(10).to_csr());
        let check = theorem9_ball_growth(&dm, 1);
        assert_eq!(check.b_k, 10);
        assert!(check.holds());
    }

    #[test]
    fn ball_growth_values_on_cycle() {
        let dm = DistanceMatrix::build(&classic::cycle(100).to_csr());
        let check = theorem9_ball_growth(&dm, 2);
        assert_eq!(check.b_k, 5); // ball of radius 2 on a cycle
        assert_eq!(check.b_4k, 17); // radius 8
                                    // 17 <= 50 and factor = 2/(20*log2(100)) ≈ 0.015: 17 >= 0.075 ok.
        assert!(check.holds());
    }
}
