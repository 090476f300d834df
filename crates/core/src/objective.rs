//! The two usage costs of the paper behind a single trait.
//!
//! Both costs are functionals of an agent's distance row; both admit the
//! single-edge insertion identity (`d' = min(d_base, 1 + d_via)`), which is
//! what lets the evaluator score all `n` candidate swaps of one deleted
//! edge with `O(n)` work each.
//!
//! Rows are **compact** ([`Dist`] = `u16`) and every reduction routes
//! through the vectorized kernel layer (`bncg_graph::kernels`): one
//! SIMD pass per row instead of a branchy per-element scan. The
//! kernels encode "some vertex unreachable" as `u64::MAX`, which *is*
//! [`INFINITE_COST`], so the sentinel needs no translation. Agents whose
//! rows live in a maintained [`DynamicApsp`] are cheaper still: the
//! per-vertex aggregates it keeps make
//! [`maintained_cost`](Objective::maintained_cost) an `O(1)` lookup.

use bncg_graph::dynamic::DynamicApsp;
use bncg_graph::kernels;
use bncg_graph::{Dist, UNREACHABLE, V};

/// Cost assigned to disconnection: an agent that cannot reach someone pays
/// infinitely much (swaps that disconnect are never improving).
pub const INFINITE_COST: u64 = u64::MAX;

/// A usage-cost objective of the basic network creation game.
pub trait Objective: Copy + Send + Sync + 'static {
    /// Human-readable name ("sum" / "max").
    const NAME: &'static str;

    /// Cost of an agent whose compact distance row is `row`
    /// ([`INFINITE_COST`] if any entry is unreachable).
    fn cost_of_row(row: &[Dist]) -> u64;

    /// Cost of an agent whose **wide** (`u32`) distance row is `row` — the
    /// BFS-scratch convention used by callers that never materialize a
    /// matrix ([`INFINITE_COST`] if any entry is unreachable).
    fn cost_of_wide_row(row: &[u32]) -> u64;

    /// Cost of the agent after inserting one edge to a vertex with distance
    /// row `via`, i.e. the cost of the row `min(base[x], 1 + via[x])`.
    fn cost_with_insertion(base: &[Dist], via: &[Dist]) -> u64;

    /// Cost of agent `v` read from a maintained [`DynamicApsp`]'s
    /// per-vertex aggregates — `O(1)`, no row scan.
    fn maintained_cost(apsp: &DynamicApsp, v: V) -> u64;
}

/// The **sum** objective: `Σ_x d(v, x)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumObjective;

impl Objective for SumObjective {
    const NAME: &'static str = "sum";

    #[inline]
    fn cost_of_row(row: &[Dist]) -> u64 {
        kernels::row_cost(row).sum
    }

    #[inline]
    fn cost_of_wide_row(row: &[u32]) -> u64 {
        let mut sum = 0u64;
        for &d in row {
            if d == UNREACHABLE {
                return INFINITE_COST;
            }
            sum += u64::from(d);
        }
        sum
    }

    #[inline]
    fn cost_with_insertion(base: &[Dist], via: &[Dist]) -> u64 {
        kernels::blend_cost_sum(base, via)
    }

    #[inline]
    fn maintained_cost(apsp: &DynamicApsp, v: V) -> u64 {
        apsp.cost_sum(v)
    }
}

/// The **max** objective: the agent's *local diameter* `max_x d(v, x)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxObjective;

impl Objective for MaxObjective {
    const NAME: &'static str = "max";

    #[inline]
    fn cost_of_row(row: &[Dist]) -> u64 {
        kernels::row_cost(row).ecc_cost()
    }

    #[inline]
    fn cost_of_wide_row(row: &[u32]) -> u64 {
        let mut m = 0u32;
        for &d in row {
            if d == UNREACHABLE {
                return INFINITE_COST;
            }
            m = m.max(d);
        }
        u64::from(m)
    }

    #[inline]
    fn cost_with_insertion(base: &[Dist], via: &[Dist]) -> u64 {
        kernels::blend_cost_ecc(base, via)
    }

    #[inline]
    fn maintained_cost(apsp: &DynamicApsp, v: V) -> u64 {
        apsp.cost_ecc(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::UNREACHABLE_D;

    #[test]
    fn sum_cost_basic() {
        assert_eq!(SumObjective::cost_of_row(&[0, 1, 2, 3]), 6);
        assert_eq!(
            SumObjective::cost_of_row(&[0, UNREACHABLE_D]),
            INFINITE_COST
        );
        assert_eq!(SumObjective::cost_of_row(&[]), 0);
        assert_eq!(SumObjective::cost_of_wide_row(&[0, 1, 2, 3]), 6);
        assert_eq!(
            SumObjective::cost_of_wide_row(&[0, UNREACHABLE]),
            INFINITE_COST
        );
    }

    #[test]
    fn max_cost_basic() {
        assert_eq!(MaxObjective::cost_of_row(&[0, 1, 5, 2]), 5);
        assert_eq!(
            MaxObjective::cost_of_row(&[0, UNREACHABLE_D]),
            INFINITE_COST
        );
        assert_eq!(MaxObjective::cost_of_row(&[0]), 0);
        assert_eq!(MaxObjective::cost_of_wide_row(&[0, 1, 5, 2]), 5);
        assert_eq!(
            MaxObjective::cost_of_wide_row(&[0, UNREACHABLE]),
            INFINITE_COST
        );
    }

    #[test]
    fn insertion_blend_takes_pointwise_min() {
        // base = distances from v, via = distances from w'; inserting vw'
        // makes d(v,x) = min(base, via + 1).
        let base = [0, 4, 5, 6];
        let via = [4, 0, 1, 2];
        assert_eq!(SumObjective::cost_with_insertion(&base, &via), 1 + 2 + 3);
        assert_eq!(MaxObjective::cost_with_insertion(&base, &via), 3);
    }

    #[test]
    fn insertion_cannot_rescue_total_disconnection() {
        let base = [0, UNREACHABLE_D, 2];
        let via = [UNREACHABLE_D, UNREACHABLE_D, UNREACHABLE_D];
        assert_eq!(
            SumObjective::cost_with_insertion(&base, &via),
            INFINITE_COST
        );
        // But it can rescue partial disconnection through the new edge.
        let via2 = [1, 0, UNREACHABLE_D];
        assert_eq!(SumObjective::cost_with_insertion(&base, &via2), 1 + 2);
    }

    #[test]
    fn maintained_cost_matches_row_scan() {
        use bncg_graph::generators::classic;
        let g = classic::path(9);
        let da = DynamicApsp::build(&g.to_csr());
        for v in 0..9 {
            assert_eq!(
                SumObjective::maintained_cost(&da, v),
                SumObjective::cost_of_row(da.matrix().row(v))
            );
            assert_eq!(
                MaxObjective::maintained_cost(&da, v),
                MaxObjective::cost_of_row(da.matrix().row(v))
            );
        }
    }
}
