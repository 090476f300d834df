//! Per-agent responses for the dynamics engine: the one response sweep
//! every game plays through.
//!
//! Every game in this workspace moves the same way — agent `v` replaces
//! one incident edge `vw` by `vw2` — so one sweep owns the search and a
//! rule set only prices a candidate ([`GameRules::swap_cost`]). For each
//! incident edge `vw` in CSR neighbor order the sweep builds the rule
//! set's view of `G − vw` ([`GameRules::edge_view`]), prices every legal
//! `w2 ∉ {v, w}` against it, and hands the view back
//! ([`GameRules::recycle_view`]). An agent at cost 0 cannot improve and is
//! not scanned at all.
//!
//! * A **best response** is the cheapest strictly improving swap over all
//!   incident edges; ties go to the earliest incident edge in CSR order,
//!   then the smallest `w2`.
//! * A **first improving response** is the best candidate on the *first*
//!   incident edge (CSR order) that has an improving one — the paper's
//!   computationally bounded agent, who weighs one edge at a time. It is
//!   not the first improving candidate in scan order.
//!
//! The distance-based views come from the cached base matrix by
//! copy-plus-repair — the whole masked APSP for the basic and budget
//! games ([`EdgeSwapScan::from_base`](crate::evaluator::EdgeSwapScan::from_base)),
//! the interest rows alone for the interest game — rather than masked BFS
//! runs per scanned edge, so the response computation itself rides the
//! dynamic-distance subsystem.

use bncg_graph::{Graph, V};

use crate::context::EvalContext;
use crate::evaluator::best_candidate;
use crate::rules::GameRules;
use crate::swap::{ScoredSwap, SwapMove};

/// The best improving swap available to agent `v` under the rule set `R`,
/// or `None` if `v` is already playing a best response.
///
/// Convenience wrapper that snapshots `g` into a fresh
/// [`EvalContext`]; callers evaluating more than one agent (or more than
/// one round) should construct the context themselves and call
/// [`GameRules::best_response`] so the snapshot, base matrix, and
/// scratch buffers are shared across the whole scan.
pub fn best_response<R: GameRules + Default>(g: &Graph, v: V) -> Option<ScoredSwap> {
    R::default().best_response(&EvalContext::new(g), v)
}

/// The sweep behind [`GameRules::best_response`] (`first_edge == false`)
/// and [`GameRules::first_improving_response`] (`first_edge == true`,
/// stop after the first incident edge with an improving candidate).
pub(crate) fn sweep<R: GameRules>(
    rules: &R,
    ctx: &EvalContext,
    v: V,
    first_edge: bool,
) -> Option<ScoredSwap> {
    let old_cost = rules.agent_cost(ctx, v);
    if old_cost == 0 {
        return None;
    }
    let n = ctx.n() as V;
    let mut best: Option<ScoredSwap> = None;
    for &w in ctx.csr().neighbors(v) {
        let view = rules.edge_view(ctx, v, w);
        let found = best_candidate(n, old_cost, |w2| {
            let mv = SwapMove { v, w, w2 };
            (w2 != v && w2 != w && rules.legal_move(ctx, &mv))
                .then(|| rules.swap_cost(ctx, &view, &mv))
        });
        rules.recycle_view(view);
        if let Some((w2, new_cost)) = found {
            if best.as_ref().is_none_or(|b| new_cost < b.new_cost) {
                best = Some(ScoredSwap {
                    mv: SwapMove { v, w, w2 },
                    old_cost,
                    new_cost,
                });
            }
            if first_edge {
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{MaxObjective, SumObjective};
    use bncg_graph::generators::classic;

    #[test]
    fn path_endpoint_best_response_targets_center() {
        let g = classic::path(9);
        let s = best_response::<SumObjective>(&g, 0).expect("endpoint must improve");
        // Best response for the endpoint is to hook onto the center (4).
        assert_eq!(s.mv.w, 1);
        assert_eq!(s.mv.w2, 4);
        assert!(s.is_improving());
    }

    #[test]
    fn star_agents_have_no_response() {
        let g = classic::star(9);
        for v in 0..9 {
            assert!(best_response::<SumObjective>(&g, v).is_none());
            assert!(best_response::<MaxObjective>(&g, v).is_none());
        }
    }

    #[test]
    fn best_response_beats_first_improving() {
        let g = classic::path(9);
        let ctx = EvalContext::new(&g);
        let best = SumObjective.best_response(&ctx, 0).unwrap();
        let first = SumObjective.first_improving_response(&ctx, 0).unwrap();
        assert!(best.new_cost <= first.new_cost);
    }

    #[test]
    fn max_best_response_on_path() {
        let g = classic::path(7);
        // Endpoint 0 has ecc 6; swapping onto the center gives ecc 4.
        let s = best_response::<MaxObjective>(&g, 0).unwrap();
        assert_eq!(s.old_cost, 6);
        assert_eq!(s.new_cost, 4);
        assert_eq!(s.mv.w2, 3);
    }

    #[test]
    fn applying_best_response_realizes_predicted_cost() {
        let mut g = classic::path(8);
        for _ in 0..20 {
            let Some(s) = (0..8 as V).find_map(|v| best_response::<SumObjective>(&g, v)) else {
                break;
            };
            s.mv.apply(&mut g);
            let realized = crate::evaluator::agent_cost::<SumObjective>(&g, s.mv.v);
            assert_eq!(realized, s.new_cost, "prediction must match reality");
        }
    }
}
