//! Property tests pinning the compact-distance kernel layer to a scalar
//! `u32` reference.
//!
//! The kernels in `bncg_graph::kernels` are the vectorized (SIMD)
//! primitives under every hot row scan: the min-plus insertion blend, the
//! sum and eccentricity reductions, and the fused k-term batch blend. Each
//! property generates random compact rows (with `UNREACHABLE` sentinels
//! sprinkled in), evaluates the kernel, and compares against an
//! independent scalar implementation computed in `u32` — after widening,
//! the results must be **identical**, sentinel semantics included. A
//! guard test asserts that the `u32 → u16` narrowing seam panics cleanly
//! on distance overflow instead of wrapping.

use bncg::graph::kernels::{
    self, blend_cost_ecc_scalar, blend_cost_sum_scalar, frontier_relax_scalar,
    fused_blend_cost_scalar, gather_min_plus_scalar, narrow_checked, row_cost_scalar, BlendTerm,
    Dist, RowCost, INF_SUM, MAX_FINITE_DIST, UNREACHABLE_D,
};
use bncg::graph::V;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Widened view of a compact row (`UNREACHABLE_D ↦ u32::MAX`).
fn widen_row(row: &[Dist]) -> Vec<u32> {
    row.iter().map(|&d| kernels::widen(d)).collect()
}

/// Independent u32 reference for the one-sided blend cost: sum and max of
/// `min(base, 1 + via)` over widened rows, `u64::MAX` on disconnection.
fn u32_blend_reference(base: &[u32], via: &[u32]) -> (u64, u64) {
    let mut sum = 0u64;
    let mut mx = 0u32;
    for (&b, &v) in base.iter().zip(via) {
        let d = b.min(v.saturating_add(1));
        if d == u32::MAX {
            return (u64::MAX, u64::MAX);
        }
        mx = mx.max(d);
        sum += u64::from(d);
    }
    (sum, u64::from(mx))
}

/// Independent u32 reference for the plain row aggregate.
fn u32_row_reference(row: &[u32]) -> (u64, u64) {
    let mut sum = 0u64;
    let mut mx = 0u32;
    for &d in row {
        if d == u32::MAX {
            return (u64::MAX, u64::MAX);
        }
        mx = mx.max(d);
        sum += u64::from(d);
    }
    (sum, u64::from(mx))
}

/// Random compact row: lengths straddle every SIMD lane boundary,
/// values straddle the saturation range, and sentinels appear with
/// ~1/8 density.
fn compact_row(max_len: usize) -> impl Strategy<Value = Vec<Dist>> {
    (0usize..=max_len, any::<u64>()).prop_map(|(len, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                if rng.gen_range(0..8u32) == 0 {
                    UNREACHABLE_D
                } else if rng.gen_range(0..8u32) == 0 {
                    // Near-saturation values exercise the clamp paths.
                    MAX_FINITE_DIST - rng.gen_range(0..3u16)
                } else {
                    rng.gen_range(0..2000u16)
                }
            })
            .collect()
    })
}

/// Pair of equal-length random rows.
fn row_pair(max_len: usize) -> impl Strategy<Value = (Vec<Dist>, Vec<Dist>)> {
    (0usize..=max_len, any::<u64>()).prop_map(|(len, seed)| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let gen_row = |rng: &mut StdRng| {
            (0..len)
                .map(|_| {
                    if rng.gen_range(0..8u32) == 0 {
                        UNREACHABLE_D
                    } else {
                        rng.gen_range(0..2000u16)
                    }
                })
                .collect::<Vec<Dist>>()
        };
        let a = gen_row(&mut rng);
        let b = gen_row(&mut rng);
        (a, b)
    })
}

/// Body of `blend_costs_match_u32_reference` (kept out of the `proptest!`
/// macro, whose shim token-munches whole bodies).
fn check_blend_costs(base: &[Dist], via: &[Dist]) {
    let (wsum, wecc) = u32_blend_reference(&widen_row(base), &widen_row(via));
    assert_eq!(kernels::blend_cost_sum(base, via), wsum);
    assert_eq!(kernels::blend_cost_ecc(base, via), wecc);
    assert_eq!(blend_cost_sum_scalar(base, via), wsum);
    assert_eq!(blend_cost_ecc_scalar(base, via), wecc);
}

/// Body of `row_cost_matches_u32_reference`.
fn check_row_cost(row: &[Dist]) {
    let (wsum, wecc) = u32_row_reference(&widen_row(row));
    let c = kernels::row_cost(row);
    assert_eq!(c.sum, wsum);
    assert_eq!(
        if c.ecc == UNREACHABLE_D {
            u64::MAX
        } else {
            u64::from(c.ecc)
        },
        wecc
    );
    assert_eq!(row_cost_scalar(row), c);
}

/// Body of `fused_batch_blend_matches_sequential_u32`: the fused k-term
/// batch blend is byte-identical (and aggregate-identical) to applying the
/// same terms one scalar u32 blend at a time — the order-independence that
/// justifies fusing a whole round's insertions into one pass.
fn check_fused_batch(row0: &[Dist], seed: u64, k: usize) {
    let n = row0.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let rand_row = |rng: &mut StdRng| {
        (0..n)
            .map(|_| {
                if rng.gen_range(0..8u32) == 0 {
                    UNREACHABLE_D
                } else {
                    rng.gen_range(0..1500u16)
                }
            })
            .collect::<Vec<Dist>>()
    };
    let snaps: Vec<(Vec<Dist>, Vec<Dist>)> = (0..k)
        .map(|_| {
            let a = rand_row(&mut rng);
            let b = rand_row(&mut rng);
            (a, b)
        })
        .collect();
    let pick = |rng: &mut StdRng| {
        if rng.gen_range(0..6u32) == 0 {
            UNREACHABLE_D
        } else {
            rng.gen_range(1..1000u16)
        }
    };
    let consts: Vec<(Dist, Dist)> = (0..k)
        .map(|_| {
            let a = pick(&mut rng);
            let b = pick(&mut rng);
            (a, b)
        })
        .collect();
    let terms: Vec<BlendTerm<'_>> = (0..k)
        .map(|j| BlendTerm {
            add_a: consts[j].0,
            row_a: &snaps[j].0,
            add_b: consts[j].1,
            row_b: &snaps[j].1,
        })
        .collect();

    // Sequential u32 reference: apply each term's two min sides in order
    // over the widened row.
    let mut wide = widen_row(row0);
    for j in 0..k {
        let ca = kernels::widen(consts[j].0);
        let cb = kernels::widen(consts[j].1);
        for t in 0..n {
            let via_a = ca.saturating_add(kernels::widen(snaps[j].0[t]));
            let via_b = cb.saturating_add(kernels::widen(snaps[j].1[t]));
            wide[t] = wide[t].min(via_a).min(via_b);
        }
    }
    // u32 saturation can land between MAX_FINITE_DIST and u32::MAX; the
    // compact kernels clamp those lanes to the sentinel. Both encode "no
    // real path this short exists", so normalize the reference the same
    // way the kernels do.
    for w in &mut wide {
        if *w >= u32::from(UNREACHABLE_D) {
            *w = u32::MAX;
        }
    }
    let (wsum, wecc) = u32_row_reference(&wide);

    let mut fused = row0.to_vec();
    let fc = kernels::fused_blend_cost(&mut fused, &terms);
    assert_eq!(widen_row(&fused), wide);
    assert_eq!(fc.sum, wsum);
    assert_eq!(
        if fc.ecc == UNREACHABLE_D {
            u64::MAX
        } else {
            u64::from(fc.ecc)
        },
        wecc
    );

    // And the compact strata agree bit for bit.
    let mut scalar16 = row0.to_vec();
    let sc = fused_blend_cost_scalar(&mut scalar16, &terms);
    assert_eq!(scalar16, fused);
    assert_eq!(sc, fc);
}

/// Independent u32 reference for the masked gather min-plus: widen, gather,
/// reduce with first-attaining argmin, saturate back into the compact
/// domain.
fn u32_gather_reference(row: &[Dist], idx: &[V]) -> (Dist, u32) {
    let wide = widen_row(row);
    let mut min = u32::MAX;
    let mut pos = u32::MAX;
    for (p, &v) in idx.iter().enumerate() {
        let d = wide[v as usize];
        if pos == u32::MAX || d < min {
            min = d;
            pos = p as u32;
        }
    }
    if pos == u32::MAX {
        return (UNREACHABLE_D, u32::MAX);
    }
    let plus = min.saturating_add(1).min(u32::from(UNREACHABLE_D)) as Dist;
    (plus, pos)
}

/// Independent u32 reference for the segmented frontier relaxation.
fn u32_frontier_reference(row: &[Dist], idx: &[V], seg: &[u32], out: &[Dist]) -> Vec<Dist> {
    let wide = widen_row(row);
    out.iter()
        .enumerate()
        .map(|(j, &slot)| {
            let mut min = u32::MAX;
            for &v in &idx[seg[j] as usize..seg[j + 1] as usize] {
                min = min.min(wide[v as usize]);
            }
            let plus = min.saturating_add(1).min(u32::from(UNREACHABLE_D)) as Dist;
            slot.min(plus)
        })
        .collect()
}

/// Random frontier over a random compact row: index list into the row plus
/// segment offsets carving it into empty, single-element, and longer runs.
fn frontier_case(
    max_row: usize,
    max_idx: usize,
) -> impl Strategy<Value = (Vec<Dist>, Vec<V>, Vec<u32>)> {
    (compact_row(max_row), 0usize..=max_idx, any::<u64>()).prop_map(|(row, len, seed)| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D_CAFE);
        let row = if row.is_empty() { vec![0] } else { row };
        let idx: Vec<V> = (0..len).map(|_| rng.gen_range(0..row.len()) as V).collect();
        let mut seg: Vec<u32> = vec![0];
        let mut at = 0usize;
        while at < len {
            // Bias toward tiny segments so empty and single-element
            // frontiers appear constantly alongside vector-width ones.
            let step = match rng.gen_range(0..4u32) {
                0 => 0,
                1 => 1,
                2 => rng.gen_range(0..=4usize),
                _ => rng.gen_range(0..=16usize),
            };
            at = (at + step).min(len);
            seg.push(at as u32);
        }
        if *seg.last().unwrap() as usize != len {
            seg.push(len as u32);
        }
        (row, idx, seg)
    })
}

/// Body of `gather_min_plus_matches_u32_reference`: both strata agree
/// with the widened reference, argmin included.
fn check_gather_min_plus(row: &[Dist], idx: &[V]) {
    let expect = u32_gather_reference(row, idx);
    assert_eq!(kernels::gather_min_plus(row, idx), expect, "dispatch");
    assert_eq!(gather_min_plus_scalar(row, idx), expect, "scalar");
}

/// Body of `frontier_relax_matches_u32_reference`: the segmented
/// gather-min-plus matches the widened reference on every stratum,
/// including pre-lowered output slots.
fn check_frontier_relax(row: &[Dist], idx: &[V], seg: &[u32], seed: u64) {
    let slots = seg.len() - 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let init: Vec<Dist> = (0..slots)
        .map(|_| {
            if rng.gen_range(0..3u32) == 0 {
                rng.gen_range(0..50u16) // pre-lowered slot: only decreases
            } else {
                UNREACHABLE_D
            }
        })
        .collect();
    let expect = u32_frontier_reference(row, idx, seg, &init);
    let mut a = init.clone();
    kernels::frontier_relax(row, idx, seg, &mut a);
    assert_eq!(a, expect, "dispatch");
    let mut b = init;
    frontier_relax_scalar(row, idx, seg, &mut b);
    assert_eq!(b, expect, "scalar");
}

proptest! {
    #[test]
    fn gather_min_plus_matches_u32_reference(case in frontier_case(120, 80)) {
        let (row, idx, _) = case;
        check_gather_min_plus(&row, &idx);
    }

    #[test]
    fn frontier_relax_matches_u32_reference(
        case in frontier_case(120, 200),
        seed in any::<u64>(),
    ) {
        let (row, idx, seg) = case;
        check_frontier_relax(&row, &idx, &seg, seed);
    }

    #[test]
    fn blend_costs_match_u32_reference(pair in row_pair(200)) {
        let (base, via) = pair;
        check_blend_costs(&base, &via);
    }

    #[test]
    fn row_cost_matches_u32_reference(row in compact_row(300)) {
        check_row_cost(&row);
    }

    #[test]
    fn fused_batch_blend_matches_sequential_u32(
        pair in row_pair(150),
        seed in any::<u64>(),
        k in 1usize..5,
    ) {
        let (row0, _) = pair;
        check_fused_batch(&row0, seed, k);
    }
}

#[test]
fn frontier_kernels_handle_degenerate_frontiers() {
    // Empty frontier: nothing gathered, argmin is the sentinel position.
    let row = [7 as Dist, UNREACHABLE_D, 0];
    assert_eq!(
        kernels::gather_min_plus(&row, &[]),
        (UNREACHABLE_D, u32::MAX)
    );
    assert_eq!(gather_min_plus_scalar(&row, &[]), (UNREACHABLE_D, u32::MAX));
    // Single-element frontiers, finite and sentinel.
    check_gather_min_plus(&row, &[0]);
    check_gather_min_plus(&row, &[1]);
    check_gather_min_plus(&row, &[2]);
    // No segments at all, and all-empty segments.
    let mut out: [Dist; 0] = [];
    kernels::frontier_relax(&[], &[], &[0], &mut out);
    check_frontier_relax(&row, &[], &[0, 0, 0, 0], 42);
    // One single-element segment holding the sentinel must stay put.
    let mut out = [UNREACHABLE_D];
    kernels::frontier_relax(&[UNREACHABLE_D], &[0], &[0, 1], &mut out);
    assert_eq!(out, [UNREACHABLE_D]);
}

#[test]
fn narrow_checked_widen_roundtrip() {
    let src: Vec<u32> = (0..100)
        .map(|i| if i % 9 == 0 { u32::MAX } else { i * 37 })
        .collect();
    let mut dst = vec![0 as Dist; src.len()];
    narrow_checked(&src, &mut dst);
    assert_eq!(widen_row(&dst), src);
}

#[test]
#[should_panic(expected = "overflows the u16 distance domain")]
fn narrow_checked_panics_instead_of_wrapping() {
    // A graph with diameter ≥ u16::MAX − 1 must be rejected at the
    // narrowing seam, not silently wrapped into a small distance.
    let src = [0u32, 1, u32::from(MAX_FINITE_DIST) + 1];
    let mut dst = [0 as Dist; 3];
    narrow_checked(&src, &mut dst);
}

#[test]
#[should_panic(expected = "supports at most")]
fn matrix_build_rejects_oversized_graphs() {
    // The builders enforce the same bound up front: a graph with more
    // vertices than the compact domain can address must panic cleanly at
    // build time (a path that long would realize an unrepresentable
    // distance). Graph construction itself is cheap — the panic fires
    // before any BFS runs.
    use bncg::graph::distance::MAX_MATRIX_N;
    use bncg::graph::{DistanceMatrix, Graph};
    let n = MAX_MATRIX_N + 1;
    let g = Graph::new(n);
    let _ = DistanceMatrix::build(&g.to_csr());
}

#[test]
fn row_cost_default_is_empty_row() {
    // An empty row is trivially connected with sum 0 / ecc 0 — the
    // RowCost::default() used to seed the maintained aggregates.
    assert_eq!(kernels::row_cost(&[]), RowCost { sum: 0, ecc: 0 });
    assert_eq!(row_cost_scalar(&[]).sum, 0);
    assert_ne!(kernels::row_cost(&[UNREACHABLE_D]).sum, 0);
    assert_eq!(kernels::row_cost(&[UNREACHABLE_D]).sum, INF_SUM);
}
