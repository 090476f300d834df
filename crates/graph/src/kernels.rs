//! Compact-distance row kernels: the vectorized primitives under every
//! hot scan in the workspace.
//!
//! BFS distances in any graph this system handles fit comfortably in 16
//! bits (the builders enforce `n ≤ 65 534`, so every finite distance is
//! `≤ 65 533`), which halves the footprint of a dense distance row versus
//! the old `u32` layout and doubles the effective memory bandwidth of the
//! three scans everything reduces to:
//!
//! * the **min-plus blend** `d' = min(base, 1 + via)` of the insertion
//!   identity (swap scoring, candidate scans);
//! * the **sum reduction** `Σ_x d(v, x)` (the paper's sum usage cost);
//! * the **eccentricity reduction** `max_x d(v, x)` (the max usage cost).
//!
//! Each primitive exists in two strata:
//!
//! 1. a plain **scalar reference** (`*_scalar`) — the executable spec the
//!    property tests in `tests/kernel_props.rs` pin the fast paths to, and
//!    the dispatch target on architectures without an explicit SIMD path;
//! 2. `#[cfg]`-gated **`core::arch`** paths: SSE2 on `x86_64` (baseline,
//!    no runtime detection needed) and NEON on `aarch64`, 8 lanes per
//!    128-bit vector.
//!
//! The saturating-add trick makes the sentinel free: [`UNREACHABLE_D`] is
//! `u16::MAX`, so `via + 1` saturating at `u16::MAX` *is* the correct
//! "unreachable stays unreachable" arithmetic, with no branch per lane
//! (`_mm_adds_epu16` / `vqaddq_u16`).
//!
//! The **fused k-term batch blend** ([`fused_blend_cost`]) applies a whole
//! activation round's insertions to one row element in a single pass: the
//! round barrier's `k` blends become `2k` min terms against one
//! cache-resident load/store of the row, instead of `k` full passes over
//! the matrix. Aggregate variants (`*_cost`) compute the row's sum and
//! eccentricity in the same pass, which is what lets
//! [`DynamicApsp`](crate::dynamic::DynamicApsp) maintain per-vertex cost
//! aggregates for free on exactly the rows it already rewrites.
//!
//! The **frontier kernels** ([`gather_min_plus`], [`frontier_relax`])
//! serve the *deletion* side of the repair cycle: the Ramalingam–Reps
//! walker in [`crate::dynamic`] gathers each frontier's candidate
//! neighborhoods into contiguous scratch buffers and renders stage A's
//! alternate-parent test and phase 2's boundary seeds as batched min-plus
//! reductions over those buffers, instead of chasing the CSR one neighbor
//! at a time. The gathers themselves stay scalar (no portable `u16`
//! gather exists below AVX-512/SVE), but every reduction over the
//! gathered lanes runs through the same strata as the blends.
//!
//! # Overflow discipline
//!
//! A finite distance must stay `≤` [`MAX_FINITE_DIST`] (`u16::MAX − 2`):
//! this keeps `d + 1` representable without colliding with the sentinel,
//! so level comparisons in the repair walker stay exact. The checked
//! narrowing seam from the `u32` BFS layer ([`narrow_checked`]) panics —
//! rather than wraps — on any finite distance that does not fit, and the
//! matrix builders reject `n > MAX_FINITE_DIST + 1` outright.

use crate::V;
use bncg_telemetry as telemetry;

/// Compact distance entry: 16 bits, [`UNREACHABLE_D`] sentinel.
pub type Dist = u16;

/// Sentinel distance for unreachable pairs in compact rows. Chosen as
/// `u16::MAX` so lane-saturating adds implement "unreachable + 1 =
/// unreachable" branch-free.
pub const UNREACHABLE_D: Dist = Dist::MAX;

/// Largest finite distance a compact row may hold. One below the sentinel
/// would make `d + 1` collide with [`UNREACHABLE_D`] in the repair
/// walker's level arithmetic, so two slots are reserved.
pub const MAX_FINITE_DIST: Dist = Dist::MAX - 2;

/// Infinite row sum: the aggregate of a row with an unreachable entry.
/// Equals `bncg_core`'s `INFINITE_COST` by construction.
pub const INF_SUM: u64 = u64::MAX;

/// Sum and eccentricity of one compact distance row, computed in a single
/// pass. `sum == INF_SUM` and `ecc == UNREACHABLE_D` iff some entry is
/// unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowCost {
    /// `Σ_x d(v, x)`, or [`INF_SUM`] when disconnected.
    pub sum: u64,
    /// `max_x d(v, x)`, or [`UNREACHABLE_D`] when disconnected.
    pub ecc: Dist,
}

impl RowCost {
    /// The eccentricity as a game cost (`u64::MAX` when disconnected) —
    /// the max objective's value of this row.
    #[inline]
    pub fn ecc_cost(&self) -> u64 {
        if self.ecc == UNREACHABLE_D {
            INF_SUM
        } else {
            u64::from(self.ecc)
        }
    }
}

/// One insertion's contribution to a fused batch blend of a row `s`:
/// two min terms `add_a + row_a[t]` and `add_b + row_b[t]` (lane-saturating
/// adds), where `add_a = d(s, x) + 1` pairs with `row_b`-side snapshot
/// distances from `y` and vice versa. Callers pre-evolve the constants per
/// row (see `DynamicApsp::update_insertions_batch`) and drop terms the
/// adjacent-levels skip test proves inert.
#[derive(Debug, Clone, Copy)]
pub struct BlendTerm<'a> {
    /// Constant side A: `d(s, x) saturating+ 1`.
    pub add_a: Dist,
    /// Snapshot row paired with side A (distances from `y`).
    pub row_a: &'a [Dist],
    /// Constant side B: `d(s, y) saturating+ 1`.
    pub add_b: Dist,
    /// Snapshot row paired with side B (distances from `x`).
    pub row_b: &'a [Dist],
}

/// Widens one compact entry to the legacy `u32` convention
/// (`UNREACHABLE_D` ↦ `u32::MAX`).
#[inline]
pub fn widen(d: Dist) -> u32 {
    if d == UNREACHABLE_D {
        u32::MAX
    } else {
        u32::from(d)
    }
}

/// A finite distance that does not fit the compact `u16` domain — the
/// typed form of the overflow the narrowing seam guards against. The
/// service path surfaces this as an error so a pathological graph
/// degrades a session instead of aborting the process; every other
/// caller keeps the panic ([`narrow_checked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistOverflow {
    /// The offending finite wide distance.
    pub value: u32,
}

impl std::fmt::Display for DistOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "finite distance {} overflows the u16 distance domain \
             (max {MAX_FINITE_DIST}); graphs this large are unsupported",
            self.value
        )
    }
}

impl std::error::Error for DistOverflow {}

/// Checked narrowing from a `u32` BFS row into a compact row:
/// `u32::MAX` (the wide unreachable sentinel) maps to [`UNREACHABLE_D`];
/// any other value above [`MAX_FINITE_DIST`] is a real distance that does
/// not fit and **panics** — wrapping silently would corrupt every
/// downstream blend. Fallible callers (the round service's build path)
/// use [`try_narrow`] instead.
///
/// # Panics
/// Panics when a finite entry exceeds [`MAX_FINITE_DIST`], or when the
/// slice lengths differ.
pub fn narrow_checked(src: &[u32], dst: &mut [Dist]) {
    if let Err(e) = try_narrow(src, dst) {
        panic!("{e}");
    }
}

/// [`narrow_checked`] with a typed error instead of the panic: a finite
/// entry beyond [`MAX_FINITE_DIST`] returns [`DistOverflow`] (with `dst`
/// clamped to the unreachable sentinel at the overflowing positions — the
/// row is not usable, only inspectable).
///
/// # Panics
/// Panics when the slice lengths differ (a caller bug, never a data
/// condition).
pub fn try_narrow(src: &[u32], dst: &mut [Dist]) -> Result<(), DistOverflow> {
    assert_eq!(src.len(), dst.len(), "row length mismatch");
    // Branchless main pass (autovectorizes: select + accumulate, no early
    // exit): oversized entries clamp to the sentinel while a flag records
    // whether any of them was a *finite* overflow rather than the wide
    // sentinel. The cold rescan below recovers the offending value only
    // when the pass is about to fail anyway.
    let mut bad = false;
    for (&s, d) in src.iter().zip(dst.iter_mut()) {
        let over = s > u32::from(MAX_FINITE_DIST);
        bad |= over & (s != u32::MAX);
        *d = if over { UNREACHABLE_D } else { s as Dist };
    }
    if bad {
        let value = *src
            .iter()
            .find(|&&s| s > u32::from(MAX_FINITE_DIST) && s != u32::MAX)
            .expect("flag only set by such an entry");
        return Err(DistOverflow { value });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scalar references — the executable spec.
// ---------------------------------------------------------------------------

/// Scalar reference for [`blend_cost_sum`]: sum of the blended row
/// `min(base, 1 + via)` without materializing it, [`INF_SUM`] when some
/// blended entry is unreachable.
pub fn blend_cost_sum_scalar(base: &[Dist], via: &[Dist]) -> u64 {
    debug_assert_eq!(base.len(), via.len());
    let mut sum = 0u64;
    let mut mx: Dist = 0;
    for (&b, &v) in base.iter().zip(via) {
        let d = b.min(v.saturating_add(1));
        mx = mx.max(d);
        sum += u64::from(d);
    }
    if mx == UNREACHABLE_D {
        INF_SUM
    } else {
        sum
    }
}

/// Scalar reference for [`blend_cost_ecc`]: max of the blended row,
/// [`INF_SUM`] when some blended entry is unreachable, else the
/// eccentricity as `u64`.
pub fn blend_cost_ecc_scalar(base: &[Dist], via: &[Dist]) -> u64 {
    debug_assert_eq!(base.len(), via.len());
    let mut mx: Dist = 0;
    for (&b, &v) in base.iter().zip(via) {
        mx = mx.max(b.min(v.saturating_add(1)));
    }
    if mx == UNREACHABLE_D {
        INF_SUM
    } else {
        u64::from(mx)
    }
}

/// Scalar reference for [`row_cost`]: one-pass sum + eccentricity.
pub fn row_cost_scalar(row: &[Dist]) -> RowCost {
    let mut sum = 0u64;
    let mut mx: Dist = 0;
    for &d in row {
        mx = mx.max(d);
        sum += u64::from(d);
    }
    if mx == UNREACHABLE_D {
        RowCost {
            sum: INF_SUM,
            ecc: UNREACHABLE_D,
        }
    } else {
        RowCost { sum, ecc: mx }
    }
}

/// Scalar reference for [`fused_blend_cost`]: applies every term's two min
/// sides to each element in one pass and returns the resulting row
/// aggregates.
pub fn fused_blend_cost_scalar(row: &mut [Dist], terms: &[BlendTerm<'_>]) -> RowCost {
    let mut sum = 0u64;
    let mut mx: Dist = 0;
    for (t, slot) in row.iter_mut().enumerate() {
        let mut m = *slot;
        for term in terms {
            m = m
                .min(term.add_a.saturating_add(term.row_a[t]))
                .min(term.add_b.saturating_add(term.row_b[t]));
        }
        *slot = m;
        mx = mx.max(m);
        sum += u64::from(m);
    }
    if mx == UNREACHABLE_D {
        RowCost {
            sum: INF_SUM,
            ecc: UNREACHABLE_D,
        }
    } else {
        RowCost { sum, ecc: mx }
    }
}

/// Scalar reference for [`gather_min_plus`]: gathers `row[i]` for each
/// vertex `i` in `idx` and returns the minimum **plus one**
/// (lane-saturating, so an all-unreachable gather stays unreachable)
/// together with the position *in `idx`* of the first entry attaining the
/// raw minimum. An empty `idx` yields `(UNREACHABLE_D, u32::MAX)`.
pub fn gather_min_plus_scalar(row: &[Dist], idx: &[V]) -> (Dist, u32) {
    let mut min = UNREACHABLE_D;
    let mut pos = u32::MAX;
    for (p, &v) in idx.iter().enumerate() {
        let d = row[v as usize];
        if pos == u32::MAX || d < min {
            min = d;
            pos = p as u32;
        }
    }
    if pos == u32::MAX {
        (UNREACHABLE_D, u32::MAX)
    } else {
        (min.saturating_add(1), pos)
    }
}

/// Scalar reference for [`frontier_relax`]: for each segment `j`
/// (`idx[seg[j]..seg[j + 1]]`, one frontier vertex's gathered boundary
/// ids) lowers `out[j]` to `min(out[j], min(row over the segment)
/// saturating+ 1)`. An empty segment leaves its slot unchanged.
pub fn frontier_relax_scalar(row: &[Dist], idx: &[V], seg: &[u32], out: &mut [Dist]) {
    debug_assert_eq!(seg.len(), out.len() + 1, "seg must bound every slot");
    for (j, slot) in out.iter_mut().enumerate() {
        let mut min = UNREACHABLE_D;
        for &v in &idx[seg[j] as usize..seg[j + 1] as usize] {
            min = min.min(row[v as usize]);
        }
        *slot = (*slot).min(min.saturating_add(1));
    }
}

// ---------------------------------------------------------------------------
// SSE2 — x86_64 baseline, 8 × u16 lanes per 128-bit vector.
// ---------------------------------------------------------------------------

/// SSE2 implementations (baseline on every `x86_64` target — no runtime
/// feature detection needed). Unsigned 16-bit min/max are synthesized from
/// saturating subtraction (`pminuw` is SSE4.1): `min(a,b) = a − (a ⊖ b)`,
/// `max(a,b) = b + (a ⊖ b)` with `⊖` the saturating subtract.
///
/// Safety: the only unsafe operations are unaligned 128-bit loads/stores
/// (`_mm_loadu_si128` / `_mm_storeu_si128`) on in-bounds slice regions —
/// every pointer is derived from a live `&[Dist]`/`&mut [Dist]` and offset
/// strictly inside it; the scalar tail handles the remainder.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sse2 {
    use core::arch::x86_64::*;

    use super::{BlendTerm, Dist, RowCost, INF_SUM, UNREACHABLE_D};
    use crate::V;

    /// Lanes per vector.
    const L: usize = 8;

    #[inline]
    unsafe fn loadu(s: &[Dist], i: usize) -> __m128i {
        debug_assert!(i + L <= s.len());
        _mm_loadu_si128(s.as_ptr().add(i) as *const __m128i)
    }

    #[inline]
    unsafe fn storeu(s: &mut [Dist], i: usize, v: __m128i) {
        debug_assert!(i + L <= s.len());
        _mm_storeu_si128(s.as_mut_ptr().add(i) as *mut __m128i, v)
    }

    /// Per-lane unsigned u16 min via saturating subtract.
    #[inline]
    unsafe fn umin(a: __m128i, b: __m128i) -> __m128i {
        _mm_sub_epi16(a, _mm_subs_epu16(a, b))
    }

    /// Per-lane unsigned u16 max via saturating subtract.
    #[inline]
    unsafe fn umax(a: __m128i, b: __m128i) -> __m128i {
        _mm_add_epi16(b, _mm_subs_epu16(a, b))
    }

    /// Horizontal max of 8 u16 lanes.
    #[inline]
    unsafe fn hmax(v: __m128i) -> Dist {
        let v = umax(v, _mm_srli_si128(v, 8));
        let v = umax(v, _mm_srli_si128(v, 4));
        let v = umax(v, _mm_srli_si128(v, 2));
        _mm_cvtsi128_si32(v) as u16
    }

    /// Horizontal min of 8 u16 lanes.
    #[inline]
    unsafe fn hmin(v: __m128i) -> Dist {
        let v = umin(v, _mm_srli_si128(v, 8));
        let v = umin(v, _mm_srli_si128(v, 4));
        let v = umin(v, _mm_srli_si128(v, 2));
        _mm_cvtsi128_si32(v) as u16
    }

    /// Horizontal sum of 4 u32 lanes.
    #[inline]
    unsafe fn hsum32(v: __m128i) -> u64 {
        let hi = _mm_srli_si128(v, 8);
        let s = _mm_add_epi32(v, hi);
        let s2 = _mm_add_epi32(s, _mm_srli_si128(s, 4));
        _mm_cvtsi128_si32(s2) as u32 as u64
    }

    pub fn blend_cost_sum(base: &[Dist], via: &[Dist]) -> u64 {
        debug_assert_eq!(base.len(), via.len());
        let nl = base.len() & !(L - 1);
        let mut sum;
        let mut mx;
        // SAFETY: all vector accesses are at offsets i with i + 8 <= len.
        // u32 accumulator lanes hold at most (len/8) · 0xFFFF, safe for
        // every supported n (n ≤ 65 534 ⇒ < 2³⁰ per lane).
        unsafe {
            let ones = _mm_set1_epi16(1);
            let zero = _mm_setzero_si128();
            let mut acc = zero;
            let mut vmx = zero;
            let mut i = 0;
            while i < nl {
                let d = umin(loadu(base, i), _mm_adds_epu16(loadu(via, i), ones));
                vmx = umax(vmx, d);
                acc = _mm_add_epi32(acc, _mm_unpacklo_epi16(d, zero));
                acc = _mm_add_epi32(acc, _mm_unpackhi_epi16(d, zero));
                i += L;
            }
            sum = hsum32(acc);
            mx = hmax(vmx);
        }
        for t in nl..base.len() {
            let d = base[t].min(via[t].saturating_add(1));
            mx = mx.max(d);
            sum += u64::from(d);
        }
        if mx == UNREACHABLE_D {
            INF_SUM
        } else {
            sum
        }
    }

    pub fn blend_cost_ecc(base: &[Dist], via: &[Dist]) -> u64 {
        debug_assert_eq!(base.len(), via.len());
        let nl = base.len() & !(L - 1);
        let mut mx;
        // SAFETY: all vector accesses are at offsets i with i + 8 <= len.
        unsafe {
            let ones = _mm_set1_epi16(1);
            let mut vmx = _mm_setzero_si128();
            let mut i = 0;
            while i < nl {
                vmx = umax(
                    vmx,
                    umin(loadu(base, i), _mm_adds_epu16(loadu(via, i), ones)),
                );
                i += L;
            }
            mx = hmax(vmx);
        }
        for t in nl..base.len() {
            mx = mx.max(base[t].min(via[t].saturating_add(1)));
        }
        if mx == UNREACHABLE_D {
            INF_SUM
        } else {
            u64::from(mx)
        }
    }

    pub fn row_cost(row: &[Dist]) -> RowCost {
        let nl = row.len() & !(L - 1);
        let mut sum;
        let mut mx;
        // SAFETY: all vector accesses are at offsets i with i + 8 <= len.
        unsafe {
            let zero = _mm_setzero_si128();
            let mut acc = zero;
            let mut vmx = zero;
            let mut i = 0;
            while i < nl {
                let d = loadu(row, i);
                vmx = umax(vmx, d);
                acc = _mm_add_epi32(acc, _mm_unpacklo_epi16(d, zero));
                acc = _mm_add_epi32(acc, _mm_unpackhi_epi16(d, zero));
                i += L;
            }
            sum = hsum32(acc);
            mx = hmax(vmx);
        }
        for &d in &row[nl..] {
            mx = mx.max(d);
            sum += u64::from(d);
        }
        if mx == UNREACHABLE_D {
            RowCost {
                sum: INF_SUM,
                ecc: UNREACHABLE_D,
            }
        } else {
            RowCost { sum, ecc: mx }
        }
    }

    /// Frontiers shorter than one vector skip straight to the scalar
    /// reduction — the lane setup and horizontal fold would cost more
    /// than they save on low-degree frontiers.
    pub fn gather_min_plus(row: &[Dist], idx: &[V]) -> (Dist, u32) {
        if idx.len() < L {
            return super::gather_min_plus_scalar(row, idx);
        }
        let nl = idx.len() & !(L - 1);
        // SAFETY: the only vector ops load a local stack buffer filled by
        // bounds-checked slice indexing.
        let mut mn = unsafe {
            let mut vmn = _mm_set1_epi16(-1); // all lanes UNREACHABLE_D
            let mut buf = [UNREACHABLE_D; L];
            let mut i = 0;
            while i < nl {
                for (slot, &v) in buf.iter_mut().zip(&idx[i..i + L]) {
                    *slot = row[v as usize];
                }
                vmn = umin(vmn, _mm_loadu_si128(buf.as_ptr() as *const __m128i));
                i += L;
            }
            hmin(vmn)
        };
        for &v in &idx[nl..] {
            mn = mn.min(row[v as usize]);
        }
        let pos = idx
            .iter()
            .position(|&v| row[v as usize] == mn)
            .expect("some gathered entry attains the minimum") as u32;
        (mn.saturating_add(1), pos)
    }

    /// Sub-vector-width segments (the common case on low-degree
    /// frontiers) take a plain scalar gather-min instead of paying the
    /// lane setup and horizontal fold.
    pub fn frontier_relax(row: &[Dist], idx: &[V], seg: &[u32], out: &mut [Dist]) {
        debug_assert_eq!(seg.len(), out.len() + 1, "seg must bound every slot");
        for (j, slot) in out.iter_mut().enumerate() {
            let s = seg[j] as usize;
            let e = seg[j + 1] as usize;
            let len = e - s;
            let mut mn = UNREACHABLE_D;
            if len < L {
                for &v in &idx[s..e] {
                    mn = mn.min(row[v as usize]);
                }
            } else {
                let nl = len & !(L - 1);
                // SAFETY: the only vector ops load a local stack buffer
                // filled by bounds-checked slice indexing.
                mn = unsafe {
                    let mut vmn = _mm_set1_epi16(-1);
                    let mut buf = [UNREACHABLE_D; L];
                    let mut i = s;
                    while i < s + nl {
                        for (slot, &v) in buf.iter_mut().zip(&idx[i..i + L]) {
                            *slot = row[v as usize];
                        }
                        vmn = umin(vmn, _mm_loadu_si128(buf.as_ptr() as *const __m128i));
                        i += L;
                    }
                    hmin(vmn)
                };
                for &v in &idx[s + nl..e] {
                    mn = mn.min(row[v as usize]);
                }
            }
            *slot = (*slot).min(mn.saturating_add(1));
        }
    }

    pub fn fused_blend_cost(row: &mut [Dist], terms: &[BlendTerm<'_>]) -> RowCost {
        let nl = row.len() & !(L - 1);
        let mut sum;
        let mut mx;
        // SAFETY: all vector accesses are at offsets i with i + 8 <= len;
        // every term's snapshot rows have the same length as `row`
        // (debug-asserted), so the same bound covers them.
        unsafe {
            let zero = _mm_setzero_si128();
            let mut acc = zero;
            let mut vmx = zero;
            let mut i = 0;
            while i < nl {
                let mut m = loadu(row, i);
                for term in terms {
                    debug_assert_eq!(term.row_a.len(), row.len());
                    debug_assert_eq!(term.row_b.len(), row.len());
                    let ca = _mm_set1_epi16(term.add_a as i16);
                    let cb = _mm_set1_epi16(term.add_b as i16);
                    m = umin(m, _mm_adds_epu16(loadu(term.row_a, i), ca));
                    m = umin(m, _mm_adds_epu16(loadu(term.row_b, i), cb));
                }
                storeu(row, i, m);
                vmx = umax(vmx, m);
                acc = _mm_add_epi32(acc, _mm_unpacklo_epi16(m, zero));
                acc = _mm_add_epi32(acc, _mm_unpackhi_epi16(m, zero));
                i += L;
            }
            sum = hsum32(acc);
            mx = hmax(vmx);
        }
        for t in nl..row.len() {
            let mut m = row[t];
            for term in terms {
                m = m
                    .min(term.add_a.saturating_add(term.row_a[t]))
                    .min(term.add_b.saturating_add(term.row_b[t]));
            }
            row[t] = m;
            mx = mx.max(m);
            sum += u64::from(m);
        }
        if mx == UNREACHABLE_D {
            RowCost {
                sum: INF_SUM,
                ecc: UNREACHABLE_D,
            }
        } else {
            RowCost { sum, ecc: mx }
        }
    }
}

// ---------------------------------------------------------------------------
// NEON — aarch64, 8 × u16 lanes per 128-bit vector.
// ---------------------------------------------------------------------------

/// NEON implementations (`aarch64` mandates NEON, so no runtime
/// detection). Unsigned u16 min/max and saturating add are native
/// (`vminq_u16` / `vmaxq_u16` / `vqaddq_u16`); horizontal reductions use
/// the across-vector forms (`vaddlvq_u16`, `vmaxvq_u16`).
///
/// Safety: as in the SSE2 module, the only unsafe operations are
/// unaligned vector loads/stores on in-bounds slice regions.
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon {
    use core::arch::aarch64::*;

    use super::{BlendTerm, Dist, RowCost, INF_SUM, UNREACHABLE_D};
    use crate::V;

    const L: usize = 8;

    pub fn blend_cost_sum(base: &[Dist], via: &[Dist]) -> u64 {
        debug_assert_eq!(base.len(), via.len());
        let nl = base.len() & !(L - 1);
        let mut sum = 0u64;
        let mut mx: Dist = 0;
        // SAFETY: all vector accesses are at offsets i with i + 8 <= len.
        unsafe {
            let ones = vdupq_n_u16(1);
            let mut vmx = vdupq_n_u16(0);
            let mut i = 0;
            while i < nl {
                let d = vminq_u16(
                    vld1q_u16(base.as_ptr().add(i)),
                    vqaddq_u16(vld1q_u16(via.as_ptr().add(i)), ones),
                );
                vmx = vmaxq_u16(vmx, d);
                sum += u64::from(vaddlvq_u16(d));
                i += L;
            }
            mx = mx.max(vmaxvq_u16(vmx));
        }
        for t in nl..base.len() {
            let d = base[t].min(via[t].saturating_add(1));
            mx = mx.max(d);
            sum += u64::from(d);
        }
        if mx == UNREACHABLE_D {
            INF_SUM
        } else {
            sum
        }
    }

    pub fn blend_cost_ecc(base: &[Dist], via: &[Dist]) -> u64 {
        debug_assert_eq!(base.len(), via.len());
        let nl = base.len() & !(L - 1);
        let mut mx: Dist = 0;
        // SAFETY: all vector accesses are at offsets i with i + 8 <= len.
        unsafe {
            let ones = vdupq_n_u16(1);
            let mut vmx = vdupq_n_u16(0);
            let mut i = 0;
            while i < nl {
                let d = vminq_u16(
                    vld1q_u16(base.as_ptr().add(i)),
                    vqaddq_u16(vld1q_u16(via.as_ptr().add(i)), ones),
                );
                vmx = vmaxq_u16(vmx, d);
                i += L;
            }
            mx = mx.max(vmaxvq_u16(vmx));
        }
        for t in nl..base.len() {
            mx = mx.max(base[t].min(via[t].saturating_add(1)));
        }
        if mx == UNREACHABLE_D {
            INF_SUM
        } else {
            u64::from(mx)
        }
    }

    pub fn row_cost(row: &[Dist]) -> RowCost {
        let nl = row.len() & !(L - 1);
        let mut sum = 0u64;
        let mut mx: Dist = 0;
        // SAFETY: all vector accesses are at offsets i with i + 8 <= len.
        unsafe {
            let mut vmx = vdupq_n_u16(0);
            let mut i = 0;
            while i < nl {
                let d = vld1q_u16(row.as_ptr().add(i));
                vmx = vmaxq_u16(vmx, d);
                sum += u64::from(vaddlvq_u16(d));
                i += L;
            }
            mx = mx.max(vmaxvq_u16(vmx));
        }
        for &d in &row[nl..] {
            mx = mx.max(d);
            sum += u64::from(d);
        }
        if mx == UNREACHABLE_D {
            RowCost {
                sum: INF_SUM,
                ecc: UNREACHABLE_D,
            }
        } else {
            RowCost { sum, ecc: mx }
        }
    }

    /// Frontiers shorter than one vector skip straight to the scalar
    /// reduction — the lane setup and horizontal fold would cost more
    /// than they save on low-degree frontiers.
    pub fn gather_min_plus(row: &[Dist], idx: &[V]) -> (Dist, u32) {
        if idx.len() < L {
            return super::gather_min_plus_scalar(row, idx);
        }
        let nl = idx.len() & !(L - 1);
        // SAFETY: the only vector ops load a local stack buffer filled by
        // bounds-checked slice indexing.
        let mut mn = unsafe {
            let mut vmn = vdupq_n_u16(UNREACHABLE_D);
            let mut buf = [UNREACHABLE_D; L];
            let mut i = 0;
            while i < nl {
                for (slot, &v) in buf.iter_mut().zip(&idx[i..i + L]) {
                    *slot = row[v as usize];
                }
                vmn = vminq_u16(vmn, vld1q_u16(buf.as_ptr()));
                i += L;
            }
            vminvq_u16(vmn)
        };
        for &v in &idx[nl..] {
            mn = mn.min(row[v as usize]);
        }
        let pos = idx
            .iter()
            .position(|&v| row[v as usize] == mn)
            .expect("some gathered entry attains the minimum") as u32;
        (mn.saturating_add(1), pos)
    }

    /// Sub-vector-width segments (the common case on low-degree
    /// frontiers) take a plain scalar gather-min instead of paying the
    /// lane setup and horizontal fold.
    pub fn frontier_relax(row: &[Dist], idx: &[V], seg: &[u32], out: &mut [Dist]) {
        debug_assert_eq!(seg.len(), out.len() + 1, "seg must bound every slot");
        for (j, slot) in out.iter_mut().enumerate() {
            let s = seg[j] as usize;
            let e = seg[j + 1] as usize;
            let len = e - s;
            let mut mn = UNREACHABLE_D;
            if len < L {
                for &v in &idx[s..e] {
                    mn = mn.min(row[v as usize]);
                }
            } else {
                let nl = len & !(L - 1);
                // SAFETY: the only vector ops load a local stack buffer
                // filled by bounds-checked slice indexing.
                mn = unsafe {
                    let mut vmn = vdupq_n_u16(UNREACHABLE_D);
                    let mut buf = [UNREACHABLE_D; L];
                    let mut i = s;
                    while i < s + nl {
                        for (slot, &v) in buf.iter_mut().zip(&idx[i..i + L]) {
                            *slot = row[v as usize];
                        }
                        vmn = vminq_u16(vmn, vld1q_u16(buf.as_ptr()));
                        i += L;
                    }
                    vminvq_u16(vmn)
                };
                for &v in &idx[s + nl..e] {
                    mn = mn.min(row[v as usize]);
                }
            }
            *slot = (*slot).min(mn.saturating_add(1));
        }
    }

    pub fn fused_blend_cost(row: &mut [Dist], terms: &[BlendTerm<'_>]) -> RowCost {
        let nl = row.len() & !(L - 1);
        let mut sum = 0u64;
        let mut mx: Dist = 0;
        // SAFETY: all vector accesses are at offsets i with i + 8 <= len;
        // term snapshot rows share `row`'s length (debug-asserted).
        unsafe {
            let mut vmx = vdupq_n_u16(0);
            let mut i = 0;
            while i < nl {
                let mut m = vld1q_u16(row.as_ptr().add(i));
                for term in terms {
                    debug_assert_eq!(term.row_a.len(), row.len());
                    debug_assert_eq!(term.row_b.len(), row.len());
                    let ca = vdupq_n_u16(term.add_a);
                    let cb = vdupq_n_u16(term.add_b);
                    m = vminq_u16(m, vqaddq_u16(vld1q_u16(term.row_a.as_ptr().add(i)), ca));
                    m = vminq_u16(m, vqaddq_u16(vld1q_u16(term.row_b.as_ptr().add(i)), cb));
                }
                vst1q_u16(row.as_mut_ptr().add(i), m);
                vmx = vmaxq_u16(vmx, m);
                sum += u64::from(vaddlvq_u16(m));
                i += L;
            }
            mx = mx.max(vmaxvq_u16(vmx));
        }
        for t in nl..row.len() {
            let mut m = row[t];
            for term in terms {
                m = m
                    .min(term.add_a.saturating_add(term.row_a[t]))
                    .min(term.add_b.saturating_add(term.row_b[t]));
            }
            row[t] = m;
            mx = mx.max(m);
            sum += u64::from(m);
        }
        if mx == UNREACHABLE_D {
            RowCost {
                sum: INF_SUM,
                ecc: UNREACHABLE_D,
            }
        } else {
            RowCost { sum, ecc: mx }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch — compile-time routing to the best available path.
// ---------------------------------------------------------------------------

/// Routes a kernel call to the SIMD stratum of the target architecture,
/// or to its scalar reference on targets without one.
macro_rules! dispatch {
    ($($args:expr),*; $name:ident, $scalar:ident) => {{
        #[cfg(target_arch = "x86_64")]
        {
            sse2::$name($($args),*)
        }
        #[cfg(target_arch = "aarch64")]
        {
            neon::$name($($args),*)
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            $scalar($($args),*)
        }
    }};
}

/// The compile-time stratum the [`dispatch!`] macro routes to, as a
/// telemetry counter name.
#[cfg(target_arch = "x86_64")]
const DISPATCH_STRATUM: &str = "kernels.dispatch.sse2";
#[cfg(target_arch = "aarch64")]
const DISPATCH_STRATUM: &str = "kernels.dispatch.neon";
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
const DISPATCH_STRATUM: &str = "kernels.dispatch.scalar";

/// Lanes per 128-bit SSE2/NEON vector (8 × `u16`).
const DISPATCH_LANES: usize = 8;

/// Count one public kernel call against its dispatch stratum. Calls whose
/// driving slice is shorter than one vector never enter the vectorized
/// main loop — only the stratum's scalar tail — so they are counted as
/// `kernels.dispatch.scalar` instead.
#[inline]
fn count_dispatch(len: usize) {
    if len >= DISPATCH_LANES {
        telemetry::counter!(DISPATCH_STRATUM).incr();
    } else {
        telemetry::counter!("kernels.dispatch.scalar").incr();
    }
}

/// Sum of the blended row `min(base, 1 + via)` without materializing it —
/// the sum objective's `cost_with_insertion`. [`INF_SUM`] when some
/// blended entry is unreachable.
///
/// Rows must respect the matrix bound (`len ≤ MAX_FINITE_DIST + 1`,
/// debug-asserted): the SIMD paths accumulate in `u32` lanes, which is
/// exact for every supported row length but would wrap far beyond it.
///
/// # Examples
/// ```
/// use bncg_graph::kernels::{blend_cost_sum, INF_SUM, UNREACHABLE_D};
///
/// // Blended row is [0, 2, 2]: sum 4.
/// assert_eq!(blend_cost_sum(&[0, 4, UNREACHABLE_D], &[9, 1, 1]), 4);
/// // A blended entry stuck at the sentinel poisons the whole sum.
/// assert_eq!(
///     blend_cost_sum(&[UNREACHABLE_D], &[UNREACHABLE_D]),
///     INF_SUM
/// );
/// ```
#[inline]
pub fn blend_cost_sum(base: &[Dist], via: &[Dist]) -> u64 {
    debug_assert!(base.len() <= MAX_FINITE_DIST as usize + 1);
    count_dispatch(base.len());
    dispatch!(base, via; blend_cost_sum, blend_cost_sum_scalar)
}

/// Eccentricity of the blended row `min(base, 1 + via)` as a game cost —
/// the max objective's `cost_with_insertion`. [`INF_SUM`] when some
/// blended entry is unreachable.
///
/// # Examples
/// ```
/// use bncg_graph::kernels::{blend_cost_ecc, UNREACHABLE_D};
///
/// // Blended row is [0, 2, 3]: eccentricity 3.
/// assert_eq!(blend_cost_ecc(&[0, 4, UNREACHABLE_D], &[9, 1, 2]), 3);
/// ```
#[inline]
pub fn blend_cost_ecc(base: &[Dist], via: &[Dist]) -> u64 {
    count_dispatch(base.len());
    dispatch!(base, via; blend_cost_ecc, blend_cost_ecc_scalar)
}

/// One-pass sum + eccentricity of a compact row — the primitive behind
/// both objectives' `cost_of_row` and the maintained per-vertex
/// aggregates. Same row-length bound as [`blend_cost_sum`]
/// (debug-asserted).
///
/// # Examples
/// ```
/// use bncg_graph::kernels::row_cost;
///
/// let c = row_cost(&[0u16, 1, 2, 2]);
/// assert_eq!((c.sum, c.ecc), (5, 2));
/// assert_eq!(c.ecc_cost(), 2);
/// ```
#[inline]
pub fn row_cost(row: &[Dist]) -> RowCost {
    debug_assert!(row.len() <= MAX_FINITE_DIST as usize + 1);
    count_dispatch(row.len());
    dispatch!(row; row_cost, row_cost_scalar)
}

/// Fused k-term batch blend of one row: applies every term's two min
/// sides (`add_a + row_a[t]`, `add_b + row_b[t]`, lane-saturating) to each
/// element in one pass over the row, returning the blended row's
/// aggregates. With `k` insertions at a round barrier this touches the
/// row once instead of `k` times — the memory-bound regime where batching
/// actually pays.
/// Same row-length bound as [`blend_cost_sum`] (debug-asserted).
///
/// # Examples
/// ```
/// use bncg_graph::kernels::{fused_blend_cost, BlendTerm};
///
/// let mut row = [5u16, 5, 5];
/// let snap_a = [0u16, 9, 9];
/// let snap_b = [9u16, 0, 9];
/// let term = BlendTerm { add_a: 2, row_a: &snap_a, add_b: 3, row_b: &snap_b };
/// let c = fused_blend_cost(&mut row, &[term]);
/// // Each element took min(base, 2 + snap_a, 3 + snap_b).
/// assert_eq!(row, [2, 3, 5]);
/// assert_eq!((c.sum, c.ecc), (10, 5));
/// ```
#[inline]
pub fn fused_blend_cost(row: &mut [Dist], terms: &[BlendTerm<'_>]) -> RowCost {
    debug_assert!(row.len() <= MAX_FINITE_DIST as usize + 1);
    count_dispatch(row.len());
    dispatch!(row, terms; fused_blend_cost, fused_blend_cost_scalar)
}

/// Masked gather min-plus: gathers `row[i]` for each vertex `i` in `idx`
/// (the caller's mask — dropped edges, already-affected marks — is applied
/// while *building* `idx`, which is what makes the gather "masked") and
/// returns `min(row[i]) saturating+ 1` together with the position in `idx`
/// of the **first** entry attaining the raw minimum. An empty frontier
/// yields `(UNREACHABLE_D, u32::MAX)`.
///
/// This is the primitive under the deletion-repair walker's tight-parent
/// test (`min + 1 == level(far)` ⟺ an alternate parent survives) and
/// per-vertex boundary seeding; see [`crate::dynamic`].
///
/// # Panics
/// Panics (via slice indexing) when some `idx` entry is out of bounds for
/// `row`.
///
/// # Examples
/// ```
/// use bncg_graph::kernels::{gather_min_plus, UNREACHABLE_D};
///
/// let row = [3u16, 9, 1, 1, UNREACHABLE_D];
/// // min over {9, 1, 1} is 1 (first attained by vertex 2, position 1).
/// assert_eq!(gather_min_plus(&row, &[1, 2, 3]), (2, 1));
/// // Unreachable entries saturate instead of wrapping.
/// assert_eq!(gather_min_plus(&row, &[4]), (UNREACHABLE_D, 0));
/// assert_eq!(gather_min_plus(&row, &[]), (UNREACHABLE_D, u32::MAX));
/// ```
#[inline]
pub fn gather_min_plus(row: &[Dist], idx: &[V]) -> (Dist, u32) {
    count_dispatch(idx.len());
    dispatch!(row, idx; gather_min_plus, gather_min_plus_scalar)
}

/// Fused multi-row min across a level bucket: `idx` concatenates the
/// gathered boundary ids of a whole frontier level (one segment per
/// frontier vertex, bounded by the `seg` offsets, with `seg.len() ==
/// out.len() + 1`), and each `out[j]` is lowered to `min(out[j],
/// min(row over segment j) saturating+ 1)` in one pass over the
/// contiguous index buffer. Empty segments leave their slot unchanged, so
/// initializing `out` to [`UNREACHABLE_D`] turns the call into a plain
/// segmented gather-min-plus reduction.
///
/// Fusing the bucket's many tiny per-vertex reductions into one
/// contiguous sweep is what lets the deletion-repair frontiers batch
/// their row reads through this layer instead of chasing the CSR
/// neighbor-by-neighbor; see [`crate::dynamic`].
///
/// # Panics
/// Panics (via slice indexing) when `seg` does not hold `out.len() + 1`
/// non-decreasing offsets into `idx`, or when some `idx` entry is out of
/// bounds for `row`.
///
/// # Examples
/// ```
/// use bncg_graph::kernels::{frontier_relax, UNREACHABLE_D};
///
/// let row = [4u16, 2, 7, UNREACHABLE_D];
/// let idx = [0u32, 1, 2, 3];
/// let seg = [0u32, 2, 2, 4]; // segments {row[0], row[1]}, {}, {row[2], row[3]}
/// let mut out = [UNREACHABLE_D; 3];
/// frontier_relax(&row, &idx, &seg, &mut out);
/// assert_eq!(out, [3, UNREACHABLE_D, 8]);
/// ```
#[inline]
pub fn frontier_relax(row: &[Dist], idx: &[V], seg: &[u32], out: &mut [Dist]) {
    count_dispatch(idx.len());
    dispatch!(row, idx, seg, out; frontier_relax, frontier_relax_scalar)
}

/// Row cost restricted to an index set: `Σ_{i ∈ idx} row[i]`, or
/// [`INF_SUM`] when some selected entry is unreachable — the sparse-row
/// primitive behind the communication-interest game's per-agent cost
/// (each agent pays only for the vertices in its interest set).
///
/// Gather-style (indices are arbitrary), so this runs as a single scalar
/// pass on every stratum, and counts as `kernels.dispatch.scalar`: without
/// hardware gathers the SIMD lanes have nothing to batch, and interest
/// sets are short by construction. An empty `idx` costs `0`.
///
/// # Panics
/// Panics (via slice indexing) when some `idx` entry is out of bounds for
/// `row`.
///
/// # Examples
/// ```
/// use bncg_graph::kernels::{masked_row_cost, INF_SUM, UNREACHABLE_D};
///
/// let row = [0u16, 3, 1, UNREACHABLE_D];
/// assert_eq!(masked_row_cost(&row, &[1, 2]), 4);
/// assert_eq!(masked_row_cost(&row, &[]), 0);
/// assert_eq!(masked_row_cost(&row, &[1, 3]), INF_SUM);
/// ```
#[inline]
pub fn masked_row_cost(row: &[Dist], idx: &[V]) -> u64 {
    telemetry::counter!("kernels.dispatch.scalar").incr();
    let mut sum = 0u64;
    let mut mx: Dist = 0;
    for &i in idx {
        let d = row[i as usize];
        mx = mx.max(d);
        sum += u64::from(d);
    }
    if mx == UNREACHABLE_D {
        INF_SUM
    } else {
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::V;

    fn sample_rows(n: usize, seed: u64) -> (Vec<Dist>, Vec<Dist>) {
        // Deterministic pseudo-random rows with sentinels sprinkled in.
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let gen_row = |next: &mut dyn FnMut() -> u64| {
            (0..n)
                .map(|_| {
                    let r = next();
                    if r.is_multiple_of(11) {
                        UNREACHABLE_D
                    } else {
                        (r % 700) as Dist
                    }
                })
                .collect::<Vec<_>>()
        };
        let a = gen_row(&mut next);
        let b = gen_row(&mut next);
        (a, b)
    }

    #[test]
    fn dispatch_matches_scalar_reference() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 33, 257] {
            for seed in 1..6u64 {
                let (base, via) = sample_rows(n, seed * 77);
                assert_eq!(
                    blend_cost_sum(&base, &via),
                    blend_cost_sum_scalar(&base, &via),
                    "sum n={n} seed={seed}"
                );
                assert_eq!(
                    blend_cost_ecc(&base, &via),
                    blend_cost_ecc_scalar(&base, &via),
                    "ecc n={n} seed={seed}"
                );
                assert_eq!(row_cost(&base), row_cost_scalar(&base), "row n={n}");
            }
        }
    }

    #[test]
    fn fused_matches_scalar_on_all_paths() {
        for n in [0usize, 1, 7, 8, 9, 40, 129] {
            let (row0, s1) = sample_rows(n, 0xF00D);
            let (s2, s3) = sample_rows(n, 0xBEEF);
            let (s4, _) = sample_rows(n, 0xCAFE);
            let terms = [
                BlendTerm {
                    add_a: 3,
                    row_a: &s1,
                    add_b: 5,
                    row_b: &s2,
                },
                BlendTerm {
                    add_a: UNREACHABLE_D,
                    row_a: &s3,
                    add_b: 1,
                    row_b: &s4,
                },
            ];
            let mut a = row0.clone();
            let mut b = row0.clone();
            let ra = fused_blend_cost(&mut a, &terms);
            let rb = fused_blend_cost_scalar(&mut b, &terms);
            assert_eq!(a, b, "fused row n={n}");
            assert_eq!(ra, rb, "fused cost n={n}");
        }
    }

    #[test]
    fn gather_min_plus_matches_scalar_on_all_paths() {
        for n in [1usize, 2, 7, 8, 9, 31, 64, 200] {
            for seed in 1..6u64 {
                let (row, _) = sample_rows(n.max(16), seed * 131);
                let mut x = seed | 1;
                let mut next = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let idx: Vec<V> = (0..n).map(|_| (next() % row.len() as u64) as V).collect();
                let expect = gather_min_plus_scalar(&row, &idx);
                assert_eq!(gather_min_plus(&row, &idx), expect, "dispatch n={n}");
            }
        }
        let row = [5u16, UNREACHABLE_D];
        assert_eq!(gather_min_plus(&row, &[]), (UNREACHABLE_D, u32::MAX));
        assert_eq!(gather_min_plus(&row, &[1]), (UNREACHABLE_D, 0));
        assert_eq!(gather_min_plus(&row, &[0]), (6, 0));
    }

    #[test]
    fn frontier_relax_matches_scalar_on_all_paths() {
        for seed in 1..8u64 {
            let (row, _) = sample_rows(300, seed * 977);
            let mut x = seed | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let idx: Vec<V> = (0..257).map(|_| (next() % row.len() as u64) as V).collect();
            // Segment offsets sweeping empty, tiny, and vector-width runs.
            let mut seg: Vec<u32> = vec![0, 0, 1, 3, 3, 11, 19, 64, 200, 257];
            seg.dedup(); // keep non-decreasing; dups are legal but dedup varies shape
            let slots = seg.len() - 1;
            let mut a = vec![UNREACHABLE_D; slots];
            a[0] = 2; // a pre-lowered slot must only ever decrease
            let mut b = a.clone();
            frontier_relax(&row, &idx, &seg, &mut a);
            frontier_relax_scalar(&row, &idx, &seg, &mut b);
            assert_eq!(a, b, "dispatch seed={seed}");
        }
        // Degenerate shapes: no segments, all-empty segments.
        let mut out: [Dist; 0] = [];
        frontier_relax(&[], &[], &[0], &mut out);
        let mut out = [7 as Dist, 9];
        frontier_relax(&[], &[], &[0, 0, 0], &mut out);
        assert_eq!(out, [7, 9]);
    }

    #[test]
    fn saturating_sentinel_semantics() {
        // UNREACHABLE + 1 must stay UNREACHABLE through every path.
        let base = vec![UNREACHABLE_D; 16];
        let via = vec![UNREACHABLE_D; 16];
        assert_eq!(blend_cost_sum(&base, &via), INF_SUM);
        assert_eq!(blend_cost_ecc(&base, &via), INF_SUM);
        // A reachable via-row rescues the blend.
        let via2 = vec![0 as Dist; 16];
        assert_eq!(blend_cost_sum(&base, &via2), 16);
        assert_eq!(blend_cost_ecc(&base, &via2), 1);
    }

    #[test]
    fn narrow_checked_maps_sentinel_and_values() {
        let src = [0u32, 1, 700, u32::MAX];
        let mut dst = [0 as Dist; 4];
        narrow_checked(&src, &mut dst);
        assert_eq!(dst, [0, 1, 700, UNREACHABLE_D]);
        assert_eq!(widen(dst[3]), u32::MAX);
        assert_eq!(widen(dst[2]), 700);
    }

    #[test]
    #[should_panic(expected = "overflows the u16 distance domain")]
    fn narrow_checked_panics_on_overflow() {
        // A finite distance at u16::MAX − 1 no longer fits (the slot is
        // reserved so `d + 1` cannot collide with the sentinel).
        let src = [0u32, u32::from(MAX_FINITE_DIST) + 1];
        let mut dst = [0 as Dist; 2];
        narrow_checked(&src, &mut dst);
    }
}
