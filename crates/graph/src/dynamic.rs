//! Dynamic-distance subsystem: incremental all-pairs shortest paths under
//! single-edge mutations.
//!
//! Every step of the paper's swap dynamics changes exactly **one** edge
//! (delete `vw`, insert `vw'`), yet a full [`DistanceMatrix::build`] costs
//! `n` BFS runs. [`DynamicApsp`] keeps the matrix alive across such
//! mutations and repairs only what actually changed:
//!
//! * **Deletion** (`G − uw`) — a source row `s` can only change when the
//!   edge was *tight* from `s` (`|d(s,u) − d(s,w)| = 1`; edges on shortest
//!   paths span adjacent BFS levels) **and** the far endpoint has no
//!   alternate parent on level `d−1`. For the rows that survive both
//!   filters, a Ramalingam–Reps-style truncated repair runs from the far
//!   endpoint: phase 1 walks the (implicit) BFS level tree stored in the
//!   row itself to find the exactly-affected vertex set, phase 2 re-settles
//!   that set with a bucketed multi-source Dijkstra seeded from its
//!   unaffected boundary. The distance row *is* the parent/level tree — no
//!   separate per-source tree storage is needed.
//! * **Insertion** (`G + xy`) — exact in `O(n)` per row by the two-sided
//!   insertion identity `d'(s,t) = min(d(s,t), d(s,x)+1+d(y,t),
//!   d(s,y)+1+d(x,t))` (a shortest path uses a new edge at most once);
//!   rows with `|d(s,x) − d(s,y)| ≤ 1` are provably unchanged and skipped
//!   in `O(1)`.
//! * **Swap** — deletion repair followed by the insertion blend,
//!   consuming the [`SwapApplied`] record the game board already produces.
//! * **Batch** ([`DynamicApsp::apply_batch`]) — a whole activation round's
//!   edge-disjoint swaps repaired at once: one multi-edge deletion pass,
//!   then the round's insertions applied as a **fused k-term blend** — one
//!   vectorized pass per row over `2k` saturating min terms
//!   ([`kernels::fused_blend_cost`]) instead of `k` separate passes over
//!   the matrix, with each row's blend constants evolved on compact
//!   endpoint rows. Rows touched by several deletions are repaired once
//!   instead of once per deletion.
//!
//! Every deletion pass — one edge or a whole round's — runs one stage A
//! and one row walker on `H`, a plain [`Csr`] that already lacks the
//! deleted edges and the not-yet-blended insertions (copied out of the
//! caller's snapshot once per update in `O(n + m + k)`), so no neighbor
//! visit pays a mask filter. With one deleted edge stage A keeps the
//! exact alternate-parent filter; with several it stops at tightness (an
//! alternate parent may itself be affected by another deletion) and the
//! walk renders the verdict. `H`'s connected components are labelled once
//! per update (one `O(n + m)` BFS, each component's members listed
//! contiguously). Each row seeds a level-bucketed phase 1 from the far
//! endpoints of the tight deleted edges *inside its own component*, then
//! stamps the unreachable sentinel over the members of every other
//! component instead of walking them. On a tree every deletion is a
//! bridge, so a tree swap or barrier stamps what it cuts off and walks
//! nothing.
//!
//! Alongside the matrix, the subsystem maintains **per-vertex cost
//! aggregates** (each row's sum and eccentricity, [`RowCost`]): deletion
//! repairs re-reduce exactly the candidate rows, insertion blends emit
//! the new aggregate from the same pass that rewrites the row, and
//! unchanged rows keep their entry. Readers
//! ([`cost_sum`](DynamicApsp::cost_sum) /
//! [`cost_ecc`](DynamicApsp::cost_ecc) — and through them
//! `EvalContext::agent_cost` / `cost_range` in `bncg_core`) pay `O(1)`
//! per agent instead of an `O(n)` row scan.
//!
//! The same copy-plus-repair machinery also serves *reads*:
//! [`masked_apsp_from_base`] derives the full APSP of `G − e` from the
//! maintained base matrix (pooled parallel copy + truncated repairs),
//! which is what lets `EdgeSwapScan` in `bncg_core` skip its `n` masked
//! BFS runs per scanned edge, and [`masked_rows_from_base`] derives only
//! a listed subset of those rows, for pricings that read a few. Both copy
//! `G − e` into a pooled CSR and run the same stage A and walker without
//! component labels, so a scan still walks a side its edge cuts off.
//!
//! The deletion-repair walker is *kernelized*: each candidate's
//! neighborhood is walked once and gathered into contiguous scratch
//! buffers, and the reductions — stage A's alternate-parent test
//! ([`kernels::gather_min_plus`]) and phase 2's boundary relaxation
//! ([`kernels::frontier_relax`], one fused pass over every affected
//! vertex's stored boundary segment) — run through the SIMD row-kernel
//! layer. The property tests in `tests/dynamic_apsp_props.rs` sweep them
//! against full BFS rebuilds.
//!
//! Every update is serviced by repair and blend alone; the work done is
//! recorded in [`RepairStats`]. That is not always the cheaper path. A
//! single swap repairs far below a rebuild (`BENCH_incremental.json`),
//! but a wide round barrier is slower than [`DynamicApsp::build`]: on 51
//! barriers of 64–256 swaps at n = 256 (4-round sum, max, budget and
//! interest round runs on `random_connected(n, n/4)` and
//! `watts_strogatz(n, 4, 0.1)` starts, seeds 1–3, 2-core x86-64) repair
//! took 3–109× (median 47×) a full build while the batch deletion phase
//! still masked every inserted edge and the blend gathered its constants
//! from scattered endpoints, and 1.7–15× (median 6×) since. A round on
//! a tree cuts every row: a 16-swap barrier at n = 2048 (vertex-disjoint,
//! connectivity-keeping swaps on a random tree, 24 barriers, 2 runs) took
//! a median 90–92 ms, about twice a full build (38–55 ms), while each row
//! walked the components the round cut off, and 23–24 ms since the
//! deletion pass stamps them (2-core x86-64). Repair stays the only path
//! all the same: the round records' `rows_repaired` and `rows_blended`
//! are the repair's own verdicts, so a rebuild that kept them would need
//! two full builds per barrier (`G` minus the insertions, and `G`) and a
//! second code path, to save at most the barrier's 2–3% of a cold-start
//! run. Repairs are embarrassingly parallel (each row repair reads only
//! its own row plus the CSR), so large updates fan out over rayon workers
//! exactly like the full build.
//!
//! The repaired matrix is **byte-identical** to a fresh
//! [`DistanceMatrix::build`] of the mutated graph — distances are unique,
//! and the property tests in `tests/dynamic_apsp_props.rs` pin this over
//! thousands of random swap steps.

use std::cell::RefCell;
use std::sync::OnceLock;

use bncg_telemetry as telemetry;
use rayon::prelude::*;

use crate::adjacency::SwapApplied;
use crate::kernels::{self, BlendTerm, Dist, RowCost, UNREACHABLE_D};
use crate::{Csr, DistanceMatrix, V};

/// Below this vertex count (or repair-candidate count) the per-row repairs
/// run sequentially on pooled scratch; matches the APSP builders' cutoff.
const PAR_REPAIR_MIN_N: usize = 256;

/// Repairing fewer rows than this is always cheaper sequentially than
/// fanning the whole row range out over workers.
const PAR_REPAIR_MIN_ROWS: usize = 33;

thread_local! {
    /// Per-thread free list of [`RepairScratch`] buffers (same discipline
    /// as the BFS scratch pool: rayon workers each get their own pool, so
    /// parallel repairs compose without locking).
    static REPAIR_POOL: RefCell<Vec<RepairScratch>> = const { RefCell::new(Vec::new()) };
    /// Per-thread free list of the scans' `G − e` copies, each with its
    /// [`Csr::refill_without`] scratch.
    static CSR_POOL: RefCell<Vec<(Csr, Vec<u32>)>> = const { RefCell::new(Vec::new()) };
}

/// Largest number of buffers kept per thread in each pool.
const POOL_CAP: usize = 4;

/// Runs `f` with a pooled [`RepairScratch`] sized for `n` vertices.
fn with_repair_scratch<R>(n: usize, f: impl FnOnce(&mut RepairScratch) -> R) -> R {
    let mut scratch = REPAIR_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_else(|| RepairScratch::new(n));
    scratch.resize(n);
    let result = f(&mut scratch);
    REPAIR_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(scratch);
        }
    });
    result
}

/// Runs `f` on `csr` minus `edge`, copied into a pooled buffer. The
/// buffer is popped, not borrowed, while `f` runs: a thread waiting
/// inside a parallel section runs other queued jobs, which may scan too.
fn with_csr_without<R>(csr: &Csr, edge: (V, V), f: impl FnOnce(&Csr) -> R) -> R {
    let (mut h, mut cut) = CSR_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_else(|| (Csr::from_adjacency(&[]), Vec::new()));
    h.refill_without(csr, &[edge], &mut cut);
    let result = f(&h);
    CSR_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push((h, cut));
        }
    });
    result
}

/// The deletion-repair implementation: one variant, so it selects
/// nothing. Kept for callers that name it (`EvalContext::set_repair_strategy`
/// in `bncg_core`, a no-op).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairStrategy {
    /// Level-bucketed frontier batching through the SIMD row kernels.
    #[default]
    Kernel,
}

/// Counters describing how [`DynamicApsp`] serviced its updates — the
/// observability hook for benchmarks and the repair-volume tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Total updates applied (swaps, deletions, insertions, whole
    /// batches; no-ops count).
    pub updates: u64,
    /// Updates serviced incrementally (row repairs + blends).
    pub incremental: u64,
    /// Cumulative rows repaired by truncated deletion repair.
    pub rows_repaired: u64,
    /// Cumulative rows rewritten by the insertion blend.
    pub rows_blended: u64,
    /// Whole-round batches applied via [`DynamicApsp::apply_batch`].
    pub batches: u64,
    /// Rows that stage A marked for deletion repair in the most recent
    /// update. For a batch update this is the batch-wide tight-row count.
    pub last_repair_candidates: usize,
    /// Rows actually repaired in the most recent update (batch-wide for a
    /// batch update).
    pub last_rows_repaired: usize,
    /// Rows of the most recent update whose deletion repair walked an
    /// affected set (phases 1–2): the rows with an entry that changes and
    /// stays finite. A row whose only change is a component the update
    /// cut off is stamped unreachable without a walk, so a deletion on a
    /// forest walks no row. `0` when nothing was deleted.
    pub last_rows_walked: usize,
    /// Rows blended in the most recent update (summed over a batch's
    /// insertions for a batch update).
    pub last_rows_blended: usize,
    /// Swaps carried by the most recent batch update (`0` while no batch
    /// has been applied).
    pub last_batch_swaps: usize,
}

impl RepairStats {
    /// Aggregation of the cumulative counters since `baseline` (an earlier
    /// snapshot of the same subsystem): `updates`, `incremental`,
    /// `rows_repaired`, `rows_blended`, and `batches` are differenced, the
    /// `last_*` fields are carried over from `self`.
    ///
    /// This is how callers observe a *span* of updates — a whole activation
    /// round, a whole trajectory — instead of only the most recent call:
    /// snapshot the stats before, diff after, then assert on total repair
    /// volume.
    /// The subtractions saturate: a baseline *newer* than `self` (e.g.
    /// taken from a fresh instance after an engine reset, then diffed
    /// against a stale copy) yields zeros instead of wrapping.
    #[must_use]
    pub fn delta_since(&self, baseline: &RepairStats) -> RepairStats {
        RepairStats {
            updates: self.updates.saturating_sub(baseline.updates),
            incremental: self.incremental.saturating_sub(baseline.incremental),
            rows_repaired: self.rows_repaired.saturating_sub(baseline.rows_repaired),
            rows_blended: self.rows_blended.saturating_sub(baseline.rows_blended),
            batches: self.batches.saturating_sub(baseline.batches),
            ..*self
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry handles (all no-ops when the `telemetry` feature is off).
//
// Metric names, as documented in ARCHITECTURE.md §Observability:
//   apsp.stage_a_ns / apsp.phase1_ns / apsp.phase2_ns / apsp.blend_ns
//                      — duration histograms of the maintained matrix's
//                        repair phases (stage A per update, phases 1/2
//                        per repaired row — phase 2 with the row's stamp
//                        of cut-off components — blend per update).
//   apsp.rows_repaired / apsp.rows_blended — counters.
//   scan.copy_ns / scan.stage_a_ns / scan.phase1_ns / scan.phase2_ns /
//   scan.rows_repaired — the same breakdown for `masked_apsp_from_base`
//                        (the evaluator's per-candidate-edge scans), kept
//                        separate so round-level repair deltas are not
//                        polluted by proposal-sweep scans.
//                        `masked_rows_from_base` records phases 1/2 and
//                        rows repaired only: one `scan.copy_ns` sample
//                        per full-matrix scan.
// ---------------------------------------------------------------------------

/// Per-row phase histograms for one repair family (maintained matrix vs
/// evaluator scan).
struct PhaseHists {
    phase1: &'static telemetry::Histogram,
    phase2: &'static telemetry::Histogram,
}

fn apsp_phase_hists() -> &'static PhaseHists {
    static S: OnceLock<PhaseHists> = OnceLock::new();
    S.get_or_init(|| PhaseHists {
        phase1: telemetry::histogram("apsp.phase1_ns"),
        phase2: telemetry::histogram("apsp.phase2_ns"),
    })
}

fn scan_phase_hists() -> &'static PhaseHists {
    static S: OnceLock<PhaseHists> = OnceLock::new();
    S.get_or_init(|| PhaseHists {
        phase1: telemetry::histogram("scan.phase1_ns"),
        phase2: telemetry::histogram("scan.phase2_ns"),
    })
}

/// Nanosecond totals of the maintained matrix's repair phases, read from
/// the telemetry histograms (all zero when the `telemetry` feature is
/// off). The sink layer in `bncg_dynamics` diffs two of these around
/// each round to attach a per-round repair-phase breakdown to its
/// stream; totals are process-global, so per-round deltas are only
/// meaningful for single-run drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairPhases {
    /// Stage-A filter time (tight/alternate-parent candidate scan).
    pub stage_a_ns: u64,
    /// Phase-1 affected-set walks, summed over repaired rows.
    pub phase1_ns: u64,
    /// Phase-2 boundary settles, and each row's stamp of the components
    /// the update cut off, summed over repaired rows.
    pub phase2_ns: u64,
    /// Insertion blend passes.
    pub blend_ns: u64,
}

impl RepairPhases {
    /// Saturating per-field difference against an earlier reading.
    #[must_use]
    pub fn delta_since(&self, baseline: &RepairPhases) -> RepairPhases {
        RepairPhases {
            stage_a_ns: self.stage_a_ns.saturating_sub(baseline.stage_a_ns),
            phase1_ns: self.phase1_ns.saturating_sub(baseline.phase1_ns),
            phase2_ns: self.phase2_ns.saturating_sub(baseline.phase2_ns),
            blend_ns: self.blend_ns.saturating_sub(baseline.blend_ns),
        }
    }

    /// Sum over all phases.
    pub fn total_ns(&self) -> u64 {
        self.stage_a_ns + self.phase1_ns + self.phase2_ns + self.blend_ns
    }
}

/// Current cumulative phase totals of the maintained-matrix repair path.
pub fn repair_phase_totals() -> RepairPhases {
    RepairPhases {
        stage_a_ns: telemetry::histogram!("apsp.stage_a_ns").sum(),
        phase1_ns: apsp_phase_hists().phase1.sum(),
        phase2_ns: apsp_phase_hists().phase2.sum(),
        blend_ns: telemetry::histogram!("apsp.blend_ns").sum(),
    }
}

/// An all-pairs distance matrix maintained incrementally across single-edge
/// mutations, together with **per-vertex cost aggregates** (row sums and
/// eccentricities) refreshed only for the rows each update actually
/// rewrites. See the [module docs](self) for the algorithm.
#[derive(Debug, Clone)]
pub struct DynamicApsp {
    dm: DistanceMatrix,
    n: usize,
    stats: RepairStats,
    /// Rows stage A marked as repair candidates in the current update.
    marked: Vec<bool>,
    /// Saved pre-insertion rows of the inserted edge's endpoints.
    row_x: Vec<Dist>,
    row_y: Vec<Dist>,
    /// Buffers the updates reuse: the deletion pass's CSR and component
    /// labels, and the batched blend's plan.
    batch: BatchScratch,
    /// Maintained per-source row aggregates (sum + eccentricity), exact
    /// for the matrix at all times: deletion repairs re-reduce exactly the
    /// candidate rows, insertion blends compute the new aggregate **in the
    /// same pass** that rewrites the row ([`kernels::fused_blend_cost`]),
    /// and unchanged rows keep their entry untouched. `agent_cost` /
    /// `cost_range`-style reads become `O(1)` / `O(n)` lookups instead of
    /// `O(n)` / `O(n²)` rescans.
    costs: Vec<RowCost>,
}

impl DynamicApsp {
    /// Builds the matrix for the current state of `csr` (one full parallel
    /// APSP).
    pub fn build(csr: &Csr) -> Self {
        telemetry::counter!("apsp.builds").incr();
        Self::from_matrix(DistanceMatrix::build(csr))
    }

    /// [`build`](Self::build) with a typed error on finite-distance
    /// overflow ([`DistanceMatrix::try_build`]) — the service path's
    /// degradable construction.
    pub fn try_build(csr: &Csr) -> Result<Self, kernels::DistOverflow> {
        telemetry::counter!("apsp.builds").incr();
        Ok(Self::from_matrix(DistanceMatrix::try_build(csr)?))
    }

    /// Wraps an existing matrix (which must be the exact APSP of the graph
    /// the subsequent updates start from). Computes the initial per-vertex
    /// aggregates in one parallel pass over the rows.
    pub fn from_matrix(dm: DistanceMatrix) -> Self {
        let n = dm.n();
        let mut this = DynamicApsp {
            dm,
            n,
            stats: RepairStats::default(),
            marked: Vec::new(),
            row_x: Vec::new(),
            row_y: Vec::new(),
            batch: BatchScratch::new(),
            costs: vec![RowCost::default(); n],
        };
        this.refresh_costs_all();
        this
    }

    /// The maintained distance matrix (always exact for the last graph
    /// state passed to an update method).
    #[inline]
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.dm
    }

    /// Consumes the wrapper, returning the matrix.
    pub fn into_matrix(self) -> DistanceMatrix {
        self.dm
    }

    /// Returns the matrix buffer to the thread-local pool (see
    /// [`DistanceMatrix::recycle`]).
    pub fn recycle(self) {
        self.dm.recycle();
    }

    /// Update counters.
    #[inline]
    pub fn stats(&self) -> &RepairStats {
        &self.stats
    }

    /// Maintained sum of distances from `v` (the sum objective's usage
    /// cost), `u64::MAX` when some vertex is unreachable from `v`. `O(1)`.
    #[inline]
    pub fn cost_sum(&self, v: V) -> u64 {
        self.costs[v as usize].sum
    }

    /// Maintained eccentricity of `v` as a game cost (the max objective's
    /// usage cost), `u64::MAX` when disconnected. `O(1)`.
    #[inline]
    pub fn cost_ecc(&self, v: V) -> u64 {
        self.costs[v as usize].ecc_cost()
    }

    /// The maintained per-source aggregates (one [`RowCost`] per vertex,
    /// always exact for [`matrix`](Self::matrix)).
    #[inline]
    pub fn row_costs(&self) -> &[RowCost] {
        &self.costs
    }

    /// Divergence audit over a row stripe: recomputes each listed row by
    /// a fresh BFS on `csr` and returns the rows whose maintained matrix
    /// entries *or* maintained [`RowCost`] aggregate disagree. The
    /// maintained state is untouched — this is the read half of the
    /// service's audit escalation ([`rebuild_rows`](Self::rebuild_rows)
    /// is the heal half). Cost: one BFS + one row compare per listed row,
    /// independent of `n²`.
    ///
    /// `csr` must snapshot the exact graph the maintained matrix tracks.
    pub fn verify_rows(&self, csr: &Csr, rows: &[V]) -> Vec<V> {
        debug_assert_eq!(csr.n(), self.n);
        let mut divergent = Vec::new();
        crate::bfs::with_scratch(self.n, |scratch| {
            let mut fresh = vec![UNREACHABLE_D; self.n];
            for &s in rows {
                scratch.run(csr, s);
                scratch.write_narrowed(&mut fresh);
                if fresh[..] != *self.dm.row(s)
                    || kernels::row_cost(&fresh) != self.costs[s as usize]
                {
                    divergent.push(s);
                }
            }
        });
        divergent
    }

    /// Heals exactly the listed rows: recomputes each by a fresh BFS on
    /// `csr`, overwrites the maintained row in place, and re-reduces its
    /// [`RowCost`] aggregate. `O(rows · (m + n))` — no full-context
    /// rebuild, no effect on any other row, and no change to the update
    /// counters (healing is an audit action, not a repair).
    pub fn rebuild_rows(&mut self, csr: &Csr, rows: &[V]) {
        debug_assert_eq!(csr.n(), self.n);
        let n = self.n;
        crate::bfs::with_scratch(n, |scratch| {
            for &s in rows {
                scratch.run(csr, s);
                let row = &mut self.dm.data_mut()[s as usize * n..(s as usize + 1) * n];
                scratch.write_narrowed(row);
                self.costs[s as usize] = kernels::row_cost(self.dm.row(s));
            }
        });
    }

    /// Fault-injection hook: overwrites one maintained matrix entry (and
    /// nothing else — the aggregates intentionally go stale with it),
    /// simulating the silent row corruption the divergence audit exists
    /// to catch. Compiled only into `testkit`-feature builds.
    #[cfg(feature = "testkit")]
    pub fn corrupt_entry(&mut self, u: V, v: V, d: Dist) {
        let n = self.n;
        self.dm.data_mut()[u as usize * n + v as usize] = d;
    }

    /// Recomputes every row aggregate from the matrix (at construction).
    fn refresh_costs_all(&mut self) {
        let n = self.n;
        self.costs.resize(n, RowCost::default());
        let dm = &self.dm;
        if n < PAR_REPAIR_MIN_N {
            for (s, slot) in self.costs.iter_mut().enumerate() {
                *slot = kernels::row_cost(dm.row(s as V));
            }
        } else {
            self.costs
                .par_chunks_mut(1)
                .enumerate()
                .for_each(|(s, slot)| slot[0] = kernels::row_cost(dm.row(s as V)));
        }
    }

    /// Re-reduces the aggregates of exactly the rows stage A marked as
    /// repair candidates — the `O(repaired rows)` post-pass of a deletion
    /// update.
    fn refresh_costs_marked(&mut self, candidates: usize) {
        let n = self.n;
        let dm = &self.dm;
        let marked = &self.marked;
        if n < PAR_REPAIR_MIN_N || candidates < PAR_REPAIR_MIN_ROWS {
            for (s, slot) in self.costs.iter_mut().enumerate() {
                if marked[s] {
                    *slot = kernels::row_cost(dm.row(s as V));
                }
            }
        } else {
            self.costs
                .par_chunks_mut(1)
                .enumerate()
                .for_each(|(s, slot)| {
                    if marked[s] {
                        slot[0] = kernels::row_cost(dm.row(s as V));
                    }
                });
        }
    }

    /// Applies the outcome of [`Graph::apply_swap`](crate::Graph::apply_swap)
    /// to the matrix. `csr` must be the snapshot of the graph **after** the
    /// move (the state the record was produced by).
    ///
    /// # Examples
    /// ```
    /// use bncg_graph::generators::classic;
    /// use bncg_graph::{DistanceMatrix, DynamicApsp};
    ///
    /// let mut g = classic::path(8);
    /// let mut apsp = DynamicApsp::build(&g.to_csr());
    /// // Endpoint 0 rewires its only edge onto the center.
    /// let rec = g.apply_swap(0, 1, 4);
    /// apsp.apply_swap(&g.to_csr(), &rec);
    /// // The maintained matrix is byte-identical to a fresh rebuild …
    /// assert_eq!(apsp.matrix(), &DistanceMatrix::build(&g.to_csr()));
    /// // … and the update was serviced incrementally.
    /// assert_eq!(apsp.stats().incremental, 1);
    /// ```
    pub fn apply_swap(&mut self, csr: &Csr, applied: &SwapApplied) {
        match *applied {
            SwapApplied::Noop => {}
            SwapApplied::Deleted { v, w } => self.update_deletions(csr, &[(v, w)], &[]),
            SwapApplied::Swapped { v, w, w2 } => {
                // Deletion repair runs on `G − vw`, `csr` without the
                // inserted edge; then the blend adds it back analytically.
                self.update_deletions(csr, &[(v, w)], &[(v, w2)]);
                self.update_insertion(v, w2);
            }
        }
        self.stats.updates += 1;
    }

    /// Applies a whole **round** of swaps as one batch repair at the round
    /// barrier: every deletion is repaired in a single multi-edge pass,
    /// then the insertions are blended in order, fused into one pass per
    /// row. `csr` must be the snapshot of the graph **after the entire
    /// batch** — the state the round engine's accepted moves left behind.
    ///
    /// The deletion pass runs on `G` minus the round's insertions (the
    /// pre-batch graph minus the deleted edges), copied out of `csr` once
    /// per barrier in `O(n + m + k)` into a buffer the matrix keeps. Its
    /// walks then read plain neighbor lists: a mask filter would cost
    /// `O(k)` per neighbor of every batch endpoint, and a wide round's
    /// endpoints cover nearly every vertex. Both phases therefore cost
    /// the same per neighbor visit whatever the batch size. The pass also
    /// labels that graph's connected components once, in `O(n + m)`: a
    /// row walks only the affected set inside its own component, seeded
    /// from the tight deleted edges there, and stamps every other
    /// component unreachable from the component's member list. A round
    /// that cuts the graph — every round on a tree — thus pays one write
    /// per cut-off entry instead of a walk of it. A single swap
    /// ([`apply_swap`](Self::apply_swap)) takes the same pass with one
    /// deleted edge.
    ///
    /// The batch must have pairwise edge-disjoint footprints relative to
    /// the round-start graph: deleted edges distinct and all present
    /// before the batch, inserted edges distinct, absent before the
    /// batch, and disjoint from the deleted set. This is exactly the
    /// contract the round engine's lowest-agent-index conflict resolution
    /// guarantees (see `bncg_dynamics::rounds`). The result is
    /// byte-identical to applying the same records one
    /// [`apply_swap`](Self::apply_swap) at a time through the intermediate
    /// graph states — both are exact for the final graph — which the
    /// property tests in `tests/round_dynamics_props.rs` pin down.
    ///
    /// For a batch of several swaps, `last_repair_candidates` is the
    /// batch's *tight-row* count (rows where some deleted edge lay on a
    /// shortest path): with several deletions in flight the per-edge
    /// alternate-parent filter no longer proves a row unchanged on its
    /// own, so the count is a slightly coarser upper bound than a single
    /// deletion's, which keeps that filter.
    ///
    /// # Examples
    /// ```
    /// use bncg_graph::generators::classic;
    /// use bncg_graph::{DistanceMatrix, DynamicApsp};
    ///
    /// let mut g = classic::cycle(10);
    /// let mut apsp = DynamicApsp::build(&g.to_csr());
    /// // One activation round: agents 0 and 5 swap simultaneously, with
    /// // pairwise edge-disjoint footprints (the round engine's contract).
    /// let batch = vec![g.apply_swap(0, 1, 3), g.apply_swap(5, 6, 8)];
    /// apsp.apply_batch(&g.to_csr(), &batch);
    /// assert_eq!(apsp.matrix(), &DistanceMatrix::build(&g.to_csr()));
    /// // The whole round counts as one batched update.
    /// assert_eq!(apsp.stats().batches, 1);
    /// assert_eq!(apsp.stats().last_batch_swaps, 2);
    /// ```
    pub fn apply_batch(&mut self, csr: &Csr, batch: &[SwapApplied]) {
        let mut deleted: Vec<(V, V)> = Vec::with_capacity(batch.len());
        let mut inserted: Vec<(V, V)> = Vec::with_capacity(batch.len());
        for rec in batch {
            match *rec {
                SwapApplied::Noop => {}
                SwapApplied::Deleted { v, w } => deleted.push((v, w)),
                SwapApplied::Swapped { v, w, w2 } => {
                    deleted.push((v, w));
                    inserted.push((v, w2));
                }
            }
        }
        self.stats.batches += 1;
        self.stats.last_batch_swaps = deleted.len().max(inserted.len());
        if deleted.is_empty() {
            debug_assert!(inserted.is_empty(), "insertions always pair with deletions");
            self.stats.last_repair_candidates = 0;
            self.stats.last_rows_repaired = 0;
            self.stats.last_rows_walked = 0;
            self.stats.last_rows_blended = 0;
            // An empty (or all-noop) batch is trivially serviced in place.
            self.stats.incremental += 1;
            self.stats.updates += 1;
            return;
        }
        self.update_deletions(csr, &deleted, &inserted);
        match inserted.len() {
            0 => {}
            1 => self.update_insertion(inserted[0].0, inserted[0].1),
            _ => self.update_insertions_batch(&inserted),
        }
        self.stats.updates += 1;
    }

    /// Applies a single edge deletion. `csr` must already lack edge `uw`;
    /// the matrix must be the exact APSP of `csr + uw`.
    pub fn apply_deletion(&mut self, csr: &Csr, u: V, w: V) {
        self.update_deletions(csr, &[(u, w)], &[]);
        self.stats.updates += 1;
    }

    /// Applies a single edge insertion. `csr` must already contain edge
    /// `xy`; the matrix must be the exact APSP of `csr − xy`.
    pub fn apply_insertion(&mut self, csr: &Csr, x: V, y: V) {
        debug_assert!(csr.neighbors(x).contains(&y), "insertion requires edge xy");
        debug_assert_eq!(csr.n(), self.n);
        self.stats.last_repair_candidates = 0;
        self.stats.last_rows_repaired = 0;
        self.stats.last_rows_walked = 0;
        self.update_insertion(x, y);
        self.stats.incremental += 1;
        self.stats.updates += 1;
    }

    /// The deletion repair of every update: repairs every source row the
    /// `deleted` edges can touch in one pass, on `H` = `csr` minus the
    /// not-yet-blended `inserted` edges (the pre-update graph minus
    /// `deleted`), a plain CSR with nothing masked.
    ///
    /// Stage A marks the rows that can change; `H`'s connected components
    /// are then labelled once, by one `O(n + m)` BFS into
    /// [`BatchScratch::comps`]. A row's new entries outside its own
    /// component are all unreachable, so [`repair_row`] walks only inside
    /// that component and stamps the rest. On a tree every deletion cuts
    /// `H`, and every row loses whole components this way.
    fn update_deletions(&mut self, csr: &Csr, deleted: &[(V, V)], inserted: &[(V, V)]) {
        let n = self.n;
        debug_assert_eq!(csr.n(), n);
        self.stats.last_rows_blended = 0;
        let BatchScratch {
            csr: h, cut, comps, ..
        } = &mut self.batch;
        let csr = if inserted.is_empty() {
            csr
        } else {
            h.refill_without(csr, inserted, cut);
            &*h
        };

        // Stage A. One deleted edge keeps the exact alternate-parent
        // filter. With several the filter is no longer sound per edge (the
        // alternate parent may itself be affected by another deletion), so
        // candidacy stops at tightness and the walk renders the verdict.
        let t0 = telemetry::stamp();
        let candidates = match *deleted {
            [(u, w)] => mark_rows(csr, &self.dm, (u, w), &mut self.marked),
            _ => mark_tight_rows(&self.dm, deleted, &mut self.marked),
        };
        telemetry::histogram!("apsp.stage_a_ns").record_span(t0, telemetry::stamp());
        self.stats.last_repair_candidates = candidates;

        if candidates == 0 {
            self.stats.last_rows_repaired = 0;
            self.stats.last_rows_walked = 0;
            self.stats.incremental += 1;
            return;
        }
        comps.label(csr);

        // Stage B: truncated per-row repair, then an aggregate re-reduce
        // over exactly the marked rows.
        let (walked, repaired) = repair_rows(
            csr,
            deleted,
            Some(comps),
            &self.marked,
            self.dm.data_mut(),
            candidates,
            apsp_phase_hists(),
        );
        self.refresh_costs_marked(candidates);
        self.stats.last_rows_repaired = repaired;
        self.stats.last_rows_walked = walked;
        self.stats.rows_repaired += repaired as u64;
        telemetry::counter!("apsp.rows_repaired").add(repaired as u64);
        self.stats.incremental += 1;
    }

    /// Insertion blend driver: exact `O(n)` rewrite of every row the new
    /// edge `xy` can shorten, with the row's cost aggregate computed in
    /// the same vectorized pass.
    fn update_insertion(&mut self, x: V, y: V) {
        let _t = telemetry::histogram!("apsp.blend_ns").start();
        let n = self.n;
        self.row_x.clear();
        self.row_x.extend_from_slice(self.dm.row(x));
        self.row_y.clear();
        self.row_y.extend_from_slice(self.dm.row(y));
        let rx = &self.row_x;
        let ry = &self.row_y;
        let xi = x as usize;
        let yi = y as usize;
        let blend = |row: &mut [Dist]| blend_row_cost(row, xi, yi, rx, ry);
        let d = self.dm.data_mut();
        let new_costs: Vec<Option<RowCost>> = if n < PAR_REPAIR_MIN_N {
            d.chunks_mut(n.max(1)).map(blend).collect()
        } else {
            d.par_chunks_mut(n).map(blend).collect()
        };
        self.scatter_blend_costs(&new_costs);
    }

    /// Applies the blended rows' freshly computed aggregates (`None` =
    /// row proven unchanged, aggregate kept) and updates the blend stats.
    fn scatter_blend_costs(&mut self, new_costs: &[Option<RowCost>]) {
        let mut blended = 0usize;
        for (slot, c) in self.costs.iter_mut().zip(new_costs) {
            if let Some(c) = c {
                *slot = *c;
                blended += 1;
            }
        }
        self.stats.last_rows_blended = blended;
        self.stats.rows_blended += blended as u64;
        telemetry::counter!("apsp.rows_blended").add(blended as u64);
    }

    /// Batched insertion blend: the exact composition of the per-edge
    /// blends applied in order, **fused into one vectorized pass per row**
    /// ([`kernels::fused_blend_cost`]).
    ///
    /// Blend `j` of a generic row needs two things: the rows of `x_j`/`y_j`
    /// *as they stood after blends `0..j`* (the snapshots) and the row's
    /// own entries at the endpoint positions after blends `0..j` (the
    /// blend constants). With both in hand the `k` blends commute into a
    /// single `min` over `2k` terms per element, applied in one
    /// cache-resident sweep that also yields the row's new cost
    /// aggregate. Byte-identical to `k` sequential
    /// [`update_insertion`](Self::update_insertion) passes, but touches
    /// the `n²` matrix **once** instead of `k` times.
    ///
    /// Both inputs are prepared once per barrier, in buffers the matrix
    /// keeps ([`BatchScratch`]):
    ///
    /// * **Snapshots.** Working copies of the batch's endpoint rows are
    ///   evolved through the batch, and at step `j` a working row is
    ///   blended only while a later insertion still snapshots it. A row
    ///   whose last snapshot is step `j` is itself that snapshot; a row
    ///   read again later is copied first.
    /// * **Compact endpoint rows.** Each insertion's endpoint slots are
    ///   resolved once, and each snapshot's values at the endpoints still
    ///   read after its step are copied into a contiguous row. A row then
    ///   evolves its blend constants with a plain contiguous
    ///   min/saturating-add loop over just those endpoints, instead of
    ///   `2k` scattered gathers and two searches per insertion.
    fn update_insertions_batch(&mut self, inserted: &[(V, V)]) {
        let _t = telemetry::histogram!("apsp.blend_ns").start();
        let n = self.n;
        let k = inserted.len();
        debug_assert!(k >= 2);
        let s = &mut self.batch;
        s.plan(n, inserted);
        let e = s.ends.len();

        // Evolve the working endpoint rows through the batch, recording
        // each insertion's (x, y) snapshot at its own step.
        s.work.clear();
        for &v in &s.ends {
            s.work.extend_from_slice(self.dm.row(v));
        }
        s.frozen.clear();
        s.snaps.clear();
        for (j, &(x, y)) in inserted.iter().enumerate() {
            let live = s.live[j] as usize;
            let (mut rx, mut ry) = s.pairs[j];
            for r in [&mut rx, &mut ry] {
                if (*r as usize) < live {
                    // Blended below and read again later: freeze a copy.
                    let at = *r as usize * n;
                    s.frozen.extend_from_slice(&s.work[at..at + n]);
                    *r = (e + s.frozen.len() / n - 1) as u32;
                }
            }
            s.snaps.push((rx, ry));
            let (head, tail) = s.work.split_at_mut(live * n);
            let snap = |r: u32| snap_row(tail, live, &s.frozen, n, r);
            let (sx, sy) = (snap(rx), snap(ry));
            for row in head.chunks_exact_mut(n) {
                blend_row_cost(row, x as usize, y as usize, sx, sy);
            }
        }

        // Compact snapshots: step j's x/y snapshot values at the endpoints
        // read after it (`ends[..live[j]]`), step after step.
        s.cx.clear();
        s.cy.clear();
        for (j, &(rx, ry)) in s.snaps.iter().enumerate() {
            let sx = snap_row(&s.work, 0, &s.frozen, n, rx);
            let sy = snap_row(&s.work, 0, &s.frozen, n, ry);
            for &v in &s.ends[..s.live[j] as usize] {
                s.cx.push(sx[v as usize]);
                s.cy.push(sy[v as usize]);
            }
        }

        // Fused replay: evolve each row's blend constants on its compact
        // endpoint row, drop terms the adjacent-levels test proves inert,
        // then apply every surviving term in one pass.
        let s = &self.batch;
        let replay = |row: &mut [Dist]| -> Option<RowCost> {
            let mut consts: Vec<Dist> = s.ends.iter().map(|&v| row[v as usize]).collect();
            let mut terms: Vec<BlendTerm<'_>> = Vec::with_capacity(k);
            let mut next = 0usize;
            for (j, &(a, b)) in s.pairs.iter().enumerate() {
                let (o, live) = (next, s.live[j] as usize);
                next += live;
                let dsx = consts[a as usize];
                let dsy = consts[b as usize];
                if dsx.abs_diff(dsy) <= 1 {
                    continue; // provably inert for this row
                }
                let add_a = dsx.saturating_add(1);
                let add_b = dsy.saturating_add(1);
                for ((val, &vy), &vx) in consts[..live]
                    .iter_mut()
                    .zip(&s.cy[o..o + live])
                    .zip(&s.cx[o..o + live])
                {
                    *val = (*val)
                        .min(add_a.saturating_add(vy))
                        .min(add_b.saturating_add(vx));
                }
                let (rx, ry) = s.snaps[j];
                terms.push(BlendTerm {
                    add_a,
                    row_a: snap_row(&s.work, 0, &s.frozen, n, ry),
                    add_b,
                    row_b: snap_row(&s.work, 0, &s.frozen, n, rx),
                });
            }
            if terms.is_empty() {
                return None;
            }
            Some(kernels::fused_blend_cost(row, &terms))
        };
        let d = self.dm.data_mut();
        let new_costs: Vec<Option<RowCost>> = if n < PAR_REPAIR_MIN_N {
            d.chunks_mut(n.max(1)).map(replay).collect()
        } else {
            d.par_chunks_mut(n).map(replay).collect()
        };
        self.scatter_blend_costs(&new_costs);
    }
}

/// All-pairs shortest paths of `G − edge` derived from the maintained (or
/// any exact) base matrix of `G` by **copy plus repair**: clone the base
/// into a pooled buffer (parallel row copy), copy `G − edge` out of `csr`
/// (the snapshot of `G` itself, *with* the edge) into a pooled CSR, then
/// run the same stage A and row walker [`DynamicApsp`] uses on that copy.
/// The walker gets no component labels, so a row still walks a side the
/// edge cuts off.
///
/// This replaces the `n` fresh masked BFS runs of
/// [`DistanceMatrix::build_masked`] in the swap evaluator's hot loop: rows
/// the deleted edge cannot touch are a straight memcpy, and on the graphs
/// the dynamics visit the affected set is typically a small fraction of
/// `n`. The result is byte-identical to `build_masked` (distances are
/// unique; pinned by `tests/round_dynamics_props.rs`).
///
/// # Panics
/// Debug-panics when `edge` is not an edge of `csr` or the matrix shape
/// does not match.
pub fn masked_apsp_from_base(csr: &Csr, base: &DistanceMatrix, edge: (V, V)) -> DistanceMatrix {
    let n = csr.n();
    debug_assert_eq!(base.n(), n);
    debug_assert!(
        csr.neighbors(edge.0).contains(&edge.1),
        "masked_apsp_from_base requires an existing edge"
    );
    let t0 = telemetry::stamp();
    let mut dm = base.clone_pooled();
    with_csr_without(csr, edge, |h| {
        let t1 = telemetry::stamp();
        telemetry::histogram!("scan.copy_ns").record_span(t0, t1);
        let mut marked = Vec::new();
        let candidates = mark_rows(h, base, edge, &mut marked);
        telemetry::histogram!("scan.stage_a_ns").record_span(t1, telemetry::stamp());
        if candidates > 0 {
            telemetry::counter!("scan.rows_repaired").add(candidates as u64);
            let d = dm.data_mut();
            repair_rows(h, &[edge], None, &marked, d, candidates, scan_phase_hists());
        }
    });
    dm
}

/// Rows of `G − edge` for the listed `sources` only, concatenated in list
/// order (`sources.len() · n` entries), derived from the base matrix of
/// `G` by the same per-source stage-A test and row walker as
/// [`masked_apsp_from_base`]: each listed row is copied from the base and
/// repaired only when the test marks it. Byte-identical to the listed
/// rows of [`DistanceMatrix::build_masked`] (pinned by
/// `tests/round_dynamics_props.rs`). A pricing that reads a handful of
/// rows — the interest game's, `|I(v)|` per scanned edge — pays for those
/// rows and an `O(n + m)` copy of `G − edge` instead of an `n × n` copy.
///
/// # Panics
/// Debug-panics when `edge` is not an edge of `csr` or the matrix shape
/// does not match; panics when a source is not a vertex.
pub fn masked_rows_from_base(
    csr: &Csr,
    base: &DistanceMatrix,
    edge: (V, V),
    sources: &[V],
) -> Vec<Dist> {
    let n = csr.n();
    debug_assert_eq!(base.n(), n);
    debug_assert!(
        csr.neighbors(edge.0).contains(&edge.1),
        "masked_rows_from_base requires an existing edge"
    );
    let mut rows = Vec::with_capacity(sources.len() * n);
    let mut repaired = 0u64;
    with_csr_without(csr, edge, |h| {
        let test = StageA::new(h, edge);
        with_repair_scratch(n, |scratch| {
            for &s in sources {
                let src = base.row(s);
                let at = rows.len();
                rows.extend_from_slice(src);
                if test.marks(src, src[edge.0 as usize], src[edge.1 as usize]) {
                    let row = &mut rows[at..];
                    repair_row(scratch, h, &[edge], None, s, row, scan_phase_hists());
                    repaired += 1;
                }
            }
        });
    });
    telemetry::counter!("scan.rows_repaired").add(repaired);
    rows
}

/// Stage A's exact per-source test for deleting the one edge `uw`, on a
/// CSR that already lacks it.
struct StageA<'a> {
    nbrs_u: &'a [V],
    nbrs_w: &'a [V],
}

impl<'a> StageA<'a> {
    fn new(csr: &'a Csr, (u, w): (V, V)) -> Self {
        StageA {
            nbrs_u: csr.neighbors(u),
            nbrs_w: csr.neighbors(w),
        }
    }

    /// Whether deleting the edge changes source `s`'s row. `row` is `s`'s
    /// pre-deletion row, and `du`, `dw` its levels of the two endpoints
    /// (`d(s,u) = d(u,s)`, so callers may read them from whichever row is
    /// contiguous).
    ///
    /// A row is marked exactly when the far endpoint — the one on the
    /// deeper level — loses its last parent, which is exactly when the row
    /// changes. The alternate-parent probe runs as a
    /// [`kernels::gather_min_plus`] reduction over the far endpoint's
    /// neighbor list (an alternate parent exists from `s` iff the gathered
    /// minimum plus one equals the far endpoint's level).
    #[inline]
    fn marks(&self, row: &[Dist], du: Dist, dw: Dist) -> bool {
        if du == dw {
            // Equal levels (or both unreachable): the edge lies on no
            // shortest path from this source.
            return false;
        }
        debug_assert_eq!(du.abs_diff(dw), 1, "pre-deletion levels must be adjacent");
        let (far_nbrs, far_lvl) = if dw > du {
            (self.nbrs_w, dw)
        } else {
            (self.nbrs_u, du)
        };
        // Every neighbor sits on level far_lvl − 1, far_lvl, or
        // far_lvl + 1, so min + 1 == far_lvl exactly when an
        // alternate parent survives on the level below.
        let (min_plus, _) = kernels::gather_min_plus(row, far_nbrs);
        min_plus != far_lvl
    }
}

/// Stage A for deleting the one edge `edge` ([`StageA::marks`] per source
/// row of the pre-deletion matrix `dm`): fills `marked` and returns the
/// candidate count. `csr` must already lack the edge; the levels come from
/// the contiguous rows of its endpoints.
fn mark_rows(csr: &Csr, dm: &DistanceMatrix, edge: (V, V), marked: &mut Vec<bool>) -> usize {
    let n = dm.n();
    marked.clear();
    marked.resize(n, false);
    let ru = dm.row(edge.0);
    let rw = dm.row(edge.1);
    let test = StageA::new(csr, edge);
    let mut count = 0usize;
    for s in 0..n {
        if test.marks(dm.row(s as V), ru[s], rw[s]) {
            marked[s] = true;
            count += 1;
        }
    }
    count
}

/// Coarse stage A for several deleted edges: marks every row from which
/// some deleted edge was tight, and returns the candidate count.
fn mark_tight_rows(dm: &DistanceMatrix, deleted: &[(V, V)], marked: &mut Vec<bool>) -> usize {
    let n = dm.n();
    marked.clear();
    marked.resize(n, false);
    let mut count = 0usize;
    for &(u, w) in deleted {
        let ru = dm.row(u);
        let rw = dm.row(w);
        for s in 0..n {
            if ru[s] != rw[s] && !marked[s] {
                marked[s] = true;
                count += 1;
            }
        }
    }
    count
}

/// Stage B of every deletion repair: [`repair_row`] over every marked row
/// of `d`, fanning out over the worker pool when both the problem and the
/// candidate set are wide enough. Returns `(walked, repaired)`, the rows
/// whose walk found an affected vertex and the rows that changed.
fn repair_rows(
    csr: &Csr,
    deleted: &[(V, V)],
    comps: Option<&Components>,
    marked: &[bool],
    d: &mut [Dist],
    candidates: usize,
    ph: &'static PhaseHists,
) -> (usize, usize) {
    let n = marked.len();
    let repair_one = |scratch: &mut RepairScratch, s: usize, row: &mut [Dist]| {
        repair_row(scratch, csr, deleted, comps, s as V, row, ph)
    };
    // Each row reports its own `(walked, changed)`: no counter is shared
    // between workers.
    let rows: Vec<(bool, bool)> = if n < PAR_REPAIR_MIN_N || candidates < PAR_REPAIR_MIN_ROWS {
        with_repair_scratch(n, |scratch| {
            d.chunks_mut(n)
                .enumerate()
                .filter(|&(s, _)| marked[s])
                .map(|(s, row)| repair_one(scratch, s, row))
                .collect()
        })
    } else {
        d.par_chunks_mut(n)
            .enumerate()
            .map(|(s, row)| {
                if marked[s] {
                    with_repair_scratch(n, |scratch| repair_one(scratch, s, row))
                } else {
                    (false, false)
                }
            })
            .collect()
    };
    let walked = rows.iter().filter(|r| r.0).count();
    (walked, rows.iter().filter(|r| r.1).count())
}

/// Bucketed multi-source Dijkstra over the affected set (phase 2's
/// settle): pops candidates in distance order, finalizes each at its
/// current candidate value, and relaxes affected unsettled neighbors.
fn settle_buckets(scratch: &mut RepairScratch, csr: &Csr, row: &mut [Dist], max_bucket: usize) {
    let mut max_bucket = max_bucket;
    let mut dist = 0usize;
    while dist <= max_bucket {
        while let Some(t) = scratch.buckets[dist].pop() {
            if scratch.is_settled(t) || scratch.cand[t as usize] != dist as Dist {
                continue; // stale entry superseded by a shorter candidate
            }
            scratch.mark_settled(t);
            row[t as usize] = dist as Dist;
            let nd = dist as Dist + 1;
            for &nb in csr.neighbors(t) {
                if scratch.is_affected(nb)
                    && !scratch.is_settled(nb)
                    && nd < scratch.cand[nb as usize]
                {
                    scratch.cand[nb as usize] = nd;
                    scratch.buckets[nd as usize].push(nb);
                    max_bucket = max_bucket.max(nd as usize);
                }
            }
        }
        dist += 1;
    }
}

/// Affected vertices the settle never reached are unreachable in the new
/// graph; stamp the sentinel over exactly those.
fn write_unsettled_unreachable(scratch: &RepairScratch, row: &mut [Dist]) {
    for &a in &scratch.queue {
        if !scratch.is_settled(a) {
            row[a as usize] = UNREACHABLE_D;
        }
    }
}

/// Ramalingam–Reps truncated repair of one source row for any number of
/// deletions: the level-bucketed frontier walk batching its row reads
/// through the kernel layer, inside the source's own component of the
/// deletion phase's graph `H`, then a stamp over every other component.
/// Returns `(walked, changed)`: whether the walk found an affected vertex,
/// and whether the row changed at all. `csr` is `H`: it must already lack
/// every edge in `deleted`, and every insertion not yet blended. `comps`
/// labels `H`'s components; without labels (the scans) the walk treats
/// `H` as one component and walks a cut-off side instead of stamping it.
/// Pinned to full BFS rebuilds by `tests/dynamic_apsp_props.rs`.
///
/// **Seeds.** Far endpoints of tight deleted edges inside `source`'s
/// component seed per-level buckets, processed in ascending level order
/// (seeds sit at arbitrary levels, so a plain FIFO does not suffice).
/// Every `H`-neighbor of a vertex lies in its component, so the walk
/// never leaves the source's, and it still finds that component's whole
/// affected set: an affected vertex either lost every parent to deleted
/// edges (a seed) or keeps only affected parents in its own component.
///
/// **Phase 1.** With several deletions in flight the post-round graph
/// keeps its cycles and alternate parents are common, so each candidate
/// takes the early-exit tight-parent probe first ([`probe_and_gather`]);
/// affected candidates keep the still-unmarked neighbors it gathered into
/// the contiguous `idx` buffer as their segment (`queue_seg`) for phase
/// 2, and push their level-below children from it instead of re-walking
/// the CSR. `enqueued` marks dedupe bucket pushes.
///
/// **Phase 2.** [`settle_affected_kernel`] — the batched boundary
/// relaxation off the stored segments (one fused
/// [`kernels::frontier_relax`] pass), then the shared settle. With labels
/// every affected vertex is reachable inside the component, so all
/// settle; without, a cut-off side finds no boundary and is written
/// unreachable.
///
/// **Stamp.** The members of every other component are unreachable from
/// `source` in `H`: the walker writes [`UNREACHABLE_D`] over them from
/// [`Components::outside`]'s member lists, without a neighbor visit
/// (both are empty when `H` is connected). The row changed iff the walk
/// found an affected vertex or the stamp overwrote a finite entry, so
/// `rows_repaired` counts exactly the rows whose entries change, as a
/// walk of the cut-off vertices would; an entry that was already
/// unreachable before the update does not count.
fn repair_row(
    scratch: &mut RepairScratch,
    csr: &Csr,
    deleted: &[(V, V)],
    comps: Option<&Components>,
    source: V,
    row: &mut [Dist],
    ph: &PhaseHists,
) -> (bool, bool) {
    let t0 = telemetry::stamp();
    scratch.begin();
    scratch.queue.clear();
    scratch.queue_seg.clear();
    scratch.idx.clear();

    // Seed: the far endpoint of every tight deleted edge in the source's
    // component, bucketed at its own BFS level (deduplicated — edges may
    // share a far endpoint).
    let outside = |v: V| comps.is_some_and(|c| c.of(v) != c.of(source));
    let mut lvl = usize::MAX;
    let mut max_lvl = 0usize;
    for &(u, w) in deleted {
        let du = row[u as usize];
        let dw = row[w as usize];
        if du == dw {
            continue; // not tight (or both endpoints unreachable)
        }
        debug_assert_eq!(du.abs_diff(dw), 1, "pre-deletion levels must be adjacent");
        let (far, far_lvl) = if dw > du { (w, dw) } else { (u, du) };
        if outside(far) || scratch.enqueued[far as usize] == scratch.epoch {
            continue; // another component's (stamped below), or already seeded
        }
        scratch.enqueued[far as usize] = scratch.epoch;
        scratch.buckets[far_lvl as usize].push(far);
        lvl = lvl.min(far_lvl as usize);
        max_lvl = max_lvl.max(far_lvl as usize);
    }

    // Phase 1: levels in ascending order; every level-(L−1) verdict is
    // final before level L's candidates are examined.
    let epoch = scratch.epoch;
    while lvl <= max_lvl {
        std::mem::swap(&mut scratch.frontier, &mut scratch.buckets[lvl]);
        if scratch.frontier.is_empty() {
            lvl += 1;
            continue;
        }
        let cur = lvl as Dist;
        let child_level = cur + 1;
        for fi in 0..scratch.frontier.len() {
            let t = scratch.frontier[fi];
            debug_assert_eq!(row[t as usize] as usize, lvl);
            let s = scratch.idx.len();
            if probe_and_gather(
                csr,
                &scratch.affected,
                epoch,
                &mut scratch.idx,
                row,
                t,
                cur - 1,
            ) {
                continue; // intact parent on level cur − 1
            }
            let e = scratch.idx.len();
            scratch.affected[t as usize] = epoch;
            scratch.queue.push(t);
            scratch.queue_seg.push((s as u32, e as u32));
            for p in s..e {
                let nb = scratch.idx[p];
                if row[nb as usize] == child_level && scratch.enqueued[nb as usize] != epoch {
                    scratch.enqueued[nb as usize] = epoch;
                    scratch.buckets[child_level as usize].push(nb);
                    max_lvl = max_lvl.max(child_level as usize);
                }
            }
        }
        scratch.frontier.clear();
        lvl += 1;
    }
    let t1 = telemetry::stamp();
    ph.phase1.record_span(t0, t1);
    let walked = !scratch.queue.is_empty();
    if walked {
        settle_affected_kernel(scratch, csr, row);
    }

    // Stamp: every other component is unreachable from the source (none
    // when `H` is connected or unlabelled).
    let mut changed = walked;
    for part in comps.map_or([&[][..]; 2], |c| c.outside(source)) {
        for &v in part {
            let d = &mut row[v as usize];
            changed |= *d != UNREACHABLE_D;
            *d = UNREACHABLE_D;
        }
    }
    if changed {
        ph.phase2.record_span(t1, telemetry::stamp());
    }
    (walked, changed)
}

/// Fused probe + gather of one phase-1 candidate: one CSR scan both
/// renders the tight-parent verdict (early exit the moment an unaffected
/// neighbor on `parent_level` turns up — the common case on cyclic
/// graphs) and collects the candidate's still-unmarked neighbors into
/// `idx`. Returns `true` — with the partial gather rolled back — when an
/// intact parent survives, i.e. the candidate is *not* affected.
/// `affected` and `epoch` are the scratch's mark state, passed as fields
/// so the caller keeps its other borrows.
#[inline]
fn probe_and_gather(
    csr: &Csr,
    affected: &[u32],
    epoch: u32,
    idx: &mut Vec<V>,
    row: &[Dist],
    t: V,
    parent_level: Dist,
) -> bool {
    let s = idx.len();
    for &z in csr.neighbors(t) {
        if affected[z as usize] != epoch {
            if row[z as usize] == parent_level {
                idx.truncate(s); // discard the partial segment
                return true;
            }
            idx.push(z);
        }
    }
    false
}

/// Phase 2: the batched boundary relaxation. Each affected vertex's
/// **stored** phase-1 segment is re-filtered by the final affected marks
/// into one contiguous boundary buffer (the stored set contains every
/// neighbor that was unmarked when the vertex was examined — a superset
/// of the finally-unaffected boundary — and `row` is not written until
/// settling, so the gathered values are exact), then a single
/// [`kernels::frontier_relax`] call reduces **every** vertex's boundary
/// segment in one fused pass, with no second walk of the CSR. When no
/// vertex finds a boundary at all the whole set is provably disconnected
/// and the settle is skipped outright.
fn settle_affected_kernel(scratch: &mut RepairScratch, csr: &Csr, row: &mut [Dist]) {
    let epoch = scratch.epoch;
    // Re-filter every stored segment into `members`, with fresh offsets
    // in `seg` (both free after phase 1).
    scratch.members.clear();
    scratch.seg.clear();
    scratch.seg.push(0);
    for &(s, e) in &scratch.queue_seg {
        for &z in &scratch.idx[s as usize..e as usize] {
            if scratch.affected[z as usize] != epoch {
                scratch.members.push(z);
            }
        }
        scratch.seg.push(scratch.members.len() as u32);
    }
    if scratch.members.is_empty() {
        // No unaffected boundary at all: the whole set is disconnected.
        for i in 0..scratch.queue.len() {
            row[scratch.queue[i] as usize] = UNREACHABLE_D;
        }
        return;
    }
    // One fused reduction seeds the whole affected set.
    scratch.mins.clear();
    scratch.mins.resize(scratch.queue.len(), UNREACHABLE_D);
    kernels::frontier_relax(row, &scratch.members, &scratch.seg, &mut scratch.mins);
    let mut max_bucket = 0usize;
    for k in 0..scratch.queue.len() {
        let a = scratch.queue[k];
        let best = scratch.mins[k];
        scratch.cand[a as usize] = best;
        if best != UNREACHABLE_D {
            let b = best as usize;
            scratch.buckets[b].push(a);
            max_bucket = max_bucket.max(b);
        }
    }
    settle_buckets(scratch, csr, row, max_bucket);
    write_unsettled_unreachable(scratch, row);
}

/// Exact insertion blend of one row through the fused kernel; returns the
/// blended row's cost aggregate, or `None` when the adjacent-levels test
/// proves the row unchanged.
#[inline]
fn blend_row_cost(
    row: &mut [Dist],
    x: usize,
    y: usize,
    rx: &[Dist],
    ry: &[Dist],
) -> Option<RowCost> {
    let dsx = row[x];
    let dsy = row[y];
    if dsx.abs_diff(dsy) <= 1 {
        return None;
    }
    let term = BlendTerm {
        add_a: dsx.saturating_add(1),
        row_a: ry,
        add_b: dsy.saturating_add(1),
        row_b: rx,
    };
    Some(kernels::fused_blend_cost(row, &[term]))
}

/// Buffers [`DynamicApsp`] keeps across updates: the deletion phase's
/// CSR and its component labels, and the batched blend's endpoint plan,
/// working rows, snapshots and compact endpoint rows.
#[derive(Debug, Clone)]
struct BatchScratch {
    /// `G` minus the update's insertions, the graph the deletion phase
    /// walks, with [`Csr::refill_without`]'s scratch.
    csr: Csr,
    cut: Vec<u32>,
    /// The connected components of the graph the deletion phase walks
    /// (`csr` above, or the caller's snapshot when nothing is inserted),
    /// labelled once per update that has repair candidates. The walker
    /// seeds only inside a row's own component and stamps the others
    /// unreachable; the scans keep no labels and still walk a cut-off
    /// side.
    comps: Components,
    /// Endpoint slot of every vertex (`u32::MAX` = not an endpoint).
    slot: Vec<u32>,
    /// The batch's distinct endpoints, ordered by last read, latest first.
    ends: Vec<V>,
    /// Each insertion's `(x, y)` endpoint slots.
    pairs: Vec<(u32, u32)>,
    /// `live[j]`: how many endpoints an insertion after `j` still reads —
    /// by the order of `ends`, exactly the prefix `ends[..live[j]]`.
    live: Vec<u32>,
    /// Working endpoint rows, slot-major (`ends.len() × n`).
    work: Vec<Dist>,
    /// Snapshot copies of working rows that are read again after their
    /// snapshot step.
    frozen: Vec<Dist>,
    /// Each insertion's `(x, y)` snapshot rows: `r < ends.len()` is
    /// working row `r`, any other `r` is frozen row `r − ends.len()`.
    snaps: Vec<(u32, u32)>,
    /// Compact snapshots: insertion `j`'s x/y snapshot values at
    /// `ends[..live[j]]`, stored after those of insertions `0..j`.
    cx: Vec<Dist>,
    cy: Vec<Dist>,
}

impl BatchScratch {
    fn new() -> Self {
        BatchScratch {
            csr: Csr::from_adjacency(&[]),
            cut: Vec::new(),
            comps: Components::default(),
            slot: Vec::new(),
            ends: Vec::new(),
            pairs: Vec::new(),
            live: Vec::new(),
            work: Vec::new(),
            frozen: Vec::new(),
            snaps: Vec::new(),
            cx: Vec::new(),
            cy: Vec::new(),
        }
    }

    /// Resolves the endpoint plan of `inserted` in `O(n + k)`: walking
    /// the batch backwards, an endpoint gets its slot at its last read,
    /// so `ends` comes out latest-read first and `live[j]` is the number
    /// of slots handed out after step `j`.
    fn plan(&mut self, n: usize, inserted: &[(V, V)]) {
        let k = inserted.len();
        self.slot.clear();
        self.slot.resize(n, u32::MAX);
        self.ends.clear();
        self.live.clear();
        self.live.resize(k, 0);
        for j in (0..k).rev() {
            self.live[j] = self.ends.len() as u32;
            let (x, y) = inserted[j];
            for v in [x, y] {
                if self.slot[v as usize] == u32::MAX {
                    self.slot[v as usize] = self.ends.len() as u32;
                    self.ends.push(v);
                }
            }
        }
        let slot = &self.slot;
        self.pairs.clear();
        self.pairs.extend(
            inserted
                .iter()
                .map(|&(x, y)| (slot[x as usize], slot[y as usize])),
        );
    }
}

/// Connected-component labels of a graph, each component's members
/// listed contiguously so a row can stamp every other component without
/// a neighbor visit.
#[derive(Debug, Clone, Default)]
struct Components {
    /// Component of every vertex, numbered from 0 in the order of each
    /// component's smallest vertex.
    comp: Vec<u32>,
    /// The vertices grouped by component, in BFS order: component `c` is
    /// `members[at[c]..at[c + 1]]`.
    members: Vec<V>,
    at: Vec<u32>,
}

impl Components {
    /// Labels `csr`'s components by one `O(n + m)` BFS; `members` is the
    /// BFS queue, so each component comes out contiguous.
    fn label(&mut self, csr: &Csr) {
        let n = csr.n();
        self.comp.clear();
        self.comp.resize(n, u32::MAX);
        self.members.clear();
        self.at.clear();
        self.at.push(0);
        for r in 0..n as V {
            if self.comp[r as usize] != u32::MAX {
                continue;
            }
            let c = (self.at.len() - 1) as u32;
            self.comp[r as usize] = c;
            let mut head = self.members.len();
            self.members.push(r);
            while head < self.members.len() {
                let t = self.members[head];
                head += 1;
                for &z in csr.neighbors(t) {
                    if self.comp[z as usize] == u32::MAX {
                        self.comp[z as usize] = c;
                        self.members.push(z);
                    }
                }
            }
            self.at.push(self.members.len() as u32);
        }
    }

    /// The component of `v`.
    #[inline]
    fn of(&self, v: V) -> u32 {
        self.comp[v as usize]
    }

    /// Every vertex outside `v`'s component: the member runs before and
    /// after it.
    #[inline]
    fn outside(&self, v: V) -> [&[V]; 2] {
        let c = self.of(v) as usize;
        let (lo, hi) = (self.at[c] as usize, self.at[c + 1] as usize);
        [&self.members[..lo], &self.members[hi..]]
    }
}

/// Snapshot row `r` of [`BatchScratch::snaps`], given the working rows
/// from slot `first` to the last endpoint in `work` and the frozen copies
/// in `frozen`.
#[inline]
fn snap_row<'a>(
    work: &'a [Dist],
    first: usize,
    frozen: &'a [Dist],
    n: usize,
    r: u32,
) -> &'a [Dist] {
    let (r, e) = (r as usize, first + work.len() / n);
    let (rows, i) = if r < e {
        (work, r - first)
    } else {
        (frozen, r - e)
    };
    &rows[i * n..(i + 1) * n]
}

/// Reusable buffers for one row repair: epoch-stamped
/// affected/settled/enqueued marks, the affected queue, candidate
/// distances, the bucket queue shared by the phase-1 level walk and the
/// phase-2 Dijkstra, and the contiguous gather buffers (`idx` with
/// per-affected-vertex spans in `queue_seg`, and the filtered phase-2
/// boundary `members` with `seg` offsets).
#[derive(Debug)]
struct RepairScratch {
    affected: Vec<u32>,
    settled: Vec<u32>,
    /// Frontier-membership marks for the phase-1 walks.
    enqueued: Vec<u32>,
    epoch: u32,
    queue: Vec<V>,
    cand: Vec<Dist>,
    buckets: Vec<Vec<V>>,
    /// The level bucket phase 1 is examining.
    frontier: Vec<V>,
    /// Phase-2 boundary buffer: every affected vertex's still-unaffected
    /// boundary ids, concatenated (offsets in `seg`).
    members: Vec<V>,
    /// Gathered neighbor ids, concatenated across the phase-1 walk.
    idx: Vec<V>,
    /// Segment offsets into `members` for the phase-2 fused relaxation.
    seg: Vec<u32>,
    /// Per-segment reduction results ([`kernels::frontier_relax`] output).
    mins: Vec<Dist>,
    /// Each affected vertex's stored `[start, end)` span in `idx`.
    queue_seg: Vec<(u32, u32)>,
}

impl RepairScratch {
    fn new(n: usize) -> Self {
        RepairScratch {
            affected: vec![0; n],
            settled: vec![0; n],
            enqueued: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
            cand: vec![0; n],
            buckets: (0..n + 2).map(|_| Vec::new()).collect(),
            frontier: Vec::new(),
            members: Vec::new(),
            idx: Vec::new(),
            seg: Vec::new(),
            mins: Vec::new(),
            queue_seg: Vec::new(),
        }
    }

    fn resize(&mut self, n: usize) {
        if self.affected.len() < n {
            self.affected.resize(n, 0);
            self.settled.resize(n, 0);
            self.enqueued.resize(n, 0);
            self.cand.resize(n, 0);
        }
        if self.buckets.len() < n + 2 {
            self.buckets.resize_with(n + 2, Vec::new);
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.affected.fill(0);
            self.settled.fill(0);
            self.enqueued.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn is_affected(&self, v: V) -> bool {
        self.affected[v as usize] == self.epoch
    }

    #[inline]
    fn mark_settled(&mut self, v: V) {
        self.settled[v as usize] = self.epoch;
    }

    #[inline]
    fn is_settled(&self, v: V) -> bool {
        self.settled[v as usize] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic;
    use crate::Graph;

    fn assert_exact(da: &DynamicApsp, g: &Graph) {
        let fresh = DistanceMatrix::build(&g.to_csr());
        assert_eq!(da.matrix(), &fresh, "matrix diverged from full rebuild");
        fresh.recycle();
    }

    #[test]
    fn deletion_on_cycle_repairs_exactly() {
        let mut g = classic::cycle(12);
        g.add_edge(0, 6);
        let mut da = DynamicApsp::build(&g.to_csr());
        g.remove_edge(0, 6);
        da.apply_deletion(&g.to_csr(), 0, 6);
        assert_exact(&da, &g);
        assert!(da.stats().last_rows_repaired > 0);
    }

    #[test]
    fn insertion_on_cycle_blends_exactly() {
        let mut g = classic::cycle(16);
        let mut da = DynamicApsp::build(&g.to_csr());
        g.add_edge(0, 8);
        da.apply_insertion(&g.to_csr(), 0, 8);
        assert_exact(&da, &g);
        assert!(da.stats().last_rows_blended > 0);
    }

    #[test]
    fn swap_record_replays_exactly() {
        let mut g = classic::path(10);
        let mut da = DynamicApsp::build(&g.to_csr());
        // Endpoint rewires to the center — a Swapped record.
        let rec = g.apply_swap(0, 1, 5);
        da.apply_swap(&g.to_csr(), &rec);
        assert_exact(&da, &g);
        // Swap onto an existing edge degenerates to a deletion record.
        let mut h = classic::complete(5);
        let mut dh = DynamicApsp::build(&h.to_csr());
        let rec = h.apply_swap(0, 1, 2);
        assert!(matches!(rec, SwapApplied::Deleted { .. }));
        dh.apply_swap(&h.to_csr(), &rec);
        assert_exact(&dh, &h);
    }

    #[test]
    fn empty_batch_counts_as_incremental_update() {
        let g = classic::cycle(8);
        let csr = g.to_csr();
        let mut da = DynamicApsp::build(&csr);
        let before = da.matrix().clone();
        da.apply_batch(&csr, &[]);
        da.apply_batch(&csr, &[SwapApplied::Noop, SwapApplied::Noop]);
        assert_eq!(da.matrix(), &before);
        let stats = da.stats();
        assert_eq!(stats.updates, 2);
        assert_eq!(stats.batches, 2);
        assert_eq!(
            stats.incremental, stats.updates,
            "every update is incremental"
        );
    }

    #[test]
    fn noop_swap_changes_nothing() {
        let mut g = classic::path(6);
        let mut da = DynamicApsp::build(&g.to_csr());
        let before = da.matrix().clone();
        let rec = g.apply_swap(0, 1, 1);
        da.apply_swap(&g.to_csr(), &rec);
        assert_eq!(da.matrix(), &before);
        assert_eq!(da.stats().updates, 1);
    }

    #[test]
    fn tree_bridge_deletion_repairs_every_row_and_stays_exact() {
        // Deleting a tree edge affects every source: all n rows are repair
        // candidates, and the matrix must report the disconnection exactly.
        // Each row stamps the side it loses instead of walking it.
        let mut g = classic::path(9);
        let mut da = DynamicApsp::build(&g.to_csr());
        g.remove_edge(4, 5);
        da.apply_deletion(&g.to_csr(), 4, 5);
        assert_eq!(da.stats().last_repair_candidates, g.n());
        assert_eq!(da.stats().last_rows_repaired, g.n());
        assert_eq!(da.stats().last_rows_walked, 0);
        assert_exact(&da, &g);
        assert_eq!(da.matrix().get(0, 8), crate::UNREACHABLE);
        // Reconnect somewhere else; the blend must restore exactness.
        g.add_edge(0, 8);
        da.apply_insertion(&g.to_csr(), 0, 8);
        assert_exact(&da, &g);
    }

    #[test]
    fn repair_stats_delta_saturates_instead_of_wrapping() {
        // A baseline *newer* than the reading — the engine-reset scenario
        // delta_since documents — must clamp to zero, not wrap to ~u64::MAX.
        let older = RepairStats {
            updates: 3,
            incremental: 2,
            rows_repaired: 40,
            rows_blended: 7,
            batches: 1,
            last_rows_repaired: 5,
            ..RepairStats::default()
        };
        let newer = RepairStats {
            updates: 10,
            incremental: 8,
            rows_repaired: 100,
            rows_blended: 30,
            batches: 4,
            last_rows_repaired: 9,
            ..RepairStats::default()
        };
        let forward = newer.delta_since(&older);
        assert_eq!(forward.updates, 7);
        assert_eq!(forward.incremental, 6);
        assert_eq!(forward.rows_repaired, 60);
        assert_eq!(forward.rows_blended, 23);
        assert_eq!(forward.batches, 3);
        // `last_*` fields carry over from the newer reading, undiffed.
        assert_eq!(forward.last_rows_repaired, 9);

        let inverted = older.delta_since(&newer);
        assert_eq!(
            (
                inverted.updates,
                inverted.incremental,
                inverted.rows_repaired,
                inverted.rows_blended,
                inverted.batches,
            ),
            (0, 0, 0, 0, 0),
            "stale-baseline diffs saturate to zero"
        );
        assert_eq!(inverted.last_rows_repaired, 5);

        // Same contract for the phase-timing deltas.
        let p_old = RepairPhases {
            stage_a_ns: 10,
            phase1_ns: 20,
            phase2_ns: 30,
            blend_ns: 40,
        };
        let p_new = RepairPhases {
            stage_a_ns: 15,
            phase1_ns: 50,
            phase2_ns: 30,
            blend_ns: 41,
        };
        assert_eq!(p_new.delta_since(&p_old).total_ns(), 5 + 30 + 1);
        assert_eq!(p_old.delta_since(&p_new).total_ns(), 0);
    }

    #[test]
    fn untouched_rows_are_skipped() {
        // Deleting one chord of a dense graph leaves most rows unchanged;
        // the stats must reflect a narrow repair, not a sweep.
        let mut g = classic::complete(8);
        let mut da = DynamicApsp::build(&g.to_csr());
        g.remove_edge(0, 1);
        da.apply_deletion(&g.to_csr(), 0, 1);
        assert_exact(&da, &g);
        assert!(da.stats().last_repair_candidates <= 2);
    }
}
