//! Property tests pinning the dynamic-distance subsystem to full APSP
//! rebuilds.
//!
//! `DynamicApsp` repairs only the rows a single-edge mutation invalidates;
//! none of that is allowed to change a single bit of the matrix. These
//! properties replay random swap sequences — on Erdős–Rényi graphs and
//! uniform random trees, through `Swapped`/`Deleted`/`Noop` records alike —
//! and compare the maintained matrix byte-for-byte against
//! `DistanceMatrix::build` of the mutated graph after **every** step;
//! single swaps also pin stage A's
//! candidate count to the exact number of rows the deletion changes, and
//! round batches are swept the same way through `apply_batch`, each
//! barrier's repair, walk, blend and candidate counters and row
//! aggregates pinned to BFS builds as well — wide (`k = n/2`) and
//! hub-shaped batches included, and batches that cut the graph: tree
//! palindromes, a forest start and deletion-only swaps.
//! Deterministic long-run tests keep the step counts above fixed floors
//! regardless of proptest case budgets, and context-level properties pin
//! `refresh_after` trajectories to fresh contexts under both objectives.

use bncg::game::context::EvalContext;
use bncg::game::objective::{MaxObjective, Objective, SumObjective};
use bncg::graph::adjacency::{Edge, SwapApplied};
use bncg::graph::components::connected_components;
use bncg::graph::dynamic::DynamicApsp;
use bncg::graph::generators::random::{gnp, random_connected, random_tree};
use bncg::graph::kernels;
use bncg::graph::{DistanceMatrix, Graph, V};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sparse Erdős–Rényi graph on up to `max_n` vertices (connectivity not
/// required — the subsystem must track unreachable pairs exactly).
fn er_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (6usize..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = (3.0 / n as f64).min(0.9);
        gnp(&mut rng, n, p)
    })
}

/// Uniform random labeled tree on up to `max_n` vertices.
fn tree(max_n: usize) -> impl Strategy<Value = Graph> {
    (6usize..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        random_tree(&mut rng, n)
    })
}

/// Picks a random legal swap `(v, w, w2)` of `g`: `vw` an existing edge,
/// `w2` any non-`v` vertex (so deletions — `w2` already adjacent — and
/// no-ops — `w2 == w` — occur alongside proper swaps).
fn random_swap<R: Rng>(rng: &mut R, g: &Graph) -> Option<(V, V, V)> {
    if g.m() == 0 {
        return None;
    }
    let edges = g.edge_vec();
    let e = edges[rng.gen_range(0..edges.len())];
    let (v, w) = if rng.gen_bool(0.5) {
        (e.u, e.v)
    } else {
        (e.v, e.u)
    };
    let n = g.n() as V;
    let mut w2 = rng.gen_range(0..n);
    if w2 == v {
        w2 = if w2 + 1 < n { w2 + 1 } else { 0 };
    }
    if w2 == v {
        return None; // n == 1 has no legal target
    }
    Some((v, w, w2))
}

fn assert_byte_identical(da: &DynamicApsp, g: &Graph, context: &str) {
    let fresh = DistanceMatrix::build(&g.to_csr());
    assert_eq!(
        da.matrix(),
        &fresh,
        "dynamic matrix diverged from full rebuild ({context})"
    );
    fresh.recycle();
}

/// Number of source rows on which `a` and `b` differ.
fn rows_differing(a: &DistanceMatrix, b: &DistanceMatrix) -> usize {
    (0..a.n() as V).filter(|&s| a.row(s) != b.row(s)).count()
}

/// Number of source rows with an entry that changes from `before` to
/// `after` and stays finite: the rows a deletion repair must walk. A row
/// whose only change is a component cut off is stamped, not walked.
fn rows_walked(before: &DistanceMatrix, after: &DistanceMatrix) -> usize {
    (0..before.n() as V)
        .filter(|&s| {
            before
                .row(s)
                .iter()
                .zip(after.row(s))
                .any(|(&a, &b)| a != b && b != kernels::UNREACHABLE_D)
        })
        .count()
}

/// Applies the swap `(v, w, w2)` to `g` through `apply_swap` and checks
/// `da` against BFS builds after it: the matrix against the post-swap
/// graph, and for a deletion the counters against the pre-swap graph
/// with and without `vw`. Stage A marks a row exactly when the far
/// endpoint loses its last parent, which is exactly when the row changes,
/// so `last_repair_candidates` and `last_rows_repaired` both equal the
/// rows the deletion changes; `last_rows_walked` equals [`rows_walked`].
fn apply_and_check_swap(da: &mut DynamicApsp, g: &mut Graph, (v, w, w2): (V, V, V), context: &str) {
    let before = g.to_csr();
    let rec = g.apply_swap(v, w, w2);
    da.apply_swap(&g.to_csr(), &rec);
    assert_byte_identical(da, g, context);
    if let SwapApplied::Deleted { v, w } | SwapApplied::Swapped { v, w, .. } = rec {
        let full = DistanceMatrix::build(&before);
        let masked = DistanceMatrix::build_masked(&before, (v, w));
        let stats = da.stats();
        let changed = rows_differing(&full, &masked);
        assert_eq!(
            stats.last_repair_candidates, changed,
            "stage A marked a row the deletion leaves unchanged, or missed one ({context})"
        );
        assert_eq!(stats.last_rows_repaired, changed, "({context})");
        assert_eq!(
            stats.last_rows_walked,
            rows_walked(&full, &masked),
            "walked rows != rows with an entry that changes and stays finite ({context})"
        );
    }
}

/// Replays `steps` random swaps on `g` through [`apply_and_check_swap`].
/// Returns the number of steps actually applied.
fn replay_and_check(mut g: Graph, seed: u64, steps: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut da = DynamicApsp::build(&g.to_csr());
    let mut applied = 0;
    for step in 0..steps {
        let Some(mv) = random_swap(&mut rng, &g) else {
            break;
        };
        apply_and_check_swap(&mut da, &mut g, mv, &format!("step {step}"));
        applied += 1;
    }
    applied
}

/// `refresh_after`-maintained context must agree with a fresh context on
/// every audit surface the game uses.
fn assert_context_paths_agree<O: Objective>(ctx: &EvalContext, g: &Graph) {
    let fresh = EvalContext::new(g);
    for v in 0..g.n() as V {
        assert_eq!(
            ctx.base().row(v),
            fresh.base().row(v),
            "base row {v} diverged under {}",
            O::NAME
        );
        assert_eq!(ctx.agent_cost::<O>(v), fresh.agent_cost::<O>(v));
    }
    assert_eq!(
        ctx.find_improving_swap::<O>(),
        fresh.find_improving_swap::<O>(),
        "witness diverged under {}",
        O::NAME
    );
}

/// Synthesizes one batch of up to `k` proper swaps with pairwise-disjoint
/// edge footprints, each valid against the current state of `g` — the
/// well-formedness `DynamicApsp::apply_batch` requires (mirrors the round
/// engine's conflict resolution without paying best-response sweeps).
fn synth_batch<R: Rng>(rng: &mut R, g: &Graph, k: usize) -> Vec<(V, V, V)> {
    let edges = g.edge_vec();
    if edges.is_empty() {
        return Vec::new();
    }
    let n = g.n() as V;
    let mut touched: Vec<Edge> = Vec::new();
    let mut batch = Vec::new();
    for _ in 0..16 * k {
        if batch.len() == k {
            break;
        }
        let e = edges[rng.gen_range(0..edges.len())];
        let (v, w) = if rng.gen_bool(0.5) {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        };
        let w2 = rng.gen_range(0..n);
        if w2 == v || w2 == w || g.has_edge(v, w2) {
            continue;
        }
        let fp = [Edge::new(v, w), Edge::new(v, w2)];
        if fp.iter().any(|edge| touched.contains(edge)) {
            continue;
        }
        touched.extend_from_slice(&fp);
        batch.push((v, w, w2));
    }
    batch
}

/// Applies `moves` to `g` as one round barrier and checks `da` against
/// BFS builds of three graphs: the pre-batch graph, `G − inserted` (the
/// pre-batch graph minus the deleted edges) and the post-batch `G`. The
/// matrix must equal the build of `G`; the batch counters must count
/// exactly the rows the deletion phase changed (`last_rows_repaired`),
/// the rows whose deletion repair walked ([`rows_walked`]), the rows the
/// blend changed
/// (`last_rows_blended`) and stage A's candidates — the rows where some
/// deleted edge is tight, or for a one-swap batch the rows its deletion
/// changes; every row aggregate must equal the fresh row's.
fn apply_and_check_batch(da: &mut DynamicApsp, g: &mut Graph, moves: &[(V, V, V)], context: &str) {
    let before = DistanceMatrix::build(&g.to_csr());
    let batch: Vec<_> = moves
        .iter()
        .map(|&(v, w, w2)| g.apply_swap(v, w, w2))
        .collect();
    let csr = g.to_csr();
    da.apply_batch(&csr, &batch);
    let fresh = DistanceMatrix::build(&csr);
    assert_eq!(
        da.matrix(),
        &fresh,
        "dynamic matrix diverged from full rebuild ({context})"
    );

    let mut bare = g.clone();
    let mut deleted = Vec::new();
    for rec in &batch {
        match *rec {
            SwapApplied::Noop => {}
            SwapApplied::Deleted { v, w } => deleted.push((v, w)),
            SwapApplied::Swapped { v, w, w2 } => {
                deleted.push((v, w));
                bare.remove_edge(v, w2);
            }
        }
    }
    let mid = DistanceMatrix::build(&bare.to_csr());
    let stats = da.stats();
    assert_eq!(
        stats.last_rows_repaired,
        rows_differing(&before, &mid),
        "repaired rows != rows the deletions change ({context})"
    );
    assert_eq!(
        stats.last_rows_walked,
        rows_walked(&before, &mid),
        "walked rows != rows with an entry that changes and stays finite ({context})"
    );
    assert_eq!(
        stats.last_rows_blended,
        rows_differing(&mid, &fresh),
        "blended rows != rows the insertions change ({context})"
    );
    let candidates = if deleted.len() == 1 {
        rows_differing(&before, &mid)
    } else {
        (0..before.n() as V)
            .filter(|&s| {
                deleted
                    .iter()
                    .any(|&(u, w)| before.get(s, u) != before.get(s, w))
            })
            .count()
    };
    assert_eq!(
        stats.last_repair_candidates, candidates,
        "stage-A candidates != tight rows ({context})"
    );
    for s in 0..fresh.n() as V {
        assert_eq!(
            da.row_costs()[s as usize],
            kernels::row_cost(fresh.row(s)),
            "row {s} aggregate diverged ({context})"
        );
    }
}

/// Replays `rounds` synthesized swap batches through `apply_batch`,
/// checking matrix, counters and aggregates after every round barrier
/// ([`apply_and_check_batch`]). Returns total swaps applied.
fn replay_batches_and_check(mut g: Graph, seed: u64, rounds: usize, k: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut da = DynamicApsp::build(&g.to_csr());
    let mut applied = 0;
    for round in 0..rounds {
        let moves = synth_batch(&mut rng, &g, k);
        apply_and_check_batch(&mut da, &mut g, &moves, &format!("batch round {round}"));
        applied += moves.len();
    }
    applied
}

/// One hub round: every vertex not adjacent to `h` (up to `k` of them,
/// in ascending order) moves one of its edges, chosen at random among
/// those not yet in the round's footprints, onto `h` — the shape of a
/// round where many agents buy into the same center.
fn hub_batch<R: Rng>(rng: &mut R, g: &Graph, h: V, k: usize) -> Vec<(V, V, V)> {
    let mut touched: Vec<Edge> = Vec::new();
    let mut batch = Vec::new();
    for v in 0..g.n() as V {
        if batch.len() == k {
            break;
        }
        if v == h || g.has_edge(v, h) {
            continue;
        }
        let free: Vec<V> = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| !touched.contains(&Edge::new(v, w)))
            .collect();
        if free.is_empty() {
            continue;
        }
        let w = free[rng.gen_range(0..free.len())];
        touched.extend_from_slice(&[Edge::new(v, w), Edge::new(v, h)]);
        batch.push((v, w, h));
    }
    batch
}

/// The vertices on `w`'s side of the bridge `vw` of the forest `g`.
fn far_side(g: &Graph, v: V, w: V) -> Vec<V> {
    let mut seen = vec![false; g.n()];
    seen[v as usize] = true;
    seen[w as usize] = true;
    let mut side = vec![w];
    let mut head = 0;
    while head < side.len() {
        let t = side[head];
        head += 1;
        for &z in g.neighbors(t) {
            if !seen[z as usize] {
                seen[z as usize] = true;
                side.push(z);
            }
        }
    }
    side
}

/// Synthesizes one batch of up to `k` vertex-disjoint swaps on the forest
/// `g` that keep every component connected: each moves a bridge `vw` to
/// `vw2` with `w2` on `w`'s side, checked against the batch's earlier
/// swaps, so the whole batch leaves the same components, each a tree
/// again — the shape of a palindromic replay round on a tree.
fn cut_batch<R: Rng>(rng: &mut R, g: &Graph, k: usize) -> Vec<(V, V, V)> {
    let mut work = g.clone();
    let mut used = vec![false; g.n()];
    let mut batch = Vec::new();
    for _ in 0..64 * k {
        if batch.len() == k {
            break;
        }
        let edges = work.edge_vec();
        let e = edges[rng.gen_range(0..edges.len())];
        let (v, w) = if rng.gen_bool(0.5) {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        };
        if used[v as usize] || used[w as usize] {
            continue;
        }
        let free: Vec<V> = far_side(&work, v, w)
            .into_iter()
            .filter(|&x| x != w && !used[x as usize])
            .collect();
        if free.is_empty() {
            continue;
        }
        let w2 = free[rng.gen_range(0..free.len())];
        work.apply_swap(v, w, w2);
        for x in [v, w, w2] {
            used[x as usize] = true;
        }
        batch.push((v, w, w2));
    }
    batch
}

/// Synthesizes one batch of up to `k` swaps with pairwise-disjoint
/// footprints, about half of them deletion-degenerate (`w2` already
/// adjacent to `v`, so the record is `SwapApplied::Deleted`) — or all of
/// them when `all_deletions`.
fn mixed_batch<R: Rng>(rng: &mut R, g: &Graph, k: usize, all_deletions: bool) -> Vec<(V, V, V)> {
    let edges = g.edge_vec();
    let n = g.n() as V;
    let mut touched: Vec<Edge> = Vec::new();
    let mut batch = Vec::new();
    for _ in 0..64 * k {
        if batch.len() == k {
            break;
        }
        let e = edges[rng.gen_range(0..edges.len())];
        let (v, w) = if rng.gen_bool(0.5) {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        };
        let w2 = if all_deletions || rng.gen_bool(0.5) {
            let others: Vec<V> = g.neighbors(v).iter().copied().filter(|&x| x != w).collect();
            if others.is_empty() {
                continue;
            }
            others[rng.gen_range(0..others.len())]
        } else {
            let w2 = rng.gen_range(0..n);
            if w2 == v || w2 == w || g.has_edge(v, w2) {
                continue;
            }
            w2
        };
        let fp = [Edge::new(v, w), Edge::new(v, w2)];
        if fp.iter().any(|edge| touched.contains(edge)) {
            continue;
        }
        touched.extend_from_slice(&fp);
        batch.push((v, w, w2));
    }
    batch
}

/// Replays `rounds` [`cut_batch`] rounds of `k` swaps on the forest `g`,
/// then their inverses in reverse order, through
/// [`apply_and_check_batch`]. Every barrier must walk no row (no entry
/// inside a component changes) and repair exactly `cut_rows` rows when
/// given.
fn replay_cut_palindrome<R: Rng>(
    rng: &mut R,
    g: &mut Graph,
    rounds: usize,
    k: usize,
    cut_rows: Option<usize>,
    family: &str,
) {
    let mut da = DynamicApsp::build(&g.to_csr());
    let mut barrier = |g: &mut Graph, moves: &[(V, V, V)], context: String| {
        apply_and_check_batch(&mut da, g, moves, &context);
        let stats = da.stats();
        assert_eq!(stats.last_rows_walked, 0, "a row walked ({context})");
        if let Some(rows) = cut_rows {
            assert_eq!(stats.last_rows_repaired, rows, "({context})");
        }
    };
    let mut forward = Vec::new();
    for round in 0..rounds {
        let moves = cut_batch(rng, g, k);
        assert_eq!(moves.len(), k, "{family} round {round} came up short");
        barrier(g, &moves, format!("{family} round {round}"));
        forward.push(moves);
    }
    for (round, moves) in forward.iter().enumerate().rev() {
        let inverse: Vec<_> = moves.iter().map(|&(v, w, w2)| (v, w2, w)).collect();
        barrier(g, &inverse, format!("{family} undo {round}"));
    }
}

#[test]
fn cut_batches_match_bfs() {
    let mut rng = StdRng::seed_from_u64(0xC07_BA7C);

    // (a) Palindromic replay on trees: every swap moves a bridge, so every
    // row loses whole components at every barrier while nothing inside
    // its own component changes — all n rows repair, none walks.
    for n in [64usize, 256] {
        let mut g = random_tree(&mut rng, n);
        let g0 = g.clone();
        replay_cut_palindrome(&mut rng, &mut g, 4, 16, Some(n), &format!("tree/{n}"));
        assert_eq!(g, g0, "tree/{n}: the palindrome must return to its start");
    }

    // (b) A forest start: its rows already hold unreachable entries, which
    // the stamp overwrites with the same sentinel and must not count as
    // changed. Cut rounds first, then rounds that cut and close cycles.
    let n = 96;
    let mut g = random_tree(&mut rng, n);
    for _ in 0..3 {
        let e = g.edge_vec()[rng.gen_range(0..g.m())];
        g.remove_edge(e.u, e.v);
    }
    replay_cut_palindrome(&mut rng, &mut g, 3, 12, None, "forest");
    let mut da = DynamicApsp::build(&g.to_csr());
    for round in 0..3 {
        let moves = synth_batch(&mut rng, &g, 12);
        apply_and_check_batch(&mut da, &mut g, &moves, &format!("forest synth {round}"));
    }

    // (c) Deletion-degenerate swaps (`w2` already adjacent) mixed with
    // proper ones, and one all-deletion batch, whose deletion phase walks
    // and labels the caller's CSR itself (nothing is inserted).
    for (family, g0) in [
        ("er", random_connected(&mut rng, 80, 40)),
        ("tree", random_tree(&mut rng, 80)),
    ] {
        let mut g = g0;
        let mut da = DynamicApsp::build(&g.to_csr());
        for round in 0..3 {
            let moves = mixed_batch(&mut rng, &g, 10, false);
            assert!(
                moves.len() >= 4,
                "{family} mixed {round}: {} swaps",
                moves.len()
            );
            apply_and_check_batch(&mut da, &mut g, &moves, &format!("{family} mixed {round}"));
        }
        let moves = mixed_batch(&mut rng, &g, 6, true);
        assert!(
            moves.len() >= 2,
            "{family} deletions: {} swaps",
            moves.len()
        );
        let m = g.m();
        apply_and_check_batch(&mut da, &mut g, &moves, &format!("{family} deletions"));
        assert_eq!(
            g.m(),
            m - moves.len(),
            "{family}: every swap must delete only"
        );
    }
}

/// Picks a random swap `(v, w, w2)` of the forest `g` that leaves a
/// forest: about one in six is deletion-degenerate (`w2` another neighbor
/// of `v`, so the record is `SwapApplied::Deleted`), the rest move `vw`
/// to a `w2` off `v`'s side of `G − vw` — on `w`'s side, or in another
/// component, which the swap joins to `v`'s.
fn forest_swap<R: Rng>(rng: &mut R, g: &Graph) -> (V, V, V) {
    let edges = g.edge_vec();
    let e = edges[rng.gen_range(0..edges.len())];
    let (v, w) = if rng.gen_bool(0.5) {
        (e.u, e.v)
    } else {
        (e.v, e.u)
    };
    let others: Vec<V> = g.neighbors(v).iter().copied().filter(|&x| x != w).collect();
    if !others.is_empty() && rng.gen_range(0..6u32) == 0 {
        return (v, w, others[rng.gen_range(0..others.len())]);
    }
    let mut off = vec![true; g.n()];
    for x in far_side(g, w, v) {
        off[x as usize] = false; // v's side of G − vw
    }
    off[w as usize] = false;
    let free: Vec<V> = (0..g.n() as V).filter(|&x| off[x as usize]).collect();
    if free.is_empty() {
        return (v, w, w); // a no-op: only `w` itself is off v's side
    }
    (v, w, free[rng.gen_range(0..free.len())])
}

#[test]
fn forest_swaps_walk_no_row() {
    // Single swaps on trees and forests through `apply_swap`: every
    // deletion on a forest cuts a component off, which each row stamps
    // unreachable instead of walking, so no swap walks a row — on top of
    // the BFS and counter checks of `apply_and_check_swap`.
    let mut rng = StdRng::seed_from_u64(0xF0_2E57);
    let mut total = 0usize;
    for n in [64usize, 256] {
        for cuts in [0usize, 5] {
            let mut g = random_tree(&mut rng, n);
            for _ in 0..cuts {
                let e = g.edge_vec()[rng.gen_range(0..g.m())];
                g.remove_edge(e.u, e.v);
            }
            let mut da = DynamicApsp::build(&g.to_csr());
            for step in 0..60 {
                let context = format!("n = {n}, {cuts} cuts, step {step}");
                let (_, count) = connected_components(&g);
                assert_eq!(g.m() + count, g.n(), "not a forest ({context})");
                let mv = forest_swap(&mut rng, &g);
                apply_and_check_swap(&mut da, &mut g, mv, &context);
                if mv.1 != mv.2 {
                    assert_eq!(da.stats().last_rows_walked, 0, "a row walked ({context})");
                    total += 1;
                }
            }
        }
    }
    assert!(total >= 200, "only {total} forest swaps verified");
}

#[test]
fn five_hundred_plus_swaps_match_bfs() {
    // Deterministic volume floor: ≥ 500 verified swaps (matrix and exact
    // stage-A count) across ER graphs and trees.
    let mut rng = StdRng::seed_from_u64(0x57AA7);
    let mut total = 0usize;
    for round in 0..2 {
        let er = gnp(&mut rng, 26, 0.13);
        total += replay_and_check(er.clone(), 0xA0 + round, 90);
        total += replay_and_check(er, 0xB0 + round, 40);
        let t = random_tree(&mut rng, 21);
        total += replay_and_check(t.clone(), 0xC0 + round, 90);
        total += replay_and_check(t, 0xD0 + round, 40);
    }
    assert!(
        total >= 500,
        "volume floor not met: only {total} steps verified"
    );
}

#[test]
fn batch_repairs_match_bfs() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let mut total = 0usize;
    for round in 0..2 {
        let er = gnp(&mut rng, 30, 0.12);
        total += replay_batches_and_check(er.clone(), 0x10 + round, 8, 5);
        total += replay_batches_and_check(er, 0x20 + round, 4, 5);
        let t = random_tree(&mut rng, 24);
        total += replay_batches_and_check(t.clone(), 0x30 + round, 8, 4);
        total += replay_batches_and_check(t, 0x40 + round, 4, 4);
    }
    assert!(total >= 150, "batch volume floor not met: {total} swaps");
}

#[test]
fn wide_batch_repairs_match_bfs() {
    // Rounds as wide as a cold start's first barriers: k = n/2 swaps, then
    // one hub round that moves at least n/4 edges onto a single vertex.
    let mut rng = StdRng::seed_from_u64(0x01DE_BA7C);
    for n in [48usize, 128] {
        let starts = [
            ("er", random_connected(&mut rng, n, n / 4)),
            ("tree", random_tree(&mut rng, n)),
        ];
        for (family, g0) in starts {
            let mut g = g0;
            let mut da = DynamicApsp::build(&g.to_csr());
            for round in 0..3 {
                let moves = synth_batch(&mut rng, &g, n / 2);
                assert!(
                    moves.len() >= n / 4,
                    "{family}/{n} round {round}: only {} swaps",
                    moves.len()
                );
                apply_and_check_batch(
                    &mut da,
                    &mut g,
                    &moves,
                    &format!("{family}/{n} round {round}"),
                );
            }
            let h = rng.gen_range(0..n as V);
            let moves = hub_batch(&mut rng, &g, h, n / 2);
            assert!(
                moves.len() >= n / 4,
                "{family}/{n} hub round: only {} swaps onto {h}",
                moves.len()
            );
            apply_and_check_batch(&mut da, &mut g, &moves, &format!("{family}/{n} hub round"));
            let moves = synth_batch(&mut rng, &g, n / 2);
            apply_and_check_batch(&mut da, &mut g, &moves, &format!("{family}/{n} after hub"));
        }
    }
}

#[test]
fn thousand_plus_random_swap_steps_stay_byte_identical() {
    // Deterministic volume floor: ≥ 1000 verified steps across ER graphs
    // and trees.
    let mut rng = StdRng::seed_from_u64(0xD15C0);
    let mut total = 0usize;
    for round in 0..3 {
        let er = gnp(&mut rng, 28, 0.12);
        total += replay_and_check(er, 0xE0 + round, 180);
        let t = random_tree(&mut rng, 22);
        total += replay_and_check(t, 0x70 + round, 180);
    }
    assert!(
        total >= 1000,
        "volume floor not met: only {total} steps verified"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn er_swap_sequences_match_rebuild(
        g in er_graph(40),
        seed in any::<u64>(),
    ) {
        replay_and_check(g, seed, 12);
    }

    #[test]
    fn tree_swap_sequences_match_rebuild(
        t in tree(32),
        seed in any::<u64>(),
    ) {
        replay_and_check(t, seed, 12);
    }

    #[test]
    fn er_batch_repairs_match_bfs(
        g in er_graph(36),
        seed in any::<u64>(),
    ) {
        replay_batches_and_check(g, seed, 4, 4);
    }

    #[test]
    fn tree_batch_repairs_match_bfs(
        t in tree(30),
        seed in any::<u64>(),
    ) {
        replay_batches_and_check(t, seed, 4, 4);
    }

    #[test]
    fn maintained_context_matches_fresh_context_on_er_graphs(
        g in er_graph(28),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = g;
        let mut ctx = EvalContext::new(&g);
        ctx.base(); // force the matrix so every move exercises the repair
        for _ in 0..8 {
            let Some((v, w, w2)) = random_swap(&mut rng, &g) else { break };
            let rec = g.apply_swap(v, w, w2);
            ctx.refresh_after(&g, &rec);
            assert_context_paths_agree::<SumObjective>(&ctx, &g);
            assert_context_paths_agree::<MaxObjective>(&ctx, &g);
        }
    }

    #[test]
    fn maintained_context_matches_fresh_context_on_trees(
        t in tree(24),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = t;
        let mut ctx = EvalContext::new(&g);
        ctx.base();
        for _ in 0..8 {
            let Some((v, w, w2)) = random_swap(&mut rng, &g) else { break };
            let rec = g.apply_swap(v, w, w2);
            ctx.refresh_after(&g, &rec);
            assert_context_paths_agree::<SumObjective>(&ctx, &g);
            assert_context_paths_agree::<MaxObjective>(&ctx, &g);
        }
    }
}
