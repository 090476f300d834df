//! Seeded inputs. The program under test sees only what these return:
//! start graphs, perturbation swaps and palindromic round streams.

use bncg_core::swap::SwapMove;
use bncg_graph::{Graph, V};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Digest;

/// An RNG for input stream `what`, item `index`, derived from the run seed,
/// so any input can be regenerated without replaying the ones before it.
pub fn rng(seed: u64, what: &str, index: u64) -> StdRng {
    let mut d = Digest::default();
    d.num(seed);
    d.text(what);
    d.num(index);
    StdRng::seed_from_u64(d.value())
}

/// Vertices reachable from `w` without crossing the edge `vw`.
fn far_side(g: &Graph, v: V, w: V) -> Vec<V> {
    let mut seen = vec![false; g.n()];
    seen[v as usize] = true;
    seen[w as usize] = true;
    let mut stack = vec![w];
    let mut side = vec![w];
    while let Some(x) = stack.pop() {
        for &y in g.neighbors(x) {
            if !seen[y as usize] {
                seen[y as usize] = true;
                side.push(y);
                stack.push(y);
            }
        }
    }
    side
}

/// Draws before a generator gives up: far more than any start graph of
/// the benchmark needs, so reaching it means the input is degenerate.
const MAX_DRAWS: usize = 1_000_000;

/// A proper swap that keeps the component it acts in connected: agent `v`
/// drops `vw` and reattaches to a vertex on `w`'s side of that edge.
/// Vertices in `busy` are never touched. On a tree this is the only kind
/// of swap that leaves a tree.
pub fn connected_swap(g: &Graph, rng: &mut StdRng, busy: &[bool]) -> SwapMove {
    let edges = g.edge_vec();
    for _ in 0..MAX_DRAWS {
        let e = edges[rng.gen_range(0..edges.len())];
        let (v, w) = if rng.gen_bool(0.5) {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        };
        if busy[v as usize] || busy[w as usize] {
            continue;
        }
        let side: Vec<V> = far_side(g, v, w)
            .into_iter()
            .filter(|&x| x != w && !busy[x as usize] && !g.has_edge(v, x))
            .collect();
        if side.is_empty() {
            continue;
        }
        let w2 = side[rng.gen_range(0..side.len())];
        return SwapMove { v, w, w2 };
    }
    panic!("no connectivity-keeping swap found");
}

/// A proper swap to a uniformly random non-neighbour (may disconnect).
pub fn random_swap(g: &Graph, rng: &mut StdRng, busy: &[bool]) -> SwapMove {
    let edges = g.edge_vec();
    for _ in 0..MAX_DRAWS {
        let e = edges[rng.gen_range(0..edges.len())];
        let (v, w) = if rng.gen_bool(0.5) {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        };
        let w2 = rng.gen_range(0..g.n()) as V;
        if w2 == v || w2 == w || g.has_edge(v, w2) {
            continue;
        }
        if [v, w, w2].iter().any(|&x| busy[x as usize]) {
            continue;
        }
        return SwapMove { v, w, w2 };
    }
    panic!("no proper swap found");
}

/// `k` proper connectivity-keeping swaps, each valid after the ones
/// before it — the perturbation injected ahead of a settle session.
pub fn perturbation(g: &Graph, rng: &mut StdRng, k: usize) -> Vec<SwapMove> {
    let mut h = g.clone();
    let free = vec![false; g.n()];
    (0..k)
        .map(|_| {
            let mv = connected_swap(&h, rng, &free);
            mv.apply(&mut h);
            mv
        })
        .collect()
}

/// A palindromic stream: `half` rounds of `width` vertex-disjoint proper
/// swaps, then the inverse of each round in reverse order, so replaying it
/// returns the network to `g`. Tree starts stay trees throughout.
pub fn palindrome(
    g: &Graph,
    rng: &mut StdRng,
    half: usize,
    width: usize,
    keep_connected: bool,
) -> Vec<Vec<SwapMove>> {
    let mut h = g.clone();
    let mut forward: Vec<Vec<SwapMove>> = Vec::with_capacity(half);
    for _ in 0..half {
        let mut busy = vec![false; g.n()];
        let mut round = Vec::with_capacity(width);
        for _ in 0..width {
            let mv = if keep_connected {
                connected_swap(&h, rng, &busy)
            } else {
                random_swap(&h, rng, &busy)
            };
            for x in [mv.v, mv.w, mv.w2] {
                busy[x as usize] = true;
            }
            mv.apply(&mut h);
            round.push(mv);
        }
        forward.push(round);
    }
    let backward: Vec<Vec<SwapMove>> = forward
        .iter()
        .rev()
        .map(|round| {
            round
                .iter()
                .rev()
                .map(|m| SwapMove {
                    v: m.v,
                    w: m.w2,
                    w2: m.w,
                })
                .collect()
        })
        .collect();
    forward.extend(backward);
    forward
}
