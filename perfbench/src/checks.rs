//! Output checks that share no code with the engines under test.

use std::collections::VecDeque;

use bncg_dynamics::engine::Outcome;
use bncg_graph::{graph6, Graph};

use crate::report::Digest;

/// Social usage cost — the sum of distances over all ordered pairs — by
/// plain BFS from every vertex; `None` when the graph is disconnected.
pub fn bfs_social_cost(g: &Graph) -> Option<u64> {
    let n = g.n();
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::with_capacity(n);
    let mut total = 0u64;
    for s in 0..n {
        dist.fill(u32::MAX);
        dist[s] = 0;
        queue.push_back(s as u32);
        let mut reached = 1usize;
        while let Some(x) = queue.pop_front() {
            let dx = dist[x as usize];
            total += u64::from(dx);
            for &y in g.neighbors(x) {
                if dist[y as usize] == u32::MAX {
                    dist[y as usize] = dx + 1;
                    reached += 1;
                    queue.push_back(y);
                }
            }
        }
        if reached < n {
            return None;
        }
    }
    Some(total)
}

/// Stable label of an outcome.
fn outcome_label(o: Outcome) -> &'static str {
    match o {
        Outcome::Converged => "converged",
        Outcome::Cycled => "cycled",
        Outcome::Capped => "capped",
    }
}

/// What one operation produced, as far as the digest is concerned.
#[derive(Debug, Clone)]
pub struct OpOutput {
    /// The network the operation left behind.
    pub graph: Graph,
    /// How the session or run ended.
    pub outcome: Outcome,
    /// Rounds it took.
    pub rounds: usize,
    /// Moves it applied.
    pub applied: usize,
}

impl OpOutput {
    /// Folds this output into `d`: the final graph's graph6, the outcome,
    /// the round count and the moves applied.
    pub fn fold(&self, d: &mut Digest) {
        d.text(&graph6::encode(&self.graph));
        d.text(outcome_label(self.outcome));
        d.num(self.rounds as u64);
        d.num(self.applied as u64);
    }
}
