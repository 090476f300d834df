//! The swap-dynamics loop.
//!
//! Agents are activated under a [`Schedule`]; the activated agent applies
//! its best (or first) improving swap; the run ends when a full activation
//! round passes with no improving move (**converged**), a state repeats
//! (**cycled**, with the revisit period reported), or the round cap is hit
//! (**capped**). Every activation here is **sequential** — each agent sees
//! all earlier moves of its round; for the frozen-snapshot alternative
//! where a whole round is evaluated against the round-start state and
//! applied as one batch, see [`crate::rounds`].

use bncg_core::context::EvalContext;
use bncg_core::rules::GameRules;
use bncg_graph::{Graph, V};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::convergence::StateLog;
use crate::sink::{emit_record, MetricsSink, NullSink, SessionBook};

/// Agent activation order within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Schedule {
    /// Agents `0..n` in order, every round.
    RoundRobin,
    /// A fresh uniformly random permutation each round.
    RandomPermutation,
    /// Each round activates only the agent with the single largest
    /// improvement (slow, thorough; the "greedy global" baseline).
    GreedyGlobal,
}

/// Response rule for an activated agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Response {
    /// Apply the agent's best improving swap.
    Best,
    /// Apply the best swap on the first incident edge (CSR order) that
    /// has an improving one — the paper's minimal computationally-bounded
    /// agent, who weighs one edge at a time. Not the first improving
    /// candidate in scan order.
    FirstImproving,
}

/// Configuration of a dynamics run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DynamicsConfig {
    /// Activation order.
    pub schedule: Schedule,
    /// Response rule.
    pub response: Response,
    /// Hard cap on activation rounds.
    pub max_rounds: usize,
    /// Whether to track and stop on revisited states.
    pub detect_cycles: bool,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            schedule: Schedule::RoundRobin,
            response: Response::Best,
            max_rounds: 10_000,
            detect_cycles: true,
        }
    }
}

/// How a dynamics run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// A full round passed with no improving swap: swap equilibrium
    /// reached (for the configured objective).
    Converged,
    /// A previously visited state recurred.
    Cycled,
    /// The round cap was exhausted.
    Capped,
}

/// Result of a dynamics run.
#[derive(Debug, Clone)]
pub struct DynamicsResult {
    /// Final network.
    pub graph: Graph,
    /// Termination cause.
    pub outcome: Outcome,
    /// Rounds executed.
    pub rounds: usize,
    /// Total improving swaps applied.
    pub moves: usize,
    /// Revisit period when the run [`Cycled`](Outcome::Cycled) (number of
    /// recorded states between the two visits).
    pub cycle_period: Option<usize>,
}

/// The dynamics engine, generic over the game's rule set ([`GameRules`];
/// the two basic-game objectives implement it, so
/// `SwapDynamics<SumObjective>` keeps its pre-trait meaning).
pub struct SwapDynamics<R: GameRules> {
    config: DynamicsConfig,
    rules: R,
}

impl<R: GameRules> SwapDynamics<R> {
    /// Engine with the given configuration and the rule set's default
    /// value (the basic-game objectives and other stateless rule sets).
    pub fn new(config: DynamicsConfig) -> Self
    where
        R: Default,
    {
        Self::with_rules(config, R::default())
    }

    /// Engine with an explicit rule-set value (rule sets carrying
    /// per-agent state: budgets, interest sets).
    pub fn with_rules(config: DynamicsConfig, rules: R) -> Self {
        SwapDynamics { config, rules }
    }

    /// Runs the dynamics from `start` using `rng` for stochastic
    /// schedules.
    ///
    /// One [`EvalContext`] lives for the whole run: agents are scored
    /// against its pooled snapshot, and after each applied move the
    /// snapshot is refreshed in place through
    /// [`EvalContext::refresh_after`], so the cached base APSP (once any
    /// audit forces it) is *repaired* by the dynamic-distance subsystem
    /// rather than rebuilt per move. The greedy-global schedule scans all
    /// agents in parallel.
    pub fn run<G: Rng>(&self, start: &Graph, rng: &mut G) -> DynamicsResult {
        self.run_with_sink(start, rng, &mut NullSink)
    }

    /// [`run`](Self::run), additionally pushing one
    /// [`RoundRecord`](crate::sink::RoundRecord) per executed round into
    /// `sink` (see [`crate::sink`]). Sequential play has no conflict
    /// resolution, so each record reports `proposed == applied` and
    /// `conflicted == 0`. An active sink forces the base matrix (for the
    /// social-cost reading), which the plain `run` leaves lazy — use
    /// [`NullSink`] to keep the untraced behavior.
    pub fn run_with_sink<G: Rng>(
        &self,
        start: &Graph,
        rng: &mut G,
        sink: &mut dyn MetricsSink,
    ) -> DynamicsResult {
        let mut g = start.clone();
        let n = g.n();
        let mut ctx = EvalContext::new(&g);
        let mut log = StateLog::new();
        if self.config.detect_cycles {
            log.record(&g);
        }
        let mut moves = 0usize;
        let mut order: Vec<V> = (0..n as V).collect();
        let mut book = SessionBook::open(sink, &self.rules, &ctx, ctx.dynamic_stats_snapshot());
        for round in 0..self.config.max_rounds {
            let mut round_moves = 0usize;
            let mut cycled: Option<usize> = None;
            match self.config.schedule {
                Schedule::RoundRobin | Schedule::RandomPermutation => {
                    if self.config.schedule == Schedule::RandomPermutation {
                        order.shuffle(rng);
                    }
                    #[allow(clippy::needless_range_loop)]
                    // `order` must not stay borrowed across the mutation of `g`
                    for idx in 0..order.len() {
                        let v = order[idx];
                        let swap = match self.config.response {
                            Response::Best => self.rules.best_response(&ctx, v),
                            Response::FirstImproving => {
                                self.rules.first_improving_response(&ctx, v)
                            }
                        };
                        if let Some(s) = swap {
                            let rec = s.mv.apply(&mut g);
                            ctx.refresh_after(&g, &rec);
                            moves += 1;
                            round_moves += 1;
                            if self.config.detect_cycles {
                                if let Some(period) = log.record_period(&g) {
                                    cycled = Some(period);
                                    break;
                                }
                            }
                        }
                    }
                }
                Schedule::GreedyGlobal => {
                    let best = self
                        .rules
                        .best_responses_par(&ctx)
                        .into_iter()
                        .flatten()
                        .max_by_key(|s| s.improvement());
                    if let Some(s) = best {
                        let rec = s.mv.apply(&mut g);
                        ctx.refresh_after(&g, &rec);
                        moves += 1;
                        round_moves += 1;
                        if self.config.detect_cycles {
                            if let Some(period) = log.record_period(&g) {
                                cycled = Some(period);
                            }
                        }
                    }
                }
            }
            let ended = match cycled {
                Some(period) => Some((Outcome::Cycled, Some(period))),
                None if round_moves == 0 => Some((Outcome::Converged, None)),
                None => None,
            };
            emit_record(
                sink,
                &self.rules,
                &ctx,
                &mut book,
                round + 1,
                round_moves,
                round_moves,
                ended,
            );
            if let Some((outcome, cycle_period)) = ended {
                sink.finish();
                return DynamicsResult {
                    graph: g,
                    outcome,
                    rounds: round + 1,
                    moves,
                    cycle_period,
                };
            }
        }
        sink.finish();
        DynamicsResult {
            graph: g,
            outcome: Outcome::Capped,
            rounds: self.config.max_rounds,
            moves,
            cycle_period: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_core::equilibrium::{MaxGame, SumGame};
    use bncg_core::objective::{MaxObjective, SumObjective};
    use bncg_graph::generators::classic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn sum_dynamics_on_path_reaches_sum_equilibrium() {
        let engine = SwapDynamics::<SumObjective>::new(DynamicsConfig::default());
        let result = engine.run(&classic::path(10), &mut rng());
        assert_eq!(result.outcome, Outcome::Converged);
        assert!(SumGame::is_equilibrium(&result.graph));
        assert!(result.moves > 0);
        // Edge count is invariant under swaps.
        assert_eq!(result.graph.m(), 9);
    }

    #[test]
    fn tree_dynamics_preserve_connectivity_and_edges() {
        let engine = SwapDynamics::<SumObjective>::new(DynamicsConfig::default());
        for n in [5usize, 8, 12] {
            let result = engine.run(&classic::path(n), &mut rng());
            assert!(bncg_graph::components::is_connected(&result.graph));
            assert_eq!(result.graph.m(), n - 1);
        }
    }

    #[test]
    fn sum_dynamics_from_tree_ends_at_star_shape() {
        // Theorem 1: the only sum-equilibrium tree is the star, so tree
        // dynamics (which preserve tree-ness through improving swaps that
        // keep connectivity) must end at a star.
        let engine = SwapDynamics::<SumObjective>::new(DynamicsConfig::default());
        let result = engine.run(&classic::path(9), &mut rng());
        assert_eq!(result.outcome, Outcome::Converged);
        assert!(
            bncg_graph::properties::is_star(&result.graph),
            "tree sum dynamics must end at a star"
        );
    }

    #[test]
    fn max_dynamics_converges_to_max_swap_stability() {
        let engine = SwapDynamics::<MaxObjective>::new(DynamicsConfig::default());
        let result = engine.run(&classic::path(9), &mut rng());
        assert_eq!(result.outcome, Outcome::Converged);
        // Swap stability for max (deletion-criticality is a separate,
        // stronger requirement that trees satisfy automatically).
        assert!(MaxGame::find_improving_swap(&result.graph).is_none());
    }

    #[test]
    fn equilibrium_start_converges_immediately() {
        let engine = SwapDynamics::<SumObjective>::new(DynamicsConfig::default());
        let result = engine.run(&classic::star(12), &mut rng());
        assert_eq!(result.outcome, Outcome::Converged);
        assert_eq!(result.moves, 0);
        assert_eq!(result.rounds, 1);
    }

    #[test]
    fn schedules_all_reach_equilibrium_on_small_inputs() {
        for schedule in [
            Schedule::RoundRobin,
            Schedule::RandomPermutation,
            Schedule::GreedyGlobal,
        ] {
            let config = DynamicsConfig {
                schedule,
                ..DynamicsConfig::default()
            };
            let engine = SwapDynamics::<SumObjective>::new(config);
            let result = engine.run(&classic::cycle(8), &mut rng());
            assert_eq!(
                result.outcome,
                Outcome::Converged,
                "schedule {schedule:?} failed to converge"
            );
            assert!(SumGame::is_equilibrium(&result.graph));
        }
    }

    #[test]
    fn first_improving_response_also_converges() {
        let config = DynamicsConfig {
            response: Response::FirstImproving,
            ..DynamicsConfig::default()
        };
        let engine = SwapDynamics::<SumObjective>::new(config);
        let result = engine.run(&classic::path(8), &mut rng());
        assert_eq!(result.outcome, Outcome::Converged);
        assert!(SumGame::is_equilibrium(&result.graph));
    }
}
