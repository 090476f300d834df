//! Dynamics lab: watch selfish agents sculpt a network.
//!
//! ```text
//! cargo run --release --example dynamics_lab [n] [extra_edges] [seed] [--metrics FILE]
//! ```
//!
//! Runs sum- and max-swap dynamics from the same random connected graph,
//! tracing the diameter and social quantities round by round, then
//! reports the equilibrium structure both objectives settle into. With
//! `--metrics FILE`, additionally replays the start under the
//! round-based engine and streams one JSON Lines `RoundRecord` per round
//! (proposal funnel, social-cost delta, per-phase repair timings — see
//! ARCHITECTURE.md § Observability for the schema).

use bncg::dynamics::engine::{DynamicsConfig, Response, Schedule};
use bncg::dynamics::rounds::{RoundConfig, RoundDynamics};
use bncg::game::context::EvalContext;
use bncg::game::objective::{MaxObjective, SumObjective};
use bncg::game::rules::GameRules;
use bncg::game::{MaxGame, SumGame};
use bncg::graph::{DistanceMatrix, Graph, V};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trace_dynamics<R: GameRules + Default>(label: &str, start: &Graph) -> Graph {
    println!("--- {label} dynamics ---");
    println!(
        "{:>6} {:>9} {:>10} {:>12} {:>9}",
        "round", "moves", "diameter", "total dist", "max ecc"
    );
    let mut g = start.clone();
    let mut ctx = EvalContext::new(&g);
    let mut round = 0usize;
    loop {
        round += 1;
        let mut moves = 0usize;
        for v in 0..g.n() as V {
            if let Some(s) = R::default().best_response(&ctx, v) {
                s.mv.apply(&mut g);
                ctx.refresh(&g);
                moves += 1;
            }
        }
        let dm = ctx.base();
        println!(
            "{:>6} {:>9} {:>10} {:>12} {:>9}",
            round,
            moves,
            dm.diameter().map_or(-1i64, i64::from),
            dm.total_distance().map_or(-1i64, |t| t as i64),
            dm.eccentricities()
                .map_or(-1i64, |e| i64::from(*e.iter().max().unwrap()))
        );
        if moves == 0 || round > 100 {
            break;
        }
    }
    g
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    let extra: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    let seed: u64 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2024);

    let mut rng = StdRng::seed_from_u64(seed);
    let start = bncg::graph::generators::random::random_connected(&mut rng, n, extra);
    let dm0 = DistanceMatrix::build(&start.to_csr());
    println!(
        "start: n = {n}, m = {}, diameter = {:?}\n",
        start.m(),
        dm0.diameter()
    );

    let sum_final = trace_dynamics::<SumObjective>("sum", &start);
    let sum_report = SumGame::analyze(&sum_final);
    println!(
        "sum endpoint:  equilibrium = {}, diameter = {:?}, degree sequence head = {:?}\n",
        sum_report.is_equilibrium(),
        sum_report.diameter(),
        &sum_final.degree_sequence()[..4.min(n)]
    );

    let max_final = trace_dynamics::<MaxObjective>("max", &start);
    let max_report = MaxGame::analyze(&max_final);
    println!(
        "max endpoint:  swap-stable = {}, deletion-critical = {:?}, diameter = {:?}",
        max_report.swap_stable,
        max_report.deletion_critical,
        max_report.diameter()
    );

    // The engine-level API does the same thing with scheduling options:
    let config = DynamicsConfig {
        schedule: Schedule::RandomPermutation,
        response: Response::FirstImproving,
        ..DynamicsConfig::default()
    };
    let engine = bncg::dynamics::SwapDynamics::<SumObjective>::new(config);
    let result = engine.run(&start, &mut rng);
    println!(
        "\nengine (random schedule, first-improving): outcome {:?} after {} moves",
        result.outcome, result.moves
    );

    // Streaming pipeline: `--metrics FILE` re-runs the start under the
    // round-based engine with a JSONL sink attached.
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1))
    {
        let file = std::fs::File::create(path).expect("create metrics file");
        let mut sink = bncg::dynamics::JsonlSink::new(std::io::BufWriter::new(file));
        let engine = RoundDynamics::<SumObjective>::new(RoundConfig {
            max_rounds: 100,
            ..RoundConfig::default()
        });
        let result = engine.run_with_sink(&start, &mut sink);
        if let Some(e) = sink.error() {
            // The run itself is fine — but the JSONL artifact is not, and
            // a silent partial file poisons downstream analysis. Be loud.
            eprintln!("metrics write to {path} failed: {e}");
            std::process::exit(1);
        }
        let lines = std::fs::read_to_string(path).expect("read metrics back");
        assert_eq!(lines.lines().count(), result.rounds, "one record per round");
        println!(
            "\nround metrics: {} JSONL records written to {path} (outcome {:?})",
            result.rounds, result.outcome
        );
    }
}
