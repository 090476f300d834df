//! `bncg` — experiment driver for the *Basic Network Creation Games*
//! reproduction.
//!
//! Each subcommand regenerates one experiment from `DESIGN.md`'s index
//! (E1–E13), printing a markdown report whose tables back `EXPERIMENTS.md`.
//!
//! ```text
//! bncg list                     # show all experiments
//! bncg e6                       # run one experiment
//! bncg all                      # run everything (the EXPERIMENTS.md refresh)
//! bncg quick                    # run everything at reduced scale
//! bncg e13 --metrics rounds.jsonl   # also stream per-round records (JSONL)
//! bncg e13 --journal run.wal        # crash-safe journaled service run
//! bncg e13 --resume run.wal         # resume a killed journaled run
//! bncg e13 --game budget:3          # play a variant rule set (budget/interest/2nb)
//! ```

mod experiments;
mod md;

use std::time::Instant;

use experiments::RunOpts;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("list");
    let quick = args.iter().any(|a| a == "--quick") || command == "quick";
    let path_flag = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| match args.get(i + 1) {
                Some(path) if !path.starts_with("--") => std::path::PathBuf::from(path),
                _ => {
                    eprintln!("{flag} requires a file path argument");
                    std::process::exit(2);
                }
            })
    };
    let metrics = path_flag("--metrics");
    let journal = path_flag("--journal");
    let resume = path_flag("--resume");
    let audit_every = args
        .iter()
        .position(|a| a == "--audit-every")
        .map_or(0, |i| match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(k) => k,
            None => {
                eprintln!("--audit-every requires a round count argument");
                std::process::exit(2);
            }
        });
    let game =
        args.iter()
            .position(|a| a == "--game")
            .map_or(experiments::GameChoice::Basic, |i| {
                match args
                    .get(i + 1)
                    .and_then(|v| experiments::GameChoice::parse(v))
                {
                    Some(g) => g,
                    None => {
                        eprintln!("--game requires one of: basic, budget[:cap], interest[:k], 2nb");
                        std::process::exit(2);
                    }
                }
            });
    let opts = RunOpts {
        quick,
        metrics,
        journal,
        resume,
        audit_every,
        game,
    };
    type Runner = fn(&RunOpts) -> String;
    let all: Vec<(&str, Runner)> = vec![
        ("e1", experiments::e01_tree_census::run),
        ("e2", experiments::e02_max_trees::run),
        ("e3", experiments::e03_fig3::run),
        ("e4", experiments::e04_sum_diameter::run),
        ("e5", experiments::e05_insertion_gain::run),
        ("e6", experiments::e06_torus::run),
        ("e7", experiments::e07_multidim::run),
        ("e8", experiments::e08_spread::run),
        ("e9", experiments::e09_uniformity::run),
        ("e10", experiments::e10_spider::run),
        ("e11", experiments::e11_cayley::run),
        ("e12", experiments::e12_alpha::run),
        ("e13", experiments::e13_convergence::run),
    ];
    match command {
        "list" => {
            println!("available experiments:");
            for (name, _) in &all {
                println!("  {name}  — {}", experiments::description(name));
            }
            println!("  all | quick — run every experiment (quick = reduced scale)");
            println!("  dump [dir]  — export the construction catalog as edge lists + graph6");
            println!("  --metrics <path> — stream per-round JSONL records (consumed by e13)");
            println!("  --journal <path> — crash-safe journal for e13's service run");
            println!("  --resume <path> — resume a killed journaled e13 service run");
            println!(
                "  --audit-every <k> — audit/self-heal the maintained matrix every k rounds (e13)"
            );
            println!(
                "  --game <g> — rule set for e13's streaming/service runs: \
                 basic | budget[:cap] | interest[:k] | 2nb"
            );
        }
        "dump" => {
            let dir = args.get(1).cloned().unwrap_or_else(|| "artifacts".into());
            std::fs::create_dir_all(&dir).expect("create artifact directory");
            for entry in bncg_constructions::catalog::default_catalog() {
                let path = format!("{dir}/{}.edges", entry.name);
                let mut text = format!(
                    "# {}\n# graph6: {}\n",
                    entry.provenance,
                    bncg_graph::graph6::encode(&entry.graph)
                );
                text.push_str(&bncg_graph::io::to_edge_list(&entry.graph));
                std::fs::write(&path, text).expect("write artifact");
                println!("wrote {path}");
            }
        }
        "all" | "quick" => {
            for (name, f) in &all {
                let t = Instant::now();
                let report = f(&opts);
                println!("{report}");
                eprintln!("[{name} finished in {:.2?}]", t.elapsed());
            }
        }
        name => match all.iter().find(|(n, _)| *n == name) {
            Some((_, f)) => println!("{}", f(&opts)),
            None => {
                eprintln!("unknown experiment '{name}'; try `bncg list`");
                std::process::exit(2);
            }
        },
    }
    // A lost `--metrics` stream (full disk, bad path) was already warned
    // about by the runner; the tables above are complete, but scripted
    // consumers of the JSONL artifact need the failure to be loud.
    if experiments::metrics_failed() {
        eprintln!("error: --metrics stream incomplete (see warnings above)");
        std::process::exit(1);
    }
}
