//! Smoke tests of the benchmark: every workload at n ≤ 48 for one second,
//! untraced and traced. Run with `cargo test --manifest-path
//! perfbench/Cargo.toml` from the repository root.

use std::path::PathBuf;
use std::process::Command;

use bncg_telemetry::json::{parse, Json};

const WORKLOADS: [&str; 3] = ["settle", "converge", "replay"];

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// A finished smoke run: its digest line and its parsed result line.
struct Run {
    digest: String,
    result: Json,
}

fn smoke(test: &str, workload: &str, seed: u64, trace: bool) -> Run {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--smoke",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let digest = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("digest "))
        .next_back()
        .unwrap_or_else(|| panic!("{workload} printed no digest:\n{stdout}"))
        .to_string();
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).unwrap_or_else(|e| panic!("{workload} result line: {e:?}"));
    Run { digest, result }
}

fn assert_complete(run: &Run, workload: &str, section: &str) {
    let r = &run.result;
    assert_eq!(
        r.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: {r:?}"
    );
    assert_eq!(
        r.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{workload}"
    );
    let Some(Json::Obj(metrics)) = r.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let want = declared(section);
    assert_eq!(metrics.len(), want.len(), "{workload}: metric count");
    for (name, unit) in want {
        let m = r
            .get("metrics")
            .and_then(|ms| ms.get(&name))
            .unwrap_or_else(|| panic!("{workload}: missing {name}"));
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{workload}: {name} value"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric_with_no_failed_op() {
    for w in WORKLOADS {
        let run = smoke("untraced", w, 1, false);
        assert_complete(&run, w, "end_to_end");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_reproduce_the_digest() {
    for w in WORKLOADS {
        let traced = smoke("traced", w, 1, true);
        assert_complete(&traced, w, "per_layer");
        let untraced = smoke("traced-ref", w, 1, false);
        assert_eq!(traced.digest, untraced.digest, "{w}: traced digest");
    }
}

#[test]
fn the_seed_alone_decides_the_digest() {
    for w in WORKLOADS {
        let a = smoke("seed-a", w, 7, false);
        let b = smoke("seed-b", w, 7, false);
        let c = smoke("seed-c", w, 8, false);
        assert_eq!(a.digest, b.digest, "{w}: same seed, same digest");
        assert_ne!(a.digest, c.digest, "{w}: another seed, another digest");
    }
}
