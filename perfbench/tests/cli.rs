//! The one command, end to end: it prints every catalogued metric of the
//! mode with its unit as the last line of standard output, and refuses
//! bad arguments without printing a result.

use serde_json::Value;
use std::process::{Command, Output};

fn repo_root() -> String {
    format!("{}/..", env!("CARGO_MANIFEST_DIR"))
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("perfbench runs")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn catalogue(list: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(format!("{}/BENCHMARK.json", repo_root())).expect("BENCHMARK.json");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one workload and check its result line against the catalogue.
fn check_result(workload: &str, trace: &str, list: &str) {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.5",
        "--trace",
        trace,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result
        .get("attempted")
        .and_then(Value::as_u64)
        .is_some_and(|n| n >= 1));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let want = catalogue(list);
    assert_eq!(metrics.len(), want.len(), "{workload}: {last}");
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{name} = {v}");
    }
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    for workload in ["plan-sim", "serve-mix", "train-conv"] {
        check_result(workload, "0", "end_to_end");
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    check_result("plan-sim", "1", "per_layer");
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "plan-sim", "--seed", "1", "--seconds", "1"][..],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
