//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-conv|train-lm|plan-sim|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --spec
//! ```
//!
//! `--trace 0` measures the workload with tracing off and prints the
//! end-to-end metrics; `--trace 1` runs the per-layer probes (the
//! runtime's spans switched on for training) and prints the per-layer
//! metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; progress goes to
//! standard error. The exit code is 1 when any correctness check failed
//! (the result line is still printed) and 2 on bad arguments.
//!
//! `--spec` prints the catalogue `BENCHMARK.json` is generated from.

mod plansim;
mod report;
mod serve;
mod train;

use report::{Metrics, Tally};
use std::process::ExitCode;

/// The workloads, each with the reason it is in the benchmark.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "train-conv",
        "conv miniature on a 2-stage 1F1B pipeline with weight stashing: tensor kernels do the \
         work and weight snapshots are cheap, so kernel changes show and stash changes do not",
    ),
    (
        "train-lm",
        "13 MiB LM-shaped model on the same pipeline: weight snapshots and optimizer steps take a \
         large share of each stage, the paper's weight-heavy regime where stashing costs show",
    ),
    (
        "plan-sim",
        "planner calls over the zoo, clusters A-C, 1-4 servers and three modes, each plan \
         simulated: single-threaded core, model and sim work with no tensor or runtime",
    ),
    (
        "serve-mix",
        "planning daemon under 2 closed-loop clients: warm cache hits beside cold never-seen \
         keys that run the planner, insert and evict, plus a few simulate calls",
    ),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untraced and traced training runs each in the training probe.
const PROBE_RUNS: usize = 4;
/// Planner calls per mode in the core probe (p99 needs 1 000).
const PROBE_PLAN_CALLS: usize = 1_000;
/// Serve-mix window of the serve probe on the other workloads, seconds.
const PROBE_SERVE_S: f64 = 2.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn untraced(a: &Args) -> (Metrics, Tally) {
    let (mut m, mut tally) = match a.workload {
        "train-conv" => train::run(train::Kind::Conv, a.seed, a.seconds, SETUPS),
        "train-lm" => train::run(train::Kind::Lm, a.seed, a.seconds, SETUPS),
        "plan-sim" => plansim::run(a.seed, a.seconds, SETUPS),
        _ => serve::run(a.seed, a.seconds, SETUPS),
    };
    let rss = peak_rss_mib();
    tally.check(rss.is_some(), || "peak RSS unreadable".into());
    m.set("peak_rss_mib", rss.unwrap_or(f64::NAN));
    (m, tally)
}

/// Where the traced run writes its training spans (Chrome trace format).
const TRACE_DIR: &str = "perfbench/traces";

/// Every traced run reports every layer: the workload's own task where it
/// has one, the reference inputs (the conv task, the fixed planner sweep,
/// a short serve mix) for layers it does not drive. The spans stay in
/// memory until the run ends, then go to `TRACE_DIR`.
fn traced(a: &Args) -> (Metrics, Tally) {
    let kind = if a.workload == "train-lm" {
        train::Kind::Lm
    } else {
        train::Kind::Conv
    };
    let serve_s = if a.workload == "serve-mix" {
        a.seconds
    } else {
        PROBE_SERVE_S
    };
    let (mut m, mut tally, spans) = train::probe(&train::Task::build(kind, a.seed), PROBE_RUNS);
    for (pm, pt) in [
        plansim::probe(a.seed, PROBE_PLAN_CALLS),
        serve::probe(a.seed, serve_s),
    ] {
        m.extend(pm);
        tally.merge(pt);
    }
    let path = format!("{TRACE_DIR}/{}.json", a.workload);
    match std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, pipedream_obs::render_chrome_trace(&spans)))
    {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    (m, tally)
}

/// The catalogue as `BENCHMARK.json`.
fn spec_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = report::END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!(
                "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\", \"bound\": {bound}}}",
                b.as_str()
            )
        })
        .collect();
    let layers: Vec<String> = report::per_layer()
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                s.name,
                s.unit,
                s.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Seconds one run measures.
const RUN_SECONDS: u32 = 20;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--spec") {
        print!("{}", spec_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|(w, _)| w).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (metrics, mut tally, specs) = if args.trace {
        let (m, t) = traced(&args);
        (m, t, report::per_layer())
    } else {
        let (m, t) = untraced(&args);
        (m, t, report::end_to_end())
    };
    let line = report::render(&specs, &metrics, &mut tally);
    for p in &tally.problems {
        eprintln!("FAILED: {p}");
    }
    eprintln!(
        "{}: {} ops attempted, {} failed (op_fail_ratio {})",
        args.workload,
        tally.attempted,
        tally.failed,
        tally.fail_ratio()
    );
    println!("{line}");
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            spec_json(),
            "regenerate BENCHMARK.json with --spec"
        );
        let v: serde_json::Value = serde_json::from_str(committed).expect("valid JSON");
        let keys: Vec<&String> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for (w, why) in WORKLOADS {
            assert!(
                report::valid_name(w) && why.len() <= 200 && !why.contains('\n'),
                "{w}"
            );
        }
        let bounds: Vec<f64> = report::END_TO_END.iter().map(|e| e.3).collect();
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        let setup = report::END_TO_END
            .iter()
            .find(|e| e.0 == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.1, setup.2), ("s", report::Better::Lower));
        assert!(
            bounds.iter().all(|&b| b <= setup.3),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv(
            "--workload plan-sim --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("plan-sim", 7, 2.5, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload plan-sim --seed x --seconds 1 --trace 0",
            "--workload plan-sim --seed 1 --seconds 0 --trace 0",
            "--workload plan-sim --seed 1 --seconds 1 --trace 2",
            "--workload plan-sim --seed 1 --seconds 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
