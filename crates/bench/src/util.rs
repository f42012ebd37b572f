//! Shared helpers: table formatting, common simulation plumbing, and the
//! bench binaries' timing and argument helpers.

use pipedream_core::schedule::Schedule;
use pipedream_core::{PipelineConfig, Planner};
use pipedream_hw::Topology;
use pipedream_model::{LayerCosts, ModelProfile};
use pipedream_sim::{simulate_dp, simulate_pipeline, SimResult};
use std::fmt::Write as _;
use std::time::Instant;

/// Minimum of `iters` timed runs of `f` after one warm-up run, in
/// milliseconds. The minimum, not the mean, is the noise-robust estimator
/// for a microbenchmark on shared hardware.
pub fn time_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: populates the buffer pool and the branch predictor
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The command-line value following the flag `name`, if any.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Render rows as a fixed-width text table with a header.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (c, cell) in cells.iter().enumerate().take(cols) {
            let _ = write!(out, "{:<width$}  ", cell, width = widths[c]);
        }
        out.push('\n');
    };
    line(
        &mut out,
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * cols;
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Simulate steady-state pipeline throughput of `config` for `profile` on
/// `topo` (1F1B-RR, `n_mbs` minibatches).
pub fn pipeline_throughput(
    profile: &ModelProfile,
    topo: &Topology,
    config: &PipelineConfig,
    n_mbs: u64,
) -> SimResult {
    let costs = profile.costs(
        &topo.device,
        profile.default_batch,
        pipedream_hw::Precision::Fp32,
    );
    let schedule = Schedule::one_f_one_b(config, n_mbs);
    simulate_pipeline(&costs, topo, &schedule)
}

/// The configuration PipeDream's optimizer would deploy: run both the
/// hierarchical DP (§3.1) and the worker-granular flat DP, simulate each,
/// and keep the faster (the optimizer's final arbiter is predicted
/// throughput; simulation is our stand-in for its validation run).
pub fn best_plan(
    profile: &ModelProfile,
    topo: &Topology,
    n_mbs: u64,
) -> (PipelineConfig, SimResult) {
    let planner = Planner::new(profile, topo);
    let mut best: Option<(PipelineConfig, SimResult)> = None;
    for plan in [
        planner.try_plan().expect("hierarchical plan"),
        planner.try_plan_flat().expect("flat plan"),
    ] {
        let sim = pipeline_throughput(profile, topo, &plan.config, n_mbs);
        let better = match &best {
            None => true,
            Some((_, b)) => sim.samples_per_sec > b.samples_per_sec,
        };
        if better {
            best = Some((plan.config, sim));
        }
    }
    best.expect("two candidate plans")
}

/// Data-parallel samples/second over all workers of `topo`.
pub fn dp_throughput(costs: &LayerCosts, topo: &Topology) -> f64 {
    simulate_dp(costs, topo, topo.total_workers()).samples_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = format_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer-cell".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[3].starts_with("longer-cell"));
    }
}
