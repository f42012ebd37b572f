//! `sim_bench` — machine-readable discrete-event-simulator benchmarks.
//!
//! Times `simulate_pipeline` end-to-end at pipeline depths of 8, 64 and
//! 512 stages: simulator events processed per second (every forward /
//! backward / sync / stall interval the run emits is one event) and
//! wall-clock cost per *simulated* minibatch. Writes the results as JSON
//! so CI can diff them per commit.
//!
//! ```text
//! sim_bench [OUT.json] [--assert-min-events-per-sec X]
//! ```
//!
//! CI's `analyze-smoke` job runs this with the gate set: a planner-scale
//! sweep replays thousands of candidate schedules through the simulator,
//! so a throughput regression here slows every `plan`/`analyze` flow.

use pipedream_bench::util::arg_value;
use pipedream_core::schedule::Schedule;
use pipedream_core::PipelineConfig;
use pipedream_hw::{Device, LinkModel, Precision, Topology};
use pipedream_model::zoo;
use pipedream_sim::simulate_pipeline;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct DepthResult {
    /// Pipeline depth (stages, one worker each).
    stages: usize,
    /// Minibatches simulated.
    minibatches: u64,
    /// Timeline intervals the run emitted (compute + comm + stalls).
    events: u64,
    /// Wall-clock for the whole simulation, milliseconds (min of runs).
    wall_ms: f64,
    /// Simulator events processed per second.
    events_per_sec: f64,
    /// Wall-clock microseconds per simulated minibatch.
    us_per_minibatch: f64,
}

#[derive(Serialize)]
struct SimBenchReport {
    depths: Vec<DepthResult>,
    /// Worst (lowest) events/sec across the sweep — what the CI gate checks.
    min_events_per_sec: f64,
}

fn bench_depth(stages: usize, minibatches: u64) -> DepthResult {
    // One layer per stage keeps the partition trivial so depth is the
    // only variable; costs are uniform and comm is cheap but nonzero.
    let costs =
        zoo::uniform(stages, 1e9, 10_000, 10_000).costs(&Device::v100(), 32, Precision::Fp32);
    let boundaries: Vec<usize> = (0..stages - 1).collect();
    let config = PipelineConfig::straight(stages, &boundaries);
    let topo = Topology::flat(Device::v100(), stages, LinkModel::new(1e11, 1e-6), "bench");
    let schedule = Schedule::one_f_one_b(&config, minibatches);

    // Min of 3 timed runs: noise-robust on shared CI hardware.
    let mut events = 0u64;
    let mut wall_ms = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let r = simulate_pipeline(&costs, &topo, &schedule);
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        events = (r
            .timeline
            .per_worker
            .iter()
            .map(|w| w.len() as u64)
            .sum::<u64>())
            + r.comm_timeline
                .per_worker
                .iter()
                .map(|w| w.len() as u64)
                .sum::<u64>();
        std::hint::black_box(&r);
        wall_ms = wall_ms.min(elapsed);
    }
    DepthResult {
        stages,
        minibatches,
        events,
        wall_ms,
        events_per_sec: events as f64 / (wall_ms / 1e3),
        us_per_minibatch: wall_ms * 1e3 / minibatches as f64,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "BENCH_sim.json".to_string());

    let depths: Vec<DepthResult> = [(8usize, 512u64), (64, 256), (512, 64)]
        .iter()
        .map(|&(stages, mbs)| bench_depth(stages, mbs))
        .collect();
    let min_events_per_sec = depths
        .iter()
        .map(|d| d.events_per_sec)
        .fold(f64::INFINITY, f64::min);
    let report = SimBenchReport {
        depths,
        min_events_per_sec,
    };

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    for d in &report.depths {
        eprintln!(
            "{:>4} stages x {:>4} mbs: {:>9} events in {:>8.2} ms -> {:>12.0} events/s, {:>8.1} us/mb",
            d.stages, d.minibatches, d.events, d.wall_ms, d.events_per_sec, d.us_per_minibatch
        );
    }
    eprintln!("wrote {out_path}");

    if let Some(min) =
        arg_value("--assert-min-events-per-sec").map(|v| v.parse::<f64>().expect("events/sec"))
    {
        if report.min_events_per_sec < min {
            eprintln!(
                "FAIL: {:.0} events/s < required {min:.0}",
                report.min_events_per_sec
            );
            std::process::exit(1);
        }
    }
}
