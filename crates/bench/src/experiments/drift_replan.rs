//! `drift-replan`: the live-telemetry feedback loop, end to end.
//!
//! The planner's partition is only as good as the profile it came from —
//! when a host degrades mid-run (thermal throttling, a noisy neighbor),
//! the measured stage times drift away from the plan and the pipeline
//! bottlenecks on the straggler. This experiment closes the loop:
//!
//! 1. profile → plan a balanced straight pipeline (as `trace-validate`);
//! 2. train it with a [`DelayStraggler`] injected into one stage, so
//!    every forward send from that stage stalls inside its `Fwd` span;
//! 3. a watcher thread drains [`LiveProfiler`] windows during the run and
//!    feeds each snapshot to a [`DriftDetector`] armed with the planner's
//!    own [`StagePrediction`]s — the straggler must trip the hysteresis;
//! 4. the final measured stage times go back into the planner via
//!    [`advise_replan`], which must recommend a partition whose simulated
//!    throughput beats the degraded pipeline's.
//!
//! [`run_applied`] closes the loop for real: the same setup (under a
//! heavier straggler — see `APPLIED_DELAY`) is handed to
//! [`train_with_autopilot`], which detects the straggler live,
//! drains to a consistent checkpoint, repartitions onto the advisor's
//! recommended plan, resumes mid-epoch, and commits (or rolls back) after
//! a measured probation window — no human in the loop.
//!
//! [`StagePrediction`]: pipedream_core::StagePrediction

use crate::util::format_table;
use pipedream_autopilot::{train_with_autopilot, AutopilotOpts};
use pipedream_core::{PipelineConfig, Planner};
use pipedream_ft::DelayStraggler;
use pipedream_hw::{Device, LinkModel, Precision, Topology};
use pipedream_model::{profile_sequential, LayerCosts};
use pipedream_obs::{
    advise_replan, DriftConfig, DriftDetector, DriftReport, LiveProfiler, ReplanAdvice,
    TraceSession,
};
use pipedream_runtime::report::ReconfigReport;
use pipedream_runtime::trainer::try_train_pipeline;
use pipedream_runtime::{LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Tanh};
use pipedream_tensor::{Sequential, Tensor};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const STAGES: usize = 4;
const BATCH: usize = 32;
const WIDTH: usize = 256;
/// Stage slowed down by the injected straggler (must not be the last
/// stage — the delay rides on forward *sends*).
const STRAGGLER_STAGE: usize = 1;
/// Injected per-minibatch stall. Stage compute at this scale is tens of
/// microseconds, so 2 ms is an unambiguous >1.5× drift signal.
const DELAY: Duration = Duration::from_millis(2);
/// Watcher sampling period; detection latency is measured in these. The
/// injected delay alone makes the run last ≥ `minibatches × DELAY`, so a
/// 50 ms period guarantees several in-run windows before training ends.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

fn model(seed: u64) -> Sequential {
    let mut r = rng(seed);
    let mut m = Sequential::new("drift-replan-mlp").push(Linear::new(16, WIDTH, &mut r));
    for _ in 0..(STAGES * 2 - 3) {
        m.push_boxed(Box::new(Tanh::new()));
        let lin = Linear::new(WIDTH, WIDTH, &mut r);
        m.push_boxed(Box::new(lin));
    }
    m.push_boxed(Box::new(Linear::new(WIDTH, 4, &mut r)));
    m
}

/// Everything the experiment measured and decided.
#[derive(Debug, Clone)]
pub struct DriftReplan {
    /// Stage the straggler was injected into.
    pub straggler_stage: usize,
    /// Injected per-send delay, milliseconds.
    pub injected_delay_ms: f64,
    /// Live samples taken before the detector first flagged the stage
    /// (None if it never fired — the acceptance gate).
    pub detected_after_samples: Option<usize>,
    /// The final drift report (measured vs planned, hysteresis state).
    pub report: DriftReport,
    /// The advisor's verdict from the final measured stage times.
    pub advice: ReplanAdvice,
    /// Live throughput of the degraded run, samples/second.
    pub degraded_samples_per_sec: f64,
    /// Wall time of the degraded training run, seconds.
    pub wall_time_s: f64,
}

/// Healthy profile → balanced straight plan: the shared starting point of
/// both the advisory ([`run`]) and applied ([`run_applied`]) experiments.
fn healthy_plan() -> (Topology, LayerCosts, PipelineConfig) {
    let topo = Topology::flat(
        Device::v100(),
        STAGES,
        LinkModel::new(1e14, 0.0),
        "local-threads",
    );
    let mut prof_model = model(5);
    let profile = profile_sequential(
        &mut prof_model,
        &Tensor::zeros(&[BATCH, 16]),
        1,
        3,
        &topo.device,
    );
    let costs = profile.costs(&topo.device, BATCH, Precision::Fp32);
    let planner = Planner::from_costs(costs.clone(), &topo);
    let boundaries = planner
        .balanced_boundaries(STAGES)
        .expect("model splits into stages");
    let config = PipelineConfig::straight(profile.num_layers(), &boundaries);
    (topo, costs, config)
}

/// Run the experiment: plan healthy, train degraded, detect, re-plan.
pub fn run(epochs: usize) -> DriftReplan {
    // Per-stage predictions are the detector's reference: what the planner
    // *thinks* each stage costs.
    let (topo, costs, config) = healthy_plan();
    let planner = Planner::from_costs(costs.clone(), &topo);
    let predictions = planner
        .try_predicted_stage_times(&config)
        .expect("stage predictions");

    // Degraded run: the straggler stalls every forward send from one
    // stage, inside the worker's Fwd span, while a watcher thread samples
    // the live profiler and feeds the drift detector.
    // 1024 samples → 32 minibatches/epoch: long enough (with the injected
    // 2 ms/mb stall) for the watcher to take several in-run windows.
    let data = blobs(1024, 16, 4, 0.7, 11);
    let session = TraceSession::new();
    let opts = TrainOpts {
        epochs,
        batch: BATCH,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        obs: Some(session.clone()),
        ..TrainOpts::default()
    };
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let session = session.clone();
        let stop = stop.clone();
        let predictions = predictions.clone();
        std::thread::spawn(move || {
            let mut profiler = LiveProfiler::new(session.clone());
            let mut detector = DriftDetector::new(predictions);
            let mut detected_after = None;
            let mut samples = 0usize;
            let last = loop {
                let done = stop.load(Ordering::Relaxed);
                let live = profiler.sample();
                let snap = session.snapshot();
                let report = detector.observe_with_tracks(&live, Some(&snap));
                samples += 1;
                if detected_after.is_none() && report.any_drift() {
                    detected_after = Some(samples);
                }
                // One final sample after training stops drains the tail of
                // the rings before the loop exits.
                if done {
                    break (report, live);
                }
                std::thread::sleep(SAMPLE_EVERY);
            };
            (detected_after, last)
        })
    };
    let hook = Arc::new(DelayStraggler::new(STRAGGLER_STAGE, DELAY));
    let (_, report) = try_train_pipeline(model(5), &config, &data, &opts, Some(hook.clone()))
        .expect("degraded training run failed");
    stop.store(true, Ordering::Relaxed);
    let (detected_after_samples, (drift, live)) = watcher.join().expect("watcher thread");
    assert!(hook.times_fired() > 0, "straggler never fired");

    // Feed measured reality back into the planner.
    let advice = advise_replan(&costs, &topo, &config, &live.measured_stage_s(), 48);
    // Whole-run average (the final sample's own window may be empty once
    // training has stopped).
    let degraded_samples_per_sec = if live.t_s > 0.0 {
        live.minibatches_total as f64 / live.t_s * BATCH as f64
    } else {
        0.0
    };

    DriftReplan {
        straggler_stage: STRAGGLER_STAGE,
        injected_delay_ms: DELAY.as_secs_f64() * 1e3,
        detected_after_samples,
        report: drift,
        advice,
        degraded_samples_per_sec,
        wall_time_s: report.wall_time_s,
    }
}

impl DriftReplan {
    /// CSV: per-stage measured/predicted/ratio/flag rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("stage,measured_s,predicted_s,ratio,straggling\n");
        for s in &self.report.stages {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.3},{}\n",
                s.stage, s.measured_s, s.predicted_s, s.ratio, s.straggling
            ));
        }
        out
    }

    /// The final [`DriftReport`] as JSON (saved as `drift-report.json`).
    pub fn drift_report_json(&self) -> String {
        serde_json::to_string_pretty(&self.report).expect("drift report serializes")
    }

    /// The [`ReplanAdvice`] as JSON (saved as `recommended-plan.json`).
    pub fn recommended_plan_json(&self) -> String {
        serde_json::to_string_pretty(&self.advice).expect("advice serializes")
    }
}

impl fmt::Display for DriftReplan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Injected a {:.0} ms/send delay straggler into stage {} of a {}-stage pipeline:\n",
            self.injected_delay_ms,
            self.straggler_stage,
            self.report.stages.len()
        )?;
        let header = [
            "stage",
            "measured (ms/mb)",
            "planned (ms/mb)",
            "ratio",
            "drifting",
        ];
        let rows: Vec<Vec<String>> = self
            .report
            .stages
            .iter()
            .map(|s| {
                vec![
                    s.stage.to_string(),
                    format!("{:.3}", s.measured_s * 1e3),
                    format!("{:.3}", s.predicted_s * 1e3),
                    format!("{:.2}x", s.ratio),
                    if s.straggling { "YES" } else { "-" }.to_string(),
                ]
            })
            .collect();
        f.write_str(&format_table(&header, &rows))?;
        match self.detected_after_samples {
            Some(n) => writeln!(
                f,
                "\ndetected after {n} live sample(s) ({:.0} ms sampling period)",
                SAMPLE_EVERY.as_secs_f64() * 1e3
            )?,
            None => writeln!(f, "\nNOT DETECTED — drift never tripped the hysteresis")?,
        }
        if self.report.bottleneck_shifted {
            writeln!(
                f,
                "bottleneck shifted: planned stage {} -> measured stage {}",
                self.report.planned_bottleneck,
                self.report
                    .measured_bottleneck
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "?".into())
            )?;
        }
        writeln!(
            f,
            "\nreplan advisor: {} -> {}{}",
            self.advice.current_label,
            self.advice.recommended_label,
            if self.advice.changed {
                ""
            } else {
                " (no change recommended)"
            }
        )?;
        writeln!(
            f,
            "  bottleneck {:.3} ms -> {:.3} ms under measured costs",
            self.advice.current_bottleneck_s * 1e3,
            self.advice.recommended_bottleneck_s * 1e3
        )?;
        writeln!(
            f,
            "  simulated throughput {:.0} -> {:.0} samples/s ({:.2}x); degraded run measured {:.0} samples/s",
            self.advice.current_sim_samples_per_sec,
            self.advice.recommended_sim_samples_per_sec,
            self.advice.sim_speedup,
            self.degraded_samples_per_sec
        )?;
        writeln!(f, "  (run wall time {:.2}s)", self.wall_time_s)
    }
}

/// What the closed-loop run did: the autopilot's reconfiguration record
/// plus the whole-run outcome it was stitched into.
#[derive(Debug, Clone)]
pub struct AppliedReplan {
    /// Stage the straggler was injected into.
    pub straggler_stage: usize,
    /// Injected per-send delay, milliseconds.
    pub injected_delay_ms: f64,
    /// The autopilot's reconfiguration record: plans, fingerprints,
    /// downtime, redone work, probation throughputs, verdict.
    pub reconfig: ReconfigReport,
    /// Wall time of the whole self-optimizing run, seconds (includes the
    /// drain, checkpoint, repartition, and probation).
    pub wall_time_s: f64,
    /// Final training loss — the run must still converge normally.
    pub final_loss: f32,
    /// Total minibatches trained across all segments (each exactly once).
    pub minibatches: usize,
}

/// Straggler injected into the *applied* run. Heavier than the advisory
/// run's [`DELAY`]: the advisor's replacement plan trades the straggling
/// stage for data-parallel allreduce overhead, and in a release build the
/// healthy compute is fast enough that a 2 ms stall alone doesn't leave
/// the new plan a measured win — probation would (correctly) roll the
/// switch back. 20 ms/minibatch caps the degraded pipeline at ~50 mb/s
/// under any build profile, so the committed verdict is profile- and
/// machine-independent.
const APPLIED_DELAY: Duration = Duration::from_millis(20);

/// Close the loop for real: train the degraded pipeline under
/// [`train_with_autopilot`] and let it detect, drain, repartition,
/// resume, and judge the new plan — no human in the loop.
pub fn run_applied(epochs: usize) -> AppliedReplan {
    let (topo, costs, config) = healthy_plan();
    let data = blobs(1024, 16, 4, 0.7, 11);
    let ckpt = std::env::temp_dir().join(format!("pd-drift-replan-applied-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let opts = TrainOpts {
        epochs,
        batch: BATCH,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: Some(ckpt.clone()),
        ..TrainOpts::default()
    };
    let auto = AutopilotOpts {
        drift: DriftConfig {
            min_minibatches: 1,
            ..DriftConfig::default()
        },
        sample_every: SAMPLE_EVERY,
        probation_windows: 2,
        probation_margin: 0.05,
        ..AutopilotOpts::default()
    };
    let hook = Arc::new(DelayStraggler::new(STRAGGLER_STAGE, APPLIED_DELAY));
    let (_, report) = train_with_autopilot(
        &model(5),
        &config,
        &data,
        &opts,
        &costs,
        &topo,
        &auto,
        Some(hook.clone()),
    )
    .expect("applied autopilot run failed");
    let _ = std::fs::remove_dir_all(&ckpt);
    assert!(hook.times_fired() > 0, "straggler never fired");
    let reconfig = report
        .reconfig
        .first()
        .cloned()
        .expect("autopilot never attempted a reconfiguration");
    AppliedReplan {
        straggler_stage: STRAGGLER_STAGE,
        injected_delay_ms: APPLIED_DELAY.as_secs_f64() * 1e3,
        reconfig,
        wall_time_s: report.wall_time_s,
        final_loss: report.final_loss(),
        minibatches: report.per_minibatch.len(),
    }
}

impl AppliedReplan {
    /// The [`ReconfigReport`] as JSON (saved as `reconfig-report.json`).
    pub fn reconfig_report_json(&self) -> String {
        serde_json::to_string_pretty(&self.reconfig).expect("reconfig report serializes")
    }
}

impl fmt::Display for AppliedReplan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.reconfig;
        writeln!(
            f,
            "Applied (closed-loop) run: {:.0} ms/send straggler in stage {}, autopilot on:\n",
            self.injected_delay_ms, self.straggler_stage
        )?;
        writeln!(
            f,
            "  plan {} ({:016x}) -> {} ({:016x})",
            r.old_label, r.old_plan_fingerprint, r.new_label, r.new_plan_fingerprint
        )?;
        writeln!(
            f,
            "  drained to checkpoint at epoch {}{}",
            r.drained_epoch,
            r.drained_mb
                .map(|mb| format!(", minibatch {mb}"))
                .unwrap_or_else(|| " boundary".into())
        )?;
        writeln!(
            f,
            "  downtime {:.0} ms, {} minibatch(es) redone",
            r.downtime_ms, r.minibatches_redone
        )?;
        writeln!(
            f,
            "  measured throughput {:.0} -> {:.0} samples/s ({:.0} during the switch)",
            r.throughput_before, r.throughput_after, r.throughput_during
        )?;
        writeln!(
            f,
            "  probation verdict: {} (margin {:.0}%)",
            r.verdict,
            r.probation_margin * 100.0
        )?;
        writeln!(
            f,
            "  run finished: {} minibatches, final loss {:.4}, wall time {:.2}s",
            self.minibatches, self.final_loss, self.wall_time_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE's acceptance gate: straggler detected live, advisor
    /// recommends a strictly better partition, report JSON round-trips.
    #[test]
    fn straggler_is_detected_and_replan_beats_degraded_run() {
        let r = run(2);
        assert!(
            r.detected_after_samples.is_some(),
            "straggler never detected:\n{r}"
        );
        assert!(
            r.report.stragglers().contains(&STRAGGLER_STAGE),
            "wrong stage flagged: {:?}",
            r.report.stragglers()
        );
        assert!(r.advice.changed, "advisor recommended no change:\n{r}");
        assert!(
            r.advice.sim_speedup > 1.0,
            "recommended plan not faster in simulation: {:.3}",
            r.advice.sim_speedup
        );
        assert!(
            r.advice.recommended_sim_samples_per_sec > r.degraded_samples_per_sec,
            "recommended plan ({:.0} samples/s) does not beat the degraded run ({:.0} samples/s)",
            r.advice.recommended_sim_samples_per_sec,
            r.degraded_samples_per_sec
        );
        // The saved artifact round-trips to the same report.
        let back: DriftReport = serde_json::from_str(&r.drift_report_json()).unwrap();
        assert_eq!(back, r.report);
        // And the rendering names the verdicts.
        let text = r.to_string();
        assert!(text.contains("detected after"), "{text}");
        assert!(text.contains("replan advisor"), "{text}");
    }

    /// The tentpole's end-to-end gate: the straggler is detected live, a
    /// repartition is applied with no human in the loop, and measured
    /// throughput recovers (probation commits the new plan).
    #[test]
    fn applied_replan_commits_and_throughput_recovers() {
        let r = run_applied(2);
        let rec = &r.reconfig;
        assert_eq!(
            rec.verdict,
            pipedream_runtime::report::ReconfigVerdict::Committed,
            "{rec:?}"
        );
        assert_ne!(
            rec.old_plan_fingerprint, rec.new_plan_fingerprint,
            "advisor applied the same plan it was fleeing: {rec:?}"
        );
        assert!(
            rec.throughput_after > rec.throughput_before,
            "throughput did not recover: {rec:?}"
        );
        assert_eq!(rec.minibatches_redone, 0, "a clean drain redoes nothing");
        // Every minibatch of both epochs trained exactly once across the
        // stitched segments.
        assert_eq!(r.minibatches, 64);
        assert!(r.final_loss.is_finite());
        // The saved artifact round-trips to the same record.
        let back: ReconfigReport = serde_json::from_str(&r.reconfig_report_json()).unwrap();
        assert_eq!(back, *rec);
        let text = r.to_string();
        assert!(text.contains("probation verdict: Committed"), "{text}");
    }
}
