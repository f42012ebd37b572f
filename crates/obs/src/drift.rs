//! Drift and straggler detection: compares the [`LiveProfiler`]'s
//! measured per-stage times against the planner's [`StagePrediction`]s
//! and flags when reality diverges from the plan — a stage running far
//! over its predicted compute, the measured bottleneck moving away from
//! the planned one, or one replica lagging its gradient-sync partners.
//!
//! Detection is hysteretic: a stage must exceed the *trip* ratio for
//! several consecutive samples to be flagged, and must fall below the
//! lower *clear* ratio for several consecutive samples to be unflagged.
//! Borderline stages that hover around a single threshold therefore
//! don't flap between states sample to sample.
//!
//! [`LiveProfiler`]: crate::live::LiveProfiler

use crate::critical_path::{sweep, wall_ns};
use crate::live::LiveSnapshot;
use crate::recorder::TraceSnapshot;
use pipedream_core::StagePrediction;
use serde::{Deserialize, Serialize};

/// Detector thresholds. The defaults trip on a 1.5× slowdown sustained
/// for 2 samples and clear below 1.2× sustained for 2 samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// measured/predicted ratio at or above which a stage counts toward
    /// being flagged as a straggler.
    pub trip_ratio: f64,
    /// Ratio at or below which a flagged stage counts toward clearing.
    /// Must be below `trip_ratio`; the gap is the hysteresis band.
    pub clear_ratio: f64,
    /// Consecutive tripping samples required to flag.
    pub trip_count: u32,
    /// Consecutive clearing samples required to unflag.
    pub clear_count: u32,
    /// A replica is lagging when its per-minibatch compute exceeds its
    /// stage's median by this factor.
    pub replica_lag_ratio: f64,
    /// Ignore stages with fewer completed minibatches than this in the
    /// detector's lifetime (warm-up guard).
    pub min_minibatches: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            trip_ratio: 1.5,
            clear_ratio: 1.2,
            trip_count: 2,
            clear_count: 2,
            replica_lag_ratio: 1.5,
            min_minibatches: 1,
        }
    }
}

/// Measured-vs-planned state of one stage at one detector observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageDrift {
    /// Pipeline stage index.
    pub stage: usize,
    /// EWMA measured per-minibatch compute (seconds).
    pub measured_s: f64,
    /// Planner-predicted per-minibatch compute (seconds).
    pub predicted_s: f64,
    /// `measured / predicted` (0 when the prediction is 0).
    pub ratio: f64,
    /// Whether the hysteretic detector currently flags this stage.
    pub straggling: bool,
}

/// One replica running behind its gradient-sync partners.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaLag {
    /// Stage the replica belongs to.
    pub stage: usize,
    /// Track name (`stageN.replicaM`).
    pub track: String,
    /// This replica's mean per-minibatch compute (seconds).
    pub per_mb_s: f64,
    /// Median per-minibatch compute across the stage's replicas.
    pub stage_median_s: f64,
    /// `per_mb_s / stage_median_s`.
    pub ratio: f64,
}

/// Output of one detector observation. Serializable so drift reports can
/// be saved as CI artifacts and round-tripped through JSON.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// Session-relative sample time (seconds).
    pub t_s: f64,
    /// Per-stage measured-vs-planned comparison.
    pub stages: Vec<StageDrift>,
    /// Stage the planner predicted to be the bottleneck (argmax
    /// `effective_s`).
    pub planned_bottleneck: usize,
    /// Stage that is currently the measured bottleneck (argmax EWMA),
    /// `None` before any minibatch completes.
    pub measured_bottleneck: Option<usize>,
    /// True when the measured bottleneck differs from the planned one
    /// *and* the measured stage is materially slower than the planned
    /// bottleneck's measured time.
    pub bottleneck_shifted: bool,
    /// Replicas lagging their stage median beyond the configured ratio.
    pub replica_lags: Vec<ReplicaLag>,
}

impl DriftReport {
    /// Any straggler flagged, bottleneck shifted, or replica lagging.
    pub fn any_drift(&self) -> bool {
        self.bottleneck_shifted
            || !self.replica_lags.is_empty()
            || self.stages.iter().any(|s| s.straggling)
    }

    /// Stages currently flagged as stragglers.
    pub fn stragglers(&self) -> Vec<usize> {
        self.stages
            .iter()
            .filter(|s| s.straggling)
            .map(|s| s.stage)
            .collect()
    }
}

/// Per-stage hysteresis state.
#[derive(Default, Clone, Copy)]
struct Hysteresis {
    flagged: bool,
    above: u32,
    below: u32,
    minibatches_seen: u64,
}

/// Compares live samples against planner predictions with hysteretic
/// per-stage flagging.
pub struct DriftDetector {
    predictions: Vec<StagePrediction>,
    config: DriftConfig,
    state: Vec<Hysteresis>,
}

impl DriftDetector {
    /// Detector against the planner's per-stage predictions (from
    /// `Planner::predicted_stage_times`).
    pub fn new(predictions: Vec<StagePrediction>) -> Self {
        let n = predictions.len();
        DriftDetector {
            predictions,
            config: DriftConfig::default(),
            state: vec![Hysteresis::default(); n],
        }
    }

    /// Override the thresholds.
    pub fn with_config(mut self, config: DriftConfig) -> Self {
        self.config = config;
        self
    }

    /// The predictions this detector was built against.
    pub fn predictions(&self) -> &[StagePrediction] {
        &self.predictions
    }

    /// Fold one live sample into the hysteresis state and report.
    pub fn observe(&mut self, live: &LiveSnapshot) -> DriftReport {
        self.observe_with_tracks(live, None)
    }

    /// [`DriftDetector::observe`], additionally scanning a raw snapshot
    /// for replicas lagging their gradient-sync partners.
    pub fn observe_with_tracks(
        &mut self,
        live: &LiveSnapshot,
        snap: Option<&TraceSnapshot>,
    ) -> DriftReport {
        let cfg = self.config;
        let mut stages = Vec::with_capacity(self.predictions.len());
        for pred in &self.predictions {
            let measured = live
                .stages
                .get(pred.stage)
                .map(|s| s.ewma_compute_per_mb_s)
                .unwrap_or(0.0);
            let window_mbs = live
                .stages
                .get(pred.stage)
                .map(|s| s.minibatches)
                .unwrap_or(0);
            if self.state.len() <= pred.stage {
                self.state.resize(pred.stage + 1, Hysteresis::default());
            }
            let st = &mut self.state[pred.stage];
            st.minibatches_seen += window_mbs;
            let ratio = if pred.compute_s > 0.0 {
                measured / pred.compute_s
            } else {
                0.0
            };
            let warmed = st.minibatches_seen >= cfg.min_minibatches && measured > 0.0;
            if warmed {
                if ratio >= cfg.trip_ratio {
                    st.above += 1;
                    st.below = 0;
                } else if ratio <= cfg.clear_ratio {
                    st.below += 1;
                    st.above = 0;
                } else {
                    // Inside the hysteresis band: hold state, reset both
                    // streaks so borderline noise can't accumulate.
                    st.above = 0;
                    st.below = 0;
                }
                if !st.flagged && st.above >= cfg.trip_count {
                    st.flagged = true;
                }
                if st.flagged && st.below >= cfg.clear_count {
                    st.flagged = false;
                }
            }
            stages.push(StageDrift {
                stage: pred.stage,
                measured_s: measured,
                predicted_s: pred.compute_s,
                ratio,
                straggling: st.flagged,
            });
        }

        let planned_bottleneck = self
            .predictions
            .iter()
            .max_by(|a, b| a.effective_s.partial_cmp(&b.effective_s).unwrap())
            .map(|p| p.stage)
            .unwrap_or(0);
        let measured_bottleneck = live.bottleneck_stage();
        let bottleneck_shifted = match measured_bottleneck {
            Some(m) if m != planned_bottleneck => {
                let m_s = live.stages[m].ewma_compute_per_mb_s;
                let p_s = live
                    .stages
                    .get(planned_bottleneck)
                    .map(|s| s.ewma_compute_per_mb_s)
                    .unwrap_or(0.0);
                // The shift is real only when the new bottleneck clears
                // the planned one by the clear ratio — argmax alone would
                // flap between near-equal stages.
                p_s == 0.0 || m_s >= p_s * cfg.clear_ratio
            }
            _ => false,
        };

        DriftReport {
            t_s: live.t_s,
            stages,
            planned_bottleneck,
            measured_bottleneck,
            bottleneck_shifted,
            replica_lags: snap
                .map(|s| detect_replica_lag(s, cfg.replica_lag_ratio))
                .unwrap_or_default(),
        }
    }
}

/// Scan a snapshot for replicas whose mean per-minibatch compute (the
/// attribution sweep's per-minibatch samples, so gradient-sync waits do
/// not count) exceeds their stage's median by `ratio`. Only stages with
/// more than one replica track can lag (a lone replica has no partners).
pub fn detect_replica_lag(snap: &TraceSnapshot, ratio: f64) -> Vec<ReplicaLag> {
    // Per track: (stage, compute sum, minibatches).
    let mut sums: Vec<(usize, f64, u64)> = vec![(0, 0.0, 0); snap.tracks.len()];
    for (ti, stage, c) in sweep(snap, 0, wall_ns(snap)).samples {
        let s = &mut sums[ti];
        *s = (stage, s.1 + c, s.2 + 1);
    }
    // (stage, track name, per-mb compute)
    let per_track: Vec<(usize, &str, f64)> = snap
        .tracks
        .iter()
        .zip(sums)
        .filter(|(_, s)| s.2 > 0)
        .map(|(t, (stage, c, mbs))| (stage, t.name.as_str(), c / mbs as f64))
        .collect();
    let mut out = Vec::new();
    let max_stage = per_track.iter().map(|t| t.0).max().unwrap_or(0);
    for stage in 0..=max_stage {
        let mut times: Vec<f64> = per_track
            .iter()
            .filter(|t| t.0 == stage)
            .map(|t| t.2)
            .collect();
        if times.len() < 2 {
            continue;
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = times[times.len() / 2];
        if median <= 0.0 {
            continue;
        }
        for (s, name, t) in per_track.iter().filter(|t| t.0 == stage) {
            if *t >= median * ratio {
                out.push(ReplicaLag {
                    stage: *s,
                    track: (*name).to_string(),
                    per_mb_s: *t,
                    stage_median_s: median,
                    ratio: *t / median,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, SpanKind};
    use crate::live::StageWindowStats;
    use crate::recorder::TrackEvents;

    fn pred(stage: usize, compute_s: f64) -> StagePrediction {
        StagePrediction {
            stage,
            compute_s,
            sync_s: 0.0,
            effective_s: compute_s,
        }
    }

    /// Live sample where stage `i` measures `measured[i]` seconds/mb.
    fn live(measured: &[f64]) -> LiveSnapshot {
        LiveSnapshot {
            t_s: 1.0,
            window_s: 1.0,
            stages: measured
                .iter()
                .enumerate()
                .map(|(stage, &m)| StageWindowStats {
                    stage,
                    tracks: 1,
                    minibatches: 4,
                    compute_per_mb_s: m,
                    ewma_compute_per_mb_s: m,
                    ..StageWindowStats::default()
                })
                .collect(),
            window_minibatches: 4,
            minibatches_total: 4,
            throughput_mb_per_s: 4.0,
            events_dropped: 0,
        }
    }

    #[test]
    fn straggler_flags_after_consecutive_trips() {
        let mut det = DriftDetector::new(vec![pred(0, 10e-3), pred(1, 10e-3)]);
        // First sample at 2× predicted: tripping but not yet flagged.
        let r1 = det.observe(&live(&[10e-3, 20e-3]));
        assert!(!r1.stages[1].straggling, "one sample must not flag");
        // Second consecutive sample: flagged.
        let r2 = det.observe(&live(&[10e-3, 20e-3]));
        assert!(r2.stages[1].straggling);
        assert!(!r2.stages[0].straggling);
        assert_eq!(r2.stragglers(), vec![1]);
        assert!(r2.any_drift());
    }

    #[test]
    fn hysteresis_does_not_flap_on_borderline_stage() {
        // trip at 1.5×, clear at 1.2×: a stage oscillating at 1.3–1.4×
        // (inside the band) never flags; once flagged at 2×, hovering at
        // 1.3–1.4× never clears.
        let mut det = DriftDetector::new(vec![pred(0, 10e-3)]);
        for _ in 0..10 {
            let r = det.observe(&live(&[13e-3]));
            assert!(!r.stages[0].straggling, "band must not flag");
            let r = det.observe(&live(&[14e-3]));
            assert!(!r.stages[0].straggling, "band must not flag");
        }
        // Drive it over the trip threshold for two samples.
        det.observe(&live(&[20e-3]));
        let r = det.observe(&live(&[20e-3]));
        assert!(r.stages[0].straggling);
        // Borderline again: stays flagged (no flapping on the way down).
        for _ in 0..10 {
            let r = det.observe(&live(&[13e-3]));
            assert!(r.stages[0].straggling, "band must not clear");
        }
        // Clear requires consecutive samples at/below the clear ratio.
        det.observe(&live(&[11e-3]));
        let r = det.observe(&live(&[11e-3]));
        assert!(!r.stages[0].straggling, "two clear samples unflag");
    }

    #[test]
    fn single_spike_between_clear_samples_resets_the_streak() {
        let mut det = DriftDetector::new(vec![pred(0, 10e-3)]);
        det.observe(&live(&[20e-3]));
        det.observe(&live(&[20e-3]));
        // clear, spike, clear — the interleaved trip sample resets the
        // clear streak, so the stage stays flagged…
        det.observe(&live(&[11e-3]));
        det.observe(&live(&[20e-3]));
        let r = det.observe(&live(&[11e-3]));
        assert!(r.stages[0].straggling);
        // …until two consecutive clears arrive.
        let r = det.observe(&live(&[11e-3]));
        assert!(!r.stages[0].straggling);
    }

    #[test]
    fn bottleneck_shift_requires_margin() {
        // Planned bottleneck is stage 1 (12 ms vs 10 ms).
        let mut det = DriftDetector::new(vec![pred(0, 10e-3), pred(1, 12e-3)]);
        // Stage 0 measured barely above stage 1: argmax moved but within
        // the margin — not reported as a shift.
        let r = det.observe(&live(&[12.5e-3, 12e-3]));
        assert_eq!(r.measured_bottleneck, Some(0));
        assert!(!r.bottleneck_shifted, "within-margin argmax move flapped");
        // Stage 0 now clearly dominates: reported.
        let r = det.observe(&live(&[20e-3, 12e-3]));
        assert!(r.bottleneck_shifted);
        assert_eq!(r.planned_bottleneck, 1);
    }

    #[test]
    fn warmup_guard_suppresses_empty_stages() {
        let mut det = DriftDetector::new(vec![pred(0, 10e-3)]).with_config(DriftConfig {
            min_minibatches: 8,
            ..DriftConfig::default()
        });
        // 4 mbs per sample: first sample is under the warm-up floor.
        let mut l = live(&[30e-3]);
        l.stages[0].minibatches = 4;
        det.observe(&l);
        det.observe(&l);
        let r = det.observe(&l);
        // Flagging begins only after warm-up: samples 2 and 3 trip.
        assert!(r.stages[0].straggling);
    }

    #[test]
    fn replica_lag_flags_the_slow_partner() {
        let ms = 1_000_000u64;
        let track = |name: &str, bwd_ms: u64| TrackEvents {
            name: name.into(),
            stage: Some(0),
            events: vec![
                Event::span(SpanKind::Bwd { mb: 0 }, 0, bwd_ms * ms),
                Event::span(SpanKind::Bwd { mb: 1 }, 10 * ms, (10 + bwd_ms) * ms),
            ],
            dropped: 0,
        };
        let snap = TraceSnapshot {
            tracks: vec![
                track("stage0.replica0", 4),
                track("stage0.replica1", 4),
                track("stage0.replica2", 9),
            ],
        };
        let lags = detect_replica_lag(&snap, 1.5);
        assert_eq!(lags.len(), 1);
        assert_eq!(lags[0].track, "stage0.replica2");
        assert!((lags[0].ratio - 9.0 / 4.0).abs() < 1e-9);
        // A lone replica can't lag.
        let solo = TraceSnapshot {
            tracks: vec![track("stage0.replica0", 9)],
        };
        assert!(detect_replica_lag(&solo, 1.5).is_empty());
    }

    #[test]
    fn drift_report_round_trips_through_json() {
        let mut det = DriftDetector::new(vec![pred(0, 10e-3), pred(1, 10e-3)]);
        det.observe(&live(&[10e-3, 20e-3]));
        let report = det.observe(&live(&[10e-3, 20e-3]));
        let json = serde_json::to_string(&report).unwrap();
        let back: DriftReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.stages[1].straggling);
    }
}
