//! Post-run trace analysis: the metrics fold, conversion to the
//! simulator's [`Timeline`] for ASCII/SVG rendering, and validation of a
//! measured run against planner-predicted stage times and simulated
//! steady-state throughput (the feedback loop the paper closes by
//! profiling before partitioning, §3.1). Per-stage numbers come from the
//! critical-path module's attribution sweep.

use crate::critical_path::{sweep, wall_ns};
use crate::event::SpanKind;
use crate::metrics::MetricsRegistry;
use crate::recorder::TraceSnapshot;
use pipedream_sim::{Timeline, WorkKind};
use serde::{Deserialize, Serialize};

/// Convert a measured snapshot into the simulator's [`Timeline`] so the
/// same `render_timeline` / `render_svg` code draws real runs. One lane
/// per track; stash/receive bookkeeping and instant events are omitted
/// (they nest inside or annotate the compute spans).
pub fn to_timeline(snap: &TraceSnapshot) -> Timeline {
    let mut tl = Timeline::new(snap.tracks.len());
    for (w, track) in snap.tracks.iter().enumerate() {
        for ev in &track.events {
            if ev.is_instant() {
                continue;
            }
            let kind = match ev.kind {
                SpanKind::Fwd { mb } => WorkKind::Forward(mb),
                SpanKind::Bwd { mb } => WorkKind::Backward(mb),
                SpanKind::GradSync => WorkKind::Sync,
                SpanKind::Checkpoint => WorkKind::Checkpoint,
                SpanKind::Stalled => WorkKind::Stall,
                _ => continue,
            };
            tl.record(w, ev.start_ns as f64 * 1e-9, ev.end_ns as f64 * 1e-9, kind);
        }
    }
    tl
}

/// Measured-vs-predicted comparison for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageValidation {
    /// Pipeline stage index.
    pub stage: usize,
    /// Measured per-minibatch compute time (receive waits excluded).
    pub measured_s: f64,
    /// Planner-predicted per-minibatch stage time.
    pub predicted_s: f64,
    /// `measured / predicted - 1`; positive means slower than planned.
    pub error_frac: f64,
}

/// Outcome of diffing a measured run against the planner's per-stage
/// predictions and the simulator's steady-state throughput.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceValidation {
    /// Per-stage measured vs predicted compute time.
    pub per_stage: Vec<StageValidation>,
    /// Measured steady-state seconds per minibatch (slope of the middle
    /// half of stage-0 backward completions).
    pub measured_per_minibatch_s: f64,
    /// Simulated steady-state seconds per minibatch.
    pub simulated_per_minibatch_s: f64,
    /// `measured / simulated - 1` for per-minibatch time; positive means
    /// the real pipeline is slower than the simulation.
    pub throughput_error_frac: f64,
    /// Measured samples/second at the given minibatch size.
    pub measured_samples_per_sec: f64,
    /// Simulated samples/second at the given minibatch size.
    pub simulated_samples_per_sec: f64,
}

/// Steady-state seconds per minibatch, measured as the slope of stage-0
/// backward completion times. The middle half of the completions is used
/// so warmup (pipeline fill) and drain don't skew the estimate.
pub fn measured_per_minibatch_s(snap: &TraceSnapshot) -> f64 {
    let mut ends: Vec<u64> = snap
        .tracks
        .iter()
        .filter(|t| t.stage == Some(0))
        .flat_map(|t| t.events.iter())
        .filter(|e| matches!(e.kind, SpanKind::Bwd { .. }))
        .map(|e| e.end_ns)
        .collect();
    ends.sort_unstable();
    let len = ends.len();
    if len < 2 {
        return 0.0;
    }
    let q = len / 4;
    let (lo, hi) = (q, len - 1 - q);
    if hi <= lo {
        return (ends[len - 1] - ends[0]) as f64 * 1e-9 / (len - 1) as f64;
    }
    (ends[hi] - ends[lo]) as f64 * 1e-9 / (hi - lo) as f64
}

/// Diff a measured snapshot against planner-predicted per-stage times and
/// the simulator's steady-state per-minibatch time. `minibatch_size` is
/// the number of samples per minibatch, used to express throughput in
/// samples/second.
pub fn validate(
    snap: &TraceSnapshot,
    predicted_stage_s: &[f64],
    simulated_per_minibatch_s: f64,
    minibatch_size: usize,
) -> TraceValidation {
    let per_stage = sweep(snap, 0, wall_ns(snap))
        .per_stage
        .iter()
        .map(|st| {
            let predicted = predicted_stage_s.get(st.stage).copied().unwrap_or(0.0);
            let measured = if st.minibatches == 0 {
                0.0
            } else {
                st.breakdown.rollup_s().0 / st.minibatches as f64
            };
            StageValidation {
                stage: st.stage,
                measured_s: measured,
                predicted_s: predicted,
                error_frac: if predicted > 0.0 {
                    measured / predicted - 1.0
                } else {
                    0.0
                },
            }
        })
        .collect();
    let measured_mb = measured_per_minibatch_s(snap);
    TraceValidation {
        per_stage,
        measured_per_minibatch_s: measured_mb,
        simulated_per_minibatch_s,
        throughput_error_frac: if simulated_per_minibatch_s > 0.0 {
            measured_mb / simulated_per_minibatch_s - 1.0
        } else {
            0.0
        },
        measured_samples_per_sec: if measured_mb > 0.0 {
            minibatch_size as f64 / measured_mb
        } else {
            0.0
        },
        simulated_samples_per_sec: if simulated_per_minibatch_s > 0.0 {
            minibatch_size as f64 / simulated_per_minibatch_s
        } else {
            0.0
        },
    }
}

/// Fold a snapshot into registry gauges/histograms: per-stage busy%,
/// comm% and bubble% (the busy/comm/bubble rollup of the whole-trace
/// cause attribution over `wall × tracks`, see
/// [`crate::CauseBreakdown`]), per-kind span duration histograms, and
/// the total events lost to the rings' drop-oldest policy.
///
/// Emits the labeled series only: `pipedream_stage_*{stage="N"}` gauges
/// and the `pipedream_span_seconds{kind="..."}` histogram family. The
/// pre-5.x flat names (`stage2_busy_frac`, `span_seconds_fwd`) were kept
/// behind a `flat_compat` shim for one release and are now gone.
pub fn record_snapshot_metrics(metrics: &MetricsRegistry, snap: &TraceSnapshot) {
    let wall_ns = wall_ns(snap);
    for st in sweep(snap, 0, wall_ns).per_stage {
        let (busy, comm, bubble) = st
            .breakdown
            .utilization(wall_ns as f64 * 1e-9 * st.tracks as f64);
        let sync_s = st.breakdown.grad_sync_s + st.breakdown.two_bw_barrier_s;
        let stage = st.stage.to_string();
        let labels: [(&str, &str); 1] = [("stage", stage.as_str())];
        for (name, value) in [
            ("pipedream_stage_busy_frac", busy),
            ("pipedream_stage_comm_frac", comm),
            ("pipedream_stage_bubble_frac", bubble),
            ("pipedream_stage_sync_wait_seconds", sync_s),
        ] {
            metrics.gauge_labeled(name, &labels).set(value);
        }
    }
    let mut dropped = 0;
    for track in &snap.tracks {
        dropped += track.dropped;
        for ev in &track.events {
            if !ev.is_instant() {
                metrics
                    .histogram_labeled("pipedream_span_seconds", &[("kind", ev.kind.name())])
                    .observe_secs(ev.duration_s());
            }
        }
    }
    metrics.counter("trace_events_dropped_total").add(dropped);
}

/// Record tensor buffer-pool activity for a run: how many scratch-buffer
/// requests were served from the free lists versus freshly allocated.
/// The runtime passes *deltas* over a training run, so in steady state a
/// healthy pipeline shows `tensor_pool_misses_total` flat while
/// `tensor_pool_hits_total` grows with minibatch count.
pub fn record_pool_metrics(metrics: &MetricsRegistry, hits: u64, misses: u64) {
    metrics.counter("tensor_pool_hits_total").add(hits);
    metrics.counter("tensor_pool_misses_total").add(misses);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::TrackEvents;

    const MS: u64 = 1_000_000;

    fn span(kind: SpanKind, start_ms: u64, end_ms: u64) -> Event {
        Event::span(kind, start_ms * MS, end_ms * MS)
    }

    /// Two stages, one track each: stage 0 does 4 fwd/bwd pairs with the
    /// backwards completing every 10 ms in steady state.
    fn sample() -> TraceSnapshot {
        let mut s0 = Vec::new();
        for mb in 0..4u64 {
            let t = mb * 10;
            s0.push(span(SpanKind::Fwd { mb }, t, t + 3));
            s0.push(span(SpanKind::RecvWait { mb }, t + 1, t + 2));
            s0.push(span(SpanKind::Bwd { mb }, t + 4, t + 8));
        }
        let s1 = vec![
            span(SpanKind::Fwd { mb: 0 }, 3, 6),
            span(SpanKind::Bwd { mb: 0 }, 6, 9),
            span(SpanKind::Checkpoint, 30, 34),
        ];
        TraceSnapshot {
            tracks: vec![
                TrackEvents {
                    name: "stage0.replica0".into(),
                    stage: Some(0),
                    events: s0,
                    dropped: 2,
                },
                TrackEvents {
                    name: "stage1.replica0".into(),
                    stage: Some(1),
                    events: s1,
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn attribution_rollup_aggregates_and_subtracts_waits() {
        let snap = sample();
        let st = sweep(&snap, 0, wall_ns(&snap)).per_stage;
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].minibatches, 4);
        let b0 = &st[0].breakdown;
        assert!((b0.wait_upstream_s - 4.0 * 1e-3).abs() < 1e-9);
        // busy = 4*(3+4) - 4*1 = 24 ms
        let (busy_s, _, _) = b0.rollup_s();
        assert!((busy_s - 24e-3).abs() < 1e-9);
        let v = validate(&snap, &[], 0.0, 1);
        assert!((v.per_stage[0].measured_s - 6e-3).abs() < 1e-9);
        assert!((st[1].breakdown.checkpoint_s - 4e-3).abs() < 1e-9);
        let wall_s = wall_ns(&snap) as f64 * 1e-9;
        let fracs: Vec<(f64, f64, f64)> = st
            .iter()
            .map(|s| s.breakdown.utilization(wall_s * s.tracks as f64))
            .collect();
        let (busy0, comm0, _) = fracs[0];
        assert!(busy0 > 0.0 && busy0 <= 1.0);
        // Communication (the 4 ms of receive waits over a 38 ms wall) is
        // its own fraction, not part of the bubble.
        assert!((comm0 - 4.0 / 38.0).abs() < 1e-9, "{comm0}");
        for (stage, &(busy, comm, bubble)) in fracs.iter().enumerate() {
            assert!(
                (busy + comm + bubble - 1.0).abs() < 1e-12,
                "stage {stage}: fractions must sum to 1"
            );
            assert!(bubble >= 0.0 && comm >= 0.0);
        }
    }

    #[test]
    fn timeline_conversion_maps_kinds_and_skips_bookkeeping() {
        let tl = to_timeline(&sample());
        assert_eq!(tl.per_worker.len(), 2);
        // RecvWait spans are skipped: 4 fwd + 4 bwd on stage 0.
        assert_eq!(tl.per_worker[0].len(), 8);
        assert!(tl.per_worker[1]
            .iter()
            .any(|i| i.kind == WorkKind::Checkpoint));
        assert!((tl.makespan() - 38e-3).abs() < 1e-9);
    }

    #[test]
    fn steady_state_slope_uses_middle_half() {
        // Backward completions at 8, 18, 28, 38 ms → slope 10 ms/mb.
        let mb = measured_per_minibatch_s(&sample());
        assert!((mb - 10e-3).abs() < 1e-9, "got {mb}");
    }

    #[test]
    fn validate_reports_per_stage_and_throughput_error() {
        let v = validate(&sample(), &[6e-3, 12e-3], 8e-3, 16);
        assert_eq!(v.per_stage.len(), 2);
        // Stage 0 measured exactly matches the prediction.
        assert!(v.per_stage[0].error_frac.abs() < 1e-9);
        // Stage 1 measured half the predicted 12 ms.
        assert!((v.per_stage[1].error_frac + 0.5).abs() < 1e-9);
        // 10 ms measured vs 8 ms simulated → +25%.
        assert!((v.throughput_error_frac - 0.25).abs() < 1e-9);
        assert!((v.measured_samples_per_sec - 16.0 / 10e-3).abs() < 1e-6);
    }

    #[test]
    fn pool_metrics_accumulate_as_counters() {
        let reg = MetricsRegistry::new();
        record_pool_metrics(&reg, 100, 7);
        record_pool_metrics(&reg, 50, 0);
        assert_eq!(reg.counter("tensor_pool_hits_total").get(), 150);
        assert_eq!(reg.counter("tensor_pool_misses_total").get(), 7);
    }

    #[test]
    fn snapshot_metrics_fold_into_registry() {
        let reg = MetricsRegistry::new();
        record_snapshot_metrics(&reg, &sample());
        assert_eq!(reg.counter("trace_events_dropped_total").get(), 2);
        let labels: [(&str, &str); 1] = [("stage", "0")];
        assert!(
            reg.gauge_labeled("pipedream_stage_busy_frac", &labels)
                .get()
                > 0.0
        );
        assert!(
            reg.gauge_labeled("pipedream_stage_comm_frac", &labels)
                .get()
                > 0.0
        );
        assert_eq!(
            reg.histogram_labeled("pipedream_span_seconds", &[("kind", "bwd")])
                .count(),
            5
        );
        let text = reg.render_prometheus();
        assert!(
            text.contains("pipedream_stage_bubble_frac{stage=\"0\"}"),
            "labeled stage gauges in the dump:\n{text}"
        );
    }

    #[test]
    fn snapshot_metrics_emit_labeled_series_only() {
        let reg = MetricsRegistry::new();
        record_snapshot_metrics(&reg, &sample());
        let text = reg.render_prometheus();
        assert!(
            !text.contains("stage0_busy_frac"),
            "flat names gone:\n{text}"
        );
        assert!(!text.contains("span_seconds_bwd"));
        assert!(text.contains("pipedream_stage_busy_frac{stage=\"0\"}"));
        assert!(text.contains("pipedream_span_seconds_bucket{kind=\"bwd\",le="));
    }
}
