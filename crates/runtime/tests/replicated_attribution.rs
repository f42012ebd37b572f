//! On a replicated stage the gradient-sync rendezvous nests inside the
//! backward span. The busy/comm/bubble gauges, the live profiler's
//! per-minibatch compute and the critical-path attribution must all
//! count that wait once, as communication, never as compute.

use pipedream_core::PipelineConfig;
use pipedream_obs::{analyze_trace, LiveProfiler, TraceSession};
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{OptimKind, TrainOpts};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Tanh};
use pipedream_tensor::Sequential;

fn mlp5(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("mlp5")
        .push(Linear::new(8, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Tanh::new())
        .push(Linear::new(32, 4, &mut r))
}

#[test]
fn replicated_stage_counts_grad_sync_as_communication_once() {
    let data = blobs(512, 8, 4, 0.6, 7);
    let config = PipelineConfig::from_counts(&[(3, 2), (2, 1)]);
    let session = TraceSession::new();
    let opts = TrainOpts {
        epochs: 2,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        obs: Some(session.clone()),
        ..TrainOpts::default()
    };
    train_pipeline(mlp5(11), &config, &data, &opts);
    let snap = session.snapshot();
    let cp = analyze_trace(&snap);
    let live = LiveProfiler::replay(&snap);
    let metrics = session.metrics();
    assert_eq!(cp.per_stage.len(), 2);

    for attr in &cp.per_stage {
        let stage = attr.stage.to_string();
        let labels: [(&str, &str); 1] = [("stage", stage.as_str())];
        let gauge = |name: &str| metrics.gauge_labeled(name, &labels).get();
        let (busy, comm, bubble) = (
            gauge("pipedream_stage_busy_frac"),
            gauge("pipedream_stage_comm_frac"),
            gauge("pipedream_stage_bubble_frac"),
        );
        // The fractions are a rollup of the cause breakdown, so each one
        // is its causes over `wall × tracks` — no clamp to make them fit.
        let denom = cp.wall_s * attr.tracks as f64;
        let b = &attr.breakdown;
        let want_busy = b.compute_s + b.recompute_s + b.optimizer_step_s;
        let want_comm = b.wait_upstream_s + b.backpressure_s + b.grad_sync_s + b.two_bw_barrier_s;
        assert!(
            (busy * denom - want_busy).abs() < 1e-9,
            "stage {stage}: busy {busy} × {denom} s vs attributed {want_busy} s"
        );
        assert!(
            (comm * denom - want_comm).abs() < 1e-9,
            "stage {stage}: comm {comm} × {denom} s vs attributed {want_comm} s"
        );
        assert!(
            (busy + comm + bubble - 1.0).abs() < 1e-12,
            "stage {stage}: gauges {busy} + {comm} + {bubble}"
        );
        assert!(bubble >= 0.0, "stage {stage}: bubble {bubble}");
        let s = &live.stages[attr.stage];
        assert!(
            (s.busy_frac + s.comm_frac + s.bubble_frac - 1.0).abs() < 1e-12,
            "stage {stage}: replay {} + {} + {}",
            s.busy_frac,
            s.comm_frac,
            s.bubble_frac
        );
        assert!(s.bubble_frac >= 0.0, "stage {stage}: replay bubble");
    }

    // Stage 0 is the replicated one: its backward spans carry the sync.
    let s0 = &cp.per_stage[0];
    assert_eq!(s0.tracks, 2);
    let b = &s0.breakdown;
    assert!(
        b.grad_sync_s > 0.0,
        "replicated stage recorded no grad sync"
    );
    let busy_s = b.compute_s + b.recompute_s + b.optimizer_step_s;
    let per_mb = busy_s / s0.minibatches as f64;
    let live0 = &live.stages[0];
    assert_eq!(live0.minibatches, s0.minibatches);
    assert!(
        (live0.compute_per_mb_s - per_mb).abs() < 1e-9,
        "stage 0 compute/mb {} s vs busy/mb {per_mb} s (grad sync {} s total)",
        live0.compute_per_mb_s,
        b.grad_sync_s
    );
}
