//! End-to-end tests of the pipeline-parallel training runtime, checking the
//! paper's §3.3 claims mechanically on real (small) models.

use pipedream_core::PipelineConfig;
use pipedream_obs::{to_timeline, TraceSession};
use pipedream_runtime::trainer::{evaluate, train_pipeline};
use pipedream_runtime::{
    train_asp, train_bsp_dp, train_sequential, LrSchedule, OptimKind, Semantics, TrainOpts,
};
use pipedream_sim::render_timeline;
use pipedream_tensor::data::{blobs, spirals, Dataset};
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream_tensor::Sequential;

/// An 8-layer MLP so it can be split 4 ways.
fn mlp(seed: u64, inputs: usize, classes: usize) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("mlp8")
        .push(Linear::new(inputs, 32, &mut r))
        .push(Tanh::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Tanh::new())
        .push(Scale::new(32))
        .push(Linear::new(32, classes, &mut r))
}

fn easy_data() -> Dataset {
    blobs(256, 8, 4, 0.6, 7)
}

fn default_opts(epochs: usize) -> TrainOpts {
    TrainOpts {
        epochs,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    }
}

#[test]
fn single_stage_pipeline_is_bitwise_sequential_sgd() {
    // A 1-worker "pipeline" must produce exactly the losses of plain SGD:
    // the NOAM-1 schedule degenerates to F,B,F,B… on one worker.
    let data = easy_data();
    let opts = default_opts(3);
    let config = PipelineConfig::data_parallel(8, 1);
    let (_, seq) = train_sequential(mlp(1, 8, 4), &data, &opts);
    let (_, pipe) = train_pipeline(mlp(1, 8, 4), &config, &data, &opts);
    assert_eq!(seq.per_epoch.len(), pipe.per_epoch.len());
    for (a, b) in seq.per_epoch.iter().zip(pipe.per_epoch.iter()) {
        assert_eq!(a.loss, b.loss, "epoch {}", a.epoch);
        assert_eq!(a.accuracy, b.accuracy);
    }
}

#[test]
fn four_stage_stashed_pipeline_converges_like_sequential() {
    // §5.2 "Statistical Efficiency": weight stashing reaches the same
    // accuracy in a comparable number of epochs.
    let data = easy_data();
    let opts = default_opts(8);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (mut m_seq, seq) = train_sequential(mlp(2, 8, 4), &data, &opts);
    let (mut m_pipe, pipe) = train_pipeline(mlp(2, 8, 4), &config, &data, &opts);
    let acc_seq = evaluate(&mut m_seq, &data, 16);
    let acc_pipe = evaluate(&mut m_pipe, &data, 16);
    assert!(acc_seq > 0.9, "sequential failed to learn: {acc_seq}");
    assert!(
        acc_pipe > acc_seq - 0.05,
        "pipeline {acc_pipe} vs sequential {acc_seq}"
    );
    assert!(pipe.final_loss() < seq.per_epoch[0].loss);
}

#[test]
fn version_trace_matches_staleness_formula() {
    // §3.3: with weight stashing, stage s of an n-stage pipeline runs
    // minibatch t's forward with weights delayed n−1−s updates, i.e. in
    // steady state version(s, mb) = mb − (n−1−s).
    let data = easy_data();
    let opts = default_opts(2);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let n = 4i64;
    let (_, report) = train_pipeline(mlp(3, 8, 4), &config, &data, &opts);
    let total_mbs = report.version_trace.iter().map(|r| r.mb).max().unwrap() + 1;
    // Steady-state window: skip startup (first NOAM mbs) and drain.
    for mb in (n as u64)..(total_mbs - n as u64) {
        for (stage, version) in report.versions_for(mb) {
            let expected = mb as i64 - (n - 1 - stage as i64);
            assert_eq!(
                version as i64, expected,
                "stage {stage} mb {mb}: version {version}, expected {expected}"
            );
        }
    }
}

#[test]
fn vertical_sync_uses_one_version_across_stages() {
    // §3.3: vertical sync eliminates cross-stage version inconsistency —
    // every stage uses the version pinned at the input stage.
    let data = easy_data();
    let mut opts = default_opts(2);
    opts.semantics = Semantics::VerticalSync;
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, report) = train_pipeline(mlp(4, 8, 4), &config, &data, &opts);
    let total_mbs = report.version_trace.iter().map(|r| r.mb).max().unwrap() + 1;
    for mb in 0..total_mbs {
        let versions = report.versions_for(mb);
        assert_eq!(versions.len(), 4, "mb {mb} seen at all stages");
        let v0 = versions[0].1;
        assert!(
            versions.iter().all(|&(_, v)| v == v0),
            "mb {mb}: inconsistent versions {versions:?}"
        );
    }
}

#[test]
fn vertical_sync_converges() {
    let data = easy_data();
    let mut opts = default_opts(8);
    opts.semantics = Semantics::VerticalSync;
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (mut m, _) = train_pipeline(mlp(5, 8, 4), &config, &data, &opts);
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.9, "vertical sync accuracy {acc}");
}

#[test]
fn naive_pipelining_learns_worse_than_stashing() {
    // §3.3: without weight stashing the backward pass uses different
    // weights than the forward pass — an invalid gradient. On a hard task
    // with momentum the mismatch visibly hurts the final loss.
    let data = spirals(384, 8, 0.05, 9);
    let mut opts = default_opts(12);
    opts.optim = OptimKind::Sgd {
        lr: 0.12,
        momentum: 0.9,
    };
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, stashed) = train_pipeline(mlp(3, 8, 2), &config, &data, &opts);
    opts.semantics = Semantics::Naive;
    let (_, naive) = train_pipeline(mlp(3, 8, 2), &config, &data, &opts);
    assert!(
        stashed.final_loss() < naive.final_loss(),
        "stashed {} vs naive {}",
        stashed.final_loss(),
        naive.final_loss()
    );
}

#[test]
fn gpipe_updates_only_at_flushes() {
    // Figure 3: all microbatches of a group run against the same weights;
    // the version only advances at the flush.
    let data = easy_data();
    let mut opts = default_opts(2);
    opts.semantics = Semantics::GPipe { microbatches: 4 };
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, report) = train_pipeline(mlp(7, 8, 4), &config, &data, &opts);
    let total_mbs = report.version_trace.iter().map(|r| r.mb).max().unwrap() + 1;
    for mb in 0..total_mbs {
        for (_, version) in report.versions_for(mb) {
            assert_eq!(
                version,
                mb / 4,
                "mb {mb}: version advances exactly once per 4-microbatch group"
            );
        }
    }
}

#[test]
fn gpipe_converges() {
    let data = easy_data();
    let mut opts = default_opts(10);
    opts.semantics = Semantics::GPipe { microbatches: 4 };
    opts.optim = OptimKind::Sgd {
        lr: 0.15, // 4× aggregation ≈ 4× fewer updates; compensate
        momentum: 0.0,
    };
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (mut m, _) = train_pipeline(mlp(8, 8, 4), &config, &data, &opts);
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.85, "gpipe accuracy {acc}");
}

#[test]
fn replicated_stage_2_1_converges() {
    // Figure 8's 2-1 configuration on a real model: round-robin routing
    // plus per-backward gradient sync across the two replicas.
    let data = easy_data();
    let opts = default_opts(8);
    let config = PipelineConfig::from_counts(&[(6, 2), (2, 1)]);
    let (mut m, report) = train_pipeline(mlp(9, 8, 4), &config, &data, &opts);
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.9, "2-1 config accuracy {acc}");
    assert_eq!(report.per_epoch.len(), 8);
}

#[test]
fn pipeline_training_is_deterministic() {
    let data = easy_data();
    let opts = default_opts(3);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, a) = train_pipeline(mlp(10, 8, 4), &config, &data, &opts);
    let (_, b) = train_pipeline(mlp(10, 8, 4), &config, &data, &opts);
    for (x, y) in a.per_epoch.iter().zip(b.per_epoch.iter()) {
        assert_eq!(x.loss, y.loss);
    }
    assert_eq!(a.version_trace, b.version_trace);
}

#[test]
fn checkpoints_written_per_stage_per_epoch() {
    use pipedream_runtime::checkpoint;
    let dir = std::env::temp_dir().join(format!("pd-ckpt-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = easy_data();
    let mut opts = default_opts(3);
    opts.checkpoint_dir = Some(dir.clone());
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (m, _) = train_pipeline(mlp(11, 8, 4), &config, &data, &opts);
    assert_eq!(checkpoint::latest_complete_epoch(&dir, 4), Some(2));
    // The final checkpoint must hold the final weights: compare stage 0
    // (layers 0..=1) parameters against the returned model.
    use pipedream_tensor::Layer;
    let stage0 = checkpoint::load_stage(&dir, 0, 2).unwrap();
    let full_snapshot = m.snapshot();
    for (ckpt, live) in stage0.iter().zip(full_snapshot.iter()) {
        assert_eq!(ckpt, live);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bsp_dp_converges() {
    let data = easy_data();
    let opts = default_opts(8);
    let (mut m, report) = train_bsp_dp(mlp(12, 8, 4), &data, 4, &opts);
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.9, "BSP-DP accuracy {acc}");
    assert!(report.final_loss() < report.per_epoch[0].loss);
}

#[test]
fn asp_runs_and_reduces_loss() {
    // ASP is statistically weaker; just require finite, decreasing loss.
    let data = easy_data();
    let mut opts = default_opts(6);
    opts.optim = OptimKind::Sgd {
        lr: 0.02,
        momentum: 0.0,
    };
    let (_, report) = train_asp(mlp(13, 8, 4), &data, 4, &opts);
    assert!(report.final_loss().is_finite());
    assert!(report.final_loss() < report.per_epoch[0].loss);
}

#[test]
fn reduced_depth_still_trains() {
    // Figure 18: pipeline depth is tunable; depth 2 trades throughput for
    // memory but must still converge.
    let data = easy_data();
    let mut opts = default_opts(8);
    opts.depth = Some(2);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (mut m, _) = train_pipeline(mlp(14, 8, 4), &config, &data, &opts);
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.9, "depth-2 accuracy {acc}");
}

#[test]
fn stashed_versions_at_last_stage_are_fresh() {
    // The output stage's forward uses version mb (no staleness): delay
    // n−1−s = 0.
    let data = easy_data();
    let opts = default_opts(2);
    let config = PipelineConfig::straight(8, &[3]);
    let (_, report) = train_pipeline(mlp(15, 8, 4), &config, &data, &opts);
    let total_mbs = report.version_trace.iter().map(|r| r.mb).max().unwrap() + 1;
    for mb in 2..total_mbs - 2 {
        let versions = report.versions_for(mb);
        let last = versions.iter().find(|&&(s, _)| s == 1).unwrap().1;
        assert_eq!(last, mb, "last stage must see all {mb} prior updates");
    }
}

#[test]
fn sequence_model_trains_through_pipeline() {
    // A GNMT-shaped miniature: embedding → LSTM → LSTM → last-step head,
    // trained pipeline-parallel with weight stashing on a token task.
    use pipedream_tensor::data::token_sums;
    use pipedream_tensor::layers::{Lstm, SeqLast};
    let mut r = rng(31);
    let model = Sequential::new("seq")
        .push(pipedream_tensor::layers::Embedding::new(12, 16, &mut r))
        .push(Lstm::new(16, 24, &mut r))
        .push(Lstm::new(24, 24, &mut r))
        .push(SeqLast::new())
        .push(Linear::new(24, 3, &mut r));
    let data = token_sums(240, 4, 9, 3, 13);
    let opts = TrainOpts {
        epochs: 20,
        batch: 16,
        optim: OptimKind::Adam { lr: 0.02 },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    };
    // One stage per "server": embedding | lstm | lstm | head.
    let config = PipelineConfig::straight(5, &[0, 1, 2]);
    let (mut m, report) = train_pipeline(model, &config, &data, &opts);
    assert!(
        report.final_loss() < report.per_epoch[0].loss * 0.85,
        "loss should fall: {} -> {}",
        report.per_epoch[0].loss,
        report.final_loss()
    );
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.45, "sequence accuracy {acc} (chance = 0.33)");
}

#[test]
fn dropout_pipeline_is_deterministic() {
    // Dropout masks are seeded per (layer, minibatch), so pipelined
    // interleaving cannot perturb them: two runs match exactly.
    use pipedream_tensor::layers::Dropout;
    let build = || {
        let mut r = rng(77);
        Sequential::new("drop")
            .push(Linear::new(8, 32, &mut r))
            .push(Relu::new())
            .push(Dropout::new(0.3, 123))
            .push(Linear::new(32, 4, &mut r))
    };
    let data = easy_data();
    let opts = default_opts(3);
    let config = PipelineConfig::straight(4, &[1, 2]);
    let (_, a) = train_pipeline(build(), &config, &data, &opts);
    let (_, b) = train_pipeline(build(), &config, &data, &opts);
    for (x, y) in a.per_epoch.iter().zip(b.per_epoch.iter()) {
        assert_eq!(x.loss, y.loss);
    }
}

#[test]
fn resume_continues_from_checkpoint() {
    // §4: restart from the last successfully created checkpoint. Train 2
    // epochs, "crash", resume for 2 more — the resumed run must start from
    // the checkpointed parameters and label its epochs 2 and 3.
    use pipedream_runtime::checkpoint;
    let dir = std::env::temp_dir().join(format!("pd-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = easy_data();
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let mk_opts = |epochs: usize, resume: bool| TrainOpts {
        epochs,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: None,
        resume,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    };
    let (first_model, first) = train_pipeline(mlp(70, 8, 4), &config, &data, &mk_opts(2, false));
    assert_eq!(checkpoint::latest_complete_epoch(&dir, 4), Some(1));

    // Resume with a FRESH (differently seeded) model: the checkpoint must
    // override its initialization entirely.
    let (resumed_model, resumed) = train_pipeline(mlp(71, 8, 4), &config, &data, &mk_opts(2, true));
    assert_eq!(resumed.per_epoch[0].epoch, 2, "epoch numbering continues");
    assert_eq!(resumed.per_epoch[1].epoch, 3);
    assert_eq!(checkpoint::latest_complete_epoch(&dir, 4), Some(3));

    // And the resumed run must equal a straight-through 4-epoch run
    // bit-for-bit (same schedule per epoch, same data order).
    let dir2 = std::env::temp_dir().join(format!("pd-resume2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir2);
    let straight_opts = TrainOpts {
        checkpoint_dir: Some(dir2.clone()),
        checkpoint_every: None,
        ..mk_opts(4, false)
    };
    let (straight_model, straight) = train_pipeline(mlp(70, 8, 4), &config, &data, &straight_opts);
    use pipedream_tensor::Layer;
    let _ = (first_model, first);
    // Note: a resumed run re-enters the pipeline with a drained schedule, so
    // exact equality holds only if epoch boundaries drain the pipeline in
    // the straight-through run too. With 1F1B the pipeline stays full across
    // epoch boundaries, so allow a small tolerance instead of bit equality.
    let a = resumed_model.snapshot();
    let b = straight_model.snapshot();
    let mut max_rel = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        for (u, v) in x.data().iter().zip(y.data().iter()) {
            let denom = v.abs().max(1e-3);
            max_rel = max_rel.max((u - v).abs() / denom);
        }
    }
    assert!(
        max_rel < 0.35,
        "resumed parameters should be close to straight-through (max rel diff {max_rel})"
    );
    assert!(resumed.final_loss() <= straight.per_epoch[1].loss * 1.2);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
}

#[test]
fn lr_schedule_matches_between_pipeline_and_sequential() {
    // §5.1: the same LR schedule is used for PipeDream and DP. A 1-worker
    // pipeline under warm-up must stay bit-identical to sequential SGD
    // under the same schedule.
    let data = easy_data();
    let mut opts = default_opts(4);
    opts.lr_schedule = LrSchedule::Warmup { epochs: 2 };
    let config = PipelineConfig::data_parallel(8, 1);
    let (_, seq) = train_sequential(mlp(50, 8, 4), &data, &opts);
    let (_, pipe) = train_pipeline(mlp(50, 8, 4), &config, &data, &opts);
    for (a, b) in seq.per_epoch.iter().zip(pipe.per_epoch.iter()) {
        assert_eq!(a.loss, b.loss, "epoch {}", a.epoch);
    }
}

#[test]
fn step_decay_slows_late_learning() {
    // StepDecay(every=1, factor=0.1) shrinks updates after epoch 0; the
    // difference must show as a near-frozen loss after the first epoch
    // compared to a constant-lr run.
    let data = easy_data();
    let mut decay_opts = default_opts(5);
    decay_opts.lr_schedule = LrSchedule::StepDecay {
        every: 1,
        factor: 0.1,
    };
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, constant) = train_pipeline(mlp(51, 8, 4), &config, &data, &default_opts(5));
    let (_, decayed) = train_pipeline(mlp(51, 8, 4), &config, &data, &decay_opts);
    // Both share epoch 0 exactly (same lr before any decay).
    assert_eq!(constant.per_epoch[0].loss, decayed.per_epoch[0].loss);
    // After decay, the constant run keeps improving more.
    let c_drop = constant.per_epoch[1].loss - constant.final_loss();
    let d_drop = decayed.per_epoch[1].loss - decayed.final_loss();
    assert!(
        c_drop > d_drop,
        "constant drop {c_drop} vs decayed drop {d_drop}"
    );
}

#[test]
fn lr_schedule_math() {
    let w = LrSchedule::Warmup { epochs: 4 };
    assert!(w.lr_at(1.0, 0) < w.lr_at(1.0, 3));
    assert_eq!(w.lr_at(1.0, 4), 1.0);
    assert_eq!(w.lr_at(1.0, 100), 1.0);
    let d = LrSchedule::StepDecay {
        every: 10,
        factor: 0.5,
    };
    assert_eq!(d.lr_at(0.8, 0), 0.8);
    assert_eq!(d.lr_at(0.8, 10), 0.4);
    assert_eq!(d.lr_at(0.8, 25), 0.2);
    assert_eq!(LrSchedule::Constant.lr_at(0.3, 99), 0.3);
}

#[test]
fn vertical_sync_with_replicated_stage() {
    // Vertical sync composes with stage replication: the pinned version
    // still propagates and every stage of a minibatch uses one version.
    let data = easy_data();
    let mut opts = default_opts(4);
    opts.semantics = Semantics::VerticalSync;
    let config = PipelineConfig::from_counts(&[(4, 2), (4, 1)]);
    let (mut m, report) = train_pipeline(mlp(60, 8, 4), &config, &data, &opts);
    let total_mbs = report.version_trace.iter().map(|r| r.mb).max().unwrap() + 1;
    for mb in 0..total_mbs {
        let versions = report.versions_for(mb);
        let v0 = versions[0].1;
        assert!(
            versions.iter().all(|&(_, v)| v == v0),
            "mb {mb}: {versions:?}"
        );
    }
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.85, "replicated vertical sync accuracy {acc}");
}

#[test]
fn two_replicated_stages_converge() {
    // A 2-2 configuration: both stages replicated, both sync groups active.
    let data = easy_data();
    let opts = default_opts(8);
    let config = PipelineConfig::from_counts(&[(4, 2), (4, 2)]);
    let (mut m, _) = train_pipeline(mlp(61, 8, 4), &config, &data, &opts);
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.9, "2-2 config accuracy {acc}");
}

#[test]
fn traced_run_renders_real_pipeline_timeline() {
    // The runtime can draw its own Figure-4: trace real wall-clock op
    // execution and verify pipelining actually happened (ops on different
    // workers overlapped in time).
    let data = easy_data();
    let session = TraceSession::new();
    let mut opts = default_opts(2);
    opts.obs = Some(session.clone());
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    train_pipeline(mlp(70, 8, 4), &config, &data, &opts);
    let timeline = to_timeline(&session.snapshot());
    assert_eq!(timeline.per_worker.len(), 4);
    assert!(timeline.per_worker.iter().all(|w| !w.is_empty()));
    // Every op has sane timestamps.
    for i in timeline.per_worker.iter().flatten() {
        assert!(i.end >= i.start);
    }
    // Overlap: some op on worker 0 runs concurrently with some op on
    // worker 3 (true pipelining across threads).
    let overlaps = timeline.per_worker[0].iter().any(|a| {
        timeline.per_worker[3]
            .iter()
            .any(|b| a.start < b.end && b.start < a.end)
    });
    assert!(overlaps, "workers never overlapped — not pipelined?");
    // The ASCII rendering has one row per worker.
    let render = render_timeline(&timeline, 60);
    assert_eq!(render.lines().count(), 4);
}

#[test]
fn cnn_trains_through_pipeline() {
    // Convolutional stage + classifier stage split across two workers —
    // the VGG-16 shape (conv front, dense head) in miniature.
    use pipedream_tensor::layers::{Conv2d, Flatten, MaxPool2d, Reshape};
    let mut r = rng(80);
    let model = Sequential::new("cnn")
        .push(Reshape::new(&[1, 6, 6]))
        .push(Conv2d::new(1, 4, 3, 1, 1, &mut r))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Flatten::new())
        .push(Linear::new(4 * 3 * 3, 3, &mut r));
    // Stage 0 = conv trunk (layers 0..=3), stage 1 = classifier.
    let config = PipelineConfig::straight(6, &[3]);
    let data = blobs(192, 36, 3, 0.8, 21);
    let opts = TrainOpts {
        epochs: 8,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    };
    let (mut m, report) = train_pipeline(model, &config, &data, &opts);
    assert!(report.final_loss() < report.per_epoch[0].loss);
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.8, "CNN pipeline accuracy {acc}");
}

#[test]
fn eight_worker_hybrid_pipeline_stress() {
    // A wider deployment: 8 workers as 4-2-1-1 (two replicated stages,
    // two solo), exercising multiple sync groups, round-robin fan-in/out,
    // and deeper NOAM bookkeeping in one run.
    let mut r = rng(90);
    let mut model = Sequential::new("stress");
    model.push_boxed(Box::new(Linear::new(8, 48, &mut r)));
    for _ in 0..6 {
        model.push_boxed(Box::new(Tanh::new()));
        model.push_boxed(Box::new(Linear::new(48, 48, &mut r)));
    }
    model.push_boxed(Box::new(Linear::new(48, 4, &mut r)));
    let n = model.len(); // 14 layers
    let config = PipelineConfig::new(vec![
        pipedream_core::StagePlan::new(0, 4, 4),
        pipedream_core::StagePlan::new(5, 8, 2),
        pipedream_core::StagePlan::new(9, 11, 1),
        pipedream_core::StagePlan::new(12, n - 1, 1),
    ]);
    let data = blobs(256, 8, 4, 0.6, 31);
    let opts = default_opts(6);
    let (mut m, report) = train_pipeline(model, &config, &data, &opts);
    assert_eq!(report.per_epoch.len(), 6);
    assert!(report.final_loss() < report.per_epoch[0].loss);
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.85, "4-2-1-1 stress accuracy {acc}");
}

#[test]
fn gru_sequence_model_trains_through_pipeline() {
    // The GRU cell works under pipelined execution (per-slot BPTT caches
    // survive interleaved minibatches).
    use pipedream_tensor::data::token_sums;
    use pipedream_tensor::layers::{Gru, SeqLast};
    let mut r = rng(35);
    let model = Sequential::new("gru-seq")
        .push(pipedream_tensor::layers::Embedding::new(9, 16, &mut r))
        .push(Gru::new(16, 24, &mut r))
        .push(SeqLast::new())
        .push(Linear::new(24, 3, &mut r));
    let data = token_sums(240, 4, 9, 3, 15);
    let opts = TrainOpts {
        epochs: 15,
        batch: 16,
        optim: OptimKind::Adam { lr: 0.02 },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    };
    let config = PipelineConfig::straight(4, &[0, 1]);
    let (mut m, report) = train_pipeline(model, &config, &data, &opts);
    assert!(
        report.final_loss() < report.per_epoch[0].loss * 0.9,
        "{} -> {}",
        report.per_epoch[0].loss,
        report.final_loss()
    );
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.45, "GRU sequence accuracy {acc} (chance 0.33)");
}

#[test]
fn per_minibatch_losses_cover_every_minibatch() {
    let data = easy_data();
    let opts = default_opts(3);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, report) = train_pipeline(mlp(95, 8, 4), &config, &data, &opts);
    let mbs_per_epoch = 256usize.div_ceil(16);
    assert_eq!(report.per_minibatch.len(), 3 * mbs_per_epoch);
    // Ids are 0..N in order, losses finite.
    for (i, &(mb, loss)) in report.per_minibatch.iter().enumerate() {
        assert_eq!(mb, i as u64);
        assert!(loss.is_finite());
    }
    // Training works: late losses beat early ones on average.
    let n = report.per_minibatch.len();
    let early: f32 = report.per_minibatch[..n / 3].iter().map(|&(_, l)| l).sum();
    let late: f32 = report.per_minibatch[2 * n / 3..]
        .iter()
        .map(|&(_, l)| l)
        .sum();
    assert!(late < early, "late {late} vs early {early}");
}

#[test]
fn kernel_swap_preserves_per_epoch_losses() {
    // The tiled GEMM keeps the naive kernel's per-element summation order
    // whenever the inner dimension fits one KC cache block (all layers
    // here), and Linear adds bias after the product on both backends — so
    // swapping `TrainOpts.kernel` must reproduce the same per-epoch
    // losses. On builds without the `fma` target feature that means
    // *bit-identical*; with FMA (the default under `target-cpu=native`)
    // the fast kernel rounds each product+add once instead of twice, and
    // the documented tolerance is 1e-5 relative on the per-epoch loss —
    // observed drift is ~1 ulp. Any genuine reordering of the reduction
    // (a real semantics change) blows well past that bound.
    use pipedream_runtime::trainer::Backend;
    let fma = cfg!(target_feature = "fma");
    let same = |a: f32, b: f32, what: &str, epoch: usize| {
        if fma {
            let denom = a.abs().max(b.abs()).max(1.0);
            assert!(
                (a - b).abs() / denom <= 1e-5,
                "{what} epoch {epoch}: {a} vs {b} beyond FMA rounding"
            );
        } else {
            assert_eq!(a, b, "{what} epoch {epoch} diverged across kernels");
        }
    };
    let data = easy_data();
    let config = PipelineConfig::straight(8, &[3]); // 2 stages
    let fast_opts = default_opts(3);
    assert_eq!(fast_opts.kernel, Backend::Fast, "Fast must be the default");
    let naive_opts = TrainOpts {
        kernel: Backend::Naive,
        ..default_opts(3)
    };
    let (_, fast) = train_pipeline(mlp(21, 8, 4), &config, &data, &fast_opts);
    let (_, naive) = train_pipeline(mlp(21, 8, 4), &config, &data, &naive_opts);
    assert_eq!(fast.per_epoch.len(), naive.per_epoch.len());
    for (a, b) in fast.per_epoch.iter().zip(naive.per_epoch.iter()) {
        same(a.loss, b.loss, "pipeline loss", a.epoch);
        same(a.accuracy, b.accuracy, "pipeline accuracy", a.epoch);
    }
    // And the sequential baseline agrees with itself across the swap.
    let (_, seq_fast) = train_sequential(mlp(21, 8, 4), &data, &fast_opts);
    let (_, seq_naive) = train_sequential(mlp(21, 8, 4), &data, &naive_opts);
    for (a, b) in seq_fast.per_epoch.iter().zip(seq_naive.per_epoch.iter()) {
        same(a.loss, b.loss, "sequential loss", a.epoch);
    }
}
