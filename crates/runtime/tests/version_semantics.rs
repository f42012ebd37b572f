//! Weight-version semantics of the stashed pipelines, pinned bit for bit
//! against a longhand reference on the unpartitioned stages.
//!
//! Weight stashing and vertical sync are both per-stage delayed SGD
//! (§3.3): stage `s` runs both passes of minibatch `t` under its own
//! weights after `max(t − d_s, 0)` updates, and every update builds on
//! that stage's own previous latest weights. Stashing delays stage `s` by
//! `d_s = n − 1 − s`; vertical sync pins every stage to the input stage's
//! version, `d_s = n − 1`. (PipeDream-2BW has its own reference in
//! `schedule_differential.rs`.)

use pipedream_core::PipelineConfig;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{LrSchedule, OptimKind, Semantics, TrainData, TrainOpts};
use pipedream_tensor::data::{blobs, Dataset};
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream_tensor::{softmax_cross_entropy, Layer, Sequential, Tensor};

fn mlp(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("mlp8")
        .push(Linear::new(8, 32, &mut r))
        .push(Tanh::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Tanh::new())
        .push(Scale::new(32))
        .push(Linear::new(32, 4, &mut r))
}

fn opts(semantics: Semantics) -> TrainOpts {
    TrainOpts {
        epochs: 2,
        batch: 16,
        // Momentum makes each stage's optimizer state part of the check.
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.9,
        },
        semantics,
        lr_schedule: LrSchedule::Constant,
        ..TrainOpts::default()
    }
}

/// Longhand per-stage delayed SGD on the pipeline's stages, run one
/// minibatch at a time:
///
///   W_s(t+1) = W_s(t) − lr · ∇_s f(W_0(t−d_0), …, W_{n−1}(t−d_{n−1}); t)
///
/// Returns the reassembled final model and the per-minibatch losses.
fn delayed_sgd_reference(
    model: Sequential,
    boundaries: &[usize],
    delays: &[u64],
    dataset: &Dataset,
    opts: &TrainOpts,
) -> (Sequential, Vec<(u64, f32)>) {
    let data = TrainData::new(dataset.clone(), opts.batch);
    let total = (opts.epochs * data.minibatches_per_epoch()) as u64;
    let mut stages = model.split_off(boundaries);
    assert_eq!(stages.len(), delays.len());
    let mut optimizers: Vec<_> = stages
        .iter()
        .map(|_| {
            let mut o = opts.optim.build();
            o.set_learning_rate(opts.optim.base_lr());
            o
        })
        .collect();
    // history[s][k]: stage s's weights after k updates.
    let mut history: Vec<Vec<Vec<Tensor>>> = stages.iter().map(|st| vec![st.snapshot()]).collect();
    let mut losses = Vec::new();
    for t in 0..total {
        let mut x = data.input(t);
        for (s, stage) in stages.iter_mut().enumerate() {
            stage.restore(&history[s][t.saturating_sub(delays[s]) as usize]);
            x = stage.forward(&x, t);
        }
        let loss = softmax_cross_entropy(&x, &data.labels(t));
        losses.push((t, loss.loss));
        let mut g = loss.grad;
        for stage in stages.iter_mut().rev() {
            stage.zero_grad();
            g = stage.backward(&g, t);
        }
        for (s, stage) in stages.iter_mut().enumerate() {
            stage.restore(history[s].last().expect("version 0 exists"));
            optimizers[s].step(&mut stage.params_mut());
            history[s].push(stage.snapshot());
        }
    }
    let mut whole = Sequential::new("reference");
    for stage in stages {
        for layer in stage.into_layers() {
            whole.push_boxed(layer);
        }
    }
    (whole, losses)
}

fn assert_same_run(
    pipe: &(Sequential, Vec<(u64, f32)>),
    reference: &(Sequential, Vec<(u64, f32)>),
    what: &str,
) {
    assert_eq!(pipe.1.len(), reference.1.len(), "{what}: minibatch count");
    for (&(mb, a), &(_, b)) in pipe.1.iter().zip(reference.1.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: loss diverged at mb {mb}");
    }
    let (a, b) = (pipe.0.snapshot(), reference.0.snapshot());
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.data(), y.data(), "{what}: parameter tensor {i} diverged");
    }
}

fn check(semantics: Semantics, delays: &[u64], seed: u64) {
    let data = blobs(256, 8, 4, 0.6, 7);
    let boundaries = [1, 3, 5];
    let config = PipelineConfig::straight(8, &boundaries);
    let opts = opts(semantics);
    let (model, report) = train_pipeline(mlp(seed), &config, &data, &opts);
    let reference = delayed_sgd_reference(mlp(seed), &boundaries, delays, &data, &opts);
    assert_same_run(
        &(model, report.per_minibatch),
        &reference,
        &format!("{semantics:?}"),
    );
}

#[test]
fn weight_stashing_is_per_stage_delayed_sgd_bitwise() {
    // §3.3: stage s of 4 computes with weights n − 1 − s updates old.
    check(Semantics::Stashed, &[3, 2, 1, 0], 31);
}

#[test]
fn vertical_sync_updates_build_on_each_stages_own_latest() {
    // Every stage runs minibatch t under version t − 3 and applies its
    // update to its own latest weights. Running a pass under an older
    // version must not leave that version behind as the base of the next
    // update, or stages after the first silently lose updates.
    check(Semantics::VerticalSync, &[3, 3, 3, 3], 32);
}
