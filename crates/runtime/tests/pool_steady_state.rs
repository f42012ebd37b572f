//! Steady-state allocation of stashed pipeline training.
//!
//! Switching weight versions moves buffers and retired versions return to
//! the tensor pool, so once a run is warm a minibatch allocates almost
//! nothing. The pool counters are process-wide, so this file holds a
//! single test: no other test's allocations can land in the window.

use pipedream_core::PipelineConfig;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{OptimKind, TrainOpts};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu};
use pipedream_tensor::{pool, Sequential};

/// Upper bound on pool misses per minibatch in steady state, summed over
/// both stages. With versions moved and retired ones pooled this model
/// misses none; copying at every switch and freeing retired versions cost
/// 16 per minibatch.
const MAX_MISSES_PER_MB: f64 = 2.0;

#[test]
fn stashed_training_stops_allocating_in_steady_state() {
    let data = blobs(256, 64, 8, 0.6, 5);
    let config = PipelineConfig::straight(6, &[4]);
    let model = || {
        let mut r = rng(9);
        Sequential::new("two-stage")
            .push(Linear::new(64, 256, &mut r))
            .push(Relu::new())
            .push(Linear::new(256, 256, &mut r))
            .push(Relu::new())
            .push(Linear::new(256, 256, &mut r))
            .push(Linear::new(256, 8, &mut r))
    };
    // Misses of a run: each worker thread warms its own pool, then runs
    // in steady state. The difference between a short and a long run is
    // the steady-state part alone.
    let misses = |epochs: usize| {
        let opts = TrainOpts {
            epochs,
            batch: 16,
            optim: OptimKind::Sgd {
                lr: 0.01,
                momentum: 0.9,
            },
            ..TrainOpts::default()
        };
        let before = pool::global_stats().misses;
        let (_, report) = train_pipeline(model(), &config, &data, &opts);
        let mbs = report.per_minibatch.len();
        (pool::global_stats().misses - before, mbs)
    };
    let (short, short_mbs) = misses(2);
    let (long, long_mbs) = misses(8);
    let per_mb = (long as f64 - short as f64) / (long_mbs - short_mbs) as f64;
    assert!(
        per_mb <= MAX_MISSES_PER_MB,
        "{per_mb:.2} pool misses per steady-state minibatch (bound {MAX_MISSES_PER_MB})"
    );
}
