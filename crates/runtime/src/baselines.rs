//! Baseline trainers: single-worker SGD, BSP data parallelism, ASP.

use crate::report::{EpochStats, TrainReport};
use crate::sync::GradSyncGroup;
use crate::trainer::{OptimKind, TrainOpts};
use parking_lot::Mutex;
use pipedream_tensor::data::Dataset;
use pipedream_tensor::{softmax_cross_entropy, Layer, Sequential, Tensor};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Reference single-worker minibatch SGD — the semantics every other mode
/// is compared against.
pub fn train_sequential(
    mut model: Sequential,
    dataset: &Dataset,
    opts: &TrainOpts,
) -> (Sequential, TrainReport) {
    let started = Instant::now();
    pipedream_tensor::gemm::set_thread_backend(opts.kernel);
    let mut optimizer = opts.optim.build();
    let mut per_epoch = Vec::with_capacity(opts.epochs);
    let mbs = dataset.num_minibatches(opts.batch);
    for epoch in 0..opts.epochs {
        optimizer.set_learning_rate(opts.lr_schedule.lr_at(opts.optim.base_lr(), epoch));
        let mut loss_sum = 0.0f64;
        let mut correct = 0usize;
        let mut count = 0usize;
        for i in 0..mbs {
            let (x, y) = dataset.minibatch(i, opts.batch);
            let out = model.forward(&x, i as u64);
            let loss = softmax_cross_entropy(&out, &y);
            model.zero_grad();
            model.backward(&loss.grad, i as u64);
            let mut params = model.params_mut();
            optimizer.step(&mut params);
            loss_sum += loss.loss as f64 * y.len() as f64;
            correct += loss.correct;
            count += y.len();
        }
        per_epoch.push(EpochStats {
            epoch,
            loss: (loss_sum / count.max(1) as f64) as f32,
            accuracy: correct as f32 / count.max(1) as f32,
            samples: count,
        });
    }
    (
        model,
        TrainReport {
            per_epoch,
            wall_time_s: started.elapsed().as_secs_f64(),
            ..TrainReport::default()
        },
    )
}

/// BSP data parallelism with `workers` threads: each round, worker `w`
/// processes minibatch `round·W + w`, gradients are all_reduced
/// (averaged), and every replica applies the identical update — the
/// paper's DP baseline, with an effective global batch of `W × batch`.
pub fn train_bsp_dp(
    model: Sequential,
    dataset: &Dataset,
    workers: usize,
    opts: &TrainOpts,
) -> (Sequential, TrainReport) {
    assert!(workers >= 1);
    let started = Instant::now();
    let sync = Arc::new(GradSyncGroup::new(workers));
    let stats = Arc::new(Mutex::new(vec![(0.0f64, 0usize, 0usize); opts.epochs]));
    let mbs = dataset.num_minibatches(opts.batch);
    let rounds_per_epoch = mbs / workers; // drop the ragged tail round
    assert!(
        rounds_per_epoch >= 1,
        "dataset too small for {workers} DP workers"
    );

    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let mut model = model.clone();
        let sync = Arc::clone(&sync);
        let stats = Arc::clone(&stats);
        let dataset = dataset.clone();
        let opts = opts.clone();
        handles.push(thread::spawn(move || {
            pipedream_tensor::gemm::set_thread_backend(opts.kernel);
            let mut optimizer = opts.optim.build();
            for epoch in 0..opts.epochs {
                for round in 0..rounds_per_epoch {
                    let i = round * workers + w;
                    let (x, y) = dataset.minibatch(i, opts.batch);
                    let out = model.forward(&x, i as u64);
                    let loss = softmax_cross_entropy(&out, &y);
                    model.zero_grad();
                    model.backward(&loss.grad, i as u64);
                    // All_reduce gradients; identical averaged update on
                    // every replica keeps weights in lock-step.
                    let grads: Vec<Tensor> =
                        model.params().iter().map(|p| p.grad.clone()).collect();
                    let avg = sync
                        .allreduce(w, grads)
                        .expect("BSP all_reduce has no fault injection");
                    for (p, g) in model.params_mut().into_iter().zip(avg) {
                        p.grad = g;
                    }
                    let mut params = model.params_mut();
                    optimizer.step(&mut params);
                    let mut st = stats.lock();
                    st[epoch].0 += loss.loss as f64 * y.len() as f64;
                    st[epoch].1 += loss.correct;
                    st[epoch].2 += y.len();
                }
            }
            model
        }));
    }
    let mut result: Option<Sequential> = None;
    for (w, h) in handles.into_iter().enumerate() {
        let m = h.join().expect("DP worker panicked");
        if w == 0 {
            result = Some(m);
        }
    }
    let per_epoch = stats
        .lock()
        .iter()
        .enumerate()
        .map(|(epoch, &(loss_sum, correct, count))| EpochStats {
            epoch,
            loss: (loss_sum / count.max(1) as f64) as f32,
            accuracy: correct as f32 / count.max(1) as f32,
            samples: count,
        })
        .collect();
    (
        result.expect("at least one worker"),
        TrainReport {
            per_epoch,
            wall_time_s: started.elapsed().as_secs_f64(),
            ..TrainReport::default()
        },
    )
}

/// Asynchronous-parallel data parallelism: `workers` threads share one
/// parameter store with no synchronization barrier — each reads the
/// current weights, computes gradients, and applies its update whenever it
/// finishes. Fast per iteration, statistically inefficient (§5.2).
pub fn train_asp(
    model: Sequential,
    dataset: &Dataset,
    workers: usize,
    opts: &TrainOpts,
) -> (Sequential, TrainReport) {
    assert!(workers >= 1);
    let started = Instant::now();
    let shared: Arc<Mutex<Vec<Tensor>>> = Arc::new(Mutex::new(model.snapshot()));
    let stats = Arc::new(Mutex::new(vec![(0.0f64, 0usize, 0usize); opts.epochs]));
    let mbs = dataset.num_minibatches(opts.batch);
    let rounds_per_epoch = mbs / workers;
    assert!(rounds_per_epoch >= 1);

    let lr = match opts.optim {
        OptimKind::Sgd { lr, .. } | OptimKind::Adam { lr } => lr,
    };

    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let mut model = model.clone();
        let shared = Arc::clone(&shared);
        let stats = Arc::clone(&stats);
        let dataset = dataset.clone();
        let opts = opts.clone();
        handles.push(thread::spawn(move || {
            pipedream_tensor::gemm::set_thread_backend(opts.kernel);
            for epoch in 0..opts.epochs {
                for round in 0..rounds_per_epoch {
                    let i = round * workers + w;
                    // Pull the current (possibly mid-update) weights.
                    model.restore(&shared.lock());
                    let (x, y) = dataset.minibatch(i, opts.batch);
                    let out = model.forward(&x, i as u64);
                    let loss = softmax_cross_entropy(&out, &y);
                    model.zero_grad();
                    model.backward(&loss.grad, i as u64);
                    // Apply this worker's (stale) gradient to the shared
                    // weights, Hogwild-style but with a lock for memory
                    // safety.
                    {
                        let mut store = shared.lock();
                        for (t, p) in store.iter_mut().zip(model.params()) {
                            t.axpy(-lr, &p.grad);
                        }
                    }
                    let mut st = stats.lock();
                    st[epoch].0 += loss.loss as f64 * y.len() as f64;
                    st[epoch].1 += loss.correct;
                    st[epoch].2 += y.len();
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("ASP worker panicked");
    }
    let mut model = model;
    model.restore(&shared.lock());
    let per_epoch = stats
        .lock()
        .iter()
        .enumerate()
        .map(|(epoch, &(loss_sum, correct, count))| EpochStats {
            epoch,
            loss: (loss_sum / count.max(1) as f64) as f32,
            accuracy: correct as f32 / count.max(1) as f32,
            samples: count,
        })
        .collect();
    (
        model,
        TrainReport {
            per_epoch,
            wall_time_s: started.elapsed().as_secs_f64(),
            ..TrainReport::default()
        },
    )
}
