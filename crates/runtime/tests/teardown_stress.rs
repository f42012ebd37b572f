//! Every pipeline run ends. The coordinator drains the metrics channel
//! until the last worker drops its sender; a wakeup lost on that
//! disconnect leaves training blocked forever after every worker has
//! exited. The race window is a few instructions wide, so this repeats a
//! tiny run many times under a watchdog instead of hanging the suite.

use pipedream_core::PipelineConfig;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{OptimKind, TrainOpts};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu};
use pipedream_tensor::Sequential;
use std::sync::mpsc;
use std::time::Duration;

const RUNS: usize = 10_000;

#[test]
fn many_short_pipeline_runs_all_terminate() {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let data = blobs(32, 8, 4, 0.6, 5);
        let config = PipelineConfig::straight(4, &[2]);
        let opts = TrainOpts {
            epochs: 1,
            batch: 8,
            optim: OptimKind::Sgd {
                lr: 0.01,
                momentum: 0.0,
            },
            ..TrainOpts::default()
        };
        for run in 0..RUNS {
            let mut r = rng(run as u64);
            let model = Sequential::new("tiny")
                .push(Linear::new(8, 16, &mut r))
                .push(Relu::new())
                .push(Linear::new(16, 16, &mut r))
                .push(Linear::new(16, 4, &mut r));
            train_pipeline(model, &config, &data, &opts);
            let _ = done_tx.send(run);
        }
    });
    let mut finished = 0;
    while finished < RUNS {
        finished = 1 + done_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("pipeline run {finished} never finished"));
    }
}
