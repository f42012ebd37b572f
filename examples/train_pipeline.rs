//! Train a real model with pipeline parallelism: four stage workers on
//! four OS threads, 1F1B schedule, weight stashing — and compare the
//! learning curve against single-worker SGD and naive (stash-less)
//! pipelining.
//!
//! ```text
//! cargo run --example train_pipeline
//! ```

use pipedream::core::PipelineConfig;
use pipedream::runtime::trainer::evaluate;
use pipedream::runtime::{
    train_pipeline, train_sequential, LrSchedule, OptimKind, Semantics, TrainOpts,
};
use pipedream::tensor::data::spirals;
use pipedream::tensor::init::rng;
use pipedream::tensor::layers::{Linear, Relu, Tanh};
use pipedream::tensor::Sequential;

fn model(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("spiral-mlp")
        .push(Linear::new(8, 48, &mut r))
        .push(Tanh::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Relu::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Tanh::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Linear::new(48, 2, &mut r))
}

fn main() {
    let data = spirals(512, 8, 0.08, 17);
    let (train, test) = data.split(0.25);
    let opts = TrainOpts {
        epochs: 15,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.1,
            momentum: 0.9,
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
    // Four stages over the 8-layer model (Figure 4's shape, for real).
    let config = PipelineConfig::straight(8, &[1, 3, 5]);

    println!("training a 2-class spiral classifier, 15 epochs, batch 16\n");

    let (mut seq_model, seq) = train_sequential(model(3), &train, &opts);
    let (mut pd_model, pd) = train_pipeline(model(3), &config, &train, &opts);
    let mut naive_opts = opts.clone();
    naive_opts.semantics = Semantics::Naive;
    let (mut nv_model, nv) = train_pipeline(model(3), &config, &train, &naive_opts);

    println!("epoch   sequential-SGD   1F1B+weight-stashing   naive-pipeline");
    for e in 0..opts.epochs {
        println!(
            "{:>5}   {:>13.1}%   {:>19.1}%   {:>13.1}%",
            e,
            seq.per_epoch[e].accuracy * 100.0,
            pd.per_epoch[e].accuracy * 100.0,
            nv.per_epoch[e].accuracy * 100.0
        );
    }

    println!(
        "\nheld-out accuracy: sequential {:.1}%, pipelined+stashing {:.1}%, naive {:.1}%",
        evaluate(&mut seq_model, &test, 16) * 100.0,
        evaluate(&mut pd_model, &test, 16) * 100.0,
        evaluate(&mut nv_model, &test, 16) * 100.0
    );
    println!(
        "pipeline wall time: {:.2}s across 4 worker threads (sequential: {:.2}s)",
        pd.wall_time_s, seq.wall_time_s
    );
}
