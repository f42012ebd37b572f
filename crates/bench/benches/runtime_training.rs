//! Real-runtime kernels behind Figures 9 and 11: pipeline-parallel epochs
//! on the threaded training runtime vs single-worker SGD.

use criterion::{criterion_group, criterion_main, Criterion};
use pipedream_core::PipelineConfig;
use pipedream_runtime::{
    train_pipeline, train_sequential, LrSchedule, OptimKind, Semantics, TrainOpts,
};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu};
use pipedream_tensor::Sequential;

fn mlp() -> Sequential {
    let mut r = rng(5);
    Sequential::new("bench")
        .push(Linear::new(16, 64, &mut r))
        .push(Relu::new())
        .push(Linear::new(64, 64, &mut r))
        .push(Relu::new())
        .push(Linear::new(64, 64, &mut r))
        .push(Relu::new())
        .push(Linear::new(64, 64, &mut r))
        .push(Linear::new(64, 4, &mut r))
}

fn opts() -> TrainOpts {
    TrainOpts {
        epochs: 2,
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

fn bench_training_modes(c: &mut Criterion) {
    let data = blobs(256, 16, 4, 0.5, 9);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let mut g = c.benchmark_group("train_2_epochs");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| std::hint::black_box(train_sequential(mlp(), &data, &opts())))
    });
    g.bench_function("pipeline_4stage_stashed", |b| {
        b.iter(|| std::hint::black_box(train_pipeline(mlp(), &config, &data, &opts())))
    });
    let mut gp = opts();
    gp.semantics = Semantics::GPipe { microbatches: 4 };
    g.bench_function("pipeline_4stage_gpipe", |b| {
        b.iter(|| std::hint::black_box(train_pipeline(mlp(), &config, &data, &gp)))
    });
    g.finish();
}

criterion_group!(benches, bench_training_modes);
criterion_main!(benches);
