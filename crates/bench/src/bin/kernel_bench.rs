//! `kernel_bench` — machine-readable kernel benchmarks for CI.
//!
//! Times the fast tiled kernels against their naive scalar references on
//! the shapes the issue tracker pins (256³ matmul, 3×3 convolution), plus
//! a steady-state pipeline training step, and writes the results as JSON.
//!
//! ```text
//! kernel_bench [OUT.json]       # default BENCH_kernels.json
//! ```
//!
//! CI's `bench-smoke` job runs this and uploads the JSON as an artifact,
//! so kernel regressions show up as a diffable number per commit.

use pipedream_bench::util::time_ms;
use pipedream_core::PipelineConfig;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::TrainOpts;
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::{normal, rng};
use pipedream_tensor::layers::{conv2d_direct, Conv2d, Linear, Tanh};
use pipedream_tensor::{Layer, Sequential};
use serde::Serialize;

#[derive(Serialize)]
struct KernelResult {
    name: String,
    fast_ms: f64,
    naive_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    kernels: Vec<KernelResult>,
    pipeline_step_ms: f64,
}

fn bench_matmul_256() -> KernelResult {
    let a = normal(&[256, 256], 1.0, &mut rng(1));
    let b = normal(&[256, 256], 1.0, &mut rng(2));
    let fast_ms = time_ms(25, || a.matmul(&b).recycle());
    let naive_ms = time_ms(9, || a.matmul_naive(&b).recycle());
    KernelResult {
        name: "matmul_256x256x256".into(),
        fast_ms,
        naive_ms,
        speedup: naive_ms / fast_ms,
    }
}

fn bench_conv_3x3() -> KernelResult {
    // A mid-size convolution layer: 8→16 channels, 3×3 kernel, 32×32 map.
    let mut conv = Conv2d::new(8, 16, 3, 1, 1, &mut rng(3));
    let x = normal(&[4, 8, 32, 32], 1.0, &mut rng(4));
    let weight = conv.params()[0].value.clone();
    let bias = conv.params()[1].value.clone();
    let mut slot = 0u64;
    let fast_ms = time_ms(15, || {
        slot += 1;
        conv.forward(&x, slot).recycle();
        conv.clear_slots();
    });
    let naive_ms = time_ms(5, || conv2d_direct(&x, &weight, &bias, 1, 1).recycle());
    KernelResult {
        name: "conv_8x16_k3_32x32".into(),
        fast_ms,
        naive_ms,
        speedup: naive_ms / fast_ms,
    }
}

/// Steady-state 1F1B step time on a 2-stage pipeline (per minibatch).
fn bench_pipeline_step() -> f64 {
    let mut r = rng(5);
    let model = Sequential::new("bench")
        .push(Linear::new(16, 64, &mut r))
        .push(Tanh::new())
        .push(Linear::new(64, 64, &mut r))
        .push(Tanh::new())
        .push(Linear::new(64, 4, &mut r));
    let data = blobs(512, 16, 4, 0.6, 9);
    let config = PipelineConfig::straight(5, &[2]);
    let opts = TrainOpts {
        epochs: 3,
        batch: 16,
        ..TrainOpts::default()
    };
    let minibatches = (opts.epochs * data.num_minibatches(opts.batch)) as f64;
    let (_, report) = train_pipeline(model, &config, &data, &opts);
    report.wall_time_s * 1e3 / minibatches
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".into());
    let report = BenchReport {
        kernels: vec![bench_matmul_256(), bench_conv_3x3()],
        pipeline_step_ms: bench_pipeline_step(),
    };
    for k in &report.kernels {
        println!(
            "{:24} fast {:8.3} ms  naive {:8.3} ms  speedup {:5.2}x",
            k.name, k.fast_ms, k.naive_ms, k.speedup
        );
    }
    println!(
        "pipeline_step            {:8.3} ms",
        report.pipeline_step_ms
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}
