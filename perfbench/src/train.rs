//! The training workloads: a conv miniature and a weight-heavy LM-shaped
//! model, each trained by the real threaded runtime as a 2-stage vanilla
//! 1F1B pipeline with weight stashing.
//!
//! The untraced run repeats `train_pipeline` on a fresh copy of the same
//! seeded model and data until the time is up; one run is one op. The
//! traced probe measures the `tensor`, `model`, `runtime` and `obs`
//! layers on the same task.

use crate::report::{median, median_time_s, Latency, Metrics, Tally, CAUSES, MODEL_LAYERS, STAGES};
use pipedream_core::PipelineConfig;
use pipedream_hw::{Device, Precision};
use pipedream_model::profiler::profile_sequential;
use pipedream_obs::{analyze_trace, BubbleCause, SpanKind, TraceSession, TraceSnapshot};
use pipedream_runtime::{train_pipeline, train_sequential, OptimKind, TrainOpts, TrainReport};
use pipedream_tensor::data::{blobs, token_sums, Dataset};
use pipedream_tensor::init::{normal, rng};
use pipedream_tensor::layers::{Conv2d, Embedding, Flatten, Linear, MaxPool2d, Relu, Reshape};
use pipedream_tensor::{pool, Layer, Sequential, Tensor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which training model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Conv trunk | dense head: small weights, large activations.
    Conv,
    /// Embedding plus wide dense layers: large weights, small activations.
    Lm,
}

/// A seeded training task: initial model, data, partition and options.
pub struct Task {
    pub kind: Kind,
    model: Sequential,
    data: Dataset,
    config: PipelineConfig,
    opts: TrainOpts,
    /// The GEMM `(m, k, n)` of the model's largest layer at the minibatch
    /// shape, timed by the tensor probe.
    gemm: (usize, usize, usize),
}

impl Task {
    pub fn build(kind: Kind, seed: u64) -> Task {
        let mut r = rng(seed);
        let (model, data, boundary, batch, lr, gemm) = match kind {
            Kind::Conv => {
                let model = Sequential::new("conv-mini")
                    .push(Reshape::new(&[3, 32, 32]))
                    .push(Conv2d::new(3, 16, 3, 1, 1, &mut r))
                    .push(Relu::new())
                    .push(MaxPool2d::new(2))
                    .push(Conv2d::new(16, 32, 3, 1, 1, &mut r))
                    .push(Relu::new())
                    .push(MaxPool2d::new(2))
                    .push(Flatten::new())
                    .push(Linear::new(32 * 8 * 8, 64, &mut r))
                    .push(Relu::new())
                    .push(Linear::new(64, 10, &mut r));
                let data = blobs(256, 3 * 32 * 32, 10, 0.02, seed ^ 0xc0de);
                // Conv2 (16→32 at 16×16) as im2col: 32 × 144 × (16·256).
                (model, data, 3, 16, 0.05, (32, 16 * 9, 16 * 16 * 16))
            }
            Kind::Lm => {
                let model = Sequential::new("lm-mini")
                    .push(Embedding::new(512, 64, &mut r))
                    .push(Flatten::new())
                    .push(Linear::new(16 * 64, 1024, &mut r))
                    .push(Relu::new())
                    .push(Linear::new(1024, 1024, &mut r))
                    .push(Relu::new())
                    .push(Linear::new(1024, 1024, &mut r))
                    .push(Relu::new())
                    .push(Linear::new(1024, 256, &mut r))
                    .push(Relu::new())
                    .push(Linear::new(256, 16, &mut r));
                let data = token_sums(128, 16, 512, 16, seed ^ 0x70c5);
                (model, data, 5, 8, 0.01, (8, 1024, 1024))
            }
        };
        assert_eq!(
            model.len(),
            MODEL_LAYERS,
            "both models report L0..L{MODEL_LAYERS}"
        );
        Task {
            kind,
            model,
            data,
            config: PipelineConfig::straight(MODEL_LAYERS, &[boundary]),
            opts: TrainOpts {
                epochs: 2,
                batch,
                optim: OptimKind::Sgd { lr, momentum: 0.9 },
                ..TrainOpts::default()
            },
            gemm,
        }
    }

    fn minibatches(&self) -> usize {
        self.opts.epochs * self.data.num_minibatches(self.opts.batch)
    }

    fn samples(&self) -> usize {
        self.opts.epochs * self.data.len()
    }

    fn input(&self) -> Tensor {
        self.data.minibatch(0, self.opts.batch).0
    }

    /// One pipeline training run on a fresh copy of the initial model:
    /// the report and the wall time of the `train_pipeline` call.
    fn run(&self, obs: Option<Arc<TraceSession>>) -> (TrainReport, f64) {
        let model = self.model.clone();
        let opts = TrainOpts {
            obs,
            ..self.opts.clone()
        };
        let t = Instant::now();
        let (_, report) = train_pipeline(model, &self.config, &self.data, &opts);
        (report, t.elapsed().as_secs_f64())
    }
}

/// The run-level correctness rule: the final loss is finite, below the
/// first epoch's, and bit-identical to the reference run's.
fn check_loss(report: &TrainReport, reference: f32) -> Result<(), String> {
    let first = report.per_epoch.first().map(|e| e.loss);
    let last = report.final_loss();
    if !last.is_finite() {
        return Err(format!("final loss {last} is not finite"));
    }
    if first.is_none_or(|f| last >= f) {
        return Err(format!(
            "final loss {last} not below first epoch's {first:?}"
        ));
    }
    if last.to_bits() != reference.to_bits() {
        return Err(format!(
            "final loss {last} differs from the reference {reference}"
        ));
    }
    Ok(())
}

/// The untraced workload: set up `setups` times (build + one warm-up run,
/// whose loss is the reference), then train repeatedly for `seconds`.
pub fn run(kind: Kind, seed: u64, seconds: f64, setups: usize) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut task = None;
    let mut reference = f32::NAN;
    for i in 0..setups {
        let t = Instant::now();
        let built = Task::build(kind, seed);
        let (report, _) = built.run(None);
        setup_s.push(t.elapsed().as_secs_f64());
        let loss = report.final_loss();
        tally.check(i == 0 || loss.to_bits() == reference.to_bits(), || {
            format!("set-up {i} trained to loss {loss}, the one before it to {reference}")
        });
        reference = loss;
        task = Some(built);
    }
    let task = task.expect("at least one set-up");

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut run_s = Vec::new();
    while run_s.is_empty() || Instant::now() < deadline {
        let (report, wall) = task.run(None);
        tally.op(check_loss(&report, reference));
        run_s.push(wall);
    }
    let ms_per_mb: Vec<f64> = run_s
        .iter()
        .map(|s| s * 1e3 / task.minibatches() as f64)
        .collect();
    let lat = Latency::of(ms_per_mb);
    eprintln!(
        "{kind:?}: {} runs of {} samples, final loss {reference}, ms/minibatch p50 {:.3} p{:.0} {:.3}",
        lat.n,
        task.samples(),
        lat.p50,
        lat.tail_q * 100.0,
        lat.tail
    );
    let mut m = Metrics::default();
    m.set("ops_per_s", task.samples() as f64 / median(&run_s));
    m.set("op_ms_p50", lat.p50);
    m.set("op_ms_tail", lat.tail);
    m.set("setup_s", median(&setup_s));
    (m, tally)
}

/// Per-layer forward and backward time at the minibatch shape (median of
/// `reps` passes), in milliseconds.
fn layer_times(task: &Task, reps: usize) -> (Vec<f64>, Vec<f64>) {
    let mut model = task.model.clone();
    let n = model.len();
    let mut fwd = vec![Vec::new(); n];
    let mut bwd = vec![Vec::new(); n];
    for it in 0..reps + 1 {
        let slot = it as u64;
        let mut x = task.input();
        for (i, layer) in model.layers_mut().iter_mut().enumerate() {
            let t = Instant::now();
            let y = layer.forward(&x, slot);
            fwd[i].push(t.elapsed().as_secs_f64() * 1e3);
            x = y;
        }
        let mut g = Tensor::full(x.shape(), 1.0 / x.len() as f32);
        for (i, layer) in model.layers_mut().iter_mut().enumerate().rev() {
            let t = Instant::now();
            let dx = layer.backward(&g, slot);
            bwd[i].push(t.elapsed().as_secs_f64() * 1e3);
            g = dx;
        }
        model.zero_grad();
        model.clear_slots();
    }
    // The first pass warms the buffer pool; drop it.
    let med = |v: &Vec<Vec<f64>>| v.iter().map(|s| median(&s[1..])).collect();
    (med(&fwd), med(&bwd))
}

/// Self time of `kind` spans on one track: their durations minus the
/// durations of `nested` spans they contain.
fn self_time_s(
    events: &[pipedream_obs::Event],
    is_outer: impl Fn(SpanKind) -> bool,
    is_nested: impl Fn(SpanKind) -> bool,
) -> f64 {
    let outer: Vec<_> = events.iter().filter(|e| is_outer(e.kind)).collect();
    let mut total: f64 = outer.iter().map(|e| e.duration_s()).sum();
    for e in events.iter().filter(|e| is_nested(e.kind)) {
        if outer
            .iter()
            .any(|o| o.start_ns <= e.start_ns && e.end_ns <= o.end_ns)
        {
            total -= e.duration_s();
        }
    }
    total
}

/// Per-stage span totals of one traced run, folded per minibatch.
struct StageSpans {
    fwd_ms: f64,
    bwd_ms: f64,
    opt_ms: f64,
    causes_ms: Vec<f64>,
}

fn fold_trace(snap: &TraceSnapshot, tally: &mut Tally) -> Vec<StageSpans> {
    let cp = analyze_trace(snap);
    (0..STAGES)
        .map(|s| {
            let tracks: Vec<_> = snap.tracks.iter().filter(|t| t.stage == Some(s)).collect();
            let attr = cp.stage(s);
            let mbs = attr.map_or(0, |a| a.minibatches).max(1) as f64;
            // The critical-path fold must account for every nanosecond of
            // the stage's tracks.
            if let Some(a) = attr {
                let want = cp.wall_s * a.tracks as f64;
                let got = a.breakdown.total_s();
                tally.check((got - want).abs() <= 1e-6 * want.max(1.0), || {
                    format!("stage {s}: causes sum to {got} s, wall is {want} s")
                });
            } else {
                tally.check(false, || format!("stage {s} missing from the trace"));
            }
            let sum = |f: &dyn Fn(&[pipedream_obs::Event]) -> f64| -> f64 {
                tracks.iter().map(|t| f(&t.events)).sum::<f64>() * 1e3 / mbs
            };
            let recv = |k: SpanKind| matches!(k, SpanKind::RecvWait { .. });
            StageSpans {
                fwd_ms: sum(&|ev| self_time_s(ev, |k| matches!(k, SpanKind::Fwd { .. }), recv)),
                bwd_ms: sum(&|ev| {
                    self_time_s(
                        ev,
                        |k| matches!(k, SpanKind::Bwd { .. }),
                        |k| recv(k) || matches!(k, SpanKind::OptStep { .. }),
                    )
                }),
                opt_ms: sum(&|ev| {
                    self_time_s(ev, |k| matches!(k, SpanKind::OptStep { .. }), |_| false)
                }),
                causes_ms: CAUSES
                    .iter()
                    .map(|name| {
                        let cause = BubbleCause::ALL
                            .into_iter()
                            .find(|c| c.name() == *name)
                            .expect("catalogued cause exists");
                        attr.map_or(0.0, |a| a.breakdown.get(cause)) * 1e3 / mbs
                    })
                    .collect(),
            }
        })
        .collect()
}

/// The traced probe of the `tensor`, `model`, `runtime` and `obs` layers
/// on `task`: `runs` untraced and `runs` traced pipeline runs, alternated,
/// plus the single-worker baseline and direct layer timings. Also returns
/// the last traced run's spans.
pub fn probe(task: &Task, runs: usize) -> (Metrics, Tally, TraceSnapshot) {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let (reference, _) = task.run(None);
    let reference = reference.final_loss();

    // Alternate untraced and traced runs so drift hits both alike.
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut pool_misses = Vec::new();
    let mut stages: Vec<Vec<StageSpans>> = Vec::new();
    let mut obs_records = Vec::new();
    let mut last_trace = TraceSnapshot::default();
    let mut dropped = 0;
    for _ in 0..runs {
        let before = pool::global_stats().misses;
        let (report, wall) = task.run(None);
        tally.op(check_loss(&report, reference));
        pool_misses.push((pool::global_stats().misses - before) as f64 / task.minibatches() as f64);
        plain_s.push(wall);

        // Every span of the run must fit its track's ring: a few spans and
        // instants per op, two ops per minibatch, generous headroom.
        let session = TraceSession::with_capacity(64 * task.minibatches() + 1024);
        let (report, wall) = task.run(Some(session.clone()));
        tally.op(check_loss(&report, reference));
        traced_s.push(wall);
        last_trace = session.snapshot();
        dropped += last_trace.tracks.iter().map(|t| t.dropped).sum::<u64>();
        stages.push(fold_trace(&last_trace, &mut tally));
        obs_records = report.stage_obs;
    }
    let plain = task.samples() as f64 / median(&plain_s);
    let traced = task.samples() as f64 / median(&traced_s);
    m.set("obs.trace_overhead_ratio", traced / plain);
    tally.check(dropped == 0, || {
        format!("trace rings dropped {dropped} events")
    });
    m.set("obs.events_dropped", dropped as f64);
    m.set("tensor.pool_miss_per_mb", median(&pool_misses));
    for s in 0..STAGES {
        let per = |f: &dyn Fn(&StageSpans) -> f64| {
            median(&stages.iter().map(|r| f(&r[s])).collect::<Vec<_>>())
        };
        m.set(format!("runtime.fwd_ms_per_mb.s{s}"), per(&|x| x.fwd_ms));
        m.set(format!("runtime.bwd_ms_per_mb.s{s}"), per(&|x| x.bwd_ms));
        m.set(
            format!("runtime.optimizer_ms_per_mb.s{s}"),
            per(&|x| x.opt_ms),
        );
        for (c, cause) in CAUSES.iter().enumerate() {
            m.set(
                format!("obs.cause_ms_per_mb.{cause}.s{s}"),
                per(&|x| x.causes_ms[c]),
            );
        }
        let rec = obs_records.iter().find(|o| o.stage == s);
        tally.check(rec.is_some(), || {
            format!("no stage_obs record for stage {s}")
        });
        if let Some(o) = rec {
            m.set(
                format!("runtime.versions_held_max.s{s}"),
                o.versions_held_max as f64,
            );
            m.set(
                format!("runtime.activation_mib_max.s{s}"),
                o.activation_bytes_max as f64 / (1u64 << 20) as f64,
            );
        }
    }

    // Weight-stash snapshot cost of each stage's layers.
    let boundaries: Vec<usize> = task.config.stages()[1..]
        .iter()
        .map(|st| st.first_layer)
        .collect();
    for (s, stage) in task.model.clone().split_off(&boundaries).iter().enumerate() {
        let secs = median_time_s(50, || {
            for t in black_box(stage.snapshot()) {
                t.recycle();
            }
        });
        m.set(format!("runtime.stash_snapshot_ms.s{s}"), secs * 1e3);
    }

    // Single-worker baseline on the same model, data and epochs (§5).
    let mut seq_s = Vec::new();
    for _ in 0..runs.div_ceil(2) {
        let t = Instant::now();
        let (_, report) = train_sequential(task.model.clone(), &task.data, &task.opts);
        seq_s.push(t.elapsed().as_secs_f64());
        let last = report.final_loss();
        tally.op(
            if last.is_finite() && report.per_epoch.first().is_some_and(|f| last < f.loss) {
                Ok(())
            } else {
                Err(format!(
                    "sequential baseline final loss {last} did not improve"
                ))
            },
        );
    }
    let seq = task.samples() as f64 / median(&seq_s);
    m.set("runtime.seq_samples_per_s", seq);
    m.set("runtime.pipeline_speedup", plain / seq);

    // Measured per-layer time against the §3.1 profiler's T_l.
    let reps = 20;
    let (fwd, bwd) = layer_times(task, reps);
    let device = Device::v100();
    let mut model = task.model.clone();
    let profile = profile_sequential(&mut model, &task.input(), 2, reps, &device);
    let costs = profile.costs(&device, task.opts.batch, Precision::Fp32);
    for l in 0..MODEL_LAYERS {
        m.set(format!("tensor.layer_fwd_ms.L{l}"), fwd[l]);
        m.set(format!("tensor.layer_bwd_ms.L{l}"), bwd[l]);
        m.set(
            format!("model.profiled_fwd_ms.L{l}"),
            costs.layers[l].fwd_s * 1e3,
        );
    }

    let (gm, gk, gn) = task.gemm;
    let a = normal(&[gm, gk], 1.0, &mut rng(1));
    let b = normal(&[gk, gn], 1.0, &mut rng(2));
    let secs = median_time_s(30, || black_box(a.matmul(&b)).recycle());
    m.set(
        "tensor.gemm_gflops",
        2.0 * (gm * gk * gn) as f64 / secs / 1e9,
    );
    eprintln!(
        "{:?} probe: pipeline {plain:.0} samples/s, traced {traced:.0}, sequential {seq:.0}",
        task.kind
    );
    (m, tally, last_trace)
}
