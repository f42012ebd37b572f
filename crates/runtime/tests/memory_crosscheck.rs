//! Sim-vs-runtime memory cross-check: the simulator's per-worker peak
//! memory prediction must agree with what a real training run measures,
//! for every schedule kind.
//!
//! The two sides measure related but not identical quantities — the sim
//! prices a stage's activation stash from the *profiled output activation
//! bytes* of its layers, while the runtime gauge counts the bytes the
//! layers actually cached for backward (a Linear caches its input, not its
//! output; the output stage also pins the pending loss gradient). For the
//! MLP here those differ per stage by at most ~2×, so the stated
//! cross-check tolerance is a 3× band: `pred/3 ≤ measured ≤ 3×pred` per
//! stage, plus exact agreement on the weight-version count and on the
//! cross-schedule *ordering* (the part that drives planning decisions).

use pipedream_core::schedule::Schedule;
use pipedream_core::stash::ScheduleKind;
use pipedream_core::PipelineConfig;
use pipedream_hw::{Device, LinkModel, Precision, Topology};
use pipedream_model::profiler::profile_sequential;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream_sim::PipelineSim;
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream_tensor::Sequential;

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

fn sched_opts(schedule: ScheduleKind) -> TrainOpts {
    TrainOpts {
        epochs: 2,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        schedule,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    }
}

/// Per-stage parameter bytes of the real model under `config`.
fn stage_weight_bytes(model: &Sequential, config: &PipelineConfig) -> Vec<u64> {
    config
        .stages()
        .iter()
        .map(|s| {
            model.layers()[s.first_layer..=s.last_layer]
                .iter()
                .map(|l| l.param_count() as u64 * 4)
                .sum()
        })
        .collect()
}

#[test]
fn sim_memory_prediction_brackets_measured_memory_for_every_schedule() {
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let topo = Topology::flat(
        Device::v100(),
        4,
        LinkModel::from_gbytes(10.0, 1e-6),
        "xcheck",
    );
    // Profile the *real* model so the sim prices the same layers the
    // runtime executes.
    let mut probe = mlp(41);
    let (input, _) = data.minibatch(0, 16);
    let profile = profile_sequential(&mut probe, &input, 1, 2, &Device::v100());
    let costs = profile.costs(&Device::v100(), 16, Precision::Fp32);
    let weights = stage_weight_bytes(&probe, &config);

    let mut stage0_totals = Vec::new();
    for kind in ScheduleKind::all() {
        let sim = PipelineSim::new(&costs, &topo, &Schedule::one_f_one_b(&config, 32))
            .with_schedule(kind)
            .run();
        let (_, report) = train_pipeline(mlp(41), &config, &data, &sched_opts(kind));
        assert_eq!(report.stage_obs.len(), 4);
        for o in &report.stage_obs {
            let measured = o.versions_held_max as u64 * weights[o.stage] + o.activation_bytes_max;
            let predicted = sim.peak_memory_bytes[o.stage];
            assert!(
                measured <= predicted * 3 && predicted <= measured * 3,
                "{kind} stage {}: measured {measured} vs sim {predicted} \
                 outside the 3x cross-check band",
                o.stage
            );
            // The weight-version count itself must agree exactly: 2BW
            // double-buffers two generations at every stage (latest plus
            // the pinned one), vanilla/recompute pin one version per
            // in-flight minibatch.
            let expected_versions = if kind.uses_two_bw() {
                2
            } else {
                o.stash_depth_max
            };
            assert_eq!(
                o.versions_held_max, expected_versions,
                "{kind} stage {}: version count",
                o.stage
            );
        }
        let s0 = report.stage_obs.iter().find(|o| o.stage == 0).unwrap();
        stage0_totals.push((
            kind,
            s0.versions_held_max as u64 * weights[0] + s0.activation_bytes_max,
            sim.peak_memory_bytes[0],
        ));
    }

    // Ordering agreement at the deepest stage: whenever the sim says a
    // schedule saves memory over vanilla, the measured run must agree
    // (and vice versa) — this is the signal the planner acts on.
    let (_, van_meas, van_pred) = stage0_totals[0];
    for &(kind, meas, pred) in &stage0_totals[1..] {
        assert_eq!(
            pred < van_pred,
            meas < van_meas,
            "{kind}: sim says {} vs vanilla {}, runtime measured {} vs {}",
            pred,
            van_pred,
            meas,
            van_meas
        );
    }
}
