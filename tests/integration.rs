//! Cross-crate integration tests: profile → plan → schedule → simulate →
//! train, exercising the public API end to end.

use pipedream::core::schedule::Schedule;
use pipedream::core::{PipelineConfig, Planner};
use pipedream::hw::{ClusterPreset, Device, LinkModel, Precision, Topology};
use pipedream::model::profiler::profile_sequential;
use pipedream::model::zoo;
use pipedream::runtime::trainer::evaluate;
use pipedream::runtime::{train_pipeline, LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream::sim::{simulate_dp, simulate_pipeline};
use pipedream::tensor::data::blobs;
use pipedream::tensor::init::rng;
use pipedream::tensor::layers::{Linear, Relu};
use pipedream::tensor::{Sequential, Tensor};

#[test]
fn plan_schedule_simulate_beats_model_parallelism() {
    // For every zoo model on a 4-GPU server, the planned pipeline must beat
    // vanilla model parallelism (one minibatch in flight) in simulation.
    let topo = ClusterPreset::A.with_servers(1);
    for model in zoo::all_models() {
        let costs = model.costs(&topo.device, model.default_batch, Precision::Fp32);
        let plan = Planner::new(&model, &topo).try_plan().expect("plan");
        let pp = simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&plan.config, 32));
        // Model parallelism over a balanced straight split.
        let planner = Planner::new(&model, &topo);
        let mp_config = PipelineConfig::straight(
            model.num_layers(),
            &planner.balanced_boundaries(4).expect("4-way split"),
        );
        let mp = simulate_pipeline(&costs, &topo, &Schedule::model_parallel(&mp_config, 32));
        assert!(
            pp.samples_per_sec > 1.5 * mp.samples_per_sec,
            "{}: planned {} vs MP {}",
            model.name,
            pp.samples_per_sec,
            mp.samples_per_sec
        );
    }
}

#[test]
fn profiled_model_plans_and_trains_under_that_plan() {
    // Full Figure-6 workflow on a real model: profile it, plan a pipeline
    // for a small cluster, then actually train with the planned stages.
    let mut r = rng(21);
    let mut model = Sequential::new("e2e")
        .push(Linear::new(8, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Linear::new(32, 4, &mut r));
    let device = Device::v100();
    let profile = profile_sequential(&mut model, &Tensor::zeros(&[16, 8]), 1, 2, &device);
    assert_eq!(profile.num_layers(), 6);

    // Slow links make the planner prefer a pipeline over DP.
    let topo = Topology::flat(device, 3, LinkModel::from_gbps(0.5, 1e-4), "slow");
    let plan = Planner::from_costs(profile.costs(&topo.device, 16, Precision::Fp32), &topo)
        .try_plan()
        .expect("plan");
    plan.config.validate(6).unwrap();
    assert_eq!(plan.config.total_workers(), 3);

    // Train under the planned configuration.
    let data = blobs(192, 8, 4, 0.5, 33);
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
    let (mut trained, report) = train_pipeline(model, &plan.config, &data, &opts);
    assert_eq!(report.per_epoch.len(), 8);
    let acc = evaluate(&mut trained, &data, 16);
    assert!(acc > 0.85, "end-to-end accuracy {acc}");
}

#[test]
fn checkpoint_restart_resumes_identically() {
    use pipedream::runtime::checkpoint;
    let dir = std::env::temp_dir().join(format!("pd-integ-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let build = || {
        let mut r = rng(5);
        Sequential::new("ckpt")
            .push(Linear::new(8, 24, &mut r))
            .push(Relu::new())
            .push(Linear::new(24, 24, &mut r))
            .push(Linear::new(24, 3, &mut r))
    };
    let data = blobs(96, 8, 3, 0.5, 11);
    let config = PipelineConfig::straight(4, &[1, 2]);
    let opts = |epochs: usize| TrainOpts {
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
        resume: false,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    };

    // Run 3 epochs with checkpointing.
    let (_, _) = train_pipeline(build(), &config, &data, &opts(3));
    let latest = checkpoint::latest_complete_epoch(&dir, 3).expect("checkpoints written");
    assert_eq!(latest, 2);

    // "Restart": load every stage's checkpoint into a fresh model and
    // verify it matches a model trained straight through.
    use pipedream::tensor::Layer;
    let (trained, _) = train_pipeline(build(), &config, &data, &opts(3));
    let mut restored = build();
    let boundaries = [2usize, 3];
    let mut all_params = Vec::new();
    for stage in 0..3 {
        all_params.extend(checkpoint::load_stage(&dir, stage, latest).unwrap());
    }
    restored.restore(&all_params);
    let _ = boundaries;
    for (a, b) in restored.snapshot().iter().zip(trained.snapshot().iter()) {
        assert_eq!(a, b, "restored parameters must equal the trained ones");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dp_simulation_consistent_with_estimators() {
    // The simulator's DP bytes must match the analytic estimator.
    let model = zoo::gnmt8();
    let topo = ClusterPreset::B.with_servers(2);
    let costs = model.costs(&topo.device, model.default_batch, Precision::Fp32);
    let r = simulate_dp(&costs, &topo, 16);
    let per_sample = pipedream::core::estimates::dp_bytes_per_sample(&costs, 16);
    // bytes_per_worker covers one iteration of G samples per worker; the
    // cluster-wide per-sample figure spreads 16 workers' traffic over 16·G
    // samples, so per worker per sample = per_sample.
    let sim_per_sample = r.bytes_per_worker as f64 / costs.batch as f64;
    assert!(
        (sim_per_sample - per_sample).abs() / per_sample < 0.01,
        "sim {sim_per_sample} vs estimator {per_sample}"
    );
}

#[test]
fn facade_prelude_compiles_and_plans() {
    use pipedream::prelude::*;
    let profile = pipedream::model::zoo::vgg16();
    let topo = ClusterPreset::A.with_servers(4);
    let plan = Planner::new(&profile, &topo).try_plan().expect("plan");
    assert!(plan.samples_per_sec > 0.0);
    assert!(!plan.config.label().is_empty());
}

#[test]
fn traced_run_throughput_within_bounds_of_simulation() {
    // The profile → plan → simulate loop closed against a *measured* run:
    // train a real pipeline under a TraceSession, extract steady-state
    // per-minibatch time from the trace, and bound the gap to the
    // simulator's prediction. The bound is deliberately loose — worker
    // threads time-share whatever cores CI grants, so on a single core the
    // measured time approaches the *sum* of stage computes (≈ stages ×
    // bottleneck) rather than the bottleneck itself — but it still catches
    // unit mistakes, empty traces, and wildly wrong analysis.
    let stages = 3usize;
    let batch = 32usize;
    let mut r = rng(41);
    let mut model = Sequential::new("trace-gap").push(Linear::new(16, 128, &mut r));
    for _ in 0..(stages * 2 - 3) {
        model.push_boxed(Box::new(Relu::new()));
        let lin = Linear::new(128, 128, &mut r);
        model.push_boxed(Box::new(lin));
    }
    model.push_boxed(Box::new(Linear::new(128, 4, &mut r)));
    let topo = Topology::flat(Device::v100(), stages, LinkModel::new(1e14, 0.0), "local");
    let profile = profile_sequential(&mut model, &Tensor::zeros(&[batch, 16]), 1, 3, &topo.device);
    let costs = profile.costs(&topo.device, batch, Precision::Fp32);
    let planner = Planner::from_costs(costs.clone(), &topo);
    let boundaries = planner.balanced_boundaries(stages).unwrap();
    let config = PipelineConfig::straight(profile.num_layers(), &boundaries);
    let predicted: Vec<f64> = planner
        .predicted_stage_times(&config)
        .iter()
        .map(|p| p.effective_s)
        .collect();
    let sim = simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&config, 48));

    let data = blobs(256, 16, 4, 0.7, 17);
    let session = pipedream::obs::TraceSession::new();
    let opts = TrainOpts {
        epochs: 3,
        batch,
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
        obs: Some(session.clone()),
        ..TrainOpts::default()
    };
    let (_, report) = train_pipeline(model, &config, &data, &opts);
    assert!(report.wall_time_s > 0.0);

    let v = pipedream::obs::validate(&session.snapshot(), &predicted, sim.per_minibatch_s, batch);
    assert_eq!(v.per_stage.len(), stages);
    assert!(v.measured_per_minibatch_s.is_finite() && v.measured_per_minibatch_s > 0.0);
    let ratio = v.measured_per_minibatch_s / v.simulated_per_minibatch_s;
    assert!(
        ratio > 0.25 && ratio < 12.0,
        "measured/simulated per-minibatch ratio {ratio:.2} out of bounds \
         (measured {:.4}s, simulated {:.4}s)",
        v.measured_per_minibatch_s,
        v.simulated_per_minibatch_s
    );
    for s in &v.per_stage {
        assert!(
            s.measured_s > s.predicted_s * 0.25 && s.measured_s < s.predicted_s * 15.0,
            "stage {} measured {:.5}s vs predicted {:.5}s",
            s.stage,
            s.measured_s,
            s.predicted_s
        );
        // error_frac is consistent with the two times it summarizes.
        let expect = s.measured_s / s.predicted_s - 1.0;
        assert!((s.error_frac - expect).abs() < 1e-9);
    }
}
