//! Per-stage observability records (`TrainReport::stage_obs`) checked
//! against the paper's §3.3 staleness and memory bounds.

use pipedream_core::stash::staleness::{two_bw_delay, weight_stashing_delay};
use pipedream_core::stash::ScheduleKind;
use pipedream_core::PipelineConfig;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{LrSchedule, OptimKind, Semantics, TrainOpts};
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

fn opts(epochs: usize, semantics: Semantics) -> TrainOpts {
    TrainOpts {
        epochs,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    }
}

fn sched_opts(epochs: usize, schedule: ScheduleKind) -> TrainOpts {
    TrainOpts {
        schedule,
        ..opts(epochs, Semantics::Stashed)
    }
}

#[test]
fn stage_obs_staleness_matches_stashing_formula() {
    // §3.3: stage s of an n-stage stashed pipeline computes gradients with
    // weights delayed exactly n−1−s updates in steady state; the measured
    // per-stage staleness_max must hit that formula (the run is long
    // enough to reach steady state, and staleness never exceeds it).
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let n = 4usize;
    let (_, report) = train_pipeline(mlp(3), &config, &data, &opts(2, Semantics::Stashed));
    assert_eq!(report.stage_obs.len(), n, "one record per worker");
    for o in &report.stage_obs {
        assert_eq!(
            o.staleness_max as usize,
            weight_stashing_delay(o.stage, n),
            "stage {}: staleness_max {} vs formula {}",
            o.stage,
            o.staleness_max,
            weight_stashing_delay(o.stage, n)
        );
    }
}

#[test]
fn stage_obs_stash_depth_bounded_by_noam() {
    // §3.3's memory argument: the input stage holds the most versions, but
    // never more than NOAM distinct ones; the output stage stashes at most
    // one minibatch at a time (its backward runs immediately).
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, report) = train_pipeline(mlp(5), &config, &data, &opts(2, Semantics::Stashed));
    let noam = config.noam();
    let s0 = report.stage_obs.iter().find(|o| o.stage == 0).unwrap();
    assert!(
        s0.stash_depth_max <= noam,
        "input stage stash depth {} exceeds NOAM {}",
        s0.stash_depth_max,
        noam
    );
    assert!(
        s0.versions_held_max <= noam,
        "input stage held {} versions, NOAM is {}",
        s0.versions_held_max,
        noam
    );
    let last = report.stage_obs.iter().find(|o| o.stage == 3).unwrap();
    assert!(
        last.stash_depth_max <= 1,
        "output stage stash depth {} (expected ≤ 1)",
        last.stash_depth_max
    );
    // Monotone: deeper stages stash no more than earlier ones.
    for w in report.stage_obs.windows(2) {
        assert!(
            w[1].stash_depth_max <= w[0].stash_depth_max,
            "stash depth must not grow with stage index: {:?}",
            report.stage_obs
        );
    }
}

#[test]
fn stage_obs_present_for_replicated_stages() {
    // Replicated stages report one record per replica, sorted by
    // (stage, replica).
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::from_counts(&[(6, 2), (2, 1)]);
    let (_, report) = train_pipeline(mlp(9), &config, &data, &opts(2, Semantics::Stashed));
    let keys: Vec<(usize, usize)> = report
        .stage_obs
        .iter()
        .map(|o| (o.stage, o.replica))
        .collect();
    assert_eq!(keys, vec![(0, 0), (0, 1), (1, 0)]);
}

#[test]
fn two_bw_holds_exactly_two_versions_with_unit_staleness() {
    // PipeDream-2BW: every stage double-buffers weight generations — the
    // one being trained against (g−1) and the latest (g). The measured
    // versions_held_max must be exactly 2 at every stage (independent of
    // pipeline depth, unlike vanilla stashing's n−s versions at stage s),
    // and the measured staleness is the uniform 2BW delay of 1 generation.
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    // 2 epochs × 16 minibatches = 32 = 8 full groups of NOAM=4: every
    // stage applies ≥ 1 group update, so the double buffer is exercised.
    let (_, report) = train_pipeline(mlp(3), &config, &data, &sched_opts(2, ScheduleKind::TwoBW));
    assert_eq!(report.stage_obs.len(), 4);
    for o in &report.stage_obs {
        assert_eq!(
            o.versions_held_max, 2,
            "stage {}: 2BW must hold exactly 2 weight versions, held {}",
            o.stage, o.versions_held_max
        );
        assert_eq!(
            o.staleness_max as usize,
            two_bw_delay(o.stage, 4),
            "stage {}: 2BW staleness is one generation, measured {}",
            o.stage,
            o.staleness_max
        );
        // In-flight activation stashes still obey the NOAM bound.
        assert!(o.stash_depth_max <= config.noam());
    }
}

#[test]
fn two_bw_beats_vanilla_version_count_at_the_input_stage() {
    // The memory claim behind 2BW: vanilla stashing pins one version per
    // in-flight minibatch (NOAM at the input stage), 2BW caps it at 2.
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, vanilla) = train_pipeline(mlp(5), &config, &data, &opts(2, Semantics::Stashed));
    let (_, two_bw) = train_pipeline(mlp(5), &config, &data, &sched_opts(2, ScheduleKind::TwoBW));
    let v0 = vanilla.stage_obs.iter().find(|o| o.stage == 0).unwrap();
    let t0 = two_bw.stage_obs.iter().find(|o| o.stage == 0).unwrap();
    assert_eq!(v0.versions_held_max, config.noam(), "vanilla pins NOAM");
    assert_eq!(t0.versions_held_max, 2, "2BW double-buffers");
    assert!(t0.versions_held_max < v0.versions_held_max);
}

#[test]
fn recompute_shrinks_activation_footprint_from_depth_to_one() {
    // Activation recomputation drops per-layer caches after the forward
    // pass and keeps only the stage input: the input stage's live
    // activation bytes fall from O(NOAM × layer caches) to O(NOAM × input
    // + one minibatch's caches). With 2 layers per stage whose caches
    // dwarf the 16×8 stage input, the measured gauge must drop by at
    // least 2× at the input stage (NOAM = 4 slots down to ~1).
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, vanilla) = train_pipeline(mlp(7), &config, &data, &opts(2, Semantics::Stashed));
    let (_, rec) = train_pipeline(
        mlp(7),
        &config,
        &data,
        &sched_opts(2, ScheduleKind::Recompute),
    );
    let v0 = vanilla.stage_obs.iter().find(|o| o.stage == 0).unwrap();
    let r0 = rec.stage_obs.iter().find(|o| o.stage == 0).unwrap();
    assert!(v0.activation_bytes_max > 0 && r0.activation_bytes_max > 0);
    assert!(
        r0.activation_bytes_max * 2 <= v0.activation_bytes_max,
        "recompute gauge {} not well below vanilla {} at the input stage",
        r0.activation_bytes_max,
        v0.activation_bytes_max
    );
    // The recompute workspace is paid for in time: the gauge records it.
    assert!(r0.recompute_us > 0, "recompute time must be measured");
    assert_eq!(v0.recompute_us, 0, "vanilla never recomputes");
    // Recomputation does not change which weights are used.
    for (a, b) in vanilla.stage_obs.iter().zip(rec.stage_obs.iter()) {
        assert_eq!(a.staleness_max, b.staleness_max, "stage {}", a.stage);
        assert_eq!(a.versions_held_max, b.versions_held_max);
    }
}

#[test]
fn combined_schedule_gets_both_memory_bounds_at_once() {
    // 2BW + recompute: ≤ 2 weight versions AND the O(1) activation stash
    // in the same run — the schedule the memory-sweep relies on.
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, vanilla) = train_pipeline(mlp(11), &config, &data, &opts(2, Semantics::Stashed));
    let (_, both) = train_pipeline(
        mlp(11),
        &config,
        &data,
        &sched_opts(2, ScheduleKind::TwoBWRecompute),
    );
    let v0 = vanilla.stage_obs.iter().find(|o| o.stage == 0).unwrap();
    let b0 = both.stage_obs.iter().find(|o| o.stage == 0).unwrap();
    assert_eq!(b0.versions_held_max, 2);
    assert_eq!(b0.staleness_max, 1);
    assert!(b0.recompute_us > 0);
    assert!(
        b0.activation_bytes_max * 2 <= v0.activation_bytes_max,
        "combined gauge {} vs vanilla {}",
        b0.activation_bytes_max,
        v0.activation_bytes_max
    );
}

#[test]
fn vertical_sync_staleness_is_uniform() {
    // §3.3: vertical sync pins every stage to the input stage's version —
    // a uniform delay of n−1 updates at all stages.
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let n = 4usize;
    let (_, report) = train_pipeline(mlp(7), &config, &data, &opts(2, Semantics::VerticalSync));
    for o in &report.stage_obs {
        assert_eq!(
            o.staleness_max as usize,
            n - 1,
            "stage {}: vertical sync staleness {} (expected uniform {})",
            o.stage,
            o.staleness_max,
            n - 1
        );
    }
}
