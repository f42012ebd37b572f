//! Runtime-level fault recovery (paper §4): a stage worker dies
//! mid-training, the pipeline tears itself down with typed errors, and a
//! resumed run continues from the last complete checkpoint with correct
//! epoch numbering and a matching loss trajectory.
//!
//! These tests drive the runtime's [`FaultHook`] seam directly (the
//! richer plan/supervisor layer lives in the `pipedream-ft` crate).

use pipedream_core::schedule::Op;
use pipedream_core::{PipelineConfig, StagePlan};
use pipedream_runtime::checkpoint::{
    latest_complete_epoch, latest_complete_point, CheckpointPoint,
};
use pipedream_runtime::fault::{FaultAction, FaultHook, WorkerError};
use pipedream_runtime::trainer::try_train_pipeline;
use pipedream_runtime::{LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream_tensor::Sequential;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Kill one (stage, replica, mb) op, once. `sync_deadline` is tightened so
/// stranded gradient-sync partners fail fast in tests.
struct KillAt {
    stage: usize,
    replica: usize,
    mb: u64,
    fired: AtomicBool,
}

impl KillAt {
    fn new(stage: usize, mb: u64) -> Self {
        Self::replica(stage, 0, mb)
    }

    fn replica(stage: usize, replica: usize, mb: u64) -> Self {
        KillAt {
            stage,
            replica,
            mb,
            fired: AtomicBool::new(false),
        }
    }
}

impl FaultHook for KillAt {
    fn before_op(&self, stage: usize, replica: usize, op: &Op) -> FaultAction {
        if stage == self.stage
            && replica == self.replica
            && op.minibatch() == Some(self.mb)
            && !self.fired.swap(true, Ordering::SeqCst)
        {
            FaultAction::Kill
        } else {
            FaultAction::Continue
        }
    }

    fn sync_deadline(&self) -> Option<Duration> {
        Some(Duration::from_secs(2))
    }
}

fn mlp(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("fr-mlp")
        .push(Linear::new(8, 32, &mut r))
        .push(Tanh::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Tanh::new())
        .push(Scale::new(32))
        .push(Linear::new(32, 4, &mut r))
}

fn opts(epochs: usize, dir: &std::path::Path, resume: bool) -> TrainOpts {
    TrainOpts {
        epochs,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: None,
        resume,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pd-fr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Kill stage 1 during epoch 1 (of 2), then resume: the run fails with
/// typed errors — the injected kill first — the epoch-0 checkpoint
/// survives, and the resumed run's `EpochStats` continue from the correct
/// `epoch_offset` with a loss trajectory that keeps descending.
#[test]
fn killed_run_resumes_with_correct_epoch_numbering() {
    let dir = tmpdir("resume");
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]); // 4 stages
    let hook: Arc<dyn FaultHook> = Arc::new(KillAt::new(1, 20)); // epoch 1 (16 mb/epoch)

    let err = match try_train_pipeline(mlp(70), &config, &data, &opts(2, &dir, false), Some(hook)) {
        Err(e) => e,
        Ok(_) => panic!("killed run must fail"),
    };
    assert!(
        err.errors[0].is_injected(),
        "root cause should sort first, got {:?}",
        err.errors
    );
    assert!(matches!(
        err.errors[0],
        WorkerError::Killed {
            stage: 1,
            replica: 0,
            mb: 20
        }
    ));
    // Survivors failed as collateral, with typed errors of their own.
    assert!(err.errors.len() > 1, "peers fail too: {:?}", err.errors);
    // Epoch 0 finished before the fault; its stats and checkpoint exist.
    assert_eq!(err.partial.per_epoch[0].epoch, 0);
    assert_eq!(latest_complete_epoch(&dir, 4), Some(0));
    let epoch0_loss = err.partial.per_epoch[0].loss;

    // Resume for the remaining epoch: numbering continues at 1.
    let (_, resumed) = try_train_pipeline(mlp(71), &config, &data, &opts(1, &dir, true), None)
        .expect("resumed run completes");
    let epochs: Vec<usize> = resumed.per_epoch.iter().map(|e| e.epoch).collect();
    assert_eq!(epochs, vec![1]);
    // Loss trajectory matches a run that continued: epoch 1's loss keeps
    // descending from the checkpointed epoch 0.
    assert!(
        resumed.per_epoch[0].loss < epoch0_loss,
        "resumed epoch-1 loss {} should improve on epoch-0 loss {epoch0_loss}",
        resumed.per_epoch[0].loss
    );
    // And the checkpoint trail now extends through the resumed epoch.
    assert_eq!(latest_complete_epoch(&dir, 4), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Killing the *input* stage exercises the other disconnect direction:
/// downstream stages starve on `recv` rather than failing on `send`.
#[test]
fn killing_input_stage_cascades_typed_errors() {
    let dir = tmpdir("stage0");
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[2, 5]);
    let hook: Arc<dyn FaultHook> = Arc::new(KillAt::new(0, 18));

    let err = match try_train_pipeline(mlp(70), &config, &data, &opts(2, &dir, false), Some(hook)) {
        Err(e) => e,
        Ok(_) => panic!("killed run must fail"),
    };
    assert!(matches!(
        err.errors[0],
        WorkerError::Killed { stage: 0, .. }
    ));
    for e in &err.errors[1..] {
        assert!(
            !e.is_injected(),
            "only one injected fault: {:?}",
            err.errors
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `f` on a helper thread and fail loudly if it exceeds `limit`: a
/// hang regression (e.g. a stranded all_reduce partner) must fail the
/// test run, not wedge it.
fn with_hard_timeout<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .expect("test exceeded its hard timeout — hang regression")
}

/// The un-strandable-replicas guarantee, end to end: killing one replica
/// of a data-parallel stage mid-training makes its sync partner fail with
/// a typed [`WorkerError::SyncStalled`] (the poisoned gradient-sync group
/// wakes it) instead of blocking forever inside `allreduce`, and the whole
/// pipeline tears down within the configured deadline.
#[test]
fn killed_replica_fails_sync_partner_typed_not_hung() {
    let err = with_hard_timeout(Duration::from_secs(30), || {
        let dir = tmpdir("replicated-kill");
        let data = blobs(256, 8, 4, 0.6, 7);
        // 3 stages; the middle one is replicated ×2 (round-robin routing).
        let config = PipelineConfig::new(vec![
            StagePlan::new(0, 2, 1),
            StagePlan::new(3, 5, 2),
            StagePlan::new(6, 7, 1),
        ]);
        // Replica 1 handles odd minibatches; kill it mid-epoch-1.
        let hook: Arc<dyn FaultHook> = Arc::new(KillAt::replica(1, 1, 21));
        let err =
            match try_train_pipeline(mlp(70), &config, &data, &opts(2, &dir, false), Some(hook)) {
                Err(e) => e,
                Ok(_) => panic!("killed run must fail"),
            };
        let _ = std::fs::remove_dir_all(&dir);
        err
    });
    assert!(matches!(
        err.errors[0],
        WorkerError::Killed {
            stage: 1,
            replica: 1,
            mb: 21
        }
    ));
    // The surviving replica was woken out of the poisoned sync group with
    // a typed error naming the dead partner — not stranded, not a generic
    // channel disconnect.
    let stalled: Vec<_> = err
        .errors
        .iter()
        .filter(|e| {
            matches!(
                e,
                WorkerError::SyncStalled {
                    stage: 1,
                    replica: 0,
                    ..
                }
            )
        })
        .collect();
    assert_eq!(
        stalled.len(),
        1,
        "surviving replica reports SyncStalled: {:?}",
        err.errors
    );
    if let WorkerError::SyncStalled { reason, .. } = stalled[0] {
        assert!(
            reason.contains("replica 1"),
            "reason names the lost peer: {reason}"
        );
    }
}

/// Minibatch-granularity checkpoints tighten the §4 redo bound: with
/// `checkpoint_every = 4` a kill at minibatch 22 resumes from the
/// mid-epoch `(epoch 1, mb 3)` point — 2 minibatches behind the fault —
/// instead of the epoch-0 boundary 6 minibatches back, and the resumed
/// run seeks the dataloader to the restored offset.
#[test]
fn mid_epoch_checkpoint_resume_seeks_dataloader() {
    let dir = tmpdir("mb-resume");
    let data = blobs(256, 8, 4, 0.6, 7); // 16 minibatches/epoch
    let config = PipelineConfig::straight(8, &[2, 5]); // 3 stages
    let mut o = opts(2, &dir, false);
    o.checkpoint_every = Some(4);
    let hook: Arc<dyn FaultHook> = Arc::new(KillAt::new(1, 22));

    let err = match try_train_pipeline(mlp(70), &config, &data, &o, Some(hook)) {
        Err(e) => e,
        Ok(_) => panic!("killed run must fail"),
    };
    assert!(err.errors[0].is_injected());

    // Checkpoints every 4 minibatches: global boundaries 3, 7, 11, 15
    // (epoch end), 19, … — the last one complete on every stage before the
    // kill at mb 22 is (epoch 1, within-epoch mb 3) = global mb 19.
    let point = latest_complete_point(&dir, 3).expect("mid-epoch checkpoints written");
    assert_eq!(point, CheckpointPoint::MidEpoch { epoch: 1, mb: 3 });
    assert_eq!(point.global_mb(16), 20);
    // The epoch-granular view still sees only the epoch-0 boundary.
    assert_eq!(latest_complete_epoch(&dir, 3), Some(0));

    // Resume: one remaining (partial) epoch, starting at within-epoch
    // minibatch 4.
    let mut resumed_opts = opts(1, &dir, true);
    resumed_opts.checkpoint_every = Some(4);
    let (_, resumed) = try_train_pipeline(mlp(71), &config, &data, &resumed_opts, None)
        .expect("resumed run completes");
    let epochs: Vec<usize> = resumed.per_epoch.iter().map(|e| e.epoch).collect();
    assert_eq!(epochs, vec![1], "partial epoch keeps its numbering");
    // The partial epoch trains exactly the remaining 12 minibatches.
    assert_eq!(resumed.per_minibatch.len(), 12);
    // Its samples are the tail of the epoch the fresh run would see.
    assert_eq!(resumed.per_epoch[0].samples, 12 * 16);
    // Finishing the epoch writes its boundary checkpoint, which outranks
    // every mid-epoch dump.
    assert_eq!(
        latest_complete_point(&dir, 3),
        Some(CheckpointPoint::EpochEnd { epoch: 1 })
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a hook the fault path is dormant: training succeeds and the
/// report carries no recovery record.
#[test]
fn unfaulted_run_has_no_recovery_record() {
    let dir = tmpdir("clean");
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[2, 5]);
    let (_, report) = try_train_pipeline(mlp(70), &config, &data, &opts(2, &dir, false), None)
        .expect("clean run succeeds");
    assert!(report.recovery.is_none());
    assert_eq!(report.per_epoch.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
