//! Training reports.

use serde::{Deserialize, Serialize};

/// Aggregated metrics of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's minibatches.
    pub loss: f32,
    /// Training accuracy over the epoch.
    pub accuracy: f32,
    /// Number of samples seen.
    pub samples: usize,
}

/// Which weight version a stage used for a minibatch's forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VersionRecord {
    /// Pipeline stage.
    pub stage: usize,
    /// Minibatch id.
    pub mb: u64,
    /// Local weight version at forward time.
    pub version: u64,
}

/// Per-worker stash/staleness observations, reported once when a worker
/// completes its op sequence.
///
/// These quantify §3.3's memory claims directly from a real run: the
/// input stage stashes at most NOAM weight versions, and a stage `s` of an
/// `n`-deep pipeline sees a steady-state weight-stashing staleness of
/// `n − 1 − s` updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageObsRecord {
    /// Pipeline stage.
    pub stage: usize,
    /// Replica within the stage.
    pub replica: usize,
    /// Peak number of in-flight minibatches holding a stashed version.
    pub stash_depth_max: usize,
    /// Peak number of distinct weight snapshots held at once.
    pub versions_held_max: usize,
    /// Peak observed weight-version staleness: updates applied between a
    /// minibatch's forward version and its backward (group updates under
    /// 2BW).
    pub staleness_max: u64,
    /// Peak bytes of live activation state (layer stashes + retained
    /// recompute inputs + pending loss gradients).
    pub activation_bytes_max: u64,
    /// Total microseconds spent in recompute forward passes (recompute
    /// schedule kinds only; 0 otherwise).
    pub recompute_us: u64,
}

/// What happened when a fault was injected and the run recovered (§4).
///
/// Produced by the `pipedream-ft` supervisor; quantifies the paper's
/// claim that epoch-boundary checkpointing bounds redone work to at most
/// one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// Human-readable description of the injected fault
    /// (e.g. `kill:stage=1,mb=37`).
    pub fault: String,
    /// Seconds from fault injection to the coordinator observing the
    /// failure (via peer errors, channel disconnects, or stalled
    /// heartbeats).
    pub detection_latency_s: f64,
    /// Epoch of the checkpoint the restarted run resumed from (`None`
    /// when no restart was needed — e.g. a delayed send that only slowed
    /// the run down).
    pub resumed_from_epoch: Option<usize>,
    /// Global minibatch the restarted run resumed at — the first
    /// minibatch it re-executed (`None` when no restart was needed).
    pub resumed_from_mb: Option<u64>,
    /// Epochs of work re-executed because they post-dated the last
    /// complete checkpoint. The paper's bound: ≤ 1 with per-epoch
    /// checkpoints.
    pub epochs_redone: usize,
    /// Minibatches of work re-executed: faulted minibatch + 1 minus the
    /// resume point's global minibatch. With `--checkpoint-every k` the
    /// bound tightens from ≤ 1 epoch to ≤ `k` minibatches (plus the
    /// pipeline's in-flight window).
    pub minibatches_redone: u64,
    /// Mid-epoch checkpoint interval the run used, if any.
    pub checkpoint_every: Option<u64>,
    /// Final training loss of the recovered run.
    pub final_loss: f32,
    /// Final training accuracy of the recovered run.
    pub final_accuracy: f32,
    /// Final loss of an identical run without the fault, when measured.
    pub baseline_loss: Option<f32>,
    /// Final accuracy of an identical run without the fault, when
    /// measured.
    pub baseline_accuracy: Option<f32>,
}

/// Verdict of one live reconfiguration's probation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigVerdict {
    /// The new plan beat the degraded baseline by the required margin and
    /// was kept.
    Committed,
    /// The new plan failed probation; the run rolled back to the previous
    /// plan from the same checkpoint.
    RolledBack,
}

impl std::fmt::Display for ReconfigVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigVerdict::Committed => write!(f, "Committed"),
            ReconfigVerdict::RolledBack => write!(f, "RolledBack"),
        }
    }
}

/// What one live reconfiguration did: which plan replaced which, how much
/// the pipeline stood still, how much work was redone, and whether the
/// probation window committed the new plan or rolled it back.
///
/// Produced by the `pipedream-autopilot` control loop and attached to the
/// final [`TrainReport`] (one record per reconfiguration attempt).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigReport {
    /// Compact label of the plan that was running when drift was
    /// confirmed (e.g. `"1-1-1-1"`).
    pub old_label: String,
    /// Compact label of the plan the pipeline switched to.
    pub new_label: String,
    /// `core::fingerprint` of the old pipeline configuration.
    pub old_plan_fingerprint: u64,
    /// `core::fingerprint` of the applied pipeline configuration —
    /// matchable against advisor reports and serve-cache entries.
    pub new_plan_fingerprint: u64,
    /// Epoch of the consistent checkpoint the pipeline drained to.
    pub drained_epoch: usize,
    /// Mid-epoch minibatch of the drain checkpoint (`None` when the drain
    /// landed exactly on an epoch boundary).
    pub drained_mb: Option<u64>,
    /// Wall-clock milliseconds the pipeline was not training: from the
    /// drain cut completing to the relaunched pipeline's first update.
    pub downtime_ms: f64,
    /// Minibatches re-executed because they post-dated the drain
    /// checkpoint (bounded by the checkpoint interval).
    pub minibatches_redone: u64,
    /// Measured throughput (samples/s) under the old plan before the
    /// reconfiguration — the degraded baseline the new plan must beat.
    pub throughput_before: f64,
    /// Throughput across the reconfiguration window itself (drain +
    /// checkpoint + relaunch), samples/s.
    pub throughput_during: f64,
    /// Measured throughput of the new plan over its probation window,
    /// samples/s.
    pub throughput_after: f64,
    /// Relative margin the new plan had to clear (`after ≥ before × (1 +
    /// margin)` to commit).
    pub probation_margin: f64,
    /// Probation outcome.
    pub verdict: ReconfigVerdict,
}

/// Output of a training run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// Per-epoch training metrics, in epoch order.
    pub per_epoch: Vec<EpochStats>,
    /// Forward-pass weight-version trace (pipeline modes only).
    pub version_trace: Vec<VersionRecord>,
    /// Per-minibatch training loss, in minibatch order (finer-grained than
    /// `per_epoch`; useful for convergence plots).
    pub per_minibatch: Vec<(u64, f32)>,
    /// Per-worker stash depth / staleness observations, sorted by
    /// (stage, replica). Empty for non-pipeline baselines.
    pub stage_obs: Vec<StageObsRecord>,
    /// Measured-vs-planned validation, attached by callers that diff a
    /// traced run against planner predictions (`repro trace-validate`).
    pub validation: Option<pipedream_obs::TraceValidation>,
    /// Wall-clock duration of the run in seconds.
    pub wall_time_s: f64,
    /// Fault-recovery record, when the run survived an injected fault.
    pub recovery: Option<RecoveryRecord>,
    /// The consistent checkpoint point this run drained to, when a
    /// [`crate::control::RunControl`] gate cut the run short of its
    /// scheduled length.
    pub drained_at: Option<crate::checkpoint::CheckpointPoint>,
    /// Live-reconfiguration records, one per autopilot attempt.
    pub reconfig: Vec<ReconfigReport>,
}

impl TrainReport {
    /// Final epoch's training accuracy (0 if no epochs ran).
    pub fn final_accuracy(&self) -> f32 {
        self.per_epoch.last().map(|e| e.accuracy).unwrap_or(0.0)
    }

    /// Final epoch's training loss (+∞ if no epochs ran).
    pub fn final_loss(&self) -> f32 {
        self.per_epoch
            .last()
            .map(|e| e.loss)
            .unwrap_or(f32::INFINITY)
    }

    /// First epoch whose accuracy reaches `target`, if any.
    pub fn epochs_to_accuracy(&self, target: f32) -> Option<usize> {
        self.per_epoch
            .iter()
            .find(|e| e.accuracy >= target)
            .map(|e| e.epoch + 1)
    }

    /// Versions used for minibatch `mb`'s forward pass, by stage.
    pub fn versions_for(&self, mb: u64) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self
            .version_trace
            .iter()
            .filter(|r| r.mb == mb)
            .map(|r| (r.stage, r.version))
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_to_accuracy_finds_first_crossing() {
        let r = TrainReport {
            per_epoch: vec![
                EpochStats {
                    epoch: 0,
                    loss: 1.0,
                    accuracy: 0.5,
                    samples: 10,
                },
                EpochStats {
                    epoch: 1,
                    loss: 0.5,
                    accuracy: 0.8,
                    samples: 10,
                },
                EpochStats {
                    epoch: 2,
                    loss: 0.4,
                    accuracy: 0.9,
                    samples: 10,
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.epochs_to_accuracy(0.75), Some(2));
        assert_eq!(r.epochs_to_accuracy(0.95), None);
        assert_eq!(r.final_accuracy(), 0.9);
    }

    #[test]
    fn versions_for_sorts_by_stage() {
        let r = TrainReport {
            version_trace: vec![
                VersionRecord {
                    stage: 1,
                    mb: 5,
                    version: 2,
                },
                VersionRecord {
                    stage: 0,
                    mb: 5,
                    version: 1,
                },
                VersionRecord {
                    stage: 0,
                    mb: 6,
                    version: 2,
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.versions_for(5), vec![(0, 1), (1, 2)]);
    }
}
