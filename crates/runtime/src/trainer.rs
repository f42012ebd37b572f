//! The top-level pipeline trainer: split a model into stages, wire up the
//! workers, run the static schedule, collect metrics, and reassemble the
//! trained model.

use crate::data::TrainData;
use crate::fault::{FaultHook, WorkerError};
use crate::message::{ActMsg, GradMsg, MetricMsg};
use crate::report::{EpochStats, StageObsRecord, TrainReport, VersionRecord};
use crate::sync::GradSyncGroup;
use crate::worker::StageWorker;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use pipedream_core::schedule::Schedule;
use pipedream_core::{PipelineConfig, ScheduleKind};
use pipedream_tensor::data::Dataset;
pub use pipedream_tensor::gemm::Backend;
use pipedream_tensor::{Adam, Layer, Optimizer, Sequential, Sgd};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Weight-versioning semantics for pipelined training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// PipeDream's default: weight stashing (§3.3).
    Stashed,
    /// Weight stashing + vertical sync (§3.3).
    VerticalSync,
    /// No stashing — the invalid-gradient strawman the paper warns about.
    Naive,
    /// GPipe-style microbatch groups with pipeline flushes (§5.4).
    GPipe {
        /// Microbatches per flush group.
        microbatches: u64,
    },
}

/// Learning-rate schedule applied per epoch (§5.1: "we adjust the learning
/// rate during training to converge faster … and utilize learning rate
/// warm-up for large global batch sizes").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant,
    /// Linear warm-up from `base/10` to `base` over the first `epochs`
    /// epochs.
    Warmup {
        /// Epochs of warm-up.
        epochs: usize,
    },
    /// Multiply the rate by `factor` every `every` epochs.
    StepDecay {
        /// Epoch interval between decays.
        every: usize,
        /// Multiplicative factor per decay (e.g. 0.1).
        factor: f32,
    },
}

impl LrSchedule {
    /// The learning rate in `epoch` given the base rate.
    pub fn lr_at(&self, base: f32, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::Warmup { epochs } => {
                if epoch >= epochs {
                    base
                } else {
                    base * (0.1 + 0.9 * (epoch as f32 + 1.0) / epochs as f32)
                }
            }
            LrSchedule::StepDecay { every, factor } => {
                base * factor.powi((epoch / every.max(1)) as i32)
            }
        }
    }
}

/// Optimizer configuration, buildable per stage replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimKind {
    /// SGD with optional momentum.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient (0 disables).
        momentum: f32,
    },
    /// Adam with standard betas.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

impl OptimKind {
    /// Instantiate the optimizer.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimKind::Sgd { lr, momentum } => Box::new(Sgd::with_momentum(lr, momentum, 0.0)),
            OptimKind::Adam { lr } => Box::new(Adam::new(lr)),
        }
    }

    /// The configured base learning rate.
    pub fn base_lr(&self) -> f32 {
        match *self {
            OptimKind::Sgd { lr, .. } | OptimKind::Adam { lr } => lr,
        }
    }
}

/// Training options.
#[derive(Debug, Clone)]
pub struct TrainOpts {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Optimizer.
    pub optim: OptimKind,
    /// Pipeline semantics.
    pub semantics: Semantics,
    /// Memory schedule variant: 2BW double-buffered weight updates and/or
    /// activation recomputation. Composes with [`Semantics::Stashed`]
    /// only; the default [`ScheduleKind::Vanilla1F1B`] is a no-op for
    /// every semantics.
    pub schedule: ScheduleKind,
    /// Per-epoch learning-rate schedule (§5.1).
    pub lr_schedule: LrSchedule,
    /// Per-stage checkpoint directory (§4), if any.
    pub checkpoint_dir: Option<PathBuf>,
    /// Also checkpoint every `k` minibatches mid-epoch (in addition to the
    /// epoch-boundary dumps), tightening the recovery redo bound from
    /// ≤ 1 epoch to ≤ `k` minibatches. Requires `checkpoint_dir`.
    pub checkpoint_every: Option<u64>,
    /// Resume from the last complete checkpoint in `checkpoint_dir` (§4:
    /// "restarting entails starting from the last successfully created
    /// checkpoint for all stages"): stage parameters are restored, epoch
    /// numbering continues after the checkpointed point, and — for a
    /// mid-epoch point — the dataloader seeks to the restored minibatch
    /// offset. `epochs` then counts the *remaining* passes, the first of
    /// which may be partial.
    pub resume: bool,
    /// Override the 1F1B in-flight depth (defaults to NOAM).
    pub depth: Option<usize>,
    /// Drain gate for live reconfiguration: when set, the run can be cut
    /// at a consistent minibatch boundary ([`crate::control::RunControl`])
    /// — every stage checkpoints at the cut and the report's
    /// [`TrainReport::drained_at`] names the resumable point. `None` (the
    /// default) costs one `Option` check per op.
    pub control: Option<Arc<crate::control::RunControl>>,
    /// Observability session: when set, every worker records typed spans
    /// (forward/backward/sync/stash/checkpoint/waits) into the session's
    /// per-track rings and the coordinator folds run totals into its
    /// metrics registry. `None` costs one branch per recording site.
    pub obs: Option<Arc<pipedream_obs::TraceSession>>,
    /// Compute-kernel backend every worker thread (and the sequential
    /// baseline) selects before training: the tiled GEMM/im2col kernels
    /// ([`Backend::Fast`], the default) or the seed scalar loops
    /// ([`Backend::Naive`]). The two backends are pinned to each other by
    /// `crates/tensor/tests/kernel_equiv.rs`: identical summation order
    /// (bit-for-bit on non-FMA builds) while the inner dimension fits one
    /// cache block, and ≤ 1e-5 relative drift from FMA single-rounding
    /// otherwise — the bound the kernel-swap loss guard asserts per epoch.
    pub kernel: Backend,
}

impl Default for TrainOpts {
    fn default() -> Self {
        TrainOpts {
            epochs: 5,
            batch: 16,
            optim: OptimKind::Sgd {
                lr: 0.05,
                momentum: 0.0,
            },
            semantics: Semantics::Stashed,
            schedule: ScheduleKind::Vanilla1F1B,
            lr_schedule: LrSchedule::Constant,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            depth: None,
            control: None,
            obs: None,
            kernel: Backend::Fast,
        }
    }
}

/// Pipeline training failed: one or more workers died.
///
/// Carries every worker's typed error (the injected fault first, when one
/// is present), the instant the coordinator first observed the failure
/// (for detection-latency measurements), and the partial training report
/// accumulated before the collapse.
#[derive(Debug)]
pub struct TrainError {
    /// All worker errors, injected faults sorted first.
    pub errors: Vec<WorkerError>,
    /// When the coordinator first saw evidence of the failure (a peer's
    /// failure report, or heartbeat silence).
    pub detected_at: Instant,
    /// Metrics gathered before the pipeline collapsed.
    pub partial: TrainReport,
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} worker(s) failed: ", self.errors.len())?;
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for TrainError {}

/// Coordinator-side polling interval when a fault hook is installed.
const DETECT_POLL: Duration = Duration::from_millis(50);
/// Heartbeat silence after which the coordinator presumes a failure.
const STALL_WINDOW: Duration = Duration::from_secs(2);
/// Production deadline for gradient-sync rounds on replicated stages.
/// Generous next to a round's microseconds of real work, but bounded: a
/// partner that dies without poisoning the group (e.g. SIGKILL of a real
/// process) can stall a round for at most this long before the survivors
/// fail typed instead of hanging. Fault hooks may tighten it via
/// [`FaultHook::sync_deadline`].
const SYNC_DEADLINE: Duration = Duration::from_secs(30);

/// Train `model` pipeline-parallel under `config` on `dataset`.
///
/// The model is split at the configuration's stage boundaries; each stage
/// replica runs on its own OS thread executing its slice of the 1F1B-RR
/// static schedule. Returns the trained model (reassembled from the
/// stages — replica 0 where replicated, which gradient sync keeps
/// identical to its peers) and the training report.
///
/// Panics if a worker fails; use [`try_train_pipeline`] for typed errors
/// and fault injection.
pub fn train_pipeline(
    model: Sequential,
    config: &PipelineConfig,
    dataset: &Dataset,
    opts: &TrainOpts,
) -> (Sequential, TrainReport) {
    match try_train_pipeline(model, config, dataset, opts, None) {
        Ok(out) => out,
        Err(e) => panic!("pipeline training failed: {e}"),
    }
}

/// Fallible [`train_pipeline`] with an optional fault-injection hook.
///
/// Worker failures — injected or organic — surface as a [`TrainError`]
/// after every surviving worker has been joined (a dead stage's channels
/// disconnect, cascading typed failures through its peers), so the caller
/// gets a fully-torn-down pipeline it can restart from the last complete
/// checkpoint (§4). This is the entry point the `pipedream-ft` supervisor
/// builds on.
// The Err variant carries the partial report a recovery needs; failures
// happen at most once per training run, so the size is irrelevant.
#[allow(clippy::result_large_err)]
pub fn try_train_pipeline(
    model: Sequential,
    config: &PipelineConfig,
    dataset: &Dataset,
    opts: &TrainOpts,
    hook: Option<Arc<dyn FaultHook>>,
) -> Result<(Sequential, TrainReport), TrainError> {
    config
        .validate(model.len())
        .expect("configuration does not match the model's layer count");
    let started = Instant::now();
    // Buffer-pool baseline: the fold at the end records this run's hit/miss
    // deltas (process-wide counters, so deltas isolate the run).
    let pool_start = pipedream_tensor::pool::global_stats();
    let stages = config.stages();

    // Resume: locate the last complete checkpoint point *before* building
    // the dataloader — a mid-epoch point seeks the data view to its
    // restored minibatch offset instead of replaying the epoch.
    let mut epoch_offset = 0usize;
    let mut mb_offset = 0usize;
    let mut resume_point = None;
    if opts.resume {
        let dir = opts
            .checkpoint_dir
            .as_ref()
            .expect("resume requires a checkpoint_dir");
        if let Some(point) = crate::checkpoint::latest_complete_point(dir, stages.len()) {
            epoch_offset = point.resume_epoch();
            mb_offset = point.mb_offset() as usize;
            resume_point = Some(point);
        }
    }

    let data = Arc::new(TrainData::with_start(
        dataset.clone(),
        opts.batch,
        mb_offset,
    ));
    // When resumed mid-epoch, `epochs` counts the remaining passes and the
    // first one is partial: the seeked-past minibatches come off the top.
    let total_mbs = (opts.epochs * data.minibatches_per_epoch() - mb_offset) as u64;

    // Configure the drain gate (if any) with the cut alignment — the lcm
    // of all replica counts, so a drained run leaves every replica of a
    // replicated stage with the same number of completed gradient-sync
    // rounds — and the run length the cut is clamped to.
    if let Some(gate) = &opts.control {
        gate.configure(config.replica_lcm(), total_mbs);
    }

    let schedule = match opts.semantics {
        Semantics::GPipe { microbatches } => Schedule::gpipe(config, total_mbs, microbatches),
        _ => match opts.depth {
            Some(d) => Schedule::with_depth(config, total_mbs, d),
            None => Schedule::one_f_one_b(config, total_mbs),
        },
    };
    schedule.validate().expect("generated schedule is legal");

    // Memory schedule variants compose with weight stashing only: 2BW
    // replaces the per-minibatch stash and recompute rebuilds the stash the
    // stashed-version backward consumes.
    assert!(
        opts.schedule == ScheduleKind::Vanilla1F1B || opts.semantics == Semantics::Stashed,
        "schedule kind {} requires Semantics::Stashed",
        opts.schedule
    );
    // 2BW gradient-accumulation group at the run's in-flight depth.
    let two_bw_group = config.two_bw_group(opts.depth.unwrap_or_else(|| config.noam()));

    // Publish the run's shape up front so live watchers (`train --watch`,
    // `pipedream top`) can compute progress and ETA without waiting for
    // the end-of-run metrics fold.
    if let Some(session) = &opts.obs {
        let metrics = session.metrics();
        metrics
            .gauge("train_total_minibatches")
            .set(total_mbs as f64);
        metrics.gauge("train_batch_size").set(opts.batch as f64);
        metrics
            .gauge("train_num_stages")
            .set(config.num_stages() as f64);
        // Index into ScheduleKind::all(); dashboards map it back to the
        // canonical name.
        metrics.gauge("train_schedule_kind").set(
            ScheduleKind::all()
                .iter()
                .position(|k| *k == opts.schedule)
                .unwrap_or(0) as f64,
        );
    }

    // Split the model into per-stage chunks, cloned per replica.
    let boundaries: Vec<usize> = stages[..stages.len() - 1]
        .iter()
        .map(|s| s.last_layer + 1)
        .collect();
    let mut stage_models = model.split_off(&boundaries);

    // Restore every stage from the resume point (§4: "restarting entails
    // starting from the last successfully created checkpoint for all
    // stages").
    if let Some(point) = resume_point {
        let dir = opts.checkpoint_dir.as_ref().expect("checked above");
        for (si, sm) in stage_models.iter_mut().enumerate() {
            let params = crate::checkpoint::load_stage_point(dir, si, point)
                .expect("complete checkpoint is loadable");
            sm.restore(&params);
        }
    }

    // Channels: one (fwd, grad) receiver pair per worker.
    let workers = config.total_workers();
    let mut fwd_tx: Vec<Sender<ActMsg>> = Vec::with_capacity(workers);
    let mut fwd_rx: Vec<Option<Receiver<ActMsg>>> = Vec::with_capacity(workers);
    let mut grad_tx: Vec<Sender<GradMsg>> = Vec::with_capacity(workers);
    let mut grad_rx: Vec<Option<Receiver<GradMsg>>> = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (ft, fr) = unbounded();
        let (gt, gr) = unbounded();
        fwd_tx.push(ft);
        fwd_rx.push(Some(fr));
        grad_tx.push(gt);
        grad_rx.push(Some(gr));
    }
    let (metrics_tx, metrics_rx) = unbounded::<MetricMsg>();

    let assignment = config.worker_assignment();
    let sync_deadline = hook
        .as_ref()
        .and_then(|h| h.sync_deadline())
        .unwrap_or(SYNC_DEADLINE);
    // One trace recorder per worker (disabled no-ops without a session).
    // A restarted run re-registers its workers and gets fresh timeline
    // rows, so a fault + recovery shows as two generations of tracks.
    let recorders: Vec<pipedream_obs::Recorder> = (0..workers)
        .map(|w| {
            let (stage, replica) = config.stage_of_worker(w);
            opts.obs
                .as_ref()
                .map(|s| s.stage_recorder(&format!("stage{stage}.replica{replica}"), stage))
                .unwrap_or_default()
        })
        .collect();
    let sync_groups: Vec<Option<Arc<GradSyncGroup>>> = stages
        .iter()
        .enumerate()
        .map(|(si, s)| {
            (s.replicas > 1).then(|| {
                let mut group = GradSyncGroup::with_deadline(s.replicas, sync_deadline);
                if opts.obs.is_some() {
                    group = group.with_recorders(
                        assignment[si]
                            .iter()
                            .map(|&w| recorders[w].clone())
                            .collect(),
                    );
                }
                Arc::new(group)
            })
        })
        .collect();

    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let (stage, replica) = config.stage_of_worker(w);
        let fwd_out = if stage + 1 < stages.len() {
            assignment[stage + 1]
                .iter()
                .map(|&d| fwd_tx[d].clone())
                .collect()
        } else {
            Vec::new()
        };
        let grad_out = if stage > 0 {
            assignment[stage - 1]
                .iter()
                .map(|&d| grad_tx[d].clone())
                .collect()
        } else {
            Vec::new()
        };
        let worker = StageWorker {
            stage,
            replica,
            worker_id: w,
            num_stages: stages.len(),
            model: stage_models[stage].clone(),
            ops: schedule.workers[w].ops.clone(),
            semantics: opts.semantics,
            schedule_kind: opts.schedule,
            two_bw_group,
            stage_replicas: stages[stage].replicas,
            total_mbs,
            optim: opts.optim,
            fwd_in: if stage == 0 { None } else { fwd_rx[w].take() },
            grad_in: if stage + 1 == stages.len() {
                None
            } else {
                grad_rx[w].take()
            },
            fwd_out,
            grad_out,
            sync: sync_groups[stage].clone(),
            metrics: metrics_tx.clone(),
            data: Arc::clone(&data),
            checkpoint_dir: opts.checkpoint_dir.clone(),
            checkpoint_every: opts.checkpoint_every,
            epoch_offset,
            lr_schedule: opts.lr_schedule,
            recorder: recorders[w].clone(),
            hook: hook.clone(),
            control: opts.control.clone(),
            kernel: opts.kernel,
        };
        handles.push(thread::spawn(move || worker.run()));
    }
    // Drop our clones so the metrics channel closes when workers finish.
    drop(metrics_tx);
    drop(fwd_tx);
    drop(grad_tx);

    // Aggregate metrics. With a fault hook installed the loop also plays
    // failure detector: it timestamps the first failure report and treats
    // prolonged heartbeat silence as a presumed failure (§4).
    let mut epoch_acc: HashMap<usize, (f64, usize, usize)> = HashMap::new(); // loss-sum, correct, count
    let mut version_trace = Vec::new();
    let mut stage_obs: Vec<StageObsRecord> = Vec::new();
    let mut per_minibatch: Vec<(u64, f32)> = Vec::new();
    let mut heartbeats: HashMap<usize, u64> = HashMap::new();
    let mut first_failure: Option<Instant> = None;
    let mut handle_msg = |msg: MetricMsg, first_failure: &mut Option<Instant>| match msg {
        MetricMsg::Loss {
            mb,
            loss,
            correct,
            count,
        } => {
            let e = data.epoch_of(mb);
            let entry = epoch_acc.entry(e).or_default();
            entry.0 += loss as f64 * count as f64;
            entry.1 += correct;
            entry.2 += count;
            per_minibatch.push((mb, loss));
        }
        MetricMsg::FwdVersion { stage, mb, version } => {
            version_trace.push(VersionRecord { stage, mb, version });
        }
        MetricMsg::StageObs(o) => stage_obs.push(o),
        MetricMsg::Heartbeat { worker, ops_done } => {
            heartbeats.insert(worker, ops_done);
        }
        MetricMsg::Failure { .. } => {
            first_failure.get_or_insert_with(Instant::now);
        }
    };
    if hook.is_some() {
        let mut last_sign_of_life = Instant::now();
        loop {
            match metrics_rx.recv_timeout(DETECT_POLL) {
                Ok(msg) => {
                    last_sign_of_life = Instant::now();
                    handle_msg(msg, &mut first_failure);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if first_failure.is_none() && last_sign_of_life.elapsed() >= STALL_WINDOW {
                        // Heartbeats stopped without the run finishing:
                        // presume a failure even before peers report one.
                        first_failure = Some(Instant::now());
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    } else {
        for msg in metrics_rx.iter() {
            handle_msg(msg, &mut first_failure);
        }
    }

    // Reassemble the trained model: take each stage's replica-0 result.
    let mut stage_results: Vec<Option<Sequential>> = (0..stages.len()).map(|_| None).collect();
    let mut worker_errors: Vec<WorkerError> = Vec::new();
    for (w, h) in handles.into_iter().enumerate() {
        match h.join().expect("worker thread panicked") {
            Ok(trained) => {
                let (stage, replica) = config.stage_of_worker(w);
                if replica == 0 {
                    stage_results[stage] = Some(trained);
                }
            }
            Err(e) => worker_errors.push(e),
        }
    }

    let mut per_epoch: Vec<EpochStats> = epoch_acc
        .into_iter()
        .map(|(epoch, (loss_sum, correct, count))| EpochStats {
            epoch: epoch + epoch_offset,
            loss: (loss_sum / count.max(1) as f64) as f32,
            accuracy: correct as f32 / count.max(1) as f32,
            samples: count,
        })
        .collect();
    per_epoch.sort_by_key(|e| e.epoch);
    version_trace.sort_by_key(|r| (r.mb, r.stage));
    stage_obs.sort_by_key(|o| (o.stage, o.replica));
    per_minibatch.sort_by_key(|&(mb, _)| mb);
    // A drain that cut the run short of its scheduled length names the
    // consistent checkpoint point the caller can resume from. A cut at
    // the natural end means the drain arrived too late to truncate
    // anything — the run simply completed.
    let drained_at = opts
        .control
        .as_ref()
        .and_then(|g| g.cut())
        .filter(|&c| c > 0 && c < total_mbs)
        .map(|c| {
            let last = c - 1;
            let epoch = data.epoch_of(last) + epoch_offset;
            if data.is_epoch_end(last) {
                crate::checkpoint::CheckpointPoint::EpochEnd { epoch }
            } else {
                crate::checkpoint::CheckpointPoint::MidEpoch {
                    epoch,
                    mb: data.mb_in_epoch(last),
                }
            }
        });
    let report = TrainReport {
        per_epoch,
        version_trace,
        per_minibatch,
        stage_obs,
        wall_time_s: started.elapsed().as_secs_f64(),
        drained_at,
        ..TrainReport::default()
    };

    // Fold run totals into the observability session's registry: overall
    // throughput, per-stage busy/bubble fractions, span histograms, and
    // the stash/staleness peaks the workers reported.
    if let Some(session) = &opts.obs {
        let metrics = session.metrics();
        metrics
            .counter("minibatches_total")
            .add(report.per_minibatch.len() as u64);
        let samples: usize = report.per_epoch.iter().map(|e| e.samples).sum();
        if report.wall_time_s > 0.0 {
            metrics
                .gauge("throughput_samples_per_sec")
                .set(samples as f64 / report.wall_time_s);
        }
        for o in &report.stage_obs {
            metrics
                .gauge(&format!("stage{}_stash_depth_max", o.stage))
                .set_max(o.stash_depth_max as f64);
            metrics
                .gauge(&format!("stage{}_staleness_max", o.stage))
                .set_max(o.staleness_max as f64);
            metrics
                .gauge(&format!("stage{}_versions_held", o.stage))
                .set_max(o.versions_held_max as f64);
            metrics
                .gauge(&format!("stage{}_activation_bytes", o.stage))
                .set_max(o.activation_bytes_max as f64);
            metrics
                .gauge(&format!("stage{}_recompute_ms", o.stage))
                .set_max(o.recompute_us as f64 / 1000.0);
        }
        let pool_end = pipedream_tensor::pool::global_stats();
        pipedream_obs::record_pool_metrics(
            metrics,
            pool_end.hits.saturating_sub(pool_start.hits),
            pool_end.misses.saturating_sub(pool_start.misses),
        );
        pipedream_obs::record_snapshot_metrics(metrics, &session.snapshot());
    }

    if !worker_errors.is_empty() {
        // Injected faults first, so `errors[0]` names the root cause.
        worker_errors.sort_by_key(|e| (!e.is_injected(), e.stage()));
        return Err(TrainError {
            errors: worker_errors,
            detected_at: first_failure.unwrap_or_else(Instant::now),
            partial: report,
        });
    }

    let mut full = Sequential::new("trained");
    for sr in stage_results.into_iter() {
        for layer in sr.expect("every stage returned").into_layers() {
            full.push_boxed(layer);
        }
    }
    Ok((full, report))
}

/// Classification accuracy of `model` on `dataset` (forward only).
pub fn evaluate(model: &mut Sequential, dataset: &Dataset, batch: usize) -> f32 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for i in 0..dataset.num_minibatches(batch) {
        let (x, y) = dataset.minibatch(i, batch);
        let out = model.forward(&x, u64::MAX - i as u64);
        model.clear_slots();
        for (pred, &label) in out.argmax_rows().iter().zip(y.iter()) {
            if *pred == label {
                correct += 1;
            }
        }
        total += y.len();
    }
    correct as f32 / total.max(1) as f32
}
