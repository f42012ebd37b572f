//! A pipeline-stage worker thread.
//!
//! Each worker owns one replica of one stage's layers and executes its
//! static 1F1B-RR op sequence: receive an activation, run the stage
//! forward, ship the output downstream; receive a gradient, run the stage
//! backward with the correct weight version, synchronize gradients across
//! replicas if the stage is replicated, apply the update, ship the input
//! gradient upstream. The op *order* comes from
//! [`pipedream_core::schedule::Schedule`]; the worker blocks on channels
//! when data has not arrived yet, exactly like PipeDream's runtime blocks
//! on its work queues (§4).
//!
//! Failures are *typed*: instead of panicking, a worker that loses a peer
//! (or is killed by an installed [`FaultHook`]) returns a
//! [`WorkerError`] through its join handle and, unless silently killed,
//! announces the failure on the metrics channel so the coordinator can
//! react (§4's failure detection + checkpoint restart).

use crate::checkpoint;
use crate::control::{RunControl, DRAIN_POLL};
use crate::data::TrainData;
use crate::fault::{FaultAction, FaultHook, SendAction, WorkerError};
use crate::message::{ActMsg, GradMsg, MetricMsg};
use crate::sync::GradSyncGroup;
use crate::trainer::{LrSchedule, OptimKind, Semantics};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use pipedream_core::schedule::Op;
use pipedream_core::stash::{ScheduleKind, TwoBwStash, VersionedStore, WeightStash};
use pipedream_obs::{Recorder, SpanKind};
use pipedream_tensor::{softmax_cross_entropy, Layer, Sequential, Tensor};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Ops between heartbeat messages (only sent when a fault hook is
/// installed).
const HEARTBEAT_EVERY: usize = 16;

/// Everything a stage worker needs to run.
pub struct StageWorker {
    /// Stage index in the pipeline.
    pub stage: usize,
    /// Replica index within the stage.
    pub replica: usize,
    /// Global worker id (for heartbeats).
    pub worker_id: usize,
    /// Total pipeline stages.
    pub num_stages: usize,
    /// This replica's copy of the stage layers.
    pub model: Sequential,
    /// Static op sequence for this worker.
    pub ops: Vec<Op>,
    /// Execution semantics (stashing / naive / vertical sync / GPipe).
    pub semantics: Semantics,
    /// Memory schedule variant (2BW double-buffered updates, activation
    /// recomputation). Only meaningful under [`Semantics::Stashed`].
    pub schedule_kind: ScheduleKind,
    /// 2BW gradient-accumulation group size, in minibatches (a multiple of
    /// every stage's replica count, ≥ the pipeline's in-flight depth).
    pub two_bw_group: u64,
    /// Replica count of this worker's own stage (group-end detection).
    pub stage_replicas: usize,
    /// Total minibatches the run schedules (partial-final-group handling).
    pub total_mbs: u64,
    /// Optimizer configuration.
    pub optim: OptimKind,
    /// Activations from upstream (None for the input stage).
    pub fwd_in: Option<Receiver<ActMsg>>,
    /// Gradients from downstream (None for the output stage).
    pub grad_in: Option<Receiver<GradMsg>>,
    /// Senders to each replica of the next stage (empty for the output
    /// stage).
    pub fwd_out: Vec<Sender<ActMsg>>,
    /// Senders to each replica of the previous stage (empty for the input
    /// stage).
    pub grad_out: Vec<Sender<GradMsg>>,
    /// Gradient sync group (replicated stages only).
    pub sync: Option<Arc<GradSyncGroup>>,
    /// Metric events to the coordinator.
    pub metrics: Sender<MetricMsg>,
    /// Dataset view (inputs for stage 0, labels for the last stage).
    pub data: Arc<TrainData>,
    /// Checkpoint directory (replica 0 dumps at epoch boundaries).
    pub checkpoint_dir: Option<PathBuf>,
    /// Also checkpoint every `k` minibatches mid-epoch (tightens the §4
    /// redo bound from ≤ 1 epoch to ≤ `k` minibatches).
    pub checkpoint_every: Option<u64>,
    /// Epoch-number offset when resuming from a checkpoint.
    pub epoch_offset: usize,
    /// Per-epoch learning-rate schedule.
    pub lr_schedule: LrSchedule,
    /// Trace recorder for this worker's track. Disabled (a no-op branch
    /// per use, like the fault hook seam) unless a `TraceSession` is
    /// attached to the run.
    pub recorder: Recorder,
    /// Fault-injection hook, if any. `None` in production runs: the
    /// fault-free path costs one `Option` check per op.
    pub hook: Option<Arc<dyn FaultHook>>,
    /// Drain gate shared across the run, if the caller may cut the run at
    /// a consistent minibatch boundary (see [`crate::control`]). `None`
    /// costs one `Option` check per op; when present, channel receives
    /// poll at [`DRAIN_POLL`] so a worker parked on a cut minibatch wakes
    /// up and skips it.
    pub control: Option<Arc<RunControl>>,
    /// Compute-kernel backend this worker selects for its thread before
    /// executing any ops (kernel dispatch is thread-local).
    pub kernel: pipedream_tensor::gemm::Backend,
}

/// The weight versions a stage keeps besides the live weights in its
/// model, which are always the latest version. Each store holds its own
/// copy of the latest, made at each update (§3.3's one copy per update),
/// and pins older versions for in-flight minibatches.
enum Versions {
    /// Stashed semantics: one version per in-flight minibatch.
    Stash(WeightStash<Vec<Tensor>>),
    /// Stashed semantics under 2BW: double-buffered generations.
    TwoBw(TwoBwStash<Vec<Tensor>>),
    /// Vertical sync: versions named by the input stage's tags.
    Vertical(VersionedStore<Vec<Tensor>>),
    /// Naive and GPipe: the live weights are the only version.
    Live,
}

/// Per-run mutable state.
struct WorkerState {
    optimizer: Box<dyn pipedream_tensor::Optimizer>,
    /// Older weight versions pinned by in-flight minibatches.
    versions: Versions,
    /// Backward passes accumulated into the current 2BW group.
    two_bw_grads: u32,
    /// Recompute: retained stage inputs per in-flight minibatch — the only
    /// activation state kept between a minibatch's forward and backward.
    saved_inputs: HashMap<u64, Tensor>,
    /// Loss gradients awaiting the backward op (output stage only).
    pending_loss_grad: HashMap<u64, Tensor>,
    /// Buffered out-of-order arrivals.
    act_buffer: HashMap<u64, ActMsg>,
    grad_buffer: HashMap<u64, GradMsg>,
    /// Updates applied so far (the worker's local version counter).
    updates: u64,
    /// Backward passes since the last flush (GPipe gradient aggregation).
    since_flush: u32,
    /// Receive timeout from the fault hook (None = block forever).
    recv_timeout: Option<Duration>,
    /// Peak in-flight minibatches holding a stashed weight version.
    stash_depth_max: usize,
    /// Peak distinct weight snapshots held at once.
    versions_held_max: usize,
    /// Peak updates applied between a minibatch's forward version and its
    /// backward pass (§3.3 staleness). Under 2BW the unit is group
    /// updates (generations).
    staleness_max: u64,
    /// Peak bytes of live activation state (layer stashes + retained
    /// recompute inputs + pending loss gradients), sampled after every
    /// forward and recompute pass.
    activation_bytes_max: u64,
    /// Total microseconds spent re-running forward passes before backward
    /// (recompute kinds only).
    recompute_us: u64,
}

/// Outcome of one channel-receive attempt (see [`StageWorker::recv_step`]).
enum RecvStep<T> {
    /// A message arrived (possibly for a different minibatch).
    Msg(T),
    /// A drain cut the awaited minibatch; the caller skips its op.
    Drained,
    /// The peer's channel disconnected.
    Lost,
}

impl StageWorker {
    /// Run the worker to completion; returns the trained stage model, or
    /// the typed error it died with. All failures except a silent
    /// [`WorkerError::Killed`] are also announced on the metrics channel.
    ///
    /// A dying worker of a *replicated* stage poisons its gradient-sync
    /// group first — even on a silent kill, standing in for the broken
    /// transport a real machine failure produces — so partners blocked in
    /// `allreduce` wake with [`WorkerError::SyncStalled`] instead of
    /// waiting for a contribution that will never arrive.
    pub fn run(self) -> Result<Sequential, WorkerError> {
        let stage = self.stage;
        let replica = self.replica;
        let metrics = self.metrics.clone();
        let sync = self.sync.clone();
        let recorder = self.recorder.clone();
        let result = self.run_inner();
        if let Err(e) = &result {
            // The death shows on this worker's own timeline track, so a
            // fault-injected kill is visible next to the spans around it.
            recorder.instant(SpanKind::Fault);
            if let Some(group) = &sync {
                group.poison(replica);
            }
            if !e.is_injected() {
                let _ = metrics.send(MetricMsg::Failure {
                    stage,
                    replica,
                    message: e.to_string(),
                });
            }
        }
        result
    }

    fn run_inner(mut self) -> Result<Sequential, WorkerError> {
        pipedream_tensor::gemm::set_thread_backend(self.kernel);
        self.model.zero_grad();
        let mut st = WorkerState {
            optimizer: self.optim.build(),
            versions: match self.semantics {
                Semantics::Stashed if self.schedule_kind.uses_two_bw() => Versions::TwoBw(
                    TwoBwStash::new(self.two_bw_group as usize, self.model.snapshot()),
                ),
                Semantics::Stashed => Versions::Stash(WeightStash::new(self.model.snapshot())),
                Semantics::VerticalSync => {
                    Versions::Vertical(VersionedStore::new(self.model.snapshot()))
                }
                Semantics::Naive | Semantics::GPipe { .. } => Versions::Live,
            },
            two_bw_grads: 0,
            saved_inputs: HashMap::new(),
            pending_loss_grad: HashMap::new(),
            act_buffer: HashMap::new(),
            grad_buffer: HashMap::new(),
            updates: 0,
            since_flush: 0,
            recv_timeout: self.hook.as_ref().and_then(|h| h.recv_timeout()),
            stash_depth_max: 0,
            versions_held_max: 0,
            staleness_max: 0,
            activation_bytes_max: 0,
            recompute_us: 0,
        };
        let ops = std::mem::take(&mut self.ops);
        for (ops_done, op) in ops.into_iter().enumerate() {
            if let Some(hook) = &self.hook {
                if hook.before_op(self.stage, self.replica, &op) == FaultAction::Kill {
                    // Die like a crashed machine: no farewell message.
                    return Err(WorkerError::Killed {
                        stage: self.stage,
                        replica: self.replica,
                        mb: op.minibatch().unwrap_or(u64::MAX),
                    });
                }
                if ops_done.is_multiple_of(HEARTBEAT_EVERY) {
                    let _ = self.metrics.send(MetricMsg::Heartbeat {
                        worker: self.worker_id,
                        ops_done: ops_done as u64,
                    });
                }
            }
            // Drain gate: the input stage asks to admit each minibatch's
            // forward (fixing the cut when a drain is pending); everyone
            // else skips any op whose minibatch fell at or beyond the cut.
            if let Some(gate) = &self.control {
                let skip = match op {
                    Op::Forward { mb } if self.stage == 0 => !gate.admit(mb),
                    Op::Forward { mb } | Op::Backward { mb } => gate.skipped(mb),
                    Op::Flush => false,
                };
                if skip {
                    continue;
                }
            }
            match op {
                Op::Forward { mb } => {
                    let span = self.recorder.begin();
                    let r = self.forward(&mut st, mb);
                    self.recorder
                        .end_in_epoch(span, SpanKind::Fwd { mb }, self.trace_epoch(mb));
                    r?
                }
                Op::Backward { mb } => {
                    let span = self.recorder.begin();
                    let r = self.backward(&mut st, mb);
                    self.recorder
                        .end_in_epoch(span, SpanKind::Bwd { mb }, self.trace_epoch(mb));
                    r?
                }
                Op::Flush => self.flush(&mut st)?,
            }
        }
        // A drained run ends here with every stage having processed the
        // exact same minibatch prefix; replica 0 of each stage dumps a
        // checkpoint at the cut so the caller gets a consistent (epoch,
        // mb) state to repartition and resume from. Idempotent with the
        // periodic checkpoints (atomic rename of identical content).
        if let Some(gate) = &self.control {
            if self.replica == 0 {
                if let (Some(dir), Some(cut)) = (&self.checkpoint_dir, gate.cut()) {
                    if cut > 0 {
                        let last = cut - 1;
                        let epoch = self.data.epoch_of(last) + self.epoch_offset;
                        let span = self.recorder.begin();
                        let snap = self.model.snapshot();
                        if self.data.is_epoch_end(last) {
                            checkpoint::save_stage(dir, self.stage, epoch, &snap)
                        } else {
                            checkpoint::save_stage_at(
                                dir,
                                self.stage,
                                epoch,
                                self.data.mb_in_epoch(last),
                                &snap,
                            )
                        }
                        .map_err(|e| WorkerError::CheckpointWrite {
                            stage: self.stage,
                            epoch,
                            message: e.to_string(),
                        })?;
                        self.recorder
                            .end_in_epoch(span, SpanKind::Checkpoint, epoch as u32);
                    }
                }
            }
        }
        // Report peak stash depth / staleness so the coordinator can check
        // the §3.3 memory and staleness formulas against a real run.
        let _ = self
            .metrics
            .send(MetricMsg::StageObs(crate::report::StageObsRecord {
                stage: self.stage,
                replica: self.replica,
                stash_depth_max: st.stash_depth_max,
                versions_held_max: st.versions_held_max,
                staleness_max: st.staleness_max,
                activation_bytes_max: st.activation_bytes_max,
                recompute_us: st.recompute_us,
            }));
        Ok(self.model)
    }

    /// Receive the activation for `mb`. `Ok(None)` means a drain cut the
    /// minibatch while this worker was already inside its forward op — the
    /// op must be skipped (upstream will never send it).
    fn recv_act(&self, st: &mut WorkerState, mb: u64) -> Result<Option<ActMsg>, WorkerError> {
        if let Some(m) = st.act_buffer.remove(&mb) {
            return Ok(Some(m));
        }
        let rx = self.fwd_in.as_ref().expect("non-input stage has fwd_in");
        // The blocking path: record it as a `RecvWait` span (nested inside
        // the surrounding forward span on this worker's track).
        let wait = self.recorder.begin();
        let result = (|| loop {
            match self.recv_step(rx, st.recv_timeout, mb)? {
                RecvStep::Msg(m) => {
                    if m.mb == mb {
                        return Ok(Some(m));
                    }
                    st.act_buffer.insert(m.mb, m);
                }
                RecvStep::Drained => return Ok(None),
                RecvStep::Lost => {
                    return Err(WorkerError::UpstreamLost {
                        stage: self.stage,
                        mb,
                    })
                }
            }
        })();
        self.recorder
            .end_in_epoch(wait, SpanKind::RecvWait { mb }, self.trace_epoch(mb));
        result
    }

    /// Receive the gradient for `mb`; `Ok(None)` as in
    /// [`StageWorker::recv_act`].
    fn recv_grad(&self, st: &mut WorkerState, mb: u64) -> Result<Option<GradMsg>, WorkerError> {
        if let Some(m) = st.grad_buffer.remove(&mb) {
            return Ok(Some(m));
        }
        let rx = self.grad_in.as_ref().expect("non-output stage has grad_in");
        let wait = self.recorder.begin();
        let result = (|| loop {
            match self.recv_step(rx, st.recv_timeout, mb)? {
                RecvStep::Msg(m) => {
                    if m.mb == mb {
                        return Ok(Some(m));
                    }
                    st.grad_buffer.insert(m.mb, m);
                }
                RecvStep::Drained => return Ok(None),
                RecvStep::Lost => {
                    return Err(WorkerError::DownstreamLost {
                        stage: self.stage,
                        mb,
                    })
                }
            }
        })();
        self.recorder
            .end_in_epoch(wait, SpanKind::RecvWait { mb }, self.trace_epoch(mb));
        result
    }

    /// Epoch identity for a minibatch's trace spans (0 for synthetic ids
    /// like the GPipe flush's `u64::MAX`).
    fn trace_epoch(&self, mb: u64) -> u32 {
        if mb == u64::MAX {
            return 0;
        }
        (self.data.epoch_of(mb) + self.epoch_offset) as u32
    }

    /// One receive attempt under the combined fault-hook / drain-gate
    /// timeout policy. Without a gate this is the original behavior:
    /// block forever (no hook timeout) or fail [`WorkerError::Stalled`]
    /// after the hook timeout. With a gate installed the wait polls at
    /// [`DRAIN_POLL`] (capped by any shorter hook timeout) so a drain cut
    /// can interrupt it; a hook timeout longer than one poll tick still
    /// fires once the cumulative quiet time reaches it.
    fn recv_step<T>(
        &self,
        rx: &Receiver<T>,
        hook_timeout: Option<Duration>,
        mb: u64,
    ) -> Result<RecvStep<T>, WorkerError> {
        let Some(gate) = &self.control else {
            return match hook_timeout {
                None => match rx.recv() {
                    Ok(m) => Ok(RecvStep::Msg(m)),
                    Err(_) => Ok(RecvStep::Lost),
                },
                Some(t) => match rx.recv_timeout(t) {
                    Ok(m) => Ok(RecvStep::Msg(m)),
                    Err(RecvTimeoutError::Timeout) => Err(WorkerError::Stalled {
                        stage: self.stage,
                        mb,
                    }),
                    Err(RecvTimeoutError::Disconnected) => Ok(RecvStep::Lost),
                },
            };
        };
        if gate.skipped(mb) {
            return Ok(RecvStep::Drained);
        }
        let poll = hook_timeout.unwrap_or(DRAIN_POLL).min(DRAIN_POLL);
        let deadline = hook_timeout.map(|t| std::time::Instant::now() + t);
        loop {
            match rx.recv_timeout(poll) {
                Ok(m) => return Ok(RecvStep::Msg(m)),
                Err(RecvTimeoutError::Timeout) => {
                    if gate.skipped(mb) {
                        return Ok(RecvStep::Drained);
                    }
                    if let Some(d) = deadline {
                        if std::time::Instant::now() >= d {
                            return Err(WorkerError::Stalled {
                                stage: self.stage,
                                mb,
                            });
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // A drained peer exits after its last admitted op,
                    // possibly while this worker is already blocked on a
                    // cut minibatch. Buffered messages are delivered
                    // before the disconnect is reported, so a clean peer
                    // exit plus a missing message means the minibatch
                    // fell past the cut — not a failure.
                    return if gate.skipped(mb) {
                        Ok(RecvStep::Drained)
                    } else {
                        Ok(RecvStep::Lost)
                    };
                }
            }
        }
    }

    fn forward(&mut self, st: &mut WorkerState, mb: u64) -> Result<(), WorkerError> {
        let (input, mut version_tag) = if self.stage == 0 {
            (self.data.input(mb), 0)
        } else {
            match self.recv_act(st, mb)? {
                Some(msg) => (msg.data, msg.version_tag),
                // Drained mid-wait: the minibatch was cut, skip the op.
                None => return Ok(()),
            }
        };

        // Select the weight version for this forward pass: `None` is the
        // latest, which the model already holds.
        let (pinned, version) = match &mut st.versions {
            Versions::TwoBw(s2) => {
                let w = s2.begin_forward(mb);
                let gen = s2.generation_of(mb);
                st.stash_depth_max = st.stash_depth_max.max(s2.in_flight());
                st.versions_held_max = st.versions_held_max.max(s2.versions_held());
                self.recorder
                    .instant_in_epoch(SpanKind::StashPush { mb }, self.trace_epoch(mb));
                ((gen != s2.latest_generation()).then_some(w), gen)
            }
            Versions::Stash(stash) => {
                // Latest weights; remember them for the backward pass.
                stash.begin_forward(mb);
                st.stash_depth_max = st.stash_depth_max.max(stash.in_flight());
                st.versions_held_max = st.versions_held_max.max(stash.versions_held());
                self.recorder
                    .instant_in_epoch(SpanKind::StashPush { mb }, self.trace_epoch(mb));
                (None, stash.version())
            }
            Versions::Vertical(store) => {
                if self.stage == 0 {
                    version_tag = store.latest_version();
                }
                // Every stage runs the minibatch under the version the
                // input stage tagged it with.
                let w =
                    store
                        .begin_forward(mb, version_tag)
                        .ok_or(WorkerError::VersionMissing {
                            stage: self.stage,
                            mb,
                            version: version_tag,
                        })?;
                st.stash_depth_max = st.stash_depth_max.max(store.in_flight());
                st.versions_held_max = st.versions_held_max.max(store.versions_held());
                (
                    (version_tag != store.latest_version()).then_some(w),
                    version_tag,
                )
            }
            Versions::Live => (None, st.updates),
        };
        let _ = self.metrics.send(MetricMsg::FwdVersion {
            stage: self.stage,
            mb,
            version,
        });

        let out = self.under_version(pinned, |w| w.model.forward(&input, mb));
        if self.recomputes() {
            // Drop the per-layer activation stash now; only the stage
            // input is retained, from which a second forward pass rebuilds
            // the stash right before this minibatch's backward.
            self.model.clear_slot(mb);
            st.saved_inputs.insert(mb, input);
        } else {
            // The stage's layers saved their own copies; the inbound
            // activation (or dataset minibatch) is dead — pool its buffer.
            input.recycle();
        }
        st.activation_bytes_max = st.activation_bytes_max.max(self.live_activation_bytes(st));

        if self.stage + 1 < self.num_stages {
            match self
                .hook
                .as_ref()
                .map_or(SendAction::Deliver, |h| h.on_forward_send(self.stage, mb))
            {
                SendAction::Deliver => {}
                SendAction::Delay(d) => {
                    // An injected straggler delay stalls this worker's send
                    // path; record it so the analyzer can attribute the
                    // downstream wait to this stage's backpressure.
                    let stall = self.recorder.begin();
                    std::thread::sleep(d);
                    self.recorder.end_in_epoch(
                        stall,
                        SpanKind::SendWait { mb },
                        self.trace_epoch(mb),
                    );
                }
                SendAction::Drop => return Ok(()), // lost on the wire
            }
            let dst = (mb % self.fwd_out.len() as u64) as usize;
            self.fwd_out[dst]
                .send(ActMsg {
                    mb,
                    version_tag,
                    data: out,
                })
                .map_err(|_| WorkerError::PeerSendFailed {
                    stage: self.stage,
                    mb,
                    backward: false,
                })?;
        } else {
            // Output stage: compute the loss now; the gradient is consumed
            // by this minibatch's backward op.
            let labels = self.data.labels(mb);
            let loss = softmax_cross_entropy(&out, &labels);
            out.recycle();
            let _ = self.metrics.send(MetricMsg::Loss {
                mb,
                loss: loss.loss,
                correct: loss.correct,
                count: labels.len(),
            });
            st.pending_loss_grad.insert(mb, loss.grad);
        }
        Ok(())
    }

    fn backward(&mut self, st: &mut WorkerState, mb: u64) -> Result<(), WorkerError> {
        // Apply the epoch's learning rate before the update lands.
        let epoch = self.data.epoch_of(mb) + self.epoch_offset;
        st.optimizer
            .set_learning_rate(self.lr_schedule.lr_at(self.optim.base_lr(), epoch));
        let grad_out = if self.stage + 1 == self.num_stages {
            match st.pending_loss_grad.remove(&mb) {
                Some(g) => g,
                // The forward op was cut mid-wait by a drain, so no loss
                // gradient exists; the backward is skipped too.
                None if self.control.as_ref().is_some_and(|g| g.skipped(mb)) => return Ok(()),
                None => panic!("loss gradient pending from forward"),
            }
        } else {
            match self.recv_grad(st, mb)? {
                Some(m) => m.data,
                None => return Ok(()),
            }
        };

        // Run the backward pass against the weight version the paper's
        // semantics prescribe: the one this minibatch's forward used.
        let pinned = match &mut st.versions {
            Versions::TwoBw(s2) => {
                let (gen, latest) = (s2.generation_of(mb), s2.latest_generation());
                st.staleness_max = st.staleness_max.max(latest.saturating_sub(gen));
                let w = s2.complete_backward(mb);
                self.recorder
                    .instant_in_epoch(SpanKind::StashPop { mb }, self.trace_epoch(mb));
                (gen != latest).then_some(w)
            }
            Versions::Stash(stash) => {
                // Staleness this minibatch saw: updates applied since its
                // forward pinned a version (§3.3: `n − 1 − stage` in
                // steady state).
                let version = stash.version_for(mb);
                st.staleness_max = st
                    .staleness_max
                    .max(stash.version().saturating_sub(version));
                let w = stash.complete_backward(mb);
                self.recorder
                    .instant_in_epoch(SpanKind::StashPop { mb }, self.trace_epoch(mb));
                (version != stash.version()).then_some(w)
            }
            Versions::Vertical(store) => {
                let tag = store.version_of(mb).ok_or(WorkerError::VersionMissing {
                    stage: self.stage,
                    mb,
                    version: st.updates,
                })?;
                st.staleness_max = st
                    .staleness_max
                    .max(store.latest_version().saturating_sub(tag));
                let w = store.complete_backward(mb);
                (tag != store.latest_version()).then_some(w)
            }
            // Naive: invalid gradients — backward with whatever the
            // weights are *now*, which generally differ from the
            // forward's. GPipe: weights only change at flushes.
            Versions::Live => None,
        };
        // Gradients are zero here: the worker clears them once at start
        // and every optimizer step leaves them cleared; GPipe and 2BW
        // accumulate across the minibatches between their updates.
        let grad_in = self.under_version(pinned, |w| {
            w.recompute_forward(st, mb);
            w.model.backward(&grad_out, mb)
        });
        match (&st.versions, self.semantics) {
            (Versions::TwoBw(_), _) => {
                // One update per *full* group (a partial trailing group's
                // gradients are discarded, like data ending mid-group).
                st.two_bw_grads += 1;
                // Group end for this replica: its next backward minibatch
                // falls in a later group, or past the end of the run.
                let group = self.two_bw_group;
                let next = mb + self.stage_replicas as u64;
                if next / group > mb / group || next >= self.total_mbs {
                    if (mb / group + 1) * group <= self.total_mbs {
                        let scale = 1.0 / st.two_bw_grads as f32;
                        for p in self.model.params_mut() {
                            p.grad.scale_inplace(scale);
                        }
                        self.apply_update(st, mb)?;
                    }
                    st.two_bw_grads = 0;
                }
            }
            // GPipe: the flush applies the accumulated gradients.
            (_, Semantics::GPipe { .. }) => st.since_flush += 1,
            _ => self.apply_update(st, mb)?,
        }
        // Layers saved what they needed during forward; the inbound
        // gradient is dead after the backward pass.
        grad_out.recycle();

        if self.stage > 0 {
            let dst = (mb % self.grad_out.len() as u64) as usize;
            self.grad_out[dst]
                .send(GradMsg { mb, data: grad_in })
                .map_err(|_| WorkerError::PeerSendFailed {
                    stage: self.stage,
                    mb,
                    backward: true,
                })?;
        }

        // Per-stage checkpoints (§4), written by replica 0 after gradient
        // sync makes replicas identical: a full dump at every epoch
        // boundary, plus — when `checkpoint_every = Some(k)` — a
        // minibatch-granularity dump every `k` minibatches mid-epoch, so
        // recovery redoes at most `k` minibatches instead of an epoch.
        if self.replica == 0 {
            if let Some(dir) = &self.checkpoint_dir {
                let ckpt_epoch = self.data.epoch_of(mb) + self.epoch_offset;
                if self.data.is_epoch_end(mb) {
                    let span = self.recorder.begin();
                    let snap = self.model.snapshot();
                    checkpoint::save_stage(dir, self.stage, ckpt_epoch, &snap).map_err(|e| {
                        WorkerError::CheckpointWrite {
                            stage: self.stage,
                            epoch: ckpt_epoch,
                            message: e.to_string(),
                        }
                    })?;
                    self.recorder
                        .end_in_epoch(span, SpanKind::Checkpoint, ckpt_epoch as u32);
                    if let Some(hook) = &self.hook {
                        hook.on_checkpoint_written(
                            &checkpoint::stage_path(dir, self.stage, ckpt_epoch),
                            self.stage,
                            ckpt_epoch,
                        );
                    }
                } else if let Some(k) = self.checkpoint_every {
                    let m = self.data.mb_in_epoch(mb);
                    if (m + 1).is_multiple_of(k) {
                        let span = self.recorder.begin();
                        let snap = self.model.snapshot();
                        checkpoint::save_stage_at(dir, self.stage, ckpt_epoch, m, &snap).map_err(
                            |e| WorkerError::CheckpointWrite {
                                stage: self.stage,
                                epoch: ckpt_epoch,
                                message: e.to_string(),
                            },
                        )?;
                        self.recorder
                            .end_in_epoch(span, SpanKind::Checkpoint, ckpt_epoch as u32);
                    }
                }
            }
        }
        Ok(())
    }

    /// Bytes of live activation state right now: the layers' per-slot
    /// stashes plus the retained recompute inputs plus pending loss
    /// gradients — what the `activation_bytes` obs gauge reports.
    fn live_activation_bytes(&self, st: &WorkerState) -> u64 {
        self.model.cached_bytes()
            + st.saved_inputs
                .values()
                .map(|t| t.len() as u64 * 4)
                .sum::<u64>()
            + st.pending_loss_grad
                .values()
                .map(|t| t.len() as u64 * 4)
                .sum::<u64>()
    }

    /// Recompute kinds: rebuild the dropped activation stash by re-running
    /// the stage forward from the retained input, under the already
    /// restored stashed weight version — so the subsequent backward is
    /// bit-identical to vanilla. No-op otherwise.
    fn recompute_forward(&mut self, st: &mut WorkerState, mb: u64) {
        if !self.recomputes() {
            return;
        }
        let input = st
            .saved_inputs
            .remove(&mb)
            .unwrap_or_else(|| panic!("no retained input for minibatch {mb}"));
        let t0 = std::time::Instant::now();
        let span = self.recorder.begin();
        let out = self.model.forward(&input, mb);
        self.recorder
            .end_in_epoch(span, SpanKind::Recompute { mb }, self.trace_epoch(mb));
        st.recompute_us += t0.elapsed().as_micros() as u64;
        out.recycle();
        input.recycle();
        st.activation_bytes_max = st.activation_bytes_max.max(self.live_activation_bytes(st));
    }

    /// Does this worker drop activations after the forward pass and
    /// rebuild them before the backward?
    fn recomputes(&self) -> bool {
        self.schedule_kind.uses_recompute() && self.semantics == Semantics::Stashed
    }

    /// Run `pass` with the model under weight version `version` (`None`:
    /// the latest, which the model holds). A version nothing else pins is
    /// swapped in and back out — O(#params), no element copied; a version
    /// still shared is copied once. Either way the buffers that come back
    /// are dead afterwards and return to the pool.
    fn under_version<R>(
        &mut self,
        version: Option<Arc<Vec<Tensor>>>,
        pass: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let Some(version) = version else {
            return pass(self);
        };
        let mut held = Arc::try_unwrap(version).unwrap_or_else(|shared| (*shared).clone());
        self.model.swap_params(&mut held);
        let out = pass(self);
        self.model.swap_params(&mut held);
        held.into_iter().for_each(Tensor::recycle);
        out
    }

    /// Average gradients across replicas (if replicated), then apply the
    /// update to the latest weights, bumping the local version counter.
    ///
    /// A failed rendezvous — a partner replica died and poisoned the
    /// group, or the sync deadline expired — surfaces as
    /// [`WorkerError::SyncStalled`], cascading teardown exactly like a
    /// channel disconnect.
    fn apply_update(&mut self, st: &mut WorkerState, mb: u64) -> Result<(), WorkerError> {
        let epoch = self.trace_epoch(mb);
        if let Some(sync) = &self.sync {
            let grads: Vec<Tensor> = self.model.params().iter().map(|p| p.grad.clone()).collect();
            // Deposit/release instants bracket the rendezvous so the trace
            // can link this replica's contribution to the round completing.
            self.recorder
                .instant_in_epoch(SpanKind::SyncDeposit { mb }, epoch);
            let avg =
                sync.allreduce(self.replica, grads)
                    .map_err(|e| WorkerError::SyncStalled {
                        stage: self.stage,
                        replica: self.replica,
                        mb,
                        reason: e.to_string(),
                    })?;
            self.recorder
                .instant_in_epoch(SpanKind::SyncRelease { mb }, epoch);
            for (p, g) in self.model.params_mut().into_iter().zip(avg) {
                p.grad.copy_from(&g);
                g.recycle();
            }
        }
        let opt_span = self.recorder.begin();
        let mut params = self.model.params_mut();
        st.optimizer.step(&mut params);
        st.updates += 1;
        // The new latest version is the one full copy per update: the
        // store keeps it while the model's weights move on, and older
        // versions stay pinned for in-flight minibatches.
        let retired = match &mut st.versions {
            Versions::Stash(stash) => stash.install(self.model.snapshot()),
            Versions::TwoBw(s2) => {
                let retired = s2.install(self.model.snapshot());
                st.versions_held_max = st.versions_held_max.max(s2.versions_held());
                retired
            }
            Versions::Vertical(store) => store.install(self.model.snapshot()),
            Versions::Live => None,
        };
        retired.into_iter().flatten().for_each(Tensor::recycle);
        self.recorder
            .end_in_epoch(opt_span, SpanKind::OptStep { mb }, epoch);
        Ok(())
    }

    /// GPipe flush: average the accumulated microbatch gradients and apply
    /// one synchronous update.
    fn flush(&mut self, st: &mut WorkerState) -> Result<(), WorkerError> {
        if st.since_flush == 0 {
            return Ok(());
        }
        let scale = 1.0 / st.since_flush as f32;
        for p in self.model.params_mut() {
            p.grad.scale_inplace(scale);
        }
        self.apply_update(st, u64::MAX)?;
        st.since_flush = 0;
        Ok(())
    }
}
