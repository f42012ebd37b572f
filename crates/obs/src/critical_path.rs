//! Per-minibatch dependency-DAG reconstruction, critical-path extraction,
//! and typed bubble attribution.
//!
//! Aggregate busy/comm/bubble fractions say a stage idled; they cannot
//! say *which dependency* put that idle time on the end-to-end critical
//! path. This module reconstructs the dependency DAG the 1F1B schedule
//! actually executed — from any [`TraceSnapshot`], live or parsed back
//! from a Chrome trace, measured or simulated — and produces two exact
//! accountings:
//!
//! 1. **Per-stage wall-clock attribution**: every nanosecond of every
//!    stage track is assigned a [`BubbleCause`] (compute, upstream wait,
//!    backpressure, grad-sync, recompute, 2BW group barrier, optimizer
//!    step, checkpoint, fault injection, fill/drain, idle). The causes of
//!    a track sum to the window's wall clock *by construction* — the
//!    accounting is an exact partition of `[from, to)` done in integer
//!    nanoseconds, which the tests pin. This sweep is the crate's one
//!    fold over a trace: the busy/comm/bubble fractions of
//!    [`crate::analysis`] and [`crate::live`] are its rollup
//!    ([`CauseBreakdown`]), and the live profiler's per-minibatch compute
//!    samples come from the same pass.
//! 2. **Critical-path attribution**: walking binding predecessors
//!    backward from the last span to finish (the same-track predecessor
//!    or the cross-stage data producer, whichever ended later), the run's
//!    makespan telescopes into per-stage, per-cause critical-path
//!    segments that also sum exactly to wall clock. A stage's share of
//!    the critical path is the honest measure of how much it bottlenecks
//!    the run — speeding up anything else cannot help.
//!
//! [`what_if`] turns the attribution into an Amdahl-style estimator:
//! scale one stage's per-minibatch service time and predict the
//! end-to-end steady-state gain, validated against the discrete-event
//! simulator in the integration tests.

use crate::analysis::measured_per_minibatch_s;
use crate::event::SpanKind;
use crate::recorder::{TraceSnapshot, TrackEvents};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Where a slice of a stage's wall clock went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BubbleCause {
    /// Useful forward/backward compute — not a bubble.
    Compute,
    /// Blocked on an upstream activation or downstream gradient arriving
    /// (`recv_wait` spans): the sender is the bottleneck.
    WaitUpstream,
    /// Blocked (or throttled) sending to a peer (`send_wait` spans) —
    /// includes injected send delays, which stall the sender's clock.
    Backpressure,
    /// Gradient all-reduce rendezvous across stage replicas.
    GradSync,
    /// Re-running the forward pass to rebuild dropped activations
    /// (recompute schedules).
    Recompute,
    /// 2BW update-group barrier: the coalesced grad-sync a double-buffered
    /// schedule pays once per group instead of once per minibatch.
    TwoBwBarrier,
    /// Optimizer step applying the update.
    OptimizerStep,
    /// Checkpoint writes.
    Checkpoint,
    /// Fault-injection stalls (`stalled` spans, gaps around `fault`
    /// instants).
    Injection,
    /// Pipeline fill/drain: idle before a track's first span or after its
    /// last one.
    FillDrain,
    /// Interior idle not attributable to any recorded dependency.
    Idle,
}

impl BubbleCause {
    /// Every cause, in display order.
    pub const ALL: [BubbleCause; 11] = [
        BubbleCause::Compute,
        BubbleCause::WaitUpstream,
        BubbleCause::Backpressure,
        BubbleCause::GradSync,
        BubbleCause::Recompute,
        BubbleCause::TwoBwBarrier,
        BubbleCause::OptimizerStep,
        BubbleCause::Checkpoint,
        BubbleCause::Injection,
        BubbleCause::FillDrain,
        BubbleCause::Idle,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            BubbleCause::Compute => "compute",
            BubbleCause::WaitUpstream => "wait_upstream",
            BubbleCause::Backpressure => "backpressure",
            BubbleCause::GradSync => "grad_sync",
            BubbleCause::Recompute => "recompute",
            BubbleCause::TwoBwBarrier => "2bw_barrier",
            BubbleCause::OptimizerStep => "optimizer_step",
            BubbleCause::Checkpoint => "checkpoint",
            BubbleCause::Injection => "injection",
            BubbleCause::FillDrain => "fill_drain",
            BubbleCause::Idle => "idle",
        }
    }

    /// Whether this cause is dead time rather than useful work.
    pub fn is_bubble(self) -> bool {
        !matches!(self, BubbleCause::Compute)
    }

    /// Whether this cause rolls up into a stage's busy fraction: the work
    /// the stage itself does (compute, recompute, optimizer step).
    pub(crate) fn is_busy(self) -> bool {
        matches!(
            self,
            BubbleCause::Compute | BubbleCause::Recompute | BubbleCause::OptimizerStep
        )
    }

    /// Whether this cause rolls up into a stage's communication fraction:
    /// waiting on peers (receive waits, send backpressure, gradient sync,
    /// 2BW group barriers).
    pub(crate) fn is_comm(self) -> bool {
        matches!(
            self,
            BubbleCause::WaitUpstream
                | BubbleCause::Backpressure
                | BubbleCause::GradSync
                | BubbleCause::TwoBwBarrier
        )
    }
}

/// Nanoseconds per cause; an exact partition of some wall-clock interval.
///
/// A stage's busy/comm/bubble fractions are a rollup of it: busy is
/// compute, recompute and optimizer step; comm is upstream waits,
/// backpressure, grad sync and 2BW barriers; bubble is everything else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CauseBreakdown {
    /// Useful compute time (seconds). The remaining fields are bubbles.
    pub compute_s: f64,
    /// Upstream/downstream receive waits.
    pub wait_upstream_s: f64,
    /// Send-side stalls (including injected delays).
    pub backpressure_s: f64,
    /// Replica gradient-sync rendezvous.
    pub grad_sync_s: f64,
    /// Activation recomputation.
    pub recompute_s: f64,
    /// 2BW update-group barriers.
    pub two_bw_barrier_s: f64,
    /// Optimizer steps.
    pub optimizer_step_s: f64,
    /// Checkpoint writes.
    pub checkpoint_s: f64,
    /// Fault-injection stalls.
    pub injection_s: f64,
    /// Pipeline fill/drain idle.
    pub fill_drain_s: f64,
    /// Unattributed interior idle.
    pub idle_s: f64,
}

impl CauseBreakdown {
    /// Add `seconds` to one cause bucket.
    pub fn add(&mut self, cause: BubbleCause, seconds: f64) {
        *self.slot(cause) += seconds;
    }

    /// Seconds attributed to `cause`.
    pub fn get(&self, cause: BubbleCause) -> f64 {
        // Read through `slot` on a copy (eleven floats), so the
        // cause-to-field map is written once.
        let mut copy = *self;
        *copy.slot(cause)
    }

    fn slot(&mut self, cause: BubbleCause) -> &mut f64 {
        match cause {
            BubbleCause::Compute => &mut self.compute_s,
            BubbleCause::WaitUpstream => &mut self.wait_upstream_s,
            BubbleCause::Backpressure => &mut self.backpressure_s,
            BubbleCause::GradSync => &mut self.grad_sync_s,
            BubbleCause::Recompute => &mut self.recompute_s,
            BubbleCause::TwoBwBarrier => &mut self.two_bw_barrier_s,
            BubbleCause::OptimizerStep => &mut self.optimizer_step_s,
            BubbleCause::Checkpoint => &mut self.checkpoint_s,
            BubbleCause::Injection => &mut self.injection_s,
            BubbleCause::FillDrain => &mut self.fill_drain_s,
            BubbleCause::Idle => &mut self.idle_s,
        }
    }

    /// Sum across every cause.
    pub fn total_s(&self) -> f64 {
        BubbleCause::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// The busy/comm/bubble rollup, in seconds: busy sums compute,
    /// recompute and optimizer step; comm sums upstream waits,
    /// backpressure, grad sync and 2BW barriers; bubble is the rest
    /// (checkpoint, injection, fill/drain, idle).
    pub(crate) fn rollup_s(&self) -> (f64, f64, f64) {
        let (mut busy, mut comm, mut bubble) = (0.0, 0.0, 0.0);
        for c in BubbleCause::ALL {
            let slot = if c.is_busy() {
                &mut busy
            } else if c.is_comm() {
                &mut comm
            } else {
                &mut bubble
            };
            *slot += self.get(c);
        }
        (busy, comm, bubble)
    }

    /// [`Self::rollup_s`] as fractions of `denom_s`; over an exact
    /// partition of `denom_s` the three sum to 1. All zero when `denom_s`
    /// is not positive.
    pub(crate) fn utilization(&self, denom_s: f64) -> (f64, f64, f64) {
        if denom_s <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let (busy, comm, bubble) = self.rollup_s();
        (busy / denom_s, comm / denom_s, bubble / denom_s)
    }

    /// Largest bubble bucket, if any time was lost at all.
    pub fn top_bubble(&self) -> Option<(BubbleCause, f64)> {
        BubbleCause::ALL
            .iter()
            .filter(|c| c.is_bubble())
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, s)| s > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// One stage's exact wall-clock accounting, summed over replica tracks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageAttribution {
    /// Pipeline stage index.
    pub stage: usize,
    /// Replica tracks contributing (breakdown totals `wall × tracks`).
    pub tracks: usize,
    /// Where the stage's time went.
    pub breakdown: CauseBreakdown,
    /// Backward passes completed across the stage's replicas.
    pub minibatches: u64,
    /// Effective per-minibatch *service* time: work only this stage can
    /// absorb (compute + send stalls + recompute + optimizer + checkpoint)
    /// divided by minibatches and replica count — the quantity the
    /// Amdahl what-if scales.
    pub service_per_mb_s: f64,
}

/// One stage's share of the run's critical path.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CpContribution {
    /// Pipeline stage index.
    pub stage: usize,
    /// Critical-path seconds owned by this stage.
    pub seconds: f64,
    /// What the stage was doing during its critical-path segments.
    pub breakdown: CauseBreakdown,
}

/// The full causal analysis of one trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathReport {
    /// Wall clock of the trace (latest event end), seconds.
    pub wall_s: f64,
    /// Minibatches completed (max across stages).
    pub minibatches: u64,
    /// Measured steady-state seconds per minibatch (middle-half slope of
    /// stage-0 backward completions).
    pub per_minibatch_s: f64,
    /// Exact per-stage wall-clock attribution.
    pub per_stage: Vec<StageAttribution>,
    /// Per-stage critical-path share, indexed by stage (unranked; the
    /// seconds sum to `wall_s`).
    pub critical_path: Vec<CpContribution>,
    /// Spans on the critical path.
    pub cp_nodes: usize,
}

impl CriticalPathReport {
    /// Stages ranked by critical-path share, biggest bottleneck first.
    pub fn ranked(&self) -> Vec<&CpContribution> {
        let mut v: Vec<&CpContribution> = self.critical_path.iter().collect();
        v.sort_by(|a, b| b.seconds.total_cmp(&a.seconds).then(a.stage.cmp(&b.stage)));
        v
    }

    /// The stage owning the largest critical-path share.
    pub fn bottleneck_stage(&self) -> Option<usize> {
        self.ranked().first().map(|c| c.stage)
    }

    /// Per-stage attribution entry.
    pub fn stage(&self, stage: usize) -> Option<&StageAttribution> {
        self.per_stage.iter().find(|s| s.stage == stage)
    }
}

/// Amdahl-style prediction for speeding up one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WhatIf {
    /// Stage being hypothetically sped up.
    pub stage: usize,
    /// Fractional service-time reduction applied (0.3 = 30% faster).
    pub speedup_frac: f64,
    /// Measured steady-state seconds per minibatch before the change.
    pub baseline_per_mb_s: f64,
    /// Predicted steady-state seconds per minibatch after the change.
    pub predicted_per_mb_s: f64,
    /// Predicted end-to-end gain: `1 - predicted/baseline`.
    pub predicted_gain_frac: f64,
}

/// One `(start, end, cause)` slice of a toplevel span.
type Piece = (u64, u64, BubbleCause);

/// One toplevel span of a stage track.
struct Node {
    /// Index of the node's track in the snapshot.
    track: usize,
    stage: usize,
    kind: SpanKind,
    start_ns: u64,
    end_ns: u64,
    /// Indices into [`Sweep::pieces`] of the pieces tiling
    /// `[start_ns, end_ns]` exactly.
    pieces: Range<usize>,
}

fn cause_of(kind: SpanKind, two_bw: bool) -> Option<BubbleCause> {
    Some(match kind {
        SpanKind::Fwd { .. } | SpanKind::Bwd { .. } => BubbleCause::Compute,
        SpanKind::RecvWait { .. } => BubbleCause::WaitUpstream,
        SpanKind::SendWait { .. } => BubbleCause::Backpressure,
        SpanKind::GradSync => {
            if two_bw {
                BubbleCause::TwoBwBarrier
            } else {
                BubbleCause::GradSync
            }
        }
        SpanKind::Recompute { .. } => BubbleCause::Recompute,
        SpanKind::OptStep { .. } => BubbleCause::OptimizerStep,
        SpanKind::Checkpoint => BubbleCause::Checkpoint,
        SpanKind::Stalled => BubbleCause::Injection,
        // Instant bookkeeping events carry no duration.
        SpanKind::StashPush { .. }
        | SpanKind::StashPop { .. }
        | SpanKind::SyncDeposit { .. }
        | SpanKind::SyncRelease { .. }
        | SpanKind::Fault
        | SpanKind::Recovery
        | SpanKind::Reconfig => return None,
    })
}

/// Partition a stage track into toplevel spans, each pre-sliced into
/// pieces appended to `pieces`: nested spans get their own cause, the
/// uncovered remainder inherits the toplevel span's cause.
fn build_nodes(
    (ti, stage): (usize, usize),
    track: &TrackEvents,
    pieces: &mut Vec<Piece>,
) -> Vec<Node> {
    // A sparse optimizer-step cadence (2BW gradient accumulation, GPipe
    // flush) means the per-group grad-sync is a *group barrier*, not a
    // per-minibatch rendezvous.
    let (mut bwds, mut opts) = (0usize, 0usize);
    let mut spans = Vec::with_capacity(track.events.len());
    for e in &track.events {
        match e.kind {
            SpanKind::Bwd { .. } => bwds += 1,
            SpanKind::OptStep { .. } => opts += 1,
            _ => {}
        }
        if !e.is_instant() {
            spans.push(e);
        }
    }
    let two_bw = opts > 0 && opts * 2 <= bwds;

    let mut nodes: Vec<Node> = Vec::new();
    // At equal starts the enclosing (longer) span must be toplevel —
    // simulated traces emit a Fwd/Bwd and its nested RecvWait with the
    // same start timestamp.
    spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
    let mut i = 0;
    while i < spans.len() {
        let top = spans[i];
        let top_cause = cause_of(top.kind, two_bw).unwrap_or(BubbleCause::Idle);
        let first = pieces.len();
        let mut covered = top.start_ns;
        let mut j = i + 1;
        while j < spans.len() && spans[j].start_ns < top.end_ns {
            let nested = spans[j];
            if let Some(cause) = cause_of(nested.kind, two_bw) {
                let s = nested.start_ns.max(covered);
                let e = nested.end_ns.min(top.end_ns);
                if e > s {
                    if s > covered {
                        pieces.push((covered, s, top_cause));
                    }
                    pieces.push((s, e, cause));
                    covered = e;
                }
            }
            j += 1;
        }
        if top.end_ns > covered {
            pieces.push((covered, top.end_ns, top_cause));
        }
        nodes.push(Node {
            track: ti,
            stage,
            kind: top.kind,
            start_ns: top.start_ns,
            end_ns: top.end_ns,
            pieces: first..pieces.len(),
        });
        i = j;
    }
    nodes
}

/// Clip pieces to the window `[from, to)` and accumulate into `out`
/// (nanosecond-exact).
fn add_pieces(out: &mut CauseBreakdown, pieces: &[Piece], window: (u64, u64)) {
    for &piece in pieces {
        add_clipped(out, piece, window);
    }
}

fn add_clipped(out: &mut CauseBreakdown, (s, e, cause): Piece, (from, to): (u64, u64)) {
    let (s, e) = (s.max(from), e.min(to));
    if e > s {
        out.add(cause, (e - s) as f64 * 1e-9);
    }
}

/// Cause of an idle gap `[from, to]` on a track: injection when a fault
/// instant sits inside it, fill when nothing ran before it, idle
/// otherwise.
fn gap_cause(faults: &[u64], from: u64, to: u64, fill: bool) -> BubbleCause {
    if faults.iter().any(|&f| f >= from && f <= to) {
        BubbleCause::Injection
    } else if fill {
        BubbleCause::FillDrain
    } else {
        BubbleCause::Idle
    }
}

/// Whether an event ending at `end_ns` completes inside the window
/// `(from_ns, to_ns]`; a window starting at the origin also takes events
/// ending at 0. Consecutive windows therefore count every completion
/// exactly once.
fn completes_in(end_ns: u64, from_ns: u64, to_ns: u64) -> bool {
    end_ns <= to_ns && (end_ns > from_ns || from_ns == 0)
}

/// The one fold over a trace: every nanosecond of a `[from, to)` window
/// on every stage track attributed to a [`BubbleCause`], plus the
/// per-minibatch compute samples and stash bookkeeping of the events
/// completing in the window. [`analyze_trace`] runs it over the whole
/// trace, the live profiler over each sample window.
pub(crate) struct Sweep {
    /// Per-stage attribution of the window; `minibatches` counts the
    /// backward passes completing in it.
    pub per_stage: Vec<StageAttribution>,
    /// `(track, stage, seconds)` per minibatch whose backward completed in
    /// the window, in track then completion order: its forward and backward
    /// node time minus their communication and injection pieces, both
    /// nodes counted only when they complete in the window.
    pub samples: Vec<(usize, usize, f64)>,
    /// Stash pushes minus pops completing in the window, per stage.
    pub stash_delta: Vec<i64>,
    /// Toplevel nodes of every stage track, track after track.
    nodes: Vec<Node>,
    /// Pieces of every node.
    pieces: Vec<Piece>,
    /// Node ids of each snapshot track (empty for non-stage tracks).
    track_nodes: Vec<Range<usize>>,
    /// Fault and stall instants anywhere in the run.
    faults: Vec<u64>,
}

/// Run the attribution sweep over `[from_ns, to_ns)`.
pub(crate) fn sweep(snap: &TraceSnapshot, from_ns: u64, to_ns: u64) -> Sweep {
    let num_stages = snap
        .tracks
        .iter()
        .filter_map(|t| t.stage)
        .max()
        .map(|s| s + 1)
        .unwrap_or(0);
    let mut sw = Sweep {
        per_stage: (0..num_stages)
            .map(|stage| StageAttribution {
                stage,
                ..StageAttribution::default()
            })
            .collect(),
        samples: Vec::new(),
        stash_delta: vec![0; num_stages],
        nodes: Vec::new(),
        pieces: Vec::new(),
        track_nodes: Vec::with_capacity(snap.tracks.len()),
        faults: Vec::new(),
    };
    for (ti, track) in snap.tracks.iter().enumerate() {
        for e in &track.events {
            if !e.is_instant() {
                continue;
            }
            // Fault instants anywhere in the run mark surrounding gaps as
            // injection-caused rather than plain idle.
            let delta = match e.kind {
                SpanKind::Fault | SpanKind::Stalled => {
                    sw.faults.push(e.start_ns);
                    continue;
                }
                SpanKind::StashPush { .. } => 1,
                SpanKind::StashPop { .. } => -1,
                _ => continue,
            };
            if let Some(stage) = track.stage {
                if completes_in(e.end_ns, from_ns, to_ns) {
                    sw.stash_delta[stage] += delta;
                }
            }
        }
        let base = sw.nodes.len();
        if let Some(stage) = track.stage {
            let nodes = build_nodes((ti, stage), track, &mut sw.pieces);
            sw.nodes.extend(nodes);
        }
        sw.track_nodes.push(base..sw.nodes.len());
    }

    let window = (from_ns, to_ns);
    // Forward samples waiting for their backward, per track: a handful
    // of in-flight minibatches, so a short list beats a map.
    let mut pending: Vec<(u64, f64)> = Vec::new();
    for (ti, (track, ids)) in snap.tracks.iter().zip(&sw.track_nodes).enumerate() {
        let Some(stage) = track.stage else { continue };
        let nodes = &sw.nodes[ids.clone()];
        let st = &mut sw.per_stage[stage];
        st.tracks += 1;
        // Nodes are disjoint and sorted, so the window's nodes are one
        // run starting at the first node ending after `from`.
        let first = nodes.partition_point(|n| n.end_ns <= from_ns);
        // Exact accounting: fill before the first node, pieces, interior
        // gaps, and drain after the last node, all clipped to the window.
        let mut cursor = first.checked_sub(1).map_or(0, |i| nodes[i].end_ns);
        pending.clear();
        for node in &nodes[first..] {
            if cursor >= to_ns {
                break;
            }
            if node.start_ns > cursor {
                let cause = gap_cause(&sw.faults, cursor, node.start_ns, cursor == 0);
                add_clipped(&mut st.breakdown, (cursor, node.start_ns, cause), window);
            }
            let pieces = &sw.pieces[node.pieces.clone()];
            add_pieces(&mut st.breakdown, pieces, window);
            cursor = cursor.max(node.end_ns);
            if !completes_in(node.end_ns, from_ns, to_ns) {
                continue;
            }
            let busy_s = || {
                pieces
                    .iter()
                    .filter(|p| p.2.is_busy())
                    .map(|p| (p.1 - p.0) as f64 * 1e-9)
                    .sum::<f64>()
            };
            match node.kind {
                SpanKind::Fwd { mb } => pending.push((mb, busy_s())),
                SpanKind::Bwd { mb } => {
                    st.minibatches += 1;
                    let fwd_s = pending
                        .iter()
                        .rposition(|p| p.0 == mb)
                        .map_or(0.0, |i| pending.swap_remove(i).1);
                    sw.samples.push((ti, stage, fwd_s + busy_s()));
                }
                _ => {}
            }
        }
        let drain = (cursor, to_ns, BubbleCause::FillDrain);
        add_clipped(&mut st.breakdown, drain, window);
    }

    for st in &mut sw.per_stage {
        if st.minibatches > 0 && st.tracks > 0 {
            let b = &st.breakdown;
            let service = b.compute_s
                + b.backpressure_s
                + b.recompute_s
                + b.optimizer_step_s
                + b.checkpoint_s;
            st.service_per_mb_s = service / st.minibatches as f64 / st.tracks as f64;
        }
    }
    sw
}

/// Latest event end across all tracks, in nanoseconds.
pub(crate) fn wall_ns(snap: &TraceSnapshot) -> u64 {
    snap.tracks
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.end_ns))
        .max()
        .unwrap_or(0)
}

/// Reconstruct the dependency DAG of a trace, attribute every nanosecond
/// of every stage track to a [`BubbleCause`], and extract the critical
/// path. Works on measured snapshots, parsed Chrome traces, and simulated
/// snapshots ([`crate::simtrace`]) alike.
pub fn analyze_trace(snap: &TraceSnapshot) -> CriticalPathReport {
    let wall_ns = wall_ns(snap);
    let Sweep {
        per_stage,
        nodes: all_nodes,
        pieces,
        faults: fault_instants,
        ..
    } = sweep(snap, 0, wall_ns);
    let num_stages = per_stage.len();

    // Producer lookup: (stage, mb) → node ids of its Fwd / Bwd spans.
    let mut by_fwd: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    let mut by_bwd: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    for (id, n) in all_nodes.iter().enumerate() {
        match n.kind {
            SpanKind::Fwd { mb } => by_fwd.entry((n.stage, mb)).or_default().push(id),
            SpanKind::Bwd { mb } => by_bwd.entry((n.stage, mb)).or_default().push(id),
            _ => {}
        }
    }
    let last_stage = num_stages.saturating_sub(1);

    let mut critical_path: Vec<CpContribution> = (0..num_stages)
        .map(|stage| CpContribution {
            stage,
            ..CpContribution::default()
        })
        .collect();
    let mut cp_nodes = 0usize;

    if let Some(start) = (0..all_nodes.len()).max_by_key(|&i| (all_nodes[i].end_ns, i)) {
        let mut visited: HashSet<usize> = HashSet::new();
        let mut cur = start;
        let mut steps = 0usize;
        loop {
            visited.insert(cur);
            cp_nodes += 1;
            steps += 1;
            let node = &all_nodes[cur];
            // Binding predecessor: whoever released this span last — the
            // previous span on the same worker, or the cross-stage data
            // producer (Fwd feeds the next stage's Fwd; Bwd feeds the
            // previous stage's Bwd; the last stage's Bwd follows its own
            // Fwd).
            let producer = match node.kind {
                SpanKind::Fwd { mb } if node.stage > 0 => by_fwd.get(&(node.stage - 1, mb)),
                SpanKind::Bwd { mb } if node.stage < last_stage => {
                    by_bwd.get(&(node.stage + 1, mb))
                }
                SpanKind::Bwd { mb } => by_fwd.get(&(node.stage, mb)),
                _ => None,
            }
            .into_iter()
            .flatten()
            .copied()
            .filter(|&id| all_nodes[id].end_ns <= node.end_ns && !visited.contains(&id))
            .max_by_key(|&id| all_nodes[id].end_ns);
            // A track's nodes have consecutive ids.
            let same_track = cur
                .checked_sub(1)
                .filter(|&id| all_nodes[id].track == node.track && !visited.contains(&id));
            let pred = [producer, same_track]
                .into_iter()
                .flatten()
                .max_by_key(|&id| all_nodes[id].end_ns);

            let from = pred.map(|id| all_nodes[id].end_ns).unwrap_or(0);
            let cp = &mut critical_path[node.stage];
            // Slack before the span started: fill at the chain's origin,
            // scheduler idle elsewhere (injection if a fault sits inside).
            if node.start_ns > from {
                let cause = gap_cause(&fault_instants, from, node.start_ns, pred.is_none());
                cp.seconds += (node.start_ns - from) as f64 * 1e-9;
                cp.breakdown
                    .add(cause, (node.start_ns - from) as f64 * 1e-9);
            }
            let seg_from = from.max(node.start_ns).min(node.end_ns);
            cp.seconds += (node.end_ns - seg_from) as f64 * 1e-9;
            add_pieces(
                &mut cp.breakdown,
                &pieces[node.pieces.clone()],
                (seg_from, node.end_ns),
            );

            match pred {
                Some(p) if steps <= all_nodes.len() => cur = p,
                _ => break,
            }
        }
    }

    CriticalPathReport {
        wall_s: wall_ns as f64 * 1e-9,
        minibatches: per_stage.iter().map(|s| s.minibatches).max().unwrap_or(0),
        per_minibatch_s: measured_per_minibatch_s(snap),
        per_stage,
        critical_path,
        cp_nodes,
    }
}

/// Amdahl-style what-if: shrink `stage`'s per-minibatch service time by
/// `speedup_frac` and predict the steady-state per-minibatch time. The
/// pipeline's steady-state rate is set by its slowest stage, so the
/// prediction moves only by however much the *maximum* service time
/// moves — speeding up a non-bottleneck stage predicts (correctly) no
/// gain.
pub fn what_if(report: &CriticalPathReport, stage: usize, speedup_frac: f64) -> WhatIf {
    let services: Vec<f64> = report
        .per_stage
        .iter()
        .map(|s| s.service_per_mb_s)
        .collect();
    let old_max = services.iter().copied().fold(0.0f64, f64::max);
    // Steady state can't outrun the bottleneck stage's service time, and
    // short traces have no reliable slope at all — the service bound is
    // the floor of the baseline.
    let baseline = report.per_minibatch_s.max(old_max);
    let mut adjusted = services;
    if let Some(s) = adjusted.get_mut(stage) {
        *s *= 1.0 - speedup_frac;
    }
    let new_max = adjusted.iter().copied().fold(0.0f64, f64::max);
    let predicted = (baseline - (old_max - new_max)).max(new_max).max(0.0);
    WhatIf {
        stage,
        speedup_frac,
        baseline_per_mb_s: baseline,
        predicted_per_mb_s: predicted,
        predicted_gain_frac: if baseline > 0.0 {
            1.0 - predicted / baseline
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    const MS: u64 = 1_000_000;

    fn span(kind: SpanKind, start_ms: u64, end_ms: u64) -> Event {
        Event::span(kind, start_ms * MS, end_ms * MS)
    }

    /// Hand-built 3-stage trace with known bubble causes. Stage 1 is a
    /// straggler: every forward carries a 6 ms injected send delay
    /// (send_wait nested in fwd), keeping stage 1 continuously busy
    /// (2 ms compute + 6 ms delay per forward) while stage 2 starves
    /// between minibatches and stage 0 idles awaiting gradients.
    ///
    /// Layout (ms), 4 minibatches, fwd/bwd 2 ms everywhere, wall 44:
    ///   stage0: fwd_k [2k, 2k+2]; bwd0 34-38 (recv_wait 34-36),
    ///           bwd_k [36+2k, 38+2k] for k≥1
    ///   stage1: fwd_k [2+8k, 10+8k] (send_wait [4+8k, 10+8k]),
    ///           bwd_k [34+2k, 36+2k]
    ///   stage2: fwd0 10-12, bwd0 12-14; for k≥1 fwd_k [6+8k, 12+8k]
    ///           (recv_wait [6+8k, 10+8k]), bwd_k [12+8k, 14+8k]
    fn straggler_snap() -> TraceSnapshot {
        use crate::recorder::TrackEvents;
        let mut s0 = vec![
            span(SpanKind::Bwd { mb: 0 }, 34, 38),
            span(SpanKind::RecvWait { mb: 0 }, 34, 36),
        ];
        let mut s1 = Vec::new();
        let mut s2 = vec![
            span(SpanKind::Fwd { mb: 0 }, 10, 12),
            span(SpanKind::Bwd { mb: 0 }, 12, 14),
        ];
        for k in 0..4u64 {
            s0.push(span(SpanKind::Fwd { mb: k }, 2 * k, 2 * k + 2));
            if k >= 1 {
                s0.push(span(SpanKind::Bwd { mb: k }, 36 + 2 * k, 38 + 2 * k));
                s2.push(span(SpanKind::Fwd { mb: k }, 6 + 8 * k, 12 + 8 * k));
                s2.push(span(SpanKind::RecvWait { mb: k }, 6 + 8 * k, 10 + 8 * k));
                s2.push(span(SpanKind::Bwd { mb: k }, 12 + 8 * k, 14 + 8 * k));
            }
            s1.push(span(SpanKind::Fwd { mb: k }, 2 + 8 * k, 10 + 8 * k));
            s1.push(span(SpanKind::SendWait { mb: k }, 4 + 8 * k, 10 + 8 * k));
            s1.push(span(SpanKind::Bwd { mb: k }, 34 + 2 * k, 36 + 2 * k));
        }
        for events in [&mut s0, &mut s1, &mut s2] {
            events.sort_by_key(|e| (e.start_ns, e.end_ns));
        }
        TraceSnapshot {
            tracks: vec![
                TrackEvents {
                    name: "stage0.replica0".into(),
                    stage: Some(0),
                    events: s0,
                    dropped: 0,
                },
                TrackEvents {
                    name: "stage1.replica0".into(),
                    stage: Some(1),
                    events: s1,
                    dropped: 0,
                },
                TrackEvents {
                    name: "stage2.replica0".into(),
                    stage: Some(2),
                    events: s2,
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn attribution_is_an_exact_partition_of_wall_clock() {
        let report = analyze_trace(&straggler_snap());
        assert!((report.wall_s - 0.044).abs() < 1e-12);
        for st in &report.per_stage {
            assert_eq!(st.tracks, 1);
            let total = st.breakdown.total_s();
            assert!(
                (total - report.wall_s).abs() < 1e-9,
                "stage {} attribution {total} != wall {}",
                st.stage,
                report.wall_s
            );
        }
        // And the critical path tiles wall clock exactly too.
        let cp_total: f64 = report.critical_path.iter().map(|c| c.seconds).sum();
        assert!((cp_total - report.wall_s).abs() < 1e-9, "cp {cp_total}");
        let cp_breakdown: f64 = report
            .critical_path
            .iter()
            .map(|c| c.breakdown.total_s())
            .sum();
        assert!((cp_breakdown - report.wall_s).abs() < 1e-9);
    }

    #[test]
    fn golden_causes_on_the_hand_built_trace() {
        let report = analyze_trace(&straggler_snap());
        let ms = 1e-3;
        // Stage 0: 8 ms fwd + 8 ms bwd compute, 2 ms nested recv_wait,
        // 26 ms interior idle (8→34), 0 fill/drain (its first span starts
        // at 0 and its last ends at wall).
        let s0 = &report.per_stage[0].breakdown;
        assert!((s0.compute_s - 16.0 * ms).abs() < 1e-9);
        assert!((s0.wait_upstream_s - 2.0 * ms).abs() < 1e-9);
        assert!((s0.idle_s - 26.0 * ms).abs() < 1e-9);
        assert!((s0.fill_drain_s - 0.0).abs() < 1e-9);
        // Stage 1 (the straggler): 4 × 6 ms injected send delay reads as
        // backpressure; compute is fwd(4×2)+bwd(4×2)=16 ms; 2 ms fill +
        // 2 ms drain; zero interior idle — it never stops working.
        let s1 = &report.per_stage[1].breakdown;
        assert!((s1.backpressure_s - 24.0 * ms).abs() < 1e-9);
        assert!((s1.compute_s - 16.0 * ms).abs() < 1e-9);
        assert!((s1.fill_drain_s - 4.0 * ms).abs() < 1e-9);
        assert!((s1.idle_s - 0.0).abs() < 1e-12);
        // Stage 2 (downstream of the straggler): starves 4 ms per
        // minibatch on upstream, plus 10 ms fill + 6 ms drain.
        let s2 = &report.per_stage[2].breakdown;
        assert_eq!(s2.top_bubble().unwrap().0, BubbleCause::FillDrain);
        assert!((s2.wait_upstream_s - 12.0 * ms).abs() < 1e-9);
        // Excluding fill/drain (warmup), wait_upstream dominates stage 2's
        // interior bubbles.
        assert!(s2.wait_upstream_s >= s2.idle_s.max(s2.backpressure_s));
        // The straggler stage owns the largest critical-path share.
        assert_eq!(report.bottleneck_stage(), Some(1));
        let ranked = report.ranked();
        assert_eq!(ranked[0].stage, 1);
        assert!(ranked[0].seconds > ranked[1].seconds);
        // Stage 1's critical-path time is dominated by its own
        // backpressure + compute, i.e. the injected delay is on the path.
        let cp1 = &report.critical_path[1];
        assert!(cp1.breakdown.backpressure_s > 0.0);
        // Services: stage 1 is the bottleneck service too.
        let svc: Vec<f64> = report
            .per_stage
            .iter()
            .map(|s| s.service_per_mb_s)
            .collect();
        assert!(svc[1] > svc[0] && svc[1] > svc[2], "{svc:?}");
    }

    #[test]
    fn what_if_scales_only_the_bottleneck() {
        let report = analyze_trace(&straggler_snap());
        // Removing stage 1's delay (6 of 10 ms service → 60% faster).
        let w = what_if(&report, 1, 6.0 / 10.0);
        assert!(w.predicted_per_mb_s < w.baseline_per_mb_s);
        assert!(w.predicted_gain_frac > 0.0);
        // Speeding up a non-bottleneck stage predicts no gain.
        let w0 = what_if(&report, 0, 0.5);
        assert!(w0.predicted_gain_frac.abs() < 1e-9);
    }

    #[test]
    fn two_bw_barrier_reclassifies_sparse_sync() {
        use crate::recorder::TrackEvents;
        // 4 backwards, 1 optimizer step → 2BW cadence: grad_sync reads as
        // a group barrier.
        let snap = TraceSnapshot {
            tracks: vec![TrackEvents {
                name: "stage0.replica0".into(),
                stage: Some(0),
                events: vec![
                    span(SpanKind::Bwd { mb: 0 }, 0, 4),
                    span(SpanKind::Bwd { mb: 1 }, 4, 8),
                    span(SpanKind::Bwd { mb: 2 }, 8, 12),
                    span(SpanKind::Bwd { mb: 3 }, 12, 20),
                    span(SpanKind::GradSync, 14, 18),
                    span(SpanKind::OptStep { mb: 3 }, 18, 20),
                ],
                dropped: 0,
            }],
        };
        let report = analyze_trace(&snap);
        let b = &report.per_stage[0].breakdown;
        assert!((b.two_bw_barrier_s - 4e-3).abs() < 1e-9);
        assert!((b.grad_sync_s - 0.0).abs() < 1e-12);
        assert!((b.optimizer_step_s - 2e-3).abs() < 1e-9);
        // Dense opt-step cadence keeps GradSync as GradSync.
        let snap2 = TraceSnapshot {
            tracks: vec![TrackEvents {
                name: "stage0.replica0".into(),
                stage: Some(0),
                events: vec![
                    span(SpanKind::Bwd { mb: 0 }, 0, 8),
                    span(SpanKind::GradSync, 2, 4),
                    span(SpanKind::OptStep { mb: 0 }, 6, 8),
                ],
                dropped: 0,
            }],
        };
        let b2 = &analyze_trace(&snap2).per_stage[0].breakdown;
        assert!((b2.grad_sync_s - 2e-3).abs() < 1e-9);
        assert!((b2.two_bw_barrier_s - 0.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let report = analyze_trace(&TraceSnapshot::default());
        assert_eq!(report.wall_s, 0.0);
        assert!(report.per_stage.is_empty());
        assert_eq!(report.bottleneck_stage(), None);
        let w = what_if(&report, 0, 0.5);
        assert_eq!(w.predicted_gain_frac, 0.0);
    }
}
