//! Event-driven execution of pipeline schedules.
//!
//! Executes a [`Schedule`] against the hardware model. Modelled resources:
//!
//! * **Worker compute** — one op at a time, durations from [`LayerCosts`];
//! * **Worker NIC** — outgoing transfers (activations forward, gradients
//!   backward) serialize on the producing worker's NIC and take
//!   latency + bytes/bandwidth on the link between the two workers;
//! * **Gradient sync** — a backward pass on a replicated stage triggers an
//!   all_reduce over the stage's weights across its replicas. Because
//!   weight *stashing* decouples in-flight backward passes from the latest
//!   weights, the sync overlaps with subsequent backward work but gates the
//!   worker's next *forward* pass (which must see the updated weights).
//!
//! The simulator is deterministic: it resolves the schedule's dependency
//! DAG to a fixpoint, so the same schedule and hardware always produce the
//! same timeline.

use crate::timeline::{Timeline, WorkKind};
use pipedream_core::schedule::{Op, Schedule};
use pipedream_core::ScheduleKind;
use pipedream_hw::Topology;
use pipedream_model::LayerCosts;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Result of a pipeline simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Compute timeline (forward/backward intervals per worker).
    pub timeline: Timeline,
    /// Communication timeline (transfers and syncs, on the producing
    /// worker's row).
    pub comm_timeline: Timeline,
    /// End-to-end time for all scheduled minibatches.
    pub makespan: f64,
    /// Steady-state seconds per minibatch, measured over the middle half of
    /// the run.
    pub per_minibatch_s: f64,
    /// Steady-state throughput in samples/second.
    pub samples_per_sec: f64,
    /// Total bytes moved (p2p transfers + all_reduce wire traffic).
    pub comm_bytes: u64,
    /// Mean compute utilization across workers over the whole run
    /// (including pipeline fill/drain).
    pub mean_utilization: f64,
    /// Estimated peak memory per worker: weight versions + activation
    /// stashes for the peak number of in-flight minibatches the schedule
    /// actually reached.
    pub peak_memory_bytes: Vec<u64>,
}

impl std::fmt::Display for SimResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "throughput {:.0} samples/s ({:.3} ms/minibatch), utilization {:.0}%",
            self.samples_per_sec,
            self.per_minibatch_s * 1e3,
            self.mean_utilization * 100.0
        )?;
        write!(
            f,
            "makespan {:.3} s, {:.1} MB communicated, peak memory {:.2} GB",
            self.makespan,
            self.comm_bytes as f64 / 1e6,
            *self.peak_memory_bytes.iter().max().unwrap_or(&0) as f64 / (1u64 << 30) as f64
        )
    }
}

/// Simulator binding a schedule to costs and a topology.
pub struct PipelineSim<'a> {
    costs: &'a LayerCosts,
    topo: &'a Topology,
    schedule: &'a Schedule,
    /// Memory-efficient schedule variant: recomputation re-runs each
    /// stage's forward inside the backward pass (trading compute for
    /// memory), and 2BW coalesces gradient syncs to one per update group
    /// while capping stashed weight versions at two.
    kind: ScheduleKind,
    /// Per-worker compute speed multipliers (platform diversity, §2.3):
    /// worker `w`'s op durations are divided by `speed[w]`. Empty = uniform.
    worker_speeds: Vec<f64>,
}

impl<'a> PipelineSim<'a> {
    /// Create a simulator. The schedule's configuration must match the
    /// model (`validate` is checked) and fit the topology's worker count.
    pub fn new(costs: &'a LayerCosts, topo: &'a Topology, schedule: &'a Schedule) -> Self {
        schedule
            .config
            .validate(costs.num_layers())
            .expect("schedule configuration does not cover the model");
        assert!(
            schedule.config.total_workers() <= topo.total_workers(),
            "configuration needs {} workers, topology has {}",
            schedule.config.total_workers(),
            topo.total_workers()
        );
        PipelineSim {
            costs,
            topo,
            schedule,
            kind: ScheduleKind::Vanilla1F1B,
            worker_speeds: Vec::new(),
        }
    }

    /// Model platform diversity (§2.3): per-worker compute speed factors
    /// (1.0 = nominal; 0.5 = half speed). Must have one entry per worker.
    pub fn with_worker_speeds(mut self, speeds: Vec<f64>) -> Self {
        assert_eq!(
            speeds.len(),
            self.schedule.config.total_workers(),
            "one speed per worker"
        );
        assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
        self.worker_speeds = speeds;
        self
    }

    /// Enable GPipe-style activation recomputation: each backward pass
    /// additionally pays the stage's forward time (and each worker's peak
    /// activation memory drops to the stage-input pins plus one working
    /// set). Composes with 2BW if that was already selected.
    pub fn with_recompute(mut self) -> Self {
        self.kind = if self.kind.uses_two_bw() {
            ScheduleKind::TwoBWRecompute
        } else {
            ScheduleKind::Recompute
        };
        self
    }

    /// Simulate under an explicit [`ScheduleKind`]: 2BW variants coalesce
    /// gradient syncs to one per update group and cap weight versions at
    /// two; recompute variants pay the forward again in each backward.
    pub fn with_schedule(mut self, kind: ScheduleKind) -> Self {
        self.kind = kind;
        self
    }

    /// Run the simulation.
    pub fn run(&self) -> SimResult {
        let config = &self.schedule.config;
        let workers = config.total_workers();
        let stages = config.stages();
        let num_stages = stages.len();
        let assignment = config.worker_assignment();
        // 2BW update-group size, shared with the runtime.
        let two_bw_group = config.two_bw_group(config.noam());

        // Per-stage durations.
        let fwd_dur: Vec<f64> = stages
            .iter()
            .map(|s| {
                (s.first_layer..=s.last_layer)
                    .map(|l| self.costs.layers[l].fwd_s)
                    .sum()
            })
            .collect();
        let bwd_dur: Vec<f64> = stages
            .iter()
            .map(|s| {
                (s.first_layer..=s.last_layer)
                    .map(|l| self.costs.layers[l].bwd_s)
                    .sum()
            })
            .collect();

        // Message availability: (worker, mb) → arrival time.
        let mut avail_fwd: HashMap<(usize, u64), f64> = HashMap::new();
        let mut avail_bwd: HashMap<(usize, u64), f64> = HashMap::new();
        // Worker state.
        let mut worker_free = vec![0.0f64; workers];
        let mut nic_free = vec![0.0f64; workers];
        let mut fwd_barrier = vec![0.0f64; workers]; // next fwd must wait for weight sync
        let mut next_op = vec![0usize; workers];
        let mut timeline = Timeline::new(workers);
        let mut comm_timeline = Timeline::new(workers);
        let mut comm_bytes = 0u64;
        let mut stage0_done: Vec<f64> = Vec::new();

        // Fixpoint resolution over the dependency DAG.
        loop {
            let mut progress = false;
            for w in 0..workers {
                loop {
                    let ws = &self.schedule.workers[w];
                    let Some(&op) = ws.ops.get(next_op[w]) else {
                        break;
                    };
                    let stage = ws.stage;
                    // Readiness.
                    let ready = match op {
                        Op::Forward { mb } => {
                            if stage == 0 {
                                Some(fwd_barrier[w])
                            } else {
                                avail_fwd.get(&(w, mb)).map(|&t| t.max(fwd_barrier[w]))
                            }
                        }
                        Op::Backward { mb } => {
                            if stage == num_stages - 1 {
                                // Loss computed locally right after forward.
                                Some(0.0)
                            } else {
                                avail_bwd.get(&(w, mb)).copied()
                            }
                        }
                        Op::Flush => Some(0.0),
                    };
                    let Some(ready) = ready else { break };
                    let start = ready.max(worker_free[w]);
                    let speed = self.worker_speeds.get(w).copied().unwrap_or(1.0);
                    let dur = match op {
                        Op::Forward { .. } => fwd_dur[stage],
                        Op::Backward { .. } => {
                            if self.kind.uses_recompute() {
                                // Re-run the forward to rebuild activations.
                                bwd_dur[stage] + fwd_dur[stage]
                            } else {
                                bwd_dur[stage]
                            }
                        }
                        Op::Flush => 0.0,
                    } / speed;
                    let end = start + dur;
                    worker_free[w] = end;
                    if dur > 0.0 {
                        timeline.record(w, start, end, WorkKind::from_op(op));
                    }
                    next_op[w] += 1;
                    progress = true;

                    // Effects.
                    match op {
                        Op::Forward { mb } => {
                            if stage + 1 < num_stages {
                                let dst = assignment[stage + 1][config.replica_for(stage + 1, mb)];
                                let bytes = self.costs.activation_bytes(stages[stage].last_layer);
                                let link = self
                                    .topo
                                    .link_between(w, dst)
                                    .expect("stages on distinct workers");
                                let depart = end.max(nic_free[w]);
                                let wire = bytes as f64 / link.bandwidth_bytes_per_sec;
                                nic_free[w] = depart + wire;
                                let arrive = depart + link.transfer_time(bytes);
                                comm_timeline.record(w, depart, arrive, WorkKind::Sync);
                                comm_bytes += bytes;
                                avail_fwd.insert((dst, mb), arrive);
                            } else {
                                avail_bwd.insert((w, mb), end);
                            }
                        }
                        Op::Backward { mb } => {
                            // Weight sync for replicated stages. Wait-free
                            // backpropagation streams each layer's gradient
                            // as soon as its backward completes, so the
                            // all_reduce overlaps with the backward pass
                            // itself (it departs at backward *start*, when
                            // the stage's last layers finish first); it
                            // gates the worker's next forward pass, which
                            // needs the updated weights.
                            let replicas = stages[stage].replicas;
                            // Under 2BW a replica accumulates gradients
                            // locally and joins one all_reduce per full
                            // update group instead of one per minibatch.
                            let syncs_now = if self.kind.uses_two_bw() {
                                let next = mb + replicas as u64;
                                (next / two_bw_group > mb / two_bw_group
                                    || next >= self.schedule.num_minibatches)
                                    && (mb / two_bw_group + 1) * two_bw_group
                                        <= self.schedule.num_minibatches
                            } else {
                                true
                            };
                            if replicas > 1 && syncs_now {
                                let sync = self.topo.allreduce_time_spanning(
                                    &assignment[stage],
                                    self.costs.weight_bytes(
                                        stages[stage].first_layer,
                                        stages[stage].last_layer,
                                    ),
                                );
                                let depart = start.max(nic_free[w]);
                                nic_free[w] = depart + sync;
                                fwd_barrier[w] = depart + sync;
                                comm_timeline.record(w, depart, depart + sync, WorkKind::Sync);
                                // This replica's share of the ring traffic.
                                let share = 2.0 * (replicas as f64 - 1.0) / replicas as f64
                                    * self.costs.weight_bytes(
                                        stages[stage].first_layer,
                                        stages[stage].last_layer,
                                    ) as f64;
                                comm_bytes += share as u64;
                            }
                            if stage > 0 {
                                let dst = assignment[stage - 1][config.replica_for(stage - 1, mb)];
                                let bytes =
                                    self.costs.activation_bytes(stages[stage - 1].last_layer);
                                let link = self
                                    .topo
                                    .link_between(w, dst)
                                    .expect("stages on distinct workers");
                                let depart = end.max(nic_free[w]);
                                let wire = bytes as f64 / link.bandwidth_bytes_per_sec;
                                nic_free[w] = depart + wire;
                                let arrive = depart + link.transfer_time(bytes);
                                comm_timeline.record(w, depart, arrive, WorkKind::Sync);
                                comm_bytes += bytes;
                                avail_bwd.insert((dst, mb), arrive);
                            } else {
                                stage0_done.push(end);
                            }
                        }
                        Op::Flush => {}
                    }
                }
            }
            if !progress {
                break;
            }
        }

        // Every op must have been resolved — otherwise the schedule had an
        // unsatisfiable dependency.
        for (w, done) in next_op.iter().enumerate() {
            assert_eq!(
                *done,
                self.schedule.workers[w].ops.len(),
                "worker {w} deadlocked at op {done}"
            );
        }

        let makespan = timeline.makespan();
        // Steady-state per-minibatch time over the middle half of stage-0
        // backward completions.
        stage0_done.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = stage0_done.len();
        let per_minibatch_s = if n >= 4 {
            let (lo, hi) = (n / 4, 3 * n / 4);
            (stage0_done[hi] - stage0_done[lo]) / (hi - lo) as f64
        } else {
            makespan / n.max(1) as f64
        };

        // Peak memory per worker from the realised in-flight depth,
        // mirroring `pipedream_core::estimates::memory_footprint_for`: 2BW
        // caps stashed weight versions at two, recomputation swaps the
        // per-minibatch activation stash for a stage-input pin per
        // in-flight minibatch plus one full activation working set.
        let peak_memory_bytes = (0..workers)
            .map(|w| {
                let stage = self.schedule.workers[w].stage;
                let s = &stages[stage];
                let in_flight = self.schedule.peak_in_flight(w).max(1) as u64;
                let versions = if self.kind.uses_two_bw() {
                    in_flight.min(2)
                } else {
                    in_flight
                };
                let weights = self.costs.weight_bytes(s.first_layer, s.last_layer);
                let acts: u64 = (s.first_layer..=s.last_layer)
                    .map(|l| self.costs.activation_bytes(l))
                    .sum();
                let input = if s.first_layer == 0 {
                    self.costs.activation_bytes(0)
                } else {
                    self.costs.activation_bytes(s.first_layer - 1)
                };
                let act_term = if self.kind.uses_recompute() {
                    in_flight * input + acts
                } else {
                    in_flight * acts
                };
                versions * weights + act_term
            })
            .collect();

        SimResult {
            mean_utilization: timeline.mean_utilization(),
            samples_per_sec: self.costs.batch as f64 / per_minibatch_s,
            per_minibatch_s,
            makespan,
            comm_bytes,
            timeline,
            comm_timeline,
            peak_memory_bytes,
        }
    }
}

/// Convenience: build the schedule and simulate in one call.
///
/// ```
/// use pipedream_core::{PipelineConfig, Schedule};
/// use pipedream_hw::{ClusterPreset, Precision};
/// use pipedream_model::zoo;
/// use pipedream_sim::simulate_pipeline;
///
/// let model = zoo::gnmt8();
/// let topo = ClusterPreset::A.with_servers(1);
/// let costs = model.costs(&topo.device, model.default_batch, Precision::Fp32);
/// let config = PipelineConfig::straight(model.num_layers(), &[2, 5, 8]);
/// let r = simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&config, 32));
/// assert!(r.samples_per_sec > 0.0);
/// assert!(r.mean_utilization <= 1.0);
/// ```
pub fn simulate_pipeline(costs: &LayerCosts, topo: &Topology, schedule: &Schedule) -> SimResult {
    PipelineSim::new(costs, topo, schedule).run()
}

/// Simulate with GPipe-style activation recomputation enabled (§2.2).
pub fn simulate_pipeline_recompute(
    costs: &LayerCosts,
    topo: &Topology,
    schedule: &Schedule,
) -> SimResult {
    PipelineSim::new(costs, topo, schedule)
        .with_recompute()
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedream_core::PipelineConfig;
    use pipedream_hw::{Device, LinkModel};
    use pipedream_model::zoo;

    fn fast_topo(n: usize) -> Topology {
        // Effectively infinite bandwidth: isolates schedule behaviour.
        Topology::flat(Device::v100(), n, LinkModel::new(1e15, 0.0), "fast")
    }

    fn uniform_costs(layers: usize) -> LayerCosts {
        zoo::uniform(layers, 1e9, 1000, 1000).costs(
            &Device::v100(),
            32,
            pipedream_hw::Precision::Fp32,
        )
    }

    #[test]
    fn model_parallel_has_one_active_worker() {
        // Figure 2: vanilla model parallelism keeps ≤ 1 worker busy when
        // communication is free.
        let costs = uniform_costs(4);
        let topo = fast_topo(4);
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let schedule = pipedream_core::Schedule::model_parallel(&config, 8);
        let r = simulate_pipeline(&costs, &topo, &schedule);
        // Total busy time equals makespan: never two workers at once.
        let total_busy: f64 = (0..4).map(|w| r.timeline.busy(w)).sum();
        assert!(
            (total_busy - r.makespan).abs() / r.makespan < 1e-6,
            "busy {total_busy} vs makespan {}",
            r.makespan
        );
        assert!(r.mean_utilization < 0.3);
    }

    #[test]
    fn one_f_one_b_reaches_full_utilization() {
        // Figure 4: in steady state every worker is busy. With balanced
        // stages and free communication, per-minibatch time approaches
        // (fwd+bwd)/stages × stages = fwd+bwd of one stage.
        let costs = uniform_costs(4);
        let topo = fast_topo(4);
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let schedule = pipedream_core::Schedule::one_f_one_b(&config, 64);
        let r = simulate_pipeline(&costs, &topo, &schedule);
        let stage_time = costs.layers[0].total_s();
        assert!(
            (r.per_minibatch_s - stage_time).abs() / stage_time < 0.05,
            "per-mb {} vs stage {}",
            r.per_minibatch_s,
            stage_time
        );
        assert!(r.mean_utilization > 0.85, "util {}", r.mean_utilization);
    }

    #[test]
    fn pipeline_beats_model_parallelism_by_stage_count() {
        // §5.3: pipelining alone increases throughput ≥ 2× over model
        // parallelism; with balanced stages and free comm it approaches the
        // stage count.
        let costs = uniform_costs(4);
        let topo = fast_topo(4);
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let mp = simulate_pipeline(
            &costs,
            &topo,
            &pipedream_core::Schedule::model_parallel(&config, 32),
        );
        let pp = simulate_pipeline(
            &costs,
            &topo,
            &pipedream_core::Schedule::one_f_one_b(&config, 32),
        );
        let speedup = pp.samples_per_sec / mp.samples_per_sec;
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn gpipe_slower_than_1f1b_due_to_flushes() {
        // §5.4: GPipe's pipeline flushes cost throughput at equal in-flight
        // budget.
        let costs = uniform_costs(4);
        let topo = fast_topo(4);
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let gpipe = simulate_pipeline(
            &costs,
            &topo,
            &pipedream_core::Schedule::gpipe(&config, 64, 4),
        );
        let ofob = simulate_pipeline(
            &costs,
            &topo,
            &pipedream_core::Schedule::one_f_one_b(&config, 64),
        );
        assert!(
            gpipe.per_minibatch_s > 1.2 * ofob.per_minibatch_s,
            "gpipe {} vs 1f1b {}",
            gpipe.per_minibatch_s,
            ofob.per_minibatch_s
        );
    }

    #[test]
    fn replicated_stage_balances_unbalanced_model() {
        // Figure 8: a 2-1 config over a model whose first stage is twice
        // the work of the second sustains the same rate at both stages.
        let mut profile = zoo::uniform(2, 2e9, 1000, 1000);
        profile.layers[1].flops_fwd = 1e9;
        let costs = profile.costs(&Device::v100(), 32, pipedream_hw::Precision::Fp32);
        let topo = fast_topo(3);
        let config = PipelineConfig::from_counts(&[(1, 2), (1, 1)]);
        let schedule = pipedream_core::Schedule::one_f_one_b(&config, 64);
        let r = simulate_pipeline(&costs, &topo, &schedule);
        // Ideal steady state: stage 1 is the bottleneck at its own total_s.
        let ideal = costs.layers[1].total_s();
        assert!(
            r.per_minibatch_s < 1.15 * ideal,
            "per-mb {} vs ideal {}",
            r.per_minibatch_s,
            ideal
        );
    }

    #[test]
    fn slow_links_stall_the_pipeline() {
        let costs = uniform_costs(4);
        let fast = fast_topo(4);
        let slow = Topology::flat(Device::v100(), 4, LinkModel::new(1e6, 0.0), "slow");
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let schedule = pipedream_core::Schedule::one_f_one_b(&config, 32);
        let rf = simulate_pipeline(&costs, &fast, &schedule);
        let rs = simulate_pipeline(&costs, &slow, &schedule);
        assert!(rs.per_minibatch_s > 2.0 * rf.per_minibatch_s);
        assert!(rs.comm_bytes == rf.comm_bytes, "same bytes, slower links");
    }

    #[test]
    fn comm_bytes_match_estimator() {
        let costs = uniform_costs(4);
        let topo = fast_topo(4);
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let n = 32u64;
        let schedule = pipedream_core::Schedule::one_f_one_b(&config, n);
        let r = simulate_pipeline(&costs, &topo, &schedule);
        let per_sample = pipedream_core::estimates::pp_bytes_per_sample(&costs, &config);
        let expected = per_sample * costs.batch as f64 * n as f64;
        assert!(
            (r.comm_bytes as f64 - expected).abs() / expected < 0.01,
            "sim {} vs estimate {}",
            r.comm_bytes,
            expected
        );
    }

    #[test]
    fn makespan_conservation() {
        // busy + idle = makespan for every worker.
        let costs = uniform_costs(6);
        let topo = fast_topo(3);
        let config = PipelineConfig::straight(6, &[1, 3]);
        let schedule = pipedream_core::Schedule::one_f_one_b(&config, 16);
        let r = simulate_pipeline(&costs, &topo, &schedule);
        for w in 0..3 {
            assert!(r.timeline.busy(w) <= r.makespan + 1e-12);
        }
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn sim_result_displays_key_numbers() {
        let costs = uniform_costs(4);
        let topo = fast_topo(4);
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let r = simulate_pipeline(
            &costs,
            &topo,
            &pipedream_core::Schedule::one_f_one_b(&config, 16),
        );
        let text = r.to_string();
        assert!(text.contains("samples/s"));
        assert!(text.contains("peak memory"));
    }

    #[test]
    fn deterministic_runs() {
        let costs = uniform_costs(4);
        let topo = fast_topo(4);
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let schedule = pipedream_core::Schedule::one_f_one_b(&config, 24);
        let a = simulate_pipeline(&costs, &topo, &schedule);
        let b = simulate_pipeline(&costs, &topo, &schedule);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.comm_bytes, b.comm_bytes);
    }

    #[test]
    fn recompute_trades_time_for_memory() {
        // §2.2: GPipe discards activation stashes and recomputes them,
        // costing throughput but saving activation memory. Stages must
        // span several layers for the saving to beat the stage-input pin.
        let costs = uniform_costs(8);
        let topo = fast_topo(4);
        let config = PipelineConfig::straight(8, &[1, 3, 5]);
        let schedule = pipedream_core::Schedule::gpipe(&config, 32, 4);
        let plain = simulate_pipeline(&costs, &topo, &schedule);
        let rec = simulate_pipeline_recompute(&costs, &topo, &schedule);
        assert!(rec.per_minibatch_s > plain.per_minibatch_s);
        assert!(rec.peak_memory_bytes[0] < plain.peak_memory_bytes[0]);
    }

    #[test]
    fn two_bw_caps_weight_versions_at_two() {
        // PipeDream-2BW: the input stage of a deep pipeline holds its full
        // in-flight depth in weight versions under vanilla stashing but
        // only two generations under double-buffered updates. Activation
        // stashes are untouched, so the gap is exactly the weight term.
        let costs = uniform_costs(8);
        let topo = fast_topo(4);
        let config = PipelineConfig::straight(8, &[1, 3, 5]);
        let schedule = pipedream_core::Schedule::one_f_one_b(&config, 32);
        let vanilla = simulate_pipeline(&costs, &topo, &schedule);
        let two_bw = PipelineSim::new(&costs, &topo, &schedule)
            .with_schedule(ScheduleKind::TwoBW)
            .run();
        let in_flight = schedule.peak_in_flight(0).max(1) as u64;
        assert!(in_flight > 2, "deep pipeline expected, got {in_flight}");
        let weights = costs.weight_bytes(0, 1);
        assert_eq!(
            vanilla.peak_memory_bytes[0] - two_bw.peak_memory_bytes[0],
            (in_flight - 2) * weights
        );
        // The drain stage has one minibatch in flight: no difference.
        assert_eq!(vanilla.peak_memory_bytes[3], two_bw.peak_memory_bytes[3]);
        // Timing is untouched — 2BW changes what is stashed, not the DAG.
        assert_eq!(vanilla.timeline, two_bw.timeline);
    }

    #[test]
    fn two_bw_coalesces_gradient_syncs() {
        // A replicated input stage all_reduces once per update group under
        // 2BW instead of once per backward, shrinking wire traffic.
        let costs = uniform_costs(4);
        let topo = fast_topo(5);
        let config = PipelineConfig::from_counts(&[(1, 2), (1, 1), (1, 1), (1, 1)]);
        let schedule = pipedream_core::Schedule::one_f_one_b(&config, 32);
        let vanilla = simulate_pipeline(&costs, &topo, &schedule);
        let two_bw = PipelineSim::new(&costs, &topo, &schedule)
            .with_schedule(ScheduleKind::TwoBW)
            .run();
        assert!(
            two_bw.comm_bytes < vanilla.comm_bytes,
            "2bw {} vs vanilla {}",
            two_bw.comm_bytes,
            vanilla.comm_bytes
        );
    }

    #[test]
    fn peak_memory_decreases_along_straight_pipeline() {
        let costs = uniform_costs(4);
        let topo = fast_topo(4);
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let schedule = pipedream_core::Schedule::one_f_one_b(&config, 32);
        let r = simulate_pipeline(&costs, &topo, &schedule);
        assert!(r.peak_memory_bytes[0] > r.peak_memory_bytes[3]);
    }
}

#[cfg(test)]
mod heterogeneity_tests {
    use super::*;
    use pipedream_core::{PipelineConfig, Planner};
    use pipedream_hw::{Device, LinkModel, Precision};
    use pipedream_model::zoo;

    #[test]
    fn slow_worker_bottlenecks_the_pipeline() {
        // Platform diversity (§2.3): a half-speed worker halves the
        // balanced pipeline's throughput.
        let profile = zoo::uniform(4, 2e9, 10_000, 10_000);
        let costs = profile.costs(&Device::v100(), 32, Precision::Fp32);
        let topo = Topology::flat(Device::v100(), 4, LinkModel::new(1e14, 0.0), "het");
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let schedule = pipedream_core::Schedule::one_f_one_b(&config, 48);
        let uniform = PipelineSim::new(&costs, &topo, &schedule).run();
        let slowed = PipelineSim::new(&costs, &topo, &schedule)
            .with_worker_speeds(vec![1.0, 0.5, 1.0, 1.0])
            .run();
        let ratio = slowed.per_minibatch_s / uniform.per_minibatch_s;
        assert!((1.8..=2.2).contains(&ratio), "slowdown ratio {ratio}");
    }

    #[test]
    fn weighted_boundaries_rebalance_heterogeneous_workers() {
        // Speed-aware partitioning recovers most of the loss: give the
        // half-speed worker half the compute.
        let profile = zoo::uniform(16, 2e9, 10_000, 10_000);
        let costs = profile.costs(&Device::v100(), 32, Precision::Fp32);
        let topo = Topology::flat(Device::v100(), 4, LinkModel::new(1e14, 0.0), "het");
        let planner = Planner::new(&profile, &topo);
        let speeds = [1.0, 0.5, 1.0, 1.0];

        let naive = PipelineConfig::straight(16, &planner.balanced_boundaries(4).unwrap());
        let naive_sched = pipedream_core::Schedule::one_f_one_b(&naive, 48);
        let naive_r = PipelineSim::new(&costs, &topo, &naive_sched)
            .with_worker_speeds(speeds.to_vec())
            .run();

        let weighted = PipelineConfig::straight(16, &planner.weighted_boundaries(&speeds).unwrap());
        let weighted_sched = pipedream_core::Schedule::one_f_one_b(&weighted, 48);
        let weighted_r = PipelineSim::new(&costs, &topo, &weighted_sched)
            .with_worker_speeds(speeds.to_vec())
            .run();

        assert!(
            weighted_r.per_minibatch_s < 0.75 * naive_r.per_minibatch_s,
            "weighted {} vs naive {}",
            weighted_r.per_minibatch_s,
            naive_r.per_minibatch_s
        );
    }

    #[test]
    #[should_panic(expected = "one speed per worker")]
    fn speed_vector_length_checked() {
        let profile = zoo::uniform(2, 1e9, 100, 100);
        let costs = profile.costs(&Device::v100(), 8, Precision::Fp32);
        let topo = Topology::flat(Device::v100(), 2, LinkModel::new(1e12, 0.0), "x");
        let config = PipelineConfig::straight(2, &[0]);
        let schedule = pipedream_core::Schedule::one_f_one_b(&config, 4);
        let _ = PipelineSim::new(&costs, &topo, &schedule).with_worker_speeds(vec![1.0]);
    }
}
