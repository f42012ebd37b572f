//! The `plan-sim` workload and the `core`/`sim` probes: §3.1 planner calls
//! over the model zoo and the paper's clusters, each followed by a
//! discrete-event simulation of the chosen plan. Single-threaded; no
//! tensor or runtime work.

use crate::report::{
    fast_side, median, median_time_s, Better, Latency, Metrics, Reservoir, Tally, PLAN_MODES,
    SIM_DEPTHS,
};
use pipedream_core::fingerprint::fingerprint_plan_request;
use pipedream_core::schedule::Schedule;
use pipedream_core::{PipelineConfig, Plan, PlanError, Planner, ScheduleKind};
use pipedream_hw::{ClusterPreset, Device, LinkModel, Precision, Topology};
use pipedream_model::{zoo, ModelProfile};
use pipedream_sim::pipeline::{PipelineSim, SimResult};
use pipedream_tensor::init::rng;
use rand::seq::SliceRandom;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-worker budget of the memory-limited mode.
const MEMORY_LIMIT: u64 = 4 << 30;
/// Times kept per query (a uniform sample beyond that; a 20 s run makes
/// about two hundred passes).
const QUERY_SAMPLES: usize = 1 << 10;
/// Minibatches simulated per plan.
const SIM_MINIBATCHES: u64 = 32;

/// One planner query: model × cluster size × mode, as indices.
#[derive(Debug, Clone, Copy)]
struct Query {
    model: usize,
    topo: usize,
    mode: usize,
}

/// The fixed sweep: every zoo model on clusters A, B and C with 1, 2 and 4
/// servers, in the three planner modes, issued in a seeded order.
struct Sweep {
    models: Vec<ModelProfile>,
    topos: Vec<Topology>,
    topo_names: Vec<String>,
    queries: Vec<Query>,
}

impl Sweep {
    fn build(seed: u64) -> Sweep {
        let mut models = zoo::all_models();
        models.push(zoo::huge_lm());
        let mut topos = Vec::new();
        let mut topo_names = Vec::new();
        for cluster in [ClusterPreset::A, ClusterPreset::B, ClusterPreset::C] {
            for servers in [1, 2, 4] {
                topos.push(cluster.with_servers(servers));
                topo_names.push(format!("{} x{servers}", cluster.name()));
            }
        }
        let mut queries = Vec::new();
        for model in 0..models.len() {
            for topo in 0..topos.len() {
                for mode in 0..PLAN_MODES.len() {
                    queries.push(Query { model, topo, mode });
                }
            }
        }
        queries.shuffle(&mut rng(seed));
        Sweep {
            models,
            topos,
            topo_names,
            queries,
        }
    }

    fn planner(&self, q: Query) -> Planner<'_> {
        let p = Planner::new(&self.models[q.model], &self.topos[q.topo]);
        if PLAN_MODES[q.mode] == "memlimit" {
            p.with_schedule(ScheduleKind::TwoBWRecompute)
                .with_memory_limit(MEMORY_LIMIT)
        } else {
            p
        }
    }

    fn plan(&self, planner: &Planner, q: Query) -> Result<Plan, PlanError> {
        if PLAN_MODES[q.mode] == "hier" {
            planner.try_plan()
        } else {
            planner.try_plan_flat()
        }
    }

    /// One op: plan the query and simulate the plan. Returns the planner
    /// answer, the simulation (when a plan exists) and the op's latency.
    fn op(&self, q: Query) -> (Result<Plan, PlanError>, Option<(Schedule, SimResult)>, f64) {
        let t = Instant::now();
        let planner = self.planner(q);
        let plan = self.plan(&planner, q);
        let sim = plan.as_ref().ok().map(|p| {
            let schedule = Schedule::one_f_one_b(&p.config, SIM_MINIBATCHES);
            let sim = PipelineSim::new(planner.costs(), &self.topos[q.topo], &schedule)
                .with_schedule(planner.schedule())
                .run();
            (schedule, sim)
        });
        let elapsed = t.elapsed().as_secs_f64();
        (plan, sim, elapsed)
    }

    /// The correctness rule for one op (run outside the timed region).
    fn check(
        &self,
        q: Query,
        plan: &Result<Plan, PlanError>,
        sim: &Option<(Schedule, SimResult)>,
    ) -> Result<(), String> {
        let name = || {
            format!(
                "{} on {} ({})",
                self.models[q.model].name, self.topo_names[q.topo], PLAN_MODES[q.mode]
            )
        };
        let planner = self.planner(q);
        match plan {
            Ok(p) => {
                p.config
                    .validate(self.models[q.model].num_layers())
                    .map_err(|e| format!("{}: plan does not cover the model: {e}", name()))?;
                if !(p.samples_per_sec.is_finite() && p.samples_per_sec > 0.0) {
                    return Err(format!("{}: samples_per_sec {}", name(), p.samples_per_sec));
                }
                if PLAN_MODES[q.mode] == "memlimit"
                    && !planner.config_fits_memory(&p.config, MEMORY_LIMIT)
                {
                    return Err(format!("{}: plan exceeds the memory limit", name()));
                }
            }
            // Infeasible is a legal answer only under a memory limit, and
            // only if the unconstrained plan indeed does not fit.
            Err(PlanError::MemoryInfeasible { .. }) if PLAN_MODES[q.mode] == "memlimit" => {
                let free = Planner::new(&self.models[q.model], &self.topos[q.topo])
                    .with_schedule(ScheduleKind::TwoBWRecompute)
                    .try_plan_flat()
                    .map_err(|e| format!("{}: unconstrained plan failed: {e}", name()))?;
                if planner.config_fits_memory(&free.config, MEMORY_LIMIT) {
                    return Err(format!(
                        "{}: infeasible, yet {} fits",
                        name(),
                        free.config.label()
                    ));
                }
            }
            Err(e) => return Err(format!("{}: {e}", name())),
        }
        if let Some((schedule, sim)) = sim {
            check_events(schedule, sim).map_err(|e| format!("{}: {e}", name()))?;
        }
        Ok(())
    }
}

/// Compute intervals the simulator emitted; one per scheduled op.
fn compute_events(sim: &SimResult) -> u64 {
    sim.timeline.per_worker.iter().map(|w| w.len() as u64).sum()
}

fn check_events(schedule: &Schedule, sim: &SimResult) -> Result<(), String> {
    let want: u64 = schedule.workers.iter().map(|w| w.ops.len() as u64).sum();
    let got = compute_events(sim);
    if got != want || !(sim.makespan.is_finite() && sim.makespan > 0.0) {
        return Err(format!(
            "simulation emitted {got} compute events for {want} scheduled ops (makespan {})",
            sim.makespan
        ));
    }
    Ok(())
}

/// The untraced workload: set up `setups` times (profiles, topologies and
/// one warm-up pass), then repeat passes for `seconds`. A pass issues
/// every planner query of the sweep, each planned and simulated. Each
/// query is deterministic single-threaded work, so its cost is the fast
/// side of its times over the run; the metrics are read from those 216
/// costs: ops per second of a pass at that cost, their median, and the
/// highest percentile with ten queries beyond it (p95). (The uniform
/// depth-8/64/512 simulations are timed by the probe only: their
/// megabytes of simulator state make a run's speed swing with the cache
/// pressure of whatever else shares the machine.)
pub fn run(seed: u64, seconds: f64, setups: usize) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut sweep = None;
    for _ in 0..setups {
        let t = Instant::now();
        let s = Sweep::build(seed);
        for &q in &s.queries {
            drop(black_box(s.op(q)));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        sweep = Some(s);
    }
    let sweep = sweep.expect("at least one set-up");

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut times_ms: Vec<Reservoir> = (0..sweep.queries.len())
        .map(|i| Reservoir::new(QUERY_SAMPLES, seed ^ i as u64))
        .collect();
    let mut passes = 0;
    'outer: loop {
        for (&q, times) in sweep.queries.iter().zip(&mut times_ms) {
            let (plan, sim, elapsed) = sweep.op(q);
            times.push(elapsed * 1e3);
            tally.op(sweep.check(q, &plan, &sim));
            if passes > 0 && Instant::now() >= deadline {
                break 'outer;
            }
        }
        passes += 1;
    }
    let ops: u64 = times_ms.iter().map(Reservoir::seen).sum();
    let cost_ms: Vec<f64> = times_ms
        .into_iter()
        .map(|t| fast_side(&t.into_samples(), Better::Lower))
        .collect();
    let pass_ms: f64 = cost_ms.iter().sum();
    let lat = Latency::of(cost_ms);
    eprintln!(
        "plan-sim: {ops} ops over {passes} complete passes; per-query cost over {} queries: \
         pass {pass_ms:.2} ms, p50 {:.4} ms, p{:.0} {:.3} ms",
        lat.n,
        lat.p50,
        lat.tail_q * 100.0,
        lat.tail
    );
    let mut m = Metrics::default();
    m.set("ops_per_s", lat.n as f64 / (pass_ms * 1e-3));
    m.set("op_ms_p50", lat.p50);
    m.set("op_ms_tail", lat.tail);
    m.set("setup_s", median(&setup_s));
    (m, tally)
}

/// A uniform one-layer-per-stage pipeline of `depth` stages, as in
/// `sim_bench`, with the minibatch count that keeps each run comparable.
fn depth_case(depth: usize) -> (pipedream_model::LayerCosts, Topology, PipelineConfig, u64) {
    let costs =
        zoo::uniform(depth, 1e9, 10_000, 10_000).costs(&Device::v100(), 32, Precision::Fp32);
    let boundaries: Vec<usize> = (0..depth - 1).collect();
    let config = PipelineConfig::straight(depth, &boundaries);
    let topo = Topology::flat(Device::v100(), depth, LinkModel::new(1e11, 1e-6), "uniform");
    let minibatches = match depth {
        8 => 512,
        64 => 256,
        _ => 64,
    };
    (costs, topo, config, minibatches)
}

/// The traced probe of the `core`, `sim` and `model` layers: every
/// planner mode timed alone over repeated sweeps (at least `min_calls`
/// calls per mode), schedule construction, request fingerprinting, cost
/// materialisation and simulation at three depths.
pub fn probe(seed: u64, min_calls: usize) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let sweep = Sweep::build(seed);
    let mut per_mode: Vec<Vec<f64>> = vec![Vec::new(); PLAN_MODES.len()];
    while per_mode.iter().any(|v| v.len() < min_calls) {
        for &q in &sweep.queries {
            let planner = sweep.planner(q);
            let t = Instant::now();
            let plan = sweep.plan(&planner, q);
            per_mode[q.mode].push(t.elapsed().as_secs_f64() * 1e3);
            tally.op(sweep.check(q, &plan, &None));
        }
    }
    for (mode, samples) in PLAN_MODES.iter().zip(per_mode) {
        let lat = Latency::of(samples);
        m.set(format!("core.plan_ms_p50.{mode}"), lat.p50);
        m.set(format!("core.plan_ms_p99.{mode}"), lat.tail);
    }

    for d in [8, 512] {
        let (_, _, config, mbs) = depth_case(d);
        let s = median_time_s(9, || drop(black_box(Schedule::one_f_one_b(&config, mbs))));
        m.set(format!("core.schedule_build_ms.d{d}"), s * 1e3);
    }
    let (vgg, topo) = (&sweep.models[0], &sweep.topos[2]);
    let s = median_time_s(2_001, || {
        black_box(
            fingerprint_plan_request(
                vgg,
                topo,
                64,
                Precision::Fp32,
                "hier",
                None,
                ScheduleKind::Vanilla1F1B,
            )
            .expect("finite profile"),
        );
    });
    m.set("core.fingerprint_us", s * 1e6);
    let device = Device::v100();
    let s = median_time_s(501, || {
        for p in &sweep.models {
            black_box(p.costs(&device, p.default_batch, Precision::Fp32));
        }
    });
    m.set("model.costs_us", s * 1e6 / sweep.models.len() as f64);

    for d in SIM_DEPTHS {
        let (costs, topo, config, mbs) = depth_case(d);
        let schedule = Schedule::one_f_one_b(&config, mbs);
        let mut events = 0;
        let s = median_time_s(5, || {
            let sim = PipelineSim::new(&costs, &topo, &schedule).run();
            tally.op(check_events(&schedule, &sim));
            events = compute_events(&sim)
                + sim
                    .comm_timeline
                    .per_worker
                    .iter()
                    .map(|w| w.len() as u64)
                    .sum::<u64>();
        });
        m.set(format!("sim.run_ms.d{d}"), s * 1e3);
        m.set(format!("sim.us_per_event.d{d}"), s * 1e6 / events as f64);
    }
    (m, tally)
}
