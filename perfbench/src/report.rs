//! The benchmark's metric catalogue and result accounting: which metrics
//! exist (name, unit, direction), the percentile rule, the op/failure
//! tally behind `attempted`/`failed`, and the one-line JSON result.

use pipedream_tensor::init::rng;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn spec(name: impl Into<String>, unit: &'static str, better: Better) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
    }
}

/// End-to-end metrics, reported by the untraced run of every workload,
/// with the bound (share of the parent's median) each may worsen by.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("ops_per_s", "1/s", Better::Higher, 0.25),
    ("op_ms_p50", "ms", Better::Lower, 0.25),
    ("op_ms_tail", "ms", Better::Lower, 0.25),
    ("peak_rss_mib", "MiB", Better::Lower, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
];

pub fn end_to_end() -> Vec<Spec> {
    END_TO_END
        .iter()
        .map(|&(n, u, b, _)| spec(n, u, b))
        .collect()
}

/// Layers (`L{i}`) of both training models; they are built to the same
/// depth so every traced run reports the same metric names.
pub const MODEL_LAYERS: usize = 11;
/// Pipeline stages of both training workloads.
pub const STAGES: usize = 2;
/// Critical-path causes reported per stage: every cause a fault-free,
/// unreplicated, vanilla-1F1B run attributes time to.
pub const CAUSES: [&str; 4] = ["compute", "wait_upstream", "optimizer_step", "fill_drain"];
/// Planner modes timed by the core probe.
pub const PLAN_MODES: [&str; 3] = ["hier", "flat", "memlimit"];
/// Simulated pipeline depths timed by the sim probe.
pub const SIM_DEPTHS: [usize; 3] = [8, 64, 512];

/// Per-layer metrics, reported by the traced run of every workload.
pub fn per_layer() -> Vec<Spec> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    for dir in ["fwd", "bwd"] {
        for l in 0..MODEL_LAYERS {
            v.push(spec(format!("tensor.layer_{dir}_ms.L{l}"), "ms", Lower));
        }
    }
    v.push(spec("tensor.gemm_gflops", "GFLOP/s", Higher));
    v.push(spec("tensor.pool_miss_per_mb", "count", Lower));
    for l in 0..MODEL_LAYERS {
        v.push(spec(format!("model.profiled_fwd_ms.L{l}"), "ms", Lower));
    }
    v.push(spec("model.costs_us", "us", Lower));
    for what in ["fwd", "bwd", "optimizer"] {
        for s in 0..STAGES {
            v.push(spec(format!("runtime.{what}_ms_per_mb.s{s}"), "ms", Lower));
        }
    }
    for s in 0..STAGES {
        v.push(spec(format!("runtime.stash_snapshot_ms.s{s}"), "ms", Lower));
    }
    for s in 0..STAGES {
        v.push(spec(
            format!("runtime.versions_held_max.s{s}"),
            "count",
            Lower,
        ));
    }
    for s in 0..STAGES {
        v.push(spec(
            format!("runtime.activation_mib_max.s{s}"),
            "MiB",
            Lower,
        ));
    }
    v.push(spec("runtime.seq_samples_per_s", "samples/s", Higher));
    v.push(spec("runtime.pipeline_speedup", "ratio", Higher));
    for cause in CAUSES {
        for s in 0..STAGES {
            v.push(spec(
                format!("obs.cause_ms_per_mb.{cause}.s{s}"),
                "ms",
                Lower,
            ));
        }
    }
    v.push(spec("obs.trace_overhead_ratio", "ratio", Higher));
    v.push(spec("obs.events_dropped", "count", Lower));
    for q in ["p50", "p99"] {
        for mode in PLAN_MODES {
            v.push(spec(format!("core.plan_ms_{q}.{mode}"), "ms", Lower));
        }
    }
    for d in [8, 512] {
        v.push(spec(format!("core.schedule_build_ms.d{d}"), "ms", Lower));
    }
    v.push(spec("core.fingerprint_us", "us", Lower));
    for d in SIM_DEPTHS {
        v.push(spec(format!("sim.run_ms.d{d}"), "ms", Lower));
    }
    for d in SIM_DEPTHS {
        v.push(spec(format!("sim.us_per_event.d{d}"), "us", Lower));
    }
    v.push(spec("serve.handle_plan_us_warm", "us", Lower));
    v.push(spec("serve.handle_plan_ms_cold", "ms", Lower));
    v.push(spec("serve.healthz_us_p50", "us", Lower));
    v.push(spec("serve.cache_hit_ratio", "ratio", Higher));
    v.push(spec("serve.cache_evictions", "count", Lower));
    v.push(spec("serve.cache_coalesced", "count", Higher));
    v
}

/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[percentile_rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of quantile `q` among `n > 0` samples.
fn percentile_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail quantile a sample of `n` supports: the highest percentile with
/// at least ten samples beyond it, capped at p99 (so p99 from 1 000
/// samples up), and never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    let q = (n.saturating_sub(10) as f64 / n.max(1) as f64).min(0.99);
    (q * 100.0).floor() / 100.0
}

/// Median and tail of a latency sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub tail_q: f64,
    pub tail: f64,
}

impl Latency {
    pub fn of(mut samples: Vec<f64>) -> Latency {
        samples.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(samples.len()).max(0.5);
        Latency {
            n: samples.len(),
            p50: percentile(&samples, 0.5),
            tail_q,
            tail: percentile(&samples, tail_q),
        }
    }
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// The quantile of a run's repeats at which its speed is read. Other
/// tenants of a shared host come and go for seconds at a time and only
/// ever slow a repeat of identical work down (on the reference machine by
/// up to 1.7× for seconds on end); the fastest twentieth of the repeats
/// tracks the program's own cost whenever a twentieth of the run went
/// unhindered, where the median jumps with the share of the run that
/// happened to be loaded.
pub const FAST_SIDE: f64 = 0.05;

/// The fast side of repeated identical work: the `FAST_SIDE` quantile of
/// its costs (times, latencies), or of its rates read from the top when
/// `better` is `Higher`. `samples` must not be empty.
pub fn fast_side(samples: &[f64], better: Better) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let k = percentile_rank(s.len(), FAST_SIDE);
    match better {
        Better::Lower => s[k - 1],
        Better::Higher => s[s.len() - k],
    }
}

/// Median wall time of `f` over `reps` calls, in seconds.
pub fn median_time_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// A uniform random sample of at most `capacity` values from a stream
/// (Algorithm R), in memory allocated and touched up front: the
/// benchmark's own bookkeeping must not grow the process's peak RSS with
/// the throughput it measures.
pub struct Reservoir {
    buf: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: StdRng,
}

impl Reservoir {
    pub fn new(capacity: usize, seed: u64) -> Reservoir {
        let mut buf = Vec::with_capacity(capacity);
        buf.resize(capacity, f64::NAN);
        buf.clear();
        Reservoir {
            buf,
            capacity,
            seen: 0,
            rng: rng(seed),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(v);
        } else {
            let j = self.rng.gen_range(0..self.seen);
            if j < self.capacity as u64 {
                self.buf[j as usize] = v;
            }
        }
    }

    /// Values offered so far (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn into_samples(self) -> Vec<f64> {
        self.buf
    }
}

/// Operations attempted and failed, plus the named checks that failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` names what was wrong with it.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Count a failed operation (already included in `attempted`).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        // A systematic failure repeats on every op; keep the log short.
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// A run-level check: not an operation, but it must hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.attempted += 1;
            self.fail(what());
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// Metric values gathered by a run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Render the result line: exactly the catalogued metrics, each with its
/// unit. A metric missing, extra or non-finite is a benchmark defect and
/// is reported as a failed check.
pub fn render(specs: &[Spec], metrics: &Metrics, tally: &mut Tally) -> String {
    for name in metrics.0.keys() {
        tally.check(specs.iter().any(|s| &s.name == name), || {
            format!("metric {name} is not catalogued")
        });
    }
    let mut body = String::new();
    for s in specs {
        tally.check(valid_name(&s.name), || {
            format!("metric name {:?} is not valid", s.name)
        });
        let value = metrics.get(&s.name).filter(|v| v.is_finite());
        tally.check(value.is_some(), || {
            format!("metric {} missing or not finite", s.name)
        });
        if let Some(v) = value {
            if !body.is_empty() {
                body.push_str(", ");
            }
            write!(
                body,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                s.name, s.unit
            )
            .expect("writing to a String");
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(50_000), 0.99);
        assert_eq!(tail_quantile(500), 0.98);
        assert_eq!(tail_quantile(100), 0.9);
        for n in [20usize, 37, 100, 250, 999, 1_000, 4_321] {
            let q = tail_quantile(n);
            let beyond = n - (q * n as f64).ceil() as usize;
            assert!(beyond >= 10, "n={n} q={q} leaves {beyond} beyond");
        }
    }

    #[test]
    fn latency_reports_sample_count_and_percentiles() {
        let samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let l = Latency::of(samples);
        assert_eq!(l.n, 1_000);
        assert_eq!(l.p50, 500.0);
        assert_eq!(l.tail_q, 0.99);
        assert_eq!(l.tail, 990.0);
        // Too few samples for any tail: the tail falls back to the median.
        let small = Latency::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((small.n, small.p50, small.tail), (3, 2.0, 2.0));
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1_000, 7);
        for v in 0..100_000 {
            r.push(f64::from(v));
        }
        assert_eq!(r.seen(), 100_000);
        let s = r.into_samples();
        assert_eq!(s.len(), 1_000);
        // Uniform over the stream: the median of the kept values sits near
        // the stream's median.
        let m = median(&s);
        assert!((40_000.0..60_000.0).contains(&m), "median {m}");
        let mut small = Reservoir::new(10, 1);
        small.push(2.0);
        small.push(1.0);
        assert_eq!(small.into_samples(), [2.0, 1.0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert_eq!(percentile(&s, 0.51), 3.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn fast_side_ignores_a_loaded_stretch() {
        // 40 repeats, 30 of them slowed by interference: the fast side
        // reads the unhindered cost (the 2nd smallest, 2nd largest rate).
        let mut times: Vec<f64> = (0..10).map(|i| 1.0 + 0.01 * f64::from(i)).collect();
        times.extend((0..30).map(|i| 1.7 + 0.01 * f64::from(i)));
        assert_eq!(fast_side(&times, Better::Lower), 1.01);
        let rates: Vec<f64> = times.iter().map(|t| 1.0 / t).collect();
        assert_eq!(fast_side(&rates, Better::Higher), 1.0 / 1.01);
        assert_eq!(fast_side(&[4.0], Better::Lower), 4.0);
        assert_eq!(fast_side(&[4.0], Better::Higher), 4.0);
    }

    #[test]
    fn catalogued_names_are_valid_and_unique() {
        let mut all = end_to_end();
        all.extend(per_layer());
        assert!(per_layer().len() <= 128);
        for s in &all {
            assert!(valid_name(&s.name), "bad metric name {}", s.name);
            assert!(
                s.unit.len() <= 16
                    && s.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {}",
                s.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric names");
        assert!(!valid_name("a b"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("obs.cause{x}"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn tally_counts_failed_ops_and_checks() {
        let mut t = Tally::default();
        t.op(Ok(()));
        t.op(Ok(()));
        t.op(Err("bad plan".into()));
        t.check(true, || unreachable!());
        assert_eq!((t.attempted, t.failed), (3, 1));
        t.check(false, || "loss diverged".into());
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_ratio(), 0.5);
        assert_eq!(t.problems, ["bad plan", "loss diverged"]);
        let mut other = Tally::default();
        other.op(Ok(()));
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (5, 2));
    }

    #[test]
    fn render_prints_every_metric_with_its_unit() {
        let specs = end_to_end();
        let mut m = Metrics::default();
        for (i, s) in specs.iter().enumerate() {
            m.set(s.name.clone(), 1.5 + i as f64);
        }
        let mut t = Tally::default();
        t.op(Ok(()));
        let line = render(&specs, &m, &mut t);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        for s in &specs {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", s.name))
                    && line.contains(&format!("\"unit\": \"{}\"", s.unit)),
                "{} missing from {line}",
                s.name
            );
        }
        let parsed: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|v| v.as_object())
                .map(|o| o.len()),
            Some(specs.len())
        );
    }

    #[test]
    fn render_flags_missing_extra_and_non_finite_metrics() {
        let specs = end_to_end();
        let mut m = Metrics::default();
        m.set("ops_per_s", f64::NAN);
        m.set("not_a_metric", 1.0);
        let mut t = Tally::default();
        let line = render(&specs, &m, &mut t);
        assert!(line.starts_with("{\"correct\": false"));
        assert_eq!(t.failed as usize, 1 + specs.len());
    }
}
