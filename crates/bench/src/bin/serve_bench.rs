//! `serve_bench` — closed-loop load generator for the planning daemon.
//!
//! Starts an in-process `pipedream serve` (or targets a running one via
//! `--addr`), hammers it with N keep-alive clients cycling through a
//! fixed preset workload, and reports warm-cache plan throughput and
//! client-side latency percentiles as `BENCH_serve.json`. A warm-up pass
//! populates the cache first, so the steady-state numbers measure the
//! serving layer (socket + parse + fingerprint + cache hit + serialize),
//! not the DP.
//!
//! ```text
//! serve_bench [--addr HOST:PORT] [--clients N] [--requests N]
//!             [--threads N] [--out FILE]
//!             [--assert-min-rps X] [--assert-max-p99-ms X]
//!             [--assert-min-hits N]
//! ```
//!
//! The `--assert-*` flags turn the bench into a CI gate (`serve-smoke`):
//! exit 1 when throughput, tail latency, or cache behaviour regress past
//! the bound.

use pipedream_bench::util::arg_value;
use pipedream_obs::MetricsRegistry;
use pipedream_serve::{Client, ServeOptions, Server};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// The preset workload: distinct cache keys the clients cycle through.
/// Small models keep the cold pass fast; the warm path cost is
/// key-independent.
const WORKLOAD: &[&str] = &[
    r#"{"model":"alexnet","preset":"a","servers":1}"#,
    r#"{"model":"alexnet","preset":"a","servers":2}"#,
    r#"{"model":"alexnet","preset":"b","servers":1,"mode":"greedy"}"#,
    r#"{"model":"s2vt","preset":"a","servers":1}"#,
    r#"{"model":"s2vt","preset":"a","servers":2,"mode":"flat"}"#,
    r#"{"model":"awd-lm","preset":"a","servers":1}"#,
];

#[derive(Serialize)]
struct ServeBenchReport {
    /// Closed-loop clients.
    clients: usize,
    /// Server worker threads.
    server_threads: usize,
    /// Warm-cache plan requests issued (across clients).
    requests: u64,
    /// Wall-clock of the timed phase, seconds.
    elapsed_s: f64,
    /// Warm-cache plan requests per second.
    plan_rps: f64,
    /// Client-observed latency percentiles, microseconds.
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    /// Cache counters at the end of the run (from /metrics text).
    cache_hits: u64,
    cache_misses: u64,
    cache_coalesced: u64,
    /// Distinct request bodies in the workload.
    workload_keys: usize,
}

fn parse_metric(metrics_text: &str, name: &str) -> u64 {
    metrics_text
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or(0)
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn main() {
    let clients: usize = arg_value("--clients")
        .map(|v| v.parse().expect("--clients"))
        .unwrap_or(2);
    let requests_per_client: u64 = arg_value("--requests")
        .map(|v| v.parse().expect("--requests"))
        .unwrap_or(2000);
    let server_threads: usize = arg_value("--threads")
        .map(|v| v.parse().expect("--threads"))
        .unwrap_or(2);
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    // Self-host unless --addr points at a running daemon.
    let external_addr = arg_value("--addr");
    let server = if external_addr.is_none() {
        Some(
            Server::start(
                ServeOptions {
                    addr: "127.0.0.1:0".into(),
                    threads: server_threads,
                    queue: 64,
                    cache_capacity: 64,
                    cache_shards: 8,
                    default_deadline_ms: 0,
                    idle_timeout_ms: 0,
                },
                Arc::new(MetricsRegistry::new()),
            )
            .expect("bind bench server"),
        )
    } else {
        None
    };
    let addr = external_addr.unwrap_or_else(|| server.as_ref().unwrap().addr().to_string());

    // Warm-up: populate every workload key once (cold DP runs here).
    let mut warm = Client::connect(&*addr).expect("connect for warm-up");
    for body in WORKLOAD {
        let r = warm.post("/plan", body).expect("warm-up request");
        assert_eq!(r.status, 200, "warm-up failed: {}", r.body);
    }
    drop(warm);

    // Timed phase: closed-loop clients cycling over the warm keys.
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&*addr).expect("client connect");
                let mut latencies_us = Vec::with_capacity(requests_per_client as usize);
                for i in 0..requests_per_client {
                    let body = WORKLOAD[(c + i as usize) % WORKLOAD.len()];
                    let t = Instant::now();
                    let r = client.post("/plan", body).expect("plan request");
                    latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(r.status, 200, "plan failed: {}", r.body);
                    // Reconnect periodically so the accept + queue path
                    // stays exercised, not just steady-state keep-alive.
                    if i % 500 == 499 {
                        client = Client::connect(&*addr).expect("reconnect");
                    }
                }
                latencies_us
            })
        })
        .collect();
    let mut latencies_us: Vec<f64> = Vec::new();
    for h in handles {
        latencies_us.extend(h.join().expect("client thread"));
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());

    // Scrape the daemon's own counters.
    let metrics_text = Client::connect(&*addr)
        .and_then(|mut c| c.get("/metrics"))
        .map(|r| r.body)
        .unwrap_or_default();

    let requests = clients as u64 * requests_per_client;
    let report = ServeBenchReport {
        clients,
        server_threads,
        requests,
        elapsed_s,
        plan_rps: requests as f64 / elapsed_s,
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
        max_us: percentile(&latencies_us, 1.0),
        cache_hits: parse_metric(&metrics_text, "serve_cache_hits_total"),
        cache_misses: parse_metric(&metrics_text, "serve_cache_misses_total"),
        cache_coalesced: parse_metric(&metrics_text, "serve_cache_coalesced_total"),
        workload_keys: WORKLOAD.len(),
    };

    if let Some(server) = server {
        server.shutdown();
    }

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    println!(
        "\n{:.0} plan req/s warm ({} clients x {} reqs), p50 {:.0} us, p99 {:.0} us -> {}",
        report.plan_rps, clients, requests_per_client, report.p50_us, report.p99_us, out_path
    );

    // CI gates.
    let mut failed = false;
    if let Some(min) = arg_value("--assert-min-rps").map(|v| v.parse::<f64>().expect("rps")) {
        if report.plan_rps < min {
            eprintln!("FAIL: {:.0} req/s < required {min:.0}", report.plan_rps);
            failed = true;
        }
    }
    if let Some(max) = arg_value("--assert-max-p99-ms").map(|v| v.parse::<f64>().expect("p99")) {
        if report.p99_us > max * 1e3 {
            eprintln!("FAIL: p99 {:.0} us > allowed {max} ms", report.p99_us);
            failed = true;
        }
    }
    if let Some(min) = arg_value("--assert-min-hits").map(|v| v.parse::<u64>().expect("hits")) {
        if report.cache_hits < min {
            eprintln!("FAIL: {} cache hits < required {min}", report.cache_hits);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
