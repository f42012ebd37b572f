//! The `serve-mix` workload and the `serve` probe: an in-process planning
//! daemon with 2 worker threads under 2 closed-loop keep-alive clients.
//!
//! The seeded mix is mostly `/plan` on a hot key set that fits the cache
//! (warm hits), a steady minority of `/plan` on never-seen keys (varying
//! `batch`: cold DP runs, cache inserts and, once the cache is full,
//! evictions), and a few `/simulate`. Every response is checked against a
//! direct call of the same handler on a private cache.

use crate::report::{fast_side, median, Better, Latency, Metrics, Reservoir, Tally};
use pipedream_obs::MetricsRegistry;
use pipedream_serve::protocol::{handle_plan, handle_simulate};
use pipedream_serve::{Client, PlanCache, ServeOptions, Server};
use pipedream_tensor::init::rng;
use rand::Rng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections (and server worker threads).
const CLIENTS: usize = 2;
/// Share of requests that are `/plan` on a never-seen key.
const COLD_SHARE: f64 = 0.05;
/// Share of requests that are `/simulate` (on hot targets).
const SIM_SHARE: f64 = 0.05;
/// Requests per connection before the client reconnects, so the accept
/// and queue path stays exercised.
const REQUESTS_PER_CONNECTION: u64 = 500;
/// Targets planned for never-seen keys: flat DPs of 0.3 to 2 ms each, so
/// cold requests take about half the server's time and set the p99.
const COLD_TARGETS: [(&str, &str, u32); 4] = [
    ("gnmt8", "b", 2),
    ("vgg16", "b", 2),
    ("gnmt16", "a", 2),
    ("resnet50", "a", 2),
];
/// Latencies each client keeps per window (a uniform sample beyond that;
/// a client completes about 2 500 requests in a window).
const WINDOW_SAMPLES: usize = 1 << 12;

fn options() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: CLIENTS,
        queue: 64,
        cache_capacity: 64,
        cache_shards: 8,
        default_deadline_ms: 0,
        idle_timeout_ms: 0,
    }
}

/// The hot key set: every zoo model on three cluster shapes (24 keys, well
/// under the cache's 64 entries). The flat 16- and 32-worker plans make
/// warming the keys tens of milliseconds of planner work.
fn hot_bodies() -> Vec<String> {
    let models = [
        "vgg16", "resnet50", "alexnet", "gnmt8", "gnmt16", "awd-lm", "s2vt", "huge-lm",
    ];
    let mut v = Vec::new();
    for m in models {
        for (preset, servers, mode) in
            [("a", 1, "hierarchical"), ("a", 4, "flat"), ("b", 4, "flat")]
        {
            v.push(format!(
                r#"{{"model":"{m}","preset":"{preset}","servers":{servers},"mode":"{mode}"}}"#
            ));
        }
    }
    v
}

/// `/simulate` bodies on hot targets.
fn sim_bodies() -> Vec<String> {
    ["vgg16", "gnmt8", "awd-lm", "s2vt"]
        .iter()
        .map(|m| format!(r#"{{"model":"{m}","preset":"a","servers":1,"minibatches":16}}"#))
        .collect()
}

/// The `i`-th never-seen key of `client`: unique per (client, i).
fn cold_body(client: usize, i: u64) -> String {
    let (model, preset, servers) = COLD_TARGETS[i as usize % COLD_TARGETS.len()];
    let batch = 1_000 + i * CLIENTS as u64 + client as u64;
    format!(
        r#"{{"model":"{model}","preset":"{preset}","servers":{servers},"mode":"flat","batch":{batch}}}"#
    )
}

/// A response body with its `cached` flag masked: a hit, a miss and a
/// coalesced wait must otherwise agree byte for byte.
fn canonical(body: &str) -> String {
    body.replace("\"cached\":true", "\"cached\":_")
        .replace("\"cached\":false", "\"cached\":_")
}

fn digest(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// What the server must answer, from the handlers called directly.
fn expected_plan(cache: &PlanCache, body: &str) -> Result<String, String> {
    let (v, _) = handle_plan(cache, body.as_bytes()).map_err(|e| e.message)?;
    serde_json::to_string(&v)
        .map(|s| canonical(&s))
        .map_err(|e| e.to_string())
}

fn expected_simulate(cache: &PlanCache, body: &str) -> Result<String, String> {
    let v = handle_simulate(cache, body.as_bytes()).map_err(|e| e.message)?;
    serde_json::to_string(&v).map_err(|e| e.to_string())
}

/// Value of a Prometheus counter in `/metrics` text (0 when absent).
fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(name))
                .then(|| it.next()?.parse().ok())
                .flatten()
        })
        .unwrap_or(0.0)
}

/// Width of the windows completed requests are counted in.
const WINDOW_S: f64 = 0.25;

/// One client's request stream and its results.
struct ClientRun {
    /// Latencies of the requests completed in each `WINDOW_S` window since
    /// the start, in memory allocated before the run.
    windows: Vec<Reservoir>,
    /// `(cold key index, digest of the canonical response)`, checked after
    /// the window.
    cold: Vec<(u64, u64)>,
    tally: Tally,
}

fn client_loop(
    addr: &str,
    client: usize,
    seed: u64,
    start: Instant,
    deadline: Instant,
    hot: &[(String, String)],
    sims: &[(String, String)],
) -> ClientRun {
    let mut r = rng(seed ^ (0x5e4e + client as u64));
    let windows = (deadline - start).as_secs_f64() / WINDOW_S;
    let mut run = ClientRun {
        windows: (0..windows.ceil() as u64 + 1)
            .map(|w| Reservoir::new(WINDOW_SAMPLES, seed ^ ((client as u64) << 32) ^ w))
            .collect(),
        cold: Vec::new(),
        tally: Tally::default(),
    };
    let mut conn = Client::connect(addr).ok();
    let mut cold_i = 0u64;
    let mut sent = 0u64;
    while Instant::now() < deadline {
        let roll: f64 = r.gen_range(0.0..1.0);
        let (path, body, want) = if roll < COLD_SHARE {
            cold_i += 1;
            ("/plan", cold_body(client, cold_i), None)
        } else if roll < COLD_SHARE + SIM_SHARE {
            let (b, w) = &sims[r.gen_range(0..sims.len())];
            ("/simulate", b.clone(), Some(w))
        } else {
            let (b, w) = &hot[r.gen_range(0..hot.len())];
            ("/plan", b.clone(), Some(w))
        };
        if sent > 0 && sent.is_multiple_of(REQUESTS_PER_CONNECTION) {
            conn = Client::connect(addr).ok();
        }
        sent += 1;
        let t = Instant::now();
        let resp = match conn.as_mut() {
            Some(c) => c.post(path, &body),
            None => Err(std::io::Error::other("not connected")),
        };
        let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
        let resp = match resp {
            Ok(resp) => resp,
            Err(e) => {
                run.tally.op(Err(format!("{path} {body}: {e}")));
                conn = Client::connect(addr).ok();
                continue;
            }
        };
        let w = (start.elapsed().as_secs_f64() / WINDOW_S) as usize;
        let last = run.windows.len() - 1;
        run.windows[w.min(last)].push(elapsed_ms);
        if resp.status != 200 {
            run.tally.op(Err(format!(
                "{path} {body}: status {} {}",
                resp.status, resp.body
            )));
            continue;
        }
        let got = canonical(&resp.body);
        match want {
            Some(w) => run.tally.op(if &got == w {
                Ok(())
            } else {
                Err(format!("{path} {body}: answered {got}, expected {w}"))
            }),
            // Cold answers are checked after the window (counted there).
            None => run.cold.push((cold_i, digest(&got))),
        }
    }
    run
}

/// Measured outcome of one serve-mix run, over its complete windows.
///
/// Warm hits set the rate and the median: socket and scheduling work
/// that reads much the same from window to window, so the rate is the
/// median window's and the median pools the whole run. Cold plans set the
/// tail: planner work that other tenants slow by up to 1.5× for tens of
/// seconds at a time, so the tail is read at the fast side of the
/// windows' tails (the mix is the same in every window; interference is
/// what tells them apart).
struct MixOutcome {
    requests: u64,
    windows: usize,
    /// Requests per second.
    rate: f64,
    /// The whole run's median latency and the size of its sample.
    p50: f64,
    n: usize,
    tail: f64,
    /// The smallest window and the tail quantile it supports.
    min_n: usize,
    tail_q: f64,
    metrics_text: String,
}

/// A started server with its hot keys warm, plus the expected answers.
struct Setup {
    server: Server,
    hot: Vec<(String, String)>,
    sims: Vec<(String, String)>,
}

/// Start the daemon and warm the hot keys `setups` times (all but the last
/// server are shut down); returns the last and the median set-up time.
fn set_up(setups: usize, tally: &mut Tally) -> (Setup, f64) {
    // Expected answers from the handlers called directly (not timed).
    let reference = PlanCache::new(1_024, 8);
    let answer =
        |body: String, f: fn(&PlanCache, &str) -> Result<String, String>, tally: &mut Tally| {
            let want = f(&reference, &body);
            tally.check(want.is_ok(), || {
                format!("reference for {body} failed: {want:?}")
            });
            (body, want.unwrap_or_default())
        };
    let hot: Vec<_> = hot_bodies()
        .into_iter()
        .map(|b| answer(b, expected_plan, tally))
        .collect();
    let sims: Vec<_> = sim_bodies()
        .into_iter()
        .map(|b| answer(b, expected_simulate, tally))
        .collect();

    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..setups {
        if let Some(old) = last.take() {
            Server::shutdown(old);
        }
        let t = Instant::now();
        let server =
            Server::start(options(), Arc::new(MetricsRegistry::new())).expect("bind a local port");
        let addr = server.addr().to_string();
        let mut c = Client::connect(&addr).expect("connect to the local server");
        for (path, (body, _)) in hot
            .iter()
            .map(|h| ("/plan", h))
            .chain(sims.iter().map(|s| ("/simulate", s)))
        {
            let ok = c.post(path, body).map(|r| r.status == 200).unwrap_or(false);
            tally.check(ok, || format!("warm-up {path} {body} failed"));
        }
        times.push(t.elapsed().as_secs_f64());
        last = Some(server);
    }
    let server = last.expect("at least one set-up");
    (Setup { server, hot, sims }, median(&times))
}

/// Run the closed-loop mix against `setup` for `seconds`, check every
/// answer, and scrape `/metrics` at the end.
fn mix(setup: &Setup, seed: u64, seconds: f64, tally: &mut Tally) -> MixOutcome {
    let addr = setup.server.addr().to_string();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.as_str();
                s.spawn(move || {
                    client_loop(addr, c, seed, start, deadline, &setup.hot, &setup.sims)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let metrics_text = Client::connect(&addr)
        .and_then(|mut c| c.get("/metrics"))
        .map(|r| r.body)
        .unwrap_or_default();

    // Check the cold answers against direct planner runs.
    let reference = PlanCache::new(1_024, 8);
    let complete = ((seconds / WINDOW_S) as usize).max(1);
    let mut per_window: Vec<(u64, Vec<f64>)> = vec![(0, Vec::new()); complete];
    let mut requests = 0;
    for (client, run) in runs.into_iter().enumerate() {
        for (i, got) in run.cold {
            let body = cold_body(client, i);
            tally.op(match expected_plan(&reference, &body) {
                Ok(want) if digest(&want) == got => Ok(()),
                Ok(want) => Err(format!("/plan {body}: answer differs from {want}")),
                Err(e) => Err(format!("/plan {body}: reference failed: {e}")),
            });
        }
        requests += run.windows.iter().map(Reservoir::seen).sum::<u64>();
        for ((n, samples), w) in per_window.iter_mut().zip(run.windows) {
            *n += w.seen();
            samples.extend(w.into_samples());
        }
        tally.merge(run.tally);
    }
    tally.check(requests > 0, || "no request completed".into());
    let rates: Vec<f64> = per_window
        .iter()
        .map(|(n, _)| *n as f64 / WINDOW_S)
        .collect();
    let latency = |s: Vec<f64>| Latency::of(if s.is_empty() { vec![0.0] } else { s });
    let whole = latency(
        per_window
            .iter()
            .flat_map(|(_, s)| s.iter().copied())
            .collect(),
    );
    let lats: Vec<Latency> = per_window.into_iter().map(|(_, s)| latency(s)).collect();
    let smallest = lats.iter().min_by_key(|l| l.n).expect("a window");
    let tails: Vec<f64> = lats.iter().map(|l| l.tail).collect();
    MixOutcome {
        requests,
        windows: complete,
        rate: median(&rates),
        p50: whole.p50,
        n: whole.n,
        tail: fast_side(&tails, Better::Lower),
        min_n: smallest.n,
        tail_q: smallest.tail_q,
        metrics_text,
    }
}

/// The untraced workload.
pub fn run(seed: u64, seconds: f64, setups: usize) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    let (setup, setup_s) = set_up(setups, &mut tally);
    let out = mix(&setup, seed, seconds, &mut tally);
    setup.server.shutdown();
    eprintln!(
        "serve-mix: {} requests in {} windows of {WINDOW_S} s; median window {:.0} req/s; \
         p50 {:.4} ms (n={}); fast-side window p{:.0} {:.3} ms (n>={} per window)",
        out.requests,
        out.windows,
        out.rate,
        out.p50,
        out.n,
        out.tail_q * 100.0,
        out.tail,
        out.min_n
    );
    let mut m = Metrics::default();
    m.set("ops_per_s", out.rate);
    m.set("op_ms_p50", out.p50);
    m.set("op_ms_tail", out.tail);
    m.set("setup_s", setup_s);
    (m, tally)
}

/// The traced probe of the `serve` layer: the mix for `seconds` (cache
/// counters from `/metrics`), the socket path alone (`/healthz`), and the
/// plan handler called directly, warm and cold.
pub fn probe(seed: u64, seconds: f64) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let (setup, _) = set_up(1, &mut tally);
    let out = mix(&setup, seed, seconds, &mut tally);
    let text = &out.metrics_text;
    let hits = scrape(text, "serve_cache_hits_total");
    let misses = scrape(text, "serve_cache_misses_total");
    m.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    m.set(
        "serve.cache_evictions",
        scrape(text, "serve_cache_evictions_total"),
    );
    m.set(
        "serve.cache_coalesced",
        scrape(text, "serve_cache_coalesced_total"),
    );

    let addr = setup.server.addr().to_string();
    let mut healthz = Vec::new();
    if let Ok(mut c) = Client::connect(&addr) {
        for _ in 0..2_000 {
            let t = Instant::now();
            let ok = c.get("/healthz").map(|r| r.status == 200).unwrap_or(false);
            healthz.push(t.elapsed().as_secs_f64() * 1e6);
            tally.op(if ok {
                Ok(())
            } else {
                Err("/healthz failed".into())
            });
        }
    }
    tally.check(!healthz.is_empty(), || {
        "could not connect for /healthz".into()
    });
    m.set(
        "serve.healthz_us_p50",
        if healthz.is_empty() {
            f64::NAN
        } else {
            median(&healthz)
        },
    );
    setup.server.shutdown();

    let cache = PlanCache::new(1_024, 8);
    let mut warm = Vec::new();
    for (body, want) in setup.hot.iter().cycle().take(20 * setup.hot.len()) {
        let t = Instant::now();
        let got = expected_plan(&cache, body);
        warm.push(t.elapsed().as_secs_f64() * 1e6);
        tally.op(if got.as_ref() == Ok(want) {
            Ok(())
        } else {
            Err(format!("direct {body}: {got:?}"))
        });
    }
    // Drop the first pass over the keys: those calls were cold.
    m.set(
        "serve.handle_plan_us_warm",
        median(&warm[setup.hot.len()..]),
    );
    let mut cold = Vec::new();
    for i in 0..200 {
        let body = cold_body(CLIENTS, 1_000_000 + i);
        let t = Instant::now();
        let got = handle_plan(&cache, body.as_bytes());
        cold.push(t.elapsed().as_secs_f64() * 1e3);
        tally.op(got
            .map(|_| ())
            .map_err(|e| format!("direct {body}: {}", e.message)));
    }
    m.set("serve.handle_plan_ms_cold", median(&cold));
    (m, tally)
}
