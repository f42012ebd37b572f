//! `obs_bench` — machine-readable observability-overhead benchmarks.
//!
//! Times the hot-path and read-side costs of the live-telemetry stack:
//! recording one span into the seqlock ring, snapshotting a populated
//! session, folding a snapshot into a [`pipedream_obs::LiveProfiler`]
//! sample window, and rendering the Prometheus dump. Writes the results
//! as JSON so CI can diff them per commit.
//!
//! ```text
//! obs_bench [OUT.json]          # default BENCH_obs.json
//! ```
//!
//! CI's `drift-smoke` job runs this and uploads the JSON as an artifact;
//! the record-side number is what keeps the <5% tracing-overhead guard
//! honest as the event set grows.

use pipedream_bench::util::time_ms;
use pipedream_obs::{LiveProfiler, SpanKind, TraceSession};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ObsBenchReport {
    /// Mean cost of one begin/end span record, nanoseconds.
    record_span_ns: f64,
    /// Events recorded per track for the read-side benchmarks.
    events_per_track: usize,
    /// Worker tracks in the benchmark session.
    tracks: usize,
    /// Full-session snapshot latency, milliseconds (min of samples).
    snapshot_ms: f64,
    /// One `LiveProfiler::sample` over the full session, milliseconds.
    live_sample_ms: f64,
    /// Prometheus render of the published live series, milliseconds.
    render_prometheus_ms: f64,
}

const TRACKS: usize = 4;
const EVENTS_PER_TRACK: usize = 4096;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_obs.json".to_string());

    // Hot path: one timed span (begin + end) into a worker's ring.
    let session = TraceSession::new();
    let rec = session.stage_recorder("stage0.replica0", 0);
    let n = 200_000u64;
    let t = Instant::now();
    for mb in 0..n {
        let s = rec.begin();
        rec.end(s, SpanKind::Fwd { mb });
    }
    let record_span_ns = t.elapsed().as_secs_f64() * 1e9 / n as f64;

    // Read side: a session shaped like a real 4-stage run, rings full.
    let session = TraceSession::new();
    for stage in 0..TRACKS {
        let rec = session.stage_recorder(&format!("stage{stage}.replica0"), stage);
        for i in 0..EVENTS_PER_TRACK {
            let mb = i as u64 / 2;
            let s = rec.begin();
            rec.end(
                s,
                if i % 2 == 0 {
                    SpanKind::Fwd { mb }
                } else {
                    SpanKind::Bwd { mb }
                },
            );
        }
    }
    let snapshot_ms = time_ms(50, || {
        let snap = session.snapshot();
        std::hint::black_box(&snap);
    });
    let live_sample_ms = time_ms(50, || {
        // A fresh profiler each run so every sample folds the full window
        // instead of an empty incremental one.
        let mut p = LiveProfiler::new(session.clone());
        std::hint::black_box(p.sample());
    });
    // Publish once so the registry holds the full labeled live series.
    LiveProfiler::new(session.clone()).sample();
    let render_prometheus_ms = time_ms(50, || {
        std::hint::black_box(session.metrics().render_prometheus());
    });

    let report = ObsBenchReport {
        record_span_ns,
        events_per_track: EVENTS_PER_TRACK,
        tracks: TRACKS,
        snapshot_ms,
        live_sample_ms,
        render_prometheus_ms,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
