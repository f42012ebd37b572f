//! Ring overflow must never break the per-stage attribution: whatever the
//! drop-oldest policy discards, the events lost are reported exactly and
//! the busy/comm/bubble fractions still sum to 1.
//!
//! Overflow can strand partial minibatches in the ring — a `RecvWait`
//! whose enclosing `Fwd` was overwritten, a `Bwd` without its `Fwd` —
//! which is exactly the input that could push a naive accounting negative
//! or above 1.

use pipedream_obs::{
    analyze_trace, record_snapshot_metrics, Event, EventRing, MetricsRegistry, SpanKind,
    TraceSnapshot, TrackEvents,
};
use proptest::prelude::*;

const MS: u64 = 1_000_000;

/// The i-th event of a steady fwd/wait/bwd workload (3 events per mb).
fn workload_event(i: u64) -> Event {
    let mb = i / 3;
    let t = mb * 10 * MS;
    match i % 3 {
        0 => Event::span(SpanKind::Fwd { mb }, t, t + 3 * MS),
        1 => Event::span(SpanKind::RecvWait { mb }, t + MS, t + 2 * MS),
        _ => Event::span(SpanKind::Bwd { mb }, t + 4 * MS, t + 8 * MS),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn overflow_never_breaks_stage_accounting(
        cap in 1usize..40,
        pushes in 0u64..200,
    ) {
        let ring = EventRing::new(cap);
        for i in 0..pushes {
            ring.push(workload_event(i));
        }
        let (events, dropped) = ring.snapshot();

        // Events-lost is exact, never hidden.
        prop_assert_eq!(dropped, pushes.saturating_sub(cap as u64));
        prop_assert_eq!(events.len() as u64, pushes.min(cap as u64));

        let snap = TraceSnapshot {
            tracks: vec![TrackEvents {
                name: "stage0.replica0".into(),
                stage: Some(0),
                events,
                dropped,
            }],
        };
        let reg = MetricsRegistry::new();
        record_snapshot_metrics(&reg, &snap);
        let st = analyze_trace(&snap).per_stage;
        prop_assert_eq!(st.len(), 1);
        for s in &st {
            let stage = s.stage.to_string();
            let labels: [(&str, &str); 1] = [("stage", stage.as_str())];
            let frac = |name: &str| reg.gauge_labeled(name, &labels).get();
            let busy_frac = frac("pipedream_stage_busy_frac");
            let comm_frac = frac("pipedream_stage_comm_frac");
            let bubble_frac = frac("pipedream_stage_bubble_frac");
            // All fractions stay in range even when overflow stranded
            // partial minibatches (waits without their enclosing spans).
            prop_assert!((0.0..=1.0).contains(&busy_frac), "busy {}", busy_frac);
            prop_assert!((0.0..=1.0).contains(&comm_frac), "comm {}", comm_frac);
            prop_assert!((0.0..=1.0).contains(&bubble_frac), "bubble {}", bubble_frac);
            if pushes > 0 {
                prop_assert!(
                    (busy_frac + comm_frac + bubble_frac - 1.0).abs() < 1e-12,
                    "fractions must sum to 1: {} + {} + {}",
                    busy_frac, comm_frac, bubble_frac
                );
            }
        }

        // The metrics fold reports the same loss count.
        prop_assert_eq!(reg.counter("trace_events_dropped_total").get(), dropped);
    }
}
