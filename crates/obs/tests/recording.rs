//! Behavior of the recording machinery.
//!
//! Recording state is process-global, so every test takes `GUARD` and
//! resets state on entry.

#![allow(clippy::disallowed_methods)]

use acme_obs::metrics::MetricsSnapshot;
use acme_obs::{event, metrics, span, timer, trace, Detail, SpanKind};
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn fresh() -> std::sync::MutexGuard<'static, ()> {
    let guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(false);
    trace::drain();
    trace::set_detail(Detail::Phase);
    trace::set_ring_capacity(1 << 16);
    metrics::reset();
    guard
}

#[test]
fn spans_record_names_fields_and_nesting() {
    let _g = fresh();
    trace::set_enabled(true);
    {
        let _outer = span!(Detail::Phase, "outer", "round" => 3u64);
        let _inner = span!(Detail::Phase, "inner", "node" => "edge-0");
        event!(Detail::Phase, "tick", "n" => 1u64);
    }
    trace::set_enabled(false);
    let trace = trace::drain();
    assert_eq!(trace.dropped_events, 0);
    assert_eq!(trace.count("outer"), 1);
    assert_eq!(trace.count("inner"), 1);
    assert_eq!(trace.count("tick"), 1);
    let outer = trace.spans_named("outer").next().unwrap();
    let inner = trace.spans_named("inner").next().unwrap();
    let tick = trace.spans_named("tick").next().unwrap();
    assert_eq!(outer.depth, 0);
    assert_eq!(inner.depth, 1);
    assert_eq!(tick.depth, 2);
    assert_eq!(tick.kind, SpanKind::Event);
    assert_eq!(tick.dur_ns, 0);
    assert_eq!(outer.field_u64("round"), Some(3));
    assert!(outer.start_ns <= inner.start_ns);
    assert!(outer.dur_ns >= inner.dur_ns);
}

#[test]
fn nothing_records_while_disabled() {
    let _g = fresh();
    {
        let _s = span!(Detail::Phase, "ghost");
        event!(Detail::Phase, "ghost-event");
        let _t = timer!("ghost-timer");
        metrics::set_counter("ghost.counter", 1);
    }
    assert!(trace::drain().spans.is_empty());
    assert_eq!(metrics::snapshot(), MetricsSnapshot::default());
}

#[test]
fn detail_level_filters_spans() {
    let _g = fresh();
    trace::set_enabled(true);
    trace::set_detail(Detail::Phase);
    {
        let _p = span!(Detail::Phase, "phase-span");
        let _t = span!(Detail::Task, "task-span");
        let _k = span!(Detail::Kernel, "kernel-span");
    }
    trace::set_enabled(false);
    let trace = trace::drain();
    assert_eq!(trace.count("phase-span"), 1);
    assert_eq!(trace.count("task-span"), 0);
    assert_eq!(trace.count("kernel-span"), 0);
}

#[test]
fn ring_overflow_is_counted_not_silent() {
    let _g = fresh();
    trace::set_ring_capacity(8);
    trace::set_enabled(true);
    for i in 0..20u64 {
        event!(Detail::Phase, "burst", "i" => i);
    }
    trace::set_enabled(false);
    let trace = trace::drain();
    assert_eq!(trace.spans.len(), 8);
    assert_eq!(trace.dropped_events, 12);
}

#[test]
fn drained_trace_signature_is_stable_across_reruns() {
    let _g = fresh();
    let run = || {
        trace::set_enabled(true);
        for round in 0..4u64 {
            let _r = span!(Detail::Phase, "round", "round" => round);
            for node in 0..3u64 {
                event!(Detail::Phase, "work", "node" => node, "round" => round);
            }
        }
        trace::set_enabled(false);
        trace::drain()
    };
    let first = run();
    let second = run();
    assert_eq!(first.dropped_events, 0);
    assert_eq!(first.stable_signature(), second.stable_signature());
    assert!(first.stable_signature().contains("work{node=2,round=3}"));
}

#[test]
fn timers_feed_duration_histograms() {
    let _g = fresh();
    trace::set_enabled(true);
    for _ in 0..5 {
        let _t = timer!("bench.kernel", "m" => 4u64);
    }
    trace::set_enabled(false);
    let snap = metrics::snapshot();
    let hist = snap.histograms.get("bench.kernel").expect("histogram");
    assert_eq!(hist.count, 5);
    assert_eq!(hist.counts.iter().sum::<u64>(), 5);
    assert_eq!(hist.counts.len(), hist.bounds.len() + 1);
    // Default detail (Phase) suppresses kernel spans; the histogram
    // still fills.
    assert_eq!(trace::drain().count("bench.kernel"), 0);
}

#[test]
fn kernel_detail_records_timer_spans() {
    let _g = fresh();
    trace::set_enabled(true);
    trace::set_detail(Detail::Kernel);
    {
        let _t = timer!("bench.kernel2", "m" => 4u64);
    }
    trace::set_enabled(false);
    let trace = trace::drain();
    assert_eq!(trace.count("bench.kernel2"), 1);
    assert_eq!(
        trace
            .spans_named("bench.kernel2")
            .next()
            .unwrap()
            .field_u64("m"),
        Some(4)
    );
}

#[test]
fn metrics_registry_counters_gauges_histograms() {
    let _g = fresh();
    trace::set_enabled(true);
    metrics::set_counter("net.sent", 2);
    metrics::set_counter("net.sent", 5);
    metrics::set_counter("pool.misses", 7);
    metrics::set_gauge("cache.entries", 1.5);
    metrics::observe("latency", &[10.0, 100.0], 55.0);
    metrics::observe("latency", &[10.0, 100.0], 1e9);
    trace::set_enabled(false);
    let snap = metrics::snapshot();
    assert_eq!(snap.counter("net.sent"), 5);
    assert_eq!(snap.counter("pool.misses"), 7);
    assert_eq!(snap.gauge("cache.entries"), Some(1.5));
    let hist = &snap.histograms["latency"];
    assert_eq!(hist.counts, vec![0, 1, 1]);
    assert_eq!(hist.count, 2);
    metrics::reset();
    assert_eq!(metrics::snapshot(), MetricsSnapshot::default());
}

#[test]
fn spans_merge_across_threads() {
    let _g = fresh();
    trace::set_enabled(true);
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            std::thread::spawn(move || {
                let _s = span!(Detail::Phase, "worker", "i" => i);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    trace::set_enabled(false);
    let trace = trace::drain();
    assert_eq!(trace.count("worker"), 4);
    let sig = trace.stable_signature();
    for i in 0..4 {
        assert!(sig.contains(&format!("worker{{i={i}}}")));
    }
}
