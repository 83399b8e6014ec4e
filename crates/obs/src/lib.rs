//! # acme-obs
//!
//! The observability substrate of the ACME workspace: structured
//! tracing spans and a metrics registry.
//!
//! * [`trace`] — hierarchical spans with start/stop timestamps and
//!   key/value fields, ring-buffered per thread and merged
//!   deterministically on [`trace::drain`]: the drained [`Trace`] is
//!   canonically sorted so its [`Trace::stable_signature`] is identical
//!   across reruns of the same seeded workload.
//! * [`metrics`] — counters, gauges and fixed-bound histograms that
//!   absorb the workspace's ad-hoc counters (tensor pool hits/misses,
//!   pack-cache packs, ledger retransmissions, protocol retries).
//! * [`export`] — the `acme-obs-trace-v1` document (spans, metrics, and
//!   per-phase totals derived from the trace's duration spans) and
//!   `chrome://tracing` trace-event JSON.
//! * [`mem`] — heap accounting: the one counting global allocator and
//!   the owner gauges (tapes, tensor pool, caches) it reads at its peak.
//!
//! ## One switch, at run time
//!
//! The recording machinery is always compiled in; [`trace::set_enabled`]
//! is the only switch. Recording is off until a driver opts in, and a
//! call site that is off costs one relaxed atomic load and a branch not
//! taken — its field arguments are evaluated only inside the taken
//! branch. Volume is bounded by a [`trace::Detail`] level (phases only
//! by default).
//!
//! ## Determinism contract
//!
//! Instrumentation never alters the instrumented computation: turning
//! recording on must leave every numeric output bit-identical —
//! asserted by the workspace's `tests/observability.rs`. Timestamps and
//! thread ordinals are *not* deterministic; everything else about a
//! drained trace (span names, fields, counts) is, for a fixed seed and
//! thread count, as long as no ring overflows (`dropped_events == 0`).

pub mod export;
pub mod mem;
pub mod metrics;
pub mod trace;

pub use trace::{enabled, Detail, FieldValue, SpanEvent, SpanKind, Trace};

/// Opens a hierarchical span, closed when the returned guard drops.
///
/// ```
/// use acme_obs::{span, Detail};
/// let _g = span!(Detail::Phase, "pipeline.phase1", "clusters" => 10u64);
/// ```
///
/// Field values accept unsigned/signed integers, floats, `&str` and
/// `String`. Arguments are evaluated only when recording is enabled at
/// the given [`Detail`] level.
#[macro_export]
macro_rules! span {
    ($detail:expr, $name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        if $crate::trace::enabled_at($detail) {
            $crate::trace::SpanGuard::begin($name)$(.with($k, $v))*
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    }};
}

/// Records an instantaneous event (a zero-duration span) at the current
/// nesting depth.
///
/// ```
/// use acme_obs::{event, Detail};
/// event!(Detail::Phase, "protocol.retry", "round" => 3u64);
/// ```
#[macro_export]
macro_rules! event {
    ($detail:expr, $name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        if $crate::trace::enabled_at($detail) {
            $crate::trace::EventBuilder::begin($name)$(.with($k, $v))*.emit();
        }
    }};
}

/// Times a scope into the metrics histogram `$name` (microsecond
/// buckets); additionally records a [`Detail::Kernel`] span when that
/// detail level is active. Built for hot kernels: when the detail level
/// is below `Kernel`, no per-call allocation happens — only the
/// histogram update.
///
/// ```
/// use acme_obs::timer;
/// let _t = timer!("tensor.gemm", "m" => 64u64, "n" => 64u64);
/// ```
#[macro_export]
macro_rules! timer {
    ($name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        if $crate::trace::enabled() {
            $crate::trace::TimerGuard::begin($name)$(.with($k, $v))*
        } else {
            $crate::trace::TimerGuard::disabled()
        }
    }};
}
