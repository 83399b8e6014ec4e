//! # acme-obs
//!
//! The observability substrate of the ACME workspace: structured
//! tracing spans, a metrics registry, and profiling hooks.
//!
//! * [`trace`] — hierarchical spans with start/stop timestamps and
//!   key/value fields, ring-buffered per thread and merged
//!   deterministically on [`trace::drain`]: the drained [`Trace`] is
//!   canonically sorted so its [`Trace::stable_signature`] is identical
//!   across reruns of the same seeded workload.
//! * [`metrics`] — counters, gauges and fixed-bound histograms that
//!   absorb the workspace's ad-hoc counters (tensor pool hits/misses,
//!   pack-cache packs, ledger retransmissions, protocol retries).
//! * [`profile`] — phase timers whose totals export in the
//!   `BENCH_*.json` shape; [`export`] also renders whole traces as
//!   `chrome://tracing` trace-event JSON.
//!
//! ## Zero cost when disabled
//!
//! Recording is double-gated:
//!
//! 1. **Compile time** — the `enabled` cargo feature (off by default).
//!    Without it, [`compiled`] is a `false` constant and the recording
//!    branch of every macro is folded away, arguments unevaluated.
//! 2. **Run time** — [`trace::set_enabled`]. Even when compiled in,
//!    recording is off until a driver opts in; the only cost at a call
//!    site is one relaxed atomic load.
//!
//! Volume is bounded by a [`trace::Detail`] level (phases only by
//! default).
//!
//! ## Determinism contract
//!
//! Instrumentation never alters the instrumented computation: enabling
//! `obs` (at compile time or run time) must leave every numeric output
//! bit-identical — asserted by the workspace's
//! `tests/observability.rs`. Timestamps and thread ordinals are *not*
//! deterministic; everything else about a drained trace (span names,
//! fields, counts) is, for a fixed seed and thread count, as long as no
//! ring overflows (`dropped_events == 0`).

pub mod export;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use trace::{Detail, FieldValue, SpanEvent, SpanKind, Trace};

/// `true` iff the `enabled` cargo feature is compiled in. A constant,
/// so `if acme_obs::compiled() { ... }` branches fold away entirely in
/// default builds.
#[inline(always)]
#[must_use]
pub const fn compiled() -> bool {
    cfg!(feature = "enabled")
}

/// `true` iff recording is compiled in *and* runtime-enabled.
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    compiled() && trace::enabled()
}

/// Opens a hierarchical span, closed when the returned guard drops.
///
/// ```
/// use acme_obs::{span, Detail};
/// let _g = span!(Detail::Phase, "pipeline.phase1", "clusters" => 10u64);
/// ```
///
/// Field values accept unsigned/signed integers, floats, `&str` and
/// `String`. Arguments are evaluated only when recording is both
/// compiled in and runtime-enabled at the given [`Detail`] level.
#[macro_export]
macro_rules! span {
    ($detail:expr, $name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        if $crate::compiled() && $crate::trace::enabled_at($detail) {
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
        if $crate::compiled() && $crate::trace::enabled_at($detail) {
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
        if $crate::compiled() && $crate::trace::enabled() {
            $crate::trace::TimerGuard::begin($name)$(.with($k, $v))*
        } else {
            $crate::trace::TimerGuard::disabled()
        }
    }};
}
