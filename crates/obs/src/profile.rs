//! Profiling hooks: named phase timers whose totals accumulate in a
//! process-wide table ([`snapshot`]).
//!
//! A phase is both profiled (total milliseconds + invocation count)
//! and traced (a [`crate::Detail::Phase`] span), so `--trace-out`
//! output and the profile rows stay consistent.

/// Accumulated totals of one named phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    pub phase: String,
    pub total_ms: f64,
    pub count: u64,
}

#[cfg(feature = "enabled")]
mod imp {
    use super::PhaseRow;
    use crate::trace::SpanGuard;
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    fn table() -> &'static Mutex<BTreeMap<&'static str, (f64, u64)>> {
        static TABLE: OnceLock<Mutex<BTreeMap<&'static str, (f64, u64)>>> = OnceLock::new();
        TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
    }

    /// Guard for an open phase; accumulates its duration when dropped.
    #[must_use = "a phase guard accumulates its duration when dropped"]
    #[derive(Default)]
    pub struct PhaseGuard {
        open: Option<(&'static str, Instant, SpanGuard)>,
    }

    /// Opens a named phase: a [`crate::Detail::Phase`] span plus an entry in
    /// the profile table.
    pub fn phase(name: &'static str) -> PhaseGuard {
        if !crate::trace::enabled() {
            return PhaseGuard::default();
        }
        PhaseGuard {
            open: Some((name, Instant::now(), SpanGuard::begin(name))),
        }
    }

    impl Drop for PhaseGuard {
        fn drop(&mut self) {
            if let Some((name, start, span)) = self.open.take() {
                drop(span); // close the trace span first
                let ms = start.elapsed().as_secs_f64() * 1e3;
                let mut table = table().lock().unwrap();
                let entry = table.entry(name).or_insert((0.0, 0));
                entry.0 += ms;
                entry.1 += 1;
            }
        }
    }

    /// Copies the profile table, sorted by phase name.
    pub fn snapshot() -> Vec<PhaseRow> {
        table()
            .lock()
            .unwrap()
            .iter()
            .map(|(name, (total_ms, count))| PhaseRow {
                phase: name.to_string(),
                total_ms: *total_ms,
                count: *count,
            })
            .collect()
    }

    /// Clears the profile table.
    pub fn reset() {
        table().lock().unwrap().clear();
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::PhaseRow;

    #[must_use = "a phase guard accumulates its duration when dropped"]
    #[derive(Default)]
    pub struct PhaseGuard;

    /// No-op when the `enabled` feature is off.
    #[inline(always)]
    pub fn phase(_name: &'static str) -> PhaseGuard {
        PhaseGuard
    }

    /// Always empty.
    pub fn snapshot() -> Vec<PhaseRow> {
        Vec::new()
    }

    pub fn reset() {}
}

pub use imp::{phase, reset, snapshot, PhaseGuard};
