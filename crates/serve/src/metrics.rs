//! Process-wide serving counters, published into the unified
//! [`acme_obs::metrics`] registry.
//!
//! Following the tensor-substrate pattern, the hot path touches only
//! dependency-free atomics; [`publish_obs_metrics`] copies them into the
//! registry at a snapshot point. Publishing records only while
//! recording is enabled (`acme_obs::trace::set_enabled`).

use std::sync::atomic::{AtomicU64, Ordering};

static REQUESTS: AtomicU64 = AtomicU64::new(0);
static BATCHES: AtomicU64 = AtomicU64::new(0);
static EARLY_EXITS: AtomicU64 = AtomicU64::new(0);
static INT8_REQUESTS: AtomicU64 = AtomicU64::new(0);

/// Histogram bucket upper bounds for `serve.batch_size`.
const BATCH_SIZE_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Records one dispatched batch: `rows` requests served, of which
/// `early` left before the final exit.
pub fn record_batch(rows: usize, early: usize) {
    REQUESTS.fetch_add(rows as u64, Ordering::Relaxed);
    BATCHES.fetch_add(1, Ordering::Relaxed);
    EARLY_EXITS.fetch_add(early as u64, Ordering::Relaxed);
    acme_obs::metrics::observe("serve.batch_size", &BATCH_SIZE_BOUNDS, rows as f64);
}

/// Requests served since process start.
pub fn requests() -> u64 {
    REQUESTS.load(Ordering::Relaxed)
}

/// Batches dispatched since process start.
pub fn batches() -> u64 {
    BATCHES.load(Ordering::Relaxed)
}

/// Requests that returned from a non-final exit since process start.
pub fn early_exits() -> u64 {
    EARLY_EXITS.load(Ordering::Relaxed)
}

/// Records `rows` requests served against an int8-deployed store
/// (called alongside [`record_batch`] by int8 serve loops).
pub fn record_int8_rows(rows: usize) {
    INT8_REQUESTS.fetch_add(rows as u64, Ordering::Relaxed);
}

/// Requests served at int8 deploy precision since process start.
fn int8_requests() -> u64 {
    INT8_REQUESTS.load(Ordering::Relaxed)
}

/// Publishes the serving counters as `serve.*` registry entries
/// (`serve.requests`, `serve.batches`, `serve.early_exits`,
/// `serve.int8_requests`; the `serve.batch_size` histogram streams in
/// via [`record_batch`]). No-op unless recording is enabled.
pub fn publish_obs_metrics() {
    if !acme_obs::enabled() {
        return;
    }
    acme_obs::metrics::set_counter("serve.requests", requests());
    acme_obs::metrics::set_counter("serve.batches", batches());
    acme_obs::metrics::set_counter("serve.early_exits", early_exits());
    acme_obs::metrics::set_counter("serve.int8_requests", int8_requests());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let (r0, b0, e0) = (requests(), batches(), early_exits());
        record_batch(4, 1);
        record_batch(2, 0);
        assert_eq!(requests() - r0, 6);
        assert_eq!(batches() - b0, 2);
        assert_eq!(early_exits() - e0, 1);
    }
}
