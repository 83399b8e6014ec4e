//! Process-wide pool of `Vec<f32>` backings for [`Array`](crate::Array).
//!
//! Training loops build and tear down the same tensor shapes thousands of
//! times: every graph node's value, every gradient, every fused-kernel
//! staging buffer. Allocating each of those from the system allocator
//! dominates step time once the GEMM engine (PR 2) has removed the FLOP
//! bottleneck. This module keeps retired buffers in size-bucketed free
//! lists so the next step's allocations become pops.
//!
//! # Design
//!
//! * **Buckets.** Buffers are grouped by the largest power of two that
//!   fits their capacity, from [`MIN_POOLED`] to [`MAX_POOLED`] floats.
//!   A request of `len` floats is served from the bucket of the next
//!   power of two ≥ `len`, so every pooled buffer's capacity is
//!   guaranteed to cover the request. Each bucket sits behind its own
//!   mutex, spreading contention across sizes.
//! * **Recycling.** [`Array`](crate::Array) returns its backing here on
//!   drop, so every temporary — graph values recycled by
//!   `Graph::reset`, backward contributions consumed by `add_assign`,
//!   intermediate clones — flows back automatically. Out-of-range or
//!   over-cap buffers fall through to the allocator.
//! * **Determinism.** The pool only moves buffers around; callers
//!   overwrite every element before reading. Results are unaffected by
//!   hits vs. misses, pool on vs. off.
//! * **Stats.** Hit/miss/recycle counters make allocation behaviour
//!   observable: `misses` counts exactly the heap allocations performed
//!   through the pool, which is the "allocations per step" metric the
//!   training-step bench reports. [`set_enabled`] turns reuse off (every
//!   take allocates, every recycle frees) so benches can measure the
//!   pre-pool baseline with the same instrumentation. For observability
//!   runs these counters are published into the unified metrics
//!   registry as `tensor.pool.*` by
//!   [`publish_obs_metrics`](crate::publish_obs_metrics) — prefer
//!   reading them from an `acme_obs::metrics::snapshot()` (or a
//!   `--trace-out` document) over calling [`stats`] directly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Smallest buffer (in `f32`s) worth pooling; tinier ones cost less to
/// allocate than to round-trip through a free list.
const MIN_POOLED: usize = 64;

/// Largest pooled buffer (in `f32`s, 64 MiB); larger ones go straight to
/// the allocator so a one-off huge tensor cannot pin memory forever.
const MAX_POOLED: usize = 1 << 24;

/// Free-list buckets: powers of two from `MIN_POOLED` to `MAX_POOLED`.
const BUCKETS: usize = (MAX_POOLED.trailing_zeros() - MIN_POOLED.trailing_zeros() + 1) as usize;

/// Per-bucket cap on retained buffers. A transformer-block step retires
/// a few dozen same-shaped buffers (values + grads + saved state), so
/// the cap is sized to hold a full step's working set per size class.
const BUCKET_CAP: usize = 256;

struct Pool {
    buckets: [Mutex<Vec<Vec<f32>>>; BUCKETS],
}

static ENABLED: AtomicBool = AtomicBool::new(true);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        buckets: std::array::from_fn(|_| Mutex::new(Vec::new())),
    })
}

/// Bucket index for a request of `len` floats (next power of two ≥ len).
fn bucket_for_request(len: usize) -> Option<usize> {
    if len > MAX_POOLED {
        return None;
    }
    let rounded = len.max(MIN_POOLED).next_power_of_two();
    Some((rounded.trailing_zeros() - MIN_POOLED.trailing_zeros()) as usize)
}

/// Bucket index a retired buffer of `capacity` floats belongs to
/// (largest power of two ≤ capacity), or `None` when out of range.
fn bucket_for_capacity(capacity: usize) -> Option<usize> {
    if capacity < MIN_POOLED {
        return None;
    }
    let floor = if capacity.is_power_of_two() {
        capacity
    } else {
        capacity.next_power_of_two() >> 1
    };
    if floor > MAX_POOLED {
        return None;
    }
    Some((floor.trailing_zeros() - MIN_POOLED.trailing_zeros()) as usize)
}

/// An **empty** `Vec<f32>` with capacity ≥ `len`, served from the pool
/// when possible. The caller extends it to the length it needs; nothing
/// is ever read from a pooled buffer before being written.
pub fn take(len: usize) -> Vec<f32> {
    if ENABLED.load(Ordering::Relaxed) {
        if let Some(b) = bucket_for_request(len) {
            if let Some(mut v) = lock(&pool().buckets[b]).pop() {
                HITS.fetch_add(1, Ordering::Relaxed);
                v.clear();
                return v;
            }
            MISSES.fetch_add(1, Ordering::Relaxed);
            // Round the fresh allocation up to the bucket size so it
            // re-enters the same bucket on recycle.
            return Vec::with_capacity(len.max(MIN_POOLED).next_power_of_two());
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    Vec::with_capacity(len)
}

/// A pool-backed `Vec<f32>` of exactly `len` elements, all `value`.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    let mut v = take(len);
    v.resize(len, value);
    v
}

/// Returns a retired backing to its size bucket. Buffers below
/// [`MIN_POOLED`], above [`MAX_POOLED`], or beyond the bucket cap are
/// dropped; so is everything while the pool is disabled.
pub fn recycle(v: Vec<f32>) {
    if !ENABLED.load(Ordering::Relaxed) || v.capacity() < MIN_POOLED {
        return;
    }
    match bucket_for_capacity(v.capacity()) {
        Some(b) => {
            let mut bucket = lock(&pool().buckets[b]);
            if bucket.len() < BUCKET_CAP {
                bucket.push(v);
                drop(bucket);
                RECYCLED.fetch_add(1, Ordering::Relaxed);
            } else {
                drop(bucket);
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
        None => {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Turns pooling on or off (on by default), returning the previous
/// setting. While off, [`take`] always allocates (and still counts a
/// miss) and [`recycle`] frees — the pre-pool allocation behaviour,
/// with the same counters, for baseline measurements.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::SeqCst)
}

/// Whether pooling is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// A snapshot of the pool counters (see [`stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a free list (no allocation).
    pub hits: u64,
    /// Takes that hit the allocator — i.e. real heap allocations.
    pub misses: u64,
    /// Buffers returned to a free list.
    pub recycled: u64,
    /// Poolable buffers freed instead (bucket full or size out of range).
    pub dropped: u64,
}

/// Snapshot of the global counters since process start or the last
/// [`reset_stats`].
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::SeqCst),
        misses: MISSES.load(Ordering::SeqCst),
        recycled: RECYCLED.load(Ordering::SeqCst),
        dropped: DROPPED.load(Ordering::SeqCst),
    }
}

/// Zeroes all counters (the retained buffers are unaffected).
pub fn reset_stats() {
    HITS.store(0, Ordering::SeqCst);
    MISSES.store(0, Ordering::SeqCst);
    RECYCLED.store(0, Ordering::SeqCst);
    DROPPED.store(0, Ordering::SeqCst);
}

/// Frees every retained buffer (counters are unaffected).
pub fn clear() {
    for b in &pool().buckets {
        lock(b).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The pool and its counters are process-global; serialize the tests
    /// that assert on them.
    static GUARD: StdMutex<()> = StdMutex::new(());

    #[test]
    fn take_recycle_roundtrip_hits() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        reset_stats();
        let mut v = take(100);
        assert!(v.capacity() >= 100);
        assert!(v.is_empty());
        v.resize(100, 1.0);
        let cap = v.capacity();
        recycle(v);
        let w = take(100);
        assert!(w.capacity() >= 100);
        assert_eq!(w.capacity(), cap, "same buffer comes back");
        assert!(w.is_empty(), "recycled buffer is cleared");
        let s = stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.recycled, 1);
    }

    #[test]
    fn tiny_and_huge_buffers_bypass_the_pool() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        reset_stats();
        recycle(Vec::new()); // capacity 0: silently ignored
        recycle(vec![0.0; 8]); // below MIN_POOLED
        let s = stats();
        assert_eq!(s.recycled, 0);
        assert!(bucket_for_request(MAX_POOLED + 1).is_none());
        assert!(bucket_for_capacity(MIN_POOLED - 1).is_none());
    }

    #[test]
    fn buckets_cover_the_size_range() {
        assert_eq!(bucket_for_request(1), Some(0));
        assert_eq!(bucket_for_request(MIN_POOLED), Some(0));
        assert_eq!(bucket_for_request(MIN_POOLED + 1), Some(1));
        assert_eq!(bucket_for_request(MAX_POOLED), Some(BUCKETS - 1));
        assert_eq!(bucket_for_capacity(MIN_POOLED), Some(0));
        assert_eq!(bucket_for_capacity(2 * MIN_POOLED - 1), Some(0));
        assert_eq!(bucket_for_capacity(MAX_POOLED), Some(BUCKETS - 1));
    }

    #[test]
    fn disabled_pool_always_allocates() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        let was = set_enabled(false);
        reset_stats();
        recycle(vec![0.0; 256]);
        let v = take(256);
        assert_eq!(v.capacity(), 256);
        let s = stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 1, "disabled takes still count allocations");
        assert_eq!(s.recycled, 0);
        set_enabled(was);
    }

    #[test]
    fn take_filled_sets_len_and_value() {
        let v = take_filled(70, 3.5);
        assert_eq!(v.len(), 70);
        assert!(v.iter().all(|&x| x == 3.5));
    }
}
