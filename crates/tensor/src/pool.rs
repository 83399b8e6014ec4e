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
//! * **Buckets.** One free list per power of two from [`MIN_POOLED`]
//!   to [`MAX_POOLED`] floats. A request of `len` floats is served from
//!   the bucket of the next power of two ≥ `len`, and a miss allocates
//!   exactly that bucket size, so every pooled buffer's capacity covers
//!   the request. Each bucket sits behind its own mutex, spreading
//!   contention across sizes.
//! * **Recycling.** [`Array`](crate::Array) returns its backing here on
//!   drop, so every temporary — graph values recycled by
//!   `Graph::reset`, backward contributions consumed by `add_assign`,
//!   intermediate clones — flows back automatically. The pool keeps only
//!   buffers it can hand back: a buffer whose capacity is exactly a
//!   bucket size, i.e. what [`take`] allocates, and only while the
//!   bucket has buffers out, so a bucket never holds more buffers than
//!   it has allocated. Every other buffer, and any beyond the bucket
//!   cap, falls through to the allocator.
//!
//!   Both halves close a leak. Buffers born outside the pool — decoded
//!   checkpoints, `randn` / `uniform`, `from_vec` of a collected `Vec` —
//!   mostly have capacities that are not a power of two. An earlier
//!   rule filed them one bucket *below* their size, where no request of
//!   their own size ever found them: a serving process that built its
//!   fleet three times and restored it four held ≈650 MB of them. Those
//!   born with a power-of-two capacity add supply without demand, so
//!   every restore of a model with such shapes grew the pool by another
//!   copy until the bucket cap.
//! * **Determinism.** The pool only moves buffers around; callers
//!   overwrite every element before reading. Results are unaffected by
//!   hits vs. misses, pool on vs. off.
//! * **Stats.** Hit/miss/recycle counters make allocation behaviour
//!   observable: `misses` counts exactly the heap allocations performed
//!   through the pool, which is the "allocations per step" metric the
//!   training-step bench reports, and `retained_bytes` is the capacity
//!   the free lists hold right now. [`set_enabled`] turns reuse off (every
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

/// One size class: its free list, and how many buffers of its size the
/// pool has handed out and not yet had back.
#[derive(Default)]
struct Bucket {
    free: Vec<Vec<f32>>,
    out: usize,
}

struct Pool {
    buckets: [Mutex<Bucket>; BUCKETS],
}

static ENABLED: AtomicBool = AtomicBool::new(true);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        buckets: std::array::from_fn(|_| Mutex::default()),
    })
}

/// Free-list index of a bucket-sized capacity: a power of two in
/// `[MIN_POOLED, MAX_POOLED]`, or `None` for any other capacity.
fn bucket_index(capacity: usize) -> Option<usize> {
    (capacity.is_power_of_two() && (MIN_POOLED..=MAX_POOLED).contains(&capacity))
        .then(|| (capacity.trailing_zeros() - MIN_POOLED.trailing_zeros()) as usize)
}

/// An **empty** `Vec<f32>` with capacity ≥ `len`, served from the pool
/// when possible. The caller extends it to the length it needs; nothing
/// is ever read from a pooled buffer before being written.
pub fn take(len: usize) -> Vec<f32> {
    // The bucket size that serves `len`; none above `MAX_POOLED`.
    let size = len.max(MIN_POOLED).next_power_of_two();
    let Some(b) = bucket_index(size).filter(|_| ENABLED.load(Ordering::Relaxed)) else {
        MISSES.fetch_add(1, Ordering::Relaxed);
        return Vec::with_capacity(len);
    };
    let mut bucket = lock(&pool().buckets[b]);
    bucket.out += 1;
    let hit = bucket.free.pop();
    drop(bucket);
    match hit {
        Some(mut v) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            // The bucket size, so the buffer is poolable on recycle.
            Vec::with_capacity(size)
        }
    }
}

/// A pool-backed `Vec<f32>` of exactly `len` elements, all `value`.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    let mut v = take(len);
    v.resize(len, value);
    v
}

/// Returns a retired backing to its size bucket. It is kept only if its
/// capacity is exactly a bucket size — the capacity [`take`] allocates —
/// and the bucket has a buffer out that this one can stand in for;
/// otherwise a buffer of at least [`MIN_POOLED`] floats is freed and
/// counted as dropped, as is one beyond the bucket cap. Every buffer is
/// freed while the pool is disabled.
pub fn recycle(v: Vec<f32>) {
    if !ENABLED.load(Ordering::Relaxed) || v.capacity() < MIN_POOLED {
        return;
    }
    if let Some(b) = bucket_index(v.capacity()) {
        let mut bucket = lock(&pool().buckets[b]);
        if bucket.out > 0 {
            bucket.out -= 1;
            if bucket.free.len() < BUCKET_CAP {
                bucket.free.push(v);
                drop(bucket);
                RECYCLED.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
    DROPPED.fetch_add(1, Ordering::Relaxed);
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
    /// Buffers of at least [`MIN_POOLED`] floats freed instead: capacity
    /// not a bucket size, no buffer of its size out, or bucket full.
    pub dropped: u64,
    /// Bytes of capacity currently held on the free lists (a level, not a
    /// counter: [`reset_stats`] leaves it alone, [`clear`] zeroes it).
    pub retained_bytes: u64,
}

/// Snapshot of the global counters since process start or the last
/// [`reset_stats`].
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::SeqCst),
        misses: MISSES.load(Ordering::SeqCst),
        recycled: RECYCLED.load(Ordering::SeqCst),
        dropped: DROPPED.load(Ordering::SeqCst),
        retained_bytes: retained_bytes(),
    }
}

/// Bytes of capacity on the free lists. Every buffer on a free list has
/// exactly its bucket's size, so the lists' lengths say it all.
fn retained_bytes() -> u64 {
    let bucket_bytes = |i: usize| (MIN_POOLED << i) * std::mem::size_of::<f32>();
    pool()
        .buckets
        .iter()
        .enumerate()
        .map(|(i, b)| (lock(b).free.len() * bucket_bytes(i)) as u64)
        .sum()
}

/// Zeroes all counters (the retained buffers, and
/// [`PoolStats::retained_bytes`], are unaffected).
pub fn reset_stats() {
    HITS.store(0, Ordering::SeqCst);
    MISSES.store(0, Ordering::SeqCst);
    RECYCLED.store(0, Ordering::SeqCst);
    DROPPED.store(0, Ordering::SeqCst);
}

/// Frees every retained buffer (counters are unaffected).
pub fn clear() {
    for b in &pool().buckets {
        lock(b).free.clear();
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
        assert_eq!(take(MAX_POOLED + 1).capacity(), MAX_POOLED + 1);
        assert!(bucket_index(2 * MAX_POOLED).is_none());
        assert!(bucket_index(MIN_POOLED / 2).is_none());
    }

    #[test]
    fn buckets_cover_the_size_range() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(bucket_index(MIN_POOLED), Some(0));
        assert_eq!(bucket_index(2 * MIN_POOLED), Some(1));
        assert_eq!(bucket_index(MAX_POOLED), Some(BUCKETS - 1));
        for cap in [MIN_POOLED + 1, 2 * MIN_POOLED - 1, MAX_POOLED - 1] {
            assert_eq!(bucket_index(cap), None, "{cap} is not a bucket size");
        }
        for len in [0, 1, MIN_POOLED, MIN_POOLED + 1, 589_824, MAX_POOLED] {
            let cap = take(len).capacity();
            assert!(
                cap >= len && bucket_index(cap).is_some(),
                "take({len}) -> {cap}"
            );
        }
    }

    /// Whether any free list holds a buffer of capacity `cap`.
    fn holds(cap: usize) -> bool {
        pool()
            .buckets
            .iter()
            .any(|b| lock(b).free.iter().any(|v| v.capacity() == cap))
    }

    #[test]
    fn only_bucket_sized_buffers_are_kept() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        // A 384×1536 weight decoded from a checkpoint: capacity 589 824,
        // between the 2^19 and 2^20 buckets. Other tests share the
        // counters, so only increases are asserted.
        let decoded: Vec<f32> = (0..589_824).map(|i| i as f32).collect();
        assert_eq!(decoded.capacity(), 589_824);
        let before = stats();
        recycle(decoded);
        assert!(stats().dropped > before.dropped, "an odd capacity is freed");
        assert!(!holds(589_824), "an odd capacity is never filed");

        let mut v = take(589_824);
        v.resize(589_824, 0.0);
        assert_eq!(v.capacity(), 1 << 20, "a miss allocates the bucket size");
        let before = stats();
        recycle(v);
        assert!(stats().recycled > before.recycled);
        assert!(holds(1 << 20), "a bucket-sized buffer is kept");
    }

    #[test]
    fn a_bucket_never_holds_more_than_it_handed_out() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        const SIZE: usize = 1 << 22;
        // A bucket-sized buffer the pool did not allocate, returned while
        // none of its size is out, is supply without demand.
        let before = stats();
        recycle(Vec::with_capacity(SIZE));
        assert!(stats().dropped > before.dropped);
        assert!(!holds(SIZE));
        // While one is out, a returned buffer stands in for it, and the
        // one handed out comes back as surplus.
        let out = take(SIZE);
        recycle(Vec::with_capacity(SIZE));
        assert!(holds(SIZE), "a stand-in for the buffer out is kept");
        let before = stats();
        recycle(out);
        assert!(stats().dropped > before.dropped, "the surplus is freed");
        clear();
    }

    #[test]
    fn retained_bytes_count_the_free_lists() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        // Only this test uses the 2^21 bucket (8 MiB a buffer); other
        // tests' traffic moves the figure by far less than half of that
        // while the asserts run.
        const SIZE: usize = 1 << 21;
        const HALF: u64 = 2 * SIZE as u64;
        let base = stats().retained_bytes;
        recycle(take(SIZE));
        let kept = stats().retained_bytes;
        assert!(kept > base + HALF, "a kept buffer counts");
        let v = take(SIZE);
        assert!(stats().retained_bytes + HALF < kept, "a hit hands it back");
        recycle(v);
        reset_stats();
        assert!(
            stats().retained_bytes > HALF,
            "reset_stats leaves the level alone"
        );
        clear();
        assert!(stats().retained_bytes < HALF, "clear frees the lists");
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
