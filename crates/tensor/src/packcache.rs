//! Process-wide cache of pre-packed weight matrices.
//!
//! Packing the right-hand side of a GEMM into the microkernel layout
//! (see [`crate::gemm`]) costs an `O(k·n)` copy per call. Training
//! amortizes that inside a single large product, but the inference-style
//! workloads of the ACME pipeline — PFG candidate evaluation against a
//! frozen backbone, header-search rollouts, device-side accuracy probes —
//! multiply against the *same* frozen weight matrices thousands of times.
//! This module keeps the packed form of such matrices around so repeated
//! products skip the re-pack entirely.
//!
//! # Keying and invalidation
//!
//! Entries are keyed by a [`PackIdent`]: the identity of the owning
//! parameter *store* (unique per store instance, including clones), the
//! parameter's slot in that store, and a monotonically increasing
//! *version* bumped on every mutable access to the value. A lookup whose
//! version differs from the cached entry's replaces it, so the cache can
//! never serve stale weights: an optimizer step (which bumps the version)
//! invalidates the packed copy automatically, while frozen parameters keep
//! hitting. Each `(store, slot)` pair holds at most one packed buffer per
//! dtype, and a store takes its entries with it when it is dropped
//! ([`forget_store`]), so memory is bounded by the number of live weight
//! matrices, not by the number of versions or clones they went through.
//!
//! There is one cache type, [`Cache`], instantiated once per [`Kernel`]
//! ([`F32_CACHE`] and [`I8_CACHE`]); [`Cache::lookup_or_pack`] is the
//! only lookup body.
//!
//! # Determinism
//!
//! Packing only relocates values — [`crate::gemm::gemm_prepacked`] is
//! bit-identical to the unpacked path — so cache hits and misses are
//! observable only as wall-clock time, never in results.
//!
//! The pack counter and cache size are published into the unified
//! metrics registry as `tensor.packcache.*` by
//! [`publish_obs_metrics`](crate::publish_obs_metrics); prefer reading
//! them from an `acme_obs::metrics::snapshot()` (or a `--trace-out`
//! document) over calling [`packs`]/[`len`] directly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};

use acme_obs::mem::{self, Owner};

use crate::array::Array;
use crate::gemm::{Kernel, MatRef, Packed, F32};
use crate::qgemm::I8;

/// Identity of one versioned parameter tensor, the cache key for its
/// packed form. Obtained from the parameter store that owns the tensor
/// (`acme-nn`'s `ParamSet` derives one per parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackIdent {
    /// Unique id of the owning store instance ([`fresh_store_id`]).
    pub store: u64,
    /// Slot of the parameter within its store.
    pub slot: u64,
    /// Mutation counter of the value; any write bumps it.
    pub version: u64,
}

/// Allocates a store id no other store in this process has used —
/// parameter stores call this at construction *and on clone*, so two
/// stores that diverge after a clone can never alias cache entries.
pub fn fresh_store_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Packed-B buffers below this size (in `f32`s) are not worth caching:
/// the pack is cheaper than the cache round-trip.
const MIN_CACHED_LEN: usize = 64 * 64;

/// Whether a weight matrix is big enough for the packed-cache path to
/// beat re-packing (smaller weights go through the plain dispatch,
/// [`crate::gemm::gemm`], which packs them per call, or below
/// [`crate::gemm::MR`] rows picks the naive kernel outright).
pub fn worth_caching(b: &Array) -> bool {
    b.rank() == 2 && b.len() >= MIN_CACHED_LEN
}

/// A cached pack, charged to the [`Owner::PackCache`] gauge while the
/// cache holds it.
struct Entry<K: Kernel> {
    version: u64,
    pack: Arc<Packed<K>>,
}

impl<K: Kernel> Entry<K> {
    fn new(version: u64, pack: Arc<Packed<K>>) -> Self {
        mem::charge(Owner::PackCache, pack.heap_bytes());
        Entry { version, pack }
    }
}

impl<K: Kernel> Drop for Entry<K> {
    fn drop(&mut self) {
        mem::release(Owner::PackCache, self.pack.heap_bytes());
    }
}

/// The cache of one kernel instantiation: its packed weights by store,
/// then slot — so a dropped store is forgotten without a scan of the
/// others' entries — and its counters.
pub struct Cache<K: Kernel> {
    stores: Mutex<HashMap<u64, HashMap<u64, Entry<K>>>>,
    /// Packing operations actually performed (cache misses plus
    /// below-threshold packs). Tests assert this stays flat across
    /// `Graph::reset` + re-bind cycles to prove no spurious repacks.
    packs: AtomicU64,
    /// Lookups served from the cache without repacking. The serving
    /// path's steady-state contract is "hits grow, packs stay flat".
    hits: AtomicU64,
    /// Sees every pack performed.
    on_pack: fn(&Packed<K>),
}

/// The f32 cache.
pub static F32_CACHE: LazyLock<Cache<F32>> = LazyLock::new(|| Cache::new(|_| ()));

/// The int8 cache: serving at int8 quantizes each frozen weight once at
/// first bind, and each pack's mean absolute quantization error feeds
/// [`i8_mean_quant_error`].
pub static I8_CACHE: LazyLock<Cache<I8>> =
    LazyLock::new(|| Cache::new(|pack| record_i8_error(pack.mean_abs_error())));

/// Total f32 packs performed since process start.
pub fn packs() -> u64 {
    F32_CACHE.packs.load(Ordering::Relaxed)
}

/// Total f32 cache hits since process start.
pub fn hits() -> u64 {
    F32_CACHE.hits.load(Ordering::Relaxed)
}

/// Total int8 quantize-and-pack operations since process start.
pub fn i8_packs() -> u64 {
    I8_CACHE.packs.load(Ordering::Relaxed)
}

/// Total int8 cache hits since process start.
pub fn i8_hits() -> u64 {
    I8_CACHE.hits.load(Ordering::Relaxed)
}

/// Running `(sum of per-pack mean abs error, packs)` over every int8
/// pack performed — the source of the
/// `tensor.packcache.i8_mean_quant_error` gauge. The f64 bit pattern of
/// the sum rides in an `AtomicU64` so the hot path stays lock-free.
static I8_ERR_SUM_BITS: AtomicU64 = AtomicU64::new(0);
static I8_ERR_COUNT: AtomicU64 = AtomicU64::new(0);

fn record_i8_error(mean_abs: f32) {
    // One CAS loop per *pack* (not per product); contention is nil.
    let mut cur = I8_ERR_SUM_BITS.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + mean_abs as f64).to_bits();
        match I8_ERR_SUM_BITS.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
    I8_ERR_COUNT.fetch_add(1, Ordering::Relaxed);
}

/// Mean of the per-pack mean absolute weight-quantization errors across
/// every int8 pack performed so far (0.0 before the first pack).
pub fn i8_mean_quant_error() -> f64 {
    let n = I8_ERR_COUNT.load(Ordering::Relaxed);
    if n == 0 {
        return 0.0;
    }
    f64::from_bits(I8_ERR_SUM_BITS.load(Ordering::Relaxed)) / n as f64
}

impl<K: Kernel> Cache<K> {
    fn new(on_pack: fn(&Packed<K>)) -> Self {
        Cache {
            stores: Mutex::default(),
            packs: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            on_pack,
        }
    }

    /// Every update of the map is one `insert`, `remove` or `clear`, so
    /// it is valid even behind a poisoned lock — and `forget_store` runs
    /// in a destructor, which must not panic.
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, HashMap<u64, Entry<K>>>> {
        self.stores.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn len(&self) -> usize {
        self.lock().values().map(HashMap::len).sum()
    }

    /// The form of the 2-D weight matrix `b` packed for kernel `K` (for
    /// [`I8`]: quantized per output channel, then packed) under identity
    /// `ident`, served from the cache when the version still matches and
    /// re-packed (and re-cached) otherwise: a mutated weight packs again,
    /// a frozen one exactly once per process. Tiny matrices are packed
    /// without caching.
    ///
    /// # Panics
    ///
    /// Panics unless `b` is 2-D (callers gate on rank first).
    pub fn lookup_or_pack(&self, ident: PackIdent, b: &Array) -> Arc<Packed<K>> {
        assert_eq!(b.rank(), 2, "packcache: weight must be 2-D");
        let (k, n) = (b.shape()[0], b.shape()[1]);
        let pack_now = || {
            self.packs.fetch_add(1, Ordering::Relaxed);
            let pack = K::pack_b(MatRef::row_major(b.data(), n), k, n);
            (self.on_pack)(&pack);
            Arc::new(pack)
        };
        if b.len() < MIN_CACHED_LEN {
            return pack_now();
        }
        let mut stores = self.lock();
        let slots = stores.entry(ident.store).or_default();
        match slots.get(&ident.slot) {
            Some(e) if e.version == ident.version => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&e.pack)
            }
            _ => {
                let pack = pack_now();
                slots.insert(ident.slot, Entry::new(ident.version, Arc::clone(&pack)));
                pack
            }
        }
    }
}

/// Drops every buffer cached for parameter store `store`, at every
/// dtype. Stores call this when they are dropped: their id is never
/// reused, so the entries could only sit there for good.
pub fn forget_store(store: u64) {
    F32_CACHE.lock().remove(&store);
    I8_CACHE.lock().remove(&store);
}

/// Drops every cached buffer — f32 and int8 sides both (used by tests
/// and by harnesses that want a cold-cache measurement).
pub fn clear() {
    F32_CACHE.lock().clear();
    I8_CACHE.lock().clear();
}

/// Number of cached packed matrices, both dtypes.
pub fn len() -> usize {
    F32_CACHE.len() + I8_CACHE.len()
}

/// Total cached size in `f32`s across all f32 entries.
pub fn cached_floats() -> usize {
    let stores = F32_CACHE.lock();
    let entries = stores.values().flat_map(HashMap::values);
    entries.map(|e| e.pack.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big() -> Array {
        let mut w = Array::zeros(&[96, 96]);
        for (i, v) in w.data_mut().iter_mut().enumerate() {
            *v = (i % 13) as f32 - 6.0;
        }
        w
    }

    #[test]
    fn hit_miss_and_invalidation() {
        let w = big();
        let store = fresh_store_id();
        let id_v0 = PackIdent {
            store,
            slot: 0,
            version: 0,
        };
        let p1 = F32_CACHE.lookup_or_pack(id_v0, &w);
        let h0 = hits();
        let p2 = F32_CACHE.lookup_or_pack(id_v0, &w);
        assert!(Arc::ptr_eq(&p1, &p2), "same version hits the cache");
        assert!(hits() > h0, "cache hit increments the hit counter");
        // A version bump replaces the entry rather than growing the map.
        let before = len();
        let p3 = F32_CACHE.lookup_or_pack(
            PackIdent {
                version: 1,
                ..id_v0
            },
            &w,
        );
        assert!(!Arc::ptr_eq(&p1, &p3), "stale version repacks");
        assert_eq!(len(), before, "one entry per (store, slot)");
        assert!(cached_floats() >= w.len());
    }

    #[test]
    fn distinct_stores_do_not_alias() {
        let w = big();
        let a = PackIdent {
            store: fresh_store_id(),
            slot: 7,
            version: 3,
        };
        let b = PackIdent {
            store: fresh_store_id(),
            slot: 7,
            version: 3,
        };
        let pa = F32_CACHE.lookup_or_pack(a, &w);
        let pb = F32_CACHE.lookup_or_pack(b, &w);
        assert!(!Arc::ptr_eq(&pa, &pb));
    }

    #[test]
    fn i8_side_hits_and_invalidates_like_f32() {
        let w = big();
        let store = fresh_store_id();
        let id = PackIdent {
            store,
            slot: 0,
            version: 0,
        };
        let p1 = I8_CACHE.lookup_or_pack(id, &w);
        let h0 = i8_hits();
        let p2 = I8_CACHE.lookup_or_pack(id, &w);
        assert!(Arc::ptr_eq(&p1, &p2), "same version hits the i8 cache");
        assert!(i8_hits() > h0);
        let p3 = I8_CACHE.lookup_or_pack(PackIdent { version: 1, ..id }, &w);
        assert!(!Arc::ptr_eq(&p1, &p3), "stale version re-quantizes");
        assert!(I8_CACHE.len() >= 1);
        assert!(i8_packs() >= 2, "miss and invalidation both pack");
        assert!(
            i8_mean_quant_error() >= 0.0,
            "error stat populated after packs"
        );
        // The two dtype caches are independent: an f32 pack of the same
        // ident must not collide with the i8 entry.
        let pf = F32_CACHE.lookup_or_pack(PackIdent { version: 1, ..id }, &w);
        assert_eq!((pf.k(), pf.n()), (p3.k(), p3.n()));
    }

    #[test]
    fn tiny_weights_skip_the_cache() {
        let w = Array::ones(&[4, 4]);
        let id = PackIdent {
            store: fresh_store_id(),
            slot: 0,
            version: 0,
        };
        let before = len();
        let p = F32_CACHE.lookup_or_pack(id, &w);
        assert_eq!(len(), before, "below-threshold pack is not cached");
        assert_eq!((p.k(), p.n()), (4, 4));
    }
}
