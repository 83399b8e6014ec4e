//! Heap accounting: one counting global allocator and the owner gauges
//! it reads at its peak.
//!
//! * [`CountingAlloc`] wraps [`System`]. Installed with one line,
//!
//!   ```ignore
//!   #[global_allocator]
//!   static ALLOC: acme_obs::mem::CountingAlloc = acme_obs::mem::CountingAlloc;
//!   ```
//!
//!   it keeps the process's live heap bytes and their high-water mark,
//!   and for the calling thread an allocation count and the largest
//!   single request ([`thread_allocs`]). It allocates nothing itself:
//!   the process-wide figures are atomics, the per-thread ones
//!   const-initialised thread-locals without a destructor.
//! * [`Owner`] gauges are the long-lived holders of bytes. Each owner
//!   calls [`charge`] / [`release`] as its bytes come and go: one
//!   relaxed atomic add where the allocator is installed, one relaxed
//!   load where it is not, so a process that does not measure does not
//!   contend on the gauges. At every new high-water mark the allocator
//!   copies all gauges, so [`peak`] says who held the bytes at the
//!   instant the process held the most.
//!
//! Accounting never changes what the program computes: the allocator
//! forwards every request unchanged, and a gauge is only written.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

/// A long-lived holder of heap bytes, with its own gauge.
///
/// The pool rows cover the pooled buffers, on a free list or handed
/// out. Tapes and datasets hold arrays, most of them pooled, so a table
/// that sums its rows takes their bytes off [`Owner::PoolOut`] (see
/// [`Peak::rows`]). The other owners hold plain vectors that never pass
/// through the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// Graph node values (parameters bound by reference excluded) and
    /// the state ops save for their backward rules.
    TapeValues,
    /// Gradients held on graph tapes.
    TapeGrads,
    /// Images and labels of in-memory datasets.
    Datasets,
    /// Buffers on the tensor pool's free lists.
    PoolFree,
    /// Pooled buffers handed out and not yet returned.
    PoolOut,
    /// Cached teacher outputs of Phase 1's distillation.
    TeacherTargets,
    /// Cached frozen-backbone features of header refits.
    FrozenFeatures,
    /// Packed weight panels of the pack cache.
    PackCache,
}

const OWNERS: usize = 8;

impl Owner {
    /// Every owner, in table order.
    const ALL: [Owner; OWNERS] = [
        Owner::TapeValues,
        Owner::TapeGrads,
        Owner::Datasets,
        Owner::PoolOut,
        Owner::PoolFree,
        Owner::TeacherTargets,
        Owner::FrozenFeatures,
        Owner::PackCache,
    ];

    /// The owner's row label.
    fn name(self) -> &'static str {
        match self {
            Owner::TapeValues => "tape values",
            Owner::TapeGrads => "tape gradients",
            Owner::Datasets => "datasets",
            Owner::PoolFree => "pool free lists",
            Owner::PoolOut => "pool handed out",
            Owner::TeacherTargets => "teacher targets",
            Owner::FrozenFeatures => "frozen features",
            Owner::PackCache => "pack cache",
        }
    }
}

/// Set by the allocator's first request, before `main` runs, so no
/// owner charges before it and releases after.
static INSTALLED: AtomicBool = AtomicBool::new(false);
static GAUGES: [AtomicIsize; OWNERS] = [const { AtomicIsize::new(0) }; OWNERS];
static AT_PEAK: [AtomicIsize; OWNERS] = [const { AtomicIsize::new(0) }; OWNERS];
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Live bytes when [`AT_PEAK`] was last copied.
static SNAPSHOT_LIVE: AtomicUsize = AtomicUsize::new(0);
/// Held while one thread copies the gauges; a thread that finds it
/// held skips its copy, since the holder's is at most a few
/// allocations older.
static SNAPSHOTTING: AtomicBool = AtomicBool::new(false);

/// Adds `bytes` to `owner`'s gauge (a no-op without [`CountingAlloc`]).
pub fn charge(owner: Owner, bytes: usize) {
    if INSTALLED.load(Ordering::Relaxed) {
        GAUGES[owner as usize].fetch_add(bytes as isize, Ordering::Relaxed);
    }
}

/// Takes `bytes` off `owner`'s gauge (a no-op without [`CountingAlloc`]).
pub fn release(owner: Owner, bytes: usize) {
    if INSTALLED.load(Ordering::Relaxed) {
        GAUGES[owner as usize].fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

/// The owner gauges at the allocator's high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Peak {
    /// The most live heap bytes the process has held (0 when
    /// [`CountingAlloc`] is not installed).
    pub peak_bytes: usize,
    /// Live bytes at the instant the gauges were copied.
    pub live_bytes: usize,
    /// Each owner's gauge at that instant, in table order.
    pub owners: [(Owner, isize); OWNERS],
}

impl Peak {
    /// Rows that sum to the bytes the owners account for, each owner's
    /// gauge but [`Owner::PoolOut`]'s, which is what the pool has handed
    /// out less what tapes and datasets hold. It reads below zero when
    /// they hold arrays born outside the pool, or when the pool has
    /// filed such a buffer as a stand-in for one it handed out.
    pub fn rows(&self) -> Vec<(&'static str, isize)> {
        let arrays: isize = self
            .owners
            .iter()
            .filter(|(o, _)| matches!(o, Owner::TapeValues | Owner::TapeGrads | Owner::Datasets))
            .map(|r| r.1)
            .sum();
        self.owners
            .iter()
            .map(|&(o, bytes)| match o {
                Owner::PoolOut => ("pool handed out, to no owner above", bytes - arrays),
                _ => (o.name(), bytes),
            })
            .collect()
    }
}

/// The high-water mark and who held it.
pub fn peak() -> Peak {
    Peak {
        peak_bytes: PEAK.load(Ordering::Relaxed),
        live_bytes: SNAPSHOT_LIVE.load(Ordering::Relaxed),
        owners: Owner::ALL.map(|o| (o, AT_PEAK[o as usize].load(Ordering::Relaxed))),
    }
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    snapshot(live);
}

fn snapshot(live: usize) {
    if SNAPSHOTTING
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return;
    }
    for (at, now) in AT_PEAK.iter().zip(&GAUGES) {
        at.store(now.load(Ordering::Relaxed), Ordering::Relaxed);
    }
    SNAPSHOT_LIVE.store(live, Ordering::Relaxed);
    SNAPSHOTTING.store(false, Ordering::Release);
}

/// The calling thread's allocations: how many requests it made (a
/// `realloc` counts as one) and the largest size it asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadAllocs {
    pub count: usize,
    pub largest: usize,
}

thread_local! {
    static THREAD: Cell<ThreadAllocs> = const {
        Cell::new(ThreadAllocs { count: 0, largest: 0 })
    };
}

/// Runs `f` and returns its result with the calling thread's
/// allocations during it. Counts only while [`CountingAlloc`] is the
/// global allocator.
pub fn thread_allocs<R>(f: impl FnOnce() -> R) -> (R, ThreadAllocs) {
    let before = THREAD.with(|t| t.replace(ThreadAllocs::default()));
    let out = f();
    let during = THREAD.with(|t| {
        t.replace(ThreadAllocs {
            count: before.count + t.get().count,
            largest: before.largest.max(t.get().largest),
        })
    });
    (out, during)
}

fn on_alloc(size: usize) {
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
    // A thread tearing down its locals still allocates; its request
    // still counts towards the live bytes.
    let _ = THREAD.try_with(|t| {
        let ThreadAllocs { count, largest } = t.get();
        t.set(ThreadAllocs {
            count: count + 1,
            largest: largest.max(size),
        });
    });
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    if live > PEAK.load(Ordering::Relaxed) && PEAK.fetch_max(live, Ordering::Relaxed) < live {
        snapshot(live);
    }
}

/// The counting global allocator (see the module docs).
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around it
// neither allocates (atomics, and a const-initialised thread-local
// without a destructor) nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` via this allocator.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        new
    }
}
