//! The counting allocator and its owner gauges: live and peak bytes,
//! the calling thread's allocation count and largest request, and the
//! gauges copied at the high-water mark.
//!
//! This file holds a single test because it installs the allocator and
//! reads process-wide figures that another test's allocations would move.

use std::hint::black_box;

use acme_obs::mem::{self, CountingAlloc, Owner};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BIG: usize = 64 << 20;

#[test]
fn the_allocator_counts_and_the_peak_names_its_owners() {
    // The calling thread's requests: two allocations, the larger 4 KiB.
    let (_, allocs) = mem::thread_allocs(|| {
        black_box(Vec::<u8>::with_capacity(16));
        black_box(Vec::<u8>::with_capacity(4096));
    });
    assert_eq!(allocs.count, 2);
    assert_eq!(allocs.largest, 4096);
    let (_, none) = mem::thread_allocs(|| black_box(1 + 1));
    assert_eq!(none.count, 0, "arithmetic allocates nothing");

    // A buffer far above anything else live sets the peak, and the
    // gauges copied there hold what its owner charged before asking.
    mem::reset_peak();
    let base = mem::peak().live_bytes;
    mem::charge(Owner::PackCache, BIG);
    let buf = black_box(vec![1u8; BIG]);
    let peak = mem::peak();
    assert!(peak.peak_bytes >= base + BIG);
    assert!(peak.live_bytes >= base + BIG);
    let at_peak = |o: Owner| peak.owners.iter().find(|(w, _)| *w == o).unwrap().1;
    assert_eq!(at_peak(Owner::PackCache), BIG as isize);
    drop(buf);
    mem::release(Owner::PackCache, BIG);
    assert!(
        mem::peak().peak_bytes >= base + BIG,
        "a free keeps the peak"
    );
    mem::reset_peak();
    assert!(
        mem::peak().peak_bytes < base + BIG,
        "a reset starts it again"
    );

    // Rows: the pool's handed-out bytes less what tapes and datasets
    // hold, never below zero, beside every other owner's gauge.
    let rows = mem::peak().rows();
    assert_eq!(rows.len(), 8);
    assert!(rows.iter().all(|&(_, bytes)| bytes >= 0));
}
