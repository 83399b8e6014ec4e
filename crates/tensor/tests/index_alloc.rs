//! `Array::at` / `at_mut` compute an element's offset without touching
//! the heap. They sit in per-pixel and per-element loops (the synthetic
//! data upsampler that every drift window runs, the baselines), so an
//! allocation per call is an allocation per element.
//!
//! This file holds a single test because it installs its own global
//! allocator, which counts the allocations of the calling thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use acme_tensor::Array;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // A thread tearing down its locals still allocates; nothing to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `count` neither allocates
// (the thread-local is const-initialized and has no destructor) nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn element_access_allocates_nothing() {
    let shape = [2, 3, 4, 5];
    let mut a = Array::from_vec((0..120).map(|v| v as f32).collect(), &shape).unwrap();
    let mut sum = 0.0;
    let n = allocations_during(|| {
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    for l in 0..5 {
                        *a.at_mut(&[i, j, k, l]) += 1.0;
                        sum += a.at(&[i, j, k, l]);
                    }
                }
            }
        }
    });
    assert_eq!(n, 0, "at / at_mut allocated {n} times over 120 elements");
    // Still the row-major element: 0 + 1 + … + 119, plus one each.
    assert_eq!(sum, (0..120).sum::<i32>() as f32 + 120.0);
    assert_eq!(a.at(&[1, 2, 3, 4]), 120.0);
}
