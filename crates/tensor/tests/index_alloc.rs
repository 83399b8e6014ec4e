//! `Array::at` / `at_mut` compute an element's offset without touching
//! the heap. They sit in per-pixel and per-element loops (the synthetic
//! data upsampler that every drift window runs, the baselines), so an
//! allocation per call is an allocation per element.
//!
//! This file holds a single test because it installs the counting
//! global allocator, read for the calling thread's allocations only.

use acme_tensor::obs::mem::{thread_allocs, CountingAlloc};
use acme_tensor::Array;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> usize {
    thread_allocs(f).1.count
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
