//! Property-based tests of the runtime's two public contracts: ordered
//! deterministic `par_map` results at any thread count, and
//! earliest-task panic propagation.

use std::panic::{catch_unwind, AssertUnwindSafe};

use acme_check::cases;
use acme_runtime::Pool;

/// A task result that depends on both the item and its index.
fn mix(x: u64, i: usize) -> u64 {
    (x ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `par_map` returns results in input order for any input and any
/// worker count, and matches the single-threaded pool exactly.
#[test]
fn par_map_is_order_preserving() {
    cases(256, |g| {
        let items = g.vec(0..96, |g| g.bits() as u32);
        let threads = g.usize(1..8);
        let f = |i: usize, x: u32| mix(x as u64, i);
        let serial: Vec<u64> = Pool::serial().par_map(items.clone(), f);
        let parallel: Vec<u64> = Pool::new(threads).par_map(items, f);
        assert_eq!(parallel, serial);
    });
}

/// When several tasks panic, the panic of the earliest-spawned task
/// is the one that reaches the caller — independent of thread count.
#[test]
fn earliest_panic_propagates() {
    cases(256, |g| {
        let n = g.usize(2..48);
        let first_bad = g.usize(0..48) % n;
        let threads = g.usize(1..8);
        let pool = Pool::new(threads);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map((0..n).collect::<Vec<_>>(), |i, _| {
                if i >= first_bad {
                    panic!("task {i}");
                }
                i
            })
        }))
        .expect_err("a panicking task must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, format!("task {}", first_bad));
    });
}
