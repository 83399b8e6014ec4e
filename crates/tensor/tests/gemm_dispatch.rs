//! Which kernel `gemm::gemm` runs, read from its recorded timers: a
//! product of fewer than `MR` rows takes the naive loop, one of `MR` rows
//! takes the blocked engine however few its multiply-adds. A binary of
//! its own, because it turns recording on for the whole process.

use acme_obs::{metrics, trace};
use acme_runtime::Pool;
use acme_tensor::gemm::{self, MatRef, MR};

const NAIVE: &str = "tensor.gemm.naive";
const BLOCKED: &str = "tensor.gemm.blocked";

/// Calls recorded so far under the naive and the blocked timer.
fn calls() -> (u64, u64) {
    let snap = metrics::snapshot();
    let count = |name| snap.histograms.get(name).map_or(0, |h| h.count);
    (count(NAIVE), count(BLOCKED))
}

/// One `m x k · k x n` product of ones through the dispatch, and the
/// naive and blocked calls it recorded.
fn dispatch(m: usize, k: usize, n: usize) -> (u64, u64) {
    let (a, b) = (vec![1.0f32; m * k], vec![1.0f32; k * n]);
    let mut out = vec![0.0f32; m * n];
    let before = calls();
    let (a, b) = (MatRef::row_major(&a, k), MatRef::row_major(&b, n));
    gemm::gemm(a, b, &mut out, m, k, n, &Pool::serial());
    assert!(out.iter().all(|&v| v == k as f32), "{m}x{k}x{n}: values");
    let after = calls();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn rows_pick_the_kernel() {
    trace::set_enabled(true);
    // MR · 64 · 16 = 4 K multiply-adds: rows, not work, pick the kernel.
    let (k, n) = (64, 16);
    assert_eq!(dispatch(MR - 1, k, n), (1, 0), "m = MR - 1 runs naive");
    assert_eq!(dispatch(MR, k, n), (0, 1), "m = MR runs blocked");
    assert_eq!(
        dispatch(1, 384, 6),
        (1, 0),
        "a serving head's row runs naive"
    );
    assert_eq!(
        dispatch(2 * MR + 1, 1, 1),
        (0, 1),
        "depth 1 still runs blocked"
    );
}
