//! Which kernel `gemm::gemm` runs, read from its recorded timers: from
//! `MR` rows the blocked engine reads a row-major right operand in place
//! however few its multiply-adds, and packs a transposed one first.
//! Below `MR` rows the naive loop takes a transposed operand and one
//! narrower than an `NR` panel; the blocked engine reads a wider
//! row-major one in place. A binary of its own, because it turns
//! recording on for the whole process.

use acme_obs::{metrics, trace};
use acme_runtime::Pool;
use acme_tensor::gemm::{self, MatRef, MR, MR_WIDE, NR};

const TIMERS: [&str; 3] = [
    "tensor.gemm.naive",
    "tensor.gemm.blocked",
    "tensor.gemm.pack_b",
];

/// Calls recorded so far under each of [`TIMERS`].
fn calls() -> [u64; 3] {
    let snap = metrics::snapshot();
    TIMERS.map(|name| snap.histograms.get(name).map_or(0, |h| h.count))
}

/// One `m x k · k x n` product of ones through the dispatch, `b` stored
/// row-major or as the transpose of a row-major buffer, and the timer
/// calls it recorded, in [`TIMERS`]' order.
fn dispatch(m: usize, k: usize, n: usize, transposed: bool) -> [u64; 3] {
    let (a, b) = (vec![1.0f32; m * k], vec![1.0f32; k * n]);
    let mut out = vec![0.0f32; m * n];
    let before = calls();
    let lhs = MatRef::row_major(&a, k);
    let rhs = if transposed {
        MatRef::transposed(&b, k)
    } else {
        MatRef::row_major(&b, n)
    };
    gemm::gemm(lhs, rhs, &mut out, m, k, n, &Pool::serial());
    assert!(out.iter().all(|&v| v == k as f32), "{m}x{k}x{n}: values");
    let after = calls();
    std::array::from_fn(|i| after[i] - before[i])
}

const NAIVE: [u64; 3] = [1, 0, 0];
const IN_PLACE: [u64; 3] = [0, 1, 0];
const PACKED: [u64; 3] = [0, 1, 1];

#[test]
fn rows_widths_and_strides_pick_the_kernel() {
    trace::set_enabled(true);
    // MR · 64 · 16 = 4 K multiply-adds: rows, not work, pick the kernel.
    let k = 64;
    for m in 1..MR {
        assert_eq!(
            dispatch(m, k, NR, false),
            IN_PLACE,
            "m = {m} reads a full panel's b in place"
        );
        assert_eq!(
            dispatch(m, k, NR - 1, false),
            NAIVE,
            "m = {m}, b narrower than a panel, runs naive"
        );
        assert_eq!(dispatch(m, k, NR, true), NAIVE, "m = {m}, bᵀ, runs naive");
    }
    for m in [MR, MR_WIDE - 1, MR_WIDE, 2 * MR_WIDE + 1] {
        assert_eq!(
            dispatch(m, k, 16, false),
            IN_PLACE,
            "m = {m} reads b in place"
        );
        assert_eq!(dispatch(m, k, 16, true), PACKED, "m = {m}, bᵀ, packs b");
    }
    assert_eq!(
        dispatch(2, 384, 1536, false),
        IN_PLACE,
        "a one-request serving product reads its weight in place"
    );
    assert_eq!(
        dispatch(1, 384, 6, false),
        NAIVE,
        "a one-request exit head runs naive"
    );
    assert_eq!(
        dispatch(2 * MR + 1, 1, 1, false),
        IN_PLACE,
        "depth 1 still runs blocked"
    );
    assert_eq!(
        dispatch(64, 384, 1536, false),
        IN_PLACE,
        "a serving batch's weight product packs nothing"
    );
}
