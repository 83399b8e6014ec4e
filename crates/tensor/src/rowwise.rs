//! Fused, parallel row-wise kernels: softmax, log-softmax, layer norm
//! and cross-entropy, forward and backward, plus parallel elementwise
//! maps.
//!
//! Each kernel fuses the passes of its operation into a single sweep per
//! row and, once its estimated serial time is several fork/joins (see
//! [`FORK_MIN_SERIAL_NS`]), shards **whole rows** over as many threads
//! as [`acme_runtime::global_pool`] has for the caller.
//! The determinism contract matches the GEMM engine's: within a row the
//! reduction order is fixed (ascending index, exactly the order the
//! historical serial loops used), and threads own disjoint contiguous
//! row ranges, so results are bit-identical to the serial implementation
//! at any thread count.
//!
//! Cross-row reductions (layer norm's `dgamma`/`dbeta`, cross-entropy's
//! scalar loss) are the one place row sharding would change float
//! associativity. They are handled without giving up parallelism:
//! per-**column** accumulator chains are independent, so `dgamma`/`dbeta`
//! shard over columns with each thread walking all rows in ascending
//! order, and the cross-entropy per-row losses are written to a scratch
//! slice in parallel and summed serially in row order.

use crate::fastmath;
use acme_runtime::{global_pool, Pool};

/// One two-task fork/join on the runtime's scoped workers — spawn a
/// thread, join it — measured at 50–75 µs on the 2-core reference host
/// (`runtime.par_map_empty_us` in the benchmark).
const FORK_JOIN_NS: usize = 70_000;

/// A kernel forks only when its estimated serial time is at least four
/// fork/joins. Measured on two threads at the reference ViT's batch-32
/// shapes: every kernel under 200 µs of serial work lost (layer norm
/// forward 26 → 113 µs, backward 29 → 165 µs; GELU backward 10 → 58 µs;
/// softmax backward 18 → 81 µs; log-softmax backward 108 → 154 µs),
/// softmax forward at 194 µs broke even, GELU forward at 942 µs (libm
/// `tanhf`) won (633 µs). The loss exceeds the fork/join itself: the
/// second core has to pull an L2-resident tensor across. With the in-tree
/// `tanh` the same GELU forward takes 56–64 µs, and at 4x the rows
/// (250–260 µs serial) a fork still lost (280–290 µs).
const FORK_MIN_SERIAL_NS: usize = 4 * FORK_JOIN_NS;

/// Elements below which a kernel that costs `ps_per_element` picoseconds
/// per element on one thread stays there.
const fn par_min(ps_per_element: usize) -> usize {
    FORK_MIN_SERIAL_NS * 1000 / ps_per_element
}

// One cutoff per kernel class, from the serial cost per element measured
// at those shapes and at 4x and 16x the rows (it does not move with size).

/// Softmax forward (4.1–5.5 ns at the attention's 17-wide rows, 2.2–2.7
/// ns at 100-wide ones), log-softmax forward, cross-entropy both ways and
/// log-softmax backward (2.5–3.6 ns at 100-wide rows): one vectorised
/// `exp` per element plus a max and a sum pass, costed at the short
/// rows: 62 k.
pub(crate) const PAR_MIN_EXP: usize = par_min(4_500);
/// Layer norm, three passes over each row (1.5–1.9 ns), and GELU
/// forward, one rational `tanh` per element (1.5–2.1 ns): 165 k.
const PAR_MIN_NORM: usize = par_min(1_700);
/// GELU and softmax backward, a few multiply-adds per element read,
/// 0.3–0.6 ns: 560 k.
const PAR_MIN_STREAM: usize = par_min(500);

// What the cutoffs are for: a batch of 32 through the reference ViT (544
// token rows, dim 32, MLP 64, 4 heads of 17 x 17 scores) forks nowhere;
// a batch of 64 shards the attention forward's batches.
const _: () = {
    assert!(544 * 64 < PAR_MIN_NORM);
    assert!(32 * 4 * 17 * 17 < PAR_MIN_EXP);
    assert!(64 * 4 * 17 * 17 >= PAR_MIN_EXP);
    assert!(544 * 64 < PAR_MIN_STREAM);
};

/// How many threads a kernel over `elements` elements in `units`
/// independent rows (or columns) should shard over: 1 below the class
/// cutoff `par_min`, else the global pool's width — which is already 1
/// inside a task whose share of the thread budget is 1.
pub(crate) fn fork_width(elements: usize, par_min: usize, units: usize) -> usize {
    #[cfg(test)]
    if let Some(width) = tests::FORCED_WIDTH.get() {
        return width.min(units.max(1));
    }
    if elements < par_min {
        return 1;
    }
    global_pool().threads().min(units.max(1))
}

/// Runs `body(first_row, a_chunk, b_chunk)` over `a` and `b` (rows of
/// `a_len` and `b_len` elements) split into the same `width` contiguous
/// row ranges, one task each; inline when `width` is 1.
pub(crate) fn par_rows2<A: Send, B: Send>(
    width: usize,
    rows: usize,
    (a, a_len): (&mut [A], usize),
    (b, b_len): (&mut [B], usize),
    body: impl Fn(usize, &mut [A], &mut [B]) + Sync,
) {
    debug_assert_eq!(a.len(), rows * a_len);
    debug_assert_eq!(b.len(), rows * b_len);
    if width <= 1 {
        return body(0, a, b);
    }
    let per = rows.div_ceil(width);
    let (mut a_rest, mut b_rest) = (a, b);
    let mut ranges = Vec::with_capacity(width);
    let mut r0 = 0;
    while r0 < rows {
        let take = per.min(rows - r0);
        let (a_chunk, a_tail) = a_rest.split_at_mut(take * a_len);
        let (b_chunk, b_tail) = b_rest.split_at_mut(take * b_len);
        (a_rest, b_rest) = (a_tail, b_tail);
        ranges.push((r0, a_chunk, b_chunk));
        r0 += take;
    }
    Pool::new(width).par_map(ranges, |_, (r0, a_chunk, b_chunk)| {
        body(r0, a_chunk, b_chunk)
    });
}

/// The second operand of [`par_rows2`] for a kernel with one output.
fn no_rows() -> (&'static mut [()], usize) {
    (&mut [], 0)
}

/// [`par_rows2`] over the single output of a kernel in the cost class
/// `par_min`, timed.
fn par_rows(
    par_min: usize,
    rows: usize,
    row_len: usize,
    out: &mut [f32],
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    let _t = acme_obs::timer!("tensor.rowwise", "rows" => rows, "row_len" => row_len);
    let width = fork_width(rows * row_len, par_min, rows);
    par_rows2(width, rows, (out, row_len), no_rows(), |r0, chunk, _| {
        body(r0, chunk)
    });
}

/// GELU forward value **and** the inner `tanh` it evaluated, in one
/// call. The `tanh` (the expensive half of both the forward and the
/// derivative) is saved by the forward so the backward never recomputes
/// it — same floats, same bits, half the transcendentals per step.
#[inline]
pub(crate) fn gelu_parts(x: f32) -> (f32, f32) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    let t = fastmath::tanh(C * (x + 0.044715 * x * x * x));
    (0.5 * x * (1.0 + t), t)
}

/// Parallel GELU forward (tanh approximation). Writes the output to
/// `out` and the per-element inner `tanh` to `saved` for the backward.
/// Elementwise, so any chunking is bit-identical to the serial loop.
pub(crate) fn gelu_fwd(x: &[f32], out: &mut [f32], saved: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(x.len(), saved.len());
    let n = x.len();
    let _t = acme_obs::timer!("tensor.rowwise", "rows" => n, "row_len" => 1usize);
    let body = |i0: usize, ochunk: &mut [f32], schunk: &mut [f32]| {
        let xs = &x[i0..i0 + ochunk.len()];
        for ((o, s), &xv) in ochunk.iter_mut().zip(schunk.iter_mut()).zip(xs) {
            (*o, *s) = gelu_parts(xv);
        }
    };
    let width = fork_width(n, PAR_MIN_NORM, n);
    par_rows2(width, n, (out, 1), (saved, 1), body);
}

/// Parallel GELU backward: `out = g * gelu'(x)`, with the inner `tanh`
/// read from the forward's `saved` buffer instead of recomputed. The
/// remaining arithmetic matches [`gelu_grad_scalar`] term for term, so
/// the result is bit-identical to the recompute-everything path.
pub(crate) fn gelu_bwd(x: &[f32], saved: &[f32], g: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(saved.len(), out.len());
    debug_assert_eq!(g.len(), out.len());
    const C: f32 = 0.797_884_6;
    par_rows(PAR_MIN_STREAM, x.len(), 1, out, |i0, chunk| {
        let n = chunk.len();
        for (((o, &xv), &t), &gv) in chunk
            .iter_mut()
            .zip(&x[i0..i0 + n])
            .zip(&saved[i0..i0 + n])
            .zip(&g[i0..i0 + n])
        {
            let d =
                0.5 * (1.0 + t) + 0.5 * xv * (1.0 - t * t) * C * (1.0 + 3.0 * 0.044715 * xv * xv);
            *o = gv * d;
        }
    });
}

/// Softmax of one row: a max pass, the vectorised exp pass, an
/// ascending sum pass and a divide pass, all in `out`. Shared by
/// [`softmax_fwd`], cross-entropy's backward and the fused attention
/// kernel, so all three produce the same bits.
#[inline]
pub(crate) fn softmax_row(xrow: &[f32], orow: &mut [f32]) {
    let m = xrow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    fastmath::exp_sub(xrow, m, orow);
    let mut sum = 0.0;
    for &o in orow.iter() {
        sum += o;
    }
    for o in orow.iter_mut() {
        *o /= sum;
    }
}

/// Softmax backward of one row: `out = y * (g - sum(g * y))`, the dot
/// product reduced in ascending column order. Shared like
/// [`softmax_row`].
#[inline]
pub(crate) fn softmax_bwd_row(ys: &[f32], gs: &[f32], orow: &mut [f32]) {
    let dot: f32 = ys.iter().zip(gs).map(|(&a, &b)| a * b).sum();
    for ((o, &yi), &gi) in orow.iter_mut().zip(ys).zip(gs) {
        *o = yi * (gi - dot);
    }
}

/// Fused softmax over rows of `cols` elements (see [`softmax_row`]).
pub(crate) fn softmax_fwd(x: &[f32], out: &mut [f32], cols: usize) {
    debug_assert_eq!(x.len(), out.len());
    let rows = x.len() / cols.max(1);
    par_rows(PAR_MIN_EXP, rows, cols, out, |r0, chunk| {
        for (i, orow) in chunk.chunks_exact_mut(cols).enumerate() {
            let r = r0 + i;
            softmax_row(&x[r * cols..(r + 1) * cols], orow);
        }
    });
}

/// Softmax backward over rows of `cols` elements (see
/// [`softmax_bwd_row`]).
pub(crate) fn softmax_bwd(y: &[f32], g: &[f32], out: &mut [f32], cols: usize) {
    debug_assert_eq!(y.len(), out.len());
    debug_assert_eq!(g.len(), out.len());
    let rows = y.len() / cols.max(1);
    par_rows(PAR_MIN_STREAM, rows, cols, out, |r0, chunk| {
        for (i, orow) in chunk.chunks_exact_mut(cols).enumerate() {
            let r = r0 + i;
            let span = r * cols..(r + 1) * cols;
            softmax_bwd_row(&y[span.clone()], &g[span], orow);
        }
    });
}

/// Fused log-softmax: `out = x - (m + ln(sum(exp(x - m))))` per row,
/// the exps staged in `out`.
pub(crate) fn log_softmax_fwd(x: &[f32], out: &mut [f32], cols: usize) {
    debug_assert_eq!(x.len(), out.len());
    let rows = x.len() / cols.max(1);
    par_rows(PAR_MIN_EXP, rows, cols, out, |r0, chunk| {
        for (i, orow) in chunk.chunks_exact_mut(cols).enumerate() {
            let r = r0 + i;
            let xrow = &x[r * cols..(r + 1) * cols];
            let m = xrow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            fastmath::exp_sub(xrow, m, orow);
            let lse = m + orow.iter().sum::<f32>().ln();
            for (o, &v) in orow.iter_mut().zip(xrow) {
                *o = v - lse;
            }
        }
    });
}

/// Log-softmax backward: `out = g - exp(y) * sum(g)` per row.
pub(crate) fn log_softmax_bwd(y: &[f32], g: &[f32], out: &mut [f32], cols: usize) {
    debug_assert_eq!(y.len(), out.len());
    debug_assert_eq!(g.len(), out.len());
    let rows = y.len() / cols.max(1);
    par_rows(PAR_MIN_EXP, rows, cols, out, |r0, chunk| {
        for (i, orow) in chunk.chunks_exact_mut(cols).enumerate() {
            let r = r0 + i;
            let ys = &y[r * cols..(r + 1) * cols];
            let gs = &g[r * cols..(r + 1) * cols];
            let gsum: f32 = gs.iter().sum();
            for ((o, &yi), &gi) in orow.iter_mut().zip(ys).zip(gs) {
                *o = gi - fastmath::exp(yi) * gsum;
            }
        }
    });
}

/// Columns of `dgamma`/`dbeta` that [`layer_norm_bwd`] accumulates at a
/// time: one cache line of `f32`, one AVX-512 register per accumulator.
const LN_COL_TILE: usize = 16;

/// Row stride of the layer-norm saved buffer: `d` normalized values
/// followed by the row's `1 / sqrt(var + eps)`.
#[inline]
pub(crate) fn ln_saved_stride(d: usize) -> usize {
    d + 1
}

/// Fused layer-norm forward. One sweep per row computes mean, variance,
/// the normalized values, and the affine output. The backward state —
/// normalized row plus `inv_std` — is packed into `saved`, one
/// `(d + 1)`-stride row per input row, replacing the former
/// `normalized: Array` + `inv_std: Vec<f32>` pair of buffers.
pub(crate) fn layer_norm_fwd(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    saved: &mut [f32],
    d: usize,
) {
    debug_assert_eq!(x.len(), out.len());
    let rows = x.len() / d.max(1);
    debug_assert_eq!(saved.len(), rows * ln_saved_stride(d));
    let _t = acme_obs::timer!("tensor.rowwise", "rows" => rows, "row_len" => d);
    let stride = ln_saved_stride(d);
    let row_body = |r: usize, orow: &mut [f32], srow: &mut [f32]| {
        let xrow = &x[r * d..(r + 1) * d];
        let mean = xrow.iter().sum::<f32>() / d as f32;
        let var = xrow.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let is = 1.0 / (var + eps).sqrt();
        srow[d] = is;
        for (i, ((s, o), &v)) in srow[..d]
            .iter_mut()
            .zip(orow.iter_mut())
            .zip(xrow)
            .enumerate()
        {
            let n = (v - mean) * is;
            *s = n;
            *o = n * gamma[i] + beta[i];
        }
    };
    let width = fork_width(rows * d, PAR_MIN_NORM, rows);
    par_rows2(
        width,
        rows,
        (out, d),
        (saved, stride),
        |r0, ochunk, schunk| {
            for (i, (orow, srow)) in ochunk
                .chunks_exact_mut(d)
                .zip(schunk.chunks_exact_mut(stride))
                .enumerate()
            {
                row_body(r0 + i, orow, srow);
            }
        },
    );
}

/// Fused layer-norm backward.
///
/// `gx` shards over rows (each row's gradient is self-contained);
/// `dgamma`/`dbeta` shard over **columns**, each thread accumulating its
/// columns over all rows in ascending row order — the exact per-column
/// accumulation chains of the serial loop, so both phases are
/// bit-identical at any thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn layer_norm_bwd(
    saved: &[f32],
    gamma: &[f32],
    grad: &[f32],
    gx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
    d: usize,
) {
    let rows = grad.len() / d.max(1);
    let stride = ln_saved_stride(d);
    debug_assert_eq!(saved.len(), rows * stride);
    debug_assert_eq!(gx.len(), grad.len());
    // Phase 1: per-row input gradients.
    par_rows(PAR_MIN_NORM, rows, d, gx, |r0, chunk| {
        for (i, gxs) in chunk.chunks_exact_mut(d).enumerate() {
            let r = r0 + i;
            let xh = &saved[r * stride..r * stride + d];
            let is = saved[r * stride + d];
            let go = &grad[r * d..(r + 1) * d];
            // dxh[i] = go[i] * gamma[i], recomputed on the fly; the two
            // means keep the historical separate ascending reductions.
            let mean_dxh = go.iter().zip(gamma).map(|(&g, &gm)| g * gm).sum::<f32>() / d as f32;
            let mean_dxh_xh = go
                .iter()
                .zip(gamma)
                .zip(xh)
                .map(|((&g, &gm), &h)| g * gm * h)
                .sum::<f32>()
                / d as f32;
            for (i, (o, &h)) in gxs.iter_mut().zip(xh).enumerate() {
                let dxh = go[i] * gamma[i];
                *o = is * (dxh - mean_dxh - h * mean_dxh_xh);
            }
        }
    });
    // Phase 2: affine gradients, sharded by column. Each tile of columns
    // is summed over all rows in locals and stored once: adding into
    // `dgamma`/`dbeta` row by row would have two threads write the cache
    // line their halves share once per row (and, when serial, load and
    // store every element where a register does).
    let col_body = |c0: usize, dg: &mut [f32], db: &mut [f32]| {
        for (t, (dg, db)) in dg
            .chunks_mut(LN_COL_TILE)
            .zip(db.chunks_mut(LN_COL_TILE))
            .enumerate()
        {
            let (c, w) = (c0 + t * LN_COL_TILE, dg.len());
            let (mut acc_g, mut acc_b) = ([0.0f32; LN_COL_TILE], [0.0f32; LN_COL_TILE]);
            acc_g[..w].copy_from_slice(dg);
            acc_b[..w].copy_from_slice(db);
            for r in 0..rows {
                let go = &grad[r * d + c..r * d + c + w];
                let xh = &saved[r * stride + c..r * stride + c + w];
                for (((g, b), &gv), &h) in acc_g.iter_mut().zip(&mut acc_b).zip(go).zip(xh) {
                    *g += gv * h;
                    *b += gv;
                }
            }
            dg.copy_from_slice(&acc_g[..w]);
            db.copy_from_slice(&acc_b[..w]);
        }
    };
    let width = fork_width(rows * d, PAR_MIN_NORM, d);
    par_rows2(width, d, (dgamma, 1), (dbeta, 1), col_body);
}

/// Fused cross-entropy forward: writes `ln(max(softmax[r, t_r], 1e-12))`
/// per row into `losses` (as `f64`, matching the historical accumulator
/// precision). Each row recomputes only what it needs — max, the
/// exp-sum in ascending order, and the target's exp — which is
/// bit-identical to materializing the full softmax first. The caller
/// sums `losses` serially in row order.
pub(crate) fn cross_entropy_fwd(
    logits: &[f32],
    targets: &[usize],
    cols: usize,
    losses: &mut [f64],
) {
    let rows = targets.len();
    debug_assert_eq!(logits.len(), rows * cols);
    debug_assert_eq!(losses.len(), rows);
    let _t = acme_obs::timer!("tensor.rowwise", "rows" => rows, "row_len" => cols);
    let row_loss = |r: usize| -> f64 {
        let xrow = &logits[r * cols..(r + 1) * cols];
        let t = targets[r];
        let m = xrow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let sum = fastmath::exp_sum(xrow, m);
        let et = fastmath::exp(xrow[t] - m);
        ((et / sum).max(1e-12) as f64).ln()
    };
    // Shard over the f64 loss slice; each row reads its logits row.
    let width = fork_width(rows * cols, PAR_MIN_EXP, rows);
    par_rows2(width, rows, (losses, 1), no_rows(), |r0, chunk, _| {
        for (i, l) in chunk.iter_mut().enumerate() {
            *l = row_loss(r0 + i);
        }
    });
}

/// Fused cross-entropy backward: recomputes each row's softmax from the
/// logits with [`softmax_row`] (cheaper than carrying a saved copy
/// through the graph) and writes `(softmax - onehot(t)) * scale`. The
/// recomputation repeats the forward's exact float sequence, so the
/// result is bit-identical to subtracting from a saved softmax.
pub(crate) fn cross_entropy_bwd(
    logits: &[f32],
    targets: &[usize],
    cols: usize,
    scale: f32,
    out: &mut [f32],
) {
    let rows = targets.len();
    debug_assert_eq!(logits.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    par_rows(PAR_MIN_EXP, rows, cols, out, |r0, chunk| {
        for (i, orow) in chunk.chunks_exact_mut(cols).enumerate() {
            let r = r0 + i;
            softmax_row(&logits[r * cols..(r + 1) * cols], orow);
            orow[targets[r]] -= 1.0;
            for o in orow.iter_mut() {
                *o *= scale;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{gelu_grad_scalar, gelu_scalar};
    use std::cell::Cell;

    thread_local! {
        /// Overrides [`fork_width`] on this thread, so the sharded bodies
        /// run at sizes far below the cost cutoffs.
        pub(super) static FORCED_WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Runs `f` with every kernel sharded `width` ways (1 = serial).
    fn sharded<R>(width: usize, f: impl FnOnce() -> R) -> R {
        FORCED_WIDTH.set(Some(width));
        let r = f();
        FORCED_WIDTH.set(None);
        r
    }

    fn fill(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32 / (1u64 << 22) as f32) - 2.0
            })
            .collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn softmax_fwd_bwd_bit_identical_across_threads() {
        let (rows, cols) = (37, 13);
        let x = fill(rows * cols, 1);
        let g = fill(rows * cols, 2);
        let run = |width: usize| {
            sharded(width, || {
                let mut y = vec![0.0; rows * cols];
                let mut d = vec![0.0; rows * cols];
                softmax_fwd(&x, &mut y, cols);
                softmax_bwd(&y, &g, &mut d, cols);
                (bits(&y), bits(&d))
            })
        };
        let base = run(1);
        for t in [2, 3, 4] {
            assert_eq!(run(t), base, "softmax t{t}");
        }
    }

    #[test]
    fn layer_norm_bit_identical_across_threads() {
        // d = 64 splits on cache-line boundaries at 2 and 4 threads; 40
        // and 21 put the column split of `dgamma`/`dbeta` mid line and
        // leave a partial last tile.
        for (rows, d) in [(96, 64), (50, 40), (33, 21)] {
            let x = fill(rows * d, 3);
            let gamma = fill(d, 4);
            let beta = fill(d, 5);
            let grad = fill(rows * d, 6);
            // Non-zero on entry: the backward accumulates into them.
            let (dg0, db0) = (fill(d, 7), fill(d, 8));
            let run = |width: usize| {
                sharded(width, || {
                    let mut out = vec![0.0; rows * d];
                    let mut saved = vec![0.0; rows * ln_saved_stride(d)];
                    layer_norm_fwd(&x, &gamma, &beta, 1e-5, &mut out, &mut saved, d);
                    let mut gx = vec![0.0; rows * d];
                    let (mut dg, mut db) = (dg0.clone(), db0.clone());
                    layer_norm_bwd(&saved, &gamma, &grad, &mut gx, &mut dg, &mut db, d);
                    (saved, bits(&out), bits(&gx), bits(&dg), bits(&db))
                })
            };
            let base = run(1);
            for t in [2, 3, 4] {
                assert_eq!(run(t), base, "layer_norm {rows}x{d} t{t}");
            }
            // The tiled column sums are the chains of the plain loop.
            let (saved, .., dg, db) = base;
            let (mut eg, mut eb) = (dg0, db0);
            for r in 0..rows {
                for c in 0..d {
                    eg[c] += grad[r * d + c] * saved[r * ln_saved_stride(d) + c];
                    eb[c] += grad[r * d + c];
                }
            }
            assert_eq!((dg, db), (bits(&eg), bits(&eb)), "{rows}x{d} vs row-by-row");
        }
    }

    #[test]
    fn cross_entropy_bit_identical_across_threads() {
        let (rows, cols) = (45, 10);
        let x = fill(rows * cols, 7);
        let targets: Vec<usize> = (0..rows).map(|r| (r * 7) % cols).collect();
        let run = |width: usize| {
            sharded(width, || {
                let mut losses = vec![0.0f64; rows];
                cross_entropy_fwd(&x, &targets, cols, &mut losses);
                let mut g = vec![0.0; rows * cols];
                cross_entropy_bwd(&x, &targets, cols, 0.125, &mut g);
                let loss_bits: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
                (loss_bits, bits(&g))
            })
        };
        let base = run(1);
        for t in [2, 3, 4] {
            assert_eq!(run(t), base, "cross_entropy t{t}");
        }
    }

    #[test]
    fn gelu_map_matches_serial_map() {
        let x = fill(501, 9);
        let g = fill(x.len(), 10);
        let expect: Vec<f32> = x.iter().map(|&v| gelu_scalar(v)).collect();
        // The saved-tanh backward must match the full recompute path.
        let expect_b: Vec<f32> = x
            .iter()
            .zip(&g)
            .map(|(&xv, &gv)| gv * gelu_grad_scalar(xv))
            .collect();
        for t in [1, 4] {
            sharded(t, || {
                let mut out = vec![0.0; x.len()];
                let mut saved = vec![0.0; x.len()];
                gelu_fwd(&x, &mut out, &mut saved);
                assert_eq!(bits(&out), bits(&expect), "t{t}");
                let mut outb = vec![0.0; x.len()];
                gelu_bwd(&x, &saved, &g, &mut outb);
                assert_eq!(bits(&outb), bits(&expect_b), "t{t}");
            });
        }
    }

    #[test]
    fn log_softmax_matches_serial() {
        let (rows, cols) = (19, 80);
        let x = fill(rows * cols, 11);
        let g = fill(rows * cols, 12);
        let run = |width: usize| {
            sharded(width, || {
                let mut y = vec![0.0; rows * cols];
                log_softmax_fwd(&x, &mut y, cols);
                let mut d = vec![0.0; rows * cols];
                log_softmax_bwd(&y, &g, &mut d, cols);
                (bits(&y), bits(&d))
            })
        };
        let base = run(1);
        for t in [2, 4] {
            assert_eq!(run(t), base, "log_softmax t{t}");
        }
    }

    #[test]
    fn sharding_hands_every_row_to_exactly_one_task() {
        for (rows, width) in [(1, 4), (5, 2), (7, 3), (8, 4), (9, 4)] {
            let mut a = vec![0u32; rows * 3];
            let mut b = vec![0u32; rows * 2];
            let tasks = std::sync::atomic::AtomicUsize::new(0);
            par_rows2(width, rows, (&mut a, 3), (&mut b, 2), |r0, ac, bc| {
                tasks.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                assert_eq!(ac.len() / 3, bc.len() / 2);
                for (i, v) in ac.iter_mut().enumerate() {
                    *v += (r0 + i / 3) as u32 + 1;
                }
                for (i, v) in bc.iter_mut().enumerate() {
                    *v += (r0 + i / 2) as u32 + 1;
                }
            });
            let rows_of = |v: &[u32], len| v.chunks(len).map(|c| c[0]).collect::<Vec<_>>();
            let expect: Vec<u32> = (1..=rows as u32).collect();
            assert_eq!(rows_of(&a, 3), expect, "{rows} rows, width {width}");
            assert_eq!(rows_of(&b, 2), expect, "{rows} rows, width {width}");
            assert!(tasks.into_inner() <= width.min(rows));
        }
    }
}
