//! Fused multi-head self-attention, forward and backward: the kernels
//! behind [`Graph::attention`](crate::Graph::attention).
//!
//! Queries, keys, values and the context all live in the projections'
//! own `[batch·tokens, heads·head_dim]` layout: head `h` of token `t` in
//! batch `b` is the `head_dim` floats at row `b·tokens + t`, column
//! `h·head_dim`. Per (batch, head) the forward computes `S = Q·Kᵀ`,
//! `S·(1/√head_dim)`, the row softmax `P` (kept for the backward), the
//! context `O = P·V` and `O·mask[h]`; no head is ever permuted into a
//! contiguous tensor of its own.
//!
//! # Bitwise contract
//!
//! Every output element is produced by the chain of float operations the
//! unfused graph (reshape → permute → `batch_matmul` → `scale` →
//! `softmax_last` → `batch_matmul` → `mul` → permute) gives it:
//!
//! * each product element is [`madd`] steps in ascending depth from 0.0,
//!   the chain of [`crate::gemm::gemm_naive`] that the blocked engine is
//!   bit-identical to;
//! * each softmax row is [`softmax_row`] / [`softmax_bwd_row`], the
//!   bodies of the row-wise kernels themselves;
//! * the mask gradient is a per-head `+=` over (batch, token, column) in
//!   that order, the chain of broadcasting's reduction.
//!
//! All six products of a head go through one small register-tiled
//! kernel, [`product`]: `ROWS × LANES` independent chains advance
//! together, one depth step at a time, the way `gemm`'s microkernel
//! advances its tile (a loop that finishes one chain before starting the
//! next waits on every fused multiply-add's latency). Only the order of
//! *independent* chains differs from the oracle, never a chain itself.
//! Batches are independent, so sharding the forward's batches over
//! threads keeps every bit at any thread count; the backward runs its
//! batches on the calling thread.

use crate::gemm::{madd, MatRef};
use crate::pool;
use crate::rowwise::{fork_width, par_rows2, softmax_bwd_row, softmax_row, PAR_MIN_EXP};

/// Columns of a register tile: one 256-bit vector of `f32`.
const LANES: usize = 8;
/// Rows of a register tile.
const ROWS: usize = 8;

/// The shape of one attention call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Geom {
    pub(crate) batch: usize,
    pub(crate) tokens: usize,
    pub(crate) heads: usize,
    pub(crate) head_dim: usize,
}

impl Geom {
    /// Width of a projection row: `heads · head_dim`.
    fn inner(&self) -> usize {
        self.heads * self.head_dim
    }

    /// Floats of one batch in a projection: `tokens` rows.
    fn batch_len(&self) -> usize {
        self.tokens * self.inner()
    }

    /// Floats of one batch's probabilities: `heads` `T × T` tiles.
    fn probs_len(&self) -> usize {
        self.heads * self.tokens * self.tokens
    }

    /// Row length of the score scratch: `tokens` rounded up to whole
    /// register tiles (the padding columns are computed and ignored).
    fn padded(&self) -> usize {
        self.tokens.next_multiple_of(LANES)
    }

    /// The `1/√head_dim` the scores are scaled by.
    fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }

    /// How many threads the forward shards its batches over.
    fn width(&self) -> usize {
        fork_width(self.batch * self.probs_len(), PAR_MIN_EXP, self.batch)
    }
}

/// `c[i·ldc + j] = Σ_p a(i, p) · b[p·ldb + j]` for `i < m`, `j < n`,
/// each element one chain of [`madd`] steps in ascending `p` from 0.0
/// (the chain of `gemm_naive`), computed `ROWS × LANES` elements at a
/// time in registers. Columns past the last whole group of `LANES` run
/// as scalar chains.
#[allow(clippy::too_many_arguments)]
fn product(
    m: usize,
    k: usize,
    n: usize,
    a: MatRef<'_>,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let whole = n - n % LANES;
    let mut i = 0;
    while i + ROWS <= m {
        for j in (0..whole).step_by(LANES) {
            tile::<ROWS>(i, j, k, a, b, ldb, c, ldc);
        }
        i += ROWS;
    }
    for i in i..m {
        for j in (0..whole).step_by(LANES) {
            tile::<1>(i, j, k, a, b, ldb, c, ldc);
        }
    }
    for i in 0..m {
        for j in whole..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc = madd(a.at(i, p), b[p * ldb + j], acc);
            }
            c[i * ldc + j] = acc;
        }
    }
}

/// Rows `i0 .. i0+R`, columns `j0 .. j0+LANES` of [`product`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize>(
    i0: usize,
    j0: usize,
    k: usize,
    a: MatRef<'_>,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; LANES]; R];
    for p in 0..k {
        let bv: &[f32; LANES] = b[p * ldb + j0..][..LANES]
            .try_into()
            .expect("one lane group");
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a.at(i0 + r, p);
            for (x, &bl) in row.iter_mut().zip(bv) {
                *x = madd(av, bl, *x);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i0 + r) * ldc + j0..][..LANES].copy_from_slice(row);
    }
}

/// Head `h` of a batch's projection slice as the left operand
/// `[T, head_dim]` of a [`product`].
fn head_view<'a>(x: &'a [f32], g: &Geom, h: usize) -> MatRef<'a> {
    MatRef::strided(&x[h * g.head_dim..], g.inner(), 1)
}

/// `dst[e·padded + t] = x[t, h, e]`: head `h` of a batch transposed to
/// `[head_dim, padded]`, the right operand of a product over its
/// columns. The padding columns are left as they are (zero).
fn transpose_head(x: &[f32], g: &Geom, h: usize, dst: &mut [f32]) {
    let (inner, tp) = (g.inner(), g.padded());
    for t in 0..g.tokens {
        let row = &x[t * inner + h * g.head_dim..][..g.head_dim];
        for (e, &v) in row.iter().enumerate() {
            dst[e * tp + t] = v;
        }
    }
}

/// `O = P·V` of head `h` into `out`, rows `ldc` apart.
fn context(g: &Geom, p: &[f32], v: &[f32], h: usize, out: &mut [f32], ldc: usize) {
    let (t_len, dh) = (g.tokens, g.head_dim);
    let p = MatRef::strided(p, t_len, 1);
    product(t_len, t_len, dh, p, &v[h * dh..], g.inner(), out, ldc);
}

/// Forward over every batch: writes the (masked) context into `out`
/// (`[B·T, inner]`) and the probabilities into `probs`
/// (`[B, heads, T, T]`).
pub(crate) fn forward(
    g: &Geom,
    [q, k, v]: [&[f32]; 3],
    mask: Option<&[f32]>,
    out: &mut [f32],
    probs: &mut [f32],
) {
    let _t = acme_obs::timer!("tensor.attention", "batch" => g.batch, "tokens" => g.tokens);
    let (t_len, dh, tp, c) = (g.tokens, g.head_dim, g.padded(), g.scale());
    let body = |b0: usize, out: &mut [f32], probs: &mut [f32]| {
        let mut kt = pool::take_filled(dh * tp, 0.0);
        let mut scores = pool::take_filled(t_len * tp, 0.0);
        let batches = out
            .chunks_exact_mut(g.batch_len())
            .zip(probs.chunks_exact_mut(g.probs_len()));
        for (b, (out, probs)) in (b0..).zip(batches) {
            let span = b * g.batch_len()..(b + 1) * g.batch_len();
            let (q, k, v) = (&q[span.clone()], &k[span.clone()], &v[span]);
            for (h, p) in probs.chunks_exact_mut(t_len * t_len).enumerate() {
                transpose_head(k, g, h, &mut kt);
                product(t_len, dh, tp, head_view(q, g, h), &kt, tp, &mut scores, tp);
                for (s_row, p_row) in scores.chunks_exact_mut(tp).zip(p.chunks_exact_mut(t_len)) {
                    let s_row = &mut s_row[..t_len];
                    for s in s_row.iter_mut() {
                        *s *= c;
                    }
                    softmax_row(s_row, p_row);
                }
                let o = &mut out[h * dh..];
                context(g, p, v, h, o, g.inner());
                if let Some(m) = mask {
                    for row in o.chunks_mut(g.inner()) {
                        for x in &mut row[..dh] {
                            *x *= m[h];
                        }
                    }
                }
            }
        }
        pool::recycle(kt);
        pool::recycle(scores);
    };
    par_rows2(
        g.width(),
        g.batch,
        (out, g.batch_len()),
        (probs, g.probs_len()),
        body,
    );
}

/// Gradient buffers the backward fills, each `None` when its input
/// needs no gradient. `dq`, `dk`, `dv` are `[B·T, inner]`; `dmask` has
/// `heads` floats and is zeroed.
pub(crate) struct Grads<'a> {
    pub(crate) dq: Option<&'a mut [f32]>,
    pub(crate) dk: Option<&'a mut [f32]>,
    pub(crate) dv: Option<&'a mut [f32]>,
    pub(crate) dmask: Option<&'a mut [f32]>,
}

/// Backward over every batch from the output gradient `dy`
/// (`[B·T, inner]`) and the forward's `probs`.
pub(crate) fn backward(
    g: &Geom,
    [q, k, v]: [&[f32]; 3],
    mask: Option<&[f32]>,
    probs: &[f32],
    dy: &[f32],
    grads: Grads<'_>,
) {
    let _t = acme_obs::timer!("tensor.attention", "batch" => g.batch, "tokens" => g.tokens);
    if let Some(dmask) = grads.dmask {
        mask_grad(g, v, probs, dy, dmask);
    }
    let Grads { dq, dk, dv, .. } = grads;
    if dq.is_some() || dk.is_some() || dv.is_some() {
        backward_batches(g, [q, k, v], mask, probs, dy, [dq, dk, dv]);
    }
}

/// `dmask[h] = Σ dy[b, t, h, e] · O[b, t, h, e]` over (b, t, e) in that
/// order, `O` the unmasked context, recomputed from the saved `probs`.
fn mask_grad(g: &Geom, v: &[f32], probs: &[f32], dy: &[f32], dmask: &mut [f32]) {
    let (t_len, dh) = (g.tokens, g.head_dim);
    let mut o = pool::take_filled(t_len * dh, 0.0);
    for b in 0..g.batch {
        let span = b * g.batch_len()..(b + 1) * g.batch_len();
        let (v, dy) = (&v[span.clone()], &dy[span]);
        let probs = &probs[b * g.probs_len()..(b + 1) * g.probs_len()];
        for (h, p) in probs.chunks_exact(t_len * t_len).enumerate() {
            context(g, p, v, h, &mut o, dh);
            for (o_row, dy_row) in o.chunks_exact(dh).zip(dy.chunks_exact(g.inner())) {
                for (&ov, &d) in o_row.iter().zip(&dy_row[h * dh..][..dh]) {
                    dmask[h] += d * ov;
                }
            }
        }
    }
    pool::recycle(o);
}

/// The query, key and value gradients of every head of every batch,
/// one batch after another on the calling thread.
fn backward_batches(
    g: &Geom,
    [q, k, v]: [&[f32]; 3],
    mask: Option<&[f32]>,
    probs: &[f32],
    dy: &[f32],
    [mut dq, mut dk, mut dv]: [Option<&mut [f32]>; 3],
) {
    let (t_len, dh, tp, c, inner) = (g.tokens, g.head_dim, g.padded(), g.scale(), g.inner());
    let scores_needed = dq.is_some() || dk.is_some();
    // Scratch: `dO` as `[T, head_dim]`, `Vᵀ`, `dP` (padded rows), `dS`.
    let mut d_o = pool::take_filled(t_len * dh, 0.0);
    let mut vt = pool::take_filled(dh * tp, 0.0);
    let mut dp = pool::take_filled(t_len * tp, 0.0);
    let mut ds = pool::take_filled(t_len * t_len, 0.0);
    for b in 0..g.batch {
        let span = b * g.batch_len()..(b + 1) * g.batch_len();
        let base = span.start;
        let (q, k, v, dy) = (
            &q[span.clone()],
            &k[span.clone()],
            &v[span.clone()],
            &dy[span],
        );
        let probs = &probs[b * g.probs_len()..(b + 1) * g.probs_len()];
        for (h, p) in probs.chunks_exact(t_len * t_len).enumerate() {
            let head = h * dh;
            // dO = dY · mask[h], gathered as `[T, head_dim]`.
            for (row, dy_row) in d_o.chunks_exact_mut(dh).zip(dy.chunks_exact(inner)) {
                row.copy_from_slice(&dy_row[head..head + dh]);
                if let Some(m) = mask {
                    for d in row.iter_mut() {
                        *d *= m[h];
                    }
                }
            }
            // dV[j] = Σ_i P[i, j] · dO[i].
            if let Some(dv) = dv.as_deref_mut() {
                let pt = MatRef::strided(p, 1, t_len);
                let dv = &mut dv[base + head..];
                product(t_len, t_len, dh, pt, &d_o, dh, dv, inner);
            }
            if !scores_needed {
                continue;
            }
            // dS = softmax'(P, dO · Vᵀ) · scale.
            transpose_head(v, g, h, &mut vt);
            let d_o_view = MatRef::strided(&d_o, dh, 1);
            product(t_len, dh, tp, d_o_view, &vt, tp, &mut dp, tp);
            for ((p_row, dp_row), ds_row) in p
                .chunks_exact(t_len)
                .zip(dp.chunks_exact(tp))
                .zip(ds.chunks_exact_mut(t_len))
            {
                softmax_bwd_row(p_row, &dp_row[..t_len], ds_row);
                for s in ds_row.iter_mut() {
                    *s *= c;
                }
            }
            // dQ[i] = Σ_j dS[i, j] · K[j];  dK[j] = Σ_i dS[i, j] · Q[i].
            if let Some(dq) = dq.as_deref_mut() {
                let ds_view = MatRef::strided(&ds, t_len, 1);
                let dq = &mut dq[base + head..];
                product(t_len, t_len, dh, ds_view, &k[head..], inner, dq, inner);
            }
            if let Some(dk) = dk.as_deref_mut() {
                let dst_view = MatRef::strided(&ds, 1, t_len);
                let dk = &mut dk[base + head..];
                product(t_len, t_len, dh, dst_view, &q[head..], inner, dk, inner);
            }
        }
    }
    for buf in [d_o, vt, dp, ds] {
        pool::recycle(buf);
    }
}
