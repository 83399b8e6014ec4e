//! Raw 2-D convolution and pooling kernels behind the conv and pool ops
//! of [`crate::Graph`].
//!
//! # Convolution: one lowering per node, one GEMM per product
//!
//! A conv node lowers its whole batch at once. The *tap table*
//! ([`ConvGeom::taps`]) lists, for each output pixel `yx` and lowered
//! column `c = (ch, ky, kx)`, the offset of an example's input that tap
//! reads; a `(yx, c)` it does not list is padding and reads 0.0.
//! [`im2col`] gathers the batch through it into one zeroed matrix,
//! `[CK, B·HW]` or `[B·HW, CK]`, and [`col2im`] scatter-adds a
//! `[B·HW, CK]` gradient back through it. Each product is then one call
//! of the plain dispatch [`gemm::gemm`] over the whole batch, which runs
//! the blocked engine from `MR` output rows on. Each is laid out so its
//! wide axis is `B·HW` or `CK` and never the few output channels `O`:
//!
//! * forward, [`conv2d_forward`]: `Y[O, B·HW] = W[O, CK] · Xᵀ[CK, B·HW]`,
//!   then `+ bias[o]` while `Y` is scattered into `[B, O, H', W']`;
//! * weight gradient: `dW[O, CK] = dYᵀ[O, B·HW] · X[B·HW, CK]`, the
//!   batch lowered again, row-major;
//! * input gradient: `dX[B·HW, CK] = dY[B·HW, O] · W[O, CK]`, then
//!   [`col2im`].
//!
//! [`conv2d_backward`] computes only the gradients asked for: no
//! lowering and no `dW` product when the weight needs none, no `dX`
//! product and no [`col2im`] when the input needs none.
//!
//! # Bitwise contract
//!
//! Every output element keeps the chain of float operations of the
//! per-example loop it replaced (one `im2col` and one naive product per
//! example), so no bit depends on the batch size, the layout or the
//! engine's blocking:
//!
//! * a forward output and a lowered `dX` element are one [`madd`] per
//!   depth step from 0.0 — taps ascending for the forward, output
//!   channels ascending for `dX` — the chain of
//!   [`gemm_naive`](crate::gemm::gemm_naive), which the blocked engine
//!   reproduces bit for bit;
//! * a `dW` element is one [`madd`] per `(b, yx)` step, ascending, from
//!   0.0: the batch is the outer part of one `B·HW`-deep product;
//! * padding taps stay in the products as zeros: skipping one would
//!   skip a `madd(0, w, acc)`, which is NaN when `w` is infinite or NaN;
//! * the bias is added once, after the product; its gradient is each
//!   example's `H'·W'` row sum, added in batch order;
//! * [`col2im`] adds into a zeroed input gradient in the old scatter's
//!   order: per input element, pixels then columns ascending.
//!
//! [`madd`]: crate::gemm::madd

use acme_runtime::global_pool;

use crate::array::Array;
use crate::error::{Result, TensorError};
use crate::gemm::{self, MatRef};
use crate::pool;

/// Static geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvGeom {
    pub batch: usize,
    pub in_ch: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub out_ch: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
    pub out_h: usize,
    pub out_w: usize,
}

impl ConvGeom {
    /// Validates input/weight shapes and computes output geometry.
    pub(crate) fn new(
        input: &[usize],
        weight: &[usize],
        stride: usize,
        pad: usize,
    ) -> Result<ConvGeom> {
        if input.len() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: input.len(),
                op: "conv2d input",
            });
        }
        if weight.len() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: weight.len(),
                op: "conv2d weight",
            });
        }
        let (batch, in_ch, in_h, in_w) = (input[0], input[1], input[2], input[3]);
        let (out_ch, w_in_ch, kh, kw) = (weight[0], weight[1], weight[2], weight[3]);
        if in_ch != w_in_ch {
            return Err(TensorError::ShapeMismatch {
                lhs: input.to_vec(),
                rhs: weight.to_vec(),
                op: "conv2d channels",
            });
        }
        if stride == 0 {
            return Err(TensorError::Invalid("conv2d stride must be nonzero".into()));
        }
        if in_ch == 0 || out_ch == 0 || kh == 0 || kw == 0 {
            return Err(TensorError::Invalid(format!(
                "conv2d needs channels and a kernel, got weight {weight:?}"
            )));
        }
        if in_h + 2 * pad < kh || in_w + 2 * pad < kw {
            return Err(TensorError::Invalid(format!(
                "kernel {kh}x{kw} larger than padded input {}x{}",
                in_h + 2 * pad,
                in_w + 2 * pad
            )));
        }
        let out_h = (in_h + 2 * pad - kh) / stride + 1;
        let out_w = (in_w + 2 * pad - kw) / stride + 1;
        let widest = (in_ch * in_h * in_w)
            .max(in_ch * kh * kw)
            .max(out_h * out_w);
        if widest > u32::MAX as usize {
            return Err(TensorError::Invalid(format!(
                "conv2d example of {in_ch}x{in_h}x{in_w} overflows the tap table"
            )));
        }
        Ok(ConvGeom {
            batch,
            in_ch,
            in_h,
            in_w,
            out_ch,
            kh,
            kw,
            stride,
            pad,
            out_h,
            out_w,
        })
    }

    /// Columns of the lowered matrix, `CK = in_ch·kh·kw`.
    pub(crate) fn col_width(&self) -> usize {
        self.in_ch * self.kh * self.kw
    }

    /// Output pixels of one example, `HW = out_h·out_w`.
    pub(crate) fn col_height(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Rows of the lowered batch, `B·HW`.
    fn rows(&self) -> usize {
        self.batch * self.col_height()
    }

    /// Floats of one example's input.
    fn in_plane(&self) -> usize {
        self.in_ch * self.in_h * self.in_w
    }

    /// The tap table: every tap of one example that reads the input, as
    /// output pixel `yx`, lowered column `c = (ch, ky, kx)` and the input
    /// offset it reads, in `(yx, c)` order. A `(yx, c)` missing from the
    /// table is a padding tap.
    fn taps(&self) -> Vec<Tap> {
        let mut taps = Vec::with_capacity(self.col_height() * self.col_width());
        let (mut yx, mut c) = (0, 0);
        for oy in 0..self.out_h {
            for ox in 0..self.out_w {
                for ch in 0..self.in_ch {
                    for ky in 0..self.kh {
                        // Wraps to a huge value above the padding.
                        let iy = (oy * self.stride + ky).wrapping_sub(self.pad);
                        for kx in 0..self.kw {
                            let ix = (ox * self.stride + kx).wrapping_sub(self.pad);
                            if iy < self.in_h && ix < self.in_w {
                                let src = ((ch * self.in_h + iy) * self.in_w + ix) as u32;
                                taps.push(Tap { yx, c, src });
                            }
                            c += 1;
                        }
                    }
                }
                (yx, c) = (yx + 1, 0);
            }
        }
        taps
    }
}

/// One entry of [`ConvGeom::taps`]: lowered element `(yx, c)` of an
/// example reads input offset `src`.
#[derive(Debug, Clone, Copy)]
struct Tap {
    yx: u32,
    c: u32,
    src: u32,
}

/// Lowers the whole batch into a zeroed `col`: element `(b·HW + yx, c)`
/// of the lowered matrix — what output pixel `yx` of example `b` reads
/// for column `c` — goes to `col[row·rs + c·cs]`, so one gather writes
/// the `[CK, B·HW]` transpose the forward product reads (`rs = 1,
/// cs = B·HW`) or the row-major `[B·HW, CK]` matrix the `dW` product
/// reads (`rs = CK, cs = 1`). Padding taps keep their 0.0.
fn im2col(input: &[f32], g: &ConvGeom, taps: &[Tap], col: &mut [f32], rs: usize, cs: usize) {
    let (plane, step) = (g.in_plane(), g.col_height() * rs);
    for t in taps {
        let dst = col.iter_mut().skip(t.yx as usize * rs + t.c as usize * cs);
        let src = input.iter().skip(t.src as usize);
        for (d, &x) in dst.step_by(step).zip(src.step_by(plane)) {
            *d = x;
        }
    }
}

/// Adjoint of [`im2col`]: adds each element `(b·HW + yx, c)` of the
/// row-major `[B·HW, CK]` gradient `gcol` into the input-gradient offset
/// its tap read. Padding taps add nothing. Examples own disjoint
/// offsets, so each input-gradient element sees its additions in
/// `(yx, c)` order however the loops nest.
fn col2im(gcol: &[f32], g: &ConvGeom, taps: &[Tap], input_grad: &mut [f32]) {
    let cw = g.col_width();
    let (plane, step) = (g.in_plane(), g.col_height() * cw);
    for t in taps {
        let dst = input_grad.iter_mut().skip(t.src as usize);
        let src = gcol.iter().skip(t.yx as usize * cw + t.c as usize);
        for (d, &v) in dst.step_by(plane).zip(src.step_by(step)) {
            *d += v;
        }
    }
}

/// The conv node's forward: `[B, O, H', W']` from input `[B, C, H, W]`,
/// weight `[O, C, kh, kw]` and bias `[O]`, as one lowering and one
/// product over the whole batch (see the module doc).
pub(crate) fn conv2d_forward(input: &[f32], weight: &[f32], bias: &[f32], g: &ConvGeom) -> Array {
    let (hw, cw, n) = (g.col_height(), g.col_width(), g.rows());
    let mut cols = pool::take_filled(cw * n, 0.0);
    #[expect(clippy::disallowed_methods, reason = "the forward's one lowering")]
    im2col(input, g, &g.taps(), &mut cols, 1, n);
    let mut y = pool::take_filled(g.out_ch * n, 0.0);
    let (a, b) = (MatRef::row_major(weight, cw), MatRef::row_major(&cols, n));
    gemm::gemm(a, b, &mut y, g.out_ch, cw, n, &global_pool());
    let mut out = pool::take(g.out_ch * n);
    for b in 0..g.batch {
        for (o, &bo) in bias.iter().enumerate() {
            out.extend(y[o * n + b * hw..][..hw].iter().map(|&v| v + bo));
        }
    }
    pool::recycle(y);
    pool::recycle(cols);
    Array::from_vec(out, &[g.batch, g.out_ch, g.out_h, g.out_w]).expect("conv2d output volume")
}

/// The conv node's backward: the gradients of the input, the weight and
/// the bias, each computed only when `need` asks for it (in that order),
/// from the output gradient `grad` `[B, O, H', W']`. The batch is lowered
/// again for `dW` rather than kept from the forward: a kept lowering
/// lives until the tape is reset, `CK/C` times the input's size.
pub(crate) fn conv2d_backward(
    input: &[f32],
    weight: &[f32],
    grad: &[f32],
    g: &ConvGeom,
    need: [bool; 3],
) -> [Option<Array>; 3] {
    let [need_in, need_w, need_b] = need;
    let (hw, cw, n) = (g.col_height(), g.col_width(), g.rows());
    let taps = (need_in || need_w).then(|| g.taps());
    // dYᵀ as `[O, B·HW]`: each example's `[O, HW]` block side by side.
    let grad_t = (need_in || need_w).then(|| {
        let mut t = pool::take_filled(g.out_ch * n, 0.0);
        for (b, block) in grad.chunks_exact(g.out_ch * hw).enumerate() {
            for (o, src) in block.chunks_exact(hw).enumerate() {
                t[o * n + b * hw..][..hw].copy_from_slice(src);
            }
        }
        t
    });
    let gw = need_w.then(|| {
        let grad_t = grad_t.as_deref().expect("computed for dW");
        let mut cols = pool::take_filled(cw * n, 0.0);
        #[expect(clippy::disallowed_methods, reason = "dW's one lowering")]
        im2col(
            input,
            g,
            taps.as_deref().expect("built for dW"),
            &mut cols,
            cw,
            1,
        );
        let mut gw = Array::zeros(&[g.out_ch, g.in_ch, g.kh, g.kw]);
        let (a, b) = (MatRef::row_major(grad_t, n), MatRef::row_major(&cols, cw));
        gemm::gemm(a, b, gw.data_mut(), g.out_ch, n, cw, &global_pool());
        pool::recycle(cols);
        gw
    });
    let gin = need_in.then(|| {
        let grad_t = grad_t.as_deref().expect("computed for dX");
        let mut gcol = pool::take_filled(n * cw, 0.0);
        let (a, b) = (MatRef::transposed(grad_t, n), MatRef::row_major(weight, cw));
        gemm::gemm(a, b, &mut gcol, n, g.out_ch, cw, &global_pool());
        let mut gin = Array::zeros(&[g.batch, g.in_ch, g.in_h, g.in_w]);
        #[expect(clippy::disallowed_methods, reason = "dX's one scatter")]
        col2im(
            &gcol,
            g,
            taps.as_deref().expect("built for dX"),
            gin.data_mut(),
        );
        pool::recycle(gcol);
        gin
    });
    let gb = need_b.then(|| {
        let mut gb = Array::zeros(&[g.out_ch]);
        for block in grad.chunks_exact(g.out_ch * hw) {
            for (o, row) in block.chunks_exact(hw).enumerate() {
                let s: f32 = row.iter().sum();
                gb.data_mut()[o] += s;
            }
        }
        gb
    });
    if let Some(t) = grad_t {
        pool::recycle(t);
    }
    [gin, gw, gb]
}

/// Geometry of a non-overlapping pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PoolGeom {
    pub batch: usize,
    pub ch: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub k: usize,
    pub out_h: usize,
    pub out_w: usize,
}

impl PoolGeom {
    /// Validates a `[B, C, H, W]` input for a `k x k`, stride-`k` pool.
    pub(crate) fn new(input: &[usize], k: usize) -> Result<PoolGeom> {
        if input.len() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: input.len(),
                op: "pool2d",
            });
        }
        if k == 0 || input[2] < k || input[3] < k {
            return Err(TensorError::Invalid(format!(
                "pool window {k} invalid for input {}x{}",
                input[2], input[3]
            )));
        }
        Ok(PoolGeom {
            batch: input[0],
            ch: input[1],
            in_h: input[2],
            in_w: input[3],
            k,
            out_h: input[2] / k,
            out_w: input[3] / k,
        })
    }

    /// Output shape `[B, C, H/k, W/k]`.
    pub(crate) fn out_shape(&self) -> Vec<usize> {
        vec![self.batch, self.ch, self.out_h, self.out_w]
    }
}

/// Max-pool forward; records the flat input index of each window maximum
/// for the backward scatter.
pub(crate) fn maxpool_forward(input: &Array, g: &PoolGeom) -> (Array, Vec<usize>) {
    let mut out = Array::zeros(&g.out_shape());
    let mut arg = vec![0usize; out.len()];
    let (ih, iw) = (g.in_h, g.in_w);
    for b in 0..g.batch {
        for c in 0..g.ch {
            let base = (b * g.ch + c) * ih * iw;
            for oy in 0..g.out_h {
                for ox in 0..g.out_w {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = base;
                    for ky in 0..g.k {
                        for kx in 0..g.k {
                            let idx = base + (oy * g.k + ky) * iw + (ox * g.k + kx);
                            let v = input.data()[idx];
                            if v > best {
                                best = v;
                                best_i = idx;
                            }
                        }
                    }
                    let oi = ((b * g.ch + c) * g.out_h + oy) * g.out_w + ox;
                    out.data_mut()[oi] = best;
                    arg[oi] = best_i;
                }
            }
        }
    }
    (out, arg)
}

/// Average-pool forward.
pub(crate) fn avgpool_forward(input: &Array, g: &PoolGeom) -> Array {
    let mut out = Array::zeros(&g.out_shape());
    let inv = 1.0 / (g.k * g.k) as f32;
    let (ih, iw) = (g.in_h, g.in_w);
    for b in 0..g.batch {
        for c in 0..g.ch {
            let base = (b * g.ch + c) * ih * iw;
            for oy in 0..g.out_h {
                for ox in 0..g.out_w {
                    let mut acc = 0.0;
                    for ky in 0..g.k {
                        for kx in 0..g.k {
                            acc += input.data()[base + (oy * g.k + ky) * iw + (ox * g.k + kx)];
                        }
                    }
                    let oi = ((b * g.ch + c) * g.out_h + oy) * g.out_w + ox;
                    out.data_mut()[oi] = acc * inv;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geom_same_padding() {
        let g = ConvGeom::new(&[1, 3, 8, 8], &[4, 3, 3, 3], 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (8, 8));
        assert_eq!(g.col_width(), 27);
        assert_eq!(g.col_height(), 64);
    }

    #[test]
    fn geom_stride_two() {
        let g = ConvGeom::new(&[1, 1, 8, 8], &[1, 1, 2, 2], 2, 0).unwrap();
        assert_eq!((g.out_h, g.out_w), (4, 4));
    }

    #[test]
    fn geom_rejects_bad_shapes() {
        assert!(ConvGeom::new(&[1, 3, 8], &[4, 3, 3, 3], 1, 1).is_err());
        assert!(ConvGeom::new(&[1, 3, 8, 8], &[4, 2, 3, 3], 1, 1).is_err());
        assert!(ConvGeom::new(&[1, 1, 2, 2], &[1, 1, 5, 5], 1, 0).is_err());
        assert!(ConvGeom::new(&[1, 1, 4, 4], &[1, 1, 2, 2], 0, 0).is_err());
        assert!(ConvGeom::new(&[1, 0, 4, 4], &[1, 0, 2, 2], 1, 0).is_err());
        assert!(ConvGeom::new(&[1, 1, 4, 4], &[0, 1, 2, 2], 1, 0).is_err());
    }

    /// The batch lowered as `[CK, B·HW]`, zeros where the taps skip.
    fn lowered(input: &[f32], g: &ConvGeom) -> Vec<f32> {
        let mut col = vec![0.0; g.col_width() * g.rows()];
        im2col(input, g, &g.taps(), &mut col, 1, g.rows());
        col
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel: lowered row c is input channel c, pixels across.
        let g = ConvGeom::new(&[1, 2, 2, 2], &[1, 2, 1, 1], 1, 0).unwrap();
        let input: Vec<f32> = (0..8).map(|x| x as f32).collect();
        assert_eq!(lowered(&input, &g), input);
    }

    #[test]
    fn im2col_lays_examples_side_by_side() {
        // Two examples, 1x1 kernel: row c holds example 0's channel c,
        // then example 1's.
        let g = ConvGeom::new(&[2, 2, 1, 2], &[1, 2, 1, 1], 1, 0).unwrap();
        let input: Vec<f32> = (0..8).map(|x| x as f32).collect();
        assert_eq!(
            lowered(&input, &g),
            [0.0, 1.0, 4.0, 5.0, 2.0, 3.0, 6.0, 7.0]
        );
    }

    #[test]
    fn im2col_padding_zeroes() {
        let g = ConvGeom::new(&[1, 1, 2, 2], &[1, 1, 3, 3], 1, 1).unwrap();
        let col = lowered(&[1.0, 2.0, 3.0, 4.0], &g);
        // Output pixel (0,0) is column 0: the window centred on (0,0),
        // whose top row and left column are padding.
        let w0: Vec<f32> = (0..9).map(|c| col[c * 4]).collect();
        assert_eq!(w0, [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]);
        // Four of each pixel's nine taps read the input.
        assert_eq!(g.taps().len(), 16);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x and a
        // `[B·HW, CK]` y, and the two layouts are transposes.
        let g = ConvGeom::new(&[2, 2, 4, 4], &[3, 2, 3, 3], 2, 1).unwrap();
        let (n, cw) = (g.rows(), g.col_width());
        let x: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
        let mut rows = vec![0.0; n * cw];
        im2col(&x, &g, &g.taps(), &mut rows, cw, 1);
        let cols = lowered(&x, &g);
        assert!((0..n * cw).all(|i| rows[i] == cols[(i % cw) * n + i / cw]));
        let y: Vec<f32> = (0..n * cw).map(|i| (i as f32 * 0.7).cos()).collect();
        let lhs: f64 = rows.iter().zip(&y).map(|(&a, &b)| (a * b) as f64).sum();
        let mut xg = vec![0.0; x.len()];
        col2im(&y, &g, &g.taps(), &mut xg);
        let rhs: f64 = x.iter().zip(&xg).map(|(&a, &b)| (a * b) as f64).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn an_empty_batch_lowers_to_nothing() {
        let g = ConvGeom::new(&[0, 2, 3, 3], &[4, 2, 3, 3], 1, 1).unwrap();
        let out = conv2d_forward(&[], &[0.5; 72], &[1.0; 4], &g);
        assert_eq!(out.shape(), &[0, 4, 3, 3]);
        let [gin, gw, gb] = conv2d_backward(&[], &[0.5; 72], &[], &g, [true; 3]);
        assert_eq!(gin.unwrap().shape(), &[0, 2, 3, 3]);
        assert_eq!(gw.unwrap().data(), &[0.0; 72]);
        assert_eq!(gb.unwrap().data(), &[0.0; 4]);
    }

    #[test]
    fn maxpool_picks_maximum_and_argmax() {
        let input = Array::from_vec(
            vec![
                1.0, 5.0, 3.0, 2.0, 8.0, 0.0, -1.0, 4.0, 9.0, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 7.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let g = PoolGeom::new(&[1, 1, 4, 4], 2).unwrap();
        let (out, arg) = maxpool_forward(&input, &g);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[8.0, 4.0, 9.0, 7.0]);
        assert_eq!(arg, vec![4, 7, 8, 15]);
    }

    #[test]
    fn avgpool_averages() {
        let input = Array::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let g = PoolGeom::new(&[1, 1, 4, 4], 2).unwrap();
        let out = avgpool_forward(&input, &g);
        assert_eq!(out.data(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn pool_geom_validates() {
        assert!(PoolGeom::new(&[1, 1, 4], 2).is_err());
        assert!(PoolGeom::new(&[1, 1, 1, 1], 2).is_err());
        assert!(PoolGeom::new(&[1, 1, 4, 4], 0).is_err());
    }
}
