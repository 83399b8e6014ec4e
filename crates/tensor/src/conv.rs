//! Raw 2-D convolution and pooling kernels (im2col / col2im) used by the
//! differentiable conv ops in [`crate::Graph`].

use crate::array::Array;
use crate::error::{Result, TensorError};

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
        if in_h + 2 * pad < kh || in_w + 2 * pad < kw {
            return Err(TensorError::Invalid(format!(
                "kernel {kh}x{kw} larger than padded input {}x{}",
                in_h + 2 * pad,
                in_w + 2 * pad
            )));
        }
        let out_h = (in_h + 2 * pad - kh) / stride + 1;
        let out_w = (in_w + 2 * pad - kw) / stride + 1;
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

    /// Number of columns in the im2col matrix per batch element.
    pub(crate) fn col_width(&self) -> usize {
        self.in_ch * self.kh * self.kw
    }

    /// Number of rows in the im2col matrix per batch element.
    pub(crate) fn col_height(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Lowers one batch of input into the im2col matrix
/// `[out_h*out_w, in_ch*kh*kw]`. Out-of-bounds (padding) taps are zero.
pub(crate) fn im2col(input: &[f32], g: &ConvGeom, col: &mut [f32]) {
    let cw = g.col_width();
    for oy in 0..g.out_h {
        for ox in 0..g.out_w {
            let row = (oy * g.out_w + ox) * cw;
            let mut c = 0;
            for ch in 0..g.in_ch {
                let plane = ch * g.in_h * g.in_w;
                for ky in 0..g.kh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    for kx in 0..g.kw {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        col[row + c] =
                            if iy >= 0 && iy < g.in_h as isize && ix >= 0 && ix < g.in_w as isize {
                                input[plane + iy as usize * g.in_w + ix as usize]
                            } else {
                                0.0
                            };
                        c += 1;
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a col-matrix gradient back into the
/// input-gradient buffer for one batch element.
pub(crate) fn col2im(col_grad: &[f32], g: &ConvGeom, input_grad: &mut [f32]) {
    let cw = g.col_width();
    for oy in 0..g.out_h {
        for ox in 0..g.out_w {
            let row = (oy * g.out_w + ox) * cw;
            let mut c = 0;
            for ch in 0..g.in_ch {
                let plane = ch * g.in_h * g.in_w;
                for ky in 0..g.kh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    for kx in 0..g.kw {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if iy >= 0 && iy < g.in_h as isize && ix >= 0 && ix < g.in_w as isize {
                            input_grad[plane + iy as usize * g.in_w + ix as usize] +=
                                col_grad[row + c];
                        }
                        c += 1;
                    }
                }
            }
        }
    }
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
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel: col matrix equals the input, channel-major per pixel.
        let g = ConvGeom::new(&[1, 2, 2, 2], &[1, 2, 1, 1], 1, 0).unwrap();
        let input: Vec<f32> = (0..8).map(|x| x as f32).collect();
        let mut col = vec![0.0; g.col_height() * g.col_width()];
        im2col(&input, &g, &mut col);
        // Pixel (0,0): channels 0 and 1 -> values 0 and 4.
        assert_eq!(&col[0..2], &[0.0, 4.0]);
        // Pixel (1,1): values 3 and 7.
        assert_eq!(&col[6..8], &[3.0, 7.0]);
    }

    #[test]
    fn im2col_padding_zeroes() {
        let g = ConvGeom::new(&[1, 1, 2, 2], &[1, 1, 3, 3], 1, 1).unwrap();
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let mut col = vec![0.0; g.col_height() * g.col_width()];
        im2col(&input, &g, &mut col);
        // Output pixel (0,0): window centered at (0,0); the top row and left
        // column of the 3x3 window are padding.
        let w0 = &col[0..9];
        assert_eq!(w0, &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let g = ConvGeom::new(&[1, 2, 4, 4], &[3, 2, 3, 3], 1, 1).unwrap();
        let x: Vec<f32> = (0..32).map(|i| (i as f32).sin()).collect();
        let mut col = vec![0.0; g.col_height() * g.col_width()];
        im2col(&x, &g, &mut col);
        let y: Vec<f32> = (0..col.len()).map(|i| (i as f32 * 0.7).cos()).collect();
        let lhs: f64 = col.iter().zip(&y).map(|(&a, &b)| (a * b) as f64).sum();
        let mut xg = vec![0.0; x.len()];
        col2im(&y, &g, &mut xg);
        let rhs: f64 = x.iter().zip(&xg).map(|(&a, &b)| (a * b) as f64).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
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
