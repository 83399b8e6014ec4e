//! Matrix multiplication (plain and batched) and axis permutation.
//!
//! The actual arithmetic lives in the blocked, multi-threaded engine in
//! [`crate::gemm`]; the `matmul_*_kernel` entry points here are thin
//! shape adapters kept for the rest of the crate (forward ops, backward
//! passes, conv's im2col path). All of them run on the process-wide
//! worker pool ([`acme_runtime::global_pool`]) and stay bit-identical to
//! the naive reference loop at any thread count.

use crate::array::Array;
use crate::error::{Result, TensorError};
use crate::gemm::{self, Kernel, MatRef, Packed};
use crate::shape::strides_for;

/// Raw 2-D matmul kernel: `out[m,n] += a[m,k] * b[k,n]` over contiguous
/// row-major buffers. Dense and branch-free — zero entries are multiplied
/// like any other value.
pub(crate) fn matmul_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm::gemm(
        MatRef::row_major(a, k),
        MatRef::row_major(b, n),
        out,
        m,
        k,
        n,
        &acme_runtime::global_pool(),
    );
}

/// Raw kernel for `out[m,n] += a^T[m,k] * b[k,n]` where `a` is stored as
/// `[k, m]`. Used by backward passes to avoid materializing transposes.
pub(crate) fn matmul_at_b_kernel(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm::gemm(
        MatRef::transposed(a, m),
        MatRef::row_major(b, n),
        out,
        m,
        k,
        n,
        &acme_runtime::global_pool(),
    );
}

/// Raw kernel for `out[m,n] += a[m,k] * b^T[k,n]` where `b` is stored as
/// `[n, k]`.
pub(crate) fn matmul_a_bt_kernel(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm::gemm(
        MatRef::row_major(a, k),
        MatRef::transposed(b, k),
        out,
        m,
        k,
        n,
        &acme_runtime::global_pool(),
    );
}

impl Array {
    /// The `(m, k, n)` of the 2-D product `self · rhs`, `rhs_shape` being
    /// the right operand's logical shape (packed operands have no
    /// `Array` to ask).
    fn matmul_dims(&self, rhs_shape: &[usize], op: &'static str) -> Result<(usize, usize, usize)> {
        for rank in [self.rank(), rhs_shape.len()] {
            if rank != 2 {
                return Err(TensorError::RankMismatch {
                    expected: 2,
                    actual: rank,
                    op,
                });
            }
        }
        if self.shape()[1] != rhs_shape[0] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs_shape.to_vec(),
                op,
            });
        }
        Ok((self.shape()[0], self.shape()[1], rhs_shape[1]))
    }

    /// Plain 2-D matrix multiplication `[m,k] x [k,n] -> [m,n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D operands and
    /// [`TensorError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul(&self, rhs: &Array) -> Result<Array> {
        let (m, k, n) = self.matmul_dims(rhs.shape(), "matmul")?;
        let mut out = Array::zeros(&[m, n]);
        matmul_kernel(self.data(), rhs.data(), out.data_mut(), m, k, n);
        Ok(out)
    }

    /// `self · b` where the right-hand side has already been packed into
    /// kernel `K`'s microkernel layout (see [`crate::packcache`]). At
    /// [`gemm::F32`] it is bit-identical to [`Array::matmul`] against the
    /// unpacked matrix; only the `O(k·n)` packing copy is skipped. At
    /// [`crate::qgemm::I8`] it quantizes `self` per row, runs the
    /// i8·i8→i32 engine and dequantizes into an f32 output: bit-identical
    /// to the scalar quantized oracle at any thread count, *not* to
    /// [`Array::matmul`] — the quantization error is the precision trade
    /// serving opts into.
    ///
    /// # Errors
    ///
    /// Returns the same rank/shape errors as [`Array::matmul`], with the
    /// packed operand's logical shape standing in for `rhs`.
    pub fn matmul_prepacked<K: Kernel>(&self, packed: &Packed<K>) -> Result<Array> {
        let (m, _, n) = self.matmul_dims(&[packed.k(), packed.n()], "matmul")?;
        let mut out = Array::zeros(&[m, n]);
        let pool = acme_runtime::global_pool();
        K::gemm_f32(self.data(), packed, out.data_mut(), m, &pool);
        Ok(out)
    }

    /// Batched matrix multiplication.
    ///
    /// Both operands must have rank ≥ 2 and identical leading (batch)
    /// dimensions; the trailing two axes are multiplied per batch:
    /// `[..., m, k] x [..., k, n] -> [..., m, n]`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when batch dims or inner dims disagree.
    pub fn batch_matmul(&self, rhs: &Array) -> Result<Array> {
        if self.rank() < 2 || rhs.rank() < 2 || self.rank() != rhs.rank() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
                op: "batch_matmul",
            });
        }
        let r = self.rank();
        if self.shape()[..r - 2] != rhs.shape()[..r - 2]
            || self.shape()[r - 1] != rhs.shape()[r - 2]
        {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
                op: "batch_matmul",
            });
        }
        let batch: usize = self.shape()[..r - 2].iter().product();
        let (m, k) = (self.shape()[r - 2], self.shape()[r - 1]);
        let n = rhs.shape()[r - 1];
        let mut out_shape = self.shape()[..r - 2].to_vec();
        out_shape.push(m);
        out_shape.push(n);
        let mut out = Array::zeros(&out_shape);
        gemm::gemm_batched(
            self.data(),
            rhs.data(),
            out.data_mut(),
            batch,
            m,
            k,
            n,
            &acme_runtime::global_pool(),
        );
        Ok(out)
    }

    /// Returns a copy with axes reordered so that output axis `i` is input
    /// axis `perm[i]`.
    ///
    /// # Errors
    ///
    /// Returns an error when `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Result<Array> {
        if perm.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                expected: self.rank(),
                actual: perm.len(),
                op: "permute",
            });
        }
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            if p >= perm.len() || seen[p] {
                return Err(TensorError::Invalid(format!(
                    "invalid permutation {perm:?}"
                )));
            }
            seen[p] = true;
        }
        let in_shape = self.shape();
        let out_shape: Vec<usize> = perm.iter().map(|&p| in_shape[p]).collect();
        let in_strides = strides_for(in_shape);
        let n = self.len();
        let rank = out_shape.len();
        let mut data = crate::pool::take(n);
        if n > 0 && rank > 0 {
            // Walk output coordinates as an odometer, updating the input
            // linear index incrementally — no per-element div/mod. When
            // the innermost axis is preserved, whole contiguous runs copy
            // at once.
            let perm_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
            let run = if perm[rank - 1] == rank - 1 {
                in_shape[rank - 1]
            } else {
                1
            };
            let outer_rank = if run > 1 { rank - 1 } else { rank };
            let mut coords = vec![0usize; outer_rank];
            let mut ii = 0usize;
            for _ in 0..n / run {
                if run > 1 {
                    data.extend_from_slice(&self.data()[ii..ii + run]);
                } else {
                    data.push(self.data()[ii]);
                }
                for ax in (0..outer_rank).rev() {
                    coords[ax] += 1;
                    ii += perm_strides[ax];
                    if coords[ax] < out_shape[ax] {
                        break;
                    }
                    ii -= coords[ax] * perm_strides[ax];
                    coords[ax] = 0;
                }
            }
        } else if n > 0 {
            data.push(self.data()[0]);
        }
        Array::from_vec(data, &out_shape)
    }

    /// Transposes a 2-D array.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when the array is not 2-D.
    pub fn transpose2d(&self) -> Result<Array> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose2d",
            });
        }
        self.permute(&[1, 0])
    }

    /// Swaps the last two axes (per-batch transpose).
    ///
    /// # Errors
    ///
    /// Returns an error when rank < 2.
    pub fn transpose_last(&self) -> Result<Array> {
        if self.rank() < 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose_last",
            });
        }
        let mut perm: Vec<usize> = (0..self.rank()).collect();
        perm.swap(self.rank() - 1, self.rank() - 2);
        self.permute(&perm)
    }
}

/// Returns the inverse of a permutation.
pub(crate) fn invert_perm(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(v: &[f32], s: &[usize]) -> Array {
        Array::from_vec(v.to_vec(), s).unwrap()
    }

    #[test]
    fn matmul_small() {
        let a = arr(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = arr(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rect() {
        let a = arr(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = arr(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[1.0 + 3.0, 2.0 + 3.0, 4.0 + 6.0, 5.0 + 6.0]);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Array::ones(&[2, 3]);
        assert!(a.matmul(&Array::ones(&[4, 2])).is_err());
        assert!(a.matmul(&Array::ones(&[3])).is_err());
        assert!(Array::ones(&[3]).matmul(&a).is_err());
    }

    #[test]
    fn batch_matmul_matches_loop() {
        let a = Array::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]).unwrap();
        let b = Array::from_vec((0..12).map(|x| (x as f32) * 0.5).collect(), &[2, 3, 2]).unwrap();
        let c = a.batch_matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        for batch in 0..2 {
            let a2 =
                Array::from_vec(a.data()[batch * 6..(batch + 1) * 6].to_vec(), &[2, 3]).unwrap();
            let b2 =
                Array::from_vec(b.data()[batch * 6..(batch + 1) * 6].to_vec(), &[3, 2]).unwrap();
            let c2 = a2.matmul(&b2).unwrap();
            assert_eq!(&c.data()[batch * 4..(batch + 1) * 4], c2.data());
        }
    }

    #[test]
    fn batch_matmul_rejects_mismatched_batches() {
        let a = Array::ones(&[2, 2, 3]);
        let b = Array::ones(&[3, 3, 2]);
        assert!(a.batch_matmul(&b).is_err());
    }

    #[test]
    fn permute_roundtrip() {
        let a = Array::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        let p = a.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), a.at(&[0, 2, 1]));
        let back = p.permute(&invert_perm(&[2, 0, 1])).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn permute_validates() {
        let a = Array::ones(&[2, 3]);
        assert!(a.permute(&[0, 0]).is_err());
        assert!(a.permute(&[0]).is_err());
        assert!(a.permute(&[0, 2]).is_err());
    }

    #[test]
    fn transpose2d_works() {
        let a = arr(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose2d().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_last_on_3d() {
        let a = Array::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]).unwrap();
        let t = a.transpose_last().unwrap();
        assert_eq!(t.shape(), &[2, 3, 2]);
        assert_eq!(t.at(&[1, 2, 0]), a.at(&[1, 0, 2]));
    }

    #[test]
    fn kernels_agree_with_reference() {
        // a: [2,3], b: [3,2]
        let a = arr(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = arr(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();

        // a^T stored as [3,2]: matmul_at_b_kernel(aT, b) == matmul(a, b)
        let at = a.transpose2d().unwrap();
        let mut out = vec![0.0; 4];
        matmul_at_b_kernel(at.data(), b.data(), &mut out, 2, 3, 2);
        assert_eq!(out, c.data());

        // b^T stored as [2,3]: matmul_a_bt_kernel(a, bT) == matmul(a, b)
        let bt = b.transpose2d().unwrap();
        let mut out = vec![0.0; 4];
        matmul_a_bt_kernel(a.data(), bt.data(), &mut out, 2, 3, 2);
        assert_eq!(out, c.data());
    }
}
