//! Matrix multiplication (plain and batched) and axis permutation.
//!
//! The products here are thin shape adapters: each turns an [`Array`]'s
//! shape into `MatRef` views and calls [`gemm::gemm`], the one f32
//! product entry, which picks the naive or the blocked kernel. They run
//! on the process-wide worker pool ([`acme_runtime::global_pool`]) and
//! stay bit-identical to the naive reference loop at any thread count.

use crate::array::Array;
use crate::error::{Result, TensorError};
use crate::gemm::{self, Kernel, MatRef, Packed};
use crate::shape::strides_for;

impl Array {
    /// The `(m, k, n)` of `self · rhs` with `self` read as `m` rows of its
    /// last dimension `k` (`m` is the product of its leading dims),
    /// `rhs_shape` being the right operand's logical shape (packed
    /// operands have no `Array` to ask).
    fn matmul_dims(&self, rhs_shape: &[usize], op: &'static str) -> Result<(usize, usize, usize)> {
        if rhs_shape.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: rhs_shape.len(),
                op,
            });
        }
        match self.shape().split_last() {
            Some((&k, lead)) if k == rhs_shape[0] => Ok((lead.iter().product(), k, rhs_shape[1])),
            _ => Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs_shape.to_vec(),
                op,
            }),
        }
    }

    /// `self`'s shape with its last dimension replaced by `n`: the shape
    /// of a product over `self`'s rows.
    fn rows_shape(&self, n: usize) -> Vec<usize> {
        let mut shape = self.shape().to_vec();
        if let Some(last) = shape.last_mut() {
            *last = n;
        }
        shape
    }

    /// Matrix multiplication over `self`'s rows: `[.., k] x [k, n] ->
    /// [.., n]`, the plain `[m, k] x [k, n] -> [m, n]` product for a 2-D
    /// `self`. The leading dims of `self` are read in place as the rows
    /// (nothing is flattened into a copy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `rhs` is 2-D and
    /// [`TensorError::ShapeMismatch`] when `self`'s last dimension is not
    /// `rhs`'s first.
    pub fn matmul(&self, rhs: &Array) -> Result<Array> {
        let (m, k, n) = self.matmul_dims(rhs.shape(), "matmul")?;
        let mut out = Array::zeros(&self.rows_shape(n));
        let (a, b) = (
            MatRef::row_major(self.data(), k),
            MatRef::row_major(rhs.data(), n),
        );
        gemm::gemm(a, b, out.data_mut(), m, k, n, &acme_runtime::global_pool());
        Ok(out)
    }

    /// `self · b` over `self`'s rows (`[.., k] x [k, n] -> [.., n]`, as
    /// [`Array::matmul`]) where the right-hand side has already been
    /// packed into kernel `K`'s microkernel layout (see
    /// [`crate::packcache`]). At [`gemm::F32`] it is bit-identical to the
    /// product against the unpacked matrix; only the `O(k·n)` packing
    /// copy is skipped. At [`crate::qgemm::I8`] it quantizes `self` per
    /// row, runs the i8·i8→i32 engine and dequantizes into an f32 output:
    /// bit-identical to the scalar quantized oracle at any thread count,
    /// *not* to [`Array::matmul`] — the quantization error is the
    /// precision trade serving opts into.
    ///
    /// # Errors
    ///
    /// Returns the same shape errors as [`Array::matmul`], with the
    /// packed operand's logical shape standing in for `rhs`.
    pub fn matmul_prepacked<K: Kernel>(&self, packed: &Packed<K>) -> Result<Array> {
        let (m, _, n) = self.matmul_dims(&[packed.k(), packed.n()], "matmul")?;
        let mut out = Array::zeros(&self.rows_shape(n));
        let pool = acme_runtime::global_pool();
        K::gemm_f32(self.data(), packed, out.data_mut(), m, &pool);
        Ok(out)
    }

    /// Batched matrix multiplication.
    ///
    /// Both operands must have rank ≥ 2 and identical leading (batch)
    /// dimensions; the trailing two axes are multiplied per batch:
    /// `[..., m, k] x [..., k, n] -> [..., m, n]`, one [`gemm::gemm`]
    /// per batch slice, in batch order.
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
        let pool = acme_runtime::global_pool();
        for bi in 0..batch {
            let a = MatRef::row_major(&self.data()[bi * m * k..(bi + 1) * m * k], k);
            let b = MatRef::row_major(&rhs.data()[bi * k * n..(bi + 1) * k * n], n);
            let c = &mut out.data_mut()[bi * m * n..(bi + 1) * m * n];
            gemm::gemm(a, b, c, m, k, n, &pool);
        }
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
        assert!(Array::scalar(1.0).matmul(&a).is_err());
    }

    #[test]
    fn matmul_reads_leading_dims_as_rows() {
        let a = Array::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]).unwrap();
        let b = arr(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        let flat = a.reshaped(&[4, 3]).unwrap().matmul(&b).unwrap();
        assert_eq!(c.data(), flat.data());
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
}
