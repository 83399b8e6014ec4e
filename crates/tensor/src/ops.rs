//! Pure (non-differentiable) elementwise and reduction operations on
//! [`Array`], including full NumPy-style broadcasting.

use crate::array::Array;
use crate::error::{Result, TensorError};
use crate::shape::{broadcast_shapes, broadcast_source_index, strides_for};
use crate::{pool, rowwise};

/// Whether `small` broadcasts against `big` as a pure trailing suffix
/// (leading `1`s aside): every non-leading-1 axis of `small` equals the
/// corresponding trailing axis of `big`. The broadcast then reduces to
/// tiling `small` across `big`'s leading axes.
fn is_trailing_suffix(small: &[usize], big: &[usize]) -> bool {
    let trimmed = {
        let lead = small.iter().take_while(|&&d| d == 1).count();
        &small[lead..]
    };
    trimmed.len() <= big.len() && big[big.len() - trimmed.len()..] == *trimmed
}

impl Array {
    /// Elementwise binary operation with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes cannot broadcast.
    pub fn binary(
        &self,
        rhs: &Array,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Array> {
        if self.shape() == rhs.shape() {
            // Fast path: no index translation needed.
            let mut data = pool::take(self.len());
            data.extend(self.data().iter().zip(rhs.data()).map(|(&a, &b)| f(a, b)));
            return Array::from_vec(data, self.shape());
        }
        let out_shape = broadcast_shapes(self.shape(), rhs.shape()).map_err(|_| {
            TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
                op,
            }
        })?;
        let n: usize = out_shape.iter().product();
        // Fast paths below apply the same `f` to the same operand pairs in
        // the same row-major order as the generic loop — identical bits,
        // cheaper indexing.
        if rhs.len() == 1 && out_shape == self.shape() {
            // Scalar right operand.
            let b = rhs.data()[0];
            let mut data = pool::take(n);
            data.extend(self.data().iter().map(|&a| f(a, b)));
            return Array::from_vec(data, &out_shape);
        }
        if self.len() == 1 && out_shape == rhs.shape() {
            // Scalar left operand.
            let a = self.data()[0];
            let mut data = pool::take(n);
            data.extend(rhs.data().iter().map(|&b| f(a, b)));
            return Array::from_vec(data, &out_shape);
        }
        if out_shape == self.shape() && is_trailing_suffix(rhs.shape(), self.shape()) {
            // Right operand broadcasts only over leading axes (the bias
            // pattern `[n, d] + [d]`): tile it across row chunks.
            let b = rhs.data();
            let mut data = pool::take(n);
            for chunk in self.data().chunks_exact(b.len()) {
                data.extend(chunk.iter().zip(b).map(|(&a, &b)| f(a, b)));
            }
            return Array::from_vec(data, &out_shape);
        }
        if out_shape == rhs.shape() && is_trailing_suffix(self.shape(), rhs.shape()) {
            let a = self.data();
            let mut data = pool::take(n);
            for chunk in rhs.data().chunks_exact(a.len()) {
                data.extend(a.iter().zip(chunk).map(|(&a, &b)| f(a, b)));
            }
            return Array::from_vec(data, &out_shape);
        }
        let ls = strides_for(self.shape());
        let rs = strides_for(rhs.shape());
        let mut data = pool::take(n);
        for i in 0..n {
            let li = broadcast_source_index(i, &out_shape, self.shape(), &ls);
            let ri = broadcast_source_index(i, &out_shape, rhs.shape(), &rs);
            data.push(f(self.data()[li], rhs.data()[ri]));
        }
        Array::from_vec(data, &out_shape)
    }

    /// Broadcast addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes cannot broadcast.
    pub fn add(&self, rhs: &Array) -> Result<Array> {
        self.binary(rhs, "add", |a, b| a + b)
    }

    /// Broadcast subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes cannot broadcast.
    pub fn sub(&self, rhs: &Array) -> Result<Array> {
        self.binary(rhs, "sub", |a, b| a - b)
    }

    /// Broadcast elementwise multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes cannot broadcast.
    pub fn mul(&self, rhs: &Array) -> Result<Array> {
        self.binary(rhs, "mul", |a, b| a * b)
    }

    /// Broadcast elementwise division.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes cannot broadcast.
    pub fn div(&self, rhs: &Array) -> Result<Array> {
        self.binary(rhs, "div", |a, b| a / b)
    }

    /// Multiplies every element by `c`.
    pub fn scale(&self, c: f32) -> Array {
        self.map(|x| x * c)
    }

    /// Adds `c` to every element.
    pub fn add_scalar(&self, c: f32) -> Array {
        self.map(|x| x + c)
    }

    /// In-place `self += rhs` for identically-shaped arrays.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ — this is an internal hot path used by
    /// gradient accumulation where shapes are guaranteed equal.
    pub fn add_assign(&mut self, rhs: &Array) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(rhs.data()) {
            *a += b;
        }
    }

    /// In-place `self += c * rhs` (axpy) for identically-shaped arrays.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn add_scaled_assign(&mut self, rhs: &Array, c: f32) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "add_scaled_assign shape mismatch"
        );
        for (a, &b) in self.data_mut().iter_mut().zip(rhs.data()) {
            *a += c * b;
        }
    }

    /// Reduces `grad` (shaped like the broadcast output) back to
    /// `target_shape` by summing over broadcast axes. This is the adjoint of
    /// broadcasting and is used by every binary op's backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `target_shape` cannot broadcast to `grad`'s shape.
    pub fn reduce_to_shape(&self, target_shape: &[usize]) -> Array {
        if self.shape() == target_shape {
            return self.clone();
        }
        let block: usize = target_shape.iter().product();
        if block == 0 || !is_trailing_suffix(target_shape, self.shape()) {
            return self.reduce_to_shape_generic(target_shape);
        }
        // The target is the trailing `block` elements of every leading
        // index (a bias or positional-embedding gradient): add the source
        // block by block. Element `j` receives blocks 0, 1, 2, … in that
        // order, the chain the generic loop builds one index at a time.
        let mut out = Array::zeros(target_shape);
        let acc = out.data_mut();
        for src in self.data().chunks_exact(block) {
            for (o, &v) in acc.iter_mut().zip(src) {
                *o += v;
            }
        }
        out
    }

    /// [`Array::reduce_to_shape`] for any broadcastable target: one index
    /// computation per source element.
    fn reduce_to_shape_generic(&self, target_shape: &[usize]) -> Array {
        let out_shape = self.shape().to_vec();
        let ts = strides_for(target_shape);
        let mut out = Array::zeros(target_shape);
        for i in 0..self.len() {
            let ti = broadcast_source_index(i, &out_shape, target_shape, &ts);
            out.data_mut()[ti] += self.data()[i];
        }
        out
    }

    /// Sums along `axis`, removing it from the shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for an invalid axis.
    pub fn sum_axis(&self, axis: usize) -> Result<Array> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let shape = self.shape();
        let outer: usize = shape[..axis].iter().product();
        let mid = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let mut out_shape = shape.to_vec();
        out_shape.remove(axis);
        let mut out = Array::zeros(&out_shape);
        for o in 0..outer {
            for m in 0..mid {
                for i in 0..inner {
                    out.data_mut()[o * inner + i] += self.data()[(o * mid + m) * inner + i];
                }
            }
        }
        Ok(out)
    }

    /// Mean along `axis`, removing it from the shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for an invalid axis.
    pub fn mean_axis(&self, axis: usize) -> Result<Array> {
        let n = *self.shape().get(axis).ok_or(TensorError::AxisOutOfRange {
            axis,
            rank: self.rank(),
        })? as f32;
        Ok(self.sum_axis(axis)?.scale(1.0 / n))
    }

    /// Row-wise softmax over the last axis.
    ///
    /// Numerically stabilized by subtracting the per-row max. Writes
    /// straight into one pooled buffer (no copy-then-overwrite) via the
    /// fused, row-parallel kernel.
    pub fn softmax_last(&self) -> Array {
        let cols = *self.shape().last().unwrap_or(&1);
        let mut out = Array::zeros(self.shape());
        rowwise::softmax_fwd(self.data(), out.data_mut(), cols.max(1));
        out
    }

    /// Concatenates arrays along `axis`. All other axes must match.
    ///
    /// # Errors
    ///
    /// Returns an error when `parts` is empty, the axis is invalid, or the
    /// non-concatenated axes differ.
    pub fn concat(parts: &[&Array], axis: usize) -> Result<Array> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::Invalid("concat of zero arrays".to_string()))?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mut total_axis = 0;
        for p in parts {
            if p.rank() != rank {
                return Err(TensorError::RankMismatch {
                    expected: rank,
                    actual: p.rank(),
                    op: "concat",
                });
            }
            for (i, (&a, &b)) in p.shape().iter().zip(first.shape()).enumerate() {
                if i != axis && a != b {
                    return Err(TensorError::ShapeMismatch {
                        lhs: first.shape().to_vec(),
                        rhs: p.shape().to_vec(),
                        op: "concat",
                    });
                }
            }
            total_axis += p.shape()[axis];
        }
        let mut out_shape = first.shape().to_vec();
        out_shape[axis] = total_axis;
        let outer: usize = first.shape()[..axis].iter().product();
        let inner: usize = first.shape()[axis + 1..].iter().product();
        let mut data = pool::take(out_shape.iter().product());
        for o in 0..outer {
            for p in parts {
                let m = p.shape()[axis];
                let start = o * m * inner;
                data.extend_from_slice(&p.data()[start..start + m * inner]);
            }
        }
        Array::from_vec(data, &out_shape)
    }

    /// Splits the array along `axis` into chunks of the given sizes
    /// (inverse of [`Array::concat`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the sizes do not sum to the axis length.
    pub fn split(&self, axis: usize, sizes: &[usize]) -> Result<Vec<Array>> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        if sizes.iter().sum::<usize>() != self.shape()[axis] {
            return Err(TensorError::Invalid(format!(
                "split sizes {:?} do not sum to axis length {}",
                sizes,
                self.shape()[axis]
            )));
        }
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let axis_len = self.shape()[axis];
        let mut outs = Vec::with_capacity(sizes.len());
        let mut offset = 0;
        for &m in sizes {
            let mut shape = self.shape().to_vec();
            shape[axis] = m;
            let mut data = pool::take(outer * m * inner);
            for o in 0..outer {
                let start = (o * axis_len + offset) * inner;
                data.extend_from_slice(&self.data()[start..start + m * inner]);
            }
            outs.push(Array::from_vec(data, &shape)?);
            offset += m;
        }
        Ok(outs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(v: &[f32], s: &[usize]) -> Array {
        Array::from_vec(v.to_vec(), s).unwrap()
    }

    #[test]
    fn add_same_shape() {
        let a = arr(&[1.0, 2.0], &[2]);
        let b = arr(&[3.0, 4.0], &[2]);
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn add_broadcast_row() {
        let a = arr(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = arr(&[10.0, 20.0, 30.0], &[3]);
        assert_eq!(
            a.add(&b).unwrap().data(),
            &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]
        );
    }

    #[test]
    fn add_broadcast_col() {
        let a = arr(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = arr(&[10.0, 20.0], &[2, 1]);
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 12.0, 23.0, 24.0]);
    }

    #[test]
    fn mul_div_sub() {
        let a = arr(&[2.0, 4.0], &[2]);
        let b = arr(&[2.0, 2.0], &[2]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 8.0]);
        assert_eq!(a.div(&b).unwrap().data(), &[1.0, 2.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[0.0, 2.0]);
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = Array::ones(&[2, 3]);
        let b = Array::ones(&[2, 4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_axes() {
        let g = arr(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        // Reduce to [3]: sum over rows.
        assert_eq!(g.reduce_to_shape(&[3]).data(), &[5.0, 7.0, 9.0]);
        // Reduce to [2,1]: sum over cols.
        assert_eq!(g.reduce_to_shape(&[2, 1]).data(), &[6.0, 15.0]);
        // Reduce to scalar.
        assert_eq!(g.reduce_to_shape(&[]).data(), &[21.0]);
    }

    #[test]
    fn reduce_to_shape_suffix_path_matches_generic_bitwise() {
        use rand::Rng;
        let mut rng = crate::SmallRng64::new(5);
        let bits = |a: &Array| a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let check = |src: &[usize], target: &[usize], suffix: bool| {
            assert_eq!(
                is_trailing_suffix(target, src),
                suffix,
                "{src:?} -> {target:?}"
            );
            let seed = src.iter().chain(target).fold(7, |h, &d| h * 31 + d as u64);
            let g = crate::randn(src, &mut crate::SmallRng64::new(seed));
            let (fast, generic) = (g.reduce_to_shape(target), g.reduce_to_shape_generic(target));
            assert_eq!(fast.shape(), target);
            assert_eq!(bits(&fast), bits(&generic), "{src:?} -> {target:?}");
        };
        check(&[4, 5, 6], &[1, 5, 6], true); // positional embedding
        check(&[7, 6], &[6], true); // bias
        check(&[3, 1, 4], &[1, 4], true);
        check(&[5, 3], &[], true);
        check(&[2, 3], &[2, 1], false);
        check(&[4, 5, 6], &[5, 1], false);
        for _ in 0..32 {
            let src: Vec<usize> = (0..rng.gen_range(1..=4))
                .map(|_| rng.gen_range(1..=6))
                .collect();
            let keep = rng.gen_range(0..=src.len());
            let mut target = vec![1; rng.gen_range(0..=src.len() - keep)];
            target.extend_from_slice(&src[src.len() - keep..]);
            check(&src, &target, true);
            // Collapse one kept axis instead: no longer a suffix unless
            // that axis was 1 already or only leading 1s remain before it.
            if let Some(axis) = (0..src.len()).rev().find(|&a| src[a] > 1) {
                let mut target = src.clone();
                target[axis] = 1;
                let suffix = target[..axis].iter().all(|&d| d == 1);
                check(&src, &target, suffix);
            }
        }
    }

    #[test]
    fn sum_axis_middle() {
        let a = Array::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        let s = a.sum_axis(1).unwrap();
        assert_eq!(s.shape(), &[2, 4]);
        assert_eq!(s.at(&[0, 0]), 0.0 + 4.0 + 8.0);
        assert_eq!(s.at(&[1, 3]), 15.0 + 19.0 + 23.0);
    }

    #[test]
    fn mean_axis_divides() {
        let a = arr(&[2.0, 4.0, 6.0, 8.0], &[2, 2]);
        assert_eq!(a.mean_axis(0).unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = arr(&[1.0, 2.0, 3.0, 100.0, 100.0, 100.0], &[2, 3]);
        let s = a.softmax_last();
        for r in 0..2 {
            let sum: f32 = s.row(r).data().iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Uniform logits give uniform probabilities.
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = arr(&[1000.0, 0.0], &[1, 2]);
        let s = a.softmax_last();
        assert!(s.data().iter().all(|x| x.is_finite()));
        assert!((s.at(&[0, 0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = arr(&[1.0, 2.0], &[1, 2]);
        let b = arr(&[3.0, 4.0], &[1, 2]);
        let c0 = Array::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.shape(), &[2, 2]);
        assert_eq!(c0.data(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = Array::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.shape(), &[1, 4]);
        assert_eq!(c1.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn split_inverts_concat() {
        let a = arr(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let parts = a.split(1, &[1, 2]).unwrap();
        assert_eq!(parts[0].data(), &[1.0, 4.0]);
        assert_eq!(parts[1].data(), &[2.0, 3.0, 5.0, 6.0]);
        let back = Array::concat(&[&parts[0], &parts[1]], 1).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn split_rejects_bad_sizes() {
        let a = Array::ones(&[2, 3]);
        assert!(a.split(1, &[1, 1]).is_err());
        assert!(a.split(5, &[3]).is_err());
    }

    #[test]
    fn concat_rejects_mismatched() {
        let a = Array::ones(&[2, 2]);
        let b = Array::ones(&[3, 3]);
        assert!(Array::concat(&[&a, &b], 0).is_err());
        assert!(Array::concat(&[], 0).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = arr(&[1.0, 1.0], &[2]);
        let b = arr(&[2.0, 3.0], &[2]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.data(), &[2.0, 2.5]);
    }
}
