//! The owned, row-major `f32` tensor type.

use crate::error::{Result, TensorError};
use crate::pool;
use crate::shape::volume;

/// An owned n-dimensional `f32` tensor stored in row-major order.
///
/// `Array` is the plain-value substrate under the autograd [`Graph`]: all
/// differentiable ops take and produce `Array` values internally. It is
/// deliberately simple — contiguous storage, owned data — which keeps the
/// distributed-system simulation `Send` without synchronization.
///
/// Backings are borrowed from the process-wide [`pool`](crate::pool) and
/// returned to it on drop, so the tensors churned by a training step
/// recycle instead of hitting the allocator. `Clone` therefore allocates
/// through the pool too, and a consumed `Array`'s buffer can be kept out
/// of the pool with [`Array::into_vec`].
///
/// [`Graph`]: crate::Graph
#[derive(Debug, PartialEq)]
pub struct Array {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Clone for Array {
    fn clone(&self) -> Self {
        let mut data = pool::take(self.data.len());
        data.extend_from_slice(&self.data);
        Array {
            shape: self.shape.clone(),
            data,
        }
    }
}

impl Drop for Array {
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.data));
    }
}

impl Array {
    /// Creates an array from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` is not the
    /// product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected = volume(shape);
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Array {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a zero-filled array (pool-backed).
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a one-filled array.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates an array filled with `value` (pool-backed).
    pub fn full(shape: &[usize], value: f32) -> Self {
        Array {
            shape: shape.to_vec(),
            data: pool::take_filled(volume(shape), value),
        }
    }

    /// Creates a rank-0 (scalar) array.
    pub fn scalar(value: f32) -> Self {
        Array {
            shape: Vec::new(),
            data: vec![value],
        }
    }

    /// Creates a 1-D array from a slice (pool-backed).
    pub(crate) fn from_slice(data: &[f32]) -> Self {
        let mut buf = pool::take(data.len());
        buf.extend_from_slice(data);
        Array {
            shape: vec![data.len()],
            data: buf,
        }
    }

    /// The shape of the array.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes of the backing's capacity: what holding this array costs
    /// the heap.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the single element of a size-1 array.
    ///
    /// # Panics
    ///
    /// Panics if the array has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on array with {} elements",
            self.data.len()
        );
        self.data[0]
    }

    /// Element access by multi-axis index.
    ///
    /// # Panics
    ///
    /// Panics if `index.len() != rank` or any coordinate is out of range.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Mutable element access by multi-axis index.
    ///
    /// # Panics
    ///
    /// Panics if `index.len() != rank` or any coordinate is out of range.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let i = self.flat_index(index);
        &mut self.data[i]
    }

    /// The row-major offset of `index`, accumulated axis by axis
    /// (`offset · dim + i`, Horner's rule) so no stride vector is built:
    /// element access allocates nothing. Axes are checked first to last.
    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        index.iter().zip(&self.shape).fold(0, |offset, (&i, &d)| {
            assert!(i < d, "index {i} out of range for axis of size {d}");
            offset * d + i
        })
    }

    /// Returns a reshaped copy sharing no storage with `self`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if volumes differ.
    pub fn reshaped(&self, shape: &[usize]) -> Result<Array> {
        let mut data = pool::take(self.data.len());
        data.extend_from_slice(&self.data);
        Array::from_vec(data, shape)
    }

    /// Applies `f` to every element, returning a new array (pool-backed).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Array {
        let mut data = pool::take(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Array {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Sum of all elements (as f64 accumulation for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty array.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max() on empty array");
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element in the flat buffer.
    ///
    /// # Panics
    ///
    /// Panics on an empty array.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax() on empty array");
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Squared L2 norm of the buffer.
    pub fn sq_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>() as f32
    }

    /// Per-row argmax for a 2-D array (`[rows, cols]`), useful for
    /// classification accuracy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D arrays.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "argmax_rows",
            });
        }
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            let mut best = 0;
            for (c, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = c;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Extracts row `r` of a 2-D array as a 1-D array.
    ///
    /// # Panics
    ///
    /// Panics if the array is not 2-D or `r` is out of range.
    pub fn row(&self, r: usize) -> Array {
        assert_eq!(self.rank(), 2, "row() requires a 2-D array");
        let cols = self.shape[1];
        Array::from_slice(&self.data[r * cols..(r + 1) * cols])
    }
}

impl Default for Array {
    fn default() -> Self {
        Array::scalar(0.0)
    }
}

impl std::fmt::Display for Array {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Array{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Array::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Array::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Array::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Array::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Array::full(&[2], 7.5).data(), &[7.5, 7.5]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Array::scalar(3.0).item(), 3.0);
        assert_eq!(Array::scalar(3.0).rank(), 0);
    }

    #[test]
    #[should_panic(expected = "item()")]
    fn item_panics_on_multi_element() {
        Array::ones(&[2]).item();
    }

    #[test]
    fn indexing_row_major() {
        let a = Array::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(a.at(&[0, 0, 0]), 0.0);
        assert_eq!(a.at(&[1, 2, 3]), 23.0);
        assert_eq!(a.at(&[1, 0, 2]), 14.0);
    }

    #[test]
    #[should_panic(expected = "index 3 out of range for axis of size 3")]
    fn at_names_the_first_axis_out_of_range() {
        Array::zeros(&[2, 3, 4]).at(&[1, 3, 9]);
    }

    #[test]
    #[should_panic(expected = "index rank mismatch")]
    fn at_rejects_a_short_index() {
        Array::zeros(&[2, 3]).at(&[1]);
    }

    #[test]
    fn at_mut_writes() {
        let mut a = Array::zeros(&[2, 2]);
        *a.at_mut(&[1, 0]) = 5.0;
        assert_eq!(a.data(), &[0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn reshape_checks_volume() {
        let a = Array::ones(&[2, 3]);
        assert!(a.reshaped(&[3, 2]).is_ok());
        assert!(a.reshaped(&[4, 2]).is_err());
    }

    #[test]
    fn reductions() {
        let a = Array::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.argmax(), 2);
        assert_eq!(a.sq_norm(), 14.0);
    }

    #[test]
    fn argmax_rows_2d() {
        let a = Array::from_vec(vec![1.0, 3.0, 2.0, 9.0, 0.0, -1.0], &[2, 3]).unwrap();
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
        assert!(Array::ones(&[3]).argmax_rows().is_err());
    }

    #[test]
    fn map_and_row() {
        let a = Array::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.row(1).data(), &[3.0, 4.0]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Array::zeros(&[2])).is_empty());
        assert!(format!("{}", Array::zeros(&[100])).contains("elements"));
    }
}
