//! In-memory labeled image dataset with batching.

use acme_tensor::obs::mem::{self, Owner};
use acme_tensor::{pool, Array, SmallRng64};

/// One minibatch: images `[batch, c, h, w]` plus integer labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Image tensor `[batch, channels, height, width]`.
    pub images: Array,
    /// Class label per image.
    pub labels: Vec<usize>,
}

/// An owned, in-memory labeled image dataset.
///
/// Images are stored per-example (`[c, h, w]` each) so partitioning into
/// device shards is cheap. A dataset's images and labels are charged to
/// the [`Owner::Datasets`] gauge while it lives.
#[derive(Debug, Default)]
pub struct Dataset {
    images: Vec<Array>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Clone for Dataset {
    fn clone(&self) -> Self {
        Dataset::charged(self.images.clone(), self.labels.clone(), self.num_classes)
    }
}

impl Drop for Dataset {
    fn drop(&mut self) {
        mem::release(Owner::Datasets, self.heap_bytes());
    }
}

impl Dataset {
    /// Creates a dataset from per-example images and labels.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ, a label is out of range, or image
    /// shapes are inconsistent.
    pub fn new(images: Vec<Array>, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        if let Some(first) = images.first() {
            assert!(
                images.iter().all(|i| i.shape() == first.shape()),
                "inconsistent image shapes"
            );
        }
        Dataset::charged(images, labels, num_classes)
    }

    fn charged(images: Vec<Array>, labels: Vec<usize>, num_classes: usize) -> Self {
        let data = Dataset {
            images,
            labels,
            num_classes,
        };
        mem::charge(Owner::Datasets, data.heap_bytes());
        data
    }

    /// Bytes of the image backings and the labels.
    fn heap_bytes(&self) -> usize {
        let images: usize = self.images.iter().map(Array::heap_bytes).sum();
        images + self.labels.capacity() * std::mem::size_of::<usize>()
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Number of classes in the label space (fixed, independent of which
    /// labels actually occur in this shard).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Shape of one image, `[c, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub(crate) fn image_shape(&self) -> &[usize] {
        self.images
            .first()
            .expect("image_shape on empty dataset")
            .shape()
    }

    /// The `i`-th example.
    pub fn get(&self, i: usize) -> (&Array, usize) {
        (&self.images[i], self.labels[i])
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Builds the sub-dataset of the given example indices.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset::charged(
            indices.iter().map(|&i| self.images[i].clone()).collect(),
            indices.iter().map(|&i| self.labels[i]).collect(),
            self.num_classes,
        )
    }

    /// Randomly samples `n` examples (without replacement; clamped to
    /// `len()`): the examples at [`sample_indices`], in its order.
    pub fn sample(&self, n: usize, rng: &mut SmallRng64) -> Dataset {
        self.subset(&sample_indices(self.len(), n, rng))
    }

    /// Splits into `(train, test)` with a `frac` fraction of shuffled
    /// examples in train.
    pub fn split(&self, frac: f64, rng: &mut SmallRng64) -> (Dataset, Dataset) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        let (cut, _) = self.split_sizes(frac);
        (self.subset(&idx[..cut]), self.subset(&idx[cut..]))
    }

    /// The `(train, test)` sizes [`Dataset::split`] yields at `frac`,
    /// without drawing from an RNG.
    pub fn split_sizes(&self, frac: f64) -> (usize, usize) {
        let cut = ((self.len() as f64) * frac).round() as usize;
        (cut, self.len().saturating_sub(cut))
    }

    /// Merges two datasets over the same label space.
    ///
    /// # Panics
    ///
    /// Panics when class counts differ.
    pub fn merged(&self, other: &Dataset) -> Dataset {
        assert_eq!(
            self.num_classes, other.num_classes,
            "merged class spaces differ"
        );
        let mut images = self.images.clone();
        images.extend(other.images.iter().cloned());
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        Dataset::charged(images, labels, self.num_classes)
    }

    /// Stacks the whole dataset into one batch.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn as_batch(&self) -> Batch {
        self.batch(&(0..self.len()).collect::<Vec<_>>())
    }

    /// Stacks the examples at `indices`, in that order, into one batch
    /// (a pooled buffer, like every array a tape builds).
    ///
    /// # Panics
    ///
    /// Panics on empty or out-of-range indices.
    pub fn batch(&self, indices: &[usize]) -> Batch {
        assert!(!indices.is_empty(), "empty batch");
        let shape = self.image_shape().to_vec();
        let per = shape.iter().product::<usize>();
        let mut data = pool::take(indices.len() * per);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.images[i].data());
            labels.push(self.labels[i]);
        }
        let mut full = vec![indices.len()];
        full.extend(&shape);
        Batch {
            images: Array::from_vec(data, &full).expect("batch volume"),
            labels,
        }
    }
}

/// One shuffle of `0..len`, cut into chunks of (at most) `batch_size`:
/// one epoch's minibatches of a dataset of `len` examples. A loop stacks
/// each with [`Dataset::batch`] when its step runs it, so an epoch cut
/// short stacks no more than it uses; per-example stores (such as
/// cached features) batch the same indices.
pub fn batch_indices(len: usize, batch_size: usize, rng: &mut SmallRng64) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..len).collect();
    rng.shuffle(&mut idx);
    idx.chunks(batch_size.max(1))
        .map(<[usize]>::to_vec)
        .collect()
}

/// `n` indices of `0..len` drawn without replacement (clamped to `len`):
/// the examples [`Dataset::sample`] picks from a dataset of `len`.
pub fn sample_indices(len: usize, n: usize, rng: &mut SmallRng64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    rng.shuffle(&mut idx);
    idx.truncate(n.min(len));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::SmallRng64;

    fn toy(n: usize, classes: usize) -> Dataset {
        let images = (0..n).map(|i| Array::full(&[1, 2, 2], i as f32)).collect();
        let labels = (0..n).map(|i| i % classes).collect();
        Dataset::new(images, labels, classes)
    }

    #[test]
    fn construction_validates() {
        let images = vec![Array::zeros(&[1, 2, 2])];
        assert!(std::panic::catch_unwind(|| {
            Dataset::new(images.clone(), vec![5], 3);
        })
        .is_err());
    }

    #[test]
    fn subset_and_get() {
        let ds = toy(10, 3);
        let sub = ds.subset(&[0, 5, 9]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.get(1).1, 5 % 3);
        assert_eq!(sub.num_classes(), 3);
    }

    #[test]
    fn split_partitions_everything() {
        let ds = toy(20, 4);
        let (a, b) = ds.split(0.75, &mut SmallRng64::new(0));
        assert_eq!(a.len(), 15);
        assert_eq!(b.len(), 5);
        assert_eq!(ds.split_sizes(0.75), (15, 5));
        assert_eq!(toy(1, 1).split_sizes(0.7), (1, 0));
    }

    #[test]
    fn batch_indices_cover_dataset_once() {
        let ds = toy(10, 2);
        let idx = batch_indices(ds.len(), 3, &mut SmallRng64::new(4));
        assert_eq!(idx.iter().map(Vec::len).collect::<Vec<_>>(), [3, 3, 3, 1]);
        for c in &idx {
            let b = ds.batch(c);
            assert_eq!(b.images.shape(), &[c.len(), 1, 2, 2]);
            // toy image i is filled with i.
            let firsts: Vec<f32> = b.images.data().iter().step_by(4).copied().collect();
            assert_eq!(firsts, c.iter().map(|&i| i as f32).collect::<Vec<_>>());
            assert_eq!(b.labels, c.iter().map(|&i| i % 2).collect::<Vec<_>>());
        }
        let mut all: Vec<usize> = idx.concat();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn as_batch_stacks_in_order() {
        let ds = toy(3, 3);
        let b = ds.as_batch();
        assert_eq!(b.images.shape(), &[3, 1, 2, 2]);
        assert_eq!(b.images.data()[4], 1.0); // second image filled with 1.0
        assert_eq!(b.labels, vec![0, 1, 2]);
    }

    #[test]
    fn sample_without_replacement() {
        let ds = toy(10, 2);
        let s = ds.sample(4, &mut SmallRng64::new(1));
        assert_eq!(s.len(), 4);
        let s_all = ds.sample(100, &mut SmallRng64::new(1));
        assert_eq!(s_all.len(), 10);
    }

    #[test]
    fn merged_concatenates() {
        let a = toy(3, 2);
        let b = toy(2, 2);
        assert_eq!(a.merged(&b).len(), 5);
    }
}
