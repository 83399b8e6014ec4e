//! Synthetic stand-ins for CIFAR-100 and Stanford Cars.
//!
//! Each class is a low-frequency "prototype" pattern (a coarse Gaussian
//! grid rendered at image resolution); examples are the prototype plus
//! pixel noise and a random global intensity jitter. Two knobs shape the
//! learning problem exactly where the paper's datasets differ:
//!
//! * `noise` — intra-class variance (harder to fit with a small model),
//! * `confusion` — the fraction of each prototype shared across classes
//!   (fine-grained recognition: Stanford Cars classes are all "car").

use acme_tensor::{randn, Array, SmallRng64};

use crate::dataset::Dataset;
use crate::error::DataError;

/// Parameters of the synthetic dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Number of classes.
    pub classes: usize,
    /// Examples generated per class.
    pub per_class: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height and width.
    pub size: usize,
    /// Coarse prototype grid resolution (must divide `size`).
    pub grid: usize,
    /// Std-dev of additive pixel noise.
    pub noise: f32,
    /// Fraction in `[0, 1)` of each prototype shared across classes.
    pub confusion: f32,
}

impl SyntheticSpec {
    /// CIFAR-100-like default: 20 classes, 16x16 RGB, moderate noise.
    pub fn cifar() -> Self {
        SyntheticSpec {
            classes: 20,
            per_class: 40,
            channels: 3,
            size: 16,
            grid: 4,
            noise: 0.35,
            confusion: 0.3,
        }
    }

    /// Stanford-Cars-like default: same geometry, fine-grained classes
    /// (high shared structure) and more intra-class variation.
    pub fn cars() -> Self {
        SyntheticSpec {
            classes: 20,
            per_class: 40,
            channels: 3,
            size: 16,
            grid: 4,
            noise: 0.5,
            confusion: 0.75,
        }
    }

    /// A very small spec for unit tests and doc examples.
    pub fn tiny() -> Self {
        SyntheticSpec {
            classes: 4,
            per_class: 8,
            channels: 1,
            size: 8,
            grid: 2,
            noise: 0.2,
            confusion: 0.2,
        }
    }

    /// Overrides examples per class.
    pub fn with_per_class(mut self, per_class: usize) -> Self {
        self.per_class = per_class;
        self
    }

    /// Total number of examples generated.
    fn total(&self) -> usize {
        self.classes * self.per_class
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`DataError`] when the spec is degenerate (zero
    /// classes/examples/channels), `grid` does not divide `size`, or
    /// `confusion` is outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), DataError> {
        if self.classes == 0 {
            return Err(DataError::DegenerateSpec { field: "classes" });
        }
        if self.per_class == 0 {
            return Err(DataError::DegenerateSpec { field: "per_class" });
        }
        if self.channels == 0 {
            return Err(DataError::DegenerateSpec { field: "channels" });
        }
        if self.grid == 0 || self.size == 0 || !self.size.is_multiple_of(self.grid) {
            return Err(DataError::GridMismatch {
                grid: self.grid,
                size: self.size,
            });
        }
        if !(0.0..1.0).contains(&self.confusion) {
            return Err(DataError::BadConfusion(self.confusion));
        }
        Ok(())
    }
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec::cifar()
    }
}

/// Renders a coarse `[channels, grid, grid]` pattern at `[channels, size,
/// size]` by nearest-neighbor upsampling.
fn upsample(coarse: &Array, channels: usize, grid: usize, size: usize) -> Array {
    let factor = size / grid;
    let mut out = Array::zeros(&[channels, size, size]);
    for c in 0..channels {
        for y in 0..size {
            for x in 0..size {
                let v = coarse.at(&[c, y / factor, x / factor]);
                *out.at_mut(&[c, y, x]) = v;
            }
        }
    }
    out
}

/// Renders the per-class prototype patterns for `spec`: a shared
/// component (weighted by `confusion`) plus a per-class unique component,
/// upsampled to image resolution. The drifting streams reuse this to
/// build a second, target prototype set from an independent RNG stream.
pub(crate) fn render_prototypes(spec: &SyntheticSpec, rng: &mut SmallRng64) -> Vec<Array> {
    let coarse_shape = [spec.channels, spec.grid, spec.grid];
    let shared = randn(&coarse_shape, rng);
    let unique_w = (1.0 - spec.confusion).sqrt();
    let shared_w = spec.confusion.sqrt();
    (0..spec.classes)
        .map(|_| {
            let unique = randn(&coarse_shape, rng);
            let mixed = unique
                .scale(unique_w)
                .add(&shared.scale(shared_w))
                .expect("same shape");
            upsample(&mixed, spec.channels, spec.grid, spec.size)
        })
        .collect()
}

/// Renders one example from a prototype: global intensity jitter plus
/// additive pixel noise. Shared by [`generate`] and the drifting streams
/// so a zero-drift stream is distributed identically to a static
/// dataset.
pub(crate) fn render_example(proto: &Array, noise: f32, rng: &mut SmallRng64) -> Array {
    let jitter = 1.0 + 0.1 * rng.f32_in(-1.0..1.0);
    let noise = randn(proto.shape(), rng).scale(noise);
    proto.scale(jitter).add(&noise).expect("same shape")
}

/// Generates a dataset from `spec` with deterministic structure under a
/// seeded RNG.
///
/// # Errors
///
/// Returns [`DataError`] when `grid` does not divide `size`, `confusion`
/// is outside `[0, 1)`, or the spec is degenerate (zero
/// classes/examples).
pub fn generate(spec: &SyntheticSpec, rng: &mut SmallRng64) -> Result<Dataset, DataError> {
    spec.validate()?;
    let prototypes = render_prototypes(spec, rng);
    let mut images = Vec::with_capacity(spec.total());
    let mut labels = Vec::with_capacity(spec.total());
    for (cls, proto) in prototypes.iter().enumerate() {
        for _ in 0..spec.per_class {
            images.push(render_example(proto, spec.noise, rng));
            labels.push(cls);
        }
    }
    Ok(Dataset::new(images, labels, spec.classes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::SmallRng64;

    #[test]
    fn generates_expected_counts_and_shapes() {
        let spec = SyntheticSpec::tiny();
        let ds = generate(&spec, &mut SmallRng64::new(0)).unwrap();
        assert_eq!(ds.len(), spec.total());
        assert_eq!(ds.image_shape(), &[1, 8, 8]);
        assert_eq!(ds.num_classes(), 4);
        // Balanced classes.
        for c in 0..4 {
            assert_eq!(ds.labels().iter().filter(|&&l| l == c).count(), 8);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = SyntheticSpec::tiny();
        let a = generate(&spec, &mut SmallRng64::new(9)).unwrap();
        let b = generate(&spec, &mut SmallRng64::new(9)).unwrap();
        assert_eq!(a.get(3).0, b.get(3).0);
    }

    #[test]
    fn higher_confusion_brings_prototypes_closer() {
        // Average inter-class distance shrinks as confusion grows.
        let dist = |confusion: f32| {
            let spec = SyntheticSpec {
                confusion,
                ..SyntheticSpec::tiny()
            }
            .with_per_class(1);
            let ds = generate(&spec, &mut SmallRng64::new(4)).unwrap();
            let mut total = 0.0;
            let mut count = 0;
            for i in 0..ds.len() {
                for j in (i + 1)..ds.len() {
                    let d = ds.get(i).0.sub(ds.get(j).0).unwrap().sq_norm();
                    total += d;
                    count += 1;
                }
            }
            total / count as f32
        };
        assert!(dist(0.9) < dist(0.0));
    }

    #[test]
    fn same_class_examples_are_similar() {
        let spec = SyntheticSpec::tiny();
        let ds = generate(&spec, &mut SmallRng64::new(2)).unwrap();
        // Same-class distance should on average be below cross-class.
        let mut same = (0.0, 0);
        let mut cross = (0.0, 0);
        for i in 0..ds.len() {
            for j in (i + 1)..ds.len() {
                let d = ds.get(i).0.sub(ds.get(j).0).unwrap().sq_norm();
                if ds.get(i).1 == ds.get(j).1 {
                    same = (same.0 + d, same.1 + 1);
                } else {
                    cross = (cross.0 + d, cross.1 + 1);
                }
            }
        }
        assert!(same.0 / (same.1 as f32) < cross.0 / (cross.1 as f32));
    }

    #[test]
    fn cars_spec_is_harder_than_cifar() {
        let cifar = SyntheticSpec::cifar();
        let cars = SyntheticSpec::cars();
        assert!(cars.confusion > cifar.confusion);
        assert!(cars.noise > cifar.noise);
    }

    #[test]
    fn rejects_degenerate_specs_with_typed_errors() {
        use crate::error::DataError;
        let spec = SyntheticSpec {
            grid: 3,
            ..SyntheticSpec::tiny()
        };
        assert_eq!(
            generate(&spec, &mut SmallRng64::new(0)).err(),
            Some(DataError::GridMismatch { grid: 3, size: 8 })
        );
        let spec = SyntheticSpec {
            classes: 0,
            ..SyntheticSpec::tiny()
        };
        assert_eq!(
            generate(&spec, &mut SmallRng64::new(0)).err(),
            Some(DataError::DegenerateSpec { field: "classes" })
        );
        let spec = SyntheticSpec {
            confusion: 1.0,
            ..SyntheticSpec::tiny()
        };
        assert_eq!(
            generate(&spec, &mut SmallRng64::new(0)).err(),
            Some(DataError::BadConfusion(1.0))
        );
    }
}
