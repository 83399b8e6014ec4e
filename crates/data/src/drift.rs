//! Drifting device streams: time-varying class prototypes and mixture
//! shifts over the synthetic generator, seeded and deterministic.
//!
//! A [`DriftingStream`] models what a deployed device sees after the
//! one-shot ACME pipeline finishes: windows of examples indexed by
//! discrete time `t`. Before `onset` the stream is distributed exactly
//! like the static dataset the device was customized on. From `onset`
//! the stream ramps linearly over `ramp` windows toward a *target*
//! distribution along two independent axes:
//!
//! * **prototype drift** (`magnitude`) — each class prototype blends
//!   toward a second, independently seeded prototype set: the same
//!   labels start looking different (concept drift);
//! * **mixture shift** (`mixture_shift`) — the class-sampling
//!   probabilities blend from uniform toward a seeded skewed
//!   distribution: some labels become rare, others common (label drift).
//!
//! Every window is a pure function of `(seed, device, t)`, so fleets of
//! streams are reproducible under any traversal order or thread count.

use acme_tensor::{Array, SmallRng64};
use rand::Rng;

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::synthetic::{render_example, render_prototypes, SyntheticSpec};

/// Parameters of a drifting device stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSpec {
    /// The pre-drift data distribution (also defines image geometry).
    pub base: SyntheticSpec,
    /// Window index at which drift begins.
    pub onset: usize,
    /// Windows over which drift ramps to full strength. Must be ≥ 1.
    pub ramp: usize,
    /// Prototype blend toward the target set at full drift, in `[0, 1]`.
    pub magnitude: f32,
    /// Class-mixture blend toward the skewed target distribution at full
    /// drift, in `[0, 1]`.
    pub mixture_shift: f32,
}

impl DriftSpec {
    /// A moderate default over the given base spec: drift starts at
    /// window 8, ramps over 4 windows to 60% prototype blend with no
    /// mixture shift.
    pub fn standard(base: SyntheticSpec) -> Self {
        DriftSpec {
            base,
            onset: 8,
            ramp: 4,
            magnitude: 0.6,
            mixture_shift: 0.0,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`DataError`] when the base spec is invalid, `ramp` is
    /// zero, or a blend knob is outside `[0, 1]`.
    fn validate(&self) -> Result<(), DataError> {
        self.base.validate()?;
        if self.ramp == 0 {
            return Err(DataError::BadDriftSpec { field: "ramp" });
        }
        if !(0.0..=1.0).contains(&self.magnitude) {
            return Err(DataError::BadDriftSpec { field: "magnitude" });
        }
        if !(0.0..=1.0).contains(&self.mixture_shift) {
            return Err(DataError::BadDriftSpec {
                field: "mixture_shift",
            });
        }
        Ok(())
    }
}

/// Mixes `(seed, device, t, salt)` into an RNG seed. Plain xor-multiply
/// mixing (splitmix-style odd constants) keeps windows independent of
/// traversal order — no shared RNG state to thread through.
fn window_seed(seed: u64, device: u64, t: u64, salt: u64) -> u64 {
    let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
    for k in [device, t, salt] {
        s ^= k.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
        s = s.wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    s
}

/// A deterministic drifting stream over one fleet. See the module docs
/// for the drift model.
#[derive(Debug, Clone)]
pub struct DriftingStream {
    spec: DriftSpec,
    seed: u64,
    base_protos: Vec<Array>,
    target_protos: Vec<Array>,
    target_mixture: Vec<f64>,
}

impl DriftingStream {
    /// Builds the stream: renders the base and target prototype sets and
    /// the target class mixture from independent substreams of `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError`] when `spec` fails validation.
    pub fn new(spec: DriftSpec, seed: u64) -> Result<Self, DataError> {
        spec.validate()?;
        let base_protos =
            render_prototypes(&spec.base, &mut SmallRng64::new(window_seed(seed, 0, 0, 1)));
        let target_protos =
            render_prototypes(&spec.base, &mut SmallRng64::new(window_seed(seed, 0, 0, 2)));
        // Skewed target mixture: softmax of unit Gaussians, temperature 1
        // — a few classes get most of the mass.
        let mut mix_rng = SmallRng64::new(window_seed(seed, 0, 0, 3));
        let logits: Vec<f64> = (0..spec.base.classes)
            .map(|_| mix_rng.gen_range(-2.0..2.0))
            .collect();
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        let target_mixture = exps.iter().map(|e| e / z).collect();
        Ok(DriftingStream {
            spec,
            seed,
            base_protos,
            target_protos,
            target_mixture,
        })
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> &DriftSpec {
        &self.spec
    }

    /// Ramp progress in `[0, 1]` at window `t`: `0` before `onset`,
    /// linear over `ramp` windows, then saturated.
    fn progress(&self, t: usize) -> f32 {
        if t < self.spec.onset {
            return 0.0;
        }
        (((t - self.spec.onset + 1) as f32) / self.spec.ramp as f32).min(1.0)
    }

    /// Prototype blend level at window `t` (`progress · magnitude`).
    fn drift_level(&self, t: usize) -> f32 {
        self.progress(t) * self.spec.magnitude
    }

    fn blended_proto(&self, cls: usize, level: f32) -> Array {
        if level == 0.0 {
            return self.base_protos[cls].clone();
        }
        self.base_protos[cls]
            .scale(1.0 - level)
            .add(&self.target_protos[cls].scale(level))
            .expect("same shape")
    }

    fn sample_class(&self, mix_level: f32, rng: &mut impl Rng) -> usize {
        let k = self.spec.base.classes;
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        for (c, &w) in self.target_mixture.iter().enumerate() {
            let p = (1.0 - mix_level as f64) / k as f64 + mix_level as f64 * w;
            acc += p;
            if u < acc {
                return c;
            }
        }
        k - 1
    }

    /// The `samples` examples device `device` observes in window `t`.
    /// A pure function of `(seed, device, t)`.
    pub fn window(&self, device: u64, t: usize, samples: usize) -> Dataset {
        let mut rng = SmallRng64::new(window_seed(self.seed, device, t as u64, 4));
        let level = self.drift_level(t);
        let mix_level = self.progress(t) * self.spec.mixture_shift;
        let mut images = Vec::with_capacity(samples);
        let mut labels = Vec::with_capacity(samples);
        for _ in 0..samples {
            let cls = self.sample_class(mix_level, &mut rng);
            let proto = self.blended_proto(cls, level);
            images.push(render_example(&proto, self.spec.base.noise, &mut rng));
            labels.push(cls);
        }
        Dataset::new(images, labels, self.spec.base.classes)
    }

    /// A class-balanced labeled evaluation set drawn at window `t`'s
    /// drift level — `per_class` examples of every class, regardless of
    /// the mixture shift. Deterministic in `(seed, device, t)` but
    /// independent of the samples [`window`](Self::window) returns.
    pub fn eval_set(&self, device: u64, t: usize, per_class: usize) -> Dataset {
        let mut rng = SmallRng64::new(window_seed(self.seed, device, t as u64, 5));
        let level = self.drift_level(t);
        let k = self.spec.base.classes;
        let mut images = Vec::with_capacity(k * per_class);
        let mut labels = Vec::with_capacity(k * per_class);
        for cls in 0..k {
            let proto = self.blended_proto(cls, level);
            for _ in 0..per_class {
                images.push(render_example(&proto, self.spec.base.noise, &mut rng));
                labels.push(cls);
            }
        }
        Dataset::new(images, labels, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(magnitude: f32, mixture_shift: f32) -> DriftSpec {
        DriftSpec {
            base: SyntheticSpec::tiny(),
            onset: 4,
            ramp: 2,
            magnitude,
            mixture_shift,
        }
    }

    fn mean_activation(ds: &Dataset) -> f64 {
        let mut total = 0.0f64;
        let mut count = 0usize;
        for i in 0..ds.len() {
            let img = ds.get(i).0;
            total += img.data().iter().map(|&v| v as f64).sum::<f64>();
            count += img.data().len();
        }
        total / count as f64
    }

    #[test]
    fn windows_are_pure_functions_of_seed_device_time() {
        let s1 = DriftingStream::new(tiny_spec(0.8, 0.5), 42).unwrap();
        let s2 = DriftingStream::new(tiny_spec(0.8, 0.5), 42).unwrap();
        for t in [0usize, 3, 4, 9] {
            let a = s1.window(7, t, 20);
            let b = s2.window(7, t, 20);
            assert_eq!(a.labels(), b.labels());
            for i in 0..a.len() {
                assert_eq!(a.get(i).0.data(), b.get(i).0.data(), "t={t} i={i}");
            }
        }
        // Different devices and different windows diverge.
        let a = s1.window(7, 0, 20);
        let b = s1.window(8, 0, 20);
        assert_ne!(a.get(0).0.data(), b.get(0).0.data());
        let c = s1.window(7, 1, 20);
        assert_ne!(a.get(0).0.data(), c.get(0).0.data());
    }

    #[test]
    fn pre_onset_windows_are_independent_of_drift_knobs() {
        let calm = DriftingStream::new(tiny_spec(0.0, 0.0), 9).unwrap();
        let wild = DriftingStream::new(tiny_spec(1.0, 1.0), 9).unwrap();
        for t in 0..4 {
            let a = calm.window(3, t, 16);
            let b = wild.window(3, t, 16);
            assert_eq!(a.labels(), b.labels());
            for i in 0..a.len() {
                assert_eq!(a.get(i).0.data(), b.get(i).0.data());
            }
        }
    }

    #[test]
    fn progress_ramps_linearly_and_saturates() {
        let s = DriftingStream::new(tiny_spec(0.5, 0.0), 0).unwrap();
        assert_eq!(s.progress(0), 0.0);
        assert_eq!(s.progress(3), 0.0);
        assert_eq!(s.progress(4), 0.5);
        assert_eq!(s.progress(5), 1.0);
        assert_eq!(s.progress(100), 1.0);
        assert!((s.drift_level(100) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn larger_magnitude_moves_the_input_statistics_further() {
        // Distance of post-drift mean activation from pre-drift grows
        // with magnitude.
        let shift = |mag: f32| {
            let s = DriftingStream::new(tiny_spec(mag, 0.0), 5).unwrap();
            let pre = mean_activation(&s.window(0, 0, 200));
            let post = mean_activation(&s.window(0, 50, 200));
            (post - pre).abs()
        };
        assert!(shift(0.0) < 0.05, "zero drift moved the stream");
        assert!(shift(1.0) > shift(0.0));
    }

    #[test]
    fn mixture_shift_skews_label_frequencies_post_onset() {
        let s = DriftingStream::new(tiny_spec(0.0, 1.0), 13).unwrap();
        let count = |ds: &Dataset| {
            let mut c = vec![0usize; ds.num_classes()];
            for &l in ds.labels() {
                c[l] += 1;
            }
            c
        };
        let pre = count(&s.window(1, 0, 400));
        let post = count(&s.window(1, 50, 400));
        let spread = |c: &[usize]| c.iter().max().unwrap() - c.iter().min().unwrap();
        assert!(
            spread(&post) > 2 * spread(&pre).max(1),
            "pre {pre:?} post {post:?}"
        );
    }

    #[test]
    fn eval_sets_are_balanced_at_any_time() {
        let s = DriftingStream::new(tiny_spec(0.9, 0.9), 21).unwrap();
        for t in [0usize, 10] {
            let ev = s.eval_set(2, t, 6);
            let mut counts = vec![0usize; ev.num_classes()];
            for &l in ev.labels() {
                counts[l] += 1;
            }
            assert!(counts.iter().all(|&c| c == 6), "{counts:?}");
        }
    }

    #[test]
    fn degenerate_drift_specs_are_typed_errors() {
        let mut spec = tiny_spec(0.5, 0.0);
        spec.ramp = 0;
        assert_eq!(
            DriftingStream::new(spec, 0).err(),
            Some(DataError::BadDriftSpec { field: "ramp" })
        );
        let spec = tiny_spec(1.5, 0.0);
        assert_eq!(
            DriftingStream::new(spec, 0).err(),
            Some(DataError::BadDriftSpec { field: "magnitude" })
        );
        let spec = tiny_spec(0.5, -0.1);
        assert_eq!(
            DriftingStream::new(spec, 0).err(),
            Some(DataError::BadDriftSpec {
                field: "mixture_shift"
            })
        );
        let mut spec = tiny_spec(0.5, 0.0);
        spec.base.classes = 0;
        assert_eq!(
            DriftingStream::new(spec, 0).err(),
            Some(DataError::DegenerateSpec { field: "classes" })
        );
    }
}
