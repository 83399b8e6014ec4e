//! Random array constructors and a small deterministic RNG wrapper.
//!
//! All experiment code in the workspace seeds explicitly through
//! [`SmallRng64`] so every table and figure is reproducible run-to-run.

use crate::array::Array;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic RNG seeded from a single `u64`, used across the
/// workspace for reproducible experiments.
///
/// This is a thin newtype over [`rand::rngs::StdRng`]; it exists so that
/// downstream crates depend on one seeding convention rather than on a
/// particular generator.
#[derive(Debug, Clone)]
pub struct SmallRng64(StdRng);

impl SmallRng64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SmallRng64(StdRng::seed_from_u64(seed))
    }

    /// Derives an independent child generator; `salt` distinguishes
    /// siblings derived from the same parent.
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.0.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SmallRng64(StdRng::seed_from_u64(s))
    }
}

impl RngCore for SmallRng64 {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> std::result::Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

/// Samples a standard-normal array via the Box–Muller transform.
pub fn randn(shape: &[usize], rng: &mut impl Rng) -> Array {
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos());
        if data.len() < n {
            data.push(r * theta.sin());
        }
    }
    Array::from_vec(data, shape).expect("volume matches by construction")
}

/// Samples a uniform array over `[lo, hi)`.
pub(crate) fn uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Array {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
    Array::from_vec(data, shape).expect("volume matches by construction")
}

/// Kaiming-uniform initialization for a weight with `fan_in` inputs:
/// `U(-sqrt(6/fan_in), sqrt(6/fan_in))`.
pub fn kaiming_uniform(shape: &[usize], fan_in: usize, rng: &mut impl Rng) -> Array {
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    uniform(shape, -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let a = randn(&[16], &mut SmallRng64::new(7));
        let b = randn(&[16], &mut SmallRng64::new(7));
        assert_eq!(a, b);
        let c = randn(&[16], &mut SmallRng64::new(8));
        assert_ne!(a, c);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SmallRng64::new(1);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        assert_ne!(randn(&[8], &mut a), randn(&[8], &mut b));
    }

    #[test]
    fn randn_moments_roughly_standard() {
        let a = randn(&[10_000], &mut SmallRng64::new(42));
        let mean = a.sum() / a.len() as f32;
        let var = a.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / a.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let a = uniform(&[1000], -2.0, 3.0, &mut SmallRng64::new(3));
        assert!(a.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn kaiming_bound_scales_with_fan_in() {
        let a = kaiming_uniform(&[1000], 6, &mut SmallRng64::new(3));
        assert!(a.data().iter().all(|&x| x.abs() <= 1.0));
    }

    #[test]
    fn randn_odd_length() {
        assert_eq!(randn(&[7], &mut SmallRng64::new(0)).len(), 7);
    }
}
