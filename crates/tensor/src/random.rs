//! The workspace's one random number generator, [`SmallRng64`], and the
//! random array constructors built on it.
//!
//! Every seeded result of the reproduction — the device partitions,
//! Phase 1's initialisations, the NAS controller's samples, the Pareto
//! tie-break, the drift streams — draws from this module, so a run's bits
//! are a function of the source and the seed alone: no dependency's
//! choice of generator or sampling rule enters them.

use std::ops::{Bound, Range, RangeBounds};

use crate::array::Array;
use crate::pool;

/// SplitMix64's increment, also the salt multiplier of [`SmallRng64::fork`].
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic generator seeded from a single `u64`, used across the
/// workspace for reproducible experiments: xoshiro256++ (Blackman &
/// Vigna) over a state that SplitMix64 expands from the seed.
#[derive(Debug, Clone)]
pub struct SmallRng64 {
    s: [u64; 4],
}

impl SmallRng64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            // SplitMix64, which never yields four zero words in a row.
            z = z.wrapping_add(GOLDEN_GAMMA);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = x ^ (x >> 31);
        }
        SmallRng64 { s }
    }

    /// Derives an independent child generator; `salt` distinguishes
    /// siblings derived from the same parent.
    pub fn fork(&mut self, salt: u64) -> Self {
        SmallRng64::new(self.next_u64() ^ salt.wrapping_mul(GOLDEN_GAMMA))
    }

    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform on `[0, 1)` from the top 24 bits of one draw.
    #[inline]
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform on `[0, 1)` from the top 53 bits of one draw.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform over `range` (`lo..hi` or `lo..=hi`), by rejection so no
    /// value is favoured.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn usize_in(&mut self, range: impl RangeBounds<usize>) -> usize {
        let lo = match range.start_bound() {
            Bound::Included(&lo) => lo,
            Bound::Excluded(&lo) => lo + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&hi) => Some(hi),
            Bound::Excluded(&hi) => hi.checked_sub(1),
            Bound::Unbounded => Some(usize::MAX),
        };
        let hi = hi.filter(|&hi| lo <= hi).expect("usize_in: empty range");
        // Width of the range; 0 stands for all 2^64 values.
        let span = ((hi - lo) as u64).wrapping_add(1);
        let offset = if span == 0 {
            self.next_u64()
        } else {
            self.below(span)
        };
        lo + offset as usize
    }

    /// Uniform on `[0, span)`: draws past the last whole multiple of
    /// `span` are redrawn.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX % span + 1) % span;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return x % span;
            }
        }
    }

    /// Uniform on `[lo, hi)`; a draw that rounds onto `hi` is redrawn.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`.
    #[inline]
    pub fn f32_in(&mut self, range: Range<f32>) -> f32 {
        let Range { start: lo, end: hi } = range;
        assert!(lo < hi, "f32_in: empty range");
        loop {
            let x = lo + (hi - lo) * self.unit_f32();
            if x < hi {
                return x;
            }
        }
    }

    /// Uniform on `[lo, hi)`; a draw that rounds onto `hi` is redrawn.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`.
    #[inline]
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        let Range { start: lo, end: hi } = range;
        assert!(lo < hi, "f64_in: empty range");
        loop {
            let x = lo + (hi - lo) * self.unit_f64();
            if x < hi {
                return x;
            }
        }
    }

    /// Shuffles `items` in place (Fisher–Yates, from the last slot down).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.usize_in(0..=i));
        }
    }
}

/// Lets code outside the workspace's crates draw from a [`SmallRng64`]
/// through `rand`'s traits; every method is an inherent draw above.
impl rand::RngCore for SmallRng64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (SmallRng64::next_u64(self) >> 32) as u32
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        SmallRng64::next_u64(self)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = SmallRng64::next_u64(self).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// Samples a standard-normal array via the Box–Muller transform, into a
/// pooled buffer: most draws are short-lived noise (a synthetic example's,
/// a projection direction), and a class-sized buffer born outside the
/// pool would be filed as a stand-in for one the pool handed out.
/// Weight initialisations ([`kaiming_uniform`]) stay outside the pool:
/// a model store built and dropped would leave them idle on the free
/// lists.
pub fn randn(shape: &[usize], rng: &mut SmallRng64) -> Array {
    let n: usize = shape.iter().product();
    let mut data = pool::take(n);
    while data.len() < n {
        let u1 = rng.f32_in(f32::EPSILON..1.0);
        let u2 = rng.f32_in(0.0..1.0);
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
pub(crate) fn uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut SmallRng64) -> Array {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.f32_in(lo..hi)).collect();
    Array::from_vec(data, shape).expect("volume matches by construction")
}

/// Kaiming-uniform initialization for a weight with `fan_in` inputs:
/// `U(-sqrt(6/fan_in), sqrt(6/fan_in))`.
pub fn kaiming_uniform(shape: &[usize], fan_in: usize, rng: &mut SmallRng64) -> Array {
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    uniform(shape, -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind of draw, by bits, as the generator produced it when it
    /// was a stand-in for `rand` 0.8's `StdRng` behind `rand`'s traits:
    /// a change here moves every seeded result in the workspace.
    #[test]
    fn stream_pins_every_draw() {
        let words = |seed| {
            let mut r = SmallRng64::new(seed);
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(
            words(0),
            [
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a
            ]
        );
        assert_eq!(
            words(1),
            [
                0xcfc5d07f6f03c29b,
                0xbf424132963fe08d,
                0x19a37d5757aaf520,
                0xbf08119f05cd56d6
            ]
        );
        assert_eq!(
            words(42),
            [
                0xd0764d4f4476689f,
                0x519e4174576f3791,
                0xfbe07cfb0c24ed8c,
                0xb37d9f600cd835b8
            ]
        );

        let mut parent = SmallRng64::new(3);
        assert_eq!(parent.fork(0).next_u64(), 0xeefe00d925893cb4);
        assert_eq!(parent.fork(7).next_u64(), 0x6678be72c06b2c04);

        let mut r = SmallRng64::new(5);
        let f32s: Vec<u32> = (0..3).map(|_| r.unit_f32().to_bits()).collect();
        assert_eq!(f32s, [0x3e958404, 0x3f1c874b, 0x3dc8a0f0]);
        let f64s: Vec<u64> = (0..3).map(|_| r.unit_f64().to_bits()).collect();
        assert_eq!(
            f64s,
            [0x3fae024999a00c10, 0x3fe0dda5709045e3, 0x3fe680a95b988337]
        );
        let below: Vec<usize> = (0..6).map(|_| r.usize_in(0..7)).collect();
        assert_eq!(below, [3, 2, 5, 5, 1, 3]);
        let inclusive: Vec<usize> = (0..6).map(|_| r.usize_in(3..=9)).collect();
        assert_eq!(inclusive, [8, 6, 6, 7, 5, 6]);
        let randn_u1: Vec<u32> = (0..3)
            .map(|_| r.f32_in(f32::EPSILON..1.0).to_bits())
            .collect();
        assert_eq!(randn_u1, [0x3dae92cf, 0x3f0ad25f, 0x3eef5b8e]);
        let wide: Vec<u64> = (0..3).map(|_| r.f64_in(-2.5..4.0).to_bits()).collect();
        assert_eq!(
            wide,
            [0xbfee48f96c4d0b50, 0x3fffd799430e7d74, 0x3fe1747c44b9e368]
        );
        let mut items: Vec<usize> = (0..10).collect();
        r.shuffle(&mut items);
        assert_eq!(items, [5, 0, 8, 7, 6, 9, 2, 4, 1, 3]);
        assert_eq!(r.next_u64(), 0xfcd18a77dab0443a);
    }

    #[test]
    fn range_draws_stay_in_range_and_reject_empty_ones() {
        let mut r = SmallRng64::new(9);
        assert!((0..1000).all(|_| r.usize_in(4..7) < 7 && r.usize_in(4..=4) == 4));
        assert!((0..1000).all(|_| (-1.0..1.0).contains(&r.f32_in(-1.0..1.0))));
        for empty in [
            std::panic::catch_unwind(|| SmallRng64::new(0).usize_in(3..3)),
            std::panic::catch_unwind(|| SmallRng64::new(0).usize_in(0..0)),
        ] {
            assert!(empty.is_err());
        }
        assert!(std::panic::catch_unwind(|| SmallRng64::new(0).f64_in(1.0..1.0)).is_err());
    }

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
