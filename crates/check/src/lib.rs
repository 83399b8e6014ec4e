//! A seeded property-test harness, std only.
//!
//! A property is a closure over a [`Gen`], the SplitMix64 stream it draws
//! its inputs from. [`cases`] runs it on `n` streams seeded from one
//! fixed root, so every run of a test sees the same inputs. When a case
//! panics, [`replay`] prints that case's seed before the panic continues;
//! `replay(seed, ..)` with the same closure re-runs exactly that case —
//! as a `#[test]` of its own, that is the regression test.
//!
//! There is no shrinking: a failure shows the inputs the property drew,
//! not a minimal counterexample, so name them in the assertion message.
//! (The longest vector drawn in this workspace has 96 elements.)
//!
//! ```
//! acme_check::cases(256, |g| {
//!     let xs = g.vec(0..16, |g| g.f32(-1.0..1.0));
//!     let n = g.usize(1..5);
//!     assert!(xs.len() * n < 64, "{xs:?} x {n}");
//! });
//! ```

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The seed every [`cases`] run derives its case seeds from.
const ROOT: u64 = 0xACE5_EED5_0C0F_FEE5;

/// A SplitMix64 stream: the source of one case's inputs. Every ranged
/// draw is from a half-open range and panics on an empty one.
pub struct Gen(u64);

impl Gen {
    /// The next 64 bits of the stream: any `u64`, or any `u32` after
    /// `as u32`.
    pub fn bits(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.bits() % (range.end - range.start)
    }

    pub fn u32(&mut self, range: Range<u32>) -> u32 {
        self.u64(range.start.into()..range.end.into()) as u32
    }

    pub fn usize(&mut self, range: Range<usize>) -> usize {
        self.u64(range.start as u64..range.end as u64) as usize
    }

    /// On a grid of 2^53 steps from `range.start`.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range");
        let unit = (self.bits() >> 11) as f64 / (1u64 << 53) as f64;
        // Rounding can land the sum on the excluded end.
        (range.start + unit * (range.end - range.start)).min(range.end.next_down())
    }

    pub fn f32(&mut self, range: Range<f32>) -> f32 {
        let x = self.f64(range.start.into()..range.end.into()) as f32;
        x.min(range.end.next_down())
    }

    /// A vector whose length is drawn from `len`, then its items in order.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.usize(len)).map(|_| item(self)).collect()
    }
}

/// Runs `property` on `n` cases, each a [`Gen`] seeded from a fixed
/// root, and stops at the first that panics (see [`replay`]).
pub fn cases(n: u32, mut property: impl FnMut(&mut Gen)) {
    let mut seeds = Gen(ROOT);
    for _ in 0..n {
        replay(seeds.bits(), &mut property);
    }
}

/// Runs `property` on the one case `seed` names. If it panics, the seed
/// is printed to stderr and the panic continues.
pub fn replay(seed: u64, property: impl FnOnce(&mut Gen)) {
    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut Gen(seed)))) {
        eprintln!("acme-check: the property failed on acme_check::replay({seed:#018x}, ..)");
        resume_unwind(panic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn message(panic: Box<dyn std::any::Any + Send>) -> String {
        panic
            .downcast_ref::<String>()
            .expect("assert! with arguments panics with a String")
            .clone()
    }

    #[test]
    fn draws_stay_in_range_and_reach_both_ends() {
        let mut g = Gen(1);
        let draws: Vec<usize> = (0..400).map(|_| g.usize(3..7)).collect();
        assert_eq!(draws.iter().min(), Some(&3));
        assert_eq!(draws.iter().max(), Some(&6));
        assert!((0..400).all(|_| g.usize(2..3) == 2));
        assert!((0..400).all(|_| (5..10).contains(&g.u32(5..10))));
        assert_eq!(g.u64(u64::MAX - 1..u64::MAX), u64::MAX - 1);
        assert!((0..400).any(|_| g.bits() > u64::MAX / 2));
        for _ in 0..400 {
            let x = g.f32(-0.5..0.25);
            assert!((-0.5..0.25).contains(&x), "{x}");
            // Every draw but the first rounds up onto the end.
            assert_eq!(g.f64(1.0..1.0 + f64::EPSILON), 1.0);
            assert_eq!(g.f32(1.0..1.0 + f32::EPSILON), 1.0);
        }
        let lens: Vec<usize> = (0..200).map(|_| g.vec(0..4, |g| g.bits()).len()).collect();
        assert_eq!(lens.iter().max(), Some(&3));
        assert_eq!(lens.iter().min(), Some(&0));
    }

    #[test]
    fn a_seed_names_its_case() {
        let draw = |seed| {
            let mut g = Gen(seed);
            (g.bits(), g.f64(0.0..1.0), g.vec(1..9, |g| g.usize(0..100)))
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn cases_runs_n_distinct_cases() {
        let mut seen = std::collections::HashSet::new();
        cases(256, |g| {
            seen.insert(g.bits());
        });
        assert_eq!(seen.len(), 256);
    }

    #[test]
    fn a_failing_case_replays_from_its_seed() {
        let property = |g: &mut Gen| {
            let xs = g.vec(1..8, |g| g.u32(0..100));
            assert!(xs.iter().sum::<u32>() < 300, "sum of {xs:?}");
        };
        // `cases` stops at the first failing case; count how far it got
        // to name that case's seed the way `cases` derives it.
        let ran = Cell::new(0);
        let first = catch_unwind(AssertUnwindSafe(|| {
            cases(256, |g| {
                ran.set(ran.get() + 1);
                property(g);
            })
        }))
        .expect_err("some case sums to 300 or more");
        assert!(ran.get() < 256, "the loop must stop at the failure");
        let mut seeds = Gen(ROOT);
        let seed = (0..ran.get()).map(|_| seeds.bits()).last().unwrap();

        let again = catch_unwind(|| replay(seed, property)).expect_err("same case, same failure");
        assert_eq!(message(again), message(first));
    }
}
