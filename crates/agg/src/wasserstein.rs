//! Wasserstein distances: exact 1-D solutions and the sliced
//! approximation used for high-dimensional feature clouds.

use acme_tensor::{randn, Array, SmallRng64};

use crate::error::MetricError;

/// Exact 1-Wasserstein distance between two empirical sample sets on the
/// line (L1 ground cost): `∫₀¹ |F_a⁻¹(t) - F_b⁻¹(t)| dt` under the
/// quantile coupling. Sample counts may differ.
///
/// The quantile functions are piecewise constant with breakpoints at
/// `i/n` and `j/m`, so the integral is evaluated *exactly* by walking the
/// merged breakpoint set — no sampling grid is involved. Breakpoints are
/// compared as scaled integers over the common denominator `n·m`, so the
/// segmentation itself is exact too.
///
/// Two empty sets are identical distributions-to-be, so
/// empty-vs-empty is well-defined and returns `Ok(0.0)`.
///
/// # Errors
///
/// Returns [`MetricError::EmptyWindow`] when exactly one set is empty:
/// the coupling against an empty distribution is undefined, and the
/// `0.0` this function used to return silently read as "zero distance /
/// no drift" to windowed callers whose buffer had not filled yet.
/// Returns [`MetricError::NonFinite`] when either set holds a NaN or an
/// infinity.
pub fn wasserstein_1d_samples(xs: &[f32], ys: &[f32]) -> Result<f64, MetricError> {
    match (xs.is_empty(), ys.is_empty()) {
        (true, true) => return Ok(0.0),
        (false, false) => {}
        _ => {
            return Err(MetricError::EmptyWindow {
                left: xs.len(),
                right: ys.len(),
            })
        }
    }
    if !xs.iter().chain(ys).all(|v| v.is_finite()) {
        return Err(MetricError::NonFinite);
    }
    let mut a: Vec<f32> = xs.to_vec();
    let mut b: Vec<f32> = ys.to_vec();
    a.sort_by(|p, q| p.partial_cmp(q).expect("checked finite above"));
    b.sort_by(|p, q| p.partial_cmp(q).expect("checked finite above"));
    let (n, m) = (a.len() as u64, b.len() as u64);
    // On segment [t_prev, t_next), F_a⁻¹ = a[i] and F_b⁻¹ = b[j]. The
    // next breakpoint is min((i+1)/n, (j+1)/m); times n·m that is
    // min((i+1)·m, (j+1)·n).
    let (mut i, mut j) = (0u64, 0u64);
    let mut t_prev = 0u64; // in units of 1/(n·m)
    let mut total = 0.0f64;
    while i < n && j < m {
        let next_a = (i + 1) * m;
        let next_b = (j + 1) * n;
        let t_next = next_a.min(next_b);
        total += (t_next - t_prev) as f64 * (a[i as usize] - b[j as usize]).abs() as f64;
        if next_a == t_next {
            i += 1;
        }
        if next_b == t_next {
            j += 1;
        }
        t_prev = t_next;
    }
    Ok(total / (n * m) as f64)
}

/// Sliced 1-Wasserstein distance between two feature clouds `x: [n, d]`,
/// `y: [m, d]`: the average exact 1-D distance over `projections` random
/// unit directions. This preserves the ranking structure of the full
/// Wasserstein distance (Eq. 20 of the paper uses the distance only to
/// *rank* device similarity) while staying exactly computable.
///
/// Two empty clouds compare at `Ok(0.0)`, like
/// [`wasserstein_1d_samples`].
///
/// # Errors
///
/// Returns [`MetricError::ZeroProjections`], [`MetricError::BadRank`],
/// [`MetricError::WidthMismatch`], [`MetricError::EmptyWindow`]
/// (exactly one cloud has zero rows), or [`MetricError::NonFinite`] (a
/// NaN or infinite feature, or finite features whose projection
/// overflows) on degenerate inputs.
pub fn sliced_wasserstein(
    x: &Array,
    y: &Array,
    projections: usize,
    rng: &mut SmallRng64,
) -> Result<f64, MetricError> {
    if projections == 0 {
        return Err(MetricError::ZeroProjections);
    }
    if x.rank() != 2 {
        return Err(MetricError::BadRank {
            arg: "x",
            rank: x.rank(),
        });
    }
    if y.rank() != 2 {
        return Err(MetricError::BadRank {
            arg: "y",
            rank: y.rank(),
        });
    }
    if x.shape()[1] != y.shape()[1] {
        return Err(MetricError::WidthMismatch {
            left: x.shape()[1],
            right: y.shape()[1],
        });
    }
    match (x.shape()[0] == 0, y.shape()[0] == 0) {
        (true, true) => return Ok(0.0),
        (false, false) => {}
        _ => {
            return Err(MetricError::EmptyWindow {
                left: x.shape()[0],
                right: y.shape()[0],
            })
        }
    }
    let d = x.shape()[1];
    let mut total = 0.0f64;
    for _ in 0..projections {
        let dir = randn(&[d], rng);
        let norm = dir.sq_norm().sqrt().max(1e-12);
        let project = |m: &Array| -> Vec<f32> {
            let n = m.shape()[0];
            (0..n)
                .map(|i| {
                    let row = &m.data()[i * d..(i + 1) * d];
                    row.iter()
                        .zip(dir.data())
                        .map(|(&a, &b)| a * b)
                        .sum::<f32>()
                        / norm
                })
                .collect()
        };
        total += wasserstein_1d_samples(&project(x), &project(y))?;
    }
    Ok(total / projections as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::SmallRng64;

    #[test]
    fn identical_samples_distance_zero() {
        let xs = [1.0, 2.0, 3.0];
        assert!(wasserstein_1d_samples(&xs, &xs).unwrap() < 1e-9);
    }

    #[test]
    fn shifted_samples_distance_equals_shift() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [3.0, 4.0, 5.0];
        let d = wasserstein_1d_samples(&xs, &ys).unwrap();
        assert!((d - 3.0).abs() < 1e-6, "got {d}");
    }

    #[test]
    fn unequal_sample_counts_supported() {
        let xs = [0.0, 0.0, 0.0, 0.0];
        let ys = [1.0];
        let d = wasserstein_1d_samples(&xs, &ys).unwrap();
        assert!((d - 1.0).abs() < 1e-6, "got {d}");
    }

    #[test]
    fn empty_vs_nonempty_is_a_typed_error() {
        // Regression (PR 10): this used to return `Ok(0.0)`, which a
        // sliding-window drift detector reads as "no drift" while its
        // buffer is still empty.
        assert_eq!(
            wasserstein_1d_samples(&[], &[1.0]),
            Err(MetricError::EmptyWindow { left: 0, right: 1 })
        );
        assert_eq!(
            wasserstein_1d_samples(&[1.0, 2.0], &[]),
            Err(MetricError::EmptyWindow { left: 2, right: 0 })
        );
    }

    #[test]
    fn non_finite_samples_are_a_typed_error() {
        // Regression: the sort's `expect("finite samples")` panicked.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(
                wasserstein_1d_samples(&[bad, 1.0], &[0.0, 1.0]),
                Err(MetricError::NonFinite)
            );
            assert_eq!(
                wasserstein_1d_samples(&[0.0, 1.0], &[1.0, bad]),
                Err(MetricError::NonFinite)
            );
        }
    }

    #[test]
    fn sliced_over_a_non_finite_feature_is_a_typed_error() {
        let mut rng = SmallRng64::new(5);
        let x = randn(&[6, 4], &mut rng);
        let mut poisoned = x.data().to_vec();
        poisoned[9] = f32::NAN;
        let y = Array::from_vec(poisoned, &[6, 4]).unwrap();
        assert_eq!(
            sliced_wasserstein(&x, &y, 4, &mut rng),
            Err(MetricError::NonFinite)
        );
        assert_eq!(
            sliced_wasserstein(&y, &x, 4, &mut rng),
            Err(MetricError::NonFinite)
        );
        // ... and so is the similarity matrix an edge builds from it.
        let pool = acme_runtime::Pool::new(2);
        assert_eq!(
            crate::similarity_matrix_wasserstein_on(&pool, &[x.clone(), y, x], 4, &mut rng),
            Err(MetricError::NonFinite)
        );
    }

    #[test]
    fn empty_vs_empty_is_well_defined_zero() {
        assert_eq!(wasserstein_1d_samples(&[], &[]), Ok(0.0));
    }

    #[test]
    fn unequal_counts_match_hand_computed_quantile_integrals() {
        // a=[0,1], b=[0,1,2]: segments of |F_a⁻¹ - F_b⁻¹| are
        // [1/3,1/2)→1 and [2/3,1)→1, so W1 = 1/6 + 1/3 = 1/2.
        let d = wasserstein_1d_samples(&[0.0, 1.0], &[0.0, 1.0, 2.0]).unwrap();
        assert!((d - 0.5).abs() < 1e-9, "got {d}");
        // a=[0], b=[1,3]: W1 = 0.5·1 + 0.5·3 = 2.
        let d = wasserstein_1d_samples(&[0.0], &[1.0, 3.0]).unwrap();
        assert!((d - 2.0).abs() < 1e-9, "got {d}");
        // Order must not matter.
        let d2 = wasserstein_1d_samples(&[1.0, 3.0], &[0.0]).unwrap();
        assert!((d - d2).abs() < 1e-12);
    }

    #[test]
    fn merged_breakpoints_beat_the_old_uniform_grid() {
        // Regression: with n=3, m=4 the breakpoints 1/3 and 2/3 are not
        // representable on a uniform 2·max(n,m)=8 grid, which misweights
        // the segments and yields 8.75. The exact integral over the
        // merged breakpoints {1/4, 1/3, 1/2, 2/3, 3/4} is
        // (1 + 18 + 16 + 18 + 51)/12 = 104/12.
        let d = wasserstein_1d_samples(&[0.0, 10.0, 20.0], &[0.0, 1.0, 2.0, 3.0]).unwrap();
        assert!((d - 104.0 / 12.0).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn sliced_ranks_clouds_by_separation() {
        let mut rng = SmallRng64::new(0);
        let base = randn(&[40, 8], &mut rng);
        let near = base.map(|v| v + 0.1);
        let far = base.map(|v| v + 5.0);
        let mut r1 = SmallRng64::new(1);
        let d_near = sliced_wasserstein(&base, &near, 16, &mut r1).unwrap();
        let mut r2 = SmallRng64::new(1);
        let d_far = sliced_wasserstein(&base, &far, 16, &mut r2).unwrap();
        assert!(d_near < d_far, "{d_near} vs {d_far}");
    }

    #[test]
    fn sliced_self_distance_is_small() {
        let mut rng = SmallRng64::new(3);
        let x = randn(&[30, 4], &mut rng);
        let d = sliced_wasserstein(&x, &x, 8, &mut rng).unwrap();
        assert!(d < 1e-6, "self distance {d}");
    }

    #[test]
    fn sliced_rejects_degenerate_inputs() {
        let mut rng = SmallRng64::new(0);
        let x = randn(&[3, 4], &mut rng);
        let y = randn(&[3, 5], &mut rng);
        assert_eq!(
            sliced_wasserstein(&x, &y, 4, &mut rng),
            Err(MetricError::WidthMismatch { left: 4, right: 5 })
        );
        assert_eq!(
            sliced_wasserstein(&x, &x.clone(), 0, &mut rng),
            Err(MetricError::ZeroProjections)
        );
        let flat = randn(&[12], &mut rng);
        assert_eq!(
            sliced_wasserstein(&flat, &x, 4, &mut rng),
            Err(MetricError::BadRank { arg: "x", rank: 1 })
        );
        let empty = Array::zeros(&[0, 4]);
        assert_eq!(
            sliced_wasserstein(&empty, &x, 4, &mut rng),
            Err(MetricError::EmptyWindow { left: 0, right: 3 })
        );
        assert_eq!(sliced_wasserstein(&empty, &empty, 4, &mut rng), Ok(0.0));
    }
}
