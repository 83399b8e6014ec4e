//! Device-similarity matrices (Eqs. 19–20).

use acme_runtime::Pool;
use acme_tensor::{Array, SmallRng64};

use crate::divergence::js_divergence;
use crate::error::MetricError;
use crate::wasserstein::sliced_wasserstein;

/// Similarity matrix from per-device feature clouds using the Wasserstein
/// distance (Eq. 19): `w_ij = 1 / (1 + W̃_ij)` where `W̃_ij` is the sliced
/// 1-Wasserstein distance between device `i`'s and device `j`'s features.
///
/// `features[i]` is an `[n_i, d]` matrix of extracted features from a
/// tiny random sample of `D_i` (the paper's `D̃_i`). Every upper-triangle
/// pair is computed as one task on `pool`, drawing its projections from
/// its own RNG stream, forked from `rng` in row-major pair order before
/// the fan-out, so the matrix is identical at any thread count.
///
/// # Errors
///
/// Returns [`MetricError::NoDevices`] for an empty fleet and propagates
/// any [`sliced_wasserstein`] validation error (mismatched widths, bad
/// ranks, empty clouds); the first in row-major pair order is the one
/// reported.
pub fn similarity_matrix_wasserstein_on(
    pool: &Pool,
    features: &[Array],
    projections: usize,
    rng: &mut SmallRng64,
) -> Result<Vec<Vec<f64>>, MetricError> {
    if features.is_empty() {
        return Err(MetricError::NoDevices);
    }
    let n = features.len();
    let mut pairs: Vec<(usize, usize, SmallRng64)> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push((i, j, rng.fork((i * n + j) as u64)));
        }
    }
    let dists = pool.par_map(pairs, |_, (i, j, mut pair_rng)| {
        let d = sliced_wasserstein(&features[i], &features[j], projections, &mut pair_rng);
        (i, j, d.map(|d| 1.0 / (1.0 + d)))
    });
    let mut sim = vec![vec![0.0; n]; n];
    for (i, row) in sim.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    // `par_map` preserves input order, so the first error here is the
    // first in row-major pair order — identical to the serial function.
    for (i, j, w) in dists {
        let w = w?;
        sim[i][j] = w;
        sim[j][i] = w;
    }
    Ok(sim)
}

/// Similarity matrix from per-device label distributions using the JS
/// divergence — the `JS` baseline of Figs. 10–11: `w_ij = 1/(1+JS_ij)`.
///
/// # Errors
///
/// Returns [`MetricError::NoDevices`] for an empty fleet and
/// [`MetricError::LengthMismatch`] when distributions have different
/// supports.
pub fn similarity_matrix_js(label_dists: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, MetricError> {
    if label_dists.is_empty() {
        return Err(MetricError::NoDevices);
    }
    let n = label_dists.len();
    let mut sim = vec![vec![0.0; n]; n];
    for i in 0..n {
        sim[i][i] = 1.0;
        for j in (i + 1)..n {
            let d = js_divergence(&label_dists[i], &label_dists[j])?;
            let w = 1.0 / (1.0 + d);
            sim[i][j] = w;
            sim[j][i] = w;
        }
    }
    Ok(sim)
}

/// Regularizes a similarity matrix per Eq. (20): symmetrize through the
/// elementwise square root of `W·Wᵀ`, then normalize rows with a softmax
/// at temperature `tau`. Every row of the result sums to 1.
///
/// Eq. (20) of the paper writes a plain softmax; the authors' Wasserstein
/// distances over deep features span a wide numeric range, whereas the
/// sliced distances over this reproduction's pixel features are
/// compressed into `[0, 1]`, which a unit-temperature softmax flattens to
/// near-uniform weights. A small `tau` (e.g. `0.02`) restores the
/// contrast the paper's Fig. 10 displays without changing the ranking.
///
/// # Errors
///
/// Returns [`MetricError::NotSquare`] on a non-square input and
/// [`MetricError::BadTemperature`] when `tau` is not positive and finite.
pub fn normalize_similarity_with_temperature(
    sim: &[Vec<f64>],
    tau: f64,
) -> Result<Vec<Vec<f64>>, MetricError> {
    let n = sim.len();
    if let Some(row) = sim.iter().find(|r| r.len() != n) {
        return Err(MetricError::NotSquare {
            rows: n,
            row_len: row.len(),
        });
    }
    if !(tau > 0.0 && tau.is_finite()) {
        return Err(MetricError::BadTemperature(tau));
    }
    // W̄ = sqrt(W · Wᵀ) elementwise.
    let mut bar = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            let dot: f64 = (0..n).map(|k| sim[i][k] * sim[j][k]).sum();
            bar[i][j] = dot.max(0.0).sqrt();
        }
    }
    // Row-wise softmax (Eq. 20).
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        let m = bar[i].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = bar[i].iter().map(|&v| ((v - m) / tau).exp()).collect();
        let s: f64 = exps.iter().sum();
        for j in 0..n {
            out[i][j] = exps[j] / s;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::{randn, SmallRng64};

    #[test]
    fn wasserstein_similarity_is_symmetric_with_unit_diagonal() {
        let mut rng = SmallRng64::new(0);
        let feats: Vec<Array> = (0..3).map(|_| randn(&[10, 4], &mut rng)).collect();
        let sim = similarity_matrix_wasserstein_on(&Pool::serial(), &feats, 8, &mut rng).unwrap();
        for (i, row) in sim.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, sim[j][i]);
                assert!(v > 0.0 && v <= 1.0);
            }
        }
    }

    #[test]
    fn similar_devices_get_higher_similarity() {
        let mut rng = SmallRng64::new(1);
        let base = randn(&[20, 4], &mut rng);
        let near = base.map(|v| v + 0.05);
        let far = base.map(|v| v + 4.0);
        let sim =
            similarity_matrix_wasserstein_on(&Pool::serial(), &[base, near, far], 16, &mut rng)
                .unwrap();
        assert!(sim[0][1] > sim[0][2]);
    }

    #[test]
    fn parallel_similarity_is_thread_count_invariant() {
        let mut rng = SmallRng64::new(3);
        let feats: Vec<Array> = (0..5).map(|_| randn(&[12, 4], &mut rng)).collect();
        let serial =
            similarity_matrix_wasserstein_on(&Pool::serial(), &feats, 8, &mut rng.clone()).unwrap();
        let parallel =
            similarity_matrix_wasserstein_on(&Pool::new(4), &feats, 8, &mut rng).unwrap();
        assert_eq!(serial, parallel);
        for (i, row) in serial.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, serial[j][i]);
            }
        }
    }

    #[test]
    fn empty_fleet_and_ragged_widths_are_typed_errors() {
        let mut rng = SmallRng64::new(0);
        assert_eq!(
            similarity_matrix_wasserstein_on(&Pool::serial(), &[], 8, &mut rng),
            Err(MetricError::NoDevices)
        );
        let a = randn(&[4, 3], &mut rng);
        let b = randn(&[4, 5], &mut rng);
        assert_eq!(
            similarity_matrix_wasserstein_on(&Pool::serial(), &[a.clone(), b.clone()], 8, &mut rng),
            Err(MetricError::WidthMismatch { left: 3, right: 5 })
        );
        assert_eq!(
            similarity_matrix_wasserstein_on(&Pool::new(2), &[a, b], 8, &mut rng),
            Err(MetricError::WidthMismatch { left: 3, right: 5 })
        );
        assert_eq!(similarity_matrix_js(&[]), Err(MetricError::NoDevices));
        assert_eq!(
            similarity_matrix_js(&[vec![1.0], vec![0.5, 0.5]]),
            Err(MetricError::LengthMismatch { left: 1, right: 2 })
        );
    }

    #[test]
    fn js_similarity_matches_block_structure() {
        // Devices 0-2 share one distribution, 3-4 another (the Fig. 10
        // setup).
        let d1 = vec![0.5, 0.5, 0.0, 0.0];
        let d2 = vec![0.0, 0.0, 0.5, 0.5];
        let dists = vec![d1.clone(), d1.clone(), d1, d2.clone(), d2];
        let sim = similarity_matrix_js(&dists).unwrap();
        assert!(sim[0][1] > sim[0][3]);
        assert!(sim[3][4] > sim[2][3]);
        assert!((sim[0][1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_rows_sum_to_one() {
        let sim = vec![
            vec![1.0, 0.8, 0.1],
            vec![0.8, 1.0, 0.2],
            vec![0.1, 0.2, 1.0],
        ];
        let w = normalize_similarity_with_temperature(&sim, 1.0).unwrap();
        for row in &w {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&v| v > 0.0));
        }
        // Self-weight should be the largest entry of each row.
        for (i, row) in w.iter().enumerate() {
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!((row[i] - max).abs() < 1e-9, "row {i}: {row:?}");
        }
    }

    #[test]
    fn normalization_preserves_similarity_ordering() {
        let sim = vec![
            vec![1.0, 0.9, 0.1],
            vec![0.9, 1.0, 0.1],
            vec![0.1, 0.1, 1.0],
        ];
        let w = normalize_similarity_with_temperature(&sim, 1.0).unwrap();
        assert!(w[0][1] > w[0][2]);
    }

    #[test]
    fn low_temperature_sharpens_weights() {
        let sim = vec![
            vec![1.0, 0.9, 0.5],
            vec![0.9, 1.0, 0.5],
            vec![0.5, 0.5, 1.0],
        ];
        let soft = normalize_similarity_with_temperature(&sim, 1.0).unwrap();
        let sharp = normalize_similarity_with_temperature(&sim, 0.05).unwrap();
        // Sharper softmax concentrates more mass on the similar device.
        assert!(sharp[0][1] / sharp[0][2] > soft[0][1] / soft[0][2]);
        for row in &sharp {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn normalize_rejects_bad_temperature_and_ragged_input() {
        assert_eq!(
            normalize_similarity_with_temperature(&[vec![1.0]], 0.0),
            Err(MetricError::BadTemperature(0.0))
        );
        assert!(matches!(
            normalize_similarity_with_temperature(&[vec![1.0]], f64::NAN),
            Err(MetricError::BadTemperature(_))
        ));
        assert_eq!(
            normalize_similarity_with_temperature(&[vec![1.0, 0.5], vec![0.5]], 1.0),
            Err(MetricError::NotSquare {
                rows: 2,
                row_len: 1
            })
        );
    }
}
