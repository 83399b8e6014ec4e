//! KL and Jensen–Shannon divergences (the `JS` baseline of Figs. 10–11).

use crate::error::MetricError;

/// Kullback–Leibler divergence `KL(p ‖ q)` in nats. Inputs are
/// normalized; zero entries of `p` contribute nothing; zero entries of
/// `q` where `p > 0` are floored at a small epsilon.
///
/// # Errors
///
/// Returns [`MetricError::LengthMismatch`] when the supports differ.
fn kl_divergence(p: &[f64], q: &[f64]) -> Result<f64, MetricError> {
    if p.len() != q.len() {
        return Err(MetricError::LengthMismatch {
            left: p.len(),
            right: q.len(),
        });
    }
    let (sp, sq): (f64, f64) = (p.iter().sum(), q.iter().sum());
    let mut total = 0.0;
    for (&a, &b) in p.iter().zip(q) {
        let pa = if sp > 0.0 { a / sp } else { 0.0 };
        if pa <= 0.0 {
            continue;
        }
        let qb = (if sq > 0.0 { b / sq } else { 0.0 }).max(1e-12);
        total += pa * (pa / qb).ln();
    }
    Ok(total)
}

/// Jensen–Shannon divergence in nats: `½KL(p‖m) + ½KL(q‖m)` with
/// `m = (p+q)/2`. Symmetric and bounded by `ln 2`.
///
/// # Errors
///
/// Returns [`MetricError::LengthMismatch`] when the supports differ.
pub fn js_divergence(p: &[f64], q: &[f64]) -> Result<f64, MetricError> {
    if p.len() != q.len() {
        return Err(MetricError::LengthMismatch {
            left: p.len(),
            right: q.len(),
        });
    }
    let (sp, sq): (f64, f64) = (p.iter().sum(), q.iter().sum());
    let pn: Vec<f64> = p
        .iter()
        .map(|&a| if sp > 0.0 { a / sp } else { 0.0 })
        .collect();
    let qn: Vec<f64> = q
        .iter()
        .map(|&b| if sq > 0.0 { b / sq } else { 0.0 })
        .collect();
    let m: Vec<f64> = pn.iter().zip(&qn).map(|(&a, &b)| 0.5 * (a + b)).collect();
    Ok(0.5 * kl_divergence(&pn, &m)? + 0.5 * kl_divergence(&qn, &m)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kl_zero_for_identical() {
        let p = [0.2, 0.3, 0.5];
        assert!(kl_divergence(&p, &p).unwrap().abs() < 1e-12);
    }

    #[test]
    fn kl_is_asymmetric() {
        let p = [0.9, 0.1];
        let q = [0.5, 0.5];
        let d1 = kl_divergence(&p, &q).unwrap();
        let d2 = kl_divergence(&q, &p).unwrap();
        assert!((d1 - d2).abs() > 1e-6);
    }

    #[test]
    fn js_symmetric_and_bounded() {
        let p = [1.0, 0.0, 0.0];
        let q = [0.0, 0.0, 1.0];
        let d1 = js_divergence(&p, &q).unwrap();
        let d2 = js_divergence(&q, &p).unwrap();
        assert!((d1 - d2).abs() < 1e-12);
        assert!(
            (d1 - (2.0f64).ln()).abs() < 1e-6,
            "disjoint supports hit ln 2, got {d1}"
        );
        assert!(js_divergence(&p, &p).unwrap().abs() < 1e-12);
    }

    #[test]
    fn js_insensitive_to_geometry_unlike_wasserstein() {
        // The motivating observation for the paper's choice of the
        // Wasserstein distance (Fig. 10): JS sees all disjoint supports as
        // equally far, Wasserstein sees how far apart they sit.
        use crate::wasserstein::wasserstein_1d_samples;
        let p = [1.0, 0.0, 0.0, 0.0];
        let near = [0.0, 1.0, 0.0, 0.0];
        let far = [0.0, 0.0, 0.0, 1.0];
        let dj_near = js_divergence(&p, &near).unwrap();
        let dj_far = js_divergence(&p, &far).unwrap();
        assert!((dj_near - dj_far).abs() < 1e-12);
        // The same point masses as samples at their bin positions.
        let dw_near = wasserstein_1d_samples(&[0.0], &[1.0]).unwrap();
        let dw_far = wasserstein_1d_samples(&[0.0], &[3.0]).unwrap();
        assert!(dw_near < dw_far);
    }

    #[test]
    fn handles_unnormalized_and_zero_inputs() {
        assert!(js_divergence(&[2.0, 2.0], &[1.0, 1.0]).unwrap().abs() < 1e-12);
        assert_eq!(kl_divergence(&[0.0, 0.0], &[0.5, 0.5]), Ok(0.0));
    }

    #[test]
    fn mismatched_supports_are_typed_errors() {
        assert_eq!(
            kl_divergence(&[1.0], &[0.5, 0.5]),
            Err(MetricError::LengthMismatch { left: 1, right: 2 })
        );
        assert_eq!(
            js_divergence(&[1.0, 0.0, 0.0], &[0.5, 0.5]),
            Err(MetricError::LengthMismatch { left: 3, right: 2 })
        );
    }
}
