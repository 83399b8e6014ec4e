//! Property-based tests of the distance and aggregation layer.

use acme_agg::{
    aggregate_importance, importance_set_from_grads, js_divergence, least_important,
    normalize_similarity_with_temperature, similarity_matrix_js, similarity_matrix_wasserstein_on,
    sliced_wasserstein, wasserstein_1d_samples, DriftDetector, DriftDetectorConfig, DriftStatus,
    MetricError,
};
use acme_check::cases;
use acme_runtime::Pool;
use acme_tensor::{randn, Array, SmallRng64};

#[test]
fn sliced_wasserstein_symmetric_under_same_projections() {
    cases(24, |g| {
        let seed = g.u64(0..100);
        let n = g.usize(2..12);
        let m = g.usize(2..12);
        let mut rng = SmallRng64::new(seed);
        let x = randn(&[n, 4], &mut rng);
        let y = randn(&[m, 4], &mut rng).add_scalar(1.0);
        // Same projection stream -> symmetric.
        let d_xy = sliced_wasserstein(&x, &y, 8, &mut SmallRng64::new(7)).unwrap();
        let d_yx = sliced_wasserstein(&y, &x, 8, &mut SmallRng64::new(7)).unwrap();
        assert!((d_xy - d_yx).abs() < 1e-6);
        assert!(d_xy >= 0.0);
    });
}

#[test]
fn js_similarity_matrix_entries_in_unit_interval() {
    cases(24, |g| {
        let dists = g.vec(2..6, |g| g.vec(4..5, |g| g.f64(0.01..5.0)));
        let sim = similarity_matrix_js(&dists).unwrap();
        for (i, row) in sim.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for &v in row {
                assert!(v > 0.0 && v <= 1.0);
            }
        }
    });
}

#[test]
fn normalization_rows_are_distributions() {
    cases(24, |g| {
        let n = g.usize(2..6);
        let tau = g.f64(0.01..2.0);
        let seed = g.u64(0..50);
        let mut rng = SmallRng64::new(seed);
        use rand::Rng;
        let sim: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| if i == j { 1.0 } else { rng.gen_range(0.0..1.0) })
                    .collect()
            })
            .collect();
        let w = normalize_similarity_with_temperature(&sim, tau).unwrap();
        for row in &w {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&v| v > 0.0));
        }
    });
}

#[test]
fn importance_sets_are_nonnegative_and_aggregation_commutes_with_scaling() {
    cases(24, |g| {
        let values = g.vec(6..7, |g| g.f32(-3.0..3.0));
        let grads = g.vec(6..7, |g| g.f32(-3.0..3.0));
        let scale = g.f64(0.1..10.0);
        let q = importance_set_from_grads(&values, &grads);
        assert!(q.iter().all(|&v| v >= 0.0));
        // Aggregation is linear: scaling all sets scales the result.
        let sets = vec![q.clone(), q.iter().map(|v| v * 2.0).collect()];
        let weights = vec![vec![0.3, 0.7], vec![0.5, 0.5]];
        let base = aggregate_importance(&sets, &weights, 0);
        let scaled_sets: Vec<Vec<f64>> = sets
            .iter()
            .map(|s| s.iter().map(|v| v * scale).collect())
            .collect();
        let scaled = aggregate_importance(&scaled_sets, &weights, 0);
        for (a, b) in base.iter().zip(&scaled) {
            assert!((a * scale - b).abs() < 1e-9 * scale.max(1.0));
        }
    });
}

#[test]
fn least_important_returns_sorted_distinct_valid() {
    cases(24, |g| {
        let set = g.vec(1..12, |g| g.f64(0.0..10.0));
        let drop_frac = g.f64(0.0..1.0);
        let drop = ((set.len() as f64) * drop_frac) as usize;
        let out = least_important(&set, drop);
        assert_eq!(out.len(), drop);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        assert!(out.iter().all(|&i| i < set.len()));
        // Every kept element is >= every dropped element.
        if drop > 0 && drop < set.len() {
            let dropped_max = out.iter().map(|&i| set[i]).fold(f64::MIN, f64::max);
            let kept_min = (0..set.len())
                .filter(|i| !out.contains(i))
                .map(|i| set[i])
                .fold(f64::MAX, f64::min);
            assert!(kept_min >= dropped_max - 1e-12);
        }
    });
}

#[test]
fn js_of_mixture_is_below_components() {
    cases(24, |g| {
        let p = g.vec(4..5, |g| g.f64(0.01..5.0));
        let q = g.vec(4..5, |g| g.f64(0.01..5.0));
        // JS(p, (p+q)/2) <= JS(p, q): the midpoint is closer.
        let m: Vec<f64> = p.iter().zip(&q).map(|(&a, &b)| 0.5 * (a + b)).collect();
        assert!(js_divergence(&p, &m).unwrap() <= js_divergence(&p, &q).unwrap() + 1e-9);
    });
}

/// A NaN or an infinity at a random position of a metric's input yields
/// `Err` or the value the function documents, never a panic.
#[test]
fn non_finite_inputs_are_an_error_or_the_documented_value() {
    cases(24, |g| {
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][g.usize(0..3)];

        let mut xs = g.vec(1..12, |g| g.f32(-5.0..5.0));
        let ys = g.vec(1..12, |g| g.f32(-5.0..5.0));
        let at = g.usize(0..xs.len());
        xs[at] = bad;
        assert_eq!(
            wasserstein_1d_samples(&xs, &ys),
            Err(MetricError::NonFinite)
        );
        assert_eq!(
            wasserstein_1d_samples(&ys, &xs),
            Err(MetricError::NonFinite)
        );

        let (n, m) = (g.usize(1..8), g.usize(1..8));
        let mut rng = SmallRng64::new(g.u64(0..100));
        let x = randn(&[n, 4], &mut rng);
        let mut cloud = randn(&[m, 4], &mut rng).data().to_vec();
        let at = g.usize(0..cloud.len());
        cloud[at] = bad;
        let y = Array::from_vec(cloud, &[m, 4]).unwrap();
        assert_eq!(
            sliced_wasserstein(&x, &y, 4, &mut rng),
            Err(MetricError::NonFinite)
        );
        let fleet = [x.clone(), x, y];
        assert_eq!(
            similarity_matrix_wasserstein_on(&Pool::new(2), &fleet, 4, &mut rng),
            Err(MetricError::NonFinite)
        );

        // NaN and +inf outrank every score and go last; -inf goes first.
        let mut set = g.vec(1..12, |g| g.f64(0.0..10.0));
        let at = g.usize(0..set.len());
        set[at] = f64::from(bad);
        let drop = g.usize(0..set.len() + 1);
        let out = least_important(&set, drop);
        assert_eq!(out.len(), drop);
        let dropped = if bad == f32::NEG_INFINITY {
            drop > 0
        } else {
            drop == set.len()
        };
        assert_eq!(out.contains(&at), dropped, "{set:?} drop {drop}");

        // The detector drops it: the verdicts are the clean stream's.
        let stream = g.vec(40..96, |g| g.f32(-1.0..1.0));
        let at = g.usize(0..stream.len());
        let cfg = DriftDetectorConfig {
            window: 8,
            warmup_windows: 2,
            sigma: 4.0,
            min_threshold: 0.05,
            patience: 1,
        };
        let mut clean = DriftDetector::new(cfg).unwrap();
        let mut det = DriftDetector::new(cfg).unwrap();
        for (i, &x) in stream.iter().enumerate() {
            if i == at {
                assert_eq!(det.observe(bad), DriftStatus::Filling);
            }
            assert_eq!(det.observe(x), clean.observe(x), "observation {i}");
        }
        assert_eq!(det.non_finite_dropped(), 1);
    });
}
