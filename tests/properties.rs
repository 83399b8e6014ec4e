//! Cross-crate property-based tests on the mathematical invariants the
//! paper's algorithms rely on.

use acme_agg::{
    aggregate_importance, js_divergence, normalize_similarity_with_temperature,
    wasserstein_1d_samples,
};
use acme_check::{cases, Gen};
use acme_pareto::{pareto_front_grid, select_constrained, Candidate, GridSpec};
use acme_tensor::{broadcast_shapes, Array};

fn histogram(g: &mut Gen) -> Vec<f64> {
    g.vec(3..8, |g| g.f64(0.0..10.0))
}

/// 1 to 11 scalar samples in `[-5, 5)`.
fn samples(g: &mut Gen) -> Vec<f32> {
    g.vec(1..12, |g| g.f32(-5.0..5.0))
}

/// 2 to 19 candidates with three objectives each in `[0.1, 10)`.
fn candidates(g: &mut Gen) -> Vec<Candidate> {
    let objs = g.vec(2..20, |g| {
        [g.f64(0.1..10.0), g.f64(0.1..10.0), g.f64(0.1..10.0)]
    });
    objs.iter()
        .enumerate()
        .map(|(i, &o)| Candidate::new(0.5, i + 1, o))
        .collect()
}

/// Generated objectives are always finite, so selection cannot hit the
/// NoFiniteCandidate error.
fn assert_selection_is_feasible(candidates: &[Candidate], bound: f64) {
    let spec = GridSpec::from_candidates(candidates, 0.5).unwrap();
    match select_constrained(candidates, &spec, bound) {
        Ok(Some(c)) => assert!(c.size() < bound),
        Ok(None) => assert!(candidates.iter().all(|c| c.size() >= bound)),
        Err(e) => panic!("unexpected selection error: {e}"),
    }
}

#[test]
fn wasserstein_samples_is_a_metric() {
    cases(256, |g| {
        let p = samples(g);
        let q = samples(g);
        let dpq = wasserstein_1d_samples(&p, &q).unwrap();
        let dqp = wasserstein_1d_samples(&q, &p).unwrap();
        assert!(dpq >= 0.0);
        assert!((dpq - dqp).abs() < 1e-9, "symmetry: {dpq} vs {dqp}");
        assert!(wasserstein_1d_samples(&p, &p).unwrap() < 1e-12);
    });
}

#[test]
fn wasserstein_samples_triangle_inequality() {
    cases(256, |g| {
        let p = samples(g);
        let q = samples(g);
        let r = samples(g);
        let pq = wasserstein_1d_samples(&p, &q).unwrap();
        let pr = wasserstein_1d_samples(&p, &r).unwrap();
        let rq = wasserstein_1d_samples(&r, &q).unwrap();
        // Sample gaps are taken in f32 (≤ 5·10⁻⁷ off at these magnitudes).
        assert!(pq <= pr + rq + 1e-5);
    });
}

#[test]
fn wasserstein_samples_shift_equivariance() {
    cases(256, |g| {
        let xs = g.vec(2..20, |g| g.f32(-5.0..5.0));
        let shift = g.f32(-3.0..3.0);
        let ys: Vec<f32> = xs.iter().map(|&x| x + shift).collect();
        let d = wasserstein_1d_samples(&xs, &ys).unwrap();
        assert!(
            (d - shift.abs() as f64) < 1e-3,
            "shift {shift} -> distance {d}"
        );
    });
}

#[test]
fn js_divergence_is_symmetric_and_bounded() {
    cases(256, |g| {
        let mut p = histogram(g);
        let mut q = histogram(g);
        let len = p.len().min(q.len());
        p.truncate(len);
        q.truncate(len);
        p[0] += 1.0;
        q[0] += 1.0;
        let d = js_divergence(&p, &q).unwrap();
        assert!(d >= -1e-12);
        assert!(d <= (2.0f64).ln() + 1e-9);
        assert!((d - js_divergence(&q, &p).unwrap()).abs() < 1e-9);
    });
}

#[test]
fn aggregation_preserves_bounds() {
    cases(256, |g| {
        let sets = g.vec(2..5, |g| g.vec(5..6, |g| g.f64(0.0..10.0)));
        let tau = g.f64(0.01..2.0);
        let n = sets.len();
        // Any similarity matrix in [0,1] with unit diagonal.
        let sim: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.4 }).collect())
            .collect();
        let weights = normalize_similarity_with_temperature(&sim, tau).unwrap();
        for device in 0..n {
            let fused = aggregate_importance(&sets, &weights, device);
            let lo = sets.iter().map(|s| s[0]).fold(f64::INFINITY, f64::min);
            let hi = sets.iter().map(|s| s[0]).fold(f64::NEG_INFINITY, f64::max);
            // Convex combination stays within the per-coordinate envelope.
            assert!(fused[0] >= lo - 1e-9 && fused[0] <= hi + 1e-9);
        }
    });
}

#[test]
fn pfg_members_are_never_strictly_dominated_in_grid_space() {
    cases(256, |g| {
        let candidates = candidates(g);
        let spec = GridSpec::from_candidates(&candidates, 0.5).unwrap();
        let front = pareto_front_grid(&candidates, &spec);
        assert!(!front.is_empty());
        // Raw-objective non-dominated candidates must be in the front set
        // whenever their grid cells differ from all dominators.
        for &i in &front {
            let ci = spec.coords(&candidates[i].objectives);
            for (j, cj) in candidates.iter().enumerate() {
                if j == i {
                    continue;
                }
                let cjc = spec.coords(&cj.objectives);
                let dominates_grid = cjc.iter().zip(&ci).all(|(a, b)| a <= b)
                    && cjc.iter().zip(&ci).any(|(a, b)| a < b);
                assert!(!dominates_grid, "front member {i} grid-dominated by {j}");
            }
        }
    });
}

#[test]
fn constrained_selection_is_always_feasible() {
    cases(256, |g| {
        let candidates = candidates(g);
        let bound = g.f64(0.2..10.0);
        assert_selection_is_feasible(&candidates, bound);
    });
}

/// The case proptest once shrank a failure of the property above to
/// (formerly `tests/properties.proptest-regressions`).
#[test]
fn constrained_selection_is_feasible_on_the_recorded_regression() {
    let objs = [
        [0.1, 0.1, 0.850013472992176],
        [0.1, 0.1, 3.9946489319901857],
        [8.714778745503345, 0.1, 0.6719854465570463],
    ];
    let candidates: Vec<Candidate> = objs
        .iter()
        .enumerate()
        .map(|(i, &o)| Candidate::new(0.5, i + 1, o))
        .collect();
    assert_selection_is_feasible(&candidates, 0.7557770415027536);
}

#[test]
fn broadcast_is_commutative_and_associative_on_shapes() {
    cases(256, |g| {
        let a = g.vec(1..4, |g| g.usize(1..4));
        let b = g.vec(1..4, |g| g.usize(1..4));
        let ab = broadcast_shapes(&a, &b);
        let ba = broadcast_shapes(&b, &a);
        match (ab, ba) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            _ => panic!("broadcast not symmetric for {:?} {:?}", a, b),
        }
    });
}

#[test]
fn reduce_to_shape_preserves_total() {
    cases(256, |g| {
        let rows = g.usize(1..5);
        let cols = g.usize(1..5);
        let values = g.vec(25..26, |g| g.f32(-10.0..10.0));
        let n = rows * cols;
        let arr = Array::from_vec(values[..n].to_vec(), &[rows, cols]).unwrap();
        // Summing out either axis preserves the grand total.
        let to_cols = arr.reduce_to_shape(&[cols]);
        let to_scalar = arr.reduce_to_shape(&[]);
        assert!((to_cols.sum() - arr.sum()).abs() < 1e-3);
        assert!((to_scalar.item() - arr.sum()).abs() < 1e-3);
    });
}
