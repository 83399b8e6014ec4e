//! Property-based tests of the ViT transform `δ(θ₀, w, d)` and the
//! pruning machinery.

use acme_check::cases;
use acme_data::{cifar100_like, SyntheticSpec};
use acme_nn::ParamSet;
use acme_tensor::{Graph, SmallRng64};
use acme_vit::{prune_width, score_importance, truncate_depth, Vit, VitConfig};

fn setup(seed: u64) -> (Vit, ParamSet, acme_data::Dataset, SmallRng64) {
    let mut rng = SmallRng64::new(seed);
    let ds = cifar100_like(&SyntheticSpec::tiny(), &mut rng).unwrap();
    let cfg = VitConfig::tiny(ds.num_classes());
    let mut ps = ParamSet::new();
    let vit = Vit::new(&mut ps, &cfg, &mut rng);
    (vit, ps, ds, rng)
}

#[test]
fn scaled_config_params_are_monotone() {
    cases(12, |g| {
        let w1 = g.f64(0.26..1.0);
        let w2 = g.f64(0.26..1.0);
        let d1 = g.usize(1..6);
        let d2 = g.usize(1..6);
        let base = VitConfig::reference(10);
        let (wlo, whi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let (dlo, dhi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let small = base.scaled(wlo, dlo).exact_params();
        let large = base.scaled(whi, dhi).exact_params();
        assert!(
            small <= large,
            "{wlo}/{dlo} -> {small} vs {whi}/{dhi} -> {large}"
        );
    });
}

#[test]
fn pruned_model_param_count_matches_its_config() {
    cases(12, |g| {
        let seed = g.u64(0..20);
        let keep = g.usize(1..3);
        let (vit, ps, ds, mut rng) = setup(seed);
        let scores = score_importance(&vit, &ps, &ds, 1, 8, &mut rng);
        let w = keep as f64 / 2.0; // 0.5 or 1.0
        let (pvit, pps) = prune_width(&vit, &ps, &scores, w);
        assert_eq!(pvit.config().exact_params(), pps.num_scalars() as u64);
    });
}

#[test]
fn truncated_model_behaves_and_counts() {
    cases(12, |g| {
        let seed = g.u64(0..20);
        let d = g.usize(1..3);
        let (vit, ps, ds, mut rng) = setup(seed);
        let (tvit, tps) = truncate_depth(&vit, &ps, d);
        assert_eq!(tvit.config().exact_params(), tps.num_scalars() as u64);
        let batch = ds.sample(2, &mut rng).as_batch();
        let mut g = Graph::new();
        let logits = tvit.logits(&mut g, &tps, &batch.images);
        assert!(g.value(logits).data().iter().all(|v| v.is_finite()));
    });
}

#[test]
fn importance_scores_are_finite_nonnegative() {
    cases(12, |g| {
        let seed = g.u64(0..20);
        let (vit, ps, ds, mut rng) = setup(seed);
        let scores = score_importance(&vit, &ps, &ds, 1, 8, &mut rng);
        for layer in scores.heads.iter().chain(&scores.neurons) {
            assert!(layer.iter().all(|&v| v >= 0.0 && v.is_finite()));
        }
    });
}

#[test]
fn prune_then_truncate_composes() {
    let (vit, ps, ds, mut rng) = setup(0);
    let scores = score_importance(&vit, &ps, &ds, 1, 8, &mut rng);
    let (wide, wide_ps) = prune_width(&vit, &ps, &scores, 0.5);
    let (small, small_ps) = truncate_depth(&wide, &wide_ps, 1);
    assert_eq!(small.config().depth, 1);
    assert_eq!(small.config().heads, 1);
    assert!(small_ps.num_scalars() < ps.num_scalars() / 2);
    let batch = ds.sample(4, &mut rng).as_batch();
    let mut g = Graph::new();
    let logits = small.logits(&mut g, &small_ps, &batch.images);
    assert_eq!(g.shape(logits), &[4, ds.num_classes()]);
}
