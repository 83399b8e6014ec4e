//! Property-based tests of the ViT transform `δ(θ₀, w, d)`, the
//! sub-network cut and patch extraction.

use acme_check::cases;
use acme_data::{cifar100_like, SyntheticSpec};
use acme_nn::ParamSet;
use acme_tensor::{Array, Graph, SmallRng64};
use acme_vit::{patchify, score_importance, sub_network, Vit, VitConfig};

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
fn sub_network_param_count_matches_its_config() {
    cases(12, |g| {
        let seed = g.u64(0..20);
        let w = g.usize(1..3) as f64 / 2.0; // 0.5 or 1.0
        let d = g.usize(1..3);
        let (vit, ps, ds, mut rng) = setup(seed);
        let scores = score_importance(&vit, &ps, &ds, 1, 8, &mut rng);
        let (sub, sub_ps) = sub_network(&vit, &ps, &scores, w, d);
        assert_eq!(sub.config(), &vit.config().scaled(w, d));
        assert_eq!(sub.config().exact_params(), sub_ps.num_scalars() as u64);
        let batch = ds.sample(2, &mut rng).as_batch();
        let mut g = Graph::new();
        let logits = sub.logits(&mut g, &sub_ps, &batch.images);
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
fn width_and_depth_cut_runs() {
    let (vit, ps, ds, mut rng) = setup(0);
    let scores = score_importance(&vit, &ps, &ds, 1, 8, &mut rng);
    let (small, small_ps) = sub_network(&vit, &ps, &scores, 0.5, 1);
    assert_eq!(small.config().depth, 1);
    assert_eq!(small.config().heads, 1);
    assert!(small_ps.num_scalars() < ps.num_scalars() / 2);
    let batch = ds.sample(4, &mut rng).as_batch();
    let mut g = Graph::new();
    let logits = small.logits(&mut g, &small_ps, &batch.images);
    assert_eq!(g.shape(logits), &[4, ds.num_classes()]);
}

#[test]
fn patchify_is_the_index_formula() {
    // The reference ViT's input (3 × 16 × 16, 4 × 4 patches) and a
    // non-square one whose patch width is odd.
    for (c, h, w, patch) in [(3, 16, 16, 4), (2, 6, 9, 3)] {
        cases(4, |g| {
            let b = g.usize(1..5);
            let images = g.vec(b * c * h * w..b * c * h * w + 1, |g| g.f32(-1.0..1.0));
            let images = Array::from_vec(images, &[b, c, h, w]).unwrap();
            let out = patchify(&images, patch);
            let (gh, gw, pd) = (h / patch, w / patch, c * patch * patch);
            assert_eq!(out.shape(), &[b, gh * gw, pd]);
            for (i, &v) in out.data().iter().enumerate() {
                let (bi, token, k) = (i / (gh * gw * pd), i / pd % (gh * gw), i % pd);
                let (gy, gx) = (token / gw, token % gw);
                let (ci, py, px) = (k / (patch * patch), k / patch % patch, k % patch);
                let src = ((bi * c + ci) * h + gy * patch + py) * w + gx * patch + px;
                assert_eq!(
                    v.to_bits(),
                    images.data()[src].to_bits(),
                    "element {i} of {c}x{h}x{w} / {patch}"
                );
            }
        });
    }
}
