//! Property-based tests of the NAS search space and controller
//! serialization invariants.

use acme_check::cases;
use acme_nas::space::{search_space_size, HeaderArch};
use acme_nas::{Controller, ControllerConfig, NasHeader, OpKind, SharedParams};
use acme_nn::ParamSet;
use acme_tensor::{Graph, SmallRng64};
use acme_vit::headers::Header;

#[test]
fn random_arch_token_roundtrip() {
    cases(32, |g| {
        let seed = g.u64(0..1000);
        let blocks = g.usize(1..6);
        let u = g.usize(1..4);
        let mut rng = SmallRng64::new(seed);
        let arch = HeaderArch::random(blocks, u, &mut rng);
        let back = HeaderArch::from_tokens(&arch.to_tokens(), u);
        assert_eq!(arch, back);
    });
}

#[test]
fn search_space_grows_monotonically() {
    cases(32, |g| {
        let b = g.usize(1..8);
        let o = OpKind::all().len();
        assert!(search_space_size(b, o) < search_space_size(b + 1, o));
        // Closed form check.
        let expected: u128 = (1..=b as u128)
            .map(|k| (k + 1) * (k + 1) * (o as u128) * (o as u128))
            .product();
        assert_eq!(search_space_size(b, o), expected);
    });
}

#[test]
fn controller_samples_parse_and_respect_limits() {
    cases(32, |g| {
        let seed = g.u64(0..200);
        let mut rng = SmallRng64::new(seed);
        let mut ps = ParamSet::new();
        let ctrl = Controller::new(
            &mut ps,
            ControllerConfig {
                num_blocks: 4,
                ..ControllerConfig::default()
            },
            &mut rng,
        );
        let mut g = Graph::new();
        let (arch, logp) = ctrl.sample(&mut g, &ps, &mut rng, false);
        assert_eq!(arch.blocks().len(), 4);
        for (b, blk) in arch.blocks().iter().enumerate() {
            assert!(blk.in1 < b + 2);
            assert!(blk.in2 < b + 2);
        }
        assert!(g.value(logp).item() <= 0.0);
    });
}

#[test]
fn every_sampled_child_forwards() {
    cases(32, |g| {
        let seed = g.u64(0..50);
        let mut rng = SmallRng64::new(seed);
        let cfg = acme_vit::VitConfig::tiny(4);
        let mut ps = ParamSet::new();
        let vit = acme_vit::Vit::new(&mut ps, &cfg, &mut rng);
        let shared = SharedParams::new(&mut ps, "sn", 3, cfg.dim, cfg.grid(), 4, &mut rng);
        let arch = HeaderArch::random(3, 2, &mut rng);
        let header = NasHeader::new(arch, shared);
        let images = acme_tensor::randn(&[2, 1, 8, 8], &mut rng);
        let mut g = Graph::new();
        let f = vit.forward(&mut g, &ps, &images);
        let logits = header.forward(&mut g, &ps, &f);
        assert_eq!(g.shape(logits), &[2usize, 4]);
        assert!(g.value(logits).data().iter().all(|v| v.is_finite()));
    });
}

#[test]
fn child_param_ids_are_subset_of_supernet() {
    cases(32, |g| {
        let seed = g.u64(0..50);
        let mut rng = SmallRng64::new(seed);
        let mut ps = ParamSet::new();
        let shared = SharedParams::new(&mut ps, "sn", 3, 8, 4, 4, &mut rng);
        let arch = HeaderArch::random(3, 1, &mut rng);
        let header = NasHeader::new(arch, shared.clone());
        let all: std::collections::HashSet<_> = shared.param_ids().into_iter().collect();
        for id in header.param_ids() {
            assert!(all.contains(&id), "child param outside supernet");
        }
    });
}
