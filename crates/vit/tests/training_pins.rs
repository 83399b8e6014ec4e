//! Absolute bit pins of the minibatch training loop: every epoch loss and
//! a digest of every parameter bit after `fit` on a tiny ViT and after
//! `MultiExitVit::fit_exits` on two exits, at two seeds.
//!
//! A moved bit means the loop changed its shuffle draws, its op order or
//! its accumulation order. Re-pin only on purpose.

use acme_data::{cifar100_like, Dataset, SyntheticSpec};
use acme_nn::ParamSet;
use acme_tensor::SmallRng64;
use acme_vit::{fit, MultiExitVit, TrainConfig, Vit, VitConfig};

/// FNV-1a over the bits of every parameter scalar, in registration order.
fn param_digest(ps: &ParamSet) -> u64 {
    ps.ids()
        .flat_map(|id| ps.value(id).data().iter().map(|x| x.to_bits()))
        .fold(0xcbf2_9ce4_8422_2325, |h, bits| {
            (h ^ u64::from(bits)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// 32 tiny examples (4 classes) and an untrained tiny ViT.
fn setup(seed: u64) -> (Vit, ParamSet, Dataset, SmallRng64) {
    let mut rng = SmallRng64::new(seed);
    let ds = cifar100_like(&SyntheticSpec::tiny(), &mut rng).unwrap();
    let mut ps = ParamSet::new();
    let vit = Vit::new(&mut ps, &VitConfig::tiny(ds.num_classes()), &mut rng);
    (vit, ps, ds, rng)
}

/// Three epochs of batch 7: four full batches and a ragged one per epoch.
fn train_cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 7,
        seed,
        ..TrainConfig::default()
    }
}

#[test]
fn fit_pins_every_bit() {
    let pinned: [(u64, [u32; 3], u64); 2] = [
        (0, [1068585654, 1064667057, 1059507957], 7642243351144649710),
        (1, [1071201059, 1069358739, 1064462898], 2024030442247208087),
    ];
    for (seed, losses, digest) in pinned {
        let (vit, mut ps, ds, _) = setup(seed);
        let report = fit(&vit, &mut ps, &ds, &train_cfg(seed));
        let got: Vec<u32> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(got, losses, "seed {seed} epoch losses");
        assert_eq!(param_digest(&ps), digest, "seed {seed} parameters");
    }
}

#[test]
fn fit_exits_pins_every_bit() {
    let pinned: [(u64, [u32; 3], u64); 2] = [
        (
            0,
            [1076531062, 1072433447, 1069637616],
            12251864963060531591,
        ),
        (
            1,
            [1076736096, 1073226731, 1070970051],
            18351943635730106770,
        ),
    ];
    for (seed, losses, digest) in pinned {
        let (vit, mut ps, ds, mut rng) = setup(seed);
        let me = MultiExitVit::new(&mut ps, &vit, &[0, 1], &mut rng);
        let report = me.fit_exits(&mut ps, &vit, &ds, &train_cfg(seed));
        let got: Vec<u32> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(got, losses, "seed {seed} epoch losses");
        assert_eq!(param_digest(&ps), digest, "seed {seed} parameters");
    }
}
