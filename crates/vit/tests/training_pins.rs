//! Absolute bit pins of the minibatch training loop: every epoch loss and
//! a digest of every parameter bit after `fit` on a tiny ViT and after
//! `MultiExitVit::fit_exits` on two exits, at two seeds, and the
//! early-exit report of the trained exits at five thresholds.
//!
//! A moved bit means the loop changed its shuffle draws, its op order or
//! its accumulation order. Re-pin only on purpose.

use acme_data::{generate, Dataset, SyntheticSpec};
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
    let ds = generate(&SyntheticSpec::tiny(), &mut rng).unwrap();
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

/// Confidence-thresholded inference after `fit_exits` at seed 0, batch 7
/// (four full batches and a ragged one): rows that leave at exit 0 skip
/// block 1, and each kept row's bits do not depend on which rows left.
#[test]
fn evaluate_early_exit_pins_every_bit() {
    // (threshold, accuracy, exit fractions, mean_blocks), floats as bits.
    let pinned: [(f32, u32, [u64; 2], u64); 5] = [
        (
            0.5,
            1063780352,
            [4603241769126068224, 4601552919265804288],
            4609152743636992000,
        ),
        (
            0.6,
            1063256064,
            [4602115869219225600, 4602960294149357568],
            4609574956102057984,
        ),
        (
            0.7,
            1063256064,
            [4601552919265804288, 4603241769126068224],
            4609715693590413312,
        ),
        (
            0.9,
            1063256064,
            [0, 4607182418800017408],
            4611686018427387904,
        ),
        (
            1.0,
            1063256064,
            [0, 4607182418800017408],
            4611686018427387904,
        ),
    ];
    let (vit, mut ps, ds, mut rng) = setup(0);
    let me = MultiExitVit::new(&mut ps, &vit, &[0, 1], &mut rng);
    me.fit_exits(&mut ps, &vit, &ds, &train_cfg(0));
    for (threshold, accuracy, fractions, mean_blocks) in pinned {
        let report = me.evaluate_early_exit(&ps, &vit, &ds, threshold, 7);
        let fractions_got: Vec<u64> = report.exit_fractions.iter().map(|f| f.to_bits()).collect();
        assert_eq!(
            (
                report.accuracy.to_bits(),
                fractions_got,
                report.mean_blocks.to_bits()
            ),
            (accuracy, fractions.to_vec(), mean_blocks),
            "threshold {threshold}"
        );
    }
}
