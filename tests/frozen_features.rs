//! The property header refits over a frozen backbone rest on: training
//! and evaluating a header on `FrozenFeatures` (the backbone run once per
//! example) is bitwise `fit` / `evaluate` of the header over the backbone
//! (the backbone run every step) — every epoch loss, every parameter,
//! every accuracy — at batch sizes on both sides of the naive/blocked
//! GEMM dispatch, at one and two kernel threads.
//!
//! This file holds a single test so it owns its test process: the kernel
//! thread count is process-wide.

use acme_data::{cifar100_like, SyntheticSpec};
use acme_nas::{HeaderArch, NasHeader, SharedParams};
use acme_nn::ParamSet;
use acme_tensor::SmallRng64;
use acme_vit::headers::{HeadedVit, Header, HeaderKind};
use acme_vit::{
    evaluate, evaluate_header, fit, fit_header, FrozenFeatures, TrainConfig, TrainReport, Vit,
    VitConfig,
};

fn loss_bits(r: &TrainReport) -> Vec<u32> {
    r.epoch_losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn cached_feature_refits_match_refits_through_the_backbone_bitwise() {
    let mut rng = SmallRng64::new(8);
    let data = cifar100_like(
        &SyntheticSpec {
            classes: 4,
            ..SyntheticSpec::cifar()
        }
        .with_per_class(10),
        &mut rng,
    )
    .unwrap();
    let (train, test) = data.split(0.7, &mut rng);
    let cfg = VitConfig::reference(data.num_classes());
    let mut ps = ParamSet::new();
    let vit = Vit::new(&mut ps, &cfg, &mut rng);
    let shared = SharedParams::new(
        &mut ps,
        "sn",
        2,
        cfg.dim,
        cfg.grid(),
        data.num_classes(),
        &mut rng,
    );
    let nas = NasHeader::new(HeaderArch::chain(2, 1), shared);
    let pool = HeaderKind::AttentionPool.build(
        &mut ps,
        "pool",
        cfg.dim,
        cfg.grid(),
        cfg.classes,
        &mut rng,
    );
    let headers: [&dyn Header; 2] = [&nas, pool.as_ref()];
    vit.freeze_backbone(&mut ps);

    for threads in [1, 2] {
        acme_runtime::set_global_threads(threads);
        // Computed at a batch size no refit below uses.
        let train_features = FrozenFeatures::compute(&vit, &ps, &train, 32);
        let test_features = FrozenFeatures::compute(&vit, &ps, &test, 32);
        assert_eq!(train_features.len(), train.len());
        for batch_size in [1, 7, 16] {
            for header in headers {
                let at = format!("{}, threads {threads}, batch {batch_size}", header.name());
                let train_cfg = TrainConfig {
                    epochs: 2,
                    batch_size,
                    seed: 11,
                };
                let mut through = ps.clone();
                let model = HeadedVit::new(&vit, header);
                let r_through = fit(&model, &mut through, &train, &train_cfg);
                let mut cached = ps.clone();
                let r_cached = fit_header(header, &mut cached, &train_features, &train_cfg);

                assert_eq!(loss_bits(&r_through), loss_bits(&r_cached), "losses, {at}");
                assert!(through == cached, "parameters, {at}");
                assert!(cached != ps, "the refit moved no parameter, {at}");
                for id in vit.backbone_param_ids() {
                    assert!(cached.value(id) == ps.value(id), "backbone moved, {at}");
                }
                let acc_through = evaluate(&model, &cached, &test, batch_size);
                let acc_cached = evaluate_header(header, &cached, &test_features, batch_size);
                assert_eq!(
                    acc_through.to_bits(),
                    acc_cached.to_bits(),
                    "accuracy, {at}"
                );
            }
        }
    }
}
