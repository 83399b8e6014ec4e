//! Header architecture search (Phase 2-1): train a backbone, run the
//! ENAS-style block search, and compare the found header against the
//! four fixed reference headers of Fig. 7(b).
//!
//! ```sh
//! cargo run --release --example header_search
//! ```

use acme::coarse_header_search;
use acme_data::{cifar100_like, SyntheticSpec};
use acme_energy::EdgeId;
use acme_nas::{search_space_size, OpKind, SearchConfig};
use acme_nn::ParamSet;
use acme_tensor::SmallRng64;
use acme_vit::headers::{HeadedVit, Header, HeaderKind};
use acme_vit::{
    evaluate, evaluate_header, fit, fit_header, FrozenFeatures, TrainConfig, Vit, VitConfig,
};

fn main() {
    let mut rng = SmallRng64::new(1);
    let spec = SyntheticSpec {
        classes: 12,
        per_class: 30,
        confusion: 0.65,
        noise: 0.6,
        ..SyntheticSpec::cifar()
    };
    let ds = cifar100_like(&spec, &mut rng).expect("valid spec");
    let (train, test) = ds.split(0.8, &mut rng);

    // A trained backbone stands in for the cloud-assigned δ(θ0, w, d).
    let cfg = VitConfig {
        classes: 12,
        depth: 3,
        ..VitConfig::reference(12)
    };
    let mut ps = ParamSet::new();
    let vit = Vit::new(&mut ps, &cfg, &mut rng);
    println!("pre-training backbone ({} params)...", ps.num_scalars());
    fit(
        &vit,
        &mut ps,
        &train,
        &TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        },
    );

    // Fixed reference headers, over the frozen backbone's features
    // (computed once, shared by all four).
    println!("\nfixed headers (backbone frozen):");
    let train_features = FrozenFeatures::compute(&vit, &ps, &train, 32);
    let test_features = FrozenFeatures::compute(&vit, &ps, &test, 32);
    for kind in HeaderKind::all() {
        let mut hps = ps.clone();
        vit.freeze_backbone(&mut hps);
        let header = kind.build(
            &mut hps,
            &format!("fixed-{kind}"),
            cfg.dim,
            cfg.grid(),
            12,
            &mut rng,
        );
        fit_header(
            header.as_ref(),
            &mut hps,
            &train_features,
            &TrainConfig {
                epochs: 4,
                ..TrainConfig::default()
            },
        );
        let acc = evaluate_header(header.as_ref(), &hps, &test_features, 32);
        let params = hps.num_scalars_of(&header.param_ids());
        println!("  {kind:>10}: accuracy {acc:.3} ({params} header params)");
    }

    // NAS header.
    let search_cfg = SearchConfig {
        num_blocks: 3,
        u: 2,
        rounds: 2,
        shared_steps: 10,
        controller_steps: 8,
        final_candidates: 4,
        ..SearchConfig::default()
    };
    println!(
        "\nsearching header: B={} blocks, |O|={} ops, space = {:.1}k architectures",
        search_cfg.num_blocks,
        OpKind::all().len(),
        search_space_size(search_cfg.num_blocks, OpKind::all().len()) as f64 / 1e3
    );
    let mut nas_ps = ps.clone();
    let out = coarse_header_search(EdgeId(0), &vit, &mut nas_ps, &train, &search_cfg, &mut rng);
    println!("  selected architecture: {}", out.header.arch());
    println!("  child evaluations: {}", out.evaluations);

    // Fine-tune the selected child and evaluate.
    let model = HeadedVit::new(&vit, &out.header);
    fit(
        &model,
        &mut nas_ps,
        &train,
        &TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        },
    );
    let acc = evaluate(&model, &nas_ps, &test, 32);
    let params = nas_ps.num_scalars_of(&Header::param_ids(&out.header));
    println!("  NAS header: accuracy {acc:.3} ({params} header params)");
}
