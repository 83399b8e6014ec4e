//! Ablation — parameter sharing in the header search (§III-C2): the
//! ENAS-style shared supernet vs evaluating children on untrained
//! (frozen random) operation weights, at equal controller budget.
//!
//! Varies Phase 2-1's weight sharing on the backbone Algorithm 1 assigns
//! to a five-device cluster: the search trains on the public training
//! split and scores children on the public validation split.

use acme_bench::{assigned_backbone, cifar_spec, f3, pipeline_config, print_table, RunScale};
use acme_nas::{NasSearch, SearchConfig, SharedParams};
use acme_tensor::SmallRng64;

fn main() {
    let scale = RunScale::from_args();
    let config = pipeline_config(scale, cifar_spec(scale), 47)
        .clusters(1)
        .devices_per_cluster(5)
        .widths(vec![0.5, 1.0])
        .depths(scale.pick(vec![2, 4], vec![1, 2]))
        .build()
        .expect("the harness pipeline is valid");
    let (pre, backbone) = assigned_backbone(config);
    let (vit, cfg) = (&backbone.vit, backbone.vit.config());
    let mut rng = SmallRng64::new(47);

    let mut rows = Vec::new();
    for (name, shared_steps) in [
        ("shared supernet (Eq. 15)", scale.pick(12, 4)),
        ("no sharing (frozen ops)", 0),
    ] {
        let mut ps = backbone.ps.clone();
        let shared =
            SharedParams::new(&mut ps, "sn", 2, cfg.dim, cfg.grid(), cfg.classes, &mut rng);
        let search_cfg = SearchConfig {
            num_blocks: 2,
            u: 1,
            rounds: scale.pick(2, 1),
            shared_steps,
            controller_steps: scale.pick(8, 3),
            final_candidates: scale.pick(4, 2),
            ..SearchConfig::default()
        };
        let mut search = NasSearch::new(&mut ps, search_cfg, &mut SmallRng64::new(5));
        let out = search.run(
            vit,
            &shared,
            &mut ps,
            &pre.public_train,
            &pre.public_val,
            &mut SmallRng64::new(9),
        );
        rows.push(vec![
            name.to_string(),
            f3(out.best_accuracy as f64),
            format!(
                "{:?}",
                out.reward_history
                    .iter()
                    .map(|r| (r * 1000.0).round() / 1000.0)
                    .collect::<Vec<_>>()
            ),
            out.evaluations.to_string(),
        ]);
    }
    print_table(
        &format!(
            "Ablation: NAS parameter sharing (assigned backbone w={:.2} d={})",
            backbone.w, backbone.d
        ),
        &[
            "variant",
            "best child val acc",
            "reward per round",
            "evaluations",
        ],
        &rows,
    );
    println!("\nexpected: without the shared-parameter training step the controller's");
    println!("reward signal collapses and the selected child underperforms.");
}
