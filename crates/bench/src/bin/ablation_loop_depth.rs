//! Ablation — the edge–device single-loop iteration count `T` of
//! Algorithm 2: accuracy improvement as the loop deepens.
//!
//! One pipeline run through Phase 2-1 at non-IID level C2; Phase 2-2 then
//! runs once per `T` from the searched headers over the assigned
//! backbones, averaged over every device of the fleet.

use acme::{Acme, DeviceResult, Pool, RefineConfig};
use acme_bench::{cifar_spec, pipeline_config, print_table, RunScale};
use acme_data::ConfusionLevel;
use acme_nas::SearchConfig;

fn main() {
    let scale = RunScale::from_args();
    let config = pipeline_config(scale, cifar_spec(scale), 53)
        .clusters(scale.pick(2, 1))
        .devices_per_cluster(5)
        .confusion(ConfusionLevel::C2)
        .widths(vec![0.5, 1.0])
        .depths(scale.pick(vec![2, 4], vec![1, 2]))
        .search(scale.pick(SearchConfig::default(), SearchConfig::quick()))
        .refine(RefineConfig {
            local_epochs: 1,
            drop_per_round: 4,
            ..RefineConfig::default()
        })
        .build()
        .expect("the harness pipeline is valid");
    let acme = Acme::try_new(config.clone()).expect("validated configuration");
    let pre = acme.pretrain().expect("pretraining");
    let pool = acme.candidate_pool(&pre);
    let selection = acme.select(&pre, &pool, None).expect("selection");
    let clusters = acme
        .search_clusters(&pre, &pool, &selection, None)
        .expect("every device and edge holds data");

    let mut rows = Vec::new();
    for t in 1..=scale.pick(5, 3) {
        let refine = RefineConfig {
            loop_rounds: t,
            ..config.refine.clone()
        };
        let mut results: Vec<DeviceResult> = Vec::new();
        for cluster in &clusters {
            let out = cluster
                .refine(&Pool::default(), &refine, None)
                .expect("refinement without a network cannot fault");
            results.extend(out.results);
        }
        let n = results.len() as f32;
        let mean_after: f32 = results.iter().map(|r| r.accuracy_after).sum::<f32>() / n;
        let mean_impr: f32 = results.iter().map(DeviceResult::improvement).sum::<f32>() / n;
        rows.push(vec![
            t.to_string(),
            format!("{mean_after:.3}"),
            format!("{mean_impr:+.3}"),
        ]);
    }
    print_table(
        "Ablation: single-loop iteration count T (Algorithm 2)",
        &["T", "mean accuracy", "mean improvement"],
        &rows,
    );
    println!("\nexpected: improvement grows with T and saturates — the loop converges,");
    println!("matching the paper's \"repeated iteratively until convergence\".");
}
