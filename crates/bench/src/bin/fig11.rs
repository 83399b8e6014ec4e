//! Fig. 11 — accuracy improvement of the four aggregation methods
//! (Alone / Avg / JS / ACME) under IID and the C1–C3 non-IID levels,
//! averaged over every device of the fleet.
//!
//! One pipeline run up to Phase 1's selection; per level, its Phase 2-1
//! searches each cluster's header over the assigned backbone, and
//! Phase 2-2 runs once per method from that same state.

use acme::{Acme, AcmeConfig, Pool, RefineConfig};
use acme_agg::AggregationMethod;
use acme_bench::{cifar_spec, pipeline_config, print_table, RunScale};
use acme_data::ConfusionLevel;
use acme_nas::SearchConfig;

fn main() {
    let scale = RunScale::from_args();
    let config = pipeline_config(scale, cifar_spec(scale), 23)
        .clusters(scale.pick(2, 1))
        .devices_per_cluster(5)
        .widths(vec![0.5, 1.0])
        .depths(scale.pick(vec![2, 4], vec![1, 2]))
        .search(scale.pick(SearchConfig::default(), SearchConfig::quick()))
        .refine(RefineConfig {
            loop_rounds: scale.pick(3, 2),
            local_epochs: 1,
            drop_per_round: 6,
            ..RefineConfig::default()
        })
        .build()
        .expect("the harness pipeline is valid");
    let acme = Acme::try_new(config.clone()).expect("validated configuration");
    let pre = acme.pretrain().expect("pretraining");
    let pool = acme.candidate_pool(&pre);
    let selection = acme.select(&pre, &pool, None).expect("selection");

    let mut rows = Vec::new();
    for level in ConfusionLevel::all() {
        let at_level = Acme::try_new(AcmeConfig {
            confusion: level,
            ..config.clone()
        })
        .expect("validated configuration");
        let clusters = at_level
            .search_clusters(&pre, &pool, &selection, None)
            .expect("every device and edge holds data");
        let mut row = vec![level.to_string()];
        for method in AggregationMethod::all() {
            let refine = RefineConfig {
                method,
                ..config.refine.clone()
            };
            let mut total = 0.0f64;
            let mut count = 0usize;
            for cluster in &clusters {
                let out = cluster
                    .refine(&Pool::default(), &refine, None)
                    .expect("refinement without a network cannot fault");
                for r in &out.results {
                    total += r.improvement() as f64;
                    count += 1;
                }
            }
            row.push(format!("{:+.3}", total / count.max(1) as f64));
        }
        rows.push(row);
    }
    print_table(
        "Fig. 11: accuracy improvement by aggregation method and data distribution",
        &["distribution", "Alone", "Avg", "JS", "ACME"],
        &rows,
    );
    println!("\npaper: all methods improve on the original model; Avg loses its edge as");
    println!("confusion grows; ACME (Wasserstein) improves the most across all levels.");
}
