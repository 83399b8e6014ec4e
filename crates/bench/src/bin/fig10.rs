//! Fig. 10 — feature-extraction ability of the Wasserstein distance vs
//! the JS divergence: the aggregation weights each similarity gives the
//! five devices of one cluster under severe label skew (C3; quick runs
//! C2, since C3 leaves a device of the smaller pool without test data).
//!
//! Varies Phase 2-2's similarity on one searched cluster: both matrices
//! are the `RefineOutcome::weights` (Eq. 20, row-normalized) that
//! `SearchedCluster::refine` aggregated with. The paper's point: JS
//! saturates on (near-)disjoint label supports, so a device weighs its
//! peers nearly alike; the Wasserstein distance on backbone features
//! still grades *how far* distributions are, which shows as a wider
//! spread of each device's peer weights.

use acme::{Acme, Pool, RefineConfig};
use acme_agg::AggregationMethod;
use acme_bench::{cifar_spec, pipeline_config, print_table, RunScale};
use acme_data::ConfusionLevel;
use acme_nas::SearchConfig;

fn matrix_rows(m: &[Vec<f64>]) -> Vec<Vec<String>> {
    m.iter()
        .enumerate()
        .map(|(i, row)| {
            let mut cells = vec![format!("device {i}")];
            cells.extend(row.iter().map(|v| format!("{v:.3}")));
            cells
        })
        .collect()
}

/// Mean over devices of the standard deviation of a device's weights on
/// its peers (its row's off-diagonal entries): 0 when every device
/// weighs all its peers alike.
fn peer_spread(m: &[Vec<f64>]) -> f64 {
    let std_of_peers = |(i, row): (usize, &Vec<f64>)| {
        let peers: Vec<f64> = (0..row.len()).filter(|&j| j != i).map(|j| row[j]).collect();
        let mean = peers.iter().sum::<f64>() / peers.len() as f64;
        (peers.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / peers.len() as f64).sqrt()
    };
    m.iter().enumerate().map(std_of_peers).sum::<f64>() / m.len() as f64
}

fn main() {
    let scale = RunScale::from_args();
    let config = pipeline_config(scale, cifar_spec(scale), 19)
        .clusters(1)
        .devices_per_cluster(5)
        .confusion(scale.pick(ConfusionLevel::C3, ConfusionLevel::C2))
        .widths(vec![0.5, 1.0])
        .depths(scale.pick(vec![2, 4], vec![1, 2]))
        .search(scale.pick(SearchConfig::default(), SearchConfig::quick()))
        .refine(RefineConfig {
            loop_rounds: scale.pick(3, 2),
            local_epochs: 1,
            sim_sample: scale.pick(40, 16),
            sim_projections: scale.pick(24, 8),
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
    let weights = |method| {
        let refine = RefineConfig {
            method,
            ..config.refine.clone()
        };
        clusters[0]
            .refine(&Pool::default(), &refine, None)
            .expect("refinement without a network cannot fault")
            .weights
    };
    let wass = weights(AggregationMethod::Wasserstein);
    let js = weights(AggregationMethod::Js);

    let header = ["", "d0", "d1", "d2", "d3", "d4"];
    print_table(
        "Fig. 10 (left): Wasserstein aggregation weights",
        &header,
        &matrix_rows(&wass),
    );
    print_table(
        "Fig. 10 (right): JS aggregation weights",
        &header,
        &matrix_rows(&js),
    );

    println!("\npeer-weight spread (mean over devices of the std of its peers' weights):");
    println!("  Wasserstein: {:.4}", peer_spread(&wass));
    println!("  JS:          {:.4}", peer_spread(&js));
    println!("paper: the Wasserstein distance captures the complex data relationships");
    println!("between devices that the saturated JS divergence cannot grade.");
}
