//! Fig. 9 — comparison of model/device matching methods: selection
//! latency, energy-efficiency ratio, size-efficiency ratio, and the
//! trade-off score, averaged over the whole fleet.

use acme::{cluster_objective, Acme};
use acme_bench::{cifar_spec, f3, pipeline_config, print_table, RunScale};
use acme_pareto::{select_with, Candidate, EfficiencyMetrics, GridSpec, MatchingMethod};
use acme_tensor::SmallRng64;

fn main() {
    let scale = RunScale::from_args();
    let config = pipeline_config(scale, cifar_spec(scale), 17)
        .clusters(scale.pick(10, 4))
        .devices_per_cluster(5)
        .widths(scale.pick(vec![0.25, 0.5, 0.75, 1.0], vec![0.5, 1.0]))
        .depths(scale.pick(vec![1, 2, 3, 4, 5, 6], vec![2, 4]))
        .build()
        .expect("the harness pipeline is valid");
    let acme = Acme::try_new(config.clone()).expect("validated configuration");
    let pre = acme.pretrain().expect("pretraining");
    let pool = acme.candidate_pool(&pre).candidates;
    let fleet = &pre.fleet;
    let mut rng = SmallRng64::new(17);

    let mut rows = Vec::new();
    for method in MatchingMethod::all() {
        let mut latency = 0.0f64;
        let mut eer = 0.0f64;
        let mut ser = 0.0f64;
        let mut tradeoff = 0.0f64;
        let mut ideal_d = 0.0f64;
        let mut matched = 0usize;
        for cluster in fleet.clusters() {
            let candidates: Vec<Candidate> = pool
                .iter()
                .map(|c| cluster_objective(c, cluster, &config.energy, config.energy_epochs))
                .collect();
            // Grid construction is amortized per cluster (Algorithm 1):
            // every device of the cluster reuses it.
            let spec =
                GridSpec::from_candidates(&candidates, config.gamma_p).expect("nonempty pool");
            for device in cluster.devices() {
                let out = select_with(
                    method,
                    &candidates,
                    &spec,
                    device.storage_limit() as f64,
                    &mut rng,
                )
                .expect("candidate objectives are finite");
                latency += out.selection_seconds;
                if let Some(c) = out.candidate {
                    let m = EfficiencyMetrics::for_candidate(&c, &candidates);
                    eer += m.energy_efficiency;
                    ser += m.size_efficiency;
                    tradeoff += m.tradeoff_score;
                    ideal_d += m.ideal_distance;
                    matched += 1;
                }
            }
        }
        let n = matched.max(1) as f64;
        rows.push(vec![
            method.to_string(),
            format!("{:.1}", latency * 1e6 / fleet.num_devices() as f64),
            f3(eer / n * 100.0),
            format!("{:.2}", ser / n * 1e6),
            f3(tradeoff / n),
            f3(ideal_d / n),
        ]);
    }
    print_table(
        "Fig. 9: matching methods over the fleet",
        &[
            "method",
            "selection latency (us/device)",
            "energy-eff x100",
            "size-eff x1e6",
            "trade-off (lower=better)",
            "ideal-dist (lower=better)",
        ],
        &rows,
    );
    println!("\npaper: ACME's selection latency is ~Random's and ~71% below Greedy's;");
    println!("ACME attains the best efficiency ratios and a >=28.9% better trade-off score.");
}
