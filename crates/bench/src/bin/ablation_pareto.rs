//! Ablation — the grid-based PFG selection (Eq. 13) vs plain weighted-sum
//! scalarization over normalized objectives, across the fleet.

use acme::{cluster_objective, Acme};
use acme_bench::{cifar_spec, f3, pipeline_config, print_table, RunScale};
use acme_pareto::{select_constrained, Candidate, EfficiencyMetrics, GridSpec};

/// Weighted-sum baseline: minimize the mean of objectives normalized by
/// the population's worst value, subject to the storage bound.
fn weighted_sum(candidates: &[Candidate], bound: f64) -> Option<&Candidate> {
    let worst = candidates
        .iter()
        .fold([f64::MIN; acme_pareto::NUM_OBJECTIVES], |mut acc, c| {
            for (a, &o) in acc.iter_mut().zip(&c.objectives) {
                *a = a.max(o);
            }
            acc
        });
    candidates
        .iter()
        .filter(|c| c.size() < bound)
        .min_by(|a, b| {
            let score = |c: &Candidate| {
                c.objectives
                    .iter()
                    .zip(&worst)
                    .map(|(&o, &w)| o / w.max(1e-12))
                    .sum::<f64>()
            };
            score(a).partial_cmp(&score(b)).expect("finite")
        })
}

fn main() {
    let scale = RunScale::from_args();
    let config = pipeline_config(scale, cifar_spec(scale), 43)
        .clusters(scale.pick(10, 4))
        .devices_per_cluster(5)
        .widths(scale.pick(vec![0.25, 0.5, 0.75, 1.0], vec![0.5, 1.0]))
        .depths(scale.pick(vec![1, 2, 3, 4, 5, 6], vec![2, 4]))
        .build()
        .expect("the harness pipeline is valid");
    let acme = Acme::try_new(config.clone()).expect("validated configuration");
    let pre = acme.pretrain().expect("pretraining");
    let pool = acme.candidate_pool(&pre).candidates;

    let mut rows = Vec::new();
    for (name, use_pfg) in [("PFG (Eq. 13)", true), ("weighted-sum", false)] {
        let mut acc = 0.0f64;
        let mut tradeoff = 0.0f64;
        let mut count = 0usize;
        for cluster in pre.fleet.clusters() {
            let candidates: Vec<Candidate> = pool
                .iter()
                .map(|c| cluster_objective(c, cluster, &config.energy, config.energy_epochs))
                .collect();
            let bound = cluster.min_storage() as f64;
            let chosen = if use_pfg {
                let spec = GridSpec::from_candidates(&candidates, config.gamma_p).ok();
                spec.and_then(|s| {
                    select_constrained(&candidates, &s, bound)
                        .expect("candidate objectives are finite")
                        .cloned()
                })
            } else {
                weighted_sum(&candidates, bound).cloned()
            };
            if let Some(c) = chosen {
                let m = EfficiencyMetrics::for_candidate(&c, &candidates);
                acc += c.accuracy;
                tradeoff += m.tradeoff_score;
                count += 1;
            }
        }
        let n = count.max(1) as f64;
        rows.push(vec![
            name.to_string(),
            count.to_string(),
            f3(acc / n),
            f3(tradeoff / n),
        ]);
    }
    print_table(
        "Ablation: PFG selection vs weighted-sum scalarization",
        &[
            "method",
            "clusters matched",
            "mean accuracy",
            "mean trade-off (lower=better)",
        ],
        &rows,
    );
    println!("\nexpected: the PFG keeps accuracy within the performance window while the");
    println!("weighted sum over-favors small/cheap models and loses accuracy.");
}
