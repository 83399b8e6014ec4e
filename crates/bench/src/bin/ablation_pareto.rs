//! Ablation — the grid-based PFG selection (Eq. 13) vs plain weighted-sum
//! scalarization over normalized objectives, across the fleet.

use acme::{build_candidate_pool_on, Pool};
use acme_bench::{eval_cifar, f3, print_table, RunScale};
use acme_energy::{EnergyModel, Fleet};
use acme_nn::ParamSet;
use acme_pareto::{select_constrained, Candidate, EfficiencyMetrics, GridSpec};
use acme_tensor::SmallRng64;
use acme_vit::{fit, TrainConfig, Vit, VitConfig};

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
    let mut rng = SmallRng64::new(43);
    let ds = eval_cifar(scale, &mut rng);
    let (train, val) = ds.split(0.8, &mut rng);
    let classes = ds.num_classes();
    let cfg = VitConfig::reference(classes);
    let mut ps = ParamSet::new();
    let teacher = Vit::new(&mut ps, &cfg, &mut rng);
    fit(
        &teacher,
        &mut ps,
        &train,
        &TrainConfig {
            epochs: scale.pick(8, 3),
            ..TrainConfig::default()
        },
    );
    let pool = build_candidate_pool_on(
        &Pool::default(),
        &teacher,
        &ps,
        &train,
        &val,
        &scale.pick(vec![0.25, 0.5, 0.75, 1.0], vec![0.5, 1.0]),
        &scale.pick(vec![1, 2, 3, 4, 5, 6], vec![2, 4]),
        &TrainConfig {
            epochs: scale.pick(2, 1),
            ..TrainConfig::default()
        },
        2,
        &mut rng,
    );
    let energy = EnergyModel::default();
    let fleet = Fleet::micro_scaled(scale.pick(10, 4), 5, cfg.exact_params());

    let mut rows = Vec::new();
    for (name, use_pfg) in [("PFG (Eq. 13)", true), ("weighted-sum", false)] {
        let mut acc = 0.0f64;
        let mut tradeoff = 0.0f64;
        let mut count = 0usize;
        for cluster in fleet.clusters() {
            let candidates: Vec<Candidate> = pool
                .iter()
                .map(|c| {
                    let e = cluster
                        .devices()
                        .iter()
                        .map(|d| energy.energy(d, c.w, c.d, 5))
                        .fold(f64::NEG_INFINITY, f64::max);
                    Candidate::new(c.w, c.d, [c.loss, e, c.params as f64]).with_accuracy(c.accuracy)
                })
                .collect();
            let bound = cluster.min_storage() as f64;
            let chosen = if use_pfg {
                let spec = GridSpec::from_candidates(&candidates, 0.15).ok();
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
