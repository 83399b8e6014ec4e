//! Fig. 9 — comparison of model/device matching methods: selection
//! latency, energy-efficiency ratio, size-efficiency ratio, and the
//! trade-off score, averaged over the whole fleet.

use acme::{build_candidate_pool_on, Pool};
use acme_bench::{eval_cifar, f3, print_table, RunScale};
use acme_energy::{EnergyModel, Fleet};
use acme_nn::ParamSet;
use acme_pareto::{select_with, Candidate, EfficiencyMetrics, GridSpec, MatchingMethod};
use acme_tensor::SmallRng64;
use acme_vit::{fit, TrainConfig, Vit, VitConfig};

fn main() {
    let scale = RunScale::from_args();
    let mut rng = SmallRng64::new(17);
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
                .map(|c| {
                    let e = cluster
                        .devices()
                        .iter()
                        .map(|d| energy.energy(d, c.w, c.d, 5))
                        .fold(f64::NEG_INFINITY, f64::max);
                    Candidate::new(c.w, c.d, [c.loss, e, c.params as f64]).with_accuracy(c.accuracy)
                })
                .collect();
            // Grid construction is amortized per cluster (Algorithm 1):
            // every device of the cluster reuses it.
            let spec = GridSpec::from_candidates(&candidates, 0.15).expect("nonempty pool");
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
