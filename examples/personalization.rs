//! Personalized architecture aggregation (Phase 2-2): five non-IID
//! devices refine a shared coarse header; the example contrasts the four
//! aggregation methods of Fig. 11 (Alone / Avg / JS / ACME) and prints
//! the Wasserstein similarity matrix of Fig. 10.
//!
//! The device grouping follows the paper's Fig. 10 setup exactly:
//! devices 0–2 draw from one class distribution, devices 3–4 from a
//! disjoint one.
//!
//! ```sh
//! cargo run --release --example personalization
//! ```

use acme::{refine_cluster, DeviceSetup, RefineConfig};
use acme_agg::AggregationMethod;
use acme_data::{generate, Dataset, SyntheticSpec};
use acme_energy::{DeviceId, EdgeId};
use acme_nas::{HeaderArch, NasHeader, SharedParams};
use acme_nn::ParamSet;
use acme_tensor::SmallRng64;
use acme_vit::{fit, TrainConfig, Vit, VitConfig};

/// Sub-dataset of the examples whose label is in `classes`.
fn by_classes(ds: &Dataset, classes: &[usize]) -> Dataset {
    let idx: Vec<usize> = (0..ds.len())
        .filter(|&i| classes.contains(&ds.get(i).1))
        .collect();
    ds.subset(&idx)
}

fn main() {
    let mut rng = SmallRng64::new(3);
    let spec = SyntheticSpec {
        classes: 10,
        per_class: 45,
        confusion: 0.55,
        noise: 0.5,
        ..SyntheticSpec::cifar()
    };
    let ds = generate(&spec, &mut rng).expect("valid spec");

    // Fig. 10 grouping: devices 0-2 on classes 0..5, devices 3-4 on 5..10.
    let group_a = by_classes(&ds, &[0, 1, 2, 3, 4]);
    let group_b = by_classes(&ds, &[5, 6, 7, 8, 9]);
    let mut devices = Vec::new();
    for i in 0..5usize {
        let source = if i < 3 { &group_a } else { &group_b };
        let mut drng = rng.fork(100 + i as u64);
        let local = source.sample(70, &mut drng);
        let (train, test) = local.split(0.5, &mut drng);
        // Scarce local training data is what makes collaboration matter.
        let train = train.sample(20, &mut drng);
        devices.push(DeviceSetup {
            device: DeviceId(i),
            train,
            test,
        });
    }

    // Shared backbone + coarse header (a deterministic chain stands in
    // for the edge's NAS result so the comparison isolates aggregation).
    let cfg = VitConfig {
        classes: 10,
        depth: 2,
        ..VitConfig::reference(10)
    };
    let mut ps = ParamSet::new();
    let vit = Vit::new(&mut ps, &cfg, &mut rng);
    let pool: Dataset = devices
        .iter()
        .map(|d| d.train.clone())
        .reduce(|a, b| a.merged(&b))
        .expect("devices present");
    println!("pre-training shared backbone on pooled edge data...");
    fit(
        &vit,
        &mut ps,
        &pool,
        &TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        },
    );
    let shared = SharedParams::new(&mut ps, "sn", 2, cfg.dim, cfg.grid(), 10, &mut rng);
    let header = NasHeader::new(HeaderArch::chain(2, 1), shared);

    println!(
        "\nper-method refinement ({} devices, two distribution groups):",
        devices.len()
    );
    let seeds = [11u64, 22, 33];
    let mut acme_weights = None;
    for method in AggregationMethod::all() {
        let mut accs = 0.0f32;
        let mut imprs = 0.0f32;
        for &seed in &seeds {
            let refine_cfg = RefineConfig {
                loop_rounds: 3,
                local_epochs: 1,
                drop_per_round: 10,
                method,
                ..RefineConfig::default()
            };
            let out = refine_cluster(
                &acme::Pool::default(),
                EdgeId(0),
                &vit,
                &header,
                &ps,
                &devices,
                &refine_cfg,
                None,
                &mut SmallRng64::new(seed),
            )
            .expect("refinement without a network cannot fault");
            accs += out.results.iter().map(|r| r.accuracy_after).sum::<f32>()
                / out.results.len() as f32;
            imprs += out
                .results
                .iter()
                .map(acme::DeviceResult::improvement)
                .sum::<f32>()
                / out.results.len() as f32;
            if method == AggregationMethod::Wasserstein && seed == seeds[0] {
                acme_weights = Some(out.weights);
            }
        }
        let n = seeds.len() as f32;
        println!(
            "  {method:>5}: mean accuracy {:.3}, mean improvement {:+.3}  (avg over {} seeds)",
            accs / n,
            imprs / n,
            seeds.len()
        );
    }

    if let Some(weights) = acme_weights {
        println!("\nWasserstein aggregation weights (rows sum to 1):");
        for (i, row) in weights.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|w| format!("{w:.2}")).collect();
            let group = if i < 3 { "A" } else { "B" };
            println!("  device {i} (group {group}): [{}]", cells.join(", "));
        }
        println!("(devices 0-2 should weight each other higher; likewise 3-4)");
    }
}
