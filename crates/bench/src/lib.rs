//! # acme-bench
//!
//! The benchmark harness of the ACME reproduction: one binary per table
//! and figure of the paper's evaluation (§IV), plus ablation binaries for
//! the design choices called out in `DESIGN.md`, and six timing sweeps
//! (`kernels`, `training_step`, `serving`, `store`, `drift`,
//! `fleet_scale`) that each record a `BENCH_*.json`.
//!
//! Every `fig*`/`table1`/`ablation*` binary prints the same rows or
//! series the paper reports and accepts `--quick` for a reduced run:
//!
//! ```sh
//! cargo run -p acme-bench --release --bin fig7a            # full
//! cargo run -p acme-bench --release --bin fig7a -- --quick # CI-sized
//! ```
//!
//! The recorded outputs live in `EXPERIMENTS.md` at the repository root.

use acme::{
    coarse_header_search, customize_backbone_for_cluster, Acme, AcmeConfig, AcmeConfigBuilder,
};
use acme_data::{cifar100_like, stanford_cars_like, Dataset, SyntheticSpec};
use acme_energy::{Device, DeviceCluster, EdgeId};
use acme_nas::SearchConfig;
use acme_nn::ParamSet;
use acme_tensor::SmallRng64;
use acme_vit::baselines::BaselineKind;
use acme_vit::headers::{HeadedVit, Header};
use acme_vit::{evaluate, fit, TrainConfig, VitConfig};

pub mod drift;
pub mod kernels;
pub mod serving;
pub mod store;
pub mod trainstep;

/// Scale of a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Paper-shaped settings (minutes in release mode).
    Full,
    /// Reduced settings for smoke runs.
    Quick,
}

impl RunScale {
    /// Parses `--quick` from the process arguments.
    pub fn from_args() -> RunScale {
        if std::env::args().any(|a| a == "--quick") {
            RunScale::Quick
        } else {
            RunScale::Full
        }
    }

    /// Picks `full` or `quick` by scale.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            RunScale::Full => full,
            RunScale::Quick => quick,
        }
    }
}

/// The sweep bins' `--out PATH` argument: where to write the JSON rows,
/// `default` (the committed `BENCH_*.json`) when the flag is absent.
pub fn out_path(default: &str) -> String {
    std::env::args()
        .skip_while(|a| a != "--out")
        .nth(1)
        .unwrap_or_else(|| default.to_string())
}

/// Process peak resident set in MB, from `/proc/self/status` (`VmHWM`).
/// Returns 0 where procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The CIFAR-100-like evaluation spec at harness scale.
pub fn cifar_spec(scale: RunScale) -> SyntheticSpec {
    SyntheticSpec {
        classes: scale.pick(20, 8),
        per_class: scale.pick(40, 16),
        // Calibrated so the reference ViT lands around 0.73 test accuracy
        // after 8 epochs and a half-width/half-depth model around 0.46 —
        // the dynamic range where the paper's comparisons live. Quick
        // runs get an easier problem to match their smaller budgets.
        confusion: scale.pick(0.8, 0.5),
        noise: scale.pick(0.9, 0.55),
        ..SyntheticSpec::cifar()
    }
}

/// The CIFAR-100-like evaluation workload at harness scale.
pub fn eval_cifar(scale: RunScale, rng: &mut SmallRng64) -> Dataset {
    cifar100_like(&cifar_spec(scale), rng).expect("benchmark spec is valid")
}

/// The Stanford-Cars-like auxiliary spec (§IV-D): fine-grained classes
/// (high shared structure) and more intra-class variation.
pub fn cars_spec(scale: RunScale) -> SyntheticSpec {
    SyntheticSpec {
        classes: scale.pick(20, 8),
        per_class: scale.pick(40, 16),
        confusion: scale.pick(0.85, 0.6),
        noise: scale.pick(0.95, 0.65),
        ..SyntheticSpec::cars()
    }
}

/// The Stanford-Cars-like auxiliary workload at harness scale.
pub fn eval_cars(scale: RunScale, rng: &mut SmallRng64) -> Dataset {
    stanford_cars_like(&cars_spec(scale), rng).expect("benchmark spec is valid")
}

/// The pipeline a bin that varies one of its stages runs at harness
/// scale: `dataset` is the cloud's public data and the devices' pool,
/// the reference ViT is pretrained for 8 epochs (quick: 3), and each
/// candidate is distilled for 2 (1) after two importance batches. The
/// bin sets its grid, fleet and stage settings on the builder.
pub fn pipeline_config(scale: RunScale, dataset: SyntheticSpec, seed: u64) -> AcmeConfigBuilder {
    AcmeConfig::builder()
        .reference(VitConfig::reference(dataset.classes))
        .dataset(dataset)
        .pretrain(TrainConfig {
            epochs: scale.pick(8, 3),
            ..TrainConfig::default()
        })
        .distill(TrainConfig {
            epochs: scale.pick(2, 1),
            ..TrainConfig::default()
        })
        .importance_batches(2)
        .seed(seed)
}

/// Figs. 7(a) and 13(a): ACME's customized model against the
/// lightweight-ViT baselines under a storage budget, one
/// `[model, params, accuracy]` row each, the ACME row last.
///
/// The baselines train on the pipeline's public training split with the
/// teacher's schedule. ACME selects from the pipeline's candidate pool
/// under a budget of 70% of the reference model (the paper's 25M of
/// ViT-B's 86M is a ~30% budget; the pool spans a narrower band, so the
/// bound is one that binds), searches a header on the same split and
/// fine-tunes both jointly for `finetune_epochs`. Every model is scored
/// on the public validation split.
pub fn storage_constrained(
    scale: RunScale,
    dataset: SyntheticSpec,
    seed: u64,
    finetune_epochs: usize,
) -> Vec<Vec<String>> {
    let config = pipeline_config(scale, dataset, seed)
        .clusters(1)
        .devices_per_cluster(1)
        .widths(vec![0.5, 0.75, 1.0])
        .depths(scale.pick(vec![2, 3, 4, 5, 6], vec![2, 4]))
        .search(SearchConfig {
            num_blocks: 2,
            u: 1,
            rounds: scale.pick(2, 1),
            shared_steps: scale.pick(10, 4),
            controller_steps: scale.pick(8, 3),
            final_candidates: scale.pick(4, 2),
            ..SearchConfig::default()
        })
        .build()
        .expect("the harness pipeline is valid");
    let acme = Acme::try_new(config.clone()).expect("validated configuration");
    let pre = acme.pretrain().expect("pretraining");
    let (train, test) = (&pre.public_train, &pre.public_val);
    let mut rng = SmallRng64::new(seed);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let d = &config.dataset;
    let (image, channels, classes) = (d.size, d.channels, d.classes);
    for kind in BaselineKind::all() {
        let mut ps = ParamSet::new();
        let model = kind.build(&mut ps, image, channels, classes, &mut rng);
        fit(model.as_ref(), &mut ps, train, &config.pretrain);
        let acc = evaluate(model.as_ref(), &ps, test, 32);
        rows.push(vec![
            kind.to_string(),
            ps.num_scalars().to_string(),
            f3(acc as f64),
        ]);
    }

    let pool = acme.candidate_pool(&pre).candidates;
    let budget = (config.reference.exact_params() as f64 * 0.7) as u64;
    let cluster = DeviceCluster::new(EdgeId(0), vec![Device::new(0, 5.0, budget)]);
    let idx = customize_backbone_for_cluster(
        &pool,
        &cluster,
        &config.energy,
        config.energy_epochs,
        config.gamma_p,
    )
    .expect("finite pool")
    .expect("budget feasible");
    let chosen = &pool[idx];
    let mut ps = chosen.ps.clone();
    let custom = coarse_header_search(
        EdgeId(0),
        &chosen.vit,
        &mut ps,
        train,
        &config.search,
        &mut rng,
    );
    let model = HeadedVit::new(&chosen.vit, &custom.header);
    fit(
        &model,
        &mut ps,
        train,
        &TrainConfig {
            epochs: finetune_epochs,
            ..TrainConfig::default()
        },
    );
    let acc = evaluate(&model, &ps, test, 32);
    let params = chosen.params + ps.num_scalars_of(&Header::param_ids(&custom.header)) as u64;
    rows.push(vec![
        format!("ACME (w={:.2} d={})", chosen.w, chosen.d),
        params.to_string(),
        f3(acc as f64),
    ]);
    rows
}

/// Prints a Markdown-ish table: a header row and aligned value rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick_dispatches() {
        assert_eq!(RunScale::Full.pick(10, 2), 10);
        assert_eq!(RunScale::Quick.pick(10, 2), 2);
    }

    #[test]
    fn workloads_have_expected_shapes() {
        let mut rng = SmallRng64::new(0);
        let c = eval_cifar(RunScale::Quick, &mut rng);
        assert_eq!(c.num_classes(), 8);
        let s = eval_cars(RunScale::Quick, &mut rng);
        assert_eq!(s.num_classes(), 8);
        assert_eq!(c.get(0).0.shape(), &[3, 16, 16]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        // print_table must not panic on ragged-free input.
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
