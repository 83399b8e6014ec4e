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
//! Each model-building bin is a sweep over one stage of the pipeline
//! `Acme::run` chains: it builds its configuration with
//! [`pipeline_config`], runs the stages upstream of the one it varies
//! once (`Acme::pretrain` → `candidate_pool` → `select` →
//! `search_clusters`), and calls that stage under each setting. Its data
//! are `Pretrained`'s public splits or the devices' partition, and its
//! backbones the teacher or Phase 1's pool; only `fig1` trains models of
//! its own, from scratch, as the comparison. `table1` builds no model.
//!
//! The recorded outputs live in `EXPERIMENTS.md` at the repository root.

use acme::{
    coarse_header_search, customize_backbone_for_cluster, Acme, AcmeConfig, AcmeConfigBuilder,
    CandidateModel, Pretrained,
};
use acme_data::SyntheticSpec;
use acme_energy::{Device, DeviceCluster, EdgeId};
use acme_nas::SearchConfig;
use acme_nn::ParamSet;
use acme_tensor::SmallRng64;
use acme_vit::baselines::BaselineKind;
use acme_vit::headers::{HeadedVit, Header, HeaderKind};
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

/// The sweep bins' `--out PATH` argument in `args` (the process's
/// arguments): where to write the JSON rows, `default` (the committed
/// `BENCH_*.json`) when `args` has no `--out`. An `--out` with no path
/// after it is an error, not the committed file: `--out $UNSET` expands
/// to exactly that.
///
/// # Errors
///
/// When `--out` is the last argument.
pub fn out_path(args: &[String], default: &str) -> Result<String, String> {
    match args.iter().position(|a| a == "--out") {
        None => Ok(default.to_string()),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .ok_or_else(|| "--out needs a path".to_string()),
    }
}

/// Writes `rows`, one JSON object each, to `path` as a JSON array of
/// one row a line, and says so on stderr.
///
/// # Errors
///
/// When `path` cannot be written; the message names it.
pub fn write_rows(path: &str, rows: &[String]) -> Result<(), String> {
    std::fs::write(path, format!("[\n  {}\n]\n", rows.join(",\n  ")))
        .map_err(|e| format!("could not write {path}: {e}"))?;
    eprintln!("wrote {path} ({} rows)", rows.len());
    Ok(())
}

/// `r`'s value; its error goes to stderr and ends the process with
/// status 1.
pub fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
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

/// The header-comparison bins' pipeline, pretrained: one device over
/// the `widths` x `depths` grid, and a header search of two one-module
/// blocks.
fn header_pipeline(
    scale: RunScale,
    dataset: SyntheticSpec,
    seed: u64,
    widths: Vec<f64>,
    depths: Vec<usize>,
) -> (Acme, AcmeConfig, Pretrained) {
    let config = pipeline_config(scale, dataset, seed)
        .clusters(1)
        .devices_per_cluster(1)
        .widths(widths)
        .depths(depths)
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
    (acme, config, pre)
}

/// One header on a Phase 1 backbone, as Figs. 7 and 8 compare them: a
/// fixed family (`Some(kind)`) or Phase 2-1's searched header (`None`,
/// [`coarse_header_search`] under `search` on the public training
/// split), fine-tuned jointly with a copy of the backbone for `epochs` on
/// that split. Returns the accuracy on the public validation split and
/// the header's parameter count.
fn finetuned_header(
    pre: &Pretrained,
    candidate: &CandidateModel,
    kind: Option<HeaderKind>,
    search: &SearchConfig,
    epochs: usize,
    rng: &mut SmallRng64,
) -> (f64, u64) {
    let (vit, train) = (&candidate.vit, &pre.public_train);
    let mut ps = candidate.ps.clone();
    let header: Box<dyn Header> = match kind {
        Some(kind) => {
            let cfg = vit.config();
            kind.build(
                &mut ps,
                &format!("h{kind}"),
                cfg.dim,
                cfg.grid(),
                cfg.classes,
                rng,
            )
        }
        None => Box::new(coarse_header_search(EdgeId(0), vit, &mut ps, train, search, rng).header),
    };
    let model = HeadedVit::new(vit, header.as_ref());
    fit(
        &model,
        &mut ps,
        train,
        &TrainConfig {
            epochs,
            ..TrainConfig::default()
        },
    );
    let acc = evaluate(&model, &ps, &pre.public_val, 32) as f64;
    (acc, ps.num_scalars_of(&header.param_ids()) as u64)
}

/// Figs. 7(b), 8 and 13(b): every fixed header family of `kinds`, then
/// the searched header, on each backbone of Phase 1's `widths` x
/// `depths` pool (`finetuned_header`, 6 fine-tuning epochs; quick 3).
/// One `[backbone, kinds.., NAS]` row per pool cell, width-major.
pub fn header_sweep(
    scale: RunScale,
    dataset: SyntheticSpec,
    seed: u64,
    widths: Vec<f64>,
    depths: Vec<usize>,
    kinds: &[HeaderKind],
) -> Vec<Vec<String>> {
    let (acme, config, pre) = header_pipeline(scale, dataset, seed, widths, depths);
    let mut rng = SmallRng64::new(seed);
    let epochs = scale.pick(6, 3);
    let headers: Vec<Option<HeaderKind>> = kinds.iter().copied().map(Some).chain([None]).collect();
    acme.candidate_pool(&pre)
        .candidates
        .iter()
        .map(|c| {
            let mut row = vec![format!("w={:.2} d={}", c.w, c.d)];
            for &kind in &headers {
                let (acc, _) = finetuned_header(&pre, c, kind, &config.search, epochs, &mut rng);
                row.push(f3(acc));
            }
            row
        })
        .collect()
}

/// The NAS column of a [`header_sweep`] row minus its best fixed header.
pub fn nas_gain(row: &[String]) -> f64 {
    let acc: Vec<f64> = row[1..]
        .iter()
        .map(|a| a.parse().expect("f3 cell"))
        .collect();
    let (nas, fixed) = acc.split_last().expect("a NAS column");
    nas - fixed.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Phase 1 up to Algorithm 1's choice: the pretrained value and the
/// pool's backbone that `select` assigns to the first cluster.
pub fn assigned_backbone(config: AcmeConfig) -> (Pretrained, CandidateModel) {
    let acme = Acme::try_new(config).expect("validated configuration");
    let pre = acme.pretrain().expect("pretraining");
    let pool = acme.candidate_pool(&pre);
    let selection = acme.select(&pre, &pool, None).expect("selection");
    let a = &selection.assignments[0];
    let chosen = pool
        .candidates
        .into_iter()
        .find(|c| (c.w, c.d) == (a.w, a.d))
        .expect("an assignment names a pool cell");
    (pre, chosen)
}

/// Figs. 7(a) and 13(a): ACME's customized model against the
/// lightweight-ViT baselines under a storage budget, one
/// `[model, params, accuracy]` row each, the ACME row last.
///
/// The baselines train on the pipeline's public training split with the
/// teacher's schedule. ACME selects from the pipeline's candidate pool
/// under a budget of 70% of the reference model (the paper's 25M of
/// ViT-B's 86M is a ~30% budget; the pool spans a narrower band, so the
/// bound is one that binds), then searches a header on the same split
/// and fine-tunes both jointly for `finetune_epochs`
/// (`finetuned_header`). Every model is scored on the public
/// validation split.
pub fn storage_constrained(
    scale: RunScale,
    dataset: SyntheticSpec,
    seed: u64,
    finetune_epochs: usize,
) -> Vec<Vec<String>> {
    let depths = scale.pick(vec![2, 3, 4, 5, 6], vec![2, 4]);
    let (acme, config, pre) = header_pipeline(scale, dataset, seed, vec![0.5, 0.75, 1.0], depths);
    let mut rng = SmallRng64::new(seed);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let d = &config.dataset;
    let (image, channels, classes) = (d.size, d.channels, d.classes);
    for kind in BaselineKind::all() {
        let mut ps = ParamSet::new();
        let model = kind.build(&mut ps, image, channels, classes, &mut rng);
        fit(model.as_ref(), &mut ps, &pre.public_train, &config.pretrain);
        let acc = evaluate(model.as_ref(), &ps, &pre.public_val, 32);
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
    let (acc, header_params) = finetuned_header(
        &pre,
        chosen,
        None,
        &config.search,
        finetune_epochs,
        &mut rng,
    );
    rows.push(vec![
        format!("ACME (w={:.2} d={})", chosen.w, chosen.d),
        (chosen.params + header_params).to_string(),
        f3(acc),
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
    fn harness_pipelines_validate_with_expected_shapes() {
        for scale in [RunScale::Full, RunScale::Quick] {
            for spec in [cifar_spec(scale), cars_spec(scale)] {
                let config = pipeline_config(scale, spec, 0)
                    .build()
                    .expect("the harness pipeline is valid");
                let d = &config.dataset;
                assert_eq!(d.classes, scale.pick(20, 8));
                assert_eq!(config.reference.classes, d.classes);
                assert_eq!([d.channels, d.size, d.size], [3, 16, 16]);
            }
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn out_path_takes_the_flag_or_the_committed_default() {
        let default = "BENCH_kernels.json";
        assert_eq!(out_path(&args(&["kernels"]), default).unwrap(), default);
        let given = args(&["kernels", "--out", "/tmp/k.json", "--quick"]);
        assert_eq!(out_path(&given, default).unwrap(), "/tmp/k.json");
        // `--out $UNSET`: the flag with nothing after it.
        let unset = args(&["kernels", "--quick", "--out"]);
        assert!(out_path(&unset, default).is_err());
    }

    #[test]
    fn rows_are_written_one_a_line() {
        let path =
            std::env::temp_dir().join(format!("acme-bench-rows-{}.json", std::process::id()));
        let path = path.to_str().expect("a UTF-8 temp path");
        let rows = ["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()];
        write_rows(path, &rows).unwrap();
        let written = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(written, "[\n  {\"a\": 1},\n  {\"a\": 2}\n]\n");
        assert!(write_rows("/nonexistent-dir/rows.json", &rows)
            .unwrap_err()
            .contains("/nonexistent-dir/rows.json"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        // print_table must not panic on ragged-free input.
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
