//! Fig. 7(a) — learning performance under a storage constraint: ACME's
//! customized model vs six lightweight-ViT baselines on the
//! CIFAR-100-like workload, reporting (parameters, accuracy) pairs.
//!
//! The paper constrains device storage to 25M parameters for ViT-B-scale
//! models; the micro-scale equivalent here is a budget just below the
//! full reference model, which forces ACME to actually customize.

use acme_bench::{cifar_spec, print_table, storage_constrained, RunScale};

fn main() {
    let scale = RunScale::from_args();
    let rows = storage_constrained(scale, cifar_spec(scale), 7, scale.pick(5, 2));
    print_table(
        "Fig. 7(a): accuracy vs parameters under storage constraint",
        &["model", "params", "accuracy"],
        &rows,
    );
    let best_baseline = rows[..rows.len() - 1]
        .iter()
        .map(|r| r[2].parse::<f64>().unwrap())
        .fold(f64::NEG_INFINITY, f64::max);
    let acme_acc: f64 = rows.last().unwrap()[2].parse().unwrap();
    println!(
        "\nACME vs best baseline: {:+.1} accuracy points (paper reports ~+10 over the field, ~+4-5 over the best)",
        (acme_acc - best_baseline) * 100.0
    );
}
