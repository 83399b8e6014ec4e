//! Fig. 13(a) — auxiliary validation on the Stanford-Cars-like workload:
//! accuracy and size of ACME's customized model vs the lightweight-ViT
//! baselines under the storage constraint.
//!
//! Same protocol as `fig7a`, on the harder fine-grained dataset.

use acme_bench::{cars_spec, print_table, storage_constrained, RunScale};

fn main() {
    let scale = RunScale::from_args();
    let rows = storage_constrained(scale, cars_spec(scale), 31, scale.pick(8, 3));
    print_table(
        "Fig. 13(a): Stanford-Cars-like — accuracy vs parameters under storage constraint",
        &["model", "params", "accuracy"],
        &rows,
    );
    println!(
        "\npaper: ACME's model improves average accuracy by ~3.9 points under the constraint."
    );
}
