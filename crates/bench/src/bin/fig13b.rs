//! Fig. 13(b) — auxiliary validation on the Stanford-Cars-like workload:
//! fixed headers vs the NAS header at matched backbone sizes (the
//! fine-grained dataset shows the larger NAS gains the paper reports).
//!
//! Same sweep as `fig7b` (`header_sweep` over the pool's `w = 1` cells),
//! on the harder fine-grained dataset.

use acme_bench::{cars_spec, header_sweep, nas_gain, print_table, RunScale};
use acme_vit::headers::HeaderKind;

fn main() {
    let scale = RunScale::from_args();
    let depths = scale.pick(vec![2, 4, 6], vec![2, 4]);
    let kinds = HeaderKind::all();
    let rows = header_sweep(scale, cars_spec(scale), 37, vec![1.0], depths, &kinds);
    print_table(
        "Fig. 13(b): Stanford-Cars-like — headers at matched backbone sizes",
        &["backbone", "linear", "mlp", "cnn", "attn-pool", "NAS"],
        &rows,
    );
    let mean_gain = rows.iter().map(|r| nas_gain(r)).sum::<f64>() / rows.len() as f64;
    println!(
        "\nmean NAS gain over the best fixed header: {:+.1} pts (paper: ~+14.4 pts averaged over sizes on Stanford Cars)",
        mean_gain * 100.0
    );
}
