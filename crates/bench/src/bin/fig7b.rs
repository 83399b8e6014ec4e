//! Fig. 7(b) — accuracy of the four fixed reference headers vs the
//! NAS-generated header across backbone sizes (width fixed to 1, depth
//! varied, as in the paper).
//!
//! Varies the header over Phase 1's backbones: the pool's `w = 1` cells
//! (`header_sweep`).

use acme_bench::{cifar_spec, header_sweep, nas_gain, print_table, RunScale};
use acme_vit::headers::HeaderKind;

fn main() {
    let scale = RunScale::from_args();
    let depths = scale.pick(vec![2, 4, 6], vec![2, 4]);
    let kinds = HeaderKind::all();
    let rows = header_sweep(scale, cifar_spec(scale), 11, vec![1.0], depths, &kinds);
    print_table(
        "Fig. 7(b): fixed headers vs NAS header across backbone depths (w=1)",
        &["backbone", "linear", "mlp", "cnn", "attn-pool", "NAS"],
        &rows,
    );
    println!(
        "\nNAS gain over best fixed header: {:+.1} pts on the smallest backbone, {:+.1} pts on the largest",
        nas_gain(&rows[0]) * 100.0,
        nas_gain(&rows[rows.len() - 1]) * 100.0
    );
    println!("(paper: ~+9 pts on small backbones, ~+3 pts on large)");
}
