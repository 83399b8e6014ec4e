//! Fig. 8 — accuracy of different header families applied to varying
//! backbone architectures: a (width × depth) grid of backbones, each
//! paired with a simple (linear) header, a complex (CNN) header, and the
//! NAS header.
//!
//! Varies the header over every cell of Phase 1's pool (`header_sweep`).
//! The paper's observation: simple backbones need complex headers, and
//! complex backbones are best served by simpler headers — NAS adapts
//! automatically.

use acme_bench::{cifar_spec, header_sweep, print_table, RunScale};
use acme_vit::headers::HeaderKind;

fn main() {
    let scale = RunScale::from_args();
    let widths = scale.pick(vec![0.5, 0.75, 1.0], vec![0.5, 1.0]);
    let depths = scale.pick(vec![3, 4, 6], vec![2, 4]);
    let kinds = [HeaderKind::Linear, HeaderKind::Cnn];
    let rows = header_sweep(scale, cifar_spec(scale), 13, widths, depths, &kinds);
    print_table(
        "Fig. 8: header family x backbone architecture",
        &["backbone", "linear header", "cnn header", "NAS header"],
        &rows,
    );
    println!("\npaper reading: on simple backbones the CNN header should beat Linear;");
    println!("on the largest backbone the gap shrinks or reverses; NAS tracks the best.");
}
