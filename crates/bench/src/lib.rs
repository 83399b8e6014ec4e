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

use acme_data::{cifar100_like, stanford_cars_like, Dataset, SyntheticSpec};
use acme_tensor::SmallRng64;

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

/// The CIFAR-100-like evaluation workload at harness scale.
pub fn eval_cifar(scale: RunScale, rng: &mut SmallRng64) -> Dataset {
    let spec = SyntheticSpec {
        classes: scale.pick(20, 8),
        per_class: scale.pick(40, 16),
        // Calibrated so the reference ViT lands around 0.73 test accuracy
        // after 8 epochs and a half-width/half-depth model around 0.46 —
        // the dynamic range where the paper's comparisons live. Quick
        // runs get an easier problem to match their smaller budgets.
        confusion: scale.pick(0.8, 0.5),
        noise: scale.pick(0.9, 0.55),
        ..SyntheticSpec::cifar()
    };
    cifar100_like(&spec, rng).expect("benchmark spec is valid")
}

/// The Stanford-Cars-like auxiliary workload (§IV-D): fine-grained
/// classes (high shared structure) and more intra-class variation.
pub fn eval_cars(scale: RunScale, rng: &mut SmallRng64) -> Dataset {
    let spec = SyntheticSpec {
        classes: scale.pick(20, 8),
        per_class: scale.pick(40, 16),
        confusion: scale.pick(0.85, 0.6),
        noise: scale.pick(0.95, 0.65),
        ..SyntheticSpec::cars()
    };
    stanford_cars_like(&spec, rng).expect("benchmark spec is valid")
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
        assert_eq!(c.image_shape(), &[3, 16, 16]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        // print_table must not panic on ragged-free input.
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
