//! Where `customize`'s heap goes: runs the benchmark's `customize`
//! configuration (`Acme::run` over a 2 × 3 fleet, widths `[0.5, 1.0]`,
//! depths `[2, 4, 6]`, 2 threads) under the counting allocator and
//! prints, for pretraining and for the stages after it, the owner
//! gauges at the allocator's high-water mark.
//!
//! ```sh
//! cargo run --release -p acme-bench --bin memory -- [--seed 42] [--quick]
//! ```
//!
//! `--quick` runs the quick preset instead. The rows are disjoint (the
//! tape rows are the tapes' part of the pool's handed-out bytes), so
//! their sum over the peak's live bytes is how much of the peak the
//! named owners explain.

use acme::{Acme, AcmeConfig};
use acme_bench::{f1, print_table, RunScale};
use acme_tensor::obs::mem::{self, CountingAlloc, Peak};

const MB: f64 = 1024.0 * 1024.0;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let seed = std::env::args()
        .skip_while(|a| a != "--seed")
        .nth(1)
        .map_or(42, |s| s.parse().expect("--seed takes an integer"));
    let builder = match RunScale::from_args() {
        RunScale::Quick => AcmeConfig::builder().quick(),
        RunScale::Full => AcmeConfig::builder()
            .clusters(2)
            .devices_per_cluster(3)
            .widths(vec![0.5, 1.0])
            .depths(vec![2, 4, 6]),
    };
    let cfg = builder
        .threads(2)
        .seed(seed)
        .build()
        .expect("valid configuration");
    let acme = Acme::try_new(cfg).expect("validated configuration");

    mem::reset_peak();
    let pre = acme.pretrain().expect("pretraining");
    let pretrain = mem::peak();
    mem::reset_peak();
    let outcome = acme.run_from(&pre).expect("pipeline run");
    let stages = mem::peak();

    let names = pretrain.rows().into_iter().map(|r| r.0);
    let names = names.chain(["owners, summed", "live at the peak", "coverage %"]);
    let columns = [column(&pretrain), column(&stages)];
    let rows: Vec<Vec<String>> = names
        .enumerate()
        .map(|(i, name)| {
            std::iter::once(name.to_string())
                .chain(columns.iter().map(|c| f1(c[i])))
                .collect()
        })
        .collect();
    print_table(
        &format!("customize heap at the allocator's peak, MB (seed {seed})"),
        &["owner", "pretrain", "phases 1-2"],
        &rows,
    );
    println!(
        "\npeak live heap {:.1} MB; peak RSS (VmHWM) {:.1} MB; mean accuracy {:.6}",
        pretrain.peak_bytes.max(stages.peak_bytes) as f64 / MB,
        acme_bench::peak_rss_mb(),
        outcome.mean_accuracy(),
    );
}

/// One column of the table: each owner row in MB, their sum, the live
/// bytes at the peak, and the share of those the owners account for.
fn column(p: &Peak) -> Vec<f64> {
    let rows = p.rows();
    let owned: isize = rows.iter().map(|r| r.1).sum();
    let mut cells: Vec<f64> = rows.iter().map(|r| r.1 as f64 / MB).collect();
    cells.push(owned as f64 / MB);
    cells.push(p.live_bytes as f64 / MB);
    cells.push(100.0 * owned as f64 / p.live_bytes.max(1) as f64);
    cells
}
