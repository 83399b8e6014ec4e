//! Where `customize`'s heap goes: runs the benchmark's `customize`
//! configuration (a 2 × 3 fleet, widths `[0.5, 1.0]`, depths
//! `[2, 4, 6]`, 2 threads) stage by stage under the counting allocator
//! and prints, for each stage, the owner gauges at the allocator's
//! high-water mark during it.
//!
//! ```sh
//! cargo run --release -p acme-bench --bin memory -- [--seed 42] [--quick] [--out memory.json]
//! ```
//!
//! `--quick` runs the quick preset instead. The stages are
//! [`Acme`]'s stage values: pretraining, Phase 1's candidate pool,
//! selection, Phase 2-1 (`search_clusters`) and Phase 2-2 (each
//! cluster's `refine`, one after another). The peak restarts from the
//! live bytes as each stage starts. The rows are disjoint (the tape and
//! dataset rows are their part of the pool's handed-out bytes), so their
//! sum over a peak's live bytes is how much of it the named owners
//! explain. `--out` also writes each stage's coverage and the bytes on
//! the pool's free lists right after Phase 1 as JSON, for CI.

use std::time::Instant;

use acme::{Acme, AcmeConfig, DeviceResult, Pool};
use acme_bench::{f1, print_table, RunScale};
use acme_tensor::obs::mem::{self, CountingAlloc, Peak};
use acme_tensor::pool;

const MB: f64 = 1024.0 * 1024.0;

/// The table's columns, in the order the stages run.
const STAGES: [&str; 5] = ["pretrain", "phase 1", "selection", "phase 2-1", "phase 2-2"];

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` as one stage: restarts the peak, and keeps the one `f` sets.
fn stage<R>(peaks: &mut Vec<Peak>, f: impl FnOnce() -> R) -> R {
    mem::reset_peak();
    let out = f();
    peaks.push(mem::peak());
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value_of = |flag: &str| args.iter().skip_while(|a| *a != flag).nth(1);
    let seed = value_of("--seed").map_or(42, |s| s.parse().expect("--seed takes an integer"));
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
    let acme = Acme::try_new(cfg.clone()).expect("validated configuration");

    let start = Instant::now();
    let mut peaks = Vec::new();
    let pre = stage(&mut peaks, || acme.pretrain().expect("pretraining"));
    let candidates = stage(&mut peaks, || acme.candidate_pool(&pre));
    let retained_after_phase1 = pool::stats().retained_bytes;
    let selection = stage(&mut peaks, || {
        acme.select(&pre, &candidates, None).expect("selection")
    });
    let searched = stage(&mut peaks, || {
        acme.search_clusters(&pre, &candidates, &selection, None)
            .expect("Phase 2-1")
    });
    let devices: Vec<DeviceResult> = stage(&mut peaks, || {
        let rt = Pool::new(cfg.threads);
        searched
            .iter()
            .flat_map(|c| c.refine(&rt, &cfg.refine, None).expect("Phase 2-2").results)
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let names = peaks[0].rows().into_iter().map(|r| r.0);
    let names = names.chain(["owners, summed", "live at the peak", "coverage %"]);
    let columns: Vec<Vec<f64>> = peaks.iter().map(column).collect();
    let rows: Vec<Vec<String>> = names
        .enumerate()
        .map(|(i, name)| {
            std::iter::once(name.to_string())
                .chain(columns.iter().map(|c| f1(c[i])))
                .collect()
        })
        .collect();
    print_table(
        &format!("customize heap at each stage's allocator peak, MB (seed {seed})"),
        &std::iter::once("owner").chain(STAGES).collect::<Vec<_>>(),
        &rows,
    );
    let peak_bytes = peaks.iter().map(|p| p.peak_bytes).max().unwrap_or(0);
    println!(
        "\npool free lists right after Phase 1: {retained_after_phase1} B\n\
         peak live heap {:.1} MB; peak RSS (VmHWM) {:.1} MB; \
         mean accuracy {:.6}; stages took {wall_s:.2} s",
        peak_bytes as f64 / MB,
        acme_bench::peak_rss_mb(),
        // `AcmeOutcome::mean_accuracy`'s sum and rounding.
        devices
            .iter()
            .map(|d| f64::from(d.accuracy_after))
            .sum::<f64>() as f32
            / devices.len().max(1) as f32,
    );
    if let Some(path) = value_of("--out") {
        let stages: Vec<String> = STAGES
            .iter()
            .zip(&peaks)
            .zip(&columns)
            .map(|((name, p), c)| {
                format!(
                    "{{\"stage\": \"{name}\", \"peak_mb\": {:.3}, \"coverage_pct\": {:.2}}}",
                    p.peak_bytes as f64 / MB,
                    c[c.len() - 1]
                )
            })
            .collect();
        let json = format!(
            "{{\"seed\": {seed}, \"stages\": [{}], \
             \"pool_retained_after_phase1_bytes\": {retained_after_phase1}}}\n",
            stages.join(", ")
        );
        std::fs::write(path, json).expect("write --out");
    }
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
