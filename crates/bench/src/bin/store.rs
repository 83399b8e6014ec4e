//! Model-store sweep: content-addressed fleet footprint (shared
//! backbone blobs + per-device structural deltas) versus the naive
//! one-full-checkpoint-per-device layout, recorded to
//! `BENCH_store.json`.
//!
//! Run via `cargo run --release -p acme-bench --bin store`. Flags:
//!
//! - `--smoke`: one fleet size, with a wall-clock ceiling (CI guard)
//!   and the same self-checks as the full sweep.
//! - `--out PATH`: write the JSON somewhere other than
//!   `BENCH_store.json`.
//!
//! Every row restores the fleet from blobs and verifies the restored
//! variants bitwise against the source store, so the sweep doubles as
//! an end-to-end persist/restore correctness check.

use std::time::Instant;

use acme_bench::store::{sweep, StoreRow, SweepConfig};

/// Wall-clock ceiling for the `--smoke` sweep.
const SMOKE_CEILING_SECS: f64 = 60.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = acme_bench::or_exit(acme_bench::out_path(&args, "BENCH_store.json"));

    let cfg = if smoke {
        SweepConfig::smoke()
    } else {
        SweepConfig::full()
    };
    let started = Instant::now();
    let rows = sweep(&cfg);
    let wall = started.elapsed().as_secs_f64();

    println!("model-store sweep (naive = one full checkpoint per device):");
    println!(
        "{:>6} {:>9} {:>10} {:>12} {:>11} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "fleet",
        "clusters",
        "bb_params",
        "bb_bytes",
        "delta_mean",
        "store_bytes",
        "naive_bytes",
        "ratio",
        "persist_s",
        "restore_s",
    );
    for r in &rows {
        println!(
            "{:>6} {:>9} {:>10} {:>12} {:>11.0} {:>12} {:>12} {:>7.1}x {:>10.4} {:>10.4}",
            r.fleet_devices,
            r.clusters,
            r.backbone_params,
            r.backbone_blob_bytes,
            r.mean_delta_bytes,
            r.store_bytes,
            r.naive_bytes,
            r.ratio,
            r.persist_s,
            r.restore_s,
        );
    }

    let json: Vec<String> = rows.iter().map(StoreRow::json).collect();
    acme_bench::or_exit(acme_bench::write_rows(&out_path, &json));

    // Self-checks: restoration must be bit-exact, the delta layout must
    // beat the naive layout by the committed margin, and deltas must be
    // small against the backbone they encode against.
    assert!(!rows.is_empty(), "sweep emitted no rows");
    for r in &rows {
        assert!(
            r.bitwise_identical,
            "fleet of {} restored variants drifted from the source store",
            r.fleet_devices
        );
        assert!(
            r.ratio >= 10.0,
            "fleet of {}: store is only {:.1}x smaller than naive (need >= 10x)",
            r.fleet_devices,
            r.ratio
        );
        assert!(
            r.mean_delta_bytes * 10.0 < r.backbone_blob_bytes as f64,
            "fleet of {}: deltas are not small against the backbone",
            r.fleet_devices
        );
    }

    if smoke {
        assert!(
            wall < SMOKE_CEILING_SECS,
            "store smoke blew its wall-clock ceiling: {wall:.2} s >= {SMOKE_CEILING_SECS} s"
        );
        eprintln!("smoke OK ({wall:.3} s < {SMOKE_CEILING_SECS} s ceiling)");
    }
}
