//! Drift sweep: online re-customization under distribution drift —
//! detection latency, re-customization transfer bytes versus a
//! cold-start redeploy, and post-adaptation accuracy recovery, recorded
//! to `BENCH_drift.json`.
//!
//! Run via `cargo run --release -p acme-bench --bin drift`. Flags:
//!
//! - `--smoke`: one strong-drift fleet, with a wall-clock ceiling (CI
//!   guard) and the same self-checks as the full sweep.
//! - `--out PATH`: write the JSON somewhere other than
//!   `BENCH_drift.json`.

use std::time::Instant;

use acme_bench::drift::{sweep, write_json, SweepConfig};

/// Wall-clock ceiling for the `--smoke` sweep.
const SMOKE_CEILING_SECS: f64 = 120.0;

/// Under strong drift (the highest magnitude swept) the devices that
/// re-customized must recover to within this of their pre-drift
/// accuracy.
const RECOVERY_TOLERANCE: f64 = 0.15;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let out_path = acme_bench::out_path("BENCH_drift.json");

    let cfg = if smoke {
        SweepConfig::smoke()
    } else {
        SweepConfig::full()
    };
    let started = Instant::now();
    let rows = sweep(&cfg);
    let wall = started.elapsed().as_secs_f64();

    println!("drift sweep (cold start = redeploying the full variant checkpoint):");
    println!(
        "{:>5} {:>6} {:>8} {:>8} {:>12} {:>12} {:>7} {:>8} {:>8} {:>8} {:>8}",
        "mag",
        "fleet",
        "drifted",
        "latency",
        "delta_bytes",
        "cold_bytes",
        "ratio",
        "acc_pre",
        "acc_det",
        "acc_end",
        "wall_s",
    );
    for r in &rows {
        println!(
            "{:>5.2} {:>6} {:>8} {:>8} {:>12} {:>12} {:>7} {:>8.3} {:>8.3} {:>8.3} {:>8.2}",
            r.magnitude,
            r.fleet_devices,
            r.drifted_devices,
            r.mean_detection_latency
                .map_or_else(|| "-".into(), |l| format!("{l:.1}")),
            r.total_delta_bytes,
            r.total_cold_start_bytes,
            r.transfer_ratio
                .map_or_else(|| "-".into(), |x| format!("{x:.3}")),
            r.mean_accuracy_before,
            r.mean_accuracy_at_detection,
            r.mean_accuracy_final,
            r.wall_s,
        );
    }

    match write_json(&out_path, &rows) {
        Ok(()) => eprintln!("wrote {out_path} ({} rows)", rows.len()),
        Err(e) => {
            eprintln!("error: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    // Self-checks: the strongest drift swept must be detected by a
    // majority of each fleet (the detector's measured recall there is
    // 72 % of device-streams, DESIGN.md §16 — "every device" holds for
    // fewer than half of all stream seeds), re-customization must ship
    // far less than a cold start, and the devices that re-customized
    // must recover close to their pre-drift accuracy.
    assert!(!rows.is_empty(), "sweep emitted no rows");
    let strongest = rows
        .iter()
        .map(|r| r.magnitude)
        .fold(f64::NEG_INFINITY, f64::max);
    for r in rows.iter().filter(|r| r.magnitude == strongest) {
        assert!(
            2 * r.drifted_devices > r.fleet_devices,
            "magnitude {:.2}, fleet {}: only {} devices detected drift",
            r.magnitude,
            r.fleet_devices,
            r.drifted_devices
        );
        let ratio = r.transfer_ratio.expect("detected fleet ships deltas");
        assert!(
            ratio <= 0.25,
            "magnitude {:.2}, fleet {}: deltas cost {:.1}% of cold start (need <= 25%)",
            r.magnitude,
            r.fleet_devices,
            100.0 * ratio
        );
        assert!(
            r.recustomized_accuracy_final >= r.recustomized_accuracy_before - RECOVERY_TOLERANCE,
            "magnitude {:.2}, fleet {}: accuracy did not recover ({:.3} vs {:.3} pre-drift)",
            r.magnitude,
            r.fleet_devices,
            r.recustomized_accuracy_final,
            r.recustomized_accuracy_before
        );
        assert!(
            r.recustomized_accuracy_final > r.mean_accuracy_at_detection,
            "magnitude {:.2}, fleet {}: adaptation did not improve on the stale header",
            r.magnitude,
            r.fleet_devices
        );
    }

    if smoke {
        assert!(
            wall < SMOKE_CEILING_SECS,
            "drift smoke blew its wall-clock ceiling: {wall:.2} s >= {SMOKE_CEILING_SECS} s"
        );
        eprintln!("smoke OK ({wall:.3} s < {SMOKE_CEILING_SECS} s ceiling)");
    }
}
