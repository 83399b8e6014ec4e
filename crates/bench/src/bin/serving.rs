//! Serving sweep over the `acme-serve` stack: throughput, batch
//! occupancy, and p50/p99 latency across batch-window and fleet-size
//! settings, recorded to `BENCH_serving.json`.
//!
//! Run via `cargo run --release -p acme-bench --bin serving`. Flags:
//!
//! - `--smoke`: one fleet and two settings, with a wall-clock ceiling
//!   (CI guard) and a JSON-shape self-check.
//! - `--out PATH`: write the JSON somewhere other than
//!   `BENCH_serving.json`.
//! - `--precision f32|int8`: restrict the sweep — `f32` runs only the
//!   batching axis, `int8` only the precision axis (the GEMM-heavy
//!   quantized model at f32 and int8, so `speedup_vs_f32` is measured).
//!   Default runs both.
//!
//! Serving workers share this machine's cores with the GEMM pool;
//! kernel threading is pinned to one thread so the sweep isolates the
//! batching axis.

use std::time::Instant;

use acme_bench::serving::{sweep, sweep_precision, write_json, SweepConfig};

/// Wall-clock ceiling for the `--smoke` sweep.
const SMOKE_CEILING_SECS: f64 = 60.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = acme_bench::out_path("BENCH_serving.json");
    let precision_arg = args
        .iter()
        .position(|a| a == "--precision")
        .and_then(|i| args.get(i + 1))
        .map(|p| {
            acme_serve::Precision::parse(p)
                .unwrap_or_else(|| panic!("unknown precision {p:?}; expected f32 or int8"))
        });

    // One kernel thread: the serving workers are the parallelism axis
    // under measurement.
    acme_runtime::set_global_threads(1);

    let cfg = if smoke {
        SweepConfig::smoke()
    } else {
        SweepConfig::full()
    };
    let started = Instant::now();
    let mut rows = Vec::new();
    if precision_arg != Some(acme_serve::Precision::Int8) {
        rows.extend(sweep(&cfg));
    }
    if precision_arg != Some(acme_serve::Precision::F32) {
        rows.extend(sweep_precision(&cfg));
    }
    let wall = started.elapsed().as_secs_f64();

    println!("serving sweep (baseline = max_batch 1 at equal workers):");
    println!(
        "{:>6} {:>8} {:>7} {:>9} {:>6} {:>9} {:>10} {:>8} {:>8} {:>10} {:>6} {:>8} {:>8}",
        "fleet",
        "workers",
        "batch",
        "window_us",
        "prec",
        "requests",
        "rps",
        "p50_ms",
        "p99_ms",
        "occupancy",
        "early",
        "speedup",
        "vs_f32"
    );
    for r in &rows {
        println!(
            "{:>6} {:>8} {:>7} {:>9} {:>6} {:>9} {:>10.0} {:>8.3} {:>8.3} {:>10.3} {:>6.2} \
             {:>7.2}x {:>7.2}x",
            r.fleet_devices,
            r.workers,
            r.max_batch,
            r.batch_window_us,
            r.precision,
            r.requests,
            r.throughput_rps,
            r.p50_ms,
            r.p99_ms,
            r.occupancy,
            r.early_exit_frac,
            r.speedup_vs_unbatched,
            r.speedup_vs_f32,
        );
    }

    match write_json(&out_path, &rows) {
        Ok(()) => eprintln!("wrote {out_path} ({} rows)", rows.len()),
        Err(e) => {
            eprintln!("error: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    // Shape self-check: the sweep must carry both the unbatched baseline
    // and a batched setting, and the batched rows must coalesce.
    assert!(
        rows.iter().any(|r| r.max_batch == 1),
        "sweep lost its unbatched baseline"
    );
    let batched: Vec<_> = rows.iter().filter(|r| r.max_batch > 1).collect();
    assert!(!batched.is_empty(), "sweep lost its batched settings");
    assert!(
        batched.iter().any(|r| r.mean_batch > 1.0),
        "batched settings never coalesced more than one request"
    );
    // Precision-axis self-check: every int8 row has a matched f32 row,
    // carries a real quantization-error measurement, and the batched
    // int8 settings beat their f32 twins.
    if precision_arg != Some(acme_serve::Precision::F32) {
        let int8: Vec<_> = rows.iter().filter(|r| r.precision == "int8").collect();
        assert!(!int8.is_empty(), "precision sweep lost its int8 rows");
        assert!(
            int8.iter().all(|r| r.mean_quant_error > 0.0),
            "int8 rows did not record a quantization error"
        );
        assert!(
            int8.iter()
                .filter(|r| r.max_batch > 1)
                .all(|r| r.speedup_vs_f32 > 1.0),
            "batched int8 serving did not beat the matched f32 rows"
        );
    }

    if smoke {
        assert!(
            wall < SMOKE_CEILING_SECS,
            "serving smoke blew its wall-clock ceiling: {wall:.2} s >= {SMOKE_CEILING_SECS} s"
        );
        eprintln!("smoke OK ({wall:.3} s < {SMOKE_CEILING_SECS} s ceiling)");
    }
}
