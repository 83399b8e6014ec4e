//! Training-step sweep: the pooled, fused, clone-free engine step
//! against a verbatim replica of the pre-pool step (see
//! `acme_bench::trainstep`), at 1 / 2 / 4 / all-cores threads, tracked
//! across PRs via `BENCH_training_step.json` at the workspace root. The
//! harness panics (failing CI) if the two paths are not bit-identical.
//!
//! Run via `cargo run --release -p acme-bench --bin training_step`.
//! Flags:
//!
//! - `--quick`: fewer repetitions and thread counts (CI-sized smoke run).
//! - `--out PATH`: write the JSON somewhere other than
//!   `BENCH_training_step.json`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out_path = acme_bench::out_path("BENCH_training_step.json");
    let reps = if quick { 5 } else { 50 };

    let mut threads = vec![1usize, 2, 4];
    threads.push(acme_runtime::Pool::with_available_parallelism().threads());
    threads.sort_unstable();
    threads.dedup();
    if quick {
        threads.truncate(2);
    }

    let rows = acme_bench::trainstep::sweep(&threads, reps);
    println!("\ntraining step (baseline = pre-pool replica, bit-identical):");
    println!(
        "{:>8} {:>12} {:>9} {:>8} {:>15} {:>12} {:>11}",
        "threads",
        "baseline_ms",
        "step_ms",
        "speedup",
        "baseline_allocs",
        "step_allocs",
        "alloc_drop"
    );
    for r in &rows {
        println!(
            "{:>8} {:>12.3} {:>9.3} {:>7.2}x {:>15} {:>12} {:>10.1}x",
            r.threads,
            r.baseline_ms,
            r.step_ms,
            r.speedup(),
            r.baseline_allocs,
            r.step_allocs,
            r.alloc_drop()
        );
    }
    match acme_bench::trainstep::write_json(&out_path, &rows) {
        Ok(_) => println!("wrote {out_path} ({} rows)", rows.len()),
        Err(e) => {
            eprintln!("error: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
