//! Training-step sweep: the pooled, fused, clone-free engine's
//! ViT-block step (see `acme_bench::trainstep`) at 1 / 2 / 4 /
//! all-cores threads, with its steady-state pool misses, tracked across
//! PRs via `BENCH_training_step.json` at the workspace root. Then the
//! per-op table (self time and tape bytes) of the reference ViT's
//! batch-32 training step on one thread, printed and appended to the
//! JSON as `training_step_vit` / `training_step_op` rows.
//!
//! Run via `cargo run --release -p acme-bench --bin training_step`.
//! Flags:
//!
//! - `--quick`: fewer repetitions and thread counts (CI-sized smoke run).
//! - `--out PATH`: write the JSON somewhere other than
//!   `BENCH_training_step.json`.

use acme_bench::trainstep::StepMeasurement;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = acme_bench::or_exit(acme_bench::out_path(&args, "BENCH_training_step.json"));
    let reps = if quick { 5 } else { 50 };

    let mut threads = vec![1usize, 2, 4];
    threads.push(acme_runtime::Pool::with_available_parallelism().threads());
    threads.sort_unstable();
    threads.dedup();
    if quick {
        threads.truncate(2);
    }

    let rows = acme_bench::trainstep::sweep(&threads, reps);
    println!("\ntraining step (steady state, reused arena):");
    println!("{:>8} {:>9} {:>12}", "threads", "step_ms", "step_allocs");
    for r in &rows {
        println!("{:>8} {:>9.3} {:>12}", r.threads, r.step_ms, r.step_allocs);
    }

    let table = acme_bench::trainstep::vit_op_table(if quick { 2 } else { 20 });
    println!(
        "\nreference ViT step, batch 32, 1 thread, recording on: \
         fwd {:.3} ms, bwd {:.3} ms; per-op self time and tape bytes per step:",
        table.fwd_ms, table.bwd_ms
    );
    println!(
        "{:<22} {:>7} {:>9} {:>9} {:>10}",
        "op", "calls", "fwd_ms", "bwd_ms", "value_kb"
    );
    for r in &table.rows {
        println!(
            "{:<22} {:>7.0} {:>9.3} {:>9.3} {:>10.1}",
            r.op,
            r.calls,
            r.fwd_ms,
            r.bwd_ms,
            r.value_bytes / 1024.0
        );
    }
    let (fwd, bwd) = table
        .rows
        .iter()
        .fold((0.0, 0.0), |(f, b), r| (f + r.fwd_ms, b + r.bwd_ms));
    println!("{:<22} {:>7} {fwd:>9.3} {bwd:>9.3}", "sum of rows", "");
    let mut json: Vec<String> = rows.iter().map(StepMeasurement::json).collect();
    json.extend(table.json_rows());
    acme_bench::or_exit(acme_bench::write_rows(&out_path, &json));
}
