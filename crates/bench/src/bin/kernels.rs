//! Blocked-GEMM size sweep: the packed, cache-blocked engine against
//! the pre-blocking naive kernel at 1 / 2 / all-cores threads, then f32
//! against int8 at the serving-relevant sizes (see
//! `acme_bench::kernels`), recorded to `BENCH_kernels.json`.
//!
//! Run via `cargo run --release -p acme-bench --bin kernels`. Flags:
//!
//! - `--quick`: one size at one thread count (CI-sized smoke run).
//! - `--out PATH`: write the JSON somewhere other than
//!   `BENCH_kernels.json`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out_path = acme_bench::out_path("BENCH_kernels.json");

    // Blocked-GEMM size sweep at 1 / 2 / all-cores threads, tracked
    // across PRs via BENCH_kernels.json at the workspace root.
    let sizes: &[usize] = if quick {
        &[64]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let mut threads = vec![1usize, 2];
    threads.push(acme_runtime::Pool::with_available_parallelism().threads());
    threads.sort_unstable();
    threads.dedup();
    if quick {
        threads.truncate(1);
    }
    let rows = acme_bench::kernels::sweep(sizes, &threads);
    println!("\ngemm sweep (naive = pre-blocking kernel):");
    println!(
        "{:>6} {:>8} {:>11} {:>11} {:>8} {:>8}",
        "size", "threads", "naive_ms", "blocked_ms", "speedup", "GFLOP/s"
    );
    for r in &rows {
        println!(
            "{:>6} {:>8} {:>11.3} {:>11.3} {:>7.2}x {:>8.2}",
            r.size,
            r.threads,
            r.naive_ms,
            r.blocked_ms,
            r.speedup(),
            r.gflops()
        );
    }

    // f32-vs-int8 at the serving-relevant sizes, same thread counts.
    let qsizes: &[usize] = if quick { &[256] } else { &[256, 512] };
    let qrows = acme_bench::kernels::sweep_int8(qsizes, &threads);
    println!("\nint8 gemm sweep (f32 = blocked engine, prepacked weights):");
    println!(
        "{:>6} {:>8} {:>11} {:>11} {:>8} {:>8} {:>12}",
        "size", "threads", "f32_ms", "int8_ms", "speedup", "GOP/s", "quant_err"
    );
    for r in &qrows {
        println!(
            "{:>6} {:>8} {:>11.3} {:>11.3} {:>7.2}x {:>8.2} {:>12.6}",
            r.size,
            r.threads,
            r.f32_ms,
            r.int8_ms,
            r.speedup_vs_f32(),
            r.gops(),
            r.mean_quant_error
        );
    }

    match acme_bench::kernels::write_json(&out_path, &rows, &qrows) {
        Ok(_) => println!("wrote {out_path} ({} rows)", rows.len() + qrows.len()),
        Err(e) => {
            eprintln!("error: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
