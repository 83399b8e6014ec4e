//! GEMM size sweep: the packed, cache-blocked f32 engine and the int8
//! engine on the same operands at 1 / 2 / all-cores threads (see
//! `acme_bench::kernels`), recorded to `BENCH_kernels.json`.
//!
//! Run via `cargo run --release -p acme-bench --bin kernels`. Flags:
//!
//! - `--quick`: two sizes at one thread count (CI-sized smoke run).
//! - `--out PATH`: write the JSON somewhere other than
//!   `BENCH_kernels.json`.

use acme_bench::kernels::GemmMeasurement;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = acme_bench::or_exit(acme_bench::out_path(&args, "BENCH_kernels.json"));

    let sizes: &[usize] = if quick {
        &[64, 256]
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
    println!("\ngemm sweep (int8 = prepacked weights, quantization included):");
    println!(
        "{:>6} {:>8} {:>11} {:>11} {:>8} {:>12}",
        "size", "threads", "f32_ms", "int8_ms", "GFLOP/s", "quant_err"
    );
    for r in &rows {
        println!(
            "{:>6} {:>8} {:>11.3} {:>11.3} {:>8.2} {:>12.6}",
            r.size,
            r.threads,
            r.f32_ms,
            r.int8_ms,
            r.gflops(),
            r.mean_quant_error
        );
    }
    let json: Vec<String> = rows.iter().map(GemmMeasurement::json).collect();
    acme_bench::or_exit(acme_bench::write_rows(&out_path, &json));
}
