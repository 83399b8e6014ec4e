//! Multi-tenant batched serving over per-device variants: replay the
//! same seeded request trace unbatched and batched, and compare
//! throughput, latency tails, and early-exit traffic.
//!
//! `cargo run --release --example serving`

use std::time::Duration;

use acme_serve::{
    loadgen, serve, BatcherConfig, ExitPolicy, ServeReport, ServerConfig, StoreConfig, VariantStore,
};

fn main() {
    acme_runtime::set_global_threads(1);

    // 16 device variants over 2 shared cluster backbones, and a firehose
    // trace with Zipf device popularity (hot tenants batch well, the
    // tail still gets served).
    let store = VariantStore::build(&StoreConfig::serving_default(16), 42);
    let trace = loadgen::trace(&store, 1200, 42);
    let policy = ExitPolicy::calibrated(&store, &trace[..96], 0.6);

    let run = |max_batch: usize, window_us: u64| -> ServeReport {
        let cfg = ServerConfig {
            workers: 1,
            batcher: BatcherConfig {
                max_batch,
                window: Duration::from_micros(window_us),
            },
            policy,
        };
        // Warmup populates the buffer pool; the measured
        // replay is the steady state.
        let warm: Vec<_> = trace[..128].to_vec();
        serve(&store, &cfg, move |b| {
            for r in warm {
                b.push(r);
            }
        });
        let replay: Vec<_> = trace.clone();
        serve(&store, &cfg, move |b| {
            for r in replay {
                b.push(r);
            }
        })
    };

    let final_exit = store.clusters()[0].exits.exit_layers().len() - 1;
    println!(
        "{:>9} {:>10} {:>9} {:>9} {:>7} {:>7}",
        "batch", "req/s", "p50_ms", "p99_ms", "fill", "early"
    );
    let mut baseline = None;
    for (max_batch, window_us) in [(1, 0), (8, 500), (32, 500)] {
        let report = run(max_batch, window_us);
        let rps = report.throughput_rps();
        let speedup = baseline.get_or_insert(rps);
        println!(
            "{:>9} {:>10.0} {:>9.3} {:>9.3} {:>6.0}% {:>6.0}%  ({:.2}x vs unbatched)",
            max_batch,
            rps,
            report.latency_quantile_ms(0.5),
            report.latency_quantile_ms(0.99),
            report.occupancy(max_batch) * 100.0,
            report.early_exit_fraction(final_exit) * 100.0,
            rps / *speedup,
        );
    }
}
