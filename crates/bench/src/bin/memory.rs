//! Where `customize`'s and `serve_steady`'s heap goes: runs the
//! benchmark's `customize` configuration (a 2 × 3 fleet, widths
//! `[0.5, 1.0]`, depths `[2, 4, 6]`, 2 threads) stage by stage under the
//! counting allocator, then a serving stage, and prints, for each stage,
//! the owner gauges at the allocator's high-water mark during it.
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
//! explain.
//!
//! The serving stage then runs `serve_steady`'s set-up on an emptied
//! pool, after the pipeline's values are dropped: a 16-variant f32 fleet
//! of the GEMM-heavy backbone (`StoreConfig::quantized_default`), its
//! exit policy calibrated on probe traffic, then a warm-up firehose. Its
//! table adds the fleet's parameter values, which no gauge owns, to the
//! owner rows.
//!
//! `--out` also writes each stage's coverage, the bytes on the pool's
//! free lists right after Phase 1 and the serving stage's owners as
//! JSON, for CI; an `--out` with no path after it exits 1 before any
//! stage runs.

use std::time::{Duration, Instant};

use acme::{Acme, AcmeConfig, DeviceResult, Pool};
use acme_bench::{f1, print_table, RunScale};
use acme_serve::{
    loadgen, serve, BatchEngine, BatcherConfig, ExitPolicy, Precision, ServerConfig, StoreConfig,
    VariantStore,
};
use acme_tensor::obs::mem::{self, CountingAlloc, Owner, Peak};
use acme_tensor::pool;
use acme_tensor::Graph;

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
    let out = acme_bench::or_exit(acme_bench::out_arg(&args));
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
    let (retained_after_phase1, accuracy) = customize(&acme, &cfg, &mut peaks);
    let wall_s = start.elapsed().as_secs_f64();

    let names = peaks[0].rows().into_iter().map(|r| r.0);
    let names = names.chain(["owners, summed", "live at the peak", "coverage %"]);
    let columns: Vec<Vec<f64>> = peaks.iter().map(|p| column(p, 0)).collect();
    print_table(
        &format!("customize heap at each stage's allocator peak, MB (seed {seed})"),
        &std::iter::once("owner").chain(STAGES).collect::<Vec<_>>(),
        &table(names, &columns),
    );
    let peak_bytes = peaks.iter().map(|p| p.peak_bytes).max().unwrap_or(0);
    println!(
        "\npool free lists right after Phase 1: {retained_after_phase1} B\n\
         peak live heap {:.1} MB; peak RSS (VmHWM) {:.1} MB; \
         mean accuracy {accuracy:.6}; stages took {wall_s:.2} s",
        peak_bytes as f64 / MB,
        acme_bench::peak_rss_mb(),
    );

    pool::clear();
    let (serving, params) = serving_stage(seed);
    let serving_column = column(&serving, params);
    let names = serving.rows().into_iter().map(|r| r.0);
    let names = std::iter::once("parameter values").chain(names);
    let names = names.chain(["owners, summed", "live at the peak", "coverage %"]);
    let mut cells = vec![params as f64 / MB];
    cells.extend(&serving_column);
    print_table(
        &format!("serve_steady set-up heap at its allocator peak, MB (seed {seed})"),
        &["owner", "serving"],
        &table(names, &[cells]),
    );
    let owned = |o: Owner| serving.owners.iter().find(|r| r.0 == o).map_or(0, |r| r.1);

    if let Some(path) = out {
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
        let serving_json = format!(
            "{{\"peak_mb\": {:.3}, \"params_mb\": {:.3}, \"pack_cache_bytes\": {}, \
             \"pool_mb\": {:.3}, \"tape_mb\": {:.3}, \"coverage_pct\": {:.2}}}",
            serving.peak_bytes as f64 / MB,
            params as f64 / MB,
            owned(Owner::PackCache),
            (owned(Owner::PoolFree) + owned(Owner::PoolOut)) as f64 / MB,
            (owned(Owner::TapeValues) + owned(Owner::TapeGrads)) as f64 / MB,
            serving_column[serving_column.len() - 1],
        );
        let json = format!(
            "{{\"seed\": {seed}, \"stages\": [{}], \
             \"pool_retained_after_phase1_bytes\": {retained_after_phase1}, \
             \"serving\": {serving_json}}}\n",
            stages.join(", ")
        );
        std::fs::write(path, json).expect("write --out");
    }
}

/// Runs the pipeline stage by stage into `peaks`; returns the bytes on
/// the pool's free lists right after Phase 1 and the mean accuracy. The
/// stage values drop on return.
fn customize(acme: &Acme, cfg: &AcmeConfig, peaks: &mut Vec<Peak>) -> (u64, f32) {
    let pre = stage(peaks, || acme.pretrain().expect("pretraining"));
    let candidates = stage(peaks, || acme.candidate_pool(&pre));
    let retained_after_phase1 = pool::stats().retained_bytes;
    let selection = stage(peaks, || {
        acme.select(&pre, &candidates, None).expect("selection")
    });
    let searched = stage(peaks, || {
        acme.search_clusters(&pre, &candidates, &selection, None)
            .expect("Phase 2-1")
    });
    let devices: Vec<DeviceResult> = stage(peaks, || {
        let rt = Pool::new(cfg.threads);
        searched
            .iter()
            .flat_map(|c| c.refine(&rt, &cfg.refine, None).expect("Phase 2-2").results)
            .collect()
    });
    // `AcmeOutcome::mean_accuracy`'s sum and rounding.
    let accuracy = devices
        .iter()
        .map(|d| f64::from(d.accuracy_after))
        .sum::<f64>() as f32
        / devices.len().max(1) as f32;
    (retained_after_phase1, accuracy)
}

/// `serve_steady`'s set-up as one stage: the fleet built, its exit
/// policy calibrated at the 0.6 quantile of 768 probe requests' first-exit
/// confidences, served in batches of up to 32 of one device's requests,
/// then a warm-up firehose of 512 requests through one worker (batches
/// of up to 32, a 500 µs window). Returns the stage's peak and the
/// fleet's parameter bytes, backbones and heads.
fn serving_stage(seed: u64) -> (Peak, usize) {
    mem::reset_peak();
    let store = VariantStore::build(&StoreConfig::quantized_default(16, Precision::F32), seed);
    let mut probe = loadgen::trace(&store, 768, seed ^ 0x9e37);
    probe.sort_by_key(|r| r.device);
    let engine = BatchEngine::new(&store, ExitPolicy::always());
    let mut g = Graph::new();
    let mut confidences: Vec<f32> = probe
        .chunk_by(|a, b| a.device == b.device)
        .flat_map(|same_device| same_device.chunks(32))
        .flat_map(|batch| engine.serve_batch(&mut g, batch))
        .map(|r| r.confidence)
        .collect();
    drop(g);
    confidences.sort_by(f32::total_cmp);
    let server = ServerConfig {
        workers: 1,
        batcher: BatcherConfig {
            max_batch: 32,
            window: Duration::from_micros(500),
        },
        policy: ExitPolicy {
            confidence: confidences[((confidences.len() - 1) as f64 * 0.6).round() as usize],
        },
    };
    let warm = loadgen::trace(&store, 512, seed ^ 0x3a3a);
    serve(&store, &server, move |b| {
        for r in warm {
            b.push(r);
        }
    });
    let peak = mem::peak();
    let backbones: usize = store
        .clusters()
        .iter()
        .map(|c| c.params.num_scalars())
        .sum();
    let heads: usize = (0..store.num_devices())
        .map(|d| store.device(d).params.num_scalars())
        .sum();
    (peak, 4 * (backbones + heads))
}

/// Rows of a table: each name, then its cell in every column.
fn table<'a>(names: impl Iterator<Item = &'a str>, columns: &[Vec<f64>]) -> Vec<Vec<String>> {
    names
        .enumerate()
        .map(|(i, name)| {
            std::iter::once(name.to_string())
                .chain(columns.iter().map(|c| f1(c[i])))
                .collect()
        })
        .collect()
}

/// One column of the table: each owner row in MB, their sum with
/// `extra` owned bytes no gauge counts, the live bytes at the peak, and
/// the share of those the owners account for.
fn column(p: &Peak, extra: usize) -> Vec<f64> {
    let rows = p.rows();
    let owned: isize = rows.iter().map(|r| r.1).sum::<isize>() + extra as isize;
    let mut cells: Vec<f64> = rows.iter().map(|r| r.1 as f64 / MB).collect();
    cells.push(owned as f64 / MB);
    cells.push(p.live_bytes as f64 / MB);
    cells.push(100.0 * owned as f64 / p.live_bytes.max(1) as f64);
    cells
}
