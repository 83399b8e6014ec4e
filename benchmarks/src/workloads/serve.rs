//! `serve_steady` and `serve_churn`: serving the customized variants.
//! One generator thread and one worker; kernels pinned to one thread so
//! the two busy threads fit the sandbox's two cores.
//!
//! The job both runs time is the firehose: every request queued at once,
//! served until drained. The open loop at the workload's rate runs in the
//! traced pass and its latencies are layer metrics, not end-to-end ones:
//! above unbatched capacity the batcher's self-balancing makes latency
//! follow service time several times over, and on the shared sandbox the
//! same seed read 32 ms and 60 ms within the hour.

use std::path::Path;
use std::time::{Duration, Instant};

use acme::Pool;
use acme_serve::{
    BatchEngine, BatcherConfig, DeviceVariant, ExitPolicy, Precision, Request, Response,
    ServeReport, ServerConfig, StoreConfig, StoreManifest, VariantStore,
};
use acme_store::{ContentHash, ModelStore, VariantDelta};
use acme_tensor::{packcache, Graph};

use super::{reps_for, setup_median, Ctx, Threads};
use crate::load::{
    draw_devices, poisson_schedule, requests, run_firehose, run_open_loop, OpenLoopRun,
};
use crate::probes::{self, PackCounts};
use crate::report::Report;
use crate::stats::{median, time_median};
use crate::trace::{root_coverage, Recorder};

/// What tells the two serving workloads apart.
pub struct Shape {
    precision: Precision,
    variants: usize,
    /// Offered load of the traced pass's open loop.
    rate_rps: f64,
    /// Popularity skew over the variants; 0 is uniform.
    zipf: f64,
    firehose_requests: usize,
    /// Repetitions the open loop's `--seconds` are split into.
    open_loop_reps: usize,
    /// Variants are persisted to disk and served from a fleet restored
    /// lazily from there; otherwise they are served where they were built.
    churn: bool,
    /// Latency limit of the offered-load ladder.
    slo_ms: f64,
}

/// Hot set: the offered rate sits between unbatched (~130 rps) and
/// batched (~1400 rps) capacity, so how well the batcher coalesces sets
/// the latency.
pub const STEADY: Shape = Shape {
    precision: Precision::F32,
    variants: 16,
    rate_rps: 500.0,
    zipf: 1.0,
    firehose_requests: 3000,
    open_loop_reps: 3,
    churn: false,
    slo_ms: 150.0,
};

/// Every request a different variant: first touches, cold int8 packs,
/// hot swaps, open-loop batches of one. One long open-loop repetition:
/// each starts cold, and the requests that queue behind the two backbone
/// packs sit on the 95th percentile of a 500-request repetition and make
/// it jump between 14 and 45 ms.
pub const CHURN: Shape = Shape {
    precision: Precision::Int8,
    variants: 512,
    rate_rps: 150.0,
    zipf: 0.0,
    firehose_requests: 1500,
    open_loop_reps: 1,
    churn: true,
    slo_ms: 30.0,
};

/// One firehose on the reference sandbox, and the fewest it repeats.
const NOMINAL_JOB_S: f64 = 2.0;
const MIN_FIREHOSE_REPS: usize = 3;
const WARMUP_REQUESTS: usize = 512;
/// Probe requests the exit threshold is calibrated on. The open loop runs
/// where latency follows the early-exit share steeply, so the threshold
/// must not wander from seed to seed: 96 probes put that share anywhere
/// from 0.37 to 0.47, and wait_p50_ms on `serve_steady` from 38 to 51 ms.
const PROBE_REQUESTS: usize = 768;
const HOT_SWAPS: usize = 32;
/// Responses re-served one at a time and compared bit for bit, per
/// serving run. Every response would take as long as the run itself.
const CHECKED_PER_RUN: usize = 32;

fn server(policy: ExitPolicy) -> ServerConfig {
    ServerConfig {
        workers: 1,
        batcher: BatcherConfig {
            max_batch: 32,
            window: Duration::from_micros(500),
        },
        policy,
    }
}

fn traffic(store: &VariantStore, shape: &Shape, n: usize, seed: u64) -> Vec<Request> {
    requests(
        store,
        &draw_devices(n, shape.variants, shape.zipf, seed),
        0,
        seed ^ 0x5eed,
    )
}

fn variants_bit_equal(a: &DeviceVariant, b: &DeviceVariant) -> bool {
    a.cluster == b.cluster
        && a.classes == b.classes
        && a.params.len() == b.params.len()
        && a.params.ids().zip(b.params.ids()).all(|(x, y)| {
            let (va, vb) = (a.params.value(x), b.params.value(y));
            a.params.name(x) == b.params.name(y)
                && va.shape() == vb.shape()
                && va
                    .data()
                    .iter()
                    .zip(vb.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Counts served responses that differ from serving the same request
/// alone, on an evenly spaced sample. A missing response counts too.
fn mismatches(
    store: &VariantStore,
    policy: ExitPolicy,
    sent: &[Request],
    served: &ServeReport,
) -> u64 {
    let engine = BatchEngine::new(store, policy);
    let mut g = Graph::new();
    let step = sent.len().div_ceil(CHECKED_PER_RUN).max(1);
    let by_id: Vec<&Response> = served.completions.iter().map(|c| &c.response).collect();
    let missing = sent.len().saturating_sub(by_id.len()) as u64;
    missing
        + sent
            .iter()
            .step_by(step)
            .filter(|r| {
                let alone = &engine.serve_sequential(&mut g, std::slice::from_ref(r))[0];
                by_id.get(r.id).is_none_or(|batched| *batched != alone)
            })
            .count() as u64
}

/// `ExitPolicy::calibrated` at quantile 0.6 (so about 40 % of traffic
/// leaves at the first exit), but serving the probes in same-variant
/// batches: one at a time, this many probes would take longer than the
/// set-up they are part of.
fn calibrate(store: &VariantStore, shape: &Shape, seed: u64) -> ExitPolicy {
    let mut probe = traffic(store, shape, PROBE_REQUESTS, seed);
    probe.sort_by_key(|r| r.device);
    let engine = BatchEngine::new(store, ExitPolicy::always());
    let mut g = Graph::new();
    let mut confidences: Vec<f32> = probe
        .chunk_by(|a, b| a.device == b.device)
        .flat_map(|same_device| same_device.chunks(32))
        .flat_map(|batch| engine.serve_batch(&mut g, batch))
        .map(|r| r.confidence)
        .collect();
    confidences.sort_by(f32::total_cmp);
    ExitPolicy {
        confidence: confidences[((confidences.len() - 1) as f64 * 0.6).round() as usize],
    }
}

/// What set-up produces: the fleet, its calibrated exit policy and, for
/// churn, where it was persisted.
struct Fleet {
    store: VariantStore,
    policy: ExitPolicy,
    root: Option<ContentHash>,
}

fn restore(dir: &Path, root: ContentHash) -> VariantStore {
    let blobs = ModelStore::open(dir).expect("open the persisted store");
    VariantStore::from_store(&blobs, root).expect("restore the fleet")
}

/// One open-loop repetition at `rate_rps`.
fn open_loop_rep(
    store: &VariantStore,
    shape: &Shape,
    policy: ExitPolicy,
    rate_rps: f64,
    seconds: f64,
    seed: u64,
) -> (OpenLoopRun, Vec<Request>) {
    let due = poisson_schedule(rate_rps, Duration::from_secs_f64(seconds), seed);
    let sent = traffic(store, shape, due.len(), seed);
    let run = run_open_loop(store, &server(policy), due, sent.clone());
    (run, sent)
}

/// Spans of one open-loop run, rebuilt from the timestamps the run kept
/// anyway: recording costs the measured run nothing.
fn record_requests(rec: &Recorder, run: &OpenLoopRun) {
    let done_at = |i: usize| run.pushed[i] + run.report.completions[i].latency;
    let end = (0..run.due.len()).map(done_at).max().unwrap_or(run.start);
    let root = rec.record("serve.open_loop", None, 0, run.start, end);
    for (i, (&due, &pushed)) in run.due.iter().zip(&run.pushed).enumerate() {
        let corr = 1 + i as u64;
        let request = rec.record("serve.request", root, corr, run.start + due, done_at(i));
        rec.record(
            "load.generator_late",
            request,
            corr,
            run.start + due,
            pushed,
        );
        rec.record("serve.queue_and_engine", request, corr, pushed, done_at(i));
    }
}

pub fn run(ctx: &Ctx, report: &mut Report, shape: &Shape) -> Threads {
    let seed = ctx.seed;
    let threads = Threads { pool: 2, kernel: 1 };
    acme_runtime::set_global_threads(threads.kernel);
    let config = StoreConfig::quantized_default(shape.variants, shape.precision);
    let dir = ctx.out_dir.join(format!("store-{}", std::process::id()));

    // Set-up: build the fleet, calibrate the exit policy on probe
    // traffic, then either warm it up (steady) or persist it (churn).
    let mut persist_s = Vec::new();
    let (setup_s, fleet) = setup_median(|| {
        packcache::clear();
        let store = VariantStore::build(&config, seed);
        let policy = calibrate(&store, shape, seed ^ 0x9e37);
        let root = if shape.churn {
            // A killed earlier run may have left its directory behind.
            let _ = std::fs::remove_dir_all(&dir);
            let t = Instant::now();
            let mut blobs = ModelStore::open(&dir).expect("open the store directory");
            let root = store
                .persist_on(&mut blobs, &Pool::new(2))
                .expect("persist the fleet");
            persist_s.push(t.elapsed().as_secs_f64());
            Some(root)
        } else {
            let warm = traffic(&store, shape, WARMUP_REQUESTS, seed ^ 0x3a3a);
            run_firehose(&store, &server(policy), warm);
            None
        };
        Fleet {
            store,
            policy,
            root,
        }
    });
    let policy = fleet.policy;
    report.set("setup_s", setup_s);

    // Churn: bring the whole fleet back from disk, as a restart would.
    if let Some(root) = fleet.root {
        report.set("store.persist_s", median(&persist_s));
        let mut back = None;
        let restore_s = time_median(3, || {
            packcache::clear();
            let store = restore(&dir, root);
            store.materialize_all();
            // Dropping the previous copy lands inside the timed restore;
            // freeing is a small share of reading 57 MB back.
            back = Some(store);
        });
        report.set("store.restore_s", restore_s);
        let back = back.expect("three restores ran");
        report.check(
            (0..shape.variants).all(|d| variants_bit_equal(back.device(d), fleet.store.device(d))),
            "every restored variant is bit-equal to its source",
        );
    }

    // Churn serves a fleet restored from disk; one unmeasured firehose
    // materializes its variants and packs its weights, as the warm-up did
    // for steady. (Timed cold, the firehose spread 29 % over ten runs.)
    let mut restored = None;
    if let Some(root) = fleet.root {
        packcache::clear();
        let t = Instant::now();
        let store = restore(&dir, root);
        report.set("store.from_store_s", t.elapsed().as_secs_f64());
        run_firehose(
            &store,
            &server(policy),
            traffic(&store, shape, shape.firehose_requests, seed ^ 0x3a3a),
        );
        restored = Some(store);
    }

    // Churn: swap re-encoded heads into the live store; the job then
    // serves through them.
    if let (Some(live), Some(root)) = (restored.as_mut(), fleet.root) {
        let blobs = ModelStore::open(&dir).expect("open the persisted store");
        let manifest = StoreManifest::from_bytes(&blobs.get(root).expect("manifest blob"))
            .expect("manifest parses");
        // Device d takes the head of device d + 2, which shares its
        // cluster (devices are dealt to the two clusters in turn).
        let mut swap_s = Vec::new();
        let mut all_equal = true;
        for d in 0..HOT_SWAPS {
            let donor = fleet.store.device(d + 2);
            let delta = VariantDelta::encode(
                &fleet.store.clusters()[donor.cluster].params,
                manifest.backbones[donor.cluster],
                &donor.classes,
                &donor.params,
            );
            let t = Instant::now();
            live.hot_swap(d, delta)
                .expect("hot swap of a matching delta");
            swap_s.push(t.elapsed().as_secs_f64());
            all_equal &= variants_bit_equal(live.device(d), donor);
        }
        report.set("serve.hot_swap_ms", median(&swap_s) * 1e3);
        report.check(
            all_equal,
            "every hot-swapped variant is bit-equal to its source",
        );
    }

    // The job: everything queued at once, served until drained.
    let live = restored.as_ref().unwrap_or(&fleet.store);
    let packs = PackCounts::now();
    let mut flood_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for rep in 0..reps_for(ctx.seconds, NOMINAL_JOB_S, MIN_FIREHOSE_REPS) as u64 {
        let flood = traffic(live, shape, shape.firehose_requests, seed ^ (0xf1f0 + rep));
        let served = run_firehose(live, &server(policy), flood.clone());
        flood_s.push(served.elapsed.as_secs_f64());
        attempted += flood.len() as u64;
        failed += mismatches(live, policy, &flood, &served);
    }
    let job_s = median(&flood_s);
    report.set("job_s", job_s);
    report.set("serve.capacity_rps", shape.firehose_requests as f64 / job_s);
    packs.report_ratio_since(report);

    if ctx.traced() {
        let live = restored.as_ref().unwrap_or(&fleet.store);
        let (a, f) = traced_pass(ctx, report, shape, &fleet, live, &dir, job_s);
        attempted += a;
        failed += f;
    }
    report.count(attempted, failed);
    if fleet.root.is_some() {
        std::fs::remove_dir_all(&dir).expect("remove the store directory");
    }
    threads
}

/// Open loop, offered-load ladder and probes. Returns requests attempted
/// and failed.
fn traced_pass(
    ctx: &Ctx,
    report: &mut Report,
    shape: &Shape,
    fleet: &Fleet,
    warm: &VariantStore,
    dir: &Path,
    job_s: f64,
) -> (u64, u64) {
    let (rec, seed, policy) = (&ctx.rec, ctx.seed, fleet.policy);
    let rep_seconds = ctx.seconds / shape.open_loop_reps as f64;
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Open loop: requests arrive on schedule whether or not earlier ones
    // have been answered. On churn it starts on a cold fleet.
    let mut runs = Vec::new();
    let mut cold = None;
    for rep in 0..shape.open_loop_reps as u64 {
        if let Some(root) = fleet.root {
            packcache::clear();
            drop(cold.take());
            cold = Some(restore(dir, root));
        }
        let live = cold.as_ref().unwrap_or(warm);
        let (run, sent) = open_loop_rep(
            live,
            shape,
            policy,
            shape.rate_rps,
            rep_seconds,
            seed.wrapping_add(rep),
        );
        attempted += sent.len() as u64;
        failed += mismatches(live, policy, &sent, &run.report);
        println!(
            "# open loop {rep}: {} requests, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, mean batch {:.2}, generator late <= {:.3} ms",
            sent.len(),
            run.p(50.0),
            run.p(95.0),
            run.p(99.0),
            run.report.mean_batch(),
            run.gen_late_max_ms()
        );
        runs.push(run);
    }
    let over_reps =
        |f: &dyn Fn(&OpenLoopRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let p50 = over_reps(&|r| r.p(50.0));
    let mean_batch = over_reps(&|r| r.report.mean_batch());
    let final_exit = warm.clusters()[0].exits.exit_layers().len() - 1;
    report.set("serve.open_loop.p50_ms", p50);
    report.set("serve.open_loop.p95_ms", over_reps(&|r| r.p(95.0)));
    report.set("serve.open_loop.p99_ms", over_reps(&|r| r.p(99.0)));
    report.set(
        "serve.gen_late_max_ms",
        runs.iter()
            .map(OpenLoopRun::gen_late_max_ms)
            .fold(0.0, f64::max),
    );
    report.set("serve.mean_batch", mean_batch);
    report.set("serve.batches", over_reps(&|r| r.report.batches as f64));
    report.set(
        "serve.early_exit_frac",
        over_reps(&|r| r.report.early_exit_fraction(final_exit)),
    );
    record_requests(rec, &runs[0]);
    report.set("bench.trace_coverage_frac", root_coverage(&rec.spans()));
    drop(cold);

    // Offered-load ladder: latency at half, one and one and a half times
    // the workload's rate, and the highest rung that holds the limit. On
    // churn the cold open loop evicted the warm fleet's packed weights;
    // put them back first.
    run_firehose(
        warm,
        &server(policy),
        traffic(warm, shape, 64, seed ^ 0x3a3a),
    );
    rec.span("serve.ladder", None, 0, |_| {
        let mut slo_rate = 0.0;
        for (i, (factor, metric)) in [
            (0.5, "serve.ladder.p95_ms_at_0.5x"),
            (1.0, "serve.ladder.p95_ms_at_1x"),
            (1.5, "serve.ladder.p95_ms_at_1.5x"),
        ]
        .into_iter()
        .enumerate()
        {
            let rate = shape.rate_rps * factor;
            let ladder_s = ctx.seconds / 3.0;
            let (rung, _) = open_loop_rep(
                warm,
                shape,
                policy,
                rate,
                ladder_s,
                seed ^ (0x1add + i as u64),
            );
            let p95 = rung.p(95.0);
            report.set(metric, p95);
            if p95 <= shape.slo_ms && !rung.backlog_grows() {
                slo_rate = rate;
            }
        }
        report.set("serve.slo_rate_rps", slo_rate);
    });

    // The job once more under the recorder, for the tracing overhead.
    let flood = traffic(warm, shape, shape.firehose_requests, seed ^ 0xf1f0);
    let traced_s = rec.span("serve.firehose", None, 0, |_| {
        run_firehose(warm, &server(policy), flood)
            .elapsed
            .as_secs_f64()
    });
    report.set("bench.trace_overhead_frac", (traced_s - job_s) / job_s);

    rec.span("probes", None, 0, |p| {
        let sample = traffic(warm, shape, 96, seed ^ 0xbeef);
        let t = Instant::now();
        rec.span("serve.calibrate", p, 0, |_| {
            ExitPolicy::calibrated(warm, &sample, 0.6)
        });
        report.set("serve.calibrate_ms", t.elapsed().as_secs_f64() * 1e3);
        probes::serving_kernels(report, rec, p, shape.precision == Precision::Int8);
        probes::serving_layers(report, rec, p, warm, server(policy).batcher, &sample);
        // An estimate, not a measurement: the engine's time for a batch
        // of the observed mean size, read off the three probed sizes.
        let engine_ms = {
            let at = |m: &str| report.get(m).expect("engine probe ran");
            let (b1, b8, b32) = (
                at("serve.engine.b1_ms"),
                at("serve.engine.b8_ms"),
                at("serve.engine.b32_ms"),
            );
            if mean_batch <= 8.0 {
                b1 + (b8 - b1) * (mean_batch - 1.0) / 7.0
            } else {
                b8 + (b32 - b8) * (mean_batch - 8.0) / 24.0
            }
        };
        report.set("serve.queue_wait_p50_ms", p50 - engine_ms);

        if let Some(root) = fleet.root {
            rec.span("serve.first_touch", p, 0, |_| {
                packcache::clear();
                let cold = restore(dir, root);
                let engine = BatchEngine::new(&cold, policy);
                let mut g = Graph::new();
                let mut touch = |device: usize| {
                    let request = Request {
                        device,
                        ..sample[0].clone()
                    };
                    let t = Instant::now();
                    engine.serve_batch(&mut g, std::slice::from_ref(&request));
                    t.elapsed().as_secs_f64()
                };
                // One touch per cluster packs the shared backbones; what
                // remains is the cost of one more variant.
                touch(0);
                touch(1);
                let firsts: Vec<f64> = (2..34).map(&mut touch).collect();
                report.set("serve.first_touch_ms", median(&firsts) * 1e3);
            });
            rec.span("store.materialize_all", p, 0, |_| {
                let lazy = restore(dir, root);
                let t = Instant::now();
                lazy.materialize_all();
                report.set("store.materialize_all_ms", t.elapsed().as_secs_f64() * 1e3);
            });
            let blobs = ModelStore::open(dir).expect("open the persisted store");
            report.set("store.bytes_total", blobs.total_bytes() as f64);
            let manifest = StoreManifest::from_bytes(&blobs.get(root).expect("manifest blob"))
                .expect("manifest parses");
            probes::store_layers(report, rec, p, &fleet.store, &blobs, manifest.backbones[0]);
        }
    });
    (attempted, failed)
}
