//! `recustomize`: the online drift loop. The backbone is frozen and only
//! headers are refit, so forward passes dominate where `customize` is
//! bound by backprop.
//!
//! Whether a device's detector fires depends on the direction its stream
//! drifts in, which the stream seed draws once for the whole fleet: on
//! one 32-device fleet 8 to 32 detectors fire depending on the seed, and
//! job time follows that count. The job therefore runs 16 fleets of 8
//! devices, each on its own stream, so the share of devices that refit
//! averages out and run time is steady from seed to seed.

use std::time::Instant;

use acme::{run_recustomization, Pool, RecustomizeConfig, RecustomizeOutcome};
use acme_data::{generate, DriftSpec, DriftingStream, SyntheticSpec};
use acme_distsys::{Network, TransferReport};
use acme_tensor::SmallRng64;
use acme_vit::VitConfig;

use super::customize::THREADS;
use super::{kinds_sum_to_total, repeat, report_ledger, reps_for, setup_median, Ctx, Threads};
use crate::probes::{self, PackCounts};
use crate::report::Report;
use crate::stats::median;

const FLEETS: usize = 16;
const FLEET_DEVICES: usize = 8;
const DEVICES: usize = FLEETS * FLEET_DEVICES;
/// All sixteen fleets on the reference sandbox.
const NOMINAL_JOB_S: f64 = 4.0;

fn spec() -> DriftSpec {
    DriftSpec {
        base: SyntheticSpec::tiny().with_per_class(8),
        onset: 6,
        ramp: 3,
        magnitude: 0.9,
        mixture_shift: 0.0,
    }
}

/// `fleets` fleets, fleet `i` on the stream seeded `seed * FLEETS + i`.
/// Each fleet is its own site with its own network; the ledgers add up.
fn job(
    pool: &Pool,
    cfg: &RecustomizeConfig,
    fleets: usize,
    seed: u64,
) -> (Vec<RecustomizeOutcome>, TransferReport) {
    let mut ledger = Network::new().ledger().report();
    let outcomes = (0..fleets as u64)
        .map(|i| {
            let net = Network::new();
            let stream_seed = seed.wrapping_mul(FLEETS as u64) + i;
            let out = run_recustomization(pool, cfg, &spec(), Some(&net), stream_seed)
                .expect("re-customization run");
            ledger = ledger.merged(&net.ledger().report());
            out
        })
        .collect();
    (outcomes, ledger)
}

fn same_outcome(a: &[RecustomizeOutcome], b: &[RecustomizeOutcome]) -> bool {
    let devices = |o: &[RecustomizeOutcome]| -> Vec<(Option<usize>, u64, u32)> {
        o.iter()
            .flat_map(|f| &f.devices)
            .map(|d| (d.detected_at, d.delta_bytes, d.accuracy_final.to_bits()))
            .collect()
    };
    devices(a) == devices(b)
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Threads {
    let seed = ctx.seed;
    let pool = Pool::new(THREADS);
    acme_runtime::set_global_threads(THREADS);
    let cfg = RecustomizeConfig {
        devices: FLEET_DEVICES,
        ..RecustomizeConfig::standard()
    };

    // Warm-up: a quarter of the job, enough fleets that the share of
    // devices that refit does not swing set-up time from seed to seed.
    let (setup_s, _) = setup_median(|| job(&pool, &cfg, FLEETS / 4, seed));
    report.set("setup_s", setup_s);

    acme_tensor::pool::reset_stats();
    let packs = PackCounts::now();
    let (walls, runs) = repeat(reps_for(ctx.seconds, NOMINAL_JOB_S, 2), || {
        job(&pool, &cfg, FLEETS, seed)
    });
    let job_s = median(&walls);
    report.set("job_s", job_s);
    let (outcome, ledger) = &runs[0];
    let devices: Vec<_> = outcome.iter().flat_map(|fleet| &fleet.devices).collect();

    // A device fails when its accuracy is not a number or its detector
    // fired and nothing shipped.
    let failed = devices
        .iter()
        .filter(|d| {
            !d.accuracy_final.is_finite() || (d.detected_at.is_some() && d.delta_bytes == 0)
        })
        .count();
    report.count(DEVICES as u64, failed as u64);
    let accuracy = devices.iter().map(|d| d.accuracy_final as f64).sum::<f64>() / DEVICES as f64;
    let drifted: usize = outcome.iter().map(RecustomizeOutcome::drifted_count).sum();
    let delta_bytes: u64 = outcome.iter().map(|fleet| fleet.total_delta_bytes).sum();
    report.check(devices.len() == DEVICES, "every device is simulated");
    report.check(
        accuracy > 1.0 / spec().base.classes as f64,
        "mean accuracy after re-customization is above chance",
    );
    report.check(drifted > 0, "strong drift trips at least one detector");
    report.check(
        runs.iter()
            .all(|(o, l)| same_outcome(o, outcome) && l == ledger),
        "every repetition yields the same outcome and ledger",
    );
    report.check(kinds_sum_to_total(ledger), "ledger kinds sum to the total");
    report.check(
        ledger.messages == drifted as u64 && ledger.total_bytes >= delta_bytes,
        "the ledger meters one delta per drifted device",
    );

    report.set("core.accuracy", accuracy);
    report.set("core.recustomize.drifted_devices", drifted as f64);
    report.set(
        "core.recustomize.per_drifted_device_ms",
        job_s * 1e3 / drifted.max(1) as f64,
    );
    report_ledger(report, ledger);
    report.set(
        "tensor.pool.misses",
        acme_tensor::pool::stats().misses as f64 / walls.len() as f64,
    );
    packs.report_ratio_since(report);

    let threads = Threads {
        pool: THREADS,
        kernel: THREADS,
    };
    if !ctx.traced() {
        return threads;
    }

    let rec = &ctx.rec;
    let t = Instant::now();
    rec.span("core.run_recustomization", None, 0, |_| {
        job(&pool, &cfg, FLEETS, seed)
    });
    report.set(
        "bench.trace_overhead_frac",
        (t.elapsed().as_secs_f64() - job_s) / job_s,
    );

    rec.span("probes", None, 0, |p| {
        let stream = DriftingStream::new(spec(), seed).expect("valid drift spec");
        probes::drift(report, rec, p, &stream, &cfg.detector, cfg.window_samples);
        let t = Instant::now();
        let data = generate(&SyntheticSpec::cifar(), &mut SmallRng64::new(seed))
            .expect("valid dataset spec");
        report.set("data.generate_ms", t.elapsed().as_secs_f64() * 1e3);
        probes::training_kernels(
            report,
            rec,
            p,
            &VitConfig::reference(data.num_classes()),
            &data,
        );
        probes::runtime(report, rec, p);
    });
    threads
}
