//! `customize`: the operator's cold start — `Acme::run()` over a 2 x 3
//! fleet at the paper-scaled model. Training-bound; no serving, no
//! simulator.

use std::time::Instant;

use acme::{
    build_candidate_pool_on, coarse_header_search, customize_backbone_for_cluster, refine_cluster,
    Acme, AcmeConfig, AcmeOutcome, BackboneAssignment, CandidateModel, DeviceSetup, Pool,
};
use acme_data::{generate, partition_confusion, Dataset};
use acme_distsys::{Network, NodeId, Payload};
use acme_energy::Fleet;
use acme_nas::{search_space_size, OpKind};
use acme_nn::ParamSet;
use acme_tensor::SmallRng64;
use acme_vit::{fit, Vit};

use super::{kinds_sum_to_total, repeat, report_ledger, reps_for, setup_median, Ctx, Threads};
use crate::probes::{self, PackCounts};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{root_coverage, Recorder, SpanId};

/// Fixed, not derived from the host, so runs on different hosts compare.
pub const THREADS: usize = 2;
/// One `Acme::run` on the reference sandbox.
const NOMINAL_JOB_S: f64 = 16.0;

fn config(seed: u64) -> AcmeConfig {
    AcmeConfig::builder()
        .clusters(2)
        .devices_per_cluster(3)
        .widths(vec![0.5, 1.0])
        .depths(vec![2, 4, 6])
        .threads(THREADS)
        .seed(seed)
        .build()
        .expect("the workload's configuration is valid")
}

/// What the traced pass keeps from inside the pipeline for the probes.
pub struct Inner {
    pub teacher: Vit,
    pub teacher_ps: ParamSet,
    pub public_train: Dataset,
    pub public_val: Dataset,
    pub pool: Vec<CandidateModel>,
    pub fleet: Fleet,
    /// Cluster 0's shared edge dataset and device data.
    pub edge_data: Dataset,
    pub devices: Vec<DeviceSetup>,
}

/// `Acme::run_with_rng` composed by hand from the same public functions,
/// in the same order, with the same fan-out and the same RNG forks, so a
/// span can sit around each phase. The caller checks the outcome equals
/// `Acme::run`'s.
fn run_composed(cfg: &AcmeConfig, rec: &Recorder, root: Option<SpanId>) -> (AcmeOutcome, Inner) {
    let pool_rt = Pool::new(cfg.threads);
    acme_runtime::set_global_threads(cfg.threads);
    let mut rng = SmallRng64::new(cfg.seed);
    let mut data_rng = rng.fork(1);
    let mut model_rng = rng.fork(2);
    let mut pipe_rng = rng.fork(3);

    let (public_train, public_val, fleet, parts) = rec.span("core.data", root, 0, |_| {
        let public = generate(&cfg.dataset, &mut data_rng).expect("valid dataset spec");
        let (public_train, public_val) = public.split(0.8, &mut data_rng);
        let device_pool = generate(&cfg.dataset, &mut data_rng).expect("valid dataset spec");
        let fleet = Fleet::micro_scaled(
            cfg.clusters,
            cfg.devices_per_cluster,
            cfg.reference.exact_params(),
        );
        let parts = partition_confusion(
            &device_pool,
            fleet.num_devices(),
            cfg.confusion,
            &mut data_rng,
        )
        .expect("partition the device pool");
        (public_train, public_val, fleet, parts)
    });

    let net = Network::new();
    let _cloud_rx = net.register(NodeId::Cloud).expect("fresh network");
    let _node_rxs: Vec<_> = fleet
        .clusters()
        .iter()
        .flat_map(|c| {
            std::iter::once(NodeId::Edge(c.edge()))
                .chain(c.devices().iter().map(|d| NodeId::Device(d.id())))
        })
        .map(|node| net.register(node).expect("fresh network"))
        .collect();

    let mut teacher_ps = ParamSet::new();
    let teacher = Vit::new(&mut teacher_ps, &cfg.reference, &mut model_rng);
    rec.span("core.pretrain", root, 0, |_| {
        fit(&teacher, &mut teacher_ps, &public_train, &cfg.pretrain);
    });

    let pool = rec.span("core.phase1_pool", root, 0, |_| {
        build_candidate_pool_on(
            &pool_rt,
            &teacher,
            &teacher_ps,
            &public_train,
            &public_val,
            &cfg.widths,
            &cfg.depths,
            &cfg.distill,
            cfg.importance_batches,
            &mut pipe_rng,
        )
    });

    let (assignments, cluster_choice) = rec.span("core.phase1_select", root, 0, |_| {
        let choices = pool_rt.par_map((0..fleet.clusters().len()).collect(), |_, s| {
            customize_backbone_for_cluster(
                &pool,
                &fleet.clusters()[s],
                &cfg.energy,
                cfg.energy_epochs,
                cfg.gamma_p,
            )
        });
        let smallest = pool
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.params)
            .map(|(i, _)| i)
            .expect("candidate pool is not empty");
        let mut assignments = Vec::new();
        let mut cluster_choice = Vec::new();
        for (cluster, choice) in fleet.clusters().iter().zip(choices) {
            let edge = cluster.edge();
            net.send(
                NodeId::Edge(edge),
                NodeId::Cloud,
                Payload::AttributeReport {
                    device_count: cluster.devices().len(),
                    min_storage: cluster.min_storage(),
                    min_gpu: cluster.weakest_device().gpu_capacity(),
                    max_gpu: cluster
                        .devices()
                        .iter()
                        .map(|d| d.gpu_capacity())
                        .fold(f64::NEG_INFINITY, f64::max),
                },
            )
            .expect("metered send");
            let idx = choice
                .expect("a finite candidate exists")
                .unwrap_or(smallest);
            let chosen = &pool[idx];
            net.send(
                NodeId::Cloud,
                NodeId::Edge(edge),
                Payload::BackboneAssignment {
                    w: chosen.w,
                    d: chosen.d,
                    param_count: chosen.params,
                    measured_bytes: None,
                },
            )
            .expect("metered send");
            let energy = cluster
                .devices()
                .iter()
                .map(|d| cfg.energy.energy(d, chosen.w, chosen.d, cfg.energy_epochs))
                .fold(f64::NEG_INFINITY, f64::max);
            assignments.push(BackboneAssignment {
                edge,
                w: chosen.w,
                d: chosen.d,
                params: chosen.params,
                loss: chosen.loss,
                energy,
            });
            cluster_choice.push(idx);
        }
        (assignments, cluster_choice)
    });

    let mut offsets = Vec::new();
    let mut acc = 0usize;
    for cluster in fleet.clusters() {
        offsets.push(acc);
        acc += cluster.devices().len();
    }
    let cluster_streams: Vec<(usize, SmallRng64, SmallRng64)> = (0..fleet.clusters().len())
        .map(|s| (s, data_rng.fork(s as u64), pipe_rng.fork(s as u64)))
        .collect();
    let per_cluster = rec.span("core.phase2", root, 0, |phase2| {
        pool_rt.par_map(cluster_streams, |_, (s, mut c_data_rng, mut c_pipe_rng)| {
            let cluster = &fleet.clusters()[s];
            let edge = cluster.edge();
            let chosen = &pool[cluster_choice[s]];
            let mut edge_ps = chosen.ps.clone();
            let backbone = chosen.vit.clone();
            let mut devices = Vec::new();
            let mut edge_data = Dataset::default();
            for (i, dev) in cluster.devices().iter().enumerate() {
                let part = &parts[offsets[s] + i];
                let (train, test) = part.split(0.75, &mut c_data_rng);
                let share = train.sample(
                    (cfg.edge_share * train.len() as f64).ceil() as usize,
                    &mut c_data_rng,
                );
                edge_data = if edge_data.is_empty() {
                    share
                } else {
                    edge_data.merged(&share)
                };
                devices.push(DeviceSetup {
                    device: dev.id(),
                    train,
                    test,
                });
            }
            // One correlation id per cluster task.
            let corr = 1 + s as u64;
            let customization = rec.span("core.phase2_1", phase2, corr, |_| {
                coarse_header_search(
                    edge,
                    &backbone,
                    &mut edge_ps,
                    &edge_data,
                    &cfg.search,
                    &mut c_pipe_rng,
                )
            });
            let header = customization.header;
            let header_params =
                edge_ps.num_scalars_of(&acme_vit::headers::Header::param_ids(&header)) as u64;
            for dev in cluster.devices() {
                net.send(
                    NodeId::Edge(edge),
                    NodeId::Device(dev.id()),
                    Payload::HeaderSpec {
                        tokens: header.arch().to_tokens(),
                        u: header.arch().u(),
                        param_count: header_params + chosen.params,
                        measured_bytes: None,
                    },
                )
                .expect("metered send");
            }
            let refined = rec.span("core.phase2_2", phase2, corr, |_| {
                refine_cluster(
                    &pool_rt,
                    edge,
                    &backbone,
                    &header,
                    &edge_ps,
                    &devices,
                    &cfg.refine,
                    Some(&net),
                    &mut c_pipe_rng,
                )
                .expect("refinement")
            });
            (refined.results, edge_data, devices)
        })
    });

    let mut device_results = Vec::new();
    let mut first_cluster = None;
    for (results, edge_data, devices) in per_cluster {
        device_results.extend(results);
        first_cluster.get_or_insert((edge_data, devices));
    }
    let (edge_data, devices) = first_cluster.expect("at least one cluster");
    let outcome = AcmeOutcome {
        assignments,
        devices: device_results,
        transfers: net.ledger().report(),
        header_search_space: search_space_size(cfg.search.num_blocks, OpKind::all().len()),
    };
    let inner = Inner {
        teacher,
        teacher_ps,
        public_train,
        public_val,
        pool,
        fleet,
        edge_data,
        devices,
    };
    (outcome, inner)
}

fn same_outcome(a: &AcmeOutcome, b: &AcmeOutcome) -> bool {
    a.assignments == b.assignments
        && a.devices == b.devices
        && a.transfers == b.transfers
        && a.header_search_space == b.header_search_space
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Threads {
    let cfg = config(ctx.seed);
    let acme = Acme::try_new(cfg.clone()).expect("validated configuration");

    // Warm-up: the quick preset end to end starts the worker threads and
    // fills the buffer pool the way the timed run will use them; three
    // runs, so one slow one does not set the set-up time.
    let warm = AcmeConfig::builder()
        .quick()
        .threads(THREADS)
        .seed(ctx.seed)
        .build()
        .and_then(Acme::try_new)
        .expect("the quick preset is valid");
    let (setup_s, _) = setup_median(|| {
        for _ in 0..3 {
            warm.run().expect("warm-up pipeline run");
        }
    });
    report.set("setup_s", setup_s);

    acme_tensor::pool::reset_stats();
    let packs = PackCounts::now();
    let (walls, outcomes) = repeat(reps_for(ctx.seconds, NOMINAL_JOB_S, 1), || {
        acme.run().expect("pipeline run")
    });
    let job_s = median(&walls);
    report.set("job_s", job_s);
    let outcome = &outcomes[0];

    let chance = 1.0 / cfg.reference.classes as f32;
    let failed = outcome
        .devices
        .iter()
        .filter(|d| !d.accuracy_after.is_finite() || d.accuracy_after <= chance)
        .count();
    report.count(outcome.devices.len() as u64, failed as u64);
    report.check(
        outcome.devices.len() == cfg.clusters * cfg.devices_per_cluster,
        "every device is customized",
    );
    report.check(
        outcomes.iter().all(|o| same_outcome(o, outcome)),
        "every repetition yields the same outcome",
    );
    report.check(
        kinds_sum_to_total(&outcome.transfers),
        "ledger kinds sum to the total",
    );
    report.check(
        outcome.assignments.iter().all(|a| a.loss.is_finite()),
        "assigned backbones have finite loss",
    );

    report.set("core.accuracy", outcome.mean_accuracy() as f64);
    report_ledger(report, &outcome.transfers);
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
    let (composed, inner) = rec.span("customize", None, 0, |root| run_composed(&cfg, rec, root));
    let traced_s = t.elapsed().as_secs_f64();
    report.check(
        same_outcome(&composed, outcome),
        "the hand-composed traced pipeline yields Acme::run's outcome",
    );
    report.set("bench.trace_overhead_frac", (traced_s - job_s) / job_s);

    let spans = rec.spans();
    let longest = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us() / 1e6)
            .fold(0.0, f64::max)
    };
    for (metric, span) in [
        ("core.data_s", "core.data"),
        ("core.pretrain_s", "core.pretrain"),
        ("core.phase1_pool_s", "core.phase1_pool"),
        ("core.phase1_select_s", "core.phase1_select"),
        ("core.phase2_1_s", "core.phase2_1"),
        ("core.phase2_2_s", "core.phase2_2"),
    ] {
        report.set(metric, longest(span));
    }
    report.set("bench.trace_coverage_frac", root_coverage(&spans));

    rec.span("probes", None, 0, |p| {
        probes::pool_par_eff(report, rec, p, &cfg, &inner, longest("core.phase1_pool"));
        probes::training_kernels(report, rec, p, &cfg.reference, &inner.public_train);
        probes::training_layers(report, rec, p, &cfg, &inner);
        probes::runtime(report, rec, p);
    });
    threads
}
