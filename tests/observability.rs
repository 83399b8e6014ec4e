//! Determinism under observation: turning recording on must leave every
//! numeric output bit-identical — of the pipeline at any thread count,
//! of the protocol, of drift re-customization, of serving and of one
//! training step — and the
//! drained trace itself must be stable across reruns of the same seeded
//! workload. The counting allocator is installed for the whole file:
//! heap accounting is observation too, and must move no output bit.

#![allow(clippy::disallowed_methods)]

use std::sync::{Mutex, MutexGuard, OnceLock};

use acme::{Acme, AcmeConfig, AcmeOutcome, ProtocolConfig, ProtocolRun};
use acme_energy::Fleet;
use acme_nn::{Adam, Optimizer, ParamSet};
use acme_obs::mem::{self, CountingAlloc};
use acme_tensor::{randn, Graph, SmallRng64};
use acme_vit::{Vit, VitConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The obs registries (trace rings, metrics) are process-wide, so tests
/// that flip recording on and off must not interleave.
fn serialize() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn reset_obs() {
    acme_obs::trace::set_enabled(false);
    let _ = acme_obs::trace::drain();
    acme_obs::metrics::reset();
}

fn quick_run(threads: usize, seed: u64, observe: bool) -> AcmeOutcome {
    acme_obs::trace::set_enabled(observe);
    let cfg = AcmeConfig::builder()
        .quick()
        .threads(threads)
        .seed(seed)
        .build()
        .expect("quick preset is valid");
    let out = Acme::try_new(cfg).expect("valid").run().expect("quick run");
    acme_obs::trace::set_enabled(false);
    out
}

fn assert_outcomes_identical(a: &AcmeOutcome, b: &AcmeOutcome) {
    assert_eq!(a.assignments, b.assignments);
    assert_eq!(a.devices, b.devices);
    assert_eq!(a.transfers.messages, b.transfers.messages);
    assert_eq!(a.transfers.total_bytes, b.transfers.total_bytes);
    assert_eq!(a.transfers.uplink_bytes, b.transfers.uplink_bytes);
}

#[test]
fn protocol_outcome_is_bit_identical_under_observation() {
    let _g = serialize();
    reset_obs();
    let fleet = Fleet::paper_default(2, 3);
    let cfg = ProtocolConfig::default();
    let run = || ProtocolRun::new(&fleet).config(cfg.clone()).execute();
    let plain = run().expect("plain run");
    assert!(plain.trace.is_none(), "no trace without runtime opt-in");
    acme_obs::trace::set_enabled(true);
    let observed = run().expect("observed run");
    acme_obs::trace::set_enabled(false);
    // ProtocolOutcome equality deliberately ignores the trace field.
    assert_eq!(plain, observed);
    let trace = observed.trace.expect("observed run carries its trace");
    assert!(
        trace.spans.iter().any(|s| s.name == "protocol.round"),
        "per-round protocol spans present"
    );
    reset_obs();
}

/// The `net.*` events of one traced protocol run, as sorted
/// `name{from,to,kind,bytes,retransmit}` signatures (fields an event
/// lacks are skipped), and how many of them carried the sim's `vtime_us`
/// stamp.
fn net_events(run: ProtocolRun<'_>) -> (Vec<String>, usize) {
    acme_obs::trace::set_detail(acme_obs::Detail::Task);
    acme_obs::trace::set_enabled(true);
    let outcome = run.execute().expect("traced run");
    acme_obs::trace::set_enabled(false);
    acme_obs::trace::set_detail(acme_obs::Detail::Phase);
    let trace = outcome.trace.expect("observed run carries its trace");
    assert_eq!(trace.dropped_events, 0, "ring did not overflow");
    let events: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("net."))
        .collect();
    let mut signatures: Vec<String> = events
        .iter()
        .map(|s| {
            let compared = ["from", "to", "kind", "bytes", "retransmit"];
            let fields: Vec<String> = s
                .fields
                .iter()
                .filter(|(k, _)| compared.contains(k))
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!("{}{{{}}}", s.name, fields.join(","))
        })
        .collect();
    signatures.sort_unstable();
    let stamped = events
        .iter()
        .filter(|s| s.fields.iter().any(|(k, _)| *k == "vtime_us"))
        .count();
    (signatures, stamped)
}

#[test]
fn both_drivers_trace_the_same_net_events() {
    use acme::{DriverKind, FaultAction, FaultPlan, FaultRule, RetryPolicy};
    use acme_distsys::{Link, LinkModel, NodeId};
    use std::time::Duration;
    let _g = serialize();
    reset_obs();
    // `driver_differential`'s pinned dropped-uplink and
    // duplicated-downlink scenarios, on its fast retry policy and links.
    let cfg = ProtocolConfig {
        loop_rounds: 2,
        retry: RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(120),
            cap: Duration::from_millis(480),
        },
        ..ProtocolConfig::default()
    };
    let link = Link::try_new(1e12, 1e-6).expect("valid link");
    let links = LinkModel {
        device_edge: link,
        edge_cloud: link,
    };
    let lockstep = Fleet::paper_default(2, 1);
    let wide = Fleet::paper_default(2, 3);
    let uploader = NodeId::Device(lockstep.clusters()[0].devices()[0].id());
    let listener = NodeId::Device(wide.clusters()[1].devices()[2].id());
    let scenarios = [
        (
            "dropped uplink",
            &lockstep,
            FaultRule::on(FaultAction::Drop)
                .from(uploader)
                .kind("importance-upload")
                .nth(0),
            ("net.drop", 1),
        ),
        (
            "duplicated downlink",
            &wide,
            FaultRule::on(FaultAction::Duplicate)
                .to(listener)
                .kind("personalized-importance")
                .nth(0),
            ("net.duplicate", 1),
        ),
    ];
    for (label, fleet, rule, (fault_event, count)) in scenarios {
        let run = || {
            ProtocolRun::new(fleet)
                .config(cfg.clone())
                .faults(FaultPlan::none().rule(rule.clone()))
        };
        let (threaded, threaded_stamped) = net_events(run());
        let (sim, sim_stamped) = net_events(run().driver(DriverKind::Sim).seed(7).links(links));
        assert_eq!(threaded, sim, "{label}: the drivers traced different sends");
        let faults = sim.iter().filter(|s| s.starts_with(fault_event)).count();
        assert_eq!(faults, count, "{label}: {fault_event} events");
        assert!(sim.iter().any(|s| s.starts_with("net.send{")), "{label}");
        assert_eq!(threaded_stamped, 0, "{label}: wall-clock events");
        assert_eq!(sim_stamped, sim.len(), "{label}: sim events carry vtime_us");
    }
    reset_obs();
}

#[test]
fn pipeline_outputs_are_bit_identical_under_observation_at_any_thread_count() {
    let _g = serialize();
    reset_obs();
    for threads in [1usize, 2, 4] {
        let plain = quick_run(threads, 11, false);
        let _ = acme_obs::trace::drain();
        let observed = quick_run(threads, 11, true);
        let trace = acme_obs::trace::drain();
        assert_outcomes_identical(&plain, &observed);
        assert!(
            trace.spans.iter().any(|s| s.name == "pipeline.phase1"),
            "phase spans recorded at {threads} threads"
        );
    }
    assert!(mem::peak().peak_bytes > 0, "the allocator counted the runs");
    reset_obs();
}

#[test]
fn drained_trace_is_stable_across_reruns() {
    let _g = serialize();
    reset_obs();
    let run = || {
        let _ = quick_run(2, 3, true);
        acme_obs::trace::drain()
    };
    let first = run();
    let second = run();
    assert!(!first.spans.is_empty());
    assert_eq!(first.dropped_events, 0, "ring did not overflow");
    assert_eq!(
        first.stable_signature(),
        second.stable_signature(),
        "same seed, same thread count => same canonical trace"
    );
    reset_obs();
}

#[test]
fn no_trace_when_runtime_disabled() {
    let _g = serialize();
    reset_obs();
    let _ = quick_run(1, 5, false);
    let trace = acme_obs::trace::drain();
    assert!(trace.spans.is_empty());
    assert_eq!(trace.dropped_events, 0);
    let metrics = acme_obs::metrics::snapshot();
    assert!(metrics.counters.is_empty() && metrics.histograms.is_empty());
}

#[test]
fn recustomization_is_bit_identical_under_observation() {
    use acme::{run_recustomization, Pool, RecustomizeConfig, RecustomizeOutcome};
    use acme_data::{DriftSpec, SyntheticSpec};
    let _g = serialize();
    reset_obs();
    let spec = DriftSpec {
        base: SyntheticSpec::tiny().with_per_class(8),
        onset: 5,
        ramp: 3,
        magnitude: 0.9,
        mixture_shift: 0.0,
    };
    let run = |observe: bool| {
        acme_obs::trace::set_enabled(observe);
        let out = run_recustomization(&Pool::new(2), &RecustomizeConfig::quick(), &spec, None, 4)
            .expect("re-customization run");
        acme_obs::trace::set_enabled(false);
        out
    };
    let devices = |o: &RecustomizeOutcome| -> Vec<(Option<usize>, u64, [u32; 3])> {
        o.devices
            .iter()
            .map(|d| {
                let acc = [d.accuracy_before, d.accuracy_at_detection, d.accuracy_final];
                (d.detected_at, d.delta_bytes, acc.map(f32::to_bits))
            })
            .collect()
    };
    let plain = run(false);
    let observed = run(true);
    assert!(plain.drifted_count() > 0, "some device must re-customize");
    assert_eq!(devices(&plain), devices(&observed));
    reset_obs();
}

#[test]
fn serving_is_bit_identical_under_observation() {
    use acme_serve::{
        serve, BatcherConfig, ExitPolicy, Request, Response, ServeModelConfig, ServerConfig,
        StoreConfig, VariantStore,
    };
    use acme_tensor::{Array, Precision, SmallRng64};
    use std::time::Duration;
    let _g = serialize();
    reset_obs();
    let store = VariantStore::build(
        &StoreConfig {
            clusters: 2,
            devices: 3,
            keep_classes: 4,
            model: ServeModelConfig::tiny(),
            precision: Precision::F32,
        },
        17,
    );
    let [c, h, w] = store.input_shape();
    let mut rng = SmallRng64::new(5);
    let reqs: Vec<Request> = (0..32)
        .map(|id| Request {
            id,
            device: (rng.next_u64() as usize) % store.num_devices(),
            input: Array::from_vec((0..c * h * w).map(|_| rng.unit_f32()).collect(), &[c, h, w])
                .expect("input volume"),
        })
        .collect();
    let cfg = ServerConfig {
        workers: 2,
        batcher: BatcherConfig {
            max_batch: 8,
            window: Duration::from_millis(1),
        },
        policy: ExitPolicy::calibrated(&store, &reqs[..8], 0.5),
    };
    let bits = |r: &Response| {
        let logits: Vec<u32> = r.logits.iter().map(|v| v.to_bits()).collect();
        (
            r.id,
            r.device,
            r.exit,
            r.class,
            r.confidence.to_bits(),
            logits,
        )
    };
    let run = |observe: bool| {
        acme_obs::trace::set_enabled(observe);
        let report = serve(&store, &cfg, |b| {
            for r in &reqs {
                b.push(r.clone());
            }
        });
        acme_obs::trace::set_enabled(false);
        report
            .completions
            .iter()
            .map(|c| bits(&c.response))
            .collect::<Vec<_>>()
    };
    let plain = run(false);
    let observed = run(true);
    assert_eq!(plain.len(), reqs.len(), "every request answered");
    assert_eq!(plain, observed);
    reset_obs();
}

/// Two training steps of the reference ViT (forward, loss, backward,
/// Adam) on one graph: every loss bit and every parameter bit after.
fn training_steps(observe: bool) -> Vec<u32> {
    acme_obs::trace::set_enabled(observe);
    let cfg = VitConfig::reference(10);
    let mut rng = SmallRng64::new(5);
    let mut ps = ParamSet::new();
    let vit = Vit::new(&mut ps, &cfg, &mut rng);
    let images = randn(&[6, cfg.channels, cfg.image, cfg.image], &mut rng);
    let labels: Vec<usize> = (0..6).map(|i| (i * 3) % cfg.classes).collect();
    let mut opt = Adam::new(1e-3);
    let mut g = Graph::new();
    let mut bits = Vec::new();
    for _ in 0..2 {
        g.reset();
        let logits = vit.logits(&mut g, &ps, &images);
        let loss = g.cross_entropy_logits(logits, &labels);
        g.backward(loss);
        opt.step(&mut ps, &g);
        bits.push(g.value(loss).item().to_bits());
    }
    acme_obs::trace::set_enabled(false);
    for id in ps.ids() {
        bits.extend(ps.value(id).data().iter().map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn a_training_step_is_bit_identical_with_recording_on_and_off() {
    let _g = serialize();
    reset_obs();
    let plain = training_steps(false);
    let observed = training_steps(true);
    assert!(plain == observed, "recording moved a loss or parameter bit");
    // The observed steps filled the tape's per-op table.
    acme_obs::trace::set_enabled(true);
    acme_tensor::publish_obs_metrics();
    let metrics = acme_obs::metrics::snapshot();
    acme_obs::trace::set_enabled(false);
    for name in ["leaf", "linear", "layer_norm", "gelu"] {
        assert!(
            metrics.counter(&format!("tensor.op.{name}.calls")) > 0,
            "no {name} row"
        );
    }
    assert!(metrics.counter("tensor.op.linear.fwd_ns") > 0);
    assert!(metrics.counter("tensor.op.linear.bwd_ns") > 0);
    assert!(metrics.counter("tensor.op.linear.value_bytes") > 0);
    reset_obs();
}

/// Recording switched off and back on in the middle of a tape: the node
/// pushed after it resumes is not charged the time it was off.
#[test]
fn a_node_pushed_after_recording_resumes_is_not_charged_the_pause() {
    let _g = serialize();
    reset_obs();
    let scale_ns = || {
        acme_tensor::publish_obs_metrics();
        acme_obs::metrics::snapshot().counter("tensor.op.scale.fwd_ns")
    };
    acme_obs::trace::set_enabled(true);
    let mut g = Graph::new();
    let x = g.constant(acme_tensor::Array::zeros(&[4]));
    let before = scale_ns();
    acme_obs::trace::set_enabled(false);
    let y = g.scale(x, -1.0);
    std::thread::sleep(std::time::Duration::from_millis(200));
    acme_obs::trace::set_enabled(true);
    g.scale(y, -1.0);
    let charged = scale_ns() - before;
    acme_obs::trace::set_enabled(false);
    assert!(charged < 100_000_000, "the pause was charged: {charged} ns");
    reset_obs();
}

#[test]
fn persist_and_restore_are_bit_identical_under_observation() {
    use acme::Pool;
    use acme_obs::{Detail, FieldValue};
    use acme_serve::{StoreConfig, VariantStore};
    use acme_store::ModelStore;
    use acme_tensor::Precision;
    let _g = serialize();
    reset_obs();
    let store = VariantStore::build(
        &StoreConfig {
            precision: Precision::Int8,
            ..StoreConfig::serving_default(5)
        },
        23,
    );
    let run = |observe: bool| {
        let dir =
            std::env::temp_dir().join(format!("acme-obs-store-{observe}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        acme_obs::trace::set_detail(Detail::Task);
        acme_obs::trace::set_enabled(observe);
        let root = store
            .persist_on(
                &mut ModelStore::open(&dir).expect("store dir"),
                &Pool::new(2),
            )
            .expect("persist");
        let restored = VariantStore::from_store(&ModelStore::open(&dir).expect("reopen"), root)
            .expect("restore");
        restored.materialize_all();
        acme_obs::trace::set_enabled(false);
        acme_obs::trace::set_detail(Detail::Phase);
        std::fs::remove_dir_all(&dir).expect("remove the store dir");
        (root, restored)
    };
    let (plain_root, plain) = run(false);
    let _ = acme_obs::trace::drain();
    let (observed_root, observed) = run(true);
    let trace = acme_obs::trace::drain();
    assert_eq!(plain_root, observed_root, "recording moved a stored byte");
    let bits = |s: &VariantStore, d: usize| {
        let v = s.device(d);
        let values: Vec<Vec<u32>> = v
            .params
            .ids()
            .map(|id| {
                v.params
                    .value(id)
                    .data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect();
        (v.cluster, v.classes.clone(), values)
    };
    for d in 0..store.num_devices() {
        assert_eq!(bits(&plain, d), bits(&observed, d), "device {d}");
        assert_eq!(
            bits(&store, d),
            bits(&observed, d),
            "device {d} against its source"
        );
    }
    // Blobs in and out are spans carrying their sizes: two backbones,
    // five deltas and the manifest, each way.
    for name in ["store.put", "store.get"] {
        let sized = trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                s.fields
                    .iter()
                    .any(|(k, v)| *k == "bytes" && matches!(v, FieldValue::U64(b) if *b > 0))
            })
            .count();
        assert_eq!(sized, 2 + 5 + 1, "{name} spans with a bytes field");
    }
    reset_obs();
}

#[test]
fn weight_packs_have_timers_of_their_own() {
    use acme::Pool;
    use acme_tensor::gemm::{self, MatRef};
    use acme_tensor::qgemm;
    let _g = serialize();
    reset_obs();
    let (m, k, n) = (4, 8, 8);
    let (a, b) = (vec![0.5f32; m * k], vec![0.25f32; k * n]);
    let mut out = vec![0.0f32; m * n];
    acme_obs::trace::set_enabled(true);
    gemm::gemm(
        MatRef::row_major(&a, k),
        MatRef::row_major(&b, n),
        &mut out,
        m,
        k,
        n,
        &Pool::serial(),
    );
    drop(qgemm::pack_b_i8(MatRef::row_major(&b, n), k, n));
    acme_obs::trace::set_enabled(false);
    let histograms = acme_obs::metrics::snapshot().histograms;
    for name in [
        "tensor.gemm.pack_b",
        "tensor.gemm.blocked",
        "tensor.gemm.i8.pack_b",
    ] {
        assert_eq!(histograms.get(name).map(|h| h.count), Some(1), "{name}");
    }
    reset_obs();
}
