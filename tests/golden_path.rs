//! Whole-path value pins: the outputs of the two public pipelines at the
//! quick scale, pinned bit for bit as constants, at one and two threads.
//!
//! `determinism.rs` checks that two runs agree with each other; this file
//! checks that they agree with the recorded run. A change that moves any
//! pinned bit — a kernel's accumulation order, a reordered RNG draw, a
//! different wire size — fails here, and the failure lists every field
//! that moved, `old → new`, so a deliberate re-pin can paste the list
//! into its change log. A case whose pin table is empty prints the whole
//! table to paste in.
//!
//! Pinned: `Acme::run(AcmeConfig::quick())` at seeds 42 and 7 (every
//! backbone assignment field, every device accuracy, the ledger's bytes
//! and messages per kind), `run_recustomization` with
//! `RecustomizeConfig::quick()` on a drifting and a still stream (every
//! device's detection window, accuracies and delta bytes), and the drift
//! loop's header refit below its outcome (every epoch loss and the hash
//! of every parameter bit): the outcomes' accuracies are ratios of
//! counts, so a last-bit change in a header's training reaches them only
//! when it flips a prediction. Also pinned: the root hash of a
//! `VariantStore` built at seed 42 and persisted, with its deltas
//! encoded at one and two threads (every backbone, head and manifest
//! byte), and the responses of `BatchEngine::serve_batch` to a seeded
//! mixed-variant request mix on such a store under a calibrated exit
//! threshold (every response's id, device, exit, class, confidence bits
//! and a hash of its logits' bits, and the responses per exit).
//!
//! The pins hold in the native build and in a plain x86-64 build
//! without FMA (`gemm::madd` is always fused). They still depend on the
//! host libm's `ln` / `cos` / `sin` behind `randn`, which draws every
//! initial weight here, as `phase1::golden_pool_pins_every_bit` does: a
//! host whose libm rounds those differently fails them.
//!
//! One case checks the pins themselves: one ulp on the teacher's first
//! weight, set inside the pretraining stage's value, must move at least
//! one pinned field of the rest of the run.
//!
//! The kernel thread count is process-wide and the cases run
//! concurrently, so a case may run at another's count; no pinned bit
//! depends on it.

#![allow(clippy::disallowed_methods)]

use acme::{run_recustomization, Acme, AcmeConfig, AcmeOutcome, Pool, RecustomizeConfig};
use acme_data::{generate, DriftSpec, SyntheticSpec};
use acme_distsys::Network;
use acme_nas::{HeaderArch, NasHeader, SharedParams};
use acme_nn::{save_params, ParamSet};
use acme_serve::{BatchEngine, ExitPolicy, Request, ServeModelConfig, StoreConfig, VariantStore};
use acme_store::{ContentHash, ModelStore};
use acme_tensor::{Array, Graph, Precision, SmallRng64};
use acme_vit::{fit_header, FrozenFeatures, TrainConfig, Vit, VitConfig};

/// One `name value` line per pinned field; floats as their bit patterns.
type Fields = Vec<(String, String)>;

fn acme_fields(out: &AcmeOutcome) -> Fields {
    let mut f = Fields::new();
    let mut put = |k: String, v: String| f.push((k, v));
    for (i, a) in out.assignments.iter().enumerate() {
        put(format!("assignment.{i}.edge"), a.edge.0.to_string());
        put(format!("assignment.{i}.w"), format!("{:#x}", a.w.to_bits()));
        put(format!("assignment.{i}.d"), a.d.to_string());
        put(format!("assignment.{i}.params"), a.params.to_string());
        put(
            format!("assignment.{i}.loss"),
            format!("{:#x}", a.loss.to_bits()),
        );
        put(
            format!("assignment.{i}.energy"),
            format!("{:#x}", a.energy.to_bits()),
        );
    }
    for d in &out.devices {
        let id = d.device.0;
        put(format!("device.{id}.edge"), d.edge.0.to_string());
        put(
            format!("device.{id}.accuracy_before"),
            format!("{:#x}", d.accuracy_before.to_bits()),
        );
        put(
            format!("device.{id}.accuracy_after"),
            format!("{:#x}", d.accuracy_after.to_bits()),
        );
    }
    let t = &out.transfers;
    put("ledger.messages".into(), t.messages.to_string());
    put("ledger.total_bytes".into(), t.total_bytes.to_string());
    put("ledger.uplink_bytes".into(), t.uplink_bytes.to_string());
    for row in &t.per_kind {
        let k = &row.kind;
        put(format!("ledger.{k}.messages"), row.messages.to_string());
        put(
            format!("ledger.{k}.uplink_bytes"),
            row.uplink_bytes.to_string(),
        );
        put(
            format!("ledger.{k}.downlink_bytes"),
            row.downlink_bytes.to_string(),
        );
    }
    put(
        "header_search_space".into(),
        out.header_search_space.to_string(),
    );
    f
}

fn acme_run(seed: u64, threads: usize) -> Fields {
    let config = AcmeConfig {
        seed,
        threads,
        ..AcmeConfig::quick()
    };
    let out = Acme::try_new(config)
        .expect("quick config is valid")
        .run()
        .expect("quick run");
    acme_fields(&out)
}

fn drift_spec(magnitude: f32) -> DriftSpec {
    DriftSpec {
        base: SyntheticSpec::tiny().with_per_class(8),
        onset: 5,
        ramp: 3,
        magnitude,
        mixture_shift: 0.0,
    }
}

fn recustomize_run(magnitude: f32, seed: u64, threads: usize) -> Fields {
    let net = Network::new();
    let out = run_recustomization(
        &Pool::new(threads),
        &RecustomizeConfig::quick(),
        &drift_spec(magnitude),
        Some(&net),
        seed,
    )
    .expect("quick re-customization run");
    let mut f = Fields::new();
    let mut put = |k: String, v: String| f.push((k, v));
    for (i, d) in out.devices.iter().enumerate() {
        put(
            format!("device.{i}.detected_at"),
            format!("{:?}", d.detected_at),
        );
        put(
            format!("device.{i}.detection_latency"),
            format!("{:?}", d.detection_latency),
        );
        put(
            format!("device.{i}.accuracy_before"),
            format!("{:#x}", d.accuracy_before.to_bits()),
        );
        put(
            format!("device.{i}.accuracy_at_detection"),
            format!("{:#x}", d.accuracy_at_detection.to_bits()),
        );
        put(
            format!("device.{i}.accuracy_final"),
            format!("{:#x}", d.accuracy_final.to_bits()),
        );
        put(format!("device.{i}.delta_bytes"), d.delta_bytes.to_string());
        put(
            format!("device.{i}.cold_start_bytes"),
            d.cold_start_bytes.to_string(),
        );
    }
    let report = net.ledger().report();
    put("ledger.messages".into(), report.messages.to_string());
    put("ledger.total_bytes".into(), report.total_bytes.to_string());
    f
}

/// The drift loop's header over a frozen backbone, as
/// `run_recustomization` builds them for `SyntheticSpec::tiny()`, refit
/// on cached features.
fn header_refit(threads: usize) -> Fields {
    acme_runtime::set_global_threads(threads);
    let mut rng = SmallRng64::new(4);
    let spec = SyntheticSpec::tiny().with_per_class(12);
    let data = generate(&spec, &mut rng).expect("tiny spec is valid");
    let cfg = VitConfig {
        image: spec.size,
        patch: spec.size / spec.grid,
        channels: spec.channels,
        dim: 16,
        depth: 2,
        heads: 2,
        head_dim: 8,
        mlp_hidden: 32,
        classes: spec.classes,
    };
    let mut ps = ParamSet::new();
    let backbone = Vit::new(&mut ps, &cfg, &mut rng);
    let shared = SharedParams::new(&mut ps, "on", 2, cfg.dim, cfg.grid(), cfg.classes, &mut rng);
    let header = NasHeader::new(HeaderArch::chain(2, 1), shared);
    backbone.freeze_backbone(&mut ps);
    let features = FrozenFeatures::compute(&backbone, &ps, &data, 16);
    let train = TrainConfig {
        epochs: 3,
        batch_size: 16,
        seed: 9,
    };
    let report = fit_header(&header, &mut ps, &features, &train);
    let mut f: Fields = report
        .epoch_losses
        .iter()
        .enumerate()
        .map(|(i, l)| (format!("epoch.{i}.loss"), format!("{:#x}", l.to_bits())))
        .collect();
    f.push((
        "params.hash".into(),
        ContentHash::of(&save_params(&ps)).to_hex(),
    ));
    f
}

/// The manifest address of a built store persisted into an empty
/// in-memory store, its deltas encoded on `threads` workers.
fn store_root(threads: usize) -> Fields {
    let cfg = StoreConfig {
        clusters: 2,
        devices: 5,
        keep_classes: 4,
        model: ServeModelConfig::tiny(),
        precision: Precision::F32,
    };
    let root = VariantStore::build(&cfg, 42)
        .persist_on(&mut ModelStore::in_memory(), &Pool::new(threads))
        .expect("an in-memory persist");
    vec![("manifest.root".into(), root.to_hex())]
}

/// A seeded mix of 24 requests over the 6 variants of a 2-cluster store,
/// served as one mixed-variant batch per backbone under a threshold
/// calibrated at the mix's median first-exit confidence, so rows leave
/// at both exits.
fn served_batches(threads: usize) -> Fields {
    acme_runtime::set_global_threads(threads);
    let cfg = StoreConfig {
        clusters: 2,
        devices: 6,
        keep_classes: 4,
        model: ServeModelConfig::tiny(),
        precision: Precision::F32,
    };
    let store = VariantStore::build(&cfg, 42);
    let [c, h, w] = store.input_shape();
    let mut rng = SmallRng64::new(3);
    let requests: Vec<Request> = (0..24)
        .map(|id| {
            let device = rng.next_u64() as usize % store.num_devices();
            let data = (0..c * h * w).map(|_| rng.unit_f32()).collect();
            Request {
                id,
                device,
                input: Array::from_vec(data, &[c, h, w]).expect("input volume"),
            }
        })
        .collect();
    let engine = BatchEngine::new(&store, ExitPolicy::calibrated(&store, &requests, 0.5));
    let mut g = Graph::new();
    let mut f = Fields::new();
    let mut per_exit = [0usize; 2];
    for cluster in 0..cfg.clusters {
        let batch: Vec<Request> = requests
            .iter()
            .filter(|r| r.device % cfg.clusters == cluster)
            .cloned()
            .collect();
        for r in engine.serve_batch(&mut g, &batch) {
            let logits: Vec<u8> = r.logits.iter().flat_map(|v| v.to_le_bytes()).collect();
            let id = r.id;
            f.push((format!("response.{id}.device"), r.device.to_string()));
            f.push((format!("response.{id}.exit"), r.exit.to_string()));
            f.push((format!("response.{id}.class"), r.class.to_string()));
            f.push((
                format!("response.{id}.confidence"),
                format!("{:#x}", r.confidence.to_bits()),
            ));
            f.push((
                format!("response.{id}.logits"),
                ContentHash::of(&logits).to_hex(),
            ));
            per_exit[r.exit] += 1;
        }
    }
    for (e, n) in per_exit.iter().enumerate() {
        f.push((format!("exit.{e}.responses"), n.to_string()));
    }
    f
}

/// Every field of `got` that differs from the pinned table, appeared or
/// vanished, as `name: old → new`.
fn moved(pinned: &str, got: &Fields) -> Vec<String> {
    let pinned: Vec<(&str, &str)> = pinned
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| l.split_once(' ').expect("pin lines are `name value`"))
        .collect();
    let mut moved = Vec::new();
    for (k, v) in got {
        match pinned.iter().find(|(pk, _)| pk == k) {
            Some((_, pv)) if pv == v => {}
            Some((_, pv)) => moved.push(format!("  {k}: {pv} → {v}")),
            None => moved.push(format!("  {k}: (not pinned) → {v}")),
        }
    }
    for (pk, pv) in &pinned {
        if !got.iter().any(|(k, _)| k == pk) {
            moved.push(format!("  {pk}: {pv} → (gone)"));
        }
    }
    moved
}

/// Compares `got` with the pinned table and panics listing every field
/// that moved, appeared or vanished.
fn check(case: &str, threads: usize, pinned: &str, got: &Fields) {
    let moved = moved(pinned, got);
    if !moved.is_empty() {
        let table: String = got.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        panic!(
            "{case} at {threads} thread(s): {} field(s) moved\n{}\nthe run's table:\n{table}",
            moved.len(),
            moved.join("\n")
        );
    }
}

#[test]
fn quick_pipeline_at_seed_42_matches_its_pins() {
    for threads in [1, 2] {
        check(
            "Acme::run seed 42",
            threads,
            ACME_SEED_42,
            &acme_run(42, threads),
        );
    }
}

#[test]
fn quick_pipeline_at_seed_7_matches_its_pins() {
    for threads in [1, 2] {
        check(
            "Acme::run seed 7",
            threads,
            ACME_SEED_7,
            &acme_run(7, threads),
        );
    }
}

/// The pins see the teacher: one ulp on `θ₀`'s first weight, set inside
/// the pretraining stage's value, moves at least one pinned field of the
/// rest of the run, and the test prints which.
#[test]
fn one_ulp_of_the_teacher_moves_a_pin() {
    let acme = Acme::try_new(AcmeConfig {
        seed: 42,
        threads: 1,
        ..AcmeConfig::quick()
    })
    .expect("quick config is valid");
    let mut pre = acme.pretrain().expect("quick pretraining");
    let first = pre
        .teacher_ps
        .ids()
        .next()
        .expect("the teacher has weights");
    let w = &mut pre.teacher_ps.value_mut(first).data_mut()[0];
    assert!(
        w.is_finite() && *w != 0.0,
        "a finite nonzero weight has an ulp"
    );
    *w = f32::from_bits(w.to_bits() + 1);
    let out = acme.run_from(&pre).expect("quick run");
    let moved = moved(ACME_SEED_42, &acme_fields(&out));
    assert!(
        !moved.is_empty(),
        "one ulp of the teacher's first weight moved no pinned field"
    );
    println!(
        "one ulp of the teacher's first weight moved {} pinned field(s):\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn drifting_fleet_recustomization_matches_its_pins() {
    for threads in [1, 2] {
        let got = recustomize_run(0.9, 4, threads);
        check("recustomize drifting", threads, RECUSTOMIZE_DRIFTING, &got);
    }
}

#[test]
fn still_fleet_recustomization_matches_its_pins() {
    for threads in [1, 2] {
        let got = recustomize_run(0.0, 11, threads);
        check("recustomize still", threads, RECUSTOMIZE_STILL, &got);
    }
}

#[test]
fn drift_header_refit_matches_its_pins() {
    for threads in [1, 2] {
        check(
            "header refit",
            threads,
            HEADER_REFIT,
            &header_refit(threads),
        );
    }
}

#[test]
fn persisted_store_root_matches_its_pin() {
    for threads in [1, 2] {
        check("store root", threads, STORE_ROOT, &store_root(threads));
    }
}

#[test]
fn served_batches_match_their_pins() {
    for threads in [1, 2] {
        check(
            "served batches",
            threads,
            SERVED_BATCHES,
            &served_batches(threads),
        );
    }
}

const SERVED_BATCHES: &str = "
    response.1.device 0
    response.1.exit 1
    response.1.class 7
    response.1.confidence 0x3f06a353
    response.1.logits e869a76174a376779a271e74e64e29bc
    response.3.device 2
    response.3.exit 1
    response.3.class 5
    response.3.confidence 0x3eff01be
    response.3.logits 3f64adadece6d90bcaab86bf78ae1e94
    response.5.device 4
    response.5.exit 0
    response.5.class 1
    response.5.confidence 0x3f503bc1
    response.5.logits b9a7eb425804cb2d4019e3e7d3343b8f
    response.7.device 0
    response.7.exit 1
    response.7.class 7
    response.7.confidence 0x3f32f9e1
    response.7.logits 7a52b14d7a9b6e261b2040899206791e
    response.8.device 4
    response.8.exit 0
    response.8.class 1
    response.8.confidence 0x3f458fce
    response.8.logits 15e3c26b49cf6ecfd8dee8439ae74f46
    response.9.device 2
    response.9.exit 1
    response.9.class 1
    response.9.confidence 0x3ef458de
    response.9.logits 0caa0cf8a22e9d8e8b9ee3f4b2ed9f01
    response.12.device 0
    response.12.exit 1
    response.12.class 7
    response.12.confidence 0x3f277f04
    response.12.logits 33422aba96fa76df968003d2c1daa809
    response.14.device 4
    response.14.exit 0
    response.14.class 1
    response.14.confidence 0x3f4c75df
    response.14.logits 81af510d0d31cd348db8317eaa28ab29
    response.15.device 2
    response.15.exit 1
    response.15.class 1
    response.15.confidence 0x3f03ad2f
    response.15.logits e1e8399f56c78ee8e909022a72fa804f
    response.19.device 2
    response.19.exit 1
    response.19.class 1
    response.19.confidence 0x3f15adc0
    response.19.logits 2ecff9f3f0b4c72a288a3bb3d2a4b76e
    response.22.device 4
    response.22.exit 0
    response.22.class 1
    response.22.confidence 0x3f53fc50
    response.22.logits ebeca5cafd6cf3cf76f0dea825d10534
    response.23.device 4
    response.23.exit 0
    response.23.class 1
    response.23.confidence 0x3f52a743
    response.23.logits 4bc42220fee31a502e7bc5761fa48ba0
    response.0.device 3
    response.0.exit 0
    response.0.class 1
    response.0.confidence 0x3f5ab308
    response.0.logits ac042a281de65d74579f2f7e5c61472e
    response.2.device 1
    response.2.exit 0
    response.2.class 0
    response.2.confidence 0x3f455096
    response.2.logits e5e36e15c6757ccc2a87c5f3b049c67a
    response.4.device 5
    response.4.exit 1
    response.4.class 2
    response.4.confidence 0x3ec467f7
    response.4.logits acb6ce4eb42b30578212c84a8afbdef4
    response.6.device 1
    response.6.exit 0
    response.6.class 0
    response.6.confidence 0x3f3d7183
    response.6.logits 41b5d67967668b2fa4db1a70c217d08e
    response.10.device 1
    response.10.exit 1
    response.10.class 0
    response.10.confidence 0x3f40667d
    response.10.logits 531db45be8765e647f6f59dc70f4cf5f
    response.11.device 3
    response.11.exit 0
    response.11.class 1
    response.11.confidence 0x3f3c2c68
    response.11.logits 0361cc25d81c9f84bc3b4209bd0bfd9f
    response.13.device 1
    response.13.exit 1
    response.13.class 0
    response.13.confidence 0x3f31642d
    response.13.logits 3b432e7c5c21f4750d5ed254d1571028
    response.16.device 3
    response.16.exit 1
    response.16.class 0
    response.16.confidence 0x3f1a5c57
    response.16.logits 4100c94059e70aece69d956dfb3510fe
    response.17.device 1
    response.17.exit 1
    response.17.class 0
    response.17.confidence 0x3f06161f
    response.17.logits 7854b542ef4f352f1c2d864b7da7a2a6
    response.18.device 5
    response.18.exit 0
    response.18.class 7
    response.18.confidence 0x3f3c35a7
    response.18.logits 9807ebcd77a1e315133a9d77cfd72f15
    response.20.device 3
    response.20.exit 0
    response.20.class 1
    response.20.confidence 0x3f5f2e66
    response.20.logits 13561fe0e28a0e9f99846c72790a1872
    response.21.device 1
    response.21.exit 0
    response.21.class 0
    response.21.confidence 0x3f3af1fd
    response.21.logits 8bb756d4201a732de032678508fc01b2
    exit.0.responses 12
    exit.1.responses 12
";

const STORE_ROOT: &str = "
    manifest.root 0cb2e87cdeda72e2a926e6a698a0996c
";

const HEADER_REFIT: &str = "
    epoch.0.loss 0x402518de
    epoch.1.loss 0x3f931931
    epoch.2.loss 0x3ef4eba4
    params.hash ccaacb6efe8d8adc633271eb953ee642
";

const ACME_SEED_42: &str = "
    assignment.0.edge 0
    assignment.0.w 0x3fe0000000000000
    assignment.0.d 1
    assignment.0.params 1662
    assignment.0.loss 0x3ffa3d43e469ee58
    assignment.0.energy 0x402e39c0ebedfa46
    assignment.1.edge 1
    assignment.1.w 0x3ff0000000000000
    assignment.1.d 2
    assignment.1.params 4950
    assignment.1.loss 0x3fe6aa91708d3dcb
    assignment.1.energy 0x403919652bd3c362
    device.0.edge 0
    device.0.accuracy_before 0x3d638e39
    device.0.accuracy_after 0x3f0e38e4
    device.1.edge 0
    device.1.accuracy_before 0x3e924925
    device.1.accuracy_after 0x3f800000
    device.2.edge 0
    device.2.accuracy_before 0x0
    device.2.accuracy_after 0x3f19999a
    device.3.edge 1
    device.3.accuracy_before 0x3e088889
    device.3.accuracy_after 0x3f3bbbbc
    device.4.edge 1
    device.4.accuracy_before 0x3f800000
    device.4.accuracy_after 0x3f800000
    device.5.edge 1
    device.5.accuracy_before 0x3eba2e8c
    device.5.accuracy_after 0x3f5d1746
    ledger.messages 34
    ledger.total_bytes 168544
    ledger.uplink_bytes 1056
    ledger.attribute-report.messages 2
    ledger.attribute-report.uplink_bytes 96
    ledger.attribute-report.downlink_bytes 0
    ledger.backbone-assignment.messages 2
    ledger.backbone-assignment.uplink_bytes 0
    ledger.backbone-assignment.downlink_bytes 26512
    ledger.header-spec.messages 6
    ledger.header-spec.uplink_bytes 0
    ledger.header-spec.downlink_bytes 140016
    ledger.importance-upload.messages 12
    ledger.importance-upload.uplink_bytes 960
    ledger.importance-upload.downlink_bytes 0
    ledger.personalized-importance.messages 12
    ledger.personalized-importance.uplink_bytes 0
    ledger.personalized-importance.downlink_bytes 960
    header_search_space 86436
";

const ACME_SEED_7: &str = "
    assignment.0.edge 0
    assignment.0.w 0x3fe0000000000000
    assignment.0.d 1
    assignment.0.params 1662
    assignment.0.loss 0x3ffe0096e9ee5847
    assignment.0.energy 0x402e39c0ebedfa46
    assignment.1.edge 1
    assignment.1.w 0x3ff0000000000000
    assignment.1.d 2
    assignment.1.params 4950
    assignment.1.loss 0x3feadeedd611a7b9
    assignment.1.energy 0x403919652bd3c362
    device.0.edge 0
    device.0.accuracy_before 0x3daaaaab
    device.0.accuracy_after 0x3f2aaaab
    device.1.edge 0
    device.1.accuracy_before 0x3d800000
    device.1.accuracy_after 0x3f000000
    device.2.edge 0
    device.2.accuracy_before 0x3e088889
    device.2.accuracy_after 0x3ecccccd
    device.3.edge 1
    device.3.accuracy_before 0x3edb6db7
    device.3.accuracy_after 0x3edb6db7
    device.4.edge 1
    device.4.accuracy_before 0x3eaaaaab
    device.4.accuracy_after 0x3ed55555
    device.5.edge 1
    device.5.accuracy_before 0x3e99999a
    device.5.accuracy_after 0x3ecccccd
    ledger.messages 34
    ledger.total_bytes 133504
    ledger.uplink_bytes 1056
    ledger.attribute-report.messages 2
    ledger.attribute-report.uplink_bytes 96
    ledger.attribute-report.downlink_bytes 0
    ledger.backbone-assignment.messages 2
    ledger.backbone-assignment.uplink_bytes 0
    ledger.backbone-assignment.downlink_bytes 26512
    ledger.header-spec.messages 6
    ledger.header-spec.uplink_bytes 0
    ledger.header-spec.downlink_bytes 104976
    ledger.importance-upload.messages 12
    ledger.importance-upload.uplink_bytes 960
    ledger.importance-upload.downlink_bytes 0
    ledger.personalized-importance.messages 12
    ledger.personalized-importance.uplink_bytes 0
    ledger.personalized-importance.downlink_bytes 960
    header_search_space 86436
";

const RECUSTOMIZE_DRIFTING: &str = "
    device.0.detected_at Some(6)
    device.0.detection_latency Some(1)
    device.0.accuracy_before 0x3f555555
    device.0.accuracy_at_detection 0x3ec00000
    device.0.accuracy_final 0x3f0aaaab
    device.0.delta_bytes 10703
    device.0.cold_start_bytes 64257
    device.1.detected_at Some(6)
    device.1.detection_latency Some(1)
    device.1.accuracy_before 0x3f4aaaab
    device.1.accuracy_at_detection 0x3f155555
    device.1.accuracy_final 0x3f355555
    device.1.delta_bytes 10703
    device.1.cold_start_bytes 64257
    device.2.detected_at Some(8)
    device.2.detection_latency Some(3)
    device.2.accuracy_before 0x3f555555
    device.2.accuracy_at_detection 0x3eeaaaab
    device.2.accuracy_final 0x3f400000
    device.2.delta_bytes 10703
    device.2.cold_start_bytes 64257
    ledger.messages 3
    ledger.total_bytes 32157
";

const RECUSTOMIZE_STILL: &str = "
    device.0.detected_at None
    device.0.detection_latency None
    device.0.accuracy_before 0x3f355555
    device.0.accuracy_at_detection 0x3f355555
    device.0.accuracy_final 0x3f400000
    device.0.delta_bytes 0
    device.0.cold_start_bytes 64257
    device.1.detected_at None
    device.1.detection_latency None
    device.1.accuracy_before 0x3f4aaaab
    device.1.accuracy_at_detection 0x3f4aaaab
    device.1.accuracy_final 0x3f200000
    device.1.delta_bytes 0
    device.1.cold_start_bytes 64257
    device.2.detected_at Some(4)
    device.2.detection_latency Some(0)
    device.2.accuracy_before 0x3f555555
    device.2.accuracy_at_detection 0x3f355555
    device.2.accuracy_final 0x3f555555
    device.2.delta_bytes 10703
    device.2.cold_start_bytes 64257
    ledger.messages 1
    ledger.total_bytes 10719
";
