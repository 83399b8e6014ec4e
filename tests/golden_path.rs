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
//! when it flips a prediction.
//!
//! The kernel thread count is process-wide and the cases run
//! concurrently, so a case may run at another's count; no pinned bit
//! depends on it.

use acme::{run_recustomization, Acme, AcmeConfig, AcmeOutcome, Pool, RecustomizeConfig};
use acme_data::{generate, DriftSpec, SyntheticSpec};
use acme_distsys::Network;
use acme_nas::{HeaderArch, NasHeader, SharedParams};
use acme_nn::{save_params, ParamSet};
use acme_store::ContentHash;
use acme_tensor::SmallRng64;
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
        lr: 3e-3,
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

/// Compares `got` with the pinned table and panics listing every field
/// that moved, appeared or vanished.
fn check(case: &str, threads: usize, pinned: &str, got: &Fields) {
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
