//! End-to-end pipeline integration tests spanning every crate.

use acme::{Acme, AcmeConfig};

fn run_quick(seed: u64) -> acme::AcmeOutcome {
    let config = AcmeConfig::builder()
        .quick()
        .seed(seed)
        .build()
        .expect("quick preset is valid");
    Acme::try_new(config)
        .expect("validated config")
        .run()
        .expect("quick run")
}

#[test]
fn pipeline_produces_complete_outcome() {
    let outcome = run_quick(0);
    let cfg = AcmeConfig::quick();
    assert_eq!(outcome.assignments.len(), cfg.clusters);
    assert_eq!(
        outcome.devices.len(),
        cfg.clusters * cfg.devices_per_cluster
    );
    assert!(outcome.transfers.messages > 0);
    assert!(outcome.header_search_space > 1000);
}

#[test]
fn assignments_respect_the_width_depth_grid() {
    let outcome = run_quick(1);
    let cfg = AcmeConfig::quick();
    for a in &outcome.assignments {
        assert!(cfg.widths.contains(&a.w), "width {} not in grid", a.w);
        assert!(cfg.depths.contains(&a.d), "depth {} not in grid", a.d);
    }
}

#[test]
fn weaker_clusters_never_get_larger_models() {
    // Fleet storage grows with the cluster index in `micro_scaled`, so
    // assigned parameter counts must be non-decreasing.
    let outcome = run_quick(2);
    let params: Vec<u64> = outcome.assignments.iter().map(|a| a.params).collect();
    for w in params.windows(2) {
        assert!(
            w[0] <= w[1],
            "params not monotone over clusters: {params:?}"
        );
    }
}

#[test]
fn refinement_beats_chance_on_average() {
    let outcome = run_quick(3);
    let chance = 1.0 / AcmeConfig::quick().reference.classes as f32;
    assert!(
        outcome.mean_accuracy() > chance,
        "mean accuracy {} vs chance {}",
        outcome.mean_accuracy(),
        chance
    );
}

#[test]
fn pipeline_never_ships_raw_data() {
    let outcome = run_quick(4);
    assert!(outcome
        .transfers
        .per_kind
        .iter()
        .all(|k| k.kind != "raw-data-upload"));
    // The bidirectional protocol must include all four ACME message kinds.
    for kind in [
        "attribute-report",
        "backbone-assignment",
        "header-spec",
        "importance-upload",
    ] {
        assert!(
            outcome.transfers.per_kind.iter().any(|k| k.kind == kind),
            "missing message kind {kind}"
        );
    }
}

#[test]
fn pipeline_is_deterministic_under_seed() {
    let a = run_quick(7);
    let b = run_quick(7);
    assert_eq!(a.assignments.len(), b.assignments.len());
    for (x, y) in a.assignments.iter().zip(&b.assignments) {
        assert_eq!(x.w, y.w);
        assert_eq!(x.d, y.d);
        assert_eq!(x.params, y.params);
    }
    for (x, y) in a.devices.iter().zip(&b.devices) {
        assert_eq!(x.accuracy_after, y.accuracy_after);
    }
    assert_eq!(a.transfers.total_bytes, b.transfers.total_bytes);
}

#[test]
fn different_seeds_differ() {
    let a = run_quick(10);
    let b = run_quick(11);
    let same_accs = a
        .devices
        .iter()
        .zip(&b.devices)
        .all(|(x, y)| x.accuracy_after == y.accuracy_after);
    assert!(!same_accs, "distinct seeds should yield distinct runs");
}

#[test]
fn a_device_left_without_data_is_a_typed_error() {
    // Eight devices per cluster under C3's skew leave one whose 0.75
    // split has no test rows; validation cannot see that in advance.
    let config = AcmeConfig {
        confusion: acme_data::ConfusionLevel::C3,
        devices_per_cluster: 8,
        threads: 1,
        ..AcmeConfig::quick()
    };
    let acme = Acme::try_new(config).expect("the config validates");
    assert!(matches!(acme.run(), Err(acme::AcmeError::InvalidConfig(_))));
}

/// One device in one cluster over two classes of `per_class` examples
/// each: a config `build()` accepts whatever `per_class` is.
fn run_thin(per_class: usize) -> Result<acme::AcmeOutcome, acme::AcmeError> {
    let config = AcmeConfig::builder()
        .quick()
        .reference(acme_vit::VitConfig::tiny(2))
        .dataset(
            acme_data::SyntheticSpec::tiny()
                .with_classes(2)
                .with_per_class(per_class),
        )
        .clusters(1)
        .devices_per_cluster(1)
        .widths(vec![1.0])
        .depths(vec![1])
        .threads(1)
        .build()
        .expect("the config validates");
    Acme::try_new(config).expect("validated config").run()
}

fn invalid_config_naming(per_class: usize, split: &str) {
    match run_thin(per_class) {
        Err(acme::AcmeError::InvalidConfig(msg)) => {
            assert!(msg.contains(split), "per_class {per_class}: {msg}")
        }
        other => panic!("per_class {per_class}: expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn a_public_split_without_validation_rows_is_a_typed_error() {
    // Two examples: the 0.8 public split keeps both for training.
    invalid_config_naming(1, "public split");
}

#[test]
fn an_edge_search_split_without_validation_rows_is_a_typed_error_at_two_per_class() {
    // The device keeps 3 of 4 examples, mirrors one to its edge, and
    // the edge's 0.7 search split has nothing left to validate on.
    invalid_config_naming(2, "search split");
}

#[test]
fn an_edge_search_split_without_validation_rows_is_a_typed_error_at_three_per_class() {
    invalid_config_naming(3, "search split");
}
