//! Integration of the distributed protocol with the energy fleet: the
//! transfer accounting that backs Table I.

use acme::ProtocolRun;
use acme_distsys::protocol::{centralized_transfers, ProtocolConfig};
use acme_energy::Fleet;

/// All protocol runs go through the [`ProtocolRun`] builder (re-exported
/// by the `acme` umbrella).
fn run(fleet: &Fleet, cfg: &ProtocolConfig) -> acme_distsys::protocol::ProtocolOutcome {
    ProtocolRun::new(fleet)
        .config(cfg.clone())
        .execute()
        .expect("protocol run")
}

#[test]
fn acme_upload_matches_closed_form() {
    let (s, n_per, t) = (3usize, 4usize, 2usize);
    let fleet = Fleet::paper_default(s, n_per);
    let cfg = ProtocolConfig {
        loop_rounds: t,
        backbone_params: 1000,
        header_params: 100,
        header_tokens: 8,
        importance_len: 50,
        ..ProtocolConfig::default()
    };
    let out = run(&fleet, &cfg);
    let n = (s * n_per) as u64;
    // Uplink = S attribute reports + N*T importance uploads.
    let attr = s as u64 * (16 + 32);
    let imp = n * t as u64 * (16 + 4 * cfg.importance_len as u64);
    assert_eq!(out.report.uplink_bytes, attr + imp);
    // Downlink exists: assignments + headers + personalized sets.
    assert!(out.report.total_bytes > out.report.uplink_bytes);
}

#[test]
fn upload_ratio_matches_paper_band_at_paper_scale() {
    // Paper Table I: ACME's upload is on the order of 6% of CS's. With
    // CIFAR-scale payloads (500 images x 3 KiB per device, importance
    // sets of a few thousand floats over T=3 rounds) the simulation must
    // land well below 10%.
    for n_clusters in [2usize, 4, 8] {
        let fleet = Fleet::paper_default(n_clusters, 5);
        let acme = run(
            &fleet,
            &ProtocolConfig {
                loop_rounds: 3,
                importance_len: 4000,
                ..ProtocolConfig::default()
            },
        );
        let cs = centralized_transfers(&fleet, 500, 3072, 1_000_000);
        let ratio = acme.report.uplink_bytes as f64 / cs.uplink_bytes as f64;
        assert!(ratio < 0.10, "N={} ratio {ratio}", fleet.num_devices());
        assert!(ratio > 0.001, "ratio suspiciously small: {ratio}");
    }
}

#[test]
fn upload_scales_linearly_in_device_count() {
    let cfg = ProtocolConfig::default();
    let small = run(&Fleet::paper_default(2, 5), &cfg);
    let large = run(&Fleet::paper_default(4, 5), &cfg);
    let ratio = large.report.uplink_bytes as f64 / small.report.uplink_bytes as f64;
    assert!(
        (ratio - 2.0).abs() < 0.1,
        "doubling devices should double uplink, got {ratio}"
    );
}

#[test]
fn protocol_is_deterministic() {
    let fleet = Fleet::paper_default(3, 3);
    let cfg = ProtocolConfig::default();
    let a = run(&fleet, &cfg);
    let b = run(&fleet, &cfg);
    assert_eq!(a.report.total_bytes, b.report.total_bytes);
    assert_eq!(a.report.messages, b.report.messages);
}
