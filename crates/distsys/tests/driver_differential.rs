//! Differential tests: the discrete-event [`SimDriver`] must reproduce
//! the threaded oracle driver's [`ProtocolOutcome`] bit for bit on
//! deterministic scenarios — same ledger byte counts, same per-node
//! statuses, same rounds completed — with and without injected faults.
//!
//! Scenarios here are chosen to be *schedule-deterministic*: lock-step
//! single-device clusters for countable recovery traffic, and setup-time
//! kills whose effect does not depend on thread interleaving. (A dead
//! device inside a multi-device cluster is deliberately absent: under
//! the threaded driver its peers' retransmission counts depend on OS
//! scheduling, so there is no stable oracle to compare against.)

#![allow(clippy::disallowed_methods)]

use std::time::Duration;

use acme_distsys::protocol::{
    DriverKind, ProtocolConfig, ProtocolOutcome, ProtocolRun, RetryPolicy,
};
use acme_distsys::{FaultAction, FaultPlan, FaultRule, NodeId};
use acme_energy::{EdgeId, Fleet};

/// Same fast policy as the fault matrix: 120+240+480 ms per wait.
fn fast_cfg(loop_rounds: usize) -> ProtocolConfig {
    ProtocolConfig {
        loop_rounds,
        retry: RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(120),
            cap: Duration::from_millis(480),
        },
        ..ProtocolConfig::default()
    }
}

/// Near-instant links for the sim side. The threaded oracle delivers
/// in-process in microseconds, so flights must be negligible next to
/// the 120 ms retry windows on both drivers for the comparison to be
/// apples-to-apples. (Under the default WAN model the sim's modeled
/// flight times for megabyte-scale payloads are *longer* than this
/// file's fast retry windows — a real effect, but not one the wall-
/// clock oracle can reproduce.)
fn fast_links() -> acme_distsys::LinkModel {
    let link = acme_distsys::Link::try_new(1e12, 1e-6).expect("valid link");
    acme_distsys::LinkModel {
        device_edge: link,
        edge_cloud: link,
    }
}

/// Runs the same scenario on both drivers and asserts outcome equality.
fn assert_drivers_agree(
    fleet: &Fleet,
    cfg: &ProtocolConfig,
    plan: &FaultPlan,
    label: &str,
) -> ProtocolOutcome {
    let threaded = ProtocolRun::new(fleet)
        .config(cfg.clone())
        .faults(plan.clone())
        .execute()
        .unwrap_or_else(|e| panic!("{label}: threaded run failed: {e}"));
    let sim = ProtocolRun::new(fleet)
        .config(cfg.clone())
        .faults(plan.clone())
        .driver(DriverKind::Sim)
        .seed(7)
        .links(fast_links())
        .execute()
        .unwrap_or_else(|e| panic!("{label}: sim run failed: {e}"));
    assert_eq!(
        threaded.report.total_bytes, sim.report.total_bytes,
        "{label}: ledger byte counts diverge"
    );
    assert_eq!(threaded, sim, "{label}: outcomes diverge");
    threaded
}

#[test]
fn fault_free_runs_are_bit_identical() {
    let fleet = Fleet::paper_default(3, 4);
    let out = assert_drivers_agree(&fleet, &fast_cfg(2), &FaultPlan::none(), "fault-free (3,4)");
    assert_eq!(out.rounds_completed, 2);
    assert_eq!(out.report.retransmissions, 0);
}

#[test]
fn dropped_uplink_recovery_is_bit_identical() {
    // One lost importance upload: the device re-uploads once. Both
    // drivers must meter exactly one retransmission.
    let fleet = Fleet::paper_default(2, 1);
    // Pin the fault to one device's flow: a bare global nth(0) would hit
    // whichever cluster's upload wins the race to the wire, which is
    // scheduling-dependent on both drivers.
    let victim = NodeId::Device(fleet.clusters()[0].devices()[0].id());
    let plan = FaultPlan::none().rule(
        FaultRule::on(FaultAction::Drop)
            .from(victim)
            .kind("importance-upload")
            .nth(0),
    );
    let out = assert_drivers_agree(&fleet, &fast_cfg(2), &plan, "dropped uplink");
    assert!(out.dropped_nodes().is_empty());
    assert_eq!(out.report.retransmissions, 1);
}

#[test]
fn dropped_downlink_replay_is_bit_identical() {
    // One lost personalized reply: device re-upload + edge cached
    // replay, two retransmissions on both drivers.
    let fleet = Fleet::paper_default(2, 1);
    let victim = NodeId::Device(fleet.clusters()[0].devices()[0].id());
    let plan = FaultPlan::none().rule(
        FaultRule::on(FaultAction::Drop)
            .to(victim)
            .kind("personalized-importance")
            .nth(0),
    );
    let out = assert_drivers_agree(&fleet, &fast_cfg(2), &plan, "dropped downlink");
    assert!(out.dropped_nodes().is_empty());
    assert_eq!(out.report.retransmissions, 2);
}

#[test]
fn duplicated_downlink_is_bit_identical() {
    // The duplicated reply is metered twice, consumed once, on both
    // drivers (the sim delivers both copies at the same virtual time).
    let fleet = Fleet::paper_default(2, 3);
    let target = NodeId::Device(fleet.clusters()[1].devices()[2].id());
    let plan = FaultPlan::none().rule(
        FaultRule::on(FaultAction::Duplicate)
            .to(target)
            .kind("personalized-importance")
            .nth(0),
    );
    let out = assert_drivers_agree(&fleet, &fast_cfg(2), &plan, "duplicated downlink");
    assert!(out.dropped_nodes().is_empty());
    assert_eq!(out.rounds_completed, 2);
}

#[test]
fn quorum_degradation_is_bit_identical() {
    // Kill the lone device of cluster 0: its edge cannot reach quorum
    // and abandons the cluster at round 0, while clusters 1 and 2
    // complete. Both drivers must report the identical degraded state.
    let fleet = Fleet::paper_default(3, 1);
    let victim = NodeId::Device(fleet.clusters()[0].devices()[0].id());
    let plan = FaultPlan::none().kill(victim, 0);
    let out = assert_drivers_agree(&fleet, &fast_cfg(2), &plan, "quorum degradation");
    let edge0 = out.node(NodeId::Edge(EdgeId(0))).expect("edge 0 status");
    assert!(edge0.dropped_at.is_some(), "cluster 0 must be abandoned");
    let edge1 = out.node(NodeId::Edge(EdgeId(1))).expect("edge 1 status");
    assert_eq!(edge1.dropped_at, None);
    assert_eq!(edge1.completed_rounds, 2);
}

#[test]
fn seeded_uniform_drops_agree_across_seeds() {
    // Lock-step single-device clusters: the whole run is a pure
    // function of the fault seed, so the sim must track the threaded
    // oracle through every seed's loss pattern.
    let fleet = Fleet::paper_default(3, 1);
    let cfg = fast_cfg(2);
    for seed in [11u64, 29, 63] {
        let plan = FaultPlan::seeded(seed).drop_uniform(0.1);
        assert_drivers_agree(&fleet, &cfg, &plan, &format!("uniform drops, seed {seed}"));
    }
}

#[test]
fn differential_agreement_holds_under_concurrency() {
    // 1, 2, and 4 concurrent driver pairs: the threaded runtime's
    // scheduling noise across concurrent runs must never leak into the
    // compared outcomes.
    for concurrency in [1usize, 2, 4] {
        let handles: Vec<_> = (0..concurrency)
            .map(|i| {
                std::thread::spawn(move || {
                    // Single-device clusters keep each pair's recovery
                    // traffic deterministic regardless of CPU load.
                    let fleet = Fleet::paper_default(2, 1);
                    let victim = NodeId::Device(fleet.clusters()[i % 2].devices()[0].id());
                    let plan = FaultPlan::none().rule(
                        FaultRule::on(FaultAction::Drop)
                            .from(victim)
                            .kind("importance-upload")
                            .nth(0),
                    );
                    assert_drivers_agree(
                        &fleet,
                        &fast_cfg(2),
                        &plan,
                        &format!("concurrent pair {i}"),
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panic in differential pair");
        }
    }
}
