//! Fault matrix: for every fault class the protocol must terminate
//! without hanging, survivors must complete all rounds, and the ledger's
//! retransmission meters must match the injected plan.

#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

use acme_distsys::protocol::{
    DropPoint, ProtocolConfig, ProtocolOutcome, ProtocolRun, RetryPolicy,
};
use acme_distsys::{FaultAction, FaultPlan, FaultRule, NodeId};
use acme_energy::{DeviceId, EdgeId, Fleet};

/// Runs the protocol on the threaded oracle driver.
fn run_with(fleet: &Fleet, cfg: &ProtocolConfig, plan: FaultPlan) -> ProtocolOutcome {
    ProtocolRun::new(fleet)
        .config(cfg.clone())
        .faults(plan)
        .execute()
        .expect("protocol run")
}

/// Fast policy for fault tests: per-wait budget 120+240+480 = 840 ms —
/// quick enough to keep degraded runs snappy, wide enough that CI
/// scheduling noise cannot fake a timeout.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base: Duration::from_millis(120),
        cap: Duration::from_millis(480),
    }
}

fn fault_cfg(loop_rounds: usize) -> ProtocolConfig {
    ProtocolConfig {
        loop_rounds,
        retry: fast_retry(),
        ..ProtocolConfig::default()
    }
}

/// Ceiling on any degraded run in this file: setup + rounds, with slack
/// for CI scheduling noise. A hang (the old blocking `recv()` behavior)
/// blows way past this.
fn wall_clock_budget(cfg: &ProtocolConfig) -> Duration {
    let patience: Duration = (0..cfg.retry.effective_attempts())
        .map(|a| cfg.retry.attempt_timeout(a))
        .sum();
    patience * (cfg.loop_rounds as u32 + 2) + Duration::from_secs(5)
}

#[test]
fn dead_device_leaves_survivors_unharmed() {
    // The ISSUE's acceptance scenario: one dead device out of
    // paper_default(3, 4); the other 11 finish all rounds, exactly one
    // node is listed as dropped, and the run stays inside the timeout
    // budget.
    let fleet = Fleet::paper_default(3, 4);
    let victim = NodeId::Device(fleet.clusters()[0].devices()[1].id());
    let cfg = fault_cfg(3);
    let started = Instant::now();
    let out = run_with(&fleet, &cfg, FaultPlan::none().kill(victim, 0));
    assert!(
        started.elapsed() < wall_clock_budget(&cfg),
        "degraded run took {:?}",
        started.elapsed()
    );
    let dropped = out.dropped_nodes();
    assert_eq!(dropped.len(), 1, "exactly one dropped node: {dropped:?}");
    assert_eq!(dropped[0].node, victim);
    assert_eq!(dropped[0].dropped_at, Some(DropPoint::Setup));
    let survivors: Vec<_> = out
        .nodes
        .iter()
        .filter(|s| matches!(s.node, NodeId::Device(_)) && s.node != victim)
        .collect();
    assert_eq!(survivors.len(), 11);
    assert!(survivors
        .iter()
        .all(|s| s.completed_rounds == 3 && s.dropped_at.is_none()));
    // The fleet minimum includes the dead device.
    assert_eq!(out.rounds_completed, 0);
}

#[test]
fn dead_edge_drops_its_whole_cluster_only() {
    let fleet = Fleet::paper_default(2, 4);
    let cfg = fault_cfg(2);
    let out = run_with(
        &fleet,
        &cfg,
        FaultPlan::none().kill(NodeId::Edge(EdgeId(0)), 0),
    );
    // The dead edge and its 4 starved devices drop; the other cluster is
    // untouched.
    assert_eq!(out.dropped_nodes().len(), 1 + 4);
    for s in &out.nodes {
        match s.node {
            NodeId::Edge(EdgeId(0)) => assert_eq!(s.dropped_at, Some(DropPoint::Setup)),
            NodeId::Edge(_) => assert_eq!(s.dropped_at, None),
            NodeId::Device(_) => {
                let in_dead_cluster = fleet.clusters()[0]
                    .devices()
                    .iter()
                    .any(|d| NodeId::Device(d.id()) == s.node);
                if in_dead_cluster {
                    assert_eq!(s.dropped_at, Some(DropPoint::Setup));
                } else {
                    assert_eq!(s.dropped_at, None);
                    assert_eq!(s.completed_rounds, 2);
                }
            }
            NodeId::Cloud => {
                assert_eq!(s.dropped_at, None);
                // Only the live edge got an assignment.
                assert_eq!(s.completed_rounds, 1);
            }
        }
    }
}

#[test]
fn delayed_uplink_completes_without_drops() {
    // A delay well under the retry budget stalls the sender but loses
    // nothing: everyone completes and nothing is retransmitted, because
    // the sender-side stall delays the device's own timeout clock too.
    let fleet = Fleet::paper_default(2, 3);
    let cfg = fault_cfg(2);
    let plan = FaultPlan::none().rule(
        FaultRule::on(FaultAction::Delay(Duration::from_millis(30)))
            .kind("importance-upload")
            .nth(0),
    );
    let out = run_with(&fleet, &cfg, plan);
    assert!(out.dropped_nodes().is_empty());
    assert_eq!(out.rounds_completed, 2);
    assert_eq!(out.report.retransmissions, 0);
}

#[test]
fn dropped_uplink_recovers_with_one_retransmission() {
    // Lose one importance upload in flight: the device times out once
    // and retransmits; the round then completes for everyone.
    // Single-device clusters make the recovery traffic exactly
    // countable: in larger clusters, peers of the slow device may also
    // retransmit while the edge waits out the round (their reply is
    // gated on the cluster's slowest member), which inflates the meter
    // by a timing-dependent amount.
    let fleet = Fleet::paper_default(2, 1);
    let cfg = fault_cfg(2);
    let plan = FaultPlan::none().rule(
        FaultRule::on(FaultAction::Drop)
            .kind("importance-upload")
            .nth(0),
    );
    let out = run_with(&fleet, &cfg, plan);
    assert!(out.dropped_nodes().is_empty());
    assert_eq!(out.rounds_completed, 2);
    assert_eq!(out.report.retransmissions, 1, "device re-upload");
    assert_eq!(out.nodes.iter().map(|s| s.retries).sum::<u64>(), 1);
    // The lost copy and its retransmission are both metered on top of
    // the fault-free volume.
    let clean = run_with(&fleet, &cfg, FaultPlan::none());
    assert_eq!(out.report.messages, clean.report.messages + 1);
}

#[test]
fn dropped_downlink_recovers_via_cached_replay() {
    // Lose a personalized-importance reply: the device re-uploads (one
    // retransmission), the edge recognizes the stale round and replays
    // its cached reply (second retransmission). Single-device clusters
    // keep the meter exact (see dropped_uplink test).
    let fleet = Fleet::paper_default(2, 1);
    let cfg = fault_cfg(2);
    let plan = FaultPlan::none().rule(
        FaultRule::on(FaultAction::Drop)
            .kind("personalized-importance")
            .nth(0),
    );
    let out = run_with(&fleet, &cfg, plan);
    assert!(out.dropped_nodes().is_empty());
    assert_eq!(out.rounds_completed, 2);
    assert_eq!(
        out.report.retransmissions, 2,
        "device re-upload + edge cached replay"
    );
    // Both retransmissions are full importance sets: the replay is
    // charged at the set's whole length, not at an empty body.
    assert_eq!(
        out.report.retransmitted_bytes,
        2 * (16 + 4 * cfg.importance_len as u64)
    );
}

#[test]
fn duplicated_downlink_is_deduplicated() {
    // A duplicated reply is delivered (and metered) twice but consumed
    // once; nothing retries and nobody drops.
    let fleet = Fleet::paper_default(2, 3);
    let cfg = fault_cfg(2);
    let plan = FaultPlan::none().rule(
        FaultRule::on(FaultAction::Duplicate)
            .kind("personalized-importance")
            .nth(0),
    );
    let out = run_with(&fleet, &cfg, plan);
    assert!(out.dropped_nodes().is_empty());
    assert_eq!(out.rounds_completed, 2);
    assert_eq!(out.report.retransmissions, 0);
    let clean = run_with(&fleet, &cfg, FaultPlan::none());
    assert_eq!(out.report.messages, clean.report.messages + 1);
}

#[test]
fn quorum_violation_abandons_the_cluster() {
    // Kill 3 of 4 devices in cluster 0 with min_quorum 2: the lone
    // survivor is below quorum, so the edge abandons the cluster at
    // round 0 while cluster 1 completes untouched.
    let fleet = Fleet::paper_default(2, 4);
    let cfg = ProtocolConfig {
        min_quorum: 2,
        ..fault_cfg(2)
    };
    let mut plan = FaultPlan::none();
    for d in &fleet.clusters()[0].devices()[..3] {
        plan = plan.kill(NodeId::Device(d.id()), 0);
    }
    let out = run_with(&fleet, &cfg, plan);
    let edge0 = out.node(NodeId::Edge(EdgeId(0))).expect("edge 0");
    assert_eq!(edge0.dropped_at, Some(DropPoint::Round(0)));
    let edge1 = out.node(NodeId::Edge(EdgeId(1))).expect("edge 1");
    assert_eq!(edge1.dropped_at, None);
    assert_eq!(edge1.completed_rounds, 2);
    for d in fleet.clusters()[1].devices() {
        let s = out.node(NodeId::Device(d.id())).expect("device status");
        assert_eq!(s.completed_rounds, 2);
        assert_eq!(s.dropped_at, None);
    }
}

#[test]
fn seeded_uniform_drops_are_reproducible() {
    // Single-device clusters make every cluster a lock-step ARQ chain,
    // so the whole run — losses, retransmissions, survivor set — is a
    // pure function of the seed.
    let fleet = Fleet::paper_default(3, 1);
    let cfg = fault_cfg(2);
    let run = || run_with(&fleet, &cfg, FaultPlan::seeded(11).drop_uniform(0.1));
    let a = run();
    let b = run();
    // The injected losses — and therefore the recovery traffic and the
    // survivor set — are a pure function of the seed.
    assert_eq!(a.report.retransmissions, b.report.retransmissions);
    assert_eq!(a.report.messages, b.report.messages);
    let dropped = |o: &acme_distsys::ProtocolOutcome| {
        o.dropped_nodes().iter().map(|s| s.node).collect::<Vec<_>>()
    };
    assert_eq!(dropped(&a), dropped(&b));
}

#[test]
fn faulty_runs_terminate_at_every_thread_count() {
    // 1, 2, and 4 concurrent protocol runs, each with a dead device and
    // a dropped upload, must all unwind within the wall-clock budget.
    for concurrency in [1usize, 2, 4] {
        let started = Instant::now();
        let handles: Vec<_> = (0..concurrency)
            .map(|i| {
                std::thread::spawn(move || {
                    let fleet = Fleet::paper_default(2, 3);
                    let cfg = fault_cfg(2);
                    let plan = FaultPlan::seeded(i as u64)
                        .kill(NodeId::Device(DeviceId(0)), 0)
                        .rule(
                            FaultRule::on(FaultAction::Drop)
                                .kind("importance-upload")
                                .nth(2),
                        );
                    run_with(&fleet, &cfg, plan)
                })
            })
            .collect();
        for h in handles {
            let out = h.join().expect("no panic");
            assert_eq!(out.dropped_nodes().len(), 1);
            let survivors = out
                .nodes
                .iter()
                .filter(|s| matches!(s.node, NodeId::Device(_)) && s.dropped_at.is_none());
            assert!(survivors.into_iter().all(|s| s.completed_rounds == 2));
        }
        let budget = wall_clock_budget(&fault_cfg(2)) * 2;
        assert!(
            started.elapsed() < budget,
            "{concurrency} concurrent faulty runs took {:?}",
            started.elapsed()
        );
    }
}

#[test]
fn fault_free_plan_matches_plain_protocol_exactly() {
    // Bit-identical accounting: an empty plan must reproduce the plain
    // protocol's transfer report in full.
    let fleet = Fleet::paper_default(3, 4);
    let cfg = fault_cfg(2);
    let plain = run_with(&fleet, &cfg, FaultPlan::none());
    let empty = run_with(&fleet, &cfg, FaultPlan::none());
    assert_eq!(plain.report, empty.report);
    assert_eq!(plain.report.retransmissions, 0);
    assert_eq!(plain.rounds_completed, 2);
}
