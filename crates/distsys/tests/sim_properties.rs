//! Property-style tests of the discrete-event driver: seed-replay
//! stability, total event ordering, and the virtual clock's link-model
//! latency derivation. Written as plain seeded loops (no fuzzing crate)
//! so every failure names its seed.

use std::time::Duration;

use acme_distsys::protocol::{DropPoint, ProtocolConfig, RetryPolicy};
use acme_distsys::{
    FaultAction, FaultPlan, FaultRule, Link, LinkModel, NodeId, SimConfig, SimDriver, SimStats,
    VirtualTime,
};
use acme_energy::Fleet;

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

fn model(device_edge_rtt: f64, edge_cloud_rtt: f64) -> LinkModel {
    LinkModel {
        device_edge: Link::try_new(12.5e6, device_edge_rtt).expect("valid link"),
        edge_cloud: Link::try_new(2.5e6, edge_cloud_rtt).expect("valid link"),
    }
}

#[test]
fn replaying_a_seed_reproduces_the_run_exactly() {
    // For every seed: two replays agree on the outcome, the event-order
    // digest, the event count, and the virtual clock — the sim is a
    // pure function of (fleet, config, faults, seed).
    let fleet = Fleet::paper_default(3, 2);
    let cfg = fast_cfg(2);
    for seed in 0..24u64 {
        let run = || {
            SimDriver::new(SimConfig {
                seed,
                ..SimConfig::default()
            })
            .run_with_stats(&fleet, &cfg, FaultPlan::seeded(seed).drop_uniform(0.05))
            .expect("sim run")
        };
        let (out_a, stats_a) = run();
        let (out_b, stats_b) = run();
        assert_eq!(out_a, out_b, "seed {seed}: outcome not replay-stable");
        assert_eq!(stats_a, stats_b, "seed {seed}: stats not replay-stable");
    }
}

#[test]
fn golden_run_pins_every_bit() {
    // Replay tests only compare a build with itself; this pins the bits
    // across builds. A 10 x 100 fleet under seeded loss, one duplicated
    // upload rule and two kills — one node killed twice, the earlier
    // point winning — must reproduce these exact statistics and ledger
    // totals. A change to the event queue, the node tables, the fault
    // counters or the hashes that moves any of them fails here.
    let fleet = Fleet::paper_default(10, 100);
    let cfg = ProtocolConfig {
        backbone_params: 10_000,
        header_params: 1_000,
        importance_len: 32,
        ..fast_cfg(3)
    };
    let device =
        |cluster: usize, i: usize| NodeId::Device(fleet.clusters()[cluster].devices()[i].id());
    let run = |seed: u64| {
        let plan = FaultPlan::seeded(seed)
            .drop_uniform(0.01)
            .rule(
                FaultRule::on(FaultAction::Duplicate)
                    .kind("importance-upload")
                    .nth(5),
            )
            .kill(device(2, 7), 0)
            .kill(device(6, 40), 3)
            .kill(device(6, 40), 1);
        SimDriver::new(SimConfig {
            seed,
            ..SimConfig::default()
        })
        .run_with_stats(&fleet, &cfg, plan)
        .expect("sim run")
    };
    // (seed, stats, ledger total bytes, messages, retransmissions)
    let golden = [
        (
            42u64,
            SimStats {
                events: 17_309,
                messages_delivered: 9_777,
                virtual_elapsed: VirtualTime::from_duration(Duration::from_nanos(1_391_052_730)),
                order_digest: 16_535_467_259_104_839_301,
            },
            45_722_624u64,
            9_866u64,
            2_895u64,
        ),
        (
            7,
            SimStats {
                events: 16_934,
                messages_delivered: 9_538,
                virtual_elapsed: VirtualTime::from_duration(Duration::from_nanos(1_387_192_554)),
                order_digest: 11_036_477_694_222_501_025,
            },
            45_686_192,
            9_613,
            2_630,
        ),
    ];
    for (seed, stats, bytes, messages, retransmissions) in golden {
        let (out, got) = run(seed);
        assert_eq!(got, stats, "seed {seed}: simulator statistics moved");
        assert_eq!(
            (
                out.report.total_bytes,
                out.report.messages,
                out.report.retransmissions
            ),
            (bytes, messages, retransmissions),
            "seed {seed}: ledger totals moved"
        );
        let dropped_at = |node| out.node(node).and_then(|s| s.dropped_at);
        assert_eq!(dropped_at(device(2, 7)), Some(DropPoint::Setup));
        // Dark after one send (its round-0 upload), not after three.
        assert_eq!(dropped_at(device(6, 40)), Some(DropPoint::Round(0)));
    }
}

#[test]
fn different_seeds_reorder_but_never_wedge() {
    // Across seeds the jitter reshuffles deliveries (digests differ
    // somewhere), yet every run terminates with a full status set.
    let fleet = Fleet::paper_default(2, 3);
    let cfg = fast_cfg(2);
    let mut digests = Vec::new();
    for seed in 0..16u64 {
        let (out, stats) = SimDriver::new(SimConfig {
            seed,
            ..SimConfig::default()
        })
        .run_with_stats(&fleet, &cfg, FaultPlan::none())
        .expect("sim run");
        assert_eq!(out.nodes.len(), 1 + 2 + 6, "seed {seed}: missing statuses");
        assert_eq!(
            out.rounds_completed, 2,
            "seed {seed}: fault-free must finish"
        );
        digests.push(stats.order_digest);
    }
    digests.dedup();
    assert!(
        digests.len() > 1,
        "16 seeds produced one event order; jitter is not applied"
    );
}

#[test]
fn event_order_is_a_total_order_stable_under_replay() {
    // The digest folds (virtual time, sequence, target, kind) over the
    // exact pop order of the event queue. Replay equality on the digest
    // plus the per-event `at >= now` debug assertion inside the driver
    // means the pop order is a stable total order: no ties are broken
    // by iteration order or hashing, only by the monotone sequence
    // number.
    let fleet = Fleet::paper_default(2, 4);
    let cfg = fast_cfg(3);
    for seed in [1u64, 17, 255, 4096] {
        let digests: Vec<u64> = (0..3)
            .map(|_| {
                let (_, stats) = SimDriver::new(SimConfig {
                    seed,
                    ..SimConfig::default()
                })
                .run_with_stats(&fleet, &cfg, FaultPlan::seeded(seed).drop_uniform(0.02))
                .expect("sim run");
                stats.order_digest
            })
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: event order drifted across replays: {digests:?}"
        );
    }
}

#[test]
fn virtual_elapsed_tracks_link_rtt() {
    // The virtual clock is derived from the link model: stretching the
    // RTTs stretches the simulated wall-clock, with zero jitter making
    // the relationship exact across replays. Small payloads keep the
    // schedule latency-bound (serializing the default megabyte-scale
    // header over these links would swamp the RTT signal and trip the
    // retry windows).
    let fleet = Fleet::paper_default(2, 3);
    let cfg = ProtocolConfig {
        backbone_params: 1_000,
        header_params: 100,
        importance_len: 8,
        header_tokens: 4,
        ..fast_cfg(2)
    };
    let elapsed = |m: LinkModel| {
        let (_, stats) = SimDriver::new(SimConfig {
            links: m,
            seed: 0,
            jitter: 0.0,
        })
        .run_with_stats(&fleet, &cfg, FaultPlan::none())
        .expect("sim run");
        stats.virtual_elapsed
    };
    let fast = elapsed(model(0.005, 0.040));
    let slow = elapsed(model(0.050, 0.400));
    assert!(
        slow > fast,
        "10x RTT must slow the virtual clock: {fast} vs {slow}"
    );
    // Fault-free, the schedule is latency-bound: setup (report +
    // assignment + header) and per-round upload + reply all pay
    // one-way flights, so the run must cost at least a couple of RTTs
    // but never reach the retry windows.
    assert!(fast.as_secs_f64() > 0.040, "schedule cannot beat its RTTs");
    assert!(
        fast.as_secs_f64() < 0.120,
        "fault-free must finish before any retry window: {fast}"
    );
}

#[test]
fn virtual_time_is_independent_of_wall_clock() {
    // A 60 s retry policy on a faulted fleet: hours of virtual waiting
    // must cost milliseconds of real time.
    let fleet = Fleet::paper_default(2, 1);
    let cfg = ProtocolConfig {
        loop_rounds: 1,
        retry: RetryPolicy {
            max_attempts: 3,
            base: Duration::from_secs(60),
            cap: Duration::from_secs(60),
        },
        ..ProtocolConfig::default()
    };
    let victim = acme_distsys::NodeId::Device(fleet.clusters()[0].devices()[0].id());
    let started = std::time::Instant::now();
    let (out, stats) = SimDriver::new(SimConfig::default())
        .run_with_stats(&fleet, &cfg, FaultPlan::none().kill(victim, 0))
        .expect("sim run");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "virtual waits leaked into wall-clock: {:?}",
        started.elapsed()
    );
    assert!(
        stats.virtual_elapsed.as_secs_f64() >= 60.0,
        "the dead device's windows must advance the virtual clock: {}",
        stats.virtual_elapsed
    );
    assert!(!out.dropped_nodes().is_empty());
}
