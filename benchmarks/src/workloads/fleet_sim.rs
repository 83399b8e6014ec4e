//! `fleet_sim`: the customization protocol over 100 000 simulated
//! devices with 1 % seeded packet loss. No tensor code runs.

use std::time::{Duration, Instant};

use acme_distsys::{
    DriverKind, FaultPlan, NodeId, ProtocolConfig, ProtocolOutcome, ProtocolRun, RetryPolicy,
    RunCheckpoint, SimConfig, SimDriver, SimStats,
};
use acme_energy::Fleet;

use super::{kinds_sum_to_total, repeat, report_ledger, reps_for, setup_median, Ctx, Threads};
use crate::env::peak_rss_mb;
use crate::report::Report;
use crate::stats::{median, time_median};

const EDGES: usize = 100;
const DEVICES: usize = 100_000;
const SMALL_DEVICES: usize = 10_000;
/// One 100k-device simulation on the reference sandbox.
const NOMINAL_JOB_S: f64 = 3.5;

/// The `fleet_scale` sweep's schedule: payloads scaled down (32-float
/// importance sets, 1 k-parameter headers) so the run measures the event
/// engine, not `Vec<f32>` copies; messages per device are unchanged.
fn protocol() -> ProtocolConfig {
    ProtocolConfig {
        loop_rounds: 3,
        backbone_params: 10_000,
        header_params: 1_000,
        header_tokens: 12,
        importance_len: 32,
        retry: RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(500),
            cap: Duration::from_secs(2),
        },
        ..ProtocolConfig::default()
    }
}

fn simulate(fleet: &Fleet, seed: u64) -> (ProtocolOutcome, SimStats) {
    SimDriver::new(SimConfig {
        seed,
        ..SimConfig::default()
    })
    .run_with_stats(
        fleet,
        &protocol(),
        FaultPlan::seeded(seed).drop_uniform(0.01),
    )
    .expect("fleet has no duplicate node ids")
}

/// A run cut after one round, written out, read back and resumed must
/// account for the loop rounds exactly as the uninterrupted run does.
/// Resuming replays the set-up phase, so set-up kinds count twice.
/// Fault plans are not part of a checkpoint, so this runs fault-free.
fn resume_matches_straight(report: &mut Report, fleet: &Fleet, seed: u64) -> RunCheckpoint {
    let run = || {
        ProtocolRun::new(fleet)
            .config(protocol())
            .driver(DriverKind::Sim)
            .seed(seed)
    };
    let straight = run().execute().expect("straight run");
    let (_, cut) = run().execute_segment(1).expect("first segment");
    let restored = RunCheckpoint::from_bytes(&cut.to_bytes()).expect("checkpoint reads back");
    report.check(restored == cut, "run checkpoint reads back equal");
    let resumed = restored.resume().expect("resume");
    let row = |o: &ProtocolOutcome, kind: &str| {
        o.report.per_kind.iter().find(|r| r.kind == kind).cloned()
    };
    for kind in ["importance-upload", "personalized-importance"] {
        report.check(
            row(&resumed, kind).is_some() && row(&resumed, kind) == row(&straight, kind),
            "resumed run meters loop rounds as the straight run does",
        );
    }
    for kind in ["attribute-report", "backbone-assignment", "header-spec"] {
        let doubled = match (row(&resumed, kind), row(&straight, kind)) {
            (Some(r), Some(s)) => r.messages == 2 * s.messages && r.bytes() == 2 * s.bytes(),
            _ => false,
        };
        report.check(doubled, "resumed run replays the set-up phase exactly once");
    }
    let progress = |o: &ProtocolOutcome| -> Vec<(NodeId, usize)> {
        o.nodes
            .iter()
            .filter(|s| !matches!(s.node, NodeId::Cloud))
            .map(|s| (s.node, s.completed_rounds))
            .collect()
    };
    report.check(
        progress(&resumed) == progress(&straight),
        "resumed run completes the same rounds per node",
    );
    cut
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Threads {
    // The simulator is one thread and runs no kernels.
    let threads = Threads { pool: 1, kernel: 1 };
    let seed = ctx.seed;
    let rss_before = peak_rss_mb();
    let small = Fleet::paper_default(EDGES, SMALL_DEVICES / EDGES);
    let (setup_s, fleet) = setup_median(|| {
        let fleet = Fleet::paper_default(EDGES, DEVICES / EDGES);
        // Warm the allocator and the code paths on the small fleet; three
        // runs, so one slow one does not set the set-up time.
        for _ in 0..3 {
            simulate(&small, seed);
        }
        fleet
    });
    report.set("setup_s", setup_s);

    let (walls, runs) = repeat(reps_for(ctx.seconds, NOMINAL_JOB_S, 2), || {
        simulate(&fleet, seed)
    });
    let wall = median(&walls);
    report.set("job_s", wall);
    let (outcome, stats) = &runs[0];
    let rss_after = peak_rss_mb();

    report.check(
        runs.iter().all(|(o, s)| o == outcome && s == stats),
        "every repetition processes the same events and meters the same bytes",
    );
    report.check(
        kinds_sum_to_total(&outcome.report),
        "ledger kinds sum to the total",
    );
    // Injected loss drops nodes by design (reported as a layer count); a
    // cluster that loses quorum is a failed operation.
    let edges_done = fleet
        .clusters()
        .iter()
        .filter_map(|c| outcome.node(NodeId::Edge(c.edge())))
        .filter(|s| s.dropped_at.is_none() && s.completed_rounds == protocol().loop_rounds)
        .count();
    report.count(EDGES as u64, (EDGES - edges_done) as u64);

    let cut = resume_matches_straight(report, &small, seed);

    report.set("distsys.sim.wall_s", wall);
    report.set("distsys.sim.events_per_s", stats.events as f64 / wall);
    report.set("distsys.sim.events", stats.events as f64);
    report.set("distsys.sim.messages", stats.messages_delivered as f64);
    report.set(
        "distsys.sim.retransmissions",
        outcome.report.retransmissions as f64,
    );
    report.set(
        "distsys.sim.dropped_nodes",
        outcome.dropped_nodes().len() as f64,
    );
    report.set("distsys.sim.virtual_s", stats.virtual_elapsed.as_secs_f64());
    report.set(
        "distsys.sim.rss_per_device_b",
        (rss_after - rss_before) * 1024.0 * 1024.0 / DEVICES as f64,
    );
    report_ledger(report, &outcome.report);

    if !ctx.traced() {
        return threads;
    }
    let rec = &ctx.rec;
    let t = Instant::now();
    rec.span("distsys.sim.run", None, 0, |_| simulate(&fleet, seed));
    report.set(
        "bench.trace_overhead_frac",
        (t.elapsed().as_secs_f64() - wall) / wall,
    );

    rec.span("probes", None, 1, |probes| {
        let mut small_events = 0;
        let small_wall = rec.span("distsys.sim.run_10k", probes, 1, |_| {
            time_median(3, || small_events = simulate(&small, seed).1.events)
        });
        report.set(
            "distsys.sim.scale_ratio",
            (small_events as f64 / small_wall) / (stats.events as f64 / wall),
        );
        let mut bytes = Vec::new();
        let encode = rec.span("distsys.persist.encode", probes, 1, |_| {
            time_median(5, || bytes = cut.to_bytes())
        });
        let decode = rec.span("distsys.persist.decode", probes, 1, |_| {
            time_median(5, || {
                drop(RunCheckpoint::from_bytes(&bytes).expect("checkpoint reads back"))
            })
        });
        report.set("distsys.persist.encode_ms", encode * 1e3);
        report.set("distsys.persist.decode_ms", decode * 1e3);
        report.set("distsys.persist.bytes", bytes.len() as f64);
        let build = rec.span("energy.fleet_build", probes, 1, |_| {
            time_median(3, || drop(Fleet::paper_default(EDGES, DEVICES / EDGES)))
        });
        report.set("energy.fleet_build_ms", build * 1e3);
    });
    threads
}
