//! Fleet-scale sweep of the discrete-event driver: how far past the
//! threaded runtime's ~50-node ceiling the [`SimDriver`] carries the
//! ACME schedule. Runs the full protocol — assignment, header spec,
//! T importance rounds, 1% seeded packet loss — over fleets from 1 k
//! to 1 M devices across 100 edge clusters, on one OS thread, and
//! emits `BENCH_fleet_scale.json`.
//!
//! Run via `cargo run --release -p acme-bench --bin fleet_scale`.
//! Flags:
//!
//! - `--smoke`: only the 10 k-device row, and exit non-zero when it
//!   exceeds a wall-clock ceiling (CI guard against a quadratic
//!   regression in the event queue).
//! - `--out PATH`: write the JSON somewhere other than
//!   `BENCH_fleet_scale.json`.
//!
//! Payload sizes are scaled down (32-float importance sets, 1 k-param
//! headers) so the sweep measures the *event engine* — queue discipline,
//! timer churn, route fan-in — rather than `Vec<f32>` memcpy; the
//! protocol's message count per device is unchanged.

use std::io::Write as _;
use std::time::Instant;

use acme_distsys::protocol::{ProtocolConfig, RetryPolicy};
use acme_distsys::{FaultPlan, SimConfig, SimDriver};
use acme_energy::Fleet;

/// Wall-clock ceiling for the `--smoke` row (10 k devices). The sweep
/// machine finishes it well under a second; the ceiling only has to
/// catch a complexity-class regression, not a slow CI box.
const SMOKE_CEILING_SECS: f64 = 30.0;

/// One row of the sweep.
struct Row {
    devices: usize,
    edges: usize,
    wall_secs: f64,
    events: u64,
    messages: u64,
    events_per_sec: f64,
    virtual_secs: f64,
    edges_completed: usize,
    dropped_nodes: usize,
    peak_rss_mb: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let out_path = acme_bench::out_path("BENCH_fleet_scale.json");

    // Ascending sweep: each row's peak-RSS reading (VmHWM is a process
    // high-water mark) is attributable to the largest fleet seen so far.
    let sweep: &[(usize, usize)] = if smoke {
        &[(10_000, 100)]
    } else {
        &[
            (1_000, 100),
            (10_000, 100),
            (100_000, 100),
            (1_000_000, 100),
        ]
    };

    let cfg = ProtocolConfig {
        loop_rounds: 3,
        backbone_params: 10_000,
        header_params: 1_000,
        header_tokens: 12,
        importance_len: 32,
        retry: RetryPolicy {
            max_attempts: 4,
            base: std::time::Duration::from_millis(500),
            cap: std::time::Duration::from_secs(2),
        },
        ..ProtocolConfig::default()
    };

    let mut rows = Vec::new();
    for &(devices, edges) in sweep {
        let per_cluster = devices / edges;
        let fleet = Fleet::paper_default(edges, per_cluster);
        let plan = FaultPlan::seeded(42).drop_uniform(0.01);
        let driver = SimDriver::new(SimConfig {
            seed: 42,
            ..SimConfig::default()
        });
        let started = Instant::now();
        let (outcome, stats) = driver
            .run_with_stats(&fleet, &cfg, plan)
            .expect("sim run failed");
        let wall = started.elapsed().as_secs_f64();
        // Fleet-wide `rounds_completed` is a min over devices — one
        // straggler zeroes it — so health at scale is counted per edge:
        // clusters that held quorum through every round.
        let edges_completed = fleet
            .clusters()
            .iter()
            .filter_map(|c| outcome.node(acme_distsys::NodeId::Edge(c.edge())))
            .filter(|s| s.dropped_at.is_none() && s.completed_rounds == cfg.loop_rounds)
            .count();
        let row = Row {
            devices,
            edges,
            wall_secs: wall,
            events: stats.events,
            messages: stats.messages_delivered,
            events_per_sec: stats.events as f64 / wall.max(1e-9),
            virtual_secs: stats.virtual_elapsed.as_secs_f64(),
            edges_completed,
            dropped_nodes: outcome.dropped_nodes().len(),
            peak_rss_mb: peak_rss_mb(),
        };
        eprintln!(
            "{:>9} devices / {:>3} edges: {:>7.3} s wall, {:>10} events \
             ({:>9.0} ev/s), {:>8.1} s virtual, {}/{} edges done, {} dropped, \
             peak RSS {:.0} MB",
            row.devices,
            row.edges,
            row.wall_secs,
            row.events,
            row.events_per_sec,
            row.virtual_secs,
            row.edges_completed,
            row.edges,
            row.dropped_nodes,
            row.peak_rss_mb,
        );
        rows.push(row);
    }

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"bench\": \"fleet_scale\", \"devices\": {}, \"edges\": {}, \
             \"wall_secs\": {:.4}, \"events\": {}, \"messages\": {}, \
             \"events_per_sec\": {:.0}, \"virtual_secs\": {:.4}, \
             \"edges_completed\": {}, \"dropped_nodes\": {}, \
             \"peak_rss_mb\": {:.1}}}{}\n",
            r.devices,
            r.edges,
            r.wall_secs,
            r.events,
            r.messages,
            r.events_per_sec,
            r.virtual_secs,
            r.edges_completed,
            r.dropped_nodes,
            r.peak_rss_mb,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    let mut f = std::fs::File::create(&out_path).expect("create bench json");
    f.write_all(json.as_bytes()).expect("write bench json");
    eprintln!("wrote {out_path}");

    if smoke {
        let wall = rows[0].wall_secs;
        assert!(
            wall < SMOKE_CEILING_SECS,
            "10k-device smoke blew its wall-clock ceiling: {wall:.2} s >= {SMOKE_CEILING_SECS} s"
        );
        eprintln!("smoke OK ({wall:.3} s < {SMOKE_CEILING_SECS} s ceiling)");
    }
}

/// Process peak resident set in MB, from `/proc/self/status` (`VmHWM`).
/// Returns 0 where procfs is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
