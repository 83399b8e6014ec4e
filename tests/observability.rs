//! Determinism under observation: enabling the observability layer —
//! at compile time (this file only builds with the `obs` feature) and
//! at run time — must leave every numeric output bit-identical, at any
//! thread count, and the drained trace itself must be stable across
//! reruns of the same seeded workload.
#![cfg(feature = "obs")]

use std::sync::{Mutex, MutexGuard, OnceLock};

use acme::{Acme, AcmeConfig, AcmeOutcome, ProtocolConfig, ProtocolRun};
use acme_energy::Fleet;

/// The obs registries (trace rings, metrics, profile table) are
/// process-wide, so tests that flip recording on and off must not
/// interleave.
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
    acme_obs::profile::reset();
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
    assert!(acme_obs::profile::snapshot().is_empty());
    let metrics = acme_obs::metrics::snapshot();
    assert!(metrics.counters.is_empty() && metrics.histograms.is_empty());
}
