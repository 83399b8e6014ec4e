//! Drivers: the IO-and-time layer that executes the sans-IO state
//! machines of [`crate::node`].
//!
//! A [`Driver`] owns everything the machines deliberately don't —
//! transport, clocks, scheduling — and speaks to them only through
//! [`Event`]s and the [`Outbox`]. Both implementations run the same
//! machines, built once in fleet order, and put every outbox send
//! through the crate's one send path (`network::route`: fault verdict →
//! ledger charge → `net.*` trace events); they are two *sinks* of it,
//! differing in what delivering a message and waiting for a timer mean:
//!
//! * [`ThreadedDriver`] — one OS thread per node pumping real channel
//!   `recv`s (and wall-clock `recv_timeout` expirations) into its
//!   machine; a delivery is a channel send. It remains the *oracle*:
//!   real OS preemption, real channel backpressure, real time.
//! * [`SimDriver`] — a discrete-event simulator: one binary heap of
//!   pending events keyed by virtual delivery time (derived from the
//!   [`LinkModel`] plus any [`FaultPlan`] delays), zero OS threads per
//!   node, deterministic by seed; a delivery is a heap push. This is
//!   what scales the fleet from tens of nodes to 100k+ devices in one
//!   process; see [`simulate_fleet`].
//!
//! Differential tests (`tests/driver_differential.rs`) pin the two
//! drivers to bit-identical [`ProtocolOutcome`]s on deterministic
//! scenarios, so the simulator's results can be trusted at scales the
//! threaded runtime cannot reach.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};

use acme_energy::Fleet;

use crate::fault::{
    fnv1a, link_uniform, node_tag, splitmix64, FaultPlan, FaultState, LinkOccurrences,
};
use crate::latency::LinkModel;
use crate::ledger::Ledger;
use crate::message::{Envelope, NodeId, Payload};
use crate::network::{route, Network, RegisterError};
use crate::node::{
    CloudNode, DeviceNode, EdgeNode, Event, NodeStateMachine, Outbox, TimerToken, VirtualTime,
};
use crate::protocol::{
    assemble_outcome, NodeStatus, ProtocolConfig, ProtocolError, ProtocolOutcome,
};

/// Executes the ACME schedule over a fleet. Implementations differ only
/// in *how* events reach the node state machines — the schedule logic
/// itself lives in [`crate::node`] and is shared verbatim.
pub trait Driver {
    /// Runs the full protocol, returning the metered outcome.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] for structural faults: duplicate node
    /// registration, an invalid [`SimConfig`] or (threaded only) a
    /// panicking node thread. Lost peers degrade the run per cluster
    /// instead.
    fn run(
        &self,
        fleet: &Fleet,
        config: &ProtocolConfig,
        faults: FaultPlan,
    ) -> Result<ProtocolOutcome, ProtocolError>;
}

/// One node of a run. An enum rather than `Box<dyn NodeStateMachine>`
/// to keep the simulator monomorphic (no per-node vtables across a
/// million devices). A fleet is almost entirely `Device`s, so the rare,
/// much larger edge and cloud machines are boxed to keep the per-device
/// footprint at the `DeviceNode` size.
#[derive(Debug)]
enum Machine {
    Device(DeviceNode),
    Edge(Box<EdgeNode>),
    Cloud(Box<CloudNode>),
}

/// The machines of a run in fleet order: the cloud, then each cluster's
/// edge followed by its devices. Both drivers start exactly these, and
/// report their statuses in exactly this order
/// ([`ProtocolOutcome::nodes`]).
fn machines(fleet: &Fleet, config: &ProtocolConfig) -> Vec<Machine> {
    let cfg = Arc::new(config.clone());
    let mut machines = Vec::with_capacity(1 + fleet.num_edges() + fleet.num_devices());
    machines.push(Machine::Cloud(Box::new(CloudNode::new(Arc::clone(&cfg)))));
    for cluster in fleet.clusters() {
        let edge = EdgeNode::new(cluster, Arc::clone(&cfg));
        machines.push(Machine::Edge(Box::new(edge)));
        machines.extend(cluster.devices().iter().map(|device| {
            Machine::Device(DeviceNode::new(
                device.id(),
                cluster.edge(),
                Arc::clone(&cfg),
            ))
        }));
    }
    machines
}

impl NodeStateMachine for Machine {
    fn id(&self) -> NodeId {
        match self {
            Machine::Device(m) => m.id(),
            Machine::Edge(m) => m.id(),
            Machine::Cloud(m) => m.id(),
        }
    }

    fn handle(&mut self, event: Event, now: VirtualTime, out: &mut Outbox) {
        match self {
            Machine::Device(m) => m.handle(event, now, out),
            Machine::Edge(m) => m.handle(event, now, out),
            Machine::Cloud(m) => m.handle(event, now, out),
        }
    }

    fn status(&self) -> Option<&NodeStatus> {
        match self {
            Machine::Device(m) => m.status(),
            Machine::Edge(m) => m.status(),
            Machine::Cloud(m) => m.status(),
        }
    }

    fn finalize(&mut self, now: VirtualTime) -> NodeStatus {
        match self {
            Machine::Device(m) => m.finalize(now),
            Machine::Edge(m) => m.finalize(now),
            Machine::Cloud(m) => m.finalize(now),
        }
    }
}

// ---------------------------------------------------------------------
// Threaded driver
// ---------------------------------------------------------------------

/// The thread-per-node oracle: one OS thread per device, edge, and
/// cloud, pumping crossbeam channel receives into the state machines
/// against wall-clock timer deadlines.
///
/// Send failures (a peer that already tore its inbox down) are ignored
/// at the pump: the machine keeps retrying within its bounded budget —
/// exactly the simulator's semantics, where a departed peer simply never
/// answers — and the [`Network`] meters the attempt either way, keeping
/// the two drivers' ledgers convergent.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedDriver;

impl Driver for ThreadedDriver {
    fn run(
        &self,
        fleet: &Fleet,
        config: &ProtocolConfig,
        faults: FaultPlan,
    ) -> Result<ProtocolOutcome, ProtocolError> {
        let run_span = acme_obs::span!(
            acme_obs::Detail::Phase,
            "protocol.run",
            "edges" => fleet.num_edges(),
            "devices" => fleet.num_devices(),
            "driver" => "threaded",
        );
        let net = Network::with_faults(faults);
        let epoch = Instant::now();
        // Every node is registered before any thread starts sending.
        let nodes = machines(fleet, config)
            .into_iter()
            .map(|sm| Ok((net.register(sm.id())?, sm)))
            .collect::<Result<Vec<_>, RegisterError>>()?;
        // Collected: every thread is running before the first is joined.
        let mut handles = nodes
            .into_iter()
            .map(|(rx, sm)| {
                let net = net.clone();
                thread::spawn(move || pump_node(net, rx, sm, epoch))
            })
            .collect::<Vec<_>>()
            .into_iter();
        let cloud = handles.next().expect("the cloud machine comes first");
        // Edges and devices run out their bounded schedules. The cloud
        // arms no timers and never finishes on its own: it serves
        // reports and replays until every peer is done and closing the
        // fabric disconnects its inbox.
        let peers: Vec<_> = handles.map(JoinHandle::join).collect();
        net.close();
        let statuses = std::iter::once(cloud.join())
            .chain(peers)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| ProtocolError::NodePanicked)?;
        let report = net.ledger().report();
        // Close the run span before assembling so it lands in this
        // run's trace.
        drop(run_span);
        Ok(assemble_outcome(statuses, report))
    }
}

/// Pumps one node: blocks on the inbox up to the machine's armed
/// deadline, translating receives into [`Event::Message`] and
/// expirations into [`Event::Timer`], and flushing the outbox through
/// the channel sink after every event.
fn pump_node(net: Network, rx: Receiver<Envelope>, mut sm: Machine, epoch: Instant) -> NodeStatus {
    let now = || VirtualTime::from_duration(epoch.elapsed());
    let me = sm.id();
    let mut out = Outbox::new();
    let mut deadline: Option<(TimerToken, Instant)> = None;
    let mut event = Event::Start;
    loop {
        sm.handle(event, now(), &mut out);
        for s in out.drain_sends() {
            // A peer that already tore its inbox down is not an error
            // here: it simply never answers.
            let _ = net.transmit(me, s.to, s.payload, s.retransmission);
        }
        if let Some((token, after)) = out.take_timer() {
            deadline = Some((token, Instant::now() + after));
        }
        if sm.status().is_some() {
            return sm.finalize(now());
        }
        event = match deadline {
            Some((token, at)) => match at
                .checked_duration_since(Instant::now())
                .map(|left| rx.recv_timeout(left))
            {
                Some(Ok(env)) => Event::Message(env),
                Some(Err(RecvTimeoutError::Disconnected)) => return sm.finalize(now()),
                // The window ran out, before or during the wait.
                Some(Err(RecvTimeoutError::Timeout)) | None => {
                    deadline = None;
                    Event::Timer(token)
                }
            },
            // Only the cloud waits with no timer armed: it serves until
            // the driver closes the fabric and its inbox disconnects.
            None => match rx.recv() {
                Ok(env) => Event::Message(env),
                Err(_) => return sm.finalize(now()),
            },
        };
    }
}

// ---------------------------------------------------------------------
// Simulation driver
// ---------------------------------------------------------------------

/// Virtual-clock parameters of a [`SimDriver`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Link latencies/bandwidths the virtual delivery times derive from.
    pub links: LinkModel,
    /// Seed for the latency jitter (and carried alongside any
    /// seeded [`FaultPlan`], which keeps its own seed).
    pub seed: u64,
    /// Relative latency jitter: each delivery is stretched by a
    /// deterministic, seed-hashed factor in `[1, 1 + jitter]`. Zero
    /// disables jitter. Must be finite and non-negative.
    pub jitter: f64,
}

impl Default for SimConfig {
    /// Default links, seed 0, 10% latency jitter — enough spread to make
    /// seeds meaningful while staying far below any retry window.
    fn default() -> Self {
        SimConfig {
            links: LinkModel::default(),
            seed: 0,
            jitter: 0.1,
        }
    }
}

/// Per-run statistics of a [`SimDriver`] execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Events processed (starts + deliveries + timer expirations).
    pub events: u64,
    /// Messages actually delivered to a machine.
    pub messages_delivered: u64,
    /// Virtual time of the last processed event.
    pub virtual_elapsed: VirtualTime,
    /// Order-sensitive digest of the full event sequence. Two runs that
    /// processed the same events in the same order — the determinism
    /// contract for a fixed seed — have equal digests.
    pub order_digest: u64,
}

/// Discrete-event simulator: executes the whole fleet on one thread
/// against a virtual clock.
///
/// Every pending event — node start, message delivery, timer expiration
/// — sits in a single binary heap ordered by `(virtual_time, push_seq)`.
/// The push sequence number breaks ties deterministically (FIFO among
/// simultaneous events), making the processing order a total order that
/// is a pure function of the fleet, config, fault plan, and seed.
/// Message delivery times derive from the [`LinkModel`]'s one-way
/// latency for the payload's link class, plus any [`FaultPlan`] delay,
/// plus seeded jitter; unlike the threaded driver, a fault delay defers
/// only the one delivery instead of stalling the sender.
#[derive(Debug, Clone, Default)]
pub struct SimDriver {
    config: SimConfig,
}

impl SimDriver {
    /// A simulator with the given virtual-clock parameters, which are
    /// validated when a run starts.
    pub fn new(config: SimConfig) -> Self {
        SimDriver { config }
    }

    /// The virtual-clock parameters.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the schedule and additionally returns the simulator's event
    /// statistics (count, virtual elapsed time, order digest).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Register`] when the fleet contains a
    /// duplicate node id and [`ProtocolError::InvalidJitter`] when
    /// [`SimConfig::jitter`] is negative or not finite.
    pub fn run_with_stats(
        &self,
        fleet: &Fleet,
        config: &ProtocolConfig,
        faults: FaultPlan,
    ) -> Result<(ProtocolOutcome, SimStats), ProtocolError> {
        if !(self.config.jitter.is_finite() && self.config.jitter >= 0.0) {
            return Err(ProtocolError::InvalidJitter);
        }
        let run_span = acme_obs::span!(
            acme_obs::Detail::Phase,
            "protocol.run",
            "edges" => fleet.num_edges(),
            "devices" => fleet.num_devices(),
            "driver" => "sim",
        );

        let mut machines = machines(fleet, config);
        let mut index: HashMap<NodeId, usize> = HashMap::with_capacity(machines.len());
        for (i, m) in machines.iter().enumerate() {
            if index.insert(m.id(), i).is_some() {
                return Err(RegisterError { node: m.id() }.into());
            }
        }
        let mut wire = SimWire::new(&self.config, faults);
        for m in &machines {
            wire.schedule(VirtualTime::ZERO, m.id(), Event::Start);
        }

        let mut out = Outbox::new();
        let mut stats = SimStats {
            events: 0,
            messages_delivered: 0,
            virtual_elapsed: VirtualTime::ZERO,
            order_digest: splitmix64(self.config.seed),
        };
        let mut now = VirtualTime::ZERO;
        while let Some(Reverse(ev)) = wire.heap.pop() {
            debug_assert!(ev.at >= now, "virtual time must be monotone");
            now = ev.at;
            stats.events += 1;
            stats.order_digest = digest_event(stats.order_digest, &ev);
            if let Event::Message(_) = ev.event {
                stats.messages_delivered += 1;
            }
            let machine = &mut machines[index[&ev.target]];
            // Stale timers outlive their machines (the queue cannot
            // un-schedule), so the protocol's finish line is the last
            // event a still-live machine consumed — not the time the
            // queue ran dry.
            if machine.status().is_none() {
                stats.virtual_elapsed = now;
            }
            machine.handle(ev.event, now, &mut out);
            for s in out.drain_sends() {
                wire.send(now, ev.target, s.to, s.payload, s.retransmission);
            }
            if let Some((token, after)) = out.take_timer() {
                wire.schedule(now.saturating_add(after), ev.target, Event::Timer(token));
            }
        }

        // The queue is dry: every device and edge has run out its
        // bounded schedule; shut the cloud's replay service down.
        let statuses = machines.iter_mut().map(|m| m.finalize(now)).collect();
        let report = wire.ledger.report();
        drop(run_span);
        Ok((assemble_outcome(statuses, report), stats))
    }
}

/// The simulator's wire: the event queue and everything a send consults
/// on its way into it.
struct SimWire<'a> {
    config: &'a SimConfig,
    ledger: Ledger,
    faults: Option<FaultState>,
    /// Messages carried so far per link, behind the latency jitter.
    flights: LinkOccurrences,
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
}

impl<'a> SimWire<'a> {
    fn new(config: &'a SimConfig, faults: FaultPlan) -> Self {
        SimWire {
            config,
            ledger: Ledger::new(),
            faults: FaultState::for_plan(faults),
            flights: LinkOccurrences::new(),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn schedule(&mut self, at: VirtualTime, target: NodeId, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            at,
            seq,
            target,
            event,
        }));
    }

    /// The heap sink of `route`: every copy is scheduled for the virtual
    /// instant it lands — `now`, plus any fault delay (which defers this
    /// one delivery, where the channel sink stalls the whole sender),
    /// plus the link's one-way flight time (half the RTT plus
    /// serialization) stretched by a jitter factor in `[1, 1 + jitter]`.
    /// The jitter is drawn for every message that reached the wire, lost
    /// ones included, with the fault layer's seeded-drop hash over this
    /// driver's own seed and per-link counts.
    fn send(
        &mut self,
        now: VirtualTime,
        from: NodeId,
        to: NodeId,
        payload: Payload,
        retransmission: bool,
    ) {
        let env = Envelope { from, to, payload };
        let faults = self.faults.as_mut();
        let Some(routed) = route(&env, retransmission, faults, &self.ledger, Some(now)) else {
            return;
        };
        let link = self.config.links.link(env.payload.link_class());
        let mut flight = link.one_way_seconds(env.payload.wire_bytes());
        if self.config.jitter > 0.0 {
            let u = link_uniform(self.config.seed, &env, &mut self.flights);
            flight *= 1.0 + self.config.jitter * u;
        }
        let at = now
            .saturating_add(routed.delay)
            .saturating_add(Duration::from_secs_f64(flight));
        for env in std::iter::repeat_n(env, routed.copies) {
            self.schedule(at, to, Event::Message(env));
        }
    }
}

impl Driver for SimDriver {
    fn run(
        &self,
        fleet: &Fleet,
        config: &ProtocolConfig,
        faults: FaultPlan,
    ) -> Result<ProtocolOutcome, ProtocolError> {
        self.run_with_stats(fleet, config, faults)
            .map(|(outcome, _)| outcome)
    }
}

/// Simulates the ACME schedule over `fleet` on the virtual clock —
/// the scalable entry point: 100k+ devices complete in seconds on one
/// thread, where the threaded oracle would need one OS thread per node.
///
/// Uses default [`LinkModel`] latencies with seeded jitter; for custom
/// links or jitter build a [`SimDriver`] (or use
/// [`crate::ProtocolRun`]).
///
/// # Errors
///
/// Returns [`ProtocolError::Register`] when the fleet contains a
/// duplicate node id.
pub fn simulate_fleet(
    fleet: &Fleet,
    config: &ProtocolConfig,
    faults: FaultPlan,
    seed: u64,
) -> Result<ProtocolOutcome, ProtocolError> {
    SimDriver::new(SimConfig {
        seed,
        ..SimConfig::default()
    })
    .run(fleet, config, faults)
}

/// One pending event in the simulator's queue.
#[derive(Debug, Clone)]
struct Scheduled {
    at: VirtualTime,
    seq: u64,
    target: NodeId,
    event: Event,
}

/// Events are totally ordered by `(at, seq)`. `seq` is the unique,
/// monotone push counter, so ties at the same virtual instant resolve
/// FIFO and the order never depends on heap internals.
impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// Folds one processed event into the order digest.
fn digest_event(digest: u64, ev: &Scheduled) -> u64 {
    let kind_tag = match &ev.event {
        Event::Start => 0x11,
        Event::Timer(token) => 0x22 ^ (token.0 << 8),
        Event::Message(env) => 0x33 ^ fnv1a(env.payload.kind()) ^ (node_tag(env.from) << 4),
    };
    splitmix64(
        digest
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(ev.at.as_nanos())
            .wrapping_add(ev.seq.rotate_left(32))
            .wrapping_add(node_tag(ev.target))
            .wrapping_add(kind_tag),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultRule};
    use crate::protocol::{DropPoint, RetryPolicy};
    use acme_energy::{Device, DeviceCluster, EdgeId};

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

    #[test]
    fn sim_completes_fault_free_with_expected_message_count() {
        let fleet = Fleet::paper_default(3, 4);
        let out = simulate_fleet(&fleet, &fast_cfg(2), FaultPlan::none(), 7).expect("sim run");
        assert_eq!(out.rounds_completed, 2);
        let (s, n, t) = (3u64, 12u64, 2u64);
        assert_eq!(out.report.messages, s + s + n + t * n * 2);
        assert_eq!(out.report.retransmissions, 0);
        assert!(out.dropped_nodes().is_empty());
    }

    #[test]
    fn sim_is_deterministic_per_seed_and_sensitive_to_it() {
        let fleet = Fleet::paper_default(3, 2);
        let cfg = fast_cfg(2);
        let faults = || FaultPlan::seeded(5).drop_uniform(0.05);
        let driver = |seed| {
            SimDriver::new(SimConfig {
                seed,
                ..SimConfig::default()
            })
        };
        let (a, sa) = driver(1)
            .run_with_stats(&fleet, &cfg, faults())
            .expect("run");
        let (b, sb) = driver(1)
            .run_with_stats(&fleet, &cfg, faults())
            .expect("run");
        assert_eq!(a, b, "same seed, same outcome");
        assert_eq!(sa.order_digest, sb.order_digest, "same event order");
        assert_eq!(sa.events, sb.events);
        let (_, sc) = driver(2)
            .run_with_stats(&fleet, &cfg, faults())
            .expect("run");
        assert_ne!(sa.order_digest, sc.order_digest, "seed moves the jitter");
    }

    #[test]
    fn sim_virtual_time_is_decoupled_from_wall_clock() {
        // Seconds-scale retry windows with a dead device: virtual time
        // passes the full budget while wall-clock stays trivial.
        let fleet = Fleet::paper_default(1, 1);
        let cfg = ProtocolConfig {
            loop_rounds: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_secs(60),
                cap: Duration::from_secs(60),
            },
            ..ProtocolConfig::default()
        };
        let victim = NodeId::Device(fleet.clusters()[0].devices()[0].id());
        let started = Instant::now();
        let (out, stats) = SimDriver::new(SimConfig::default())
            .run_with_stats(&fleet, &cfg, FaultPlan::none().kill(victim, 0))
            .expect("sim run");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "simulated minutes must not take wall-clock minutes"
        );
        assert!(
            stats.virtual_elapsed >= VirtualTime::from_duration(Duration::from_secs(120)),
            "virtual clock advanced through the retry windows: {}",
            stats.virtual_elapsed
        );
        let status = out.node(victim).expect("victim status");
        assert_eq!(status.dropped_at, Some(DropPoint::Setup));
    }

    #[test]
    fn sim_quorum_degradation_matches_schedule() {
        // All devices of cluster 0 dead with min_quorum 1: the edge
        // abandons the cluster at round 0; the other cluster completes.
        let fleet = Fleet::paper_default(2, 2);
        let mut plan = FaultPlan::none();
        for d in fleet.clusters()[0].devices() {
            plan = plan.kill(NodeId::Device(d.id()), 0);
        }
        let out = simulate_fleet(&fleet, &fast_cfg(2), plan, 3).expect("sim run");
        let edge0 = out.node(NodeId::Edge(EdgeId(0))).expect("edge 0");
        assert_eq!(edge0.dropped_at, Some(DropPoint::Round(0)));
        let edge1 = out.node(NodeId::Edge(EdgeId(1))).expect("edge 1");
        assert_eq!(edge1.dropped_at, None);
        assert_eq!(edge1.completed_rounds, 2);
        assert_eq!(out.dropped_nodes().len(), 1 + 2);
    }

    #[test]
    fn sim_handles_deviceless_cluster() {
        let fleet = Fleet::new(vec![DeviceCluster::new(EdgeId(0), Vec::new())]);
        let out = simulate_fleet(&fleet, &fast_cfg(3), FaultPlan::none(), 0).expect("sim run");
        assert_eq!(out.rounds_completed, 0, "no devices -> zero rounds");
        let edge = out.node(NodeId::Edge(EdgeId(0))).expect("edge status");
        assert_eq!(edge.completed_rounds, 3);
        assert_eq!(out.report.messages, 2, "attribute report + assignment");
    }

    #[test]
    fn sim_rejects_duplicate_node_ids() {
        let fleet = Fleet::new(vec![
            DeviceCluster::new(EdgeId(0), vec![Device::new(0, 3.0, 1_000)]),
            DeviceCluster::new(EdgeId(0), vec![Device::new(1, 3.0, 1_000)]),
        ]);
        let err = simulate_fleet(&fleet, &fast_cfg(1), FaultPlan::none(), 0).unwrap_err();
        assert!(matches!(err, ProtocolError::Register(_)));
    }

    /// Puts `sends` (`from`, `to`, retransmission; all acks) through the
    /// channel sink and through the heap sink under `plan`, checks that
    /// both delivered the same copies and charged the same ledger, and
    /// returns the recipients of the delivered copies with the report.
    fn through_both_sinks(
        plan: FaultPlan,
        sends: &[(NodeId, NodeId, bool)],
    ) -> (Vec<NodeId>, crate::TransferReport) {
        let net = Network::with_faults(plan.clone());
        let mut inboxes: Vec<(NodeId, Receiver<Envelope>)> = Vec::new();
        let config = SimConfig::default();
        let mut wire = SimWire::new(&config, plan);
        for &(from, to, retransmission) in sends {
            for node in [from, to] {
                if let Ok(rx) = net.register(node) {
                    inboxes.push((node, rx));
                }
            }
            net.transmit(from, to, Payload::Ack, retransmission)
                .expect("registered recipient");
            wire.send(VirtualTime::ZERO, from, to, Payload::Ack, retransmission);
        }
        let key = |env: &Envelope| (node_tag(env.to), node_tag(env.from));
        let mut channel: Vec<Envelope> = inboxes
            .iter()
            .flat_map(|(node, rx)| rx.try_iter().inspect(move |env| assert_eq!(env.to, *node)))
            .collect();
        channel.sort_by_key(key);
        let mut heap: Vec<Envelope> = std::iter::from_fn(|| wire.heap.pop())
            .map(|Reverse(ev)| match ev.event {
                Event::Message(env) if env.to == ev.target => env,
                other => panic!("only deliveries to their addressee are queued: {other:?}"),
            })
            .collect();
        heap.sort_by_key(key);
        assert_eq!(channel, heap, "the sinks delivered different copies");
        let report = net.ledger().report();
        assert_eq!(
            report,
            wire.ledger.report(),
            "the sinks metered differently"
        );
        (channel.iter().map(|env| env.to).collect(), report)
    }

    const EDGE: NodeId = NodeId::Edge(EdgeId(0));
    const CLOUD: NodeId = NodeId::Cloud;

    #[test]
    fn empty_fault_plan_is_fault_free() {
        let (delivered, report) = through_both_sinks(FaultPlan::none(), &[(EDGE, CLOUD, false)]);
        assert_eq!(delivered, [CLOUD]);
        assert_eq!(report.messages, 1);
    }

    #[test]
    fn retransmit_counts_in_both_totals() {
        let sends = [(EDGE, CLOUD, false), (EDGE, CLOUD, true)];
        let (delivered, report) = through_both_sinks(FaultPlan::none(), &sends);
        assert_eq!(delivered, [CLOUD, CLOUD]);
        assert_eq!((report.messages, report.retransmissions), (2, 1));
    }

    #[test]
    fn injected_drop_is_metered_but_not_delivered() {
        let plan = FaultPlan::none().rule(FaultRule::on(FaultAction::Drop).kind("ack").nth(0));
        let sends = [(EDGE, CLOUD, false), (EDGE, CLOUD, false)];
        let (delivered, report) = through_both_sinks(plan, &sends);
        // Both metered, only the second delivered.
        assert_eq!(report.messages, 2);
        assert_eq!(delivered, [CLOUD]);
    }

    #[test]
    fn injected_duplicate_delivers_and_meters_twice() {
        let plan = FaultPlan::none().rule(FaultRule::on(FaultAction::Duplicate).nth(0));
        let (delivered, report) = through_both_sinks(plan, &[(EDGE, CLOUD, false)]);
        assert_eq!(report.messages, 2);
        assert_eq!(delivered, [CLOUD, CLOUD]);
    }

    #[test]
    fn dead_sender_is_swallowed_unmetered() {
        let dead = NodeId::Device(acme_energy::DeviceId(3));
        let plan = FaultPlan::none().kill(dead, 0);
        // The dead node's send "succeeds" but nothing reaches the wire.
        let (delivered, report) = through_both_sinks(plan.clone(), &[(dead, CLOUD, false)]);
        assert_eq!(report.messages, 0);
        assert!(delivered.is_empty());
        // Traffic toward the dead node is lost in flight but metered.
        let sends = [(dead, CLOUD, false), (CLOUD, dead, false)];
        let (delivered, report) = through_both_sinks(plan, &sends);
        assert_eq!(report.messages, 1);
        assert!(delivered.is_empty());
    }

    #[test]
    fn scheduled_order_is_total_by_time_then_seq() {
        let ev = |at_ns, seq| Scheduled {
            at: VirtualTime::from_nanos(at_ns),
            seq,
            target: NodeId::Cloud,
            event: Event::Start,
        };
        assert!(ev(1, 5) < ev(2, 0), "earlier time wins");
        assert!(ev(2, 1) < ev(2, 2), "FIFO among simultaneous events");
        assert_eq!(ev(2, 2), ev(2, 2));
        let mut heap = BinaryHeap::new();
        for (t, s) in [(5u64, 4u64), (1, 2), (5, 3), (1, 1), (0, 0)] {
            heap.push(Reverse(ev(t, s)));
        }
        let drained: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse(e)| (e.at.as_nanos(), e.seq))
            .collect();
        assert_eq!(drained, vec![(0, 0), (1, 1), (1, 2), (5, 3), (5, 4)]);
    }
}
