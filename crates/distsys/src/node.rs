//! Sans-IO node state machines of the ACME schedule.
//!
//! Each tier of the hierarchy — [`DeviceNode`], [`EdgeNode`],
//! [`CloudNode`] — is a pure state machine implementing
//! [`NodeStateMachine`]: it consumes [`Event`]s (a start signal, a
//! delivered [`Envelope`], a fired timer) and emits intents into an
//! [`Outbox`] (sends, one armed timeout). There are **no channels, no
//! clocks, and no threads** in here: every `recv_timeout` of the old
//! thread-per-node runtime became an armed timer event, and every
//! retransmission or reply is an outbox send. A [`Driver`] owns the IO:
//! the threaded driver pumps real channel receives into the machines
//! against wall-clock timers, while the simulation driver replays the
//! same machines on a virtual clock — which is what lets one process
//! run fleets of 100k+ devices (see [`crate::SimDriver`]).
//!
//! The protocol semantics are exactly the fault-tolerant schedule
//! documented in [`crate::protocol`]: bounded [`RetryPolicy`] waits,
//! device re-upload / edge cached-replay / cloud assignment-replay
//! recovery, and per-cluster quorum degradation.
//!
//! [`Driver`]: crate::Driver
//! [`RetryPolicy`]: crate::RetryPolicy

use std::sync::Arc;
use std::time::Duration;

use acme_energy::{DeviceCluster, DeviceId, EdgeId};

use crate::fault::{NodeMap, NodeSet};
use crate::message::{Envelope, NodeId, Payload};
use crate::protocol::{DropPoint, NodeStatus, ProtocolConfig};

/// Nanoseconds since the start of a protocol run.
///
/// Both drivers report time through this type: the threaded driver maps
/// wall-clock elapsed time onto it, the simulation driver advances it
/// discretely from one scheduled event to the next. State machines only
/// ever reason about *durations* (they arm timers "`d` from now"), so
/// their decisions are identical under either clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(u64);

impl VirtualTime {
    /// The start of the run.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// From an elapsed duration (saturating at ~584 years).
    pub fn from_duration(d: Duration) -> Self {
        VirtualTime(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }

    /// Nanoseconds since the run started.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the run started.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the run started.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This instant advanced by `d`, saturating.
    pub fn saturating_add(self, d: Duration) -> Self {
        VirtualTime(
            self.0
                .saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
        )
    }
}

impl std::fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Identifies one armed timeout. Tokens are per-node generation
/// counters: arming a new timer invalidates every earlier token, and a
/// stale token firing (possible under the simulation driver, whose
/// queue cannot un-schedule) is ignored by the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub(crate) u64);

/// One input to a node state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The run begins; delivered exactly once per node before anything
    /// else.
    Start,
    /// A message arrived on the node's inbox.
    Message(Envelope),
    /// The timeout armed with this token elapsed.
    Timer(TimerToken),
}

/// An intended transmission recorded by a state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct OutboundSend {
    /// Recipient.
    pub to: NodeId,
    /// Body.
    pub payload: Payload,
    /// Whether this is a retransmission of an earlier send (metered
    /// separately by the ledger).
    pub retransmission: bool,
}

/// Collects a state machine's intents during one [`handle`] call: the
/// messages to put on the wire and at most one armed timeout.
///
/// A node has at most one pending timeout at any moment (every wait of
/// the schedule is a single bounded window); arming a timer replaces
/// the previous one. Drivers drain the outbox after every `handle`.
///
/// [`handle`]: NodeStateMachine::handle
#[derive(Debug, Default)]
pub struct Outbox {
    sends: Vec<OutboundSend>,
    timer: Option<(TimerToken, Duration)>,
}

impl Outbox {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Queues a first-time transmission.
    fn send(&mut self, to: NodeId, payload: Payload) {
        self.sends.push(OutboundSend {
            to,
            payload,
            retransmission: false,
        });
    }

    /// Queues a retransmission of an earlier send.
    fn send_retransmit(&mut self, to: NodeId, payload: Payload) {
        self.sends.push(OutboundSend {
            to,
            payload,
            retransmission: true,
        });
    }

    /// Arms (or re-arms) the node's single timeout to fire `after` from
    /// now, invalidating any previously armed timer.
    fn arm_timer(&mut self, token: TimerToken, after: Duration) {
        self.timer = Some((token, after));
    }

    /// Drains the queued sends in place, in the order they were queued,
    /// keeping the buffer: the drivers flush after every event.
    pub(crate) fn drain_sends(&mut self) -> std::vec::Drain<'_, OutboundSend> {
        self.sends.drain(..)
    }

    /// Takes the armed timer, if one was set during the last `handle`.
    pub fn take_timer(&mut self) -> Option<(TimerToken, Duration)> {
        self.timer.take()
    }
}

/// A sans-IO protocol participant: all tiers of the hierarchy implement
/// this one trait, and all drivers speak only through it.
pub trait NodeStateMachine {
    /// The node's address.
    fn id(&self) -> NodeId;

    /// Consumes one event, possibly emitting sends and arming a timer.
    /// Events arriving after the machine reached its final status are
    /// ignored (stale timers, late duplicates).
    fn handle(&mut self, event: Event, now: VirtualTime, out: &mut Outbox);

    /// The node's final status, once it has finished (or dropped out
    /// of) its schedule. `None` while the machine still expects events —
    /// and always `None` for the cloud, which serves until the driver
    /// shuts it down via [`NodeStateMachine::finalize`].
    fn status(&self) -> Option<&NodeStatus>;

    /// Forces an immediate final status: the terminal status if the
    /// machine already finished, otherwise "dropped right here" (the
    /// cloud, which cannot drop, reports completion). Drivers call this
    /// at teardown and when a node's transport dies under it.
    fn finalize(&mut self, now: VirtualTime) -> NodeStatus;
}

/// Per-node timer-token generator; see [`TimerToken`].
#[derive(Debug, Default)]
struct TimerGen(u64);

impl TimerGen {
    fn arm(&mut self, out: &mut Outbox, after: Duration) {
        self.0 += 1;
        out.arm_timer(TimerToken(self.0), after);
    }

    fn is_current(&self, token: TimerToken) -> bool {
        token.0 == self.0
    }
}

// ---------------------------------------------------------------------
// Device
// ---------------------------------------------------------------------

#[derive(Debug)]
enum DeviceState {
    /// Bounded patience for the edge's header distribution (the edge
    /// drives setup, so nothing is retransmitted from this side).
    AwaitHeader {
        attempt: u32,
    },
    /// Mid single-loop round: upload sent, awaiting the personalized
    /// reply; every timeout retransmits the upload.
    InRound {
        round: usize,
        attempt: u32,
    },
    Done,
}

/// Device schedule: await the header, then `T` rounds of importance
/// upload → personalized reply.
#[derive(Debug)]
pub struct DeviceNode {
    me: NodeId,
    edge: NodeId,
    cfg: Arc<ProtocolConfig>,
    state: DeviceState,
    completed: usize,
    retries: u64,
    timers: TimerGen,
    done: Option<NodeStatus>,
}

impl DeviceNode {
    /// A device `device` homed on edge `edge`.
    pub fn new(device: DeviceId, edge: EdgeId, cfg: Arc<ProtocolConfig>) -> Self {
        DeviceNode {
            me: NodeId::Device(device),
            edge: NodeId::Edge(edge),
            cfg,
            state: DeviceState::AwaitHeader { attempt: 0 },
            completed: 0,
            retries: 0,
            timers: TimerGen::default(),
            done: None,
        }
    }

    fn upload(&self, round: usize) -> Payload {
        Payload::ImportanceUpload {
            round,
            len: self.cfg.importance_len,
        }
    }

    fn begin_round(&mut self, round: usize, out: &mut Outbox) {
        if round == self.cfg.loop_rounds {
            self.done = Some(NodeStatus::completed(self.me, self.completed, self.retries));
            self.state = DeviceState::Done;
            return;
        }
        acme_obs::event!(
            acme_obs::Detail::Phase,
            "protocol.round",
            "node" => self.me.to_string(),
            "round" => round,
        );
        out.send(self.edge, self.upload(round));
        self.timers.arm(out, self.cfg.retry.attempt_timeout(0));
        self.state = DeviceState::InRound { round, attempt: 0 };
    }

    fn drop_out(&mut self, at: DropPoint) {
        self.done = Some(NodeStatus::dropped(
            self.me,
            self.completed,
            at,
            self.retries,
        ));
        self.state = DeviceState::Done;
    }
}

impl NodeStateMachine for DeviceNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn handle(&mut self, event: Event, _now: VirtualTime, out: &mut Outbox) {
        if self.done.is_some() {
            return;
        }
        match event {
            Event::Start => {
                // Setup patience window for the header distribution.
                self.timers.arm(out, self.cfg.retry.attempt_timeout(0));
            }
            Event::Message(env) => match (&self.state, env.payload) {
                (DeviceState::AwaitHeader { .. }, Payload::HeaderSpec { .. }) => {
                    self.begin_round(0, out);
                }
                (
                    DeviceState::InRound { round, .. },
                    Payload::PersonalizedImportance { round: r, .. },
                ) if r == *round => {
                    self.completed += 1;
                    let next = *round + 1;
                    self.begin_round(next, out);
                }
                // Stale replies, duplicated headers and other control
                // traffic are ignored.
                _ => {}
            },
            Event::Timer(token) => {
                if !self.timers.is_current(token) {
                    return;
                }
                self.retries += 1;
                match &mut self.state {
                    DeviceState::AwaitHeader { attempt } => {
                        *attempt += 1;
                        let attempt = *attempt;
                        acme_obs::event!(
                            acme_obs::Detail::Phase,
                            "protocol.retry",
                            "node" => self.me.to_string(),
                            "waiting_for" => "header-spec",
                            "attempt" => attempt,
                        );
                        if attempt >= self.cfg.retry.effective_attempts() {
                            self.drop_out(DropPoint::Setup);
                        } else {
                            self.timers
                                .arm(out, self.cfg.retry.attempt_timeout(attempt));
                        }
                    }
                    DeviceState::InRound { round, attempt } => {
                        *attempt += 1;
                        let (round, attempt) = (*round, *attempt);
                        acme_obs::event!(
                            acme_obs::Detail::Phase,
                            "protocol.retry",
                            "node" => self.me.to_string(),
                            "waiting_for" => "personalized-importance",
                            "round" => round,
                            "attempt" => attempt,
                        );
                        if attempt >= self.cfg.retry.effective_attempts() {
                            self.drop_out(DropPoint::Round(round));
                        } else {
                            // The upload or the reply was lost: retransmit.
                            out.send_retransmit(self.edge, self.upload(round));
                            self.timers
                                .arm(out, self.cfg.retry.attempt_timeout(attempt));
                        }
                    }
                    DeviceState::Done => {}
                }
            }
        }
    }

    fn status(&self) -> Option<&NodeStatus> {
        self.done.as_ref()
    }

    fn finalize(&mut self, _now: VirtualTime) -> NodeStatus {
        if let Some(s) = &self.done {
            return s.clone();
        }
        let at = match &self.state {
            DeviceState::AwaitHeader { .. } => DropPoint::Setup,
            DeviceState::InRound { round, .. } => DropPoint::Round(*round),
            DeviceState::Done => unreachable!("Done state always has a status"),
        };
        self.drop_out(at);
        self.done.clone().expect("just set")
    }
}

// ---------------------------------------------------------------------
// Edge
// ---------------------------------------------------------------------

#[derive(Debug)]
enum EdgeState {
    /// Attribute report sent; awaiting the backbone assignment,
    /// retransmitting the report on every timed-out window.
    AwaitAssignment {
        attempt: u32,
    },
    /// Serving single-loop rounds over the surviving quorum.
    Rounds {
        round: usize,
        /// Devices still participating in this cluster.
        live: NodeSet<NodeId>,
        /// Devices heard from in the current round (dedup set).
        got: NodeSet<NodeId>,
        /// This round's uploaders in arrival order.
        uploaders: Vec<NodeId>,
        /// Last round served per device: its personalized set is
        /// replayed when the device signals (by re-uploading that round)
        /// that its downlink was lost.
        served: NodeMap<NodeId, usize>,
    },
    Done,
}

/// Edge-server schedule: report attributes, await the backbone, hand
/// the header to the cluster, then serve `T` rounds over the surviving
/// quorum.
#[derive(Debug)]
pub struct EdgeNode {
    me: NodeId,
    cfg: Arc<ProtocolConfig>,
    devices: Vec<NodeId>,
    attrs: Payload,
    state: EdgeState,
    completed: usize,
    retries: u64,
    timers: TimerGen,
    done: Option<NodeStatus>,
}

impl EdgeNode {
    /// An edge serving `cluster`, with the cluster's attribute report
    /// precomputed from its devices.
    pub fn new(cluster: &DeviceCluster, cfg: Arc<ProtocolConfig>) -> Self {
        EdgeNode {
            me: NodeId::Edge(cluster.edge()),
            cfg,
            devices: cluster
                .devices()
                .iter()
                .map(|d| NodeId::Device(d.id()))
                .collect(),
            attrs: Payload::attribute_report(cluster),
            state: EdgeState::AwaitAssignment { attempt: 0 },
            completed: 0,
            retries: 0,
            timers: TimerGen::default(),
            done: None,
        }
    }

    /// Minimum surviving devices this cluster needs, capped at its size.
    fn quorum(&self) -> usize {
        self.cfg.min_quorum.min(self.devices.len())
    }

    fn drop_out(&mut self, at: DropPoint) {
        self.done = Some(NodeStatus::dropped(
            self.me,
            self.completed,
            at,
            self.retries,
        ));
        self.state = EdgeState::Done;
    }

    /// Advances through rounds until one needs to wait for uploads (or
    /// the schedule ends). A deviceless cluster idles through all its
    /// rounds right here without ever arming a timer.
    fn run_rounds(&mut self, out: &mut Outbox) {
        loop {
            let EdgeState::Rounds { round, live, .. } = &self.state else {
                return;
            };
            let (round, live_len) = (*round, live.len());
            if round == self.cfg.loop_rounds {
                self.done = Some(NodeStatus::completed(self.me, self.completed, self.retries));
                self.state = EdgeState::Done;
                return;
            }
            acme_obs::event!(
                acme_obs::Detail::Phase,
                "protocol.round",
                "node" => self.me.to_string(),
                "round" => round,
            );
            if live_len > 0 {
                // One shared deadline covers the cluster's whole
                // retransmission window for this round (a device's final
                // attempt stays reserved for the reply's flight back).
                self.timers.arm(out, self.cfg.retry.collection_deadline());
                return;
            }
            if live_len < self.quorum() {
                self.drop_out(DropPoint::Round(round));
                return;
            }
            // No devices left to hear from and no quorum to violate
            // (deviceless cluster): the round completes immediately.
            self.completed += 1;
            if let EdgeState::Rounds { round, .. } = &mut self.state {
                *round += 1;
            }
        }
    }

    /// Answers this round's uploaders and moves to the next round.
    fn finish_round(&mut self, out: &mut Outbox) {
        let EdgeState::Rounds {
            round,
            got,
            uploaders,
            served,
            ..
        } = &mut self.state
        else {
            return;
        };
        let r = *round;
        // Personalized aggregation happens here in the real pipeline;
        // the wire cost is one downlink per surviving device.
        for from in uploaders.drain(..) {
            served.insert(from, r);
            out.send(
                from,
                Payload::PersonalizedImportance {
                    round: r,
                    len: self.cfg.importance_len,
                },
            );
        }
        got.clear();
        *round += 1;
        self.completed += 1;
        self.run_rounds(out);
    }
}

impl NodeStateMachine for EdgeNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn handle(&mut self, event: Event, _now: VirtualTime, out: &mut Outbox) {
        if self.done.is_some() {
            return;
        }
        match event {
            Event::Start => {
                out.send(NodeId::Cloud, self.attrs.clone());
                self.timers.arm(out, self.cfg.retry.attempt_timeout(0));
            }
            Event::Message(env) => match (&mut self.state, env.payload) {
                (EdgeState::AwaitAssignment { .. }, Payload::BackboneAssignment { .. }) => {
                    // Distribute the coarse header (+ backbone hand-off)
                    // to devices. A dead device's copy is lost in
                    // flight; it will drop itself.
                    for &d in &self.devices {
                        out.send(
                            d,
                            Payload::HeaderSpec {
                                tokens: vec![0; self.cfg.header_tokens],
                                u: 1,
                                param_count: self.cfg.header_params + self.cfg.backbone_params,
                                measured_bytes: None,
                            },
                        );
                    }
                    self.state = EdgeState::Rounds {
                        round: 0,
                        live: self.devices.iter().copied().collect(),
                        got: NodeSet::with_capacity_and_hasher(
                            self.devices.len(),
                            Default::default(),
                        ),
                        uploaders: Vec::with_capacity(self.devices.len()),
                        served: NodeMap::default(),
                    };
                    self.run_rounds(out);
                }
                (
                    EdgeState::Rounds {
                        round,
                        live,
                        got,
                        uploaders,
                        served,
                    },
                    Payload::ImportanceUpload { round: r, .. },
                ) => {
                    let from = env.from;
                    if !live.contains(&from) {
                        // Already dropped from this cluster: ignore.
                    } else if r == *round {
                        // Deduplicates retransmitted and duplicated
                        // uploads by sender.
                        if got.insert(from) {
                            uploaders.push(from);
                        }
                        if got.len() == live.len() {
                            self.finish_round(out);
                        }
                    } else if r < *round && served.get(&from) == Some(&r) {
                        // The device never saw its round-`r` reply:
                        // replay the served set.
                        self.retries += 1;
                        acme_obs::event!(
                            acme_obs::Detail::Phase,
                            "protocol.retry",
                            "node" => self.me.to_string(),
                            "waiting_for" => "personalized-replay",
                            "round" => r,
                        );
                        out.send_retransmit(
                            from,
                            Payload::PersonalizedImportance {
                                round: r,
                                len: self.cfg.importance_len,
                            },
                        );
                    }
                }
                // Duplicated assignments and other stale control
                // traffic are ignored.
                _ => {}
            },
            Event::Timer(token) => {
                if !self.timers.is_current(token) {
                    return;
                }
                match &mut self.state {
                    EdgeState::AwaitAssignment { attempt } => {
                        self.retries += 1;
                        *attempt += 1;
                        let attempt = *attempt;
                        acme_obs::event!(
                            acme_obs::Detail::Phase,
                            "protocol.retry",
                            "node" => self.me.to_string(),
                            "waiting_for" => "backbone-assignment",
                            "attempt" => attempt,
                        );
                        if attempt >= self.cfg.retry.effective_attempts() {
                            self.drop_out(DropPoint::Setup);
                        } else {
                            // The report or the assignment was lost:
                            // retransmit the attribute report.
                            out.send_retransmit(NodeId::Cloud, self.attrs.clone());
                            self.timers
                                .arm(out, self.cfg.retry.attempt_timeout(attempt));
                        }
                    }
                    EdgeState::Rounds {
                        round, live, got, ..
                    } => {
                        // Collection deadline: devices silent through
                        // the whole retry window are dropped; the
                        // cluster continues with the survivors.
                        let round = *round;
                        for d in live.iter().filter(|d| !got.contains(*d)) {
                            acme_obs::event!(
                                acme_obs::Detail::Phase,
                                "protocol.device_drop",
                                "node" => self.me.to_string(),
                                "device" => d.to_string(),
                                "round" => round,
                            );
                        }
                        live.retain(|d| got.contains(d));
                        if live.len() < self.quorum() {
                            self.drop_out(DropPoint::Round(round));
                        } else {
                            self.finish_round(out);
                        }
                    }
                    EdgeState::Done => {}
                }
            }
        }
    }

    fn status(&self) -> Option<&NodeStatus> {
        self.done.as_ref()
    }

    fn finalize(&mut self, _now: VirtualTime) -> NodeStatus {
        if let Some(s) = &self.done {
            return s.clone();
        }
        let at = match &self.state {
            EdgeState::AwaitAssignment { .. } => DropPoint::Setup,
            EdgeState::Rounds { round, .. } => DropPoint::Round(*round),
            EdgeState::Done => unreachable!("Done state always has a status"),
        };
        self.drop_out(at);
        self.done.clone().expect("just set")
    }
}

// ---------------------------------------------------------------------
// Cloud
// ---------------------------------------------------------------------

/// Cloud schedule: assign a backbone to every edge that reports, and
/// keep replaying assignments for retransmitted reports (lost
/// downlinks) until the driver shuts the service down. The cloud arms
/// no timers and never terminates on its own; its `completed_rounds`
/// counts backbone assignments issued.
#[derive(Debug)]
pub struct CloudNode {
    me: NodeId,
    cfg: Arc<ProtocolConfig>,
    assigned: NodeSet<NodeId>,
    retries: u64,
}

impl CloudNode {
    /// The cloud service for one run.
    pub fn new(cfg: Arc<ProtocolConfig>) -> Self {
        CloudNode {
            me: NodeId::Cloud,
            cfg,
            assigned: NodeSet::default(),
            retries: 0,
        }
    }
}

impl NodeStateMachine for CloudNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn handle(&mut self, event: Event, _now: VirtualTime, out: &mut Outbox) {
        let Event::Message(env) = event else {
            return;
        };
        if !matches!(env.payload, Payload::AttributeReport { .. }) {
            return;
        }
        let assignment = Payload::BackboneAssignment {
            w: 1.0,
            d: 6,
            param_count: self.cfg.backbone_params,
            measured_bytes: None,
        };
        if self.assigned.insert(env.from) {
            out.send(env.from, assignment);
        } else {
            // A re-reported edge never saw its assignment: replay.
            self.retries += 1;
            acme_obs::event!(
                acme_obs::Detail::Phase,
                "protocol.retry",
                "node" => self.me.to_string(),
                "waiting_for" => "assignment-replay",
                "edge" => env.from.to_string(),
            );
            out.send_retransmit(env.from, assignment);
        }
    }

    fn status(&self) -> Option<&NodeStatus> {
        None
    }

    fn finalize(&mut self, _now: VirtualTime) -> NodeStatus {
        NodeStatus::completed(self.me, self.assigned.len(), self.retries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_energy::Device;

    fn take_sends(out: &mut Outbox) -> Vec<OutboundSend> {
        out.drain_sends().collect()
    }

    fn cfg(loop_rounds: usize) -> Arc<ProtocolConfig> {
        Arc::new(ProtocolConfig {
            loop_rounds,
            ..ProtocolConfig::default()
        })
    }

    fn cluster(n: usize) -> DeviceCluster {
        DeviceCluster::new(
            EdgeId(0),
            (0..n)
                .map(|i| Device::new(i, 3.0 + i as f64, 1_000))
                .collect(),
        )
    }

    #[test]
    fn device_completes_rounds_through_events() {
        let mut d = DeviceNode::new(DeviceId(0), EdgeId(0), cfg(2));
        let mut out = Outbox::new();
        d.handle(Event::Start, VirtualTime::ZERO, &mut out);
        assert!(take_sends(&mut out).is_empty());
        assert!(out.take_timer().is_some(), "setup patience armed");
        // Header arrives: round 0 upload goes out with a fresh timer.
        d.handle(
            Event::Message(Envelope {
                from: NodeId::Edge(EdgeId(0)),
                to: d.id(),
                payload: Payload::HeaderSpec {
                    tokens: vec![0; 4],
                    u: 1,
                    param_count: 10,
                    measured_bytes: None,
                },
            }),
            VirtualTime::ZERO,
            &mut out,
        );
        let sends = take_sends(&mut out);
        assert_eq!(sends.len(), 1);
        assert!(matches!(
            sends[0].payload,
            Payload::ImportanceUpload { round: 0, .. }
        ));
        assert!(!sends[0].retransmission);
        assert!(out.take_timer().is_some());
        // Two personalized replies complete the schedule.
        for round in 0..2 {
            d.handle(
                Event::Message(Envelope {
                    from: NodeId::Edge(EdgeId(0)),
                    to: d.id(),
                    payload: Payload::PersonalizedImportance { round, len: 0 },
                }),
                VirtualTime::ZERO,
                &mut out,
            );
            take_sends(&mut out);
            out.take_timer();
        }
        let st = d.status().expect("terminal");
        assert_eq!(st.completed_rounds, 2);
        assert_eq!(st.dropped_at, None);
        assert_eq!(st.retries, 0);
    }

    #[test]
    fn device_retransmits_on_timeout_and_eventually_drops() {
        let mut d = DeviceNode::new(DeviceId(3), EdgeId(0), cfg(1));
        let mut out = Outbox::new();
        d.handle(Event::Start, VirtualTime::ZERO, &mut out);
        let (tok, _) = out.take_timer().expect("armed");
        d.handle(
            Event::Message(Envelope {
                from: NodeId::Edge(EdgeId(0)),
                to: d.id(),
                payload: Payload::HeaderSpec {
                    tokens: vec![],
                    u: 1,
                    param_count: 0,
                    measured_bytes: None,
                },
            }),
            VirtualTime::ZERO,
            &mut out,
        );
        take_sends(&mut out);
        // The stale setup timer must be ignored.
        d.handle(Event::Timer(tok), VirtualTime::ZERO, &mut out);
        assert!(d.status().is_none());
        assert!(take_sends(&mut out).is_empty());
        // Current-round timeouts retransmit until the budget runs out.
        let attempts = d.cfg.retry.effective_attempts();
        let mut retransmits = 0;
        for _ in 0..attempts {
            let (tok, _) = out.take_timer().expect("armed");
            d.handle(Event::Timer(tok), VirtualTime::ZERO, &mut out);
            retransmits += take_sends(&mut out)
                .iter()
                .filter(|s| s.retransmission)
                .count();
        }
        assert_eq!(retransmits as u32, attempts - 1);
        let st = d.status().expect("dropped");
        assert_eq!(st.dropped_at, Some(DropPoint::Round(0)));
        assert_eq!(st.retries as u32, attempts);
    }

    #[test]
    fn deviceless_edge_idles_through_all_rounds() {
        let mut e = EdgeNode::new(&DeviceCluster::new(EdgeId(0), Vec::new()), cfg(3));
        let mut out = Outbox::new();
        e.handle(Event::Start, VirtualTime::ZERO, &mut out);
        assert_eq!(take_sends(&mut out).len(), 1, "attribute report");
        out.take_timer();
        e.handle(
            Event::Message(Envelope {
                from: NodeId::Cloud,
                to: e.id(),
                payload: Payload::BackboneAssignment {
                    w: 1.0,
                    d: 6,
                    param_count: 1,
                    measured_bytes: None,
                },
            }),
            VirtualTime::ZERO,
            &mut out,
        );
        // No headers to send, no timer to arm: the rounds idle out.
        assert!(take_sends(&mut out).is_empty());
        assert!(out.take_timer().is_none());
        let st = e.status().expect("terminal");
        assert_eq!(st.completed_rounds, 3);
        assert_eq!(st.dropped_at, None);
    }

    #[test]
    fn edge_serves_a_round_once_all_live_devices_report() {
        let c = cluster(2);
        let mut e = EdgeNode::new(&c, cfg(1));
        let mut out = Outbox::new();
        e.handle(Event::Start, VirtualTime::ZERO, &mut out);
        take_sends(&mut out);
        out.take_timer();
        e.handle(
            Event::Message(Envelope {
                from: NodeId::Cloud,
                to: e.id(),
                payload: Payload::BackboneAssignment {
                    w: 1.0,
                    d: 6,
                    param_count: 1,
                    measured_bytes: None,
                },
            }),
            VirtualTime::ZERO,
            &mut out,
        );
        assert_eq!(take_sends(&mut out).len(), 2, "headers to both devices");
        assert!(out.take_timer().is_some(), "collection deadline armed");
        for i in 0..2u64 {
            e.handle(
                Event::Message(Envelope {
                    from: NodeId::Device(DeviceId(i as usize)),
                    to: e.id(),
                    payload: Payload::ImportanceUpload { round: 0, len: 1 },
                }),
                VirtualTime::ZERO,
                &mut out,
            );
        }
        let sends = take_sends(&mut out);
        assert_eq!(sends.len(), 2, "personalized replies to both");
        assert!(sends
            .iter()
            .all(|s| matches!(s.payload, Payload::PersonalizedImportance { round: 0, .. })));
        let st = e.status().expect("terminal after final round");
        assert_eq!(st.completed_rounds, 1);
    }

    #[test]
    fn edge_deadline_drops_silent_devices_and_checks_quorum() {
        let c = cluster(3);
        let mut e = EdgeNode::new(
            &c,
            Arc::new(ProtocolConfig {
                loop_rounds: 2,
                min_quorum: 2,
                ..ProtocolConfig::default()
            }),
        );
        let mut out = Outbox::new();
        e.handle(Event::Start, VirtualTime::ZERO, &mut out);
        take_sends(&mut out);
        out.take_timer();
        e.handle(
            Event::Message(Envelope {
                from: NodeId::Cloud,
                to: e.id(),
                payload: Payload::BackboneAssignment {
                    w: 1.0,
                    d: 6,
                    param_count: 1,
                    measured_bytes: None,
                },
            }),
            VirtualTime::ZERO,
            &mut out,
        );
        take_sends(&mut out);
        let (deadline, _) = out.take_timer().expect("collection deadline");
        // Only one of three devices reports; the deadline fires.
        e.handle(
            Event::Message(Envelope {
                from: NodeId::Device(DeviceId(0)),
                to: e.id(),
                payload: Payload::ImportanceUpload { round: 0, len: 0 },
            }),
            VirtualTime::ZERO,
            &mut out,
        );
        e.handle(Event::Timer(deadline), VirtualTime::ZERO, &mut out);
        // One survivor < quorum 2: the cluster is abandoned.
        let st = e.status().expect("dropped");
        assert_eq!(st.dropped_at, Some(DropPoint::Round(0)));
        assert_eq!(st.completed_rounds, 0);
    }

    #[test]
    fn cloud_assigns_once_and_replays_rereports() {
        let mut c = CloudNode::new(cfg(1));
        let mut out = Outbox::new();
        let report = Envelope {
            from: NodeId::Edge(EdgeId(7)),
            to: NodeId::Cloud,
            payload: Payload::AttributeReport {
                device_count: 1,
                min_storage: 1,
                min_gpu: 1.0,
                max_gpu: 1.0,
            },
        };
        c.handle(Event::Message(report.clone()), VirtualTime::ZERO, &mut out);
        let first = take_sends(&mut out);
        assert_eq!(first.len(), 1);
        assert!(!first[0].retransmission);
        c.handle(Event::Message(report), VirtualTime::ZERO, &mut out);
        let replay = take_sends(&mut out);
        assert_eq!(replay.len(), 1);
        assert!(replay[0].retransmission, "re-report triggers a replay");
        let st = c.finalize(VirtualTime::ZERO);
        assert_eq!(st.completed_rounds, 1, "one unique edge assigned");
        assert_eq!(st.retries, 1);
    }

    #[test]
    fn finalize_mid_schedule_reports_the_current_drop_point() {
        let mut d = DeviceNode::new(DeviceId(0), EdgeId(0), cfg(2));
        let mut out = Outbox::new();
        d.handle(Event::Start, VirtualTime::ZERO, &mut out);
        let st = d.finalize(VirtualTime::ZERO);
        assert_eq!(st.dropped_at, Some(DropPoint::Setup));
        // Finalize is idempotent once terminal.
        assert_eq!(d.finalize(VirtualTime::ZERO), st);
    }

    #[test]
    fn virtual_time_arithmetic() {
        let t = VirtualTime::ZERO.saturating_add(Duration::from_micros(1500));
        assert_eq!(t.as_nanos(), 1_500_000);
        assert_eq!(t.as_micros(), 1_500);
        assert!((t.as_secs_f64() - 0.0015).abs() < 1e-12);
        assert_eq!(t.to_string(), "0.001500s");
        let sat = VirtualTime::from_duration(Duration::from_nanos(u64::MAX))
            .saturating_add(Duration::from_secs(1));
        assert_eq!(sat.as_nanos(), u64::MAX);
        assert!(VirtualTime::from_duration(Duration::from_nanos(7)) < t);
    }
}
