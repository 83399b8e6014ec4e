//! The one send path of the crate ([`route`]: fault verdict → ledger
//! charge → `net.*` trace events) and its channel sink: [`Network`],
//! message routing between node threads.

use std::collections::HashMap;
use std::ops::DerefMut;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::fault::{FaultPlan, FaultState, Verdict};
use crate::ledger::Ledger;
use crate::message::{Envelope, NodeId, Payload};
use crate::node::VirtualTime;

/// Error returned by [`Network::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The recipient was never registered.
    UnknownNode(NodeId),
    /// The recipient's receiver was dropped.
    Disconnected(NodeId),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::UnknownNode(n) => write!(f, "unknown node {n}"),
            SendError::Disconnected(n) => write!(f, "node {n} disconnected"),
        }
    }
}

impl std::error::Error for SendError {}

/// Error returned by [`Network::register`]: the node id already has a
/// live route on this fabric.
///
/// Silent replacement was the old behavior and masked real topology bugs
/// (two clusters sharing an edge id would quietly steal each other's
/// inbox); rejecting the duplicate surfaces them at setup time. A route
/// is freed again by [`Network::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterError {
    /// The id that was already registered.
    pub node: NodeId,
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {} is already registered", self.node)
    }
}

impl std::error::Error for RegisterError {}

/// In-process message fabric of the three-tier hierarchy: registration
/// hands each node a private receiver; every send is metered by the
/// shared [`Ledger`] before delivery.
///
/// `Network` is cheaply cloneable (`Arc` internals) so node threads can
/// each hold a handle.
#[derive(Debug, Clone, Default)]
pub struct Network {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    ledger: Arc<Ledger>,
    routes: RwLock<HashMap<NodeId, Sender<Envelope>>>,
    faults: Option<Mutex<FaultState>>,
}

impl Network {
    /// Creates an empty fault-free fabric.
    pub fn new() -> Self {
        Network::default()
    }

    /// Creates a fabric whose sends pass through the given fault plan.
    /// An empty plan behaves exactly like [`Network::new`].
    pub fn with_faults(plan: FaultPlan) -> Self {
        Network {
            inner: Arc::new(Inner {
                ledger: Arc::default(),
                routes: RwLock::default(),
                faults: FaultState::for_plan(plan).map(Mutex::new),
            }),
        }
    }

    /// Registers a node, returning its inbox.
    ///
    /// # Errors
    ///
    /// Returns [`RegisterError`] when the id already has a route — a
    /// duplicate id is a topology bug, not a fault to degrade through.
    /// The existing route is left untouched; after [`Network::close`]
    /// the id can be registered again.
    pub fn register(&self, node: NodeId) -> Result<Receiver<Envelope>, RegisterError> {
        let (tx, rx) = unbounded();
        let mut routes = self.inner.routes.write();
        match routes.entry(node) {
            std::collections::hash_map::Entry::Occupied(_) => Err(RegisterError { node }),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(tx);
                Ok(rx)
            }
        }
    }

    /// Sends `payload` from `from` to `to`, metering it in the ledger.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] when the recipient is unknown or its inbox
    /// was dropped.
    pub fn send(&self, from: NodeId, to: NodeId, payload: Payload) -> Result<(), SendError> {
        self.transmit(from, to, payload, false)
    }

    /// Sends a retransmission of an earlier message: delivered like
    /// [`Network::send`], but metered in the ledger's separate
    /// retransmission totals as well.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] when the recipient is unknown or its inbox
    /// was dropped.
    pub fn send_retransmit(
        &self,
        from: NodeId,
        to: NodeId,
        payload: Payload,
    ) -> Result<(), SendError> {
        self.transmit(from, to, payload, true)
    }

    /// Meters `payload` as sent from `from` to `to` without delivering
    /// it anywhere: the entry point for callers that account for a
    /// transfer they carry out themselves (the in-process pipeline, the
    /// centralized baseline). No node needs to be registered. The send
    /// goes through the same path as [`Network::send`], so a fault plan
    /// is honoured — a dead sender meters nothing, a duplicate meters
    /// twice — except that a delay, with nothing to deliver, is moot.
    pub fn meter(&self, from: NodeId, to: NodeId, payload: Payload) {
        self.route(&Envelope { from, to, payload }, false);
    }

    /// The channel sink of [`route`]: the sender sleeps through any
    /// fault delay, then every copy goes into the recipient's inbox.
    pub(crate) fn transmit(
        &self,
        from: NodeId,
        to: NodeId,
        payload: Payload,
        retransmission: bool,
    ) -> Result<(), SendError> {
        // An unknown recipient is the caller's error, not traffic:
        // rejected before anything is ruled or metered.
        let tx = {
            let routes = self.inner.routes.read();
            routes.get(&to).cloned().ok_or(SendError::UnknownNode(to))?
        };
        let env = Envelope { from, to, payload };
        let Some(routed) = self.route(&env, retransmission) else {
            // Swallowed silently, so a dead sender cannot observe its
            // own death through an error.
            return Ok(());
        };
        thread::sleep(routed.delay);
        for env in std::iter::repeat_n(env, routed.copies) {
            tx.send(env).map_err(|_| SendError::Disconnected(to))?;
        }
        Ok(())
    }

    fn route(&self, env: &Envelope, retransmission: bool) -> Option<Routed> {
        let faults = self.inner.faults.as_ref().map(|f| f.lock());
        route(env, retransmission, faults, &self.inner.ledger, None)
    }

    /// Drops every registered route, disconnecting all inboxes. Blocked
    /// `recv()` calls on those inboxes return errors, so node threads
    /// waiting on a faulted peer unwind cleanly instead of hanging.
    pub fn close(&self) {
        self.inner.routes.write().clear();
    }

    /// The shared transfer ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.inner.ledger
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.inner.routes.read().len()
    }
}

/// What [`route`] put on the wire for one send, left for the calling
/// sink to deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Routed {
    /// Copies to deliver: `0` for a message that was metered and then
    /// lost in flight, `2` for a duplicated one.
    pub(crate) copies: usize,
    /// How long the fault layer holds the delivery back.
    pub(crate) delay: Duration,
}

/// The one send path: fault verdict → ledger charge → `net.*` trace
/// events → how many copies the caller must deliver, and how late.
///
/// Every send of the crate — a [`Network`] channel send, a [`SimDriver`]
/// heap push, a metering-only [`Network::meter`] — is ruled and charged
/// here and nowhere else; the callers are *sinks* that differ only in
/// what delivering a copy means. `None` means the sender is dead:
/// nothing reached the wire, nothing was metered. `Some` with
/// `copies == 0` means the message crossed the sender's link, was
/// metered, and was lost in flight. The distinction is load-bearing for
/// the sim sink, which draws a latency jitter (advancing its per-link
/// occurrence counter) for every message that reached the wire, lost or
/// not, and none for a dead sender's. That jitter counter and the fault
/// layer's own stay two counters — they count different sends — and
/// share only [`link_uniform`](crate::fault::link_uniform).
///
/// `delay` is the one place the sinks give a verdict different
/// meanings: the channel sink stalls the *sender* for it before the
/// message enters the wire, the sim sink defers that one *delivery*.
/// A sink that can refuse a send ([`Network`]: an unknown recipient)
/// does so *before* calling this, so a rejected send is neither ruled
/// (no fault counter moves) nor metered.
///
/// `vtime` stamps the trace events with the sim's virtual clock
/// (`vtime_us`); wall-clock callers pass `None` and their events carry
/// no such field.
///
/// [`SimDriver`]: crate::SimDriver
pub(crate) fn route(
    env: &Envelope,
    retransmission: bool,
    faults: Option<impl DerefMut<Target = FaultState>>,
    ledger: &Ledger,
    vtime: Option<VirtualTime>,
) -> Option<Routed> {
    macro_rules! net_event {
        ($name:literal $(, $k:literal => $v:expr)*) => {
            if acme_obs::compiled() && acme_obs::trace::enabled_at(acme_obs::Detail::Task) {
                let event = acme_obs::trace::EventBuilder::begin($name)
                    .with("from", env.from.to_string())
                    $(.with($k, $v))*;
                match vtime {
                    Some(t) => event.with("vtime_us", t.as_micros()).emit(),
                    None => event.emit(),
                }
            }
        };
    }
    // `faults` may be a lock guard: it is released with the verdict.
    let verdict = faults.map_or(Verdict::Deliver, |mut f| f.on_send(env));
    let kind = env.payload.kind();
    let (copies, delay) = match verdict {
        Verdict::SenderDead => {
            net_event!("net.dead_sender", "kind" => kind);
            return None;
        }
        Verdict::Delay(d) => {
            net_event!("net.delay", "to" => env.to.to_string(), "kind" => kind,
                "delay_us" => d.as_micros() as u64);
            (1, d)
        }
        Verdict::Lose => {
            net_event!("net.drop", "to" => env.to.to_string(), "kind" => kind,
                "bytes" => env.payload.wire_bytes());
            (0, Duration::ZERO)
        }
        Verdict::Duplicate => {
            net_event!("net.duplicate", "to" => env.to.to_string(), "kind" => kind);
            (2, Duration::ZERO)
        }
        Verdict::Deliver => (1, Duration::ZERO),
    };
    // A lost message still crossed the sender's link: metered once.
    for _ in 0..copies.max(1) {
        if retransmission {
            ledger.record_retransmission(env);
        } else {
            ledger.record(env);
        }
        net_event!("net.send", "to" => env.to.to_string(), "kind" => kind,
            "bytes" => env.payload.wire_bytes(), "retransmit" => retransmission as u64);
    }
    Some(Routed { copies, delay })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_energy::{DeviceId, EdgeId};

    #[test]
    fn delivers_and_meters() {
        let net = Network::new();
        let rx = net.register(NodeId::Cloud).unwrap();
        net.register(NodeId::Edge(EdgeId(0))).unwrap();
        net.send(NodeId::Edge(EdgeId(0)), NodeId::Cloud, Payload::Ack)
            .unwrap();
        let env = rx.recv().unwrap();
        assert_eq!(env.payload, Payload::Ack);
        assert_eq!(net.ledger().message_count(), 1);
        assert_eq!(net.node_count(), 2);
    }

    #[test]
    fn unknown_recipient_errors_without_metering() {
        let net = Network::new();
        let err = net.send(NodeId::Cloud, NodeId::Device(DeviceId(0)), Payload::Ack);
        assert_eq!(
            err,
            Err(SendError::UnknownNode(NodeId::Device(DeviceId(0))))
        );
        assert_eq!(net.ledger().message_count(), 0);
    }

    #[test]
    fn disconnected_recipient_errors() {
        let net = Network::new();
        let rx = net.register(NodeId::Cloud).unwrap();
        drop(rx);
        let err = net.send(NodeId::Cloud, NodeId::Cloud, Payload::Ack);
        assert_eq!(err, Err(SendError::Disconnected(NodeId::Cloud)));
    }

    #[test]
    fn cross_thread_roundtrip() {
        let net = Network::new();
        let cloud_rx = net.register(NodeId::Cloud).unwrap();
        let edge_rx = net.register(NodeId::Edge(EdgeId(0))).unwrap();
        let net2 = net.clone();
        let t = std::thread::spawn(move || {
            // Edge thread: wait for assignment, reply with ack.
            let env = edge_rx.recv().unwrap();
            assert!(matches!(env.payload, Payload::BackboneAssignment { .. }));
            net2.send(NodeId::Edge(EdgeId(0)), NodeId::Cloud, Payload::Ack)
                .unwrap();
        });
        net.send(
            NodeId::Cloud,
            NodeId::Edge(EdgeId(0)),
            Payload::BackboneAssignment {
                w: 1.0,
                d: 6,
                param_count: 10,
                measured_bytes: None,
            },
        )
        .unwrap();
        let reply = cloud_rx.recv().unwrap();
        assert_eq!(reply.payload, Payload::Ack);
        t.join().unwrap();
        assert_eq!(net.ledger().message_count(), 2);
    }

    #[test]
    fn close_disconnects_all_inboxes() {
        let net = Network::new();
        let rx = net.register(NodeId::Cloud).unwrap();
        net.close();
        assert!(rx.recv().is_err());
        assert_eq!(net.node_count(), 0);
        assert_eq!(
            net.send(NodeId::Cloud, NodeId::Cloud, Payload::Ack),
            Err(SendError::UnknownNode(NodeId::Cloud))
        );
    }

    #[test]
    fn duplicate_registration_is_rejected_without_stealing_the_route() {
        let net = Network::new();
        let rx = net.register(NodeId::Cloud).unwrap();
        let err = net.register(NodeId::Cloud).unwrap_err();
        assert_eq!(
            err,
            RegisterError {
                node: NodeId::Cloud
            }
        );
        assert!(err.to_string().contains("already registered"));
        // The original inbox keeps working.
        net.send(NodeId::Cloud, NodeId::Cloud, Payload::Ack)
            .unwrap();
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(net.node_count(), 1);
        // Closing frees the id for a fresh registration.
        net.close();
        let rx2 = net.register(NodeId::Cloud).unwrap();
        net.send(NodeId::Cloud, NodeId::Cloud, Payload::Ack)
            .unwrap();
        assert_eq!(rx2.try_iter().count(), 1);
    }

    #[test]
    fn send_error_display() {
        let e = SendError::UnknownNode(NodeId::Cloud);
        assert!(e.to_string().contains("unknown"));
    }

    /// The send path's whole contract, one row per verdict: what the
    /// sink is told to deliver and what the ledger was charged, for a
    /// first send and for a retransmission.
    #[test]
    fn route_rules_meters_and_reports_every_verdict() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule};
        let (from, to) = (NodeId::Edge(EdgeId(0)), NodeId::Cloud);
        let lag = Duration::from_millis(7);
        let rule = |action| FaultPlan::none().rule(FaultRule::on(action));
        let routed = |copies, delay| Some(Routed { copies, delay });
        // (label, plan, outcome, sends metered)
        let table = [
            ("no plan", FaultPlan::none(), routed(1, Duration::ZERO), 1),
            (
                "a plan that rules on other traffic",
                FaultPlan::none()
                    .rule(FaultRule::on(FaultAction::Drop).kind("header-spec"))
                    .kill(NodeId::Device(DeviceId(9)), 0),
                routed(1, Duration::ZERO),
                1,
            ),
            (
                "duplicate",
                rule(FaultAction::Duplicate),
                routed(2, Duration::ZERO),
                2,
            ),
            (
                "lose",
                rule(FaultAction::Drop),
                routed(0, Duration::ZERO),
                1,
            ),
            (
                "lost to a dead node",
                FaultPlan::none().kill(to, 0),
                routed(0, Duration::ZERO),
                1,
            ),
            ("delay", rule(FaultAction::Delay(lag)), routed(1, lag), 1),
            ("dead sender", FaultPlan::none().kill(from, 0), None, 0),
        ];
        for (label, plan, expected, metered) in table {
            for retransmission in [false, true] {
                let mut faults = FaultState::for_plan(plan.clone());
                let ledger = Ledger::new();
                let env = Envelope {
                    from,
                    to,
                    payload: Payload::Ack,
                };
                let got = route(&env, retransmission, faults.as_mut(), &ledger, None);
                let label = format!("{label}, retransmission {retransmission}");
                assert_eq!(got, expected, "{label}");
                let report = ledger.report();
                let retransmitted = if retransmission { metered } else { 0 };
                assert_eq!(report.messages, metered, "{label}");
                assert_eq!(
                    report.total_bytes,
                    metered * env.payload.wire_bytes(),
                    "{label}"
                );
                assert_eq!(report.retransmissions, retransmitted, "{label}");
                assert_eq!(
                    report.retransmitted_bytes,
                    retransmitted * env.payload.wire_bytes(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn meter_needs_no_inbox_and_honours_the_fault_plan() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule};
        let (edge, device, dead) = (
            NodeId::Edge(EdgeId(0)),
            NodeId::Device(DeviceId(0)),
            NodeId::Device(DeviceId(3)),
        );
        // Nobody is registered: a send would be rejected, a metered
        // transfer is charged.
        let net = Network::new();
        assert!(net.send(device, edge, Payload::Ack).is_err());
        net.meter(device, edge, Payload::Ack);
        assert_eq!(net.node_count(), 0);
        assert_eq!(net.ledger().message_count(), 1);
        assert_eq!(net.ledger().total_bytes(), Payload::Ack.wire_bytes());
        // Same path as a send: a dead sender meters nothing, traffic
        // toward it is lost but metered, a duplicate meters twice.
        let net = Network::with_faults(
            FaultPlan::none()
                .kill(dead, 0)
                .rule(FaultRule::on(FaultAction::Duplicate).from(device).nth(0)),
        );
        net.meter(dead, edge, Payload::Ack);
        assert_eq!(net.ledger().message_count(), 0);
        net.meter(edge, dead, Payload::Ack);
        assert_eq!(net.ledger().message_count(), 1);
        net.meter(device, edge, Payload::Ack);
        assert_eq!(net.ledger().message_count(), 3);
        net.meter(device, edge, Payload::Ack);
        assert_eq!(net.ledger().message_count(), 4);
    }
}
