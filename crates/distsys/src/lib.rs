//! # acme-distsys
//!
//! The bidirectional single-loop distributed system of ACME (§II-A):
//! a cloud server, a cluster of edge servers, and partitioned devices
//! exchanging typed, size-metered messages.
//!
//! Three layers are provided:
//!
//! * **Transport** — one crate-private send path rules every send
//!   against the [`FaultPlan`], charges its [`Payload::wire_bytes`] to a
//!   shared [`Ledger`] and emits its `net.*` trace events; what it
//!   returns (how many copies, how late) is delivered by a *sink*.
//!   [`Network`] is the channel sink, routing [`Envelope`]s between
//!   [`NodeId`]s over crossbeam channels; [`Network::meter`] is the
//!   sink that delivers nothing, for callers that only account for a
//!   transfer. This is what Table I's upload-volume comparison is
//!   measured on.
//! * **Protocol** — sans-IO state machines ([`DeviceNode`], [`EdgeNode`],
//!   [`CloudNode`] behind the [`NodeStateMachine`] trait) encode the
//!   paper's schedule (edge attribute upload → cloud backbone assignment
//!   → edge header distribution → `T` importance-aggregation loop
//!   rounds) purely as events in, sends and timers out;
//!   [`protocol::centralized_transfers`] models the centralized-system
//!   baseline in which devices ship raw data to the cloud.
//! * **Drivers** — a [`ProtocolRun`] executes the machines on a
//!   pluggable [`Driver`]: the thread-per-node [`ThreadedDriver`] oracle
//!   (real channels, real clocks) or the discrete-event [`SimDriver`]
//!   (one thread, a virtual clock, deterministic by seed; its sink is an
//!   event heap), which scales the same protocol to 100k+ devices via
//!   [`simulate_fleet`].
//!
//! The runtime is fault tolerant: every wait is bounded by a
//! [`RetryPolicy`] timer, and a deterministic [`FaultPlan`] can drop,
//! delay, or duplicate scheduled messages or kill nodes outright
//! ([`ProtocolRun::faults`]). Clusters degrade gracefully — silent
//! devices are dropped and the surviving quorum finishes all rounds —
//! and the ledger meters retransmissions separately so fault-free
//! accounting is unchanged.
//!
//! ```
//! use acme_distsys::{Ledger, Network, NodeId, Payload};
//! use acme_energy::EdgeId;
//!
//! let network = Network::new();
//! let cloud_rx = network.register(NodeId::Cloud).unwrap();
//! let _edge_rx = network.register(NodeId::Edge(EdgeId(0))).unwrap();
//! network
//!     .send(NodeId::Edge(EdgeId(0)), NodeId::Cloud, Payload::AttributeReport {
//!         device_count: 5,
//!         min_storage: 1_000_000,
//!         min_gpu: 3.0,
//!         max_gpu: 7.0,
//!     })
//!     .unwrap();
//! let env = cloud_rx.recv().unwrap();
//! assert_eq!(env.from, NodeId::Edge(EdgeId(0)));
//! assert!(network.ledger().total_bytes() > 0);
//! ```

pub mod driver;
mod fault;
mod latency;
mod ledger;
mod message;
mod network;
pub mod node;
pub mod persist;
pub mod protocol;

pub use driver::{simulate_fleet, Driver, SimConfig, SimDriver, SimStats, ThreadedDriver};
pub use fault::{FaultAction, FaultPlan, FaultRule};
pub use latency::{Link, LinkError, LinkModel};
pub use ledger::{KindRow, Ledger, TransferReport};
pub use message::{Envelope, LinkClass, NodeId, Payload};
pub use network::{Network, RegisterError, SendError};
pub use node::{
    CloudNode, DeviceNode, EdgeNode, Event, NodeStateMachine, Outbox, TimerToken, VirtualTime,
};
pub use persist::RunCheckpoint;
pub use protocol::{
    DriverKind, DropPoint, MeasuredDeploy, NodeStatus, ProtocolConfig, ProtocolError,
    ProtocolOutcome, ProtocolRun, RetryPolicy,
};
