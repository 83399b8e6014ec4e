//! The paper's communication schedule (§II-A) — configuration, retry
//! policy, per-node statuses, and the run entry points — plus the
//! centralized-system baseline of Table I.
//!
//! Compute is out of scope here — the hooks fill in payload *sizes* — so
//! the protocol meters exactly the transfer volume the schedule implies:
//!
//! 1. every edge uploads its cluster's attribute statistics;
//! 2. the cloud assigns each edge a backbone (weights downlink);
//! 3. every edge distributes the coarse header to its devices;
//! 4. `T` single-loop rounds: devices upload importance sets, the edge
//!    returns personalized sets.
//!
//! The schedule logic itself lives in [`crate::node`] as sans-IO state
//! machines; this module executes them through a
//! [`Driver`](crate::driver::Driver) — the thread-per-node
//! [`ThreadedDriver`] oracle or the discrete-event
//! [`SimDriver`](crate::driver::SimDriver) — selected via the
//! [`ProtocolRun`] builder.
//!
//! # Fault tolerance
//!
//! Every wait is bounded by a [`RetryPolicy`] (bounded attempts with
//! exponential backoff), and the runtime degrades per cluster instead of
//! tearing the fabric down:
//!
//! * a device that gets no reply retransmits its upload and, after the
//!   retry budget, drops out on its own;
//! * an edge that stops hearing from a device marks it dropped and keeps
//!   serving the surviving quorum (at least
//!   [`ProtocolConfig::min_quorum`] devices, capped at the cluster
//!   size); below quorum the cluster is abandoned;
//! * the cloud assigns backbones to whichever edges report within the
//!   retry window and keeps replaying assignments whose downlink was
//!   lost; unreachable edges are simply left behind.
//!
//! Retransmissions are metered separately by the ledger
//! ([`TransferReport::retransmissions`]), so a fault-free run's transfer
//! accounting is bit-identical to the original blocking protocol. Faults
//! are injected deterministically through a
//! [`FaultPlan`](crate::FaultPlan) via [`ProtocolRun::faults`].

use std::time::Duration;

use acme_energy::Fleet;

use crate::driver::{Driver, SimConfig, SimDriver, ThreadedDriver};
use crate::fault::FaultPlan;
use crate::latency::LinkModel;
use crate::ledger::TransferReport;
use crate::message::{NodeId, Payload};
use crate::network::{Network, RegisterError, SendError};

/// A fault detected while executing the protocol schedule.
///
/// With the fault-tolerant runtime, recoverable conditions (lost or
/// delayed messages, silent peers) are handled by retry and degradation
/// and never surface here; this error remains for structural faults — a
/// duplicate registration, an invalid sim configuration, a panicking
/// node thread, or transport misuse outside the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A message could not be delivered.
    Send(SendError),
    /// A node id was registered twice (e.g. two clusters sharing an
    /// edge id, or overlapping device ids).
    Register(RegisterError),
    /// The sim driver's [`SimConfig::jitter`] is negative or not finite.
    InvalidJitter,
    /// A node thread panicked.
    NodePanicked,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Send(e) => write!(f, "send failed: {e}"),
            ProtocolError::Register(e) => write!(f, "registration failed: {e}"),
            ProtocolError::InvalidJitter => {
                write!(f, "sim jitter must be finite and non-negative")
            }
            ProtocolError::NodePanicked => write!(f, "a node thread panicked"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Send(e) => Some(e),
            ProtocolError::Register(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SendError> for ProtocolError {
    fn from(e: SendError) -> Self {
        ProtocolError::Send(e)
    }
}

impl From<RegisterError> for ProtocolError {
    fn from(e: RegisterError) -> Self {
        ProtocolError::Register(e)
    }
}

/// Bounded-retry policy with exponential backoff shared by every
/// protocol wait: attempt `k` (0-based) times out after
/// `min(base * 2^k, cap)`, and a peer silent through all
/// `max_attempts` windows is considered gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Number of timed wait attempts before giving a peer up. `0` is
    /// treated as "no retries" — a single bounded wait with no
    /// retransmissions, identical to `1` (see
    /// [`RetryPolicy::effective_attempts`]).
    pub max_attempts: u32,
    /// Timeout of the first attempt.
    pub base: Duration,
    /// Upper bound on any single attempt's timeout.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    /// Deliberately conservative defaults (attempts 4, base 500 ms, cap
    /// 1 s): healthy in-process runs answer in microseconds, so spurious
    /// retransmissions — which would perturb the transfer accounting —
    /// require a half-second scheduler stall. Fault experiments should
    /// tighten these.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(500),
            cap: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Timeout of the `attempt`-th (0-based) wait:
    /// `min(base * 2^attempt, cap)`.
    pub fn attempt_timeout(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX);
        self.base.saturating_mul(factor).min(self.cap)
    }

    /// Wait attempts the protocol actually performs:
    /// `max_attempts.max(1)`. A `max_attempts` of `0` means "no
    /// retries", not "no patience" — every wait still blocks for one
    /// full [`RetryPolicy::attempt_timeout`] window. Without this floor
    /// the budget sums below would underflow into empty sums reporting
    /// zero wait while the recv loops still attempted once, letting
    /// receivers declare peers dropped before their first reply could
    /// possibly arrive.
    pub fn effective_attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Total patience across all attempts — the window a receiver grants
    /// a retrying peer before declaring it dropped. Never zero: see
    /// [`RetryPolicy::effective_attempts`].
    pub fn round_budget(&self) -> Duration {
        (0..self.effective_attempts())
            .map(|a| self.attempt_timeout(a))
            .sum()
    }

    /// Deadline an edge grants its cluster per collection round: all but
    /// the last attempt window. A device burning retransmissions still
    /// fits inside it, while the reserved final window keeps the edge's
    /// deadline-time replies from racing the devices' own give-up (a
    /// device's patience is the full [`RetryPolicy::round_budget`]).
    pub fn collection_deadline(&self) -> Duration {
        let d: Duration = (0..self.effective_attempts().saturating_sub(1))
            .map(|a| self.attempt_timeout(a))
            .sum();
        if d.is_zero() {
            self.attempt_timeout(0)
        } else {
            d
        }
    }
}

/// Sizes, loop depth, and fault-tolerance knobs of one protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Single-loop iterations `T` of Algorithm 2.
    pub loop_rounds: usize,
    /// Backbone parameters shipped per cloud → edge assignment.
    pub backbone_params: u64,
    /// Header parameters shipped per edge → device distribution.
    pub header_params: u64,
    /// Architecture token count (`4B`).
    pub header_tokens: usize,
    /// Importance-set length `R` (header parameters scored).
    pub importance_len: usize,
    /// Timeout/backoff policy for every protocol wait.
    pub retry: RetryPolicy,
    /// Minimum surviving devices a cluster needs to keep running its
    /// single-loop rounds (capped at the cluster size). Below it the
    /// edge abandons the cluster.
    pub min_quorum: usize,
    /// Measured deploy payload sizes from a content-addressed model
    /// store (`acme-store`). When set, the transfer ledger charges
    /// weight deploys at these byte counts instead of the
    /// `4·param_count` estimate: backbone assignments ship the
    /// serialized backbone blob and header distributions ship a
    /// structural variant delta. `None` keeps the estimate.
    pub deploy: Option<MeasuredDeploy>,
}

/// Byte-accurate deploy sizes measured from serialized model-store
/// artifacts, replacing the dense 4-bytes-per-parameter estimate in
/// [`crate::Payload::wire_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasuredDeploy {
    /// Serialized backbone checkpoint blob size (cloud → edge).
    pub backbone_bytes: u64,
    /// Structural variant-delta size (edge → device), typically
    /// `VariantDelta::bytes()`.
    pub variant_bytes: u64,
}

impl ProtocolConfig {
    /// Charge deploys at the given measured sizes instead of the
    /// parameter-count estimate.
    #[must_use]
    pub fn with_measured_deploy(mut self, deploy: MeasuredDeploy) -> Self {
        self.deploy = Some(deploy);
        self
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            loop_rounds: 3,
            backbone_params: 40_000,
            header_params: 4_000,
            header_tokens: 12,
            importance_len: 4_000,
            retry: RetryPolicy::default(),
            min_quorum: 1,
            deploy: None,
        }
    }
}

/// Where in the schedule a node dropped out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPoint {
    /// Before its first single-loop round (attribute/assignment/header
    /// phase).
    Setup,
    /// During the given 0-based single-loop round.
    Round(usize),
}

impl std::fmt::Display for DropPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DropPoint::Setup => write!(f, "setup"),
            DropPoint::Round(r) => write!(f, "round {r}"),
        }
    }
}

/// Per-node outcome of a protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatus {
    /// The node.
    pub node: NodeId,
    /// Single-loop rounds this node completed. For the cloud this counts
    /// backbone assignments issued instead.
    pub completed_rounds: usize,
    /// Where the node dropped out, or `None` if it finished its
    /// schedule.
    pub dropped_at: Option<DropPoint>,
    /// Timed-out waits this node recovered from (each typically paired
    /// with one retransmission).
    pub retries: u64,
}

impl NodeStatus {
    pub(crate) fn completed(node: NodeId, completed_rounds: usize, retries: u64) -> Self {
        NodeStatus {
            node,
            completed_rounds,
            dropped_at: None,
            retries,
        }
    }

    pub(crate) fn dropped(
        node: NodeId,
        completed_rounds: usize,
        at: DropPoint,
        retries: u64,
    ) -> Self {
        NodeStatus {
            node,
            completed_rounds,
            dropped_at: Some(at),
            retries,
        }
    }
}

/// Outcome of a protocol run.
#[derive(Debug, Clone)]
pub struct ProtocolOutcome {
    /// Metered transfers (retransmissions counted separately inside).
    pub report: TransferReport,
    /// Minimum loop rounds completed over all devices; `0` when the
    /// fleet has no devices. Per-device counts are in [`Self::nodes`].
    pub rounds_completed: usize,
    /// Per-node status: the cloud first, then each cluster's edge
    /// followed by its devices, in fleet order.
    pub nodes: Vec<NodeStatus>,
    /// Structured trace drained at the end of the run — per-round
    /// `protocol.round` spans plus `protocol.retry` /
    /// `protocol.device_drop` and `net.*` events — when observability is
    /// compiled in (`obs` feature) and runtime-enabled; `None`
    /// otherwise. Draining here hands the run's spans to the caller, so
    /// a caller that also records its own spans should
    /// [`merge`](acme_obs::Trace::merge) this into its final drain.
    pub trace: Option<acme_obs::Trace>,
}

/// Equality deliberately ignores [`ProtocolOutcome::trace`]: the trace
/// carries wall-clock timestamps and is `Some` only under observation,
/// while the determinism contract promises that observed and unobserved
/// runs produce bit-identical *outcomes*.
impl PartialEq for ProtocolOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.report == other.report
            && self.rounds_completed == other.rounds_completed
            && self.nodes == other.nodes
    }
}

impl ProtocolOutcome {
    /// An outcome over the final statuses `nodes`, in fleet order.
    pub(crate) fn new(
        nodes: Vec<NodeStatus>,
        report: TransferReport,
        trace: Option<acme_obs::Trace>,
    ) -> Self {
        let rounds_completed = nodes
            .iter()
            .filter(|s| matches!(s.node, NodeId::Device(_)))
            .map(|s| s.completed_rounds)
            .min()
            .unwrap_or(0);
        ProtocolOutcome {
            report,
            rounds_completed,
            nodes,
            trace,
        }
    }

    /// Status of one node, if it took part in the run.
    pub fn node(&self, node: NodeId) -> Option<&NodeStatus> {
        self.nodes.iter().find(|s| s.node == node)
    }

    /// Every node that dropped out, in fleet order.
    pub fn dropped_nodes(&self) -> Vec<&NodeStatus> {
        self.nodes
            .iter()
            .filter(|s| s.dropped_at.is_some())
            .collect()
    }

    /// Total retries across all nodes.
    pub fn total_retries(&self) -> u64 {
        self.nodes.iter().map(|s| s.retries).sum()
    }
}

/// Assembles a driver's results into a [`ProtocolOutcome`]: `nodes` are
/// the final statuses in fleet order, exactly as both drivers produce
/// them. Folds the ledger meters into the metrics registry and drains
/// the trace; callers close their `protocol.run` span first so it lands
/// in this run's drain.
pub(crate) fn assemble_outcome(nodes: Vec<NodeStatus>, report: TransferReport) -> ProtocolOutcome {
    // Absorb the ledger meters and per-node retry counts into the
    // unified metrics registry (absolute values: the ledger keeps its
    // own dependency-free accounting on the hot path).
    let trace = if acme_obs::enabled() {
        acme_obs::metrics::set_counter("net.messages", report.messages);
        acme_obs::metrics::set_counter("net.retransmissions", report.retransmissions);
        acme_obs::metrics::set_counter("net.retransmitted_bytes", report.retransmitted_bytes);
        acme_obs::metrics::set_counter("net.total_bytes", report.total_bytes);
        acme_obs::metrics::set_counter("net.uplink_bytes", report.uplink_bytes);
        acme_obs::metrics::set_counter(
            "protocol.retries",
            nodes.iter().map(|s| s.retries).sum::<u64>(),
        );
        acme_obs::metrics::set_counter(
            "protocol.dropped_nodes",
            nodes.iter().filter(|s| s.dropped_at.is_some()).count() as u64,
        );
        Some(acme_obs::trace::drain())
    } else {
        None
    };
    ProtocolOutcome::new(nodes, report, trace)
}

/// Which [`Driver`](crate::driver::Driver) a [`ProtocolRun`] executes
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverKind {
    /// The thread-per-node oracle ([`ThreadedDriver`]): real channels,
    /// real clocks, one OS thread per node.
    #[default]
    Threaded,
    /// The discrete-event simulator
    /// ([`SimDriver`](crate::driver::SimDriver)): one thread, a virtual
    /// clock, deterministic by seed — the scalable path.
    Sim,
}

/// Builder for one protocol execution:
///
/// ```
/// use acme_distsys::{DriverKind, FaultPlan, ProtocolConfig, ProtocolRun};
/// use acme_energy::Fleet;
///
/// let fleet = Fleet::paper_default(2, 3);
/// let outcome = ProtocolRun::new(&fleet)
///     .config(ProtocolConfig::default())
///     .faults(FaultPlan::none())
///     .driver(DriverKind::Sim)
///     .seed(42)
///     .execute()
///     .expect("protocol run");
/// assert_eq!(outcome.rounds_completed, 3);
/// ```
///
/// Defaults: [`ProtocolConfig::default`], no faults, the threaded
/// driver, and (for the sim driver) default [`SimConfig`].
#[derive(Debug, Clone)]
pub struct ProtocolRun<'a> {
    fleet: &'a Fleet,
    config: ProtocolConfig,
    faults: FaultPlan,
    driver: DriverKind,
    sim: SimConfig,
}

impl<'a> ProtocolRun<'a> {
    /// A run over `fleet` with default configuration.
    pub fn new(fleet: &'a Fleet) -> Self {
        ProtocolRun {
            fleet,
            config: ProtocolConfig::default(),
            faults: FaultPlan::none(),
            driver: DriverKind::default(),
            sim: SimConfig::default(),
        }
    }

    /// Sets the protocol configuration.
    pub fn config(mut self, config: ProtocolConfig) -> Self {
        self.config = config;
        self
    }

    /// Injects a deterministic fault plan into the fabric.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Selects the driver (default: [`DriverKind::Threaded`]).
    pub fn driver(mut self, driver: DriverKind) -> Self {
        self.driver = driver;
        self
    }

    /// Seed for the sim driver's latency jitter. Ignored by the threaded
    /// driver (seeded faults carry their own seed in the [`FaultPlan`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Link model the sim driver derives virtual delivery times from.
    /// Ignored by the threaded driver.
    pub fn links(mut self, links: LinkModel) -> Self {
        self.sim.links = links;
        self
    }

    /// Relative latency jitter of the sim driver in `[0, jitter]`
    /// (default `0.1`). Ignored by the threaded driver.
    pub fn jitter(mut self, jitter: f64) -> Self {
        self.sim.jitter = jitter;
        self
    }

    /// Executes the run on the selected driver.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] for structural faults: duplicate node
    /// registration, (sim) a negative or non-finite
    /// [`ProtocolRun::jitter`], or (threaded) a panicking node thread.
    /// Lost peers degrade the run per cluster instead, visible in
    /// [`ProtocolOutcome::nodes`].
    pub fn execute(self) -> Result<ProtocolOutcome, ProtocolError> {
        match self.driver {
            DriverKind::Threaded => ThreadedDriver.run(self.fleet, &self.config, self.faults),
            DriverKind::Sim => SimDriver::new(self.sim).run(self.fleet, &self.config, self.faults),
        }
    }

    /// Executes only the first `rounds` loop rounds of the configured
    /// schedule (clamped to [`ProtocolConfig::loop_rounds`]), returning
    /// the segment's outcome together with a resumable
    /// [`RunCheckpoint`](crate::persist::RunCheckpoint) that carries the
    /// fleet, the full-run configuration, and the cumulative accounting.
    /// Persist the checkpoint with
    /// [`RunCheckpoint::save`](crate::persist::RunCheckpoint::save) and
    /// continue later with
    /// [`RunCheckpoint::resume`](crate::persist::RunCheckpoint::resume).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ProtocolRun::execute`].
    pub fn execute_segment(
        self,
        rounds: usize,
    ) -> Result<(ProtocolOutcome, crate::persist::RunCheckpoint), ProtocolError> {
        let rounds = rounds.min(self.config.loop_rounds);
        let mut seg_cfg = self.config.clone();
        seg_cfg.loop_rounds = rounds;
        let segment = ProtocolRun {
            fleet: self.fleet,
            config: seg_cfg,
            faults: self.faults,
            driver: self.driver,
            sim: self.sim.clone(),
        }
        .execute()?;
        let checkpoint = crate::persist::RunCheckpoint {
            fleet: self.fleet.clone(),
            config: self.config,
            rounds_done: rounds,
            report: segment.report.clone(),
            nodes: segment.nodes.clone(),
            driver: self.driver,
            seed: self.sim.seed,
            jitter: self.sim.jitter,
        };
        Ok((segment, checkpoint))
    }
}

/// The centralized-system baseline of Table I: every device uploads its
/// raw training data to the cloud, which returns a customized full model
/// per device.
///
/// # Errors
///
/// None today: the transfers are only metered ([`Network::meter`]), so
/// there is no inbox to lose. The `Result` is kept for the callers.
pub fn centralized_transfers(
    fleet: &Fleet,
    samples_per_device: u64,
    bytes_per_sample: u64,
    model_params: u64,
) -> Result<TransferReport, ProtocolError> {
    let net = Network::new();
    for device in fleet.clusters().iter().flat_map(|c| c.devices()) {
        let d = NodeId::Device(device.id());
        net.meter(
            d,
            NodeId::Cloud,
            Payload::RawDataUpload {
                samples: samples_per_device,
                bytes_per_sample,
            },
        );
        net.meter(
            NodeId::Cloud,
            d,
            Payload::BackboneAssignment {
                w: 1.0,
                d: 12,
                param_count: model_params,
                measured_bytes: None,
            },
        );
    }
    Ok(net.ledger().report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_energy::{DeviceCluster, EdgeId};

    fn run_threaded(fleet: &Fleet, cfg: &ProtocolConfig) -> ProtocolOutcome {
        ProtocolRun::new(fleet)
            .config(cfg.clone())
            .execute()
            .expect("protocol run")
    }

    #[test]
    fn protocol_completes_with_expected_message_count() {
        let fleet = Fleet::paper_default(3, 4);
        let cfg = ProtocolConfig {
            loop_rounds: 2,
            ..ProtocolConfig::default()
        };
        let out = run_threaded(&fleet, &cfg);
        assert_eq!(out.rounds_completed, 2);
        let s = 3u64;
        let n = 12u64;
        let t = 2u64;
        // attribute + assignment per edge, header per device, 2 messages
        // per device per loop round.
        let expected = s + s + n + t * n * 2;
        assert_eq!(out.report.messages, expected);
        // Fault-free: no retransmissions, nobody dropped, full statuses.
        assert_eq!(out.report.retransmissions, 0);
        assert_eq!(out.nodes.len(), 1 + 3 + 12);
        assert!(out.dropped_nodes().is_empty());
        assert_eq!(out.total_retries(), 0);
        for status in &out.nodes {
            match status.node {
                NodeId::Device(_) => assert_eq!(status.completed_rounds, 2),
                NodeId::Edge(_) => assert_eq!(status.completed_rounds, 2),
                NodeId::Cloud => assert_eq!(status.completed_rounds, 3),
            }
        }
    }

    #[test]
    fn builder_runs_on_the_sim_driver() {
        let fleet = Fleet::paper_default(2, 3);
        let cfg = ProtocolConfig {
            loop_rounds: 2,
            ..ProtocolConfig::default()
        };
        let threaded = run_threaded(&fleet, &cfg);
        let sim = ProtocolRun::new(&fleet)
            .config(cfg.clone())
            .driver(DriverKind::Sim)
            .seed(9)
            .execute()
            .expect("sim run");
        assert_eq!(threaded, sim, "fault-free drivers agree bit-for-bit");
    }

    #[test]
    fn uplink_is_dominated_by_importance_sets() {
        let fleet = Fleet::paper_default(2, 5);
        let cfg = ProtocolConfig {
            loop_rounds: 3,
            ..ProtocolConfig::default()
        };
        let out = run_threaded(&fleet, &cfg);
        let imp = out
            .report
            .per_kind
            .iter()
            .find(|r| r.kind == "importance-upload")
            .expect("importance rows");
        assert_eq!(imp.messages, 2 * 5 * 3);
        // Importance uploads flow only toward the cloud.
        assert_eq!(imp.downlink_bytes, 0);
        assert!(out.report.uplink_bytes > 0);
        // ACME never uploads raw data.
        assert!(out
            .report
            .per_kind
            .iter()
            .all(|r| r.kind != "raw-data-upload"));
    }

    #[test]
    fn acme_uploads_far_less_than_centralized() {
        let fleet = Fleet::paper_default(2, 5);
        let acme = run_threaded(&fleet, &ProtocolConfig::default());
        // CIFAR-scale: 500 samples of 3 KiB each per device.
        let cs = centralized_transfers(&fleet, 500, 3072, 1_000_000).expect("baseline run");
        assert!(
            acme.report.uplink_bytes * 5 < cs.uplink_bytes,
            "acme {} vs cs {}",
            acme.report.uplink_bytes,
            cs.uplink_bytes
        );
    }

    #[test]
    fn centralized_report_keeps_direction_per_kind() {
        let fleet = Fleet::paper_default(2, 3);
        let cs = centralized_transfers(&fleet, 10, 100, 1_000).expect("baseline run");
        let raw = cs
            .per_kind
            .iter()
            .find(|r| r.kind == "raw-data-upload")
            .expect("raw rows");
        assert!(raw.uplink_bytes > 0);
        assert_eq!(raw.downlink_bytes, 0);
        let model = cs
            .per_kind
            .iter()
            .find(|r| r.kind == "backbone-assignment")
            .expect("model rows");
        assert_eq!(model.uplink_bytes, 0);
        assert!(model.downlink_bytes > 0);
    }

    #[test]
    fn transfer_volume_scales_with_loop_rounds() {
        let fleet = Fleet::paper_default(2, 3);
        let short = run_threaded(
            &fleet,
            &ProtocolConfig {
                loop_rounds: 1,
                ..ProtocolConfig::default()
            },
        );
        let long = run_threaded(
            &fleet,
            &ProtocolConfig {
                loop_rounds: 4,
                ..ProtocolConfig::default()
            },
        );
        assert!(long.report.total_bytes > short.report.total_bytes);
    }

    #[test]
    fn rounds_completed_is_min_over_devices_and_zero_for_empty_fleet() {
        // Regression: the old implementation reported the *last-joined*
        // device's count and `loop_rounds` for a deviceless fleet.
        let empty = Fleet::new(vec![DeviceCluster::new(EdgeId(0), Vec::new())]);
        let cfg = ProtocolConfig {
            loop_rounds: 3,
            ..ProtocolConfig::default()
        };
        let out = run_threaded(&empty, &cfg);
        assert_eq!(out.rounds_completed, 0, "no devices -> zero rounds");
        // The edge itself idles through its (deviceless) rounds rather
        // than failing: quorum is capped at the cluster size.
        let edge = out.node(NodeId::Edge(EdgeId(0))).expect("edge status");
        assert_eq!(edge.dropped_at, None);
        assert_eq!(edge.completed_rounds, 3);
        // Setup traffic still flows: attribute report + assignment.
        assert_eq!(out.report.messages, 2);
    }

    #[test]
    fn empty_cluster_does_not_hold_back_populated_ones() {
        let mut clusters = Fleet::paper_default(1, 3).clusters().to_vec();
        clusters.push(DeviceCluster::new(EdgeId(1), Vec::new()));
        let fleet = Fleet::new(clusters);
        let cfg = ProtocolConfig {
            loop_rounds: 2,
            ..ProtocolConfig::default()
        };
        let out = run_threaded(&fleet, &cfg);
        // Min over existing devices only: the deviceless cluster
        // contributes no device statuses.
        assert_eq!(out.rounds_completed, 2);
        assert!(out.dropped_nodes().is_empty());
    }

    #[test]
    fn duplicate_node_ids_surface_as_register_errors() {
        // Two clusters sharing an edge id: structural misconfiguration,
        // not a degradable fault.
        let fleet = Fleet::new(vec![
            DeviceCluster::new(EdgeId(0), Vec::new()),
            DeviceCluster::new(EdgeId(0), Vec::new()),
        ]);
        let err = ProtocolRun::new(&fleet).execute().unwrap_err();
        assert!(matches!(err, ProtocolError::Register(_)));
        assert!(err.to_string().contains("edge-0"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn retry_policy_backoff_doubles_up_to_cap() {
        let p = RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(35),
        };
        assert_eq!(p.attempt_timeout(0), Duration::from_millis(10));
        assert_eq!(p.attempt_timeout(1), Duration::from_millis(20));
        assert_eq!(p.attempt_timeout(2), Duration::from_millis(35));
        assert_eq!(p.attempt_timeout(3), Duration::from_millis(35));
        assert_eq!(p.round_budget(), Duration::from_millis(10 + 20 + 35 + 35));
        // The edge's collection deadline excludes the final window.
        assert_eq!(p.collection_deadline(), Duration::from_millis(10 + 20 + 35));
        // Huge attempt indices saturate instead of overflowing.
        assert_eq!(p.attempt_timeout(u32::MAX), Duration::from_millis(35));
        // A single-attempt policy still waits one full window.
        let one = RetryPolicy {
            max_attempts: 1,
            ..p
        };
        assert_eq!(one.collection_deadline(), Duration::from_millis(10));
    }

    #[test]
    fn retry_policy_cap_smaller_than_base_clamps_every_attempt() {
        // A cap below the base truncates even the first window: every
        // attempt costs exactly `cap` and the budgets are flat sums.
        let p = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(25),
        };
        for attempt in 0..5 {
            assert_eq!(p.attempt_timeout(attempt), Duration::from_millis(25));
        }
        assert_eq!(p.round_budget(), Duration::from_millis(3 * 25));
        assert_eq!(p.collection_deadline(), Duration::from_millis(2 * 25));
        // Degenerate single-attempt variant: the deadline floor keeps
        // one full (capped) window.
        let one = RetryPolicy {
            max_attempts: 1,
            ..p
        };
        assert_eq!(one.round_budget(), Duration::from_millis(25));
        assert_eq!(one.collection_deadline(), Duration::from_millis(25));
    }

    #[test]
    fn zero_max_attempts_means_no_retries_not_zero_wait() {
        // Regression: `max_attempts == 0` used to underflow the budget
        // sums into empty ranges reporting zero patience while the recv
        // loops still waited once — receivers would declare peers gone
        // before a first reply could possibly arrive.
        let p = RetryPolicy {
            max_attempts: 0,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(40),
        };
        assert_eq!(p.effective_attempts(), 1);
        assert_eq!(p.round_budget(), Duration::from_millis(10));
        assert_eq!(p.collection_deadline(), Duration::from_millis(10));
        // "0" and "1" are the same policy: one wait, no retransmissions.
        let one = RetryPolicy {
            max_attempts: 1,
            ..p.clone()
        };
        assert_eq!(p.round_budget(), one.round_budget());
        assert_eq!(p.collection_deadline(), one.collection_deadline());
        assert_eq!(one.effective_attempts(), 1);
    }

    #[test]
    fn protocol_completes_with_zero_retry_attempts() {
        // "No retries" still grants every wait one full timeout window,
        // so a healthy in-process fleet finishes its whole schedule.
        let fleet = Fleet::paper_default(2, 3);
        let cfg = ProtocolConfig {
            loop_rounds: 2,
            retry: RetryPolicy {
                max_attempts: 0,
                base: Duration::from_millis(250),
                cap: Duration::from_millis(250),
            },
            ..ProtocolConfig::default()
        };
        let out = run_threaded(&fleet, &cfg);
        assert_eq!(out.rounds_completed, 2);
        assert!(out.dropped_nodes().is_empty());
        assert_eq!(out.report.retransmissions, 0);
        // Observability is runtime-disabled here: no trace is attached,
        // and outcome equality ignores the trace field regardless.
        assert!(out.trace.is_none());
    }

    #[test]
    fn invalid_jitter_is_a_typed_error_not_a_panic() {
        let fleet = Fleet::paper_default(1, 1);
        for jitter in [f64::NAN, f64::INFINITY, -0.1] {
            let run = ProtocolRun::new(&fleet).jitter(jitter);
            let err = run.clone().driver(DriverKind::Sim).execute().unwrap_err();
            assert_eq!(err, ProtocolError::InvalidJitter, "jitter {jitter}");
            assert!(err.to_string().contains("jitter"));
            // The threaded driver has no virtual links to jitter.
            assert!(run.execute().is_ok());
        }
    }

    #[test]
    fn protocol_error_display_names_the_node() {
        let e = ProtocolError::Send(SendError::UnknownNode(NodeId::Cloud));
        assert!(std::error::Error::source(&e).is_some());
        let e = ProtocolError::Register(RegisterError {
            node: NodeId::Cloud,
        });
        assert!(e.to_string().contains("cloud"));
    }

    #[test]
    fn drop_point_display() {
        assert_eq!(DropPoint::Setup.to_string(), "setup");
        assert_eq!(DropPoint::Round(2).to_string(), "round 2");
    }
}
