//! Persist and resume long protocol runs through the content-addressed
//! model store.
//!
//! A [`RunCheckpoint`] captures everything a fleet run needs to pick up
//! where it stopped: the fleet topology, the full-run
//! [`ProtocolConfig`], the loop rounds already completed, and the
//! cumulative transfer/status accounting. It serializes to a single
//! digest-trailed `ACMR` blob whose [`ContentHash`] address doubles as
//! its integrity check, so a restarted process can
//! [`load`](RunCheckpoint::load) it from the same
//! [`ModelStore`](acme_store::ModelStore) that holds the fleet's
//! backbone blobs and variant deltas, and
//! [`resume`](RunCheckpoint::resume) the remaining rounds.
//!
//! Resuming replays the schedule's setup phase (attribute report,
//! backbone assignment, header distribution) because every node state
//! machine starts from its initial state — the merged report therefore
//! meters one extra setup phase per resume, while the loop-round
//! traffic adds up exactly as if the run had never stopped. Fault plans
//! are not serialized; a resumed run executes fault-free unless the
//! caller re-injects a plan via
//! [`ProtocolRun::execute_segment`].
//!
//! `ACMR` body grammar (inside the [`acme_store::wire`] frame; ids,
//! rounds and sizes are `u64`):
//!
//! ```text
//! cluster count u32 (>= 1)
//! per cluster: edge id | device count u32
//!   per device: id | gpu f64 | storage | patches | batch size
//! config: loop rounds | backbone params | header params | header tokens
//!         | importance len | retry attempts u32 | retry base ns
//!         | retry cap ns | min quorum | deploy tag u8 (1 adds backbone
//!         bytes | variant bytes)
//! rounds done | driver u8 | seed | jitter f64 (finite, >= 0)
//! report: messages | total | uplink | retransmissions | retransmitted
//!         bytes | row count u32
//!   per row: kind (u32 len + UTF-8) | messages | uplink | downlink | link u8
//! node count u32, per node: kind u8 | id | completed rounds
//!   | drop tag u8 (2 adds round) | retries
//!   (the fleet's nodes in order: cloud, then each edge and its devices)
//! ```

use acme_energy::{Device, DeviceCluster, DeviceId, EdgeId, Fleet};
use acme_store::{
    wire, ByteReader, ByteWriter, Codec, ContentHash, ModelStore, StoreError, WireError,
};

use crate::ledger::{KindRow, TransferReport};
use crate::message::{LinkClass, NodeId};
use crate::protocol::{
    DriverKind, DropPoint, MeasuredDeploy, NodeStatus, ProtocolConfig, ProtocolError,
    ProtocolOutcome, ProtocolRun, RetryPolicy,
};

/// A resumable snapshot of a partially executed protocol run.
///
/// Produced by [`ProtocolRun::execute_segment`]; round-trips through a
/// [`ModelStore`] via [`save`](RunCheckpoint::save) /
/// [`load`](RunCheckpoint::load).
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    /// The fleet the run executes over.
    pub fleet: Fleet,
    /// The full-run configuration ([`ProtocolConfig::loop_rounds`] is
    /// the total schedule length, not the segment's).
    pub config: ProtocolConfig,
    /// Loop rounds completed across all finished segments.
    pub rounds_done: usize,
    /// Cumulative transfer accounting over all finished segments.
    pub report: TransferReport,
    /// Cumulative per-node statuses (cloud first, then each cluster's
    /// edge followed by its devices, in fleet order).
    pub nodes: Vec<NodeStatus>,
    /// Driver the run executes on.
    pub driver: DriverKind,
    /// Sim-driver jitter seed.
    pub seed: u64,
    /// Sim-driver relative latency jitter.
    pub jitter: f64,
}

impl RunCheckpoint {
    /// Loop rounds still to run.
    pub fn remaining_rounds(&self) -> usize {
        self.config.loop_rounds.saturating_sub(self.rounds_done)
    }

    /// Whether the full schedule has been executed.
    pub fn is_complete(&self) -> bool {
        self.remaining_rounds() == 0
    }

    /// The cumulative outcome of the segments executed so far.
    pub fn outcome(&self) -> ProtocolOutcome {
        ProtocolOutcome::new(self.nodes.clone(), self.report.clone(), None)
    }

    /// Runs all remaining loop rounds and returns the full-run outcome:
    /// the stored accounting merged with the final segment's.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ProtocolRun::execute`].
    pub fn resume(&self) -> Result<ProtocolOutcome, ProtocolError> {
        let ck = self.resume_segment(self.remaining_rounds())?;
        Ok(ck.outcome())
    }

    /// Runs the next `rounds` loop rounds (clamped to what remains) and
    /// returns the advanced checkpoint, allowing a run to be split into
    /// arbitrarily many persisted segments.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ProtocolRun::execute`].
    pub fn resume_segment(&self, rounds: usize) -> Result<RunCheckpoint, ProtocolError> {
        let rounds = rounds.min(self.remaining_rounds());
        if rounds == 0 {
            return Ok(self.clone());
        }
        let mut seg_cfg = self.config.clone();
        seg_cfg.loop_rounds = rounds;
        let segment = ProtocolRun::new(&self.fleet)
            .config(seg_cfg)
            .driver(self.driver)
            .seed(self.seed)
            .jitter(self.jitter)
            .execute()?;
        let mut next = self.clone();
        next.rounds_done += rounds;
        next.report = self.report.merged(&segment.report);
        next.nodes = merge_statuses(&self.nodes, &segment.nodes, self.rounds_done);
        Ok(next)
    }

    /// Stores the serialized checkpoint as a content-addressed blob.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError::Io`] from a directory-backed store.
    pub fn save(&self, store: &mut ModelStore) -> Result<ContentHash, StoreError> {
        store.put(self.to_bytes())
    }

    /// Loads and deserializes a checkpoint blob.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`]/[`StoreError::Corrupt`] from the store,
    /// [`StoreError::Wire`] for a malformed blob.
    pub fn load(store: &ModelStore, hash: ContentHash) -> Result<RunCheckpoint, StoreError> {
        Ok(RunCheckpoint::from_bytes(&store.get(hash)?)?)
    }

    /// Serializes to a sealed `ACMR` blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::seal(self)
    }

    /// Parses a sealed `ACMR` blob; see [`wire::open`] for the check
    /// order.
    pub fn from_bytes(bytes: &[u8]) -> Result<RunCheckpoint, WireError> {
        wire::open(bytes)
    }
}

impl Codec for RunCheckpoint {
    const MAGIC: [u8; 4] = *b"ACMR";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut ByteWriter) {
        // Fleet topology.
        w.count(self.fleet.clusters().len());
        for cluster in self.fleet.clusters() {
            w.usize(cluster.edge().0);
            w.count(cluster.devices().len());
            for d in cluster.devices() {
                w.usize(d.id().0);
                w.f64(d.gpu_capacity());
                w.u64(d.storage_limit());
                w.usize(d.num_patches());
                w.usize(d.batch_size());
            }
        }
        // Full-run configuration.
        w.usize(self.config.loop_rounds);
        w.u64(self.config.backbone_params);
        w.u64(self.config.header_params);
        w.usize(self.config.header_tokens);
        w.usize(self.config.importance_len);
        w.u32(self.config.retry.max_attempts);
        w.u64(duration_nanos(self.config.retry.base));
        w.u64(duration_nanos(self.config.retry.cap));
        w.usize(self.config.min_quorum);
        match self.config.deploy {
            None => w.u8(0),
            Some(m) => {
                w.u8(1);
                w.u64(m.backbone_bytes);
                w.u64(m.variant_bytes);
            }
        }
        // Progress and driver selection.
        w.usize(self.rounds_done);
        w.u8(match self.driver {
            DriverKind::Threaded => 0,
            DriverKind::Sim => 1,
        });
        w.u64(self.seed);
        w.f64(self.jitter);
        // Cumulative transfer report.
        w.u64(self.report.messages);
        w.u64(self.report.total_bytes);
        w.u64(self.report.uplink_bytes);
        w.u64(self.report.retransmissions);
        w.u64(self.report.retransmitted_bytes);
        w.count(self.report.per_kind.len());
        for row in &self.report.per_kind {
            w.str(&row.kind);
            w.u64(row.messages);
            w.u64(row.uplink_bytes);
            w.u64(row.downlink_bytes);
            w.u8(match row.link {
                LinkClass::DeviceEdge => 0,
                LinkClass::EdgeCloud => 1,
            });
        }
        // Cumulative node statuses.
        w.count(self.nodes.len());
        for s in &self.nodes {
            match s.node {
                NodeId::Cloud => {
                    w.u8(0);
                    w.u64(0);
                }
                NodeId::Edge(e) => {
                    w.u8(1);
                    w.usize(e.0);
                }
                NodeId::Device(d) => {
                    w.u8(2);
                    w.usize(d.0);
                }
            }
            w.usize(s.completed_rounds);
            match s.dropped_at {
                None => w.u8(0),
                Some(DropPoint::Setup) => w.u8(1),
                Some(DropPoint::Round(r)) => {
                    w.u8(2);
                    w.usize(r);
                }
            }
            w.u64(s.retries);
        }
    }

    fn decode_body(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n_clusters = r.count(12)?;
        if n_clusters == 0 {
            // `Fleet::new` asserts on an empty cluster list.
            return Err(WireError::BadShape);
        }
        let mut clusters = Vec::with_capacity(n_clusters);
        for _ in 0..n_clusters {
            let edge = EdgeId(r.usize()?);
            let n_devices = r.count(40)?;
            let mut devices = Vec::with_capacity(n_devices);
            for _ in 0..n_devices {
                let id = r.usize()?;
                let gpu = r.f64()?;
                let storage = r.u64()?;
                let patches = r.usize()?;
                let batch = r.usize()?;
                devices.push(
                    Device::new(id, gpu, storage)
                        .with_patches(patches)
                        .with_batch_size(batch),
                );
            }
            clusters.push(DeviceCluster::new(edge, devices));
        }
        let fleet = Fleet::new(clusters);
        let config = ProtocolConfig {
            loop_rounds: r.usize()?,
            backbone_params: r.u64()?,
            header_params: r.u64()?,
            header_tokens: r.usize()?,
            importance_len: r.usize()?,
            retry: RetryPolicy {
                max_attempts: r.u32()?,
                base: std::time::Duration::from_nanos(r.u64()?),
                cap: std::time::Duration::from_nanos(r.u64()?),
            },
            min_quorum: r.usize()?,
            deploy: match r.u8()? {
                0 => None,
                1 => Some(MeasuredDeploy {
                    backbone_bytes: r.u64()?,
                    variant_bytes: r.u64()?,
                }),
                t => return Err(WireError::BadTag(t)),
            },
        };
        let rounds_done = r.usize()?;
        let driver = match r.u8()? {
            0 => DriverKind::Threaded,
            1 => DriverKind::Sim,
            t => return Err(WireError::BadTag(t)),
        };
        let seed = r.u64()?;
        let jitter = r.f64()?;
        if !jitter.is_finite() || jitter < 0.0 {
            return Err(WireError::BadShape);
        }
        let messages = r.u64()?;
        let total_bytes = r.u64()?;
        let uplink_bytes = r.u64()?;
        let retransmissions = r.u64()?;
        let retransmitted_bytes = r.u64()?;
        let n_rows = r.count(29)?;
        let mut per_kind = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            per_kind.push(KindRow {
                kind: r.str()?,
                messages: r.u64()?,
                uplink_bytes: r.u64()?,
                downlink_bytes: r.u64()?,
                link: match r.u8()? {
                    0 => LinkClass::DeviceEdge,
                    1 => LinkClass::EdgeCloud,
                    t => return Err(WireError::BadTag(t)),
                },
            });
        }
        let report = TransferReport {
            messages,
            total_bytes,
            uplink_bytes,
            retransmissions,
            retransmitted_bytes,
            per_kind,
        };
        let n_nodes = r.count(26)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let node = match r.u8()? {
                0 => {
                    r.u64()?;
                    NodeId::Cloud
                }
                1 => NodeId::Edge(EdgeId(r.usize()?)),
                2 => NodeId::Device(DeviceId(r.usize()?)),
                t => return Err(WireError::BadTag(t)),
            };
            let completed_rounds = r.usize()?;
            let dropped_at = match r.u8()? {
                0 => None,
                1 => Some(DropPoint::Setup),
                2 => Some(DropPoint::Round(r.usize()?)),
                t => return Err(WireError::BadTag(t)),
            };
            let retries = r.u64()?;
            nodes.push(NodeStatus {
                node,
                completed_rounds,
                dropped_at,
                retries,
            });
        }
        // `resume_segment` merges these with a fresh run's statuses
        // position by position, so they must be the fleet's own nodes.
        if !nodes.iter().map(|s| s.node).eq(fleet_nodes(&fleet)) {
            return Err(WireError::BadShape);
        }
        Ok(RunCheckpoint {
            fleet,
            config,
            rounds_done,
            report,
            nodes,
            driver,
            seed,
            jitter,
        })
    }
}

/// The fleet's nodes in status order: cloud first, then each cluster's
/// edge followed by its devices.
fn fleet_nodes(fleet: &Fleet) -> impl Iterator<Item = NodeId> + '_ {
    std::iter::once(NodeId::Cloud).chain(fleet.clusters().iter().flat_map(|c| {
        std::iter::once(NodeId::Edge(c.edge()))
            .chain(c.devices().iter().map(|d| NodeId::Device(d.id())))
    }))
}

/// Merges the cumulative statuses with a fresh segment's: rounds and
/// retries add, and a drop in the new segment is reported at its
/// absolute round index (`offset` rounds precede the segment). Both
/// lists cover the same fleet in the same order.
fn merge_statuses(prev: &[NodeStatus], segment: &[NodeStatus], offset: usize) -> Vec<NodeStatus> {
    assert_eq!(prev.len(), segment.len(), "segments cover the same fleet");
    prev.iter()
        .zip(segment)
        .map(|(a, b)| {
            assert_eq!(a.node, b.node, "segments cover the same fleet order");
            let dropped_at = match b.dropped_at {
                Some(DropPoint::Round(r)) => Some(DropPoint::Round(offset + r)),
                other => other.or(a.dropped_at),
            };
            NodeStatus {
                node: a.node,
                completed_rounds: a.completed_rounds + b.completed_rounds,
                dropped_at,
                retries: a.retries + b.retries,
            }
        })
        .collect()
}

fn duration_nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_store::ModelStore;

    fn checkpoint_after(rounds: usize, total: usize) -> (ProtocolOutcome, RunCheckpoint) {
        let fleet = Fleet::paper_default(3, 4);
        let cfg = ProtocolConfig {
            loop_rounds: total,
            ..ProtocolConfig::default()
        };
        ProtocolRun::new(&fleet)
            .config(cfg)
            .driver(DriverKind::Sim)
            .seed(7)
            .execute_segment(rounds)
            .expect("segment run")
    }

    #[test]
    fn checkpoint_roundtrips_through_wire_and_store() {
        let (_, ck) = checkpoint_after(2, 4);
        let bytes = ck.to_bytes();
        let back = RunCheckpoint::from_bytes(&bytes).expect("parse");
        assert_eq!(back, ck);
        let mut store = ModelStore::in_memory();
        let hash = ck.save(&mut store).expect("save");
        assert_eq!(hash, ContentHash::of(&bytes));
        let loaded = RunCheckpoint::load(&store, hash).expect("load");
        assert_eq!(loaded, ck);
    }

    #[test]
    fn resumed_run_matches_straight_run_accounting() {
        let fleet = Fleet::paper_default(3, 4);
        let cfg = ProtocolConfig {
            loop_rounds: 4,
            ..ProtocolConfig::default()
        };
        let straight = ProtocolRun::new(&fleet)
            .config(cfg.clone())
            .driver(DriverKind::Sim)
            .seed(7)
            .execute()
            .expect("straight run");
        let (segment, ck) = ProtocolRun::new(&fleet)
            .config(cfg)
            .driver(DriverKind::Sim)
            .seed(7)
            .execute_segment(2)
            .expect("segment run");
        assert_eq!(segment.rounds_completed, 2);
        assert_eq!(ck.rounds_done, 2);
        assert_eq!(ck.remaining_rounds(), 2);
        assert!(!ck.is_complete());

        // Survive a full store round-trip before resuming, as a real
        // restart would.
        let mut store = ModelStore::in_memory();
        let hash = ck.save(&mut store).expect("save");
        let ck = RunCheckpoint::load(&store, hash).expect("load");

        let resumed = ck.resume().expect("resume");
        assert_eq!(resumed.rounds_completed, 4);
        assert_eq!(resumed.rounds_completed, straight.rounds_completed);

        let row = |o: &ProtocolOutcome, kind: &str| {
            o.report
                .per_kind
                .iter()
                .find(|r| r.kind == kind)
                .cloned()
                .unwrap_or_else(|| panic!("missing kind {kind}"))
        };
        // Loop-round traffic adds up exactly as if the run never
        // stopped.
        for kind in ["importance-upload", "personalized-importance"] {
            assert_eq!(row(&resumed, kind), row(&straight, kind), "{kind}");
        }
        // The resume replays the setup phase once: setup kinds double.
        for kind in ["attribute-report", "backbone-assignment", "header-spec"] {
            let r = row(&resumed, kind);
            let s = row(&straight, kind);
            assert_eq!(r.messages, 2 * s.messages, "{kind}");
            assert_eq!(r.bytes(), 2 * s.bytes(), "{kind}");
        }
        // Per-device progress matches the straight run; nobody dropped.
        for (r, s) in resumed.nodes.iter().zip(&straight.nodes) {
            assert_eq!(r.node, s.node);
            assert_eq!(r.dropped_at, None);
            if matches!(r.node, NodeId::Device(_) | NodeId::Edge(_)) {
                assert_eq!(r.completed_rounds, s.completed_rounds, "{}", r.node);
            }
        }
        assert_eq!(resumed.report.retransmissions, 0);
    }

    #[test]
    fn segments_chain_and_complete() {
        let (_, ck) = checkpoint_after(1, 3);
        let ck2 = ck.resume_segment(1).expect("second segment");
        assert_eq!(ck2.rounds_done, 2);
        let ck3 = ck2.resume_segment(5).expect("final segment clamps");
        assert_eq!(ck3.rounds_done, 3);
        assert!(ck3.is_complete());
        // Resuming a complete checkpoint is a no-op returning the
        // stored accounting.
        let done = ck3.resume().expect("no-op resume");
        assert_eq!(done, ck3.outcome());
        assert_eq!(done.rounds_completed, 3);
        assert_eq!(ck3.resume_segment(1).expect("no-op"), ck3);
    }
}
