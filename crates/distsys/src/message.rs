//! Typed protocol messages with explicit wire-size accounting.
//!
//! A message body holds what the protocol reads and no tensor data: its
//! kind, its round and its size. Weight and importance payloads are
//! represented by their lengths (or measured byte counts), which is all
//! [`Payload::wire_bytes`] charges and all the simulator needs to move
//! them through a fleet.

use acme_energy::{DeviceCluster, DeviceId, EdgeId};

use crate::fault::fnv1a;

/// Address of a node in the three-tier hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeId {
    /// The cloud server `C`.
    Cloud,
    /// Edge server `s_s`.
    Edge(EdgeId),
    /// Device `n`.
    Device(DeviceId),
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Cloud => write!(f, "cloud"),
            NodeId::Edge(e) => write!(f, "{e}"),
            NodeId::Device(d) => write!(f, "{d}"),
        }
    }
}

/// A protocol message body: sizes, not stand-in data. Weight payloads
/// are their parameter counts or measured byte counts, importance sets
/// are their lengths, and the re-customization delta is its encoded
/// size, so the ledger meters bytes without any tensor travelling
/// through channels or the simulator's event queue.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Edge → cloud: statistical attributes of the device cluster
    /// (backbone-customization uplink).
    AttributeReport {
        /// `|N_s|`.
        device_count: usize,
        /// `min_n C_n` in parameters.
        min_storage: u64,
        /// Weakest GPU in the cluster.
        min_gpu: f64,
        /// Strongest GPU in the cluster.
        max_gpu: f64,
    },
    /// Cloud → edge: the assigned backbone `δ(θ₀, w, d)` with its
    /// weights.
    BackboneAssignment {
        /// Width factor.
        w: f64,
        /// Depth.
        d: usize,
        /// Parameters shipped (weights payload, 4 bytes each).
        param_count: u64,
        /// Measured weight-payload bytes when the deployment ships from
        /// a content-addressed model store (the serialized backbone
        /// blob); `None` falls back to the `4·param_count` estimate.
        measured_bytes: Option<u64>,
    },
    /// Edge → device: the coarse header architecture and its shared
    /// weights (plus the backbone reference the device already holds).
    HeaderSpec {
        /// The `4B` architecture tokens.
        tokens: Vec<usize>,
        /// Module repetitions.
        u: usize,
        /// Header weight parameters shipped.
        param_count: u64,
        /// Measured weight-payload bytes when the deployment ships a
        /// structural variant delta against a backbone the device
        /// already stores (`VariantDelta::bytes()` in `acme-store`);
        /// `None` falls back to the `4·param_count` estimate.
        measured_bytes: Option<u64>,
    },
    /// Device → edge (loop uplink): the importance set `Q_n` (Eq. 18).
    ImportanceUpload {
        /// Single-loop round this set belongs to (0-based). Rides in the
        /// 16-byte routing header already charged per message, so it
        /// adds no wire bytes; it lets receivers deduplicate retransmits
        /// and discard stale copies.
        round: usize,
        /// Importance scores in the set, one per header parameter
        /// (4 bytes each on the wire).
        len: usize,
    },
    /// Edge → device (loop downlink): the personalized set `Q'_n`
    /// (Eq. 21).
    PersonalizedImportance {
        /// Single-loop round this set answers (0-based); part of the
        /// routing header, see [`Payload::ImportanceUpload::round`].
        round: usize,
        /// Aggregated importance scores in the set (4 bytes each).
        len: usize,
    },
    /// Edge → device (online re-customization): a structural variant
    /// delta that re-personalizes a deployed header after drift, charged
    /// at the delta's encoded size instead of a cold-start deploy.
    RecustomizeDelta {
        /// Re-customization round this delta belongs to (0-based); part
        /// of the routing header, see
        /// [`Payload::ImportanceUpload::round`].
        round: usize,
        /// The delta's measured `VariantDelta::bytes()`.
        bytes: u64,
    },
    /// Device → cloud (centralized baseline only): raw training data.
    RawDataUpload {
        /// Sample count.
        samples: u64,
        /// Bytes per sample.
        bytes_per_sample: u64,
    },
    /// Control acknowledgement / loop termination.
    Ack,
}

/// The physical tier a payload kind travels on, used by
/// [`crate::LinkModel`] to route transfer-time estimates. Deriving the
/// class from the payload (exhaustively) instead of string-matching kind
/// labels means a new payload kind cannot silently fall through to the
/// wrong link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Device ↔ edge traffic (LAN-ish).
    DeviceEdge,
    /// Traffic that touches the cloud (WAN-ish).
    EdgeCloud,
}

impl Payload {
    /// The attribute report an edge sends for `cluster`: its size, its
    /// smallest storage limit and its GPU range. An empty cluster, or one
    /// whose capacities are not finite, reports a GPU bound of 0.
    pub fn attribute_report(cluster: &DeviceCluster) -> Payload {
        let gpus = cluster.devices().iter().map(|d| d.gpu_capacity());
        let finite_or_zero = |x: f64| if x.is_finite() { x } else { 0.0 };
        Payload::AttributeReport {
            device_count: cluster.devices().len(),
            min_storage: cluster.min_storage(),
            min_gpu: finite_or_zero(gpus.clone().fold(f64::INFINITY, f64::min)),
            max_gpu: finite_or_zero(gpus.fold(f64::NEG_INFINITY, f64::max)),
        }
    }

    /// Bytes this message occupies on the wire. Weights and importance
    /// values are 4-byte floats; architecture tokens 2 bytes; attribute
    /// scalars 8 bytes; a 16-byte routing header (which carries the loop
    /// round tag) is charged per message. Weight payloads carrying a
    /// `measured_bytes` (deploys shipped from the content-addressed
    /// model store) are charged that measured size instead of the
    /// `4·param_count` estimate, and a re-customization delta is charged
    /// its measured size.
    pub fn wire_bytes(&self) -> u64 {
        const HEADER: u64 = 16;
        HEADER
            + match self {
                Payload::AttributeReport { .. } => 4 * 8,
                Payload::BackboneAssignment {
                    param_count,
                    measured_bytes,
                    ..
                } => 16 + measured_bytes.unwrap_or(4 * param_count),
                Payload::HeaderSpec {
                    tokens,
                    param_count,
                    measured_bytes,
                    ..
                } => 8 + 2 * tokens.len() as u64 + measured_bytes.unwrap_or(4 * param_count),
                Payload::ImportanceUpload { len, .. }
                | Payload::PersonalizedImportance { len, .. } => 4 * *len as u64,
                Payload::RecustomizeDelta { bytes, .. } => *bytes,
                Payload::RawDataUpload {
                    samples,
                    bytes_per_sample,
                } => samples * bytes_per_sample,
                Payload::Ack => 0,
            }
    }

    /// The link tier this payload kind travels on. The match is
    /// exhaustive so adding a payload kind forces a routing decision.
    pub fn link_class(&self) -> LinkClass {
        match self {
            Payload::HeaderSpec { .. }
            | Payload::ImportanceUpload { .. }
            | Payload::PersonalizedImportance { .. }
            | Payload::RecustomizeDelta { .. } => LinkClass::DeviceEdge,
            // Attribute reports and backbone weights cross the WAN; raw
            // data (centralized baseline) goes straight to the cloud;
            // control acks are charged at the coordinator tier.
            Payload::AttributeReport { .. }
            | Payload::BackboneAssignment { .. }
            | Payload::RawDataUpload { .. }
            | Payload::Ack => LinkClass::EdgeCloud,
        }
    }

    /// Short kind label used by the ledger's per-kind breakdown.
    pub fn kind(&self) -> &'static str {
        KINDS[self.kind_index()]
    }

    /// Dense index of this payload's kind into [`KINDS`], so per-kind
    /// tables are arrays rather than maps keyed by the label.
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            Payload::Ack => 0,
            Payload::AttributeReport { .. } => 1,
            Payload::BackboneAssignment { .. } => 2,
            Payload::HeaderSpec { .. } => 3,
            Payload::ImportanceUpload { .. } => 4,
            Payload::PersonalizedImportance { .. } => 5,
            Payload::RawDataUpload { .. } => 6,
            Payload::RecustomizeDelta { .. } => 7,
        }
    }

    /// [`fnv1a`] of [`Payload::kind`], computed at compile time: what the
    /// simulator's hashes fold in for the kind.
    pub(crate) fn kind_tag(&self) -> u64 {
        KIND_TAGS[self.kind_index()]
    }
}

/// Every [`Payload::kind`] label, at its [`Payload::kind_index`]. Sorted,
/// so walking a kind-indexed table visits the kinds in label order.
pub(crate) const KINDS: [&str; 8] = [
    "ack",
    "attribute-report",
    "backbone-assignment",
    "header-spec",
    "importance-upload",
    "personalized-importance",
    "raw-data-upload",
    "recustomize-delta",
];

const KIND_TAGS: [u64; KINDS.len()] = {
    let mut tags = [0; KINDS.len()];
    let mut i = 0;
    while i < KINDS.len() {
        tags[i] = fnv1a(KINDS[i]);
        i += 1;
    }
    tags
};

/// A routed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Body.
    pub payload: Payload,
}

impl Envelope {
    /// Whether this transfer flows toward the cloud (device → edge or
    /// edge → cloud), i.e. counts as *upload* in Table I.
    pub fn is_uplink(&self) -> bool {
        matches!(
            (&self.from, &self.to),
            (NodeId::Device(_), NodeId::Edge(_))
                | (NodeId::Edge(_), NodeId::Cloud)
                | (NodeId::Device(_), NodeId::Cloud)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_formulas() {
        let attr = Payload::AttributeReport {
            device_count: 5,
            min_storage: 1,
            min_gpu: 1.0,
            max_gpu: 2.0,
        };
        assert_eq!(attr.wire_bytes(), 16 + 32);
        let bb = Payload::BackboneAssignment {
            w: 1.0,
            d: 12,
            param_count: 100,
            measured_bytes: None,
        };
        assert_eq!(bb.wire_bytes(), 16 + 16 + 400);
        let hs = Payload::HeaderSpec {
            tokens: vec![0; 12],
            u: 2,
            param_count: 10,
            measured_bytes: None,
        };
        assert_eq!(hs.wire_bytes(), 16 + 8 + 24 + 40);
        let imp = Payload::ImportanceUpload { round: 2, len: 7 };
        // The round tag is part of the 16-byte routing header: no extra
        // wire bytes.
        assert_eq!(imp.wire_bytes(), 16 + 28);
        let fused = Payload::PersonalizedImportance { round: 2, len: 7 };
        assert_eq!(fused.wire_bytes(), imp.wire_bytes());
        let raw = Payload::RawDataUpload {
            samples: 10,
            bytes_per_sample: 3072,
        };
        assert_eq!(raw.wire_bytes(), 16 + 30720);
        assert_eq!(Payload::Ack.wire_bytes(), 16);
    }

    #[test]
    fn measured_bytes_override_the_param_count_estimate() {
        // A store-shipped backbone blob is charged at its measured size,
        // not 4 bytes per parameter.
        let bb = Payload::BackboneAssignment {
            w: 1.0,
            d: 12,
            param_count: 100,
            measured_bytes: Some(123),
        };
        assert_eq!(bb.wire_bytes(), 16 + 16 + 123);
        // A variant delta can be far smaller than the dense header it
        // replaces; the ledger sees the delta's true wire size.
        let hs = Payload::HeaderSpec {
            tokens: vec![0; 12],
            u: 2,
            param_count: 1000,
            measured_bytes: Some(64),
        };
        assert_eq!(hs.wire_bytes(), 16 + 8 + 24 + 64);
    }

    #[test]
    fn recustomize_delta_rides_the_lan_at_delta_size() {
        // The ledger charges the measured variant delta.
        let delta = Payload::RecustomizeDelta {
            round: 3,
            bytes: 72,
        };
        assert_eq!(delta.wire_bytes(), 16 + 72);
        assert_eq!(delta.link_class(), LinkClass::DeviceEdge);
        assert_eq!(delta.kind(), "recustomize-delta");
    }

    #[test]
    fn uplink_classification() {
        use acme_energy::{DeviceId, EdgeId};
        let up = Envelope {
            from: NodeId::Device(DeviceId(0)),
            to: NodeId::Edge(EdgeId(0)),
            payload: Payload::Ack,
        };
        assert!(up.is_uplink());
        let down = Envelope {
            from: NodeId::Cloud,
            to: NodeId::Edge(EdgeId(0)),
            payload: Payload::Ack,
        };
        assert!(!down.is_uplink());
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            Payload::Ack.kind(),
            Payload::ImportanceUpload { round: 0, len: 0 }.kind(),
            Payload::PersonalizedImportance { round: 0, len: 0 }.kind(),
            Payload::RawDataUpload {
                samples: 0,
                bytes_per_sample: 0,
            }
            .kind(),
        ];
        let mut unique = kinds.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), kinds.len());
    }

    #[test]
    fn kind_table_is_sorted_dense_and_tagged() {
        let every = [
            Payload::Ack,
            Payload::AttributeReport {
                device_count: 0,
                min_storage: 0,
                min_gpu: 0.0,
                max_gpu: 0.0,
            },
            Payload::BackboneAssignment {
                w: 1.0,
                d: 1,
                param_count: 0,
                measured_bytes: None,
            },
            Payload::HeaderSpec {
                tokens: vec![],
                u: 1,
                param_count: 0,
                measured_bytes: None,
            },
            Payload::ImportanceUpload { round: 0, len: 0 },
            Payload::PersonalizedImportance { round: 0, len: 0 },
            Payload::RawDataUpload {
                samples: 0,
                bytes_per_sample: 0,
            },
            Payload::RecustomizeDelta { round: 0, bytes: 0 },
        ];
        for (i, p) in every.iter().enumerate() {
            assert_eq!(p.kind_index(), i, "{}", p.kind());
            assert_eq!(p.kind_tag(), fnv1a(p.kind()));
        }
        assert!(KINDS.windows(2).all(|w| w[0] < w[1]), "{KINDS:?}");
        assert_eq!(Payload::Ack.kind(), "ack");
        assert_eq!(every[6].kind(), "raw-data-upload");
    }

    #[test]
    fn link_classes_route_device_traffic_to_lan() {
        assert_eq!(
            Payload::ImportanceUpload { round: 0, len: 0 }.link_class(),
            LinkClass::DeviceEdge
        );
        assert_eq!(
            Payload::HeaderSpec {
                tokens: vec![],
                u: 1,
                param_count: 0,
                measured_bytes: None
            }
            .link_class(),
            LinkClass::DeviceEdge
        );
        assert_eq!(
            Payload::RawDataUpload {
                samples: 1,
                bytes_per_sample: 1
            }
            .link_class(),
            LinkClass::EdgeCloud
        );
        assert_eq!(
            Payload::AttributeReport {
                device_count: 0,
                min_storage: 0,
                min_gpu: 0.0,
                max_gpu: 0.0
            }
            .link_class(),
            LinkClass::EdgeCloud
        );
    }

    #[test]
    fn node_display() {
        use acme_energy::{DeviceId, EdgeId};
        assert_eq!(NodeId::Cloud.to_string(), "cloud");
        assert_eq!(NodeId::Edge(EdgeId(3)).to_string(), "edge-3");
        assert_eq!(NodeId::Device(DeviceId(9)).to_string(), "device-9");
    }
}
