//! Link model: estimated wall-clock time of a metered transfer schedule.
//!
//! The paper reports upload *volume* (Table I); this module extends the
//! accounting with a simple bandwidth/latency link model so the same
//! ledger can also answer "how long would this schedule take" — the
//! question the paper's latency-motivated introduction raises.

use crate::ledger::TransferReport;
use crate::message::LinkClass;

/// Rejected link parameters ([`Link::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkError {
    /// Bandwidth was zero, negative, or not finite.
    Bandwidth(f64),
    /// Round-trip latency was zero, negative, or not finite.
    Rtt(f64),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Bandwidth(b) => {
                write!(f, "link bandwidth must be positive and finite, got {b}")
            }
            LinkError::Rtt(r) => {
                write!(f, "link RTT must be positive and finite, got {r}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Bandwidth/latency parameters of one link class.
///
/// Invalid parameters are rejected at construction ([`Link::try_new`]):
/// a zero or negative bandwidth used to be silently clamped to
/// 1 byte/s inside the schedule math, turning a misconfiguration into
/// absurd-but-plausible latency estimates. The fields are private so a
/// constructed `Link` is always valid; the run checkpoint's decoder
/// builds its links through the same constructor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Usable bandwidth in bytes per second.
    bandwidth_bps: f64,
    /// Per-message round-trip setup latency in seconds.
    rtt_seconds: f64,
}

impl Link {
    /// Creates a link, rejecting non-positive or non-finite parameters.
    /// (An idealized zero-latency link should use a small positive RTT.)
    ///
    /// # Errors
    ///
    /// Returns [`LinkError`] when `bandwidth_bps` or `rtt_seconds` is
    /// zero, negative, or not finite.
    pub fn try_new(bandwidth_bps: f64, rtt_seconds: f64) -> Result<Self, LinkError> {
        if !(bandwidth_bps.is_finite() && bandwidth_bps > 0.0) {
            return Err(LinkError::Bandwidth(bandwidth_bps));
        }
        if !(rtt_seconds.is_finite() && rtt_seconds > 0.0) {
            return Err(LinkError::Rtt(rtt_seconds));
        }
        Ok(Link {
            bandwidth_bps,
            rtt_seconds,
        })
    }

    /// Usable bandwidth in bytes per second (always positive and finite).
    pub fn bandwidth_bps(&self) -> f64 {
        self.bandwidth_bps
    }

    /// Per-message round-trip setup latency in seconds (always positive
    /// and finite).
    pub fn rtt_seconds(&self) -> f64 {
        self.rtt_seconds
    }

    /// One-way flight time of a single `bytes`-sized message: half the
    /// round-trip setup plus serialization. This is what the sim driver
    /// schedules virtual deliveries with — a request/response pair over
    /// the virtual clock costs one full RTT plus both payloads, matching
    /// the one-message sequential estimate.
    pub fn one_way_seconds(&self, bytes: u64) -> f64 {
        self.rtt_seconds / 2.0 + bytes as f64 / self.bandwidth_bps
    }

    /// Time to move `bytes` over this link spread across `messages`
    /// sequential messages: one RTT per message plus the serialized
    /// payload time. Division is safe: construction guarantees a
    /// positive, finite bandwidth.
    fn schedule_seconds(&self, messages: u64, bytes: u64) -> f64 {
        messages as f64 * self.rtt_seconds + bytes as f64 / self.bandwidth_bps
    }
}

/// The three-tier topology's link classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Device ↔ edge links (LAN-ish).
    pub device_edge: Link,
    /// Edge ↔ cloud links (WAN-ish).
    pub edge_cloud: Link,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            // 100 Mbit/s LAN with 5 ms RTT.
            device_edge: Link {
                bandwidth_bps: 12.5e6,
                rtt_seconds: 0.005,
            },
            // 20 Mbit/s WAN with 40 ms RTT.
            edge_cloud: Link {
                bandwidth_bps: 2.5e6,
                rtt_seconds: 0.040,
            },
        }
    }
}

impl LinkModel {
    /// The link a payload class travels on. Matched exhaustively over
    /// [`LinkClass`], so a payload kind can never silently fall through
    /// to the wrong tier.
    pub fn link(&self, class: LinkClass) -> &Link {
        match class {
            LinkClass::DeviceEdge => &self.device_edge,
            LinkClass::EdgeCloud => &self.edge_cloud,
        }
    }

    /// Sequential wall-clock estimate of an entire transfer report. Each
    /// per-kind row carries the [`LinkClass`] the ledger derived from
    /// the payload itself ([`crate::Payload::link_class`]). This is an
    /// upper bound (no link-level parallelism); divide by the fleet's
    /// parallel width for the usual lower bound.
    pub fn sequential_seconds(&self, report: &TransferReport) -> f64 {
        report
            .per_kind
            .iter()
            .map(|row| {
                self.link(row.link)
                    .schedule_seconds(row.messages, row.bytes())
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{KindRow, TransferReport};

    fn report(kind: &str, link: LinkClass, messages: u64, bytes: u64) -> TransferReport {
        TransferReport {
            messages,
            total_bytes: bytes,
            uplink_bytes: bytes,
            retransmissions: 0,
            retransmitted_bytes: 0,
            per_kind: vec![KindRow {
                kind: kind.to_string(),
                messages,
                uplink_bytes: bytes,
                downlink_bytes: 0,
                link,
            }],
        }
    }

    #[test]
    fn transfer_time_has_rtt_floor() {
        let link = Link::try_new(1e6, 0.01).expect("valid link");
        assert!(link.schedule_seconds(1, 0) >= 0.01);
        assert!((link.schedule_seconds(1, 1_000_000) - 1.01).abs() < 1e-9);
    }

    #[test]
    fn device_messages_use_lan_link() {
        let model = LinkModel::default();
        let lan = model.sequential_seconds(&report(
            "importance-upload",
            LinkClass::DeviceEdge,
            10,
            1_000_000,
        ));
        let wan = model.sequential_seconds(&report(
            "raw-data-upload",
            LinkClass::EdgeCloud,
            10,
            1_000_000,
        ));
        assert!(lan < wan, "LAN must be faster: {lan} vs {wan}");
    }

    #[test]
    fn one_way_is_half_rtt_plus_serialization() {
        let link = Link::try_new(1e6, 0.010).expect("valid link");
        assert!((link.one_way_seconds(0) - 0.005).abs() < 1e-12);
        assert!((link.one_way_seconds(500_000) - 0.505).abs() < 1e-9);
        // Request + response over one-way flights equals the sequential
        // round-trip estimate for the same payloads.
        let pair = link.one_way_seconds(1_000) + link.one_way_seconds(2_000);
        assert!((pair - link.schedule_seconds(1, 3_000)).abs() < 1e-12);
    }

    #[test]
    fn acme_beats_centralized_in_time_too() {
        use crate::protocol::{centralized_transfers, ProtocolRun};
        use acme_energy::Fleet;
        let fleet = Fleet::paper_default(2, 5);
        let model = LinkModel::default();
        let acme = ProtocolRun::new(&fleet).execute().expect("protocol run");
        let cs = centralized_transfers(&fleet, 500, 3072, 1_000_000);
        // The CS downloads full models too, so compare total schedules.
        let t_acme = model.sequential_seconds(&acme.report);
        let t_cs = model.sequential_seconds(&cs);
        assert!(t_acme < t_cs, "acme {t_acme}s vs cs {t_cs}s");
    }

    #[test]
    fn invalid_links_are_rejected_at_construction() {
        // Regression: zero bandwidth used to be clamped to 1 byte/s
        // inside schedule_seconds, producing absurd-but-finite times.
        assert_eq!(Link::try_new(0.0, 0.01), Err(LinkError::Bandwidth(0.0)));
        assert_eq!(Link::try_new(-5.0, 0.01), Err(LinkError::Bandwidth(-5.0)));
        assert!(matches!(
            Link::try_new(f64::NAN, 0.01),
            Err(LinkError::Bandwidth(_))
        ));
        assert!(matches!(
            Link::try_new(f64::INFINITY, 0.01),
            Err(LinkError::Bandwidth(_))
        ));
        assert_eq!(Link::try_new(1e6, 0.0), Err(LinkError::Rtt(0.0)));
        assert_eq!(Link::try_new(1e6, -0.1), Err(LinkError::Rtt(-0.1)));
        assert!(matches!(
            Link::try_new(1e6, f64::NAN),
            Err(LinkError::Rtt(_))
        ));
        let err = Link::try_new(0.0, 0.01).unwrap_err();
        assert!(err.to_string().contains("bandwidth"));
        // A valid link round-trips its parameters through the accessors.
        let link = Link::try_new(2.5e6, 0.04).expect("valid link");
        assert_eq!(link.bandwidth_bps(), 2.5e6);
        assert_eq!(link.rtt_seconds(), 0.04);
        // Validation makes the estimate trustworthy: the default model
        // cannot produce the old clamp's pathological values.
        assert!(link.schedule_seconds(1, 100).is_finite());
    }
}
