//! Thread-safe transfer metering for Table I's cost-efficiency analysis.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::message::{Envelope, LinkClass, KINDS};
use crate::network::lock;

#[derive(Debug, Clone, Copy)]
struct KindTotals {
    messages: u64,
    uplink_bytes: u64,
    downlink_bytes: u64,
    link: LinkClass,
}

#[derive(Debug, Default, Clone)]
struct Totals {
    messages: u64,
    bytes: u64,
    uplink_bytes: u64,
    retransmissions: u64,
    retransmitted_bytes: u64,
    /// Indexed by [`Payload::kind_index`](crate::Payload); `None` for a
    /// kind never metered, which gets no report row.
    per_kind: [Option<KindTotals>; KINDS.len()],
}

/// Accumulates message counts and byte volumes across all network links.
/// Shared by reference between every node thread.
#[derive(Debug, Default)]
pub struct Ledger {
    totals: Mutex<Totals>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Records one envelope.
    pub fn record(&self, env: &Envelope) {
        self.meter(env, false);
    }

    /// Records one envelope that is a *retransmission* of an earlier
    /// send. It is metered like any other wire traffic (it really
    /// crossed the link) and additionally counted in the separate
    /// retransmission totals, so fault-recovery overhead can be isolated
    /// from the schedule's intrinsic volume.
    pub fn record_retransmission(&self, env: &Envelope) {
        self.meter(env, true);
    }

    fn meter(&self, env: &Envelope, retransmission: bool) {
        let bytes = env.payload.wire_bytes();
        let uplink = env.is_uplink();
        let mut t = lock(&self.totals);
        t.messages += 1;
        t.bytes += bytes;
        if uplink {
            t.uplink_bytes += bytes;
        }
        if retransmission {
            t.retransmissions += 1;
            t.retransmitted_bytes += bytes;
        }
        let e = t.per_kind[env.payload.kind_index()].get_or_insert(KindTotals {
            messages: 0,
            uplink_bytes: 0,
            downlink_bytes: 0,
            link: env.payload.link_class(),
        });
        e.messages += 1;
        if uplink {
            e.uplink_bytes += bytes;
        } else {
            e.downlink_bytes += bytes;
        }
    }

    /// Total bytes over all links.
    pub fn total_bytes(&self) -> u64 {
        lock(&self.totals).bytes
    }

    /// Snapshot for reporting.
    pub fn report(&self) -> TransferReport {
        let t = lock(&self.totals);
        TransferReport {
            messages: t.messages,
            total_bytes: t.bytes,
            uplink_bytes: t.uplink_bytes,
            retransmissions: t.retransmissions,
            retransmitted_bytes: t.retransmitted_bytes,
            // `KINDS` is sorted: rows come out in label order.
            per_kind: KINDS
                .iter()
                .zip(&t.per_kind)
                .filter_map(|(k, kt)| kt.map(|kt| (k, kt)))
                .map(|(k, kt)| KindRow {
                    kind: k.to_string(),
                    messages: kt.messages,
                    uplink_bytes: kt.uplink_bytes,
                    downlink_bytes: kt.downlink_bytes,
                    link: kt.link,
                })
                .collect(),
        }
    }
}

/// Per-kind breakdown row of a [`TransferReport`], split by transfer
/// direction so reports keep uplink and downlink volumes per kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindRow {
    /// Payload kind label.
    pub kind: String,
    /// Messages of this kind.
    pub messages: u64,
    /// Bytes of this kind flowing toward the cloud.
    pub uplink_bytes: u64,
    /// Bytes of this kind flowing away from the cloud.
    pub downlink_bytes: u64,
    /// The link tier this kind travels on.
    pub link: LinkClass,
}

impl KindRow {
    /// Total bytes of this kind in both directions.
    pub fn bytes(&self) -> u64 {
        self.uplink_bytes + self.downlink_bytes
    }
}

/// Immutable snapshot of a [`Ledger`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferReport {
    /// Total messages.
    pub messages: u64,
    /// Total bytes.
    pub total_bytes: u64,
    /// Bytes flowing toward the cloud.
    pub uplink_bytes: u64,
    /// Messages that were retransmissions (zero in a fault-free run).
    pub retransmissions: u64,
    /// Bytes carried by retransmissions.
    pub retransmitted_bytes: u64,
    /// Per-kind breakdown.
    pub per_kind: Vec<KindRow>,
}

impl TransferReport {
    /// Upload volume in megabytes (the unit of Table I).
    pub fn uplink_megabytes(&self) -> f64 {
        self.uplink_bytes as f64 / 1e6
    }

    /// Sum of this report and `other`: totals add, and per-kind rows
    /// with the same kind label merge. Used when a protocol run is
    /// persisted and resumed — the resumed segment's ledger starts at
    /// zero, so the full-run report is the merge of all segments.
    #[must_use]
    pub fn merged(&self, other: &TransferReport) -> TransferReport {
        let mut per_kind: BTreeMap<String, KindRow> = BTreeMap::new();
        for row in self.per_kind.iter().chain(&other.per_kind) {
            per_kind
                .entry(row.kind.clone())
                .and_modify(|r| {
                    r.messages += row.messages;
                    r.uplink_bytes += row.uplink_bytes;
                    r.downlink_bytes += row.downlink_bytes;
                })
                .or_insert_with(|| row.clone());
        }
        TransferReport {
            messages: self.messages + other.messages,
            total_bytes: self.total_bytes + other.total_bytes,
            uplink_bytes: self.uplink_bytes + other.uplink_bytes,
            retransmissions: self.retransmissions + other.retransmissions,
            retransmitted_bytes: self.retransmitted_bytes + other.retransmitted_bytes,
            per_kind: per_kind.into_values().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{NodeId, Payload};
    use acme_energy::{DeviceId, EdgeId};

    fn env(up: bool, payload: Payload) -> Envelope {
        if up {
            Envelope {
                from: NodeId::Device(DeviceId(0)),
                to: NodeId::Edge(EdgeId(0)),
                payload,
            }
        } else {
            Envelope {
                from: NodeId::Cloud,
                to: NodeId::Edge(EdgeId(0)),
                payload,
            }
        }
    }

    #[test]
    fn records_totals_and_direction() {
        let ledger = Ledger::new();
        ledger.record(&env(true, Payload::ImportanceUpload { round: 0, len: 4 }));
        ledger.record(&env(false, Payload::Ack));
        assert_eq!(ledger.report().messages, 2);
        assert_eq!(ledger.total_bytes(), (16 + 16) + 16);
        assert_eq!(ledger.report().uplink_bytes, 32);
        assert_eq!(ledger.report().retransmissions, 0);
    }

    #[test]
    fn report_breaks_down_by_kind_and_direction() {
        let ledger = Ledger::new();
        for _ in 0..3 {
            ledger.record(&env(true, Payload::Ack));
        }
        ledger.record(&env(false, Payload::Ack));
        ledger.record(&env(true, Payload::ImportanceUpload { round: 0, len: 1 }));
        let report = ledger.report();
        assert_eq!(report.messages, 5);
        let ack = report.per_kind.iter().find(|r| r.kind == "ack").unwrap();
        assert_eq!(ack.messages, 4);
        assert_eq!(ack.uplink_bytes, 3 * 16);
        assert_eq!(ack.downlink_bytes, 16);
        assert_eq!(ack.bytes(), 4 * 16);
        let imp = report
            .per_kind
            .iter()
            .find(|r| r.kind == "importance-upload")
            .unwrap();
        assert_eq!(imp.link, LinkClass::DeviceEdge);
        assert!((report.uplink_megabytes() - report.uplink_bytes as f64 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn retransmissions_are_metered_separately_and_in_totals() {
        let ledger = Ledger::new();
        ledger.record(&env(true, Payload::Ack));
        ledger.record_retransmission(&env(true, Payload::Ack));
        let report = ledger.report();
        // Retransmitted traffic crossed the wire: counted in totals too.
        assert_eq!(report.messages, 2);
        assert_eq!(report.total_bytes, 32);
        assert_eq!(report.retransmissions, 1);
        assert_eq!(report.retransmitted_bytes, 16);
    }

    #[test]
    fn merged_sums_totals_and_unions_kinds() {
        let a = Ledger::new();
        a.record(&env(true, Payload::Ack));
        a.record(&env(true, Payload::ImportanceUpload { round: 0, len: 2 }));
        let b = Ledger::new();
        b.record(&env(false, Payload::Ack));
        b.record_retransmission(&env(false, Payload::Ack));
        let merged = a.report().merged(&b.report());
        // The merge must equal one ledger that saw all four envelopes.
        let all = Ledger::new();
        all.record(&env(true, Payload::Ack));
        all.record(&env(true, Payload::ImportanceUpload { round: 0, len: 2 }));
        all.record(&env(false, Payload::Ack));
        all.record_retransmission(&env(false, Payload::Ack));
        assert_eq!(merged, all.report());
        // Merging with an empty report is the identity.
        let empty = Ledger::new().report();
        assert_eq!(merged.merged(&empty), merged);
    }

    #[test]
    fn ledger_is_thread_safe() {
        use std::sync::Arc;
        let ledger = Arc::new(Ledger::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let l = Arc::clone(&ledger);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        l.record(&env(true, Payload::Ack));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ledger.report().messages, 800);
    }
}
