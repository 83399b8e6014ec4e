//! Concurrency stress tests of the network fabric and protocol driver.

#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use std::thread;

use acme_distsys::protocol::{ProtocolConfig, ProtocolRun};
use acme_distsys::{Network, NodeId, Payload};
use acme_energy::{DeviceId, EdgeId, Fleet};

#[test]
fn many_senders_one_receiver_is_lossless() {
    let net = Network::new();
    let rx = net.register(NodeId::Cloud).expect("fresh id");
    let senders = 8;
    let per_sender = 200;
    let mut handles = Vec::new();
    for s in 0..senders {
        let net = net.clone();
        net.register(NodeId::Device(DeviceId(s))).expect("fresh id");
        handles.push(thread::spawn(move || {
            for _ in 0..per_sender {
                net.send(NodeId::Device(DeviceId(s)), NodeId::Cloud, Payload::Ack)
                    .expect("send");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut received = 0;
    while rx.try_recv().is_ok() {
        received += 1;
    }
    assert_eq!(received, senders * per_sender);
    assert_eq!(
        net.ledger().report().messages,
        (senders * per_sender) as u64
    );
}

#[test]
fn concurrent_protocol_runs_are_isolated() {
    // Two protocol runs on separate networks must not interfere (each
    // spawns its own node threads).
    let fleet = Arc::new(Fleet::paper_default(2, 3));
    let cfg = ProtocolConfig {
        loop_rounds: 2,
        ..ProtocolConfig::default()
    };
    let f1 = Arc::clone(&fleet);
    let c1 = cfg.clone();
    let h = thread::spawn(move || ProtocolRun::new(&f1).config(c1).execute());
    let a = ProtocolRun::new(&fleet)
        .config(cfg.clone())
        .execute()
        .expect("protocol run");
    let b = h.join().unwrap().expect("protocol run");
    assert_eq!(a.report.total_bytes, b.report.total_bytes);
    assert_eq!(a.report.messages, b.report.messages);
}

#[test]
fn ledger_totals_match_per_kind_sum() {
    let fleet = Fleet::paper_default(3, 4);
    let out = ProtocolRun::new(&fleet).execute().expect("protocol run");
    let kind_bytes: u64 = out.report.per_kind.iter().map(|k| k.bytes()).sum();
    let kind_msgs: u64 = out.report.per_kind.iter().map(|k| k.messages).sum();
    assert_eq!(kind_bytes, out.report.total_bytes);
    assert_eq!(kind_msgs, out.report.messages);
}

#[test]
fn duplicate_registration_is_rejected() {
    // Regression: a second register on a live id used to silently steal
    // the route out from under the first receiver. Now it is a typed
    // error and the original route keeps working.
    let net = Network::new();
    let rx = net.register(NodeId::Edge(EdgeId(0))).expect("fresh id");
    let err = net
        .register(NodeId::Edge(EdgeId(0)))
        .expect_err("duplicate id must be rejected");
    assert_eq!(err.node, NodeId::Edge(EdgeId(0)));
    net.send(NodeId::Cloud, NodeId::Edge(EdgeId(0)), Payload::Ack)
        .unwrap();
    assert!(rx.try_recv().is_ok(), "original route still routes");
    // Once the network tears its routes down, the id can be reused.
    net.close();
    net.register(NodeId::Edge(EdgeId(0)))
        .expect("closed id is reusable");
}
