//! Deterministic fault injection for the message fabric.
//!
//! A [`FaultPlan`] is handed to a run ([`crate::ProtocolRun::faults`])
//! or attached to a [`crate::Network`] at construction
//! ([`crate::Network::with_faults`]) and consulted on every send, by the
//! crate's one send path. It can
//!
//! * apply a [`FaultAction`] (drop, delay, duplicate) to messages
//!   matched by a [`FaultRule`] (sender / recipient / payload kind /
//!   occurrence index);
//! * kill a node at a schedule point ([`FaultPlan::kill`]): after its
//!   `after_sends`-th send attempt the node goes dark — its own sends
//!   are swallowed before they reach the wire and messages addressed to
//!   it are lost in flight;
//! * drop a seeded uniform fraction of all traffic
//!   ([`FaultPlan::drop_uniform`]).
//!
//! Every decision is deterministic at any thread count: rule occurrence
//! counters are kept per rule, and the probabilistic drop hashes the
//! `(from, to, kind, per-link occurrence)` coordinates of a message with
//! the plan seed instead of consuming a shared RNG stream, so the
//! verdict for the n-th `importance-upload` from device 3 never depends
//! on how the OS interleaved the other node threads.

use std::collections::HashMap;
use std::time::Duration;

use crate::message::{Envelope, NodeId};

/// What happens to a message matched by a [`FaultRule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The message is lost in flight (metered as sent, never delivered).
    Drop,
    /// Delivery is held back for the given time. The two drivers give
    /// this different meanings: a [`crate::Network`] stalls the sender
    /// before the message enters the wire, the simulator defers only
    /// this one delivery.
    Delay(Duration),
    /// The message is delivered (and metered) twice.
    Duplicate,
}

/// Matches a subset of messages and applies a [`FaultAction`] to them.
///
/// All match fields are optional; an unset field matches anything. The
/// first matching rule in the plan wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    from: Option<NodeId>,
    to: Option<NodeId>,
    kind: Option<&'static str>,
    nth: Option<u64>,
    action: FaultAction,
}

impl FaultRule {
    /// A rule applying `action` to every message (narrow it with the
    /// builder methods).
    pub fn on(action: FaultAction) -> Self {
        FaultRule {
            from: None,
            to: None,
            kind: None,
            nth: None,
            action,
        }
    }

    /// Match only messages sent by `node`.
    pub fn from(mut self, node: NodeId) -> Self {
        self.from = Some(node);
        self
    }

    /// Match only messages addressed to `node`.
    pub fn to(mut self, node: NodeId) -> Self {
        self.to = Some(node);
        self
    }

    /// Match only payloads with this [`crate::Payload::kind`] label.
    pub fn kind(mut self, kind: &'static str) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Apply the action only to the `n`-th (0-based) message matching
    /// the other fields, instead of every match.
    pub fn nth(mut self, n: u64) -> Self {
        self.nth = Some(n);
        self
    }

    fn matches(&self, env: &Envelope) -> bool {
        self.from.is_none_or(|f| f == env.from)
            && self.to.is_none_or(|t| t == env.to)
            && self.kind.is_none_or(|k| k == env.payload.kind())
    }
}

/// A deterministic, seedable schedule of injected faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    kills: Vec<(NodeId, u64)>,
    drop_prob: f64,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan: every message is delivered exactly once.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying `seed` for the probabilistic faults.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a message-level fault rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Kills `node` at a schedule point: its `after_sends`-th send
    /// attempt and everything after it is swallowed, and messages
    /// addressed to it from that point on are lost in flight.
    /// `after_sends == 0` means the node is dark from the start.
    pub fn kill(mut self, node: NodeId, after_sends: u64) -> Self {
        self.kills.push((node, after_sends));
        self
    }

    /// Drops each message independently with probability `p`, decided by
    /// hashing the message coordinates with the plan seed (deterministic
    /// at any thread count).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn drop_uniform(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.drop_prob = p;
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.kills.is_empty() && self.drop_prob == 0.0
    }
}

/// The fate the fault layer assigns to one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Deliver two metered copies.
    Duplicate,
    /// Meter the send but lose the message in flight.
    Lose,
    /// The sender is dead: nothing reaches the wire, nothing is metered.
    SenderDead,
    /// Deliver, this much later.
    Delay(Duration),
}

/// Mutable per-network fault bookkeeping (rule occurrence counters and
/// per-node send counts), guarded by the network's fault mutex.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rule_hits: Vec<u64>,
    sends_by_node: HashMap<NodeId, u64>,
    link_occurrence: LinkOccurrences,
}

impl FaultState {
    /// The bookkeeping `plan` needs: none for an empty plan, which then
    /// costs a send nothing.
    pub(crate) fn for_plan(plan: FaultPlan) -> Option<Self> {
        (!plan.is_empty()).then(|| FaultState::new(plan))
    }

    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rules = plan.rules.len();
        FaultState {
            plan,
            rule_hits: vec![0; rules],
            sends_by_node: HashMap::new(),
            link_occurrence: HashMap::new(),
        }
    }

    /// Node `node` is dark once it has attempted `>= after_sends` sends.
    fn is_dead(&self, node: NodeId) -> bool {
        let sent = self.sends_by_node.get(&node).copied().unwrap_or(0);
        self.plan
            .kills
            .iter()
            .any(|&(n, after)| n == node && sent >= after)
    }

    /// Decides the fate of `env` and advances the deterministic
    /// counters.
    pub(crate) fn on_send(&mut self, env: &Envelope) -> Verdict {
        let sender_dead = self.is_dead(env.from);
        *self.sends_by_node.entry(env.from).or_insert(0) += 1;
        if sender_dead {
            return Verdict::SenderDead;
        }
        if self.is_dead(env.to) {
            return Verdict::Lose;
        }
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if rule.matches(env) {
                let hit = self.rule_hits[i];
                self.rule_hits[i] += 1;
                if rule.nth.is_none_or(|n| n == hit) {
                    return match rule.action {
                        FaultAction::Drop => Verdict::Lose,
                        FaultAction::Delay(d) => Verdict::Delay(d),
                        FaultAction::Duplicate => Verdict::Duplicate,
                    };
                }
            }
        }
        if self.plan.drop_prob > 0.0
            && link_uniform(self.plan.seed, env, &mut self.link_occurrence) < self.plan.drop_prob
        {
            return Verdict::Lose;
        }
        Verdict::Deliver
    }
}

/// How many messages each `(from, to, kind)` link has carried so far.
pub(crate) type LinkOccurrences = HashMap<(NodeId, NodeId, &'static str), u64>;

/// A uniform draw in `[0, 1)` for the next message on `env`'s link: the
/// seed hashed with the message's `(from, to, kind)` coordinates and the
/// link's occurrence count, which this advances. The fault layer's
/// seeded drops and the sim driver's latency jitter share this function
/// but each keeps its own `seen`: they count different sends (those no
/// kill or rule decided vs. those that reached the wire), and merging
/// them would move every draw.
pub(crate) fn link_uniform(seed: u64, env: &Envelope, seen: &mut LinkOccurrences) -> f64 {
    let occ = seen
        .entry((env.from, env.to, env.payload.kind()))
        .or_insert(0);
    let n = *occ;
    *occ += 1;
    let h = splitmix64(
        seed.wrapping_add(node_tag(env.from))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(node_tag(env.to))
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(fnv1a(env.payload.kind()))
            .wrapping_add(n),
    );
    // Top 53 bits → uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Stable 64-bit encoding of a node address for hashing.
pub(crate) fn node_tag(node: NodeId) -> u64 {
    match node {
        NodeId::Cloud => 0,
        NodeId::Edge(e) => (1u64 << 32) | e.0 as u64,
        NodeId::Device(d) => (2u64 << 32) | d.0 as u64,
    }
}

pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: a strong 64-bit avalanche over the key.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use acme_energy::{DeviceId, EdgeId};

    fn env(from: NodeId, to: NodeId) -> Envelope {
        Envelope {
            from,
            to,
            payload: Payload::Ack,
        }
    }

    #[test]
    fn empty_plan_delivers_everything() {
        let mut st = FaultState::new(FaultPlan::none());
        for _ in 0..100 {
            assert_eq!(
                st.on_send(&env(NodeId::Cloud, NodeId::Edge(EdgeId(0)))),
                Verdict::Deliver
            );
        }
    }

    #[test]
    fn nth_rule_hits_only_that_occurrence() {
        let plan = FaultPlan::none().rule(
            FaultRule::on(FaultAction::Drop)
                .from(NodeId::Device(DeviceId(3)))
                .kind("ack")
                .nth(1),
        );
        let mut st = FaultState::new(plan);
        let e = env(NodeId::Device(DeviceId(3)), NodeId::Edge(EdgeId(0)));
        assert_eq!(st.on_send(&e), Verdict::Deliver);
        assert_eq!(st.on_send(&e), Verdict::Lose);
        assert_eq!(st.on_send(&e), Verdict::Deliver);
        // A different sender never matches.
        let other = env(NodeId::Device(DeviceId(4)), NodeId::Edge(EdgeId(0)));
        assert_eq!(st.on_send(&other), Verdict::Deliver);
    }

    #[test]
    fn killed_node_goes_dark_after_schedule_point() {
        let dead = NodeId::Device(DeviceId(7));
        let mut st = FaultState::new(FaultPlan::none().kill(dead, 2));
        let out = env(dead, NodeId::Edge(EdgeId(0)));
        // First two sends leave the node, then it goes dark.
        assert_eq!(st.on_send(&out), Verdict::Deliver);
        assert_eq!(st.on_send(&out), Verdict::Deliver);
        assert_eq!(st.on_send(&out), Verdict::SenderDead);
        // Messages toward it are now lost in flight.
        assert_eq!(
            st.on_send(&env(NodeId::Edge(EdgeId(0)), dead)),
            Verdict::Lose
        );
    }

    #[test]
    fn kill_at_zero_is_dead_from_the_start() {
        let dead = NodeId::Edge(EdgeId(1));
        let mut st = FaultState::new(FaultPlan::none().kill(dead, 0));
        assert_eq!(st.on_send(&env(dead, NodeId::Cloud)), Verdict::SenderDead);
        assert_eq!(st.on_send(&env(NodeId::Cloud, dead)), Verdict::Lose);
    }

    #[test]
    fn uniform_drop_is_seed_deterministic_and_roughly_calibrated() {
        let verdicts = |seed: u64| -> Vec<Verdict> {
            let mut st = FaultState::new(FaultPlan::seeded(seed).drop_uniform(0.3));
            (0..1000)
                .map(|_| st.on_send(&env(NodeId::Device(DeviceId(0)), NodeId::Edge(EdgeId(0)))))
                .collect()
        };
        let a = verdicts(42);
        let b = verdicts(42);
        assert_eq!(a, b, "same seed must reproduce the same fault pattern");
        let dropped = a.iter().filter(|v| **v == Verdict::Lose).count();
        assert!(
            (150..450).contains(&dropped),
            "p=0.3 over 1000 sends dropped {dropped}"
        );
        let c = verdicts(43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn plan_emptiness() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::seeded(9).is_empty());
        assert!(!FaultPlan::none().kill(NodeId::Cloud, 0).is_empty());
        assert!(!FaultPlan::none().drop_uniform(0.1).is_empty());
        assert!(!FaultPlan::none()
            .rule(FaultRule::on(FaultAction::Duplicate))
            .is_empty());
    }
}
