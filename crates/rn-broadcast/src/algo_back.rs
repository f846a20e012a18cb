//! **Algorithm B_ack** — the paper's Algorithm 2: acknowledged broadcast
//! driven by the 3-bit λ_ack labels.
//!
//! The broadcast part behaves exactly like Algorithm B, except that every
//! message carries the (source-local) round number in which it is sent. The
//! unique node `z` with `x3 = 1` — chosen by λ_ack to be informed last —
//! transmits an "ack" the round after it is informed; the "ack" then hops
//! backwards along the chain of nodes that informed each other until it
//! reaches the source (Theorem 3.9: within `n − 2` rounds of the broadcast
//! completing).

use crate::ack_engine::{AckExtra, BackEngine, EngineAction};
use crate::messages::{Phase, SourceMessage, TaggedMessage, TaggedPayload};
use rn_labeling::{Label, Labeling};
use rn_radio::{Action, RadioNode};

/// The per-node state machine of Algorithm B_ack.
#[derive(Debug, Clone)]
pub struct BackNode {
    engine: BackEngine,
    is_source: bool,
}

impl BackNode {
    /// Creates the state machine for one node. `sourcemsg` is `Some(µ)` for
    /// the source and `None` for everyone else.
    pub fn new(label: Label, sourcemsg: Option<SourceMessage>) -> Self {
        BackNode {
            is_source: sourcemsg.is_some(),
            engine: BackEngine::new(
                Phase::One,
                label,
                sourcemsg.map(TaggedPayload::Data),
                true,
                AckExtra::None,
                true,
            ),
        }
    }

    /// Builds the protocol instances for a whole labeled network.
    ///
    /// # Panics
    /// Panics if `source` is out of range for the labeling.
    pub fn network(labeling: &Labeling, source: usize, message: SourceMessage) -> Vec<BackNode> {
        assert!(source < labeling.node_count(), "source out of range");
        (0..labeling.node_count())
            .map(|v| {
                BackNode::new(
                    labeling.get(v),
                    if v == source { Some(message) } else { None },
                )
            })
            .collect()
    }

    /// Whether the node knows the source message.
    pub fn is_informed(&self) -> bool {
        self.engine.is_informed()
    }

    /// The node's copy of the source message, if informed.
    pub fn sourcemsg(&self) -> Option<SourceMessage> {
        match self.engine.payload() {
            Some(TaggedPayload::Data(m)) => Some(m),
            _ => None,
        }
    }

    /// The paper's `informedRound` variable (round tag of first reception).
    pub fn informed_round(&self) -> Option<u64> {
        self.engine.informed_round()
    }

    /// Whether this node is the source and has heard an acknowledgement —
    /// the event bounded by Theorem 3.9.
    pub fn source_received_ack(&self) -> bool {
        self.is_source && self.engine.first_ack_heard().is_some()
    }

    /// Whether the source has heard the chain-terminating acknowledgement
    /// (one whose tag is a round in which the source itself transmitted).
    pub fn source_received_final_ack(&self) -> bool {
        self.is_source && self.engine.final_ack().is_some()
    }
}

impl RadioNode for BackNode {
    type Msg = TaggedMessage;

    fn step(&mut self) -> Action<TaggedMessage> {
        match self.engine.step() {
            EngineAction::Transmit(m) => Action::Transmit(m),
            EngineAction::Listen => Action::Listen,
        }
    }

    fn receive(&mut self, heard: Option<&TaggedMessage>) {
        self.engine.receive(heard);
    }

    fn wake_hint(&self) -> u64 {
        // Frozen once the source has sent (µ, 1) and every age counter has
        // settled: from then on only a received message can change the
        // node. While a rule can still fire the node is driven every round.
        if self.engine.is_frozen() {
            u64::MAX
        } else {
            0
        }
    }

    fn state_digest(&self) -> u64 {
        self.engine
            .digest_into(rn_radio::Digest::new(0xBAC).flag(self.is_source))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_labeling::lambda_ack;
    use rn_radio::{Simulator, StopCondition};

    const MSG: SourceMessage = 99;

    fn run_back(g: rn_graph::Graph, source: usize, cap: u64) -> Simulator<BackNode> {
        let scheme = lambda_ack::construct(&g, source).unwrap();
        let nodes = BackNode::network(scheme.labeling(), source, MSG);
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::AfterRounds(cap), |s| {
            s.nodes().iter().any(BackNode::source_received_ack)
                && s.nodes().iter().all(BackNode::is_informed)
        });
        sim
    }

    #[test]
    fn broadcast_and_ack_complete_on_a_path() {
        let n = 10u64;
        let g = generators::path(n as usize);
        let sim = run_back(g, 0, 4 * n);
        assert!(sim.nodes().iter().all(BackNode::is_informed));
        assert!(sim.nodes()[0].source_received_ack());
    }

    #[test]
    fn source_gets_ack_within_theorem_3_9_window() {
        for seed in 0..4 {
            let g = generators::gnp_connected(25, 0.15, seed).unwrap();
            let n = g.node_count() as u64;
            let source = (3 * seed as usize) % 25;
            let scheme = lambda_ack::construct(&g, source).unwrap();
            let nodes = BackNode::network(scheme.labeling(), source, MSG);
            let mut sim = Simulator::new(g, nodes);

            // Run until every node is informed; record that round as t.
            sim.run_until(StopCondition::AfterRounds(4 * n), |s| {
                s.nodes().iter().all(BackNode::is_informed)
            });
            let t = sim.current_round();
            assert!(t <= 2 * n - 3, "broadcast too slow (seed {seed})");

            // Keep running until the source hears an ack; Corollary 3.8 bounds
            // this by t + n - 1 (Theorem 3.9 states n - 2, see verify.rs).
            sim.run_until(StopCondition::AfterRounds(4 * n), |s| {
                s.nodes().iter().any(BackNode::source_received_ack)
            });
            let t_ack = sim.current_round();
            assert!(t_ack > t, "ack cannot precede completion");
            assert!(t_ack < t + n, "ack too slow (seed {seed})");
        }
    }

    #[test]
    fn informed_round_matches_trace() {
        let g = generators::grid(3, 4);
        let sim = run_back(g, 0, 100);
        for v in 1..sim.nodes().len() {
            let reported = sim.nodes()[v].informed_round().unwrap();
            // The informed round is the first round in which the node heard a
            // µ-carrying message (it may have heard "stay" messages earlier).
            let traced = sim
                .trace()
                .rounds
                .iter()
                .find(|r| {
                    matches!(
                        sim.trace().heard_in_round(v, r.round),
                        Some(TaggedMessage {
                            payload: TaggedPayload::Data(_),
                            ..
                        })
                    )
                })
                .map(|r| r.round)
                .unwrap();
            assert_eq!(reported, traced, "node {v}");
        }
    }

    #[test]
    fn final_ack_follows_first_ack() {
        let g = generators::cycle(9);
        let scheme = lambda_ack::construct(&g, 0).unwrap();
        let nodes = BackNode::network(scheme.labeling(), 0, MSG);
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::QuietFor { quiet: 3, cap: 200 }, |_| false);
        assert!(sim.nodes()[0].source_received_ack());
        assert!(sim.nodes()[0].source_received_final_ack());
    }

    #[test]
    fn two_node_graph_acknowledges_quickly() {
        let g = rn_graph::Graph::from_edges(2, &[(0, 1)]).unwrap();
        let sim = run_back(g, 0, 10);
        assert!(sim.nodes()[1].is_informed());
        assert!(sim.nodes()[0].source_received_ack());
        assert!(sim.current_round() <= 3);
    }

    /// Drives `pairs` elided-span `step`/`receive(None)` pairs, asserting
    /// each step listens and the digest never moves (the frozen-state
    /// contract behind a `u64::MAX` hint).
    fn assert_frozen(node: &mut BackNode, pairs: usize) {
        assert_eq!(node.wake_hint(), u64::MAX);
        let before = node.state_digest();
        for _ in 0..pairs {
            assert_eq!(node.step(), Action::Listen);
            node.receive(None);
            assert_eq!(node.state_digest(), before);
        }
    }

    fn data(tag: u64) -> TaggedMessage {
        TaggedMessage::new(Phase::One, TaggedPayload::Data(MSG), tag)
    }

    /// Drives `step`/`receive(None)` pairs while the hint is 0 and returns
    /// how many it took to park (every rule fires within three rounds of
    /// its trigger, so a few pairs always suffice).
    fn settle(node: &mut BackNode) -> usize {
        let mut pairs = 0;
        while node.wake_hint() == 0 {
            assert!(pairs < 6, "node never settles");
            node.step();
            node.receive(None);
            pairs += 1;
        }
        pairs
    }

    #[test]
    fn wake_hint_tracks_activity() {
        // A fresh source is about to transmit (µ, 1): driven now.
        let mut source = BackNode::new(Label::three_bits(true, false, false), Some(MSG));
        assert_eq!(source.wake_hint(), 0);
        assert!(source.step().is_transmit());
        // Its transmit age still has to settle before it parks.
        assert_eq!(source.wake_hint(), 0);
        assert_eq!(settle(&mut source), 3);
        assert_frozen(&mut source, 10);

        // A fresh uninformed relay is frozen until it hears something...
        let mut relay = BackNode::new(Label::three_bits(true, true, true), None);
        assert_frozen(&mut relay, 5);
        // ...hearing µ wakes it (ack and relay rules are pending)...
        relay.receive(Some(&data(4)));
        assert_eq!(relay.wake_hint(), 0);
        // ...and once every age counter has settled it parks again.
        settle(&mut relay);
        assert_eq!(relay.sourcemsg(), Some(MSG));
        assert_frozen(&mut relay, 10);

        // A stay or a matching ack wakes a settled relay for the rounds in
        // which it may answer.
        relay.receive(Some(&TaggedMessage::new(
            Phase::One,
            TaggedPayload::Stay,
            7,
        )));
        assert_eq!(relay.wake_hint(), 0);
        settle(&mut relay);
        relay.receive(Some(&TaggedMessage::ack_with_extra(Phase::One, 6, None)));
        assert_eq!(relay.wake_hint(), 0);
        settle(&mut relay);
        assert_frozen(&mut relay, 10);
    }

    #[test]
    fn hints_pass_the_wake_hint_audit_on_whole_runs() {
        for (g, source) in [
            (generators::path(9), 4),
            (generators::grid(3, 4), 0),
            (generators::gnp_connected(20, 0.2, 3).unwrap(), 7),
        ] {
            let n = g.node_count() as u64;
            let scheme = lambda_ack::construct(&g, source).unwrap();
            let nodes = BackNode::network(scheme.labeling(), source, MSG);
            let mut sim = Simulator::new(g, nodes).without_trace();
            let audit = rn_radio::audit_wake_hints(&mut sim, 6 * n).expect("hints hold");
            assert!(audit.hints_audited > 0);
        }
    }

    #[test]
    fn non_source_nodes_never_report_source_ack() {
        let g = generators::star(5);
        let sim = run_back(g, 0, 20);
        for v in 1..5 {
            assert!(!sim.nodes()[v].source_received_ack());
        }
    }
}
