//! **Algorithm B_arb** — §4.2 of the paper: (acknowledged) broadcast when the
//! source node is not known at labeling time, driven by the 3-bit λ_arb
//! labels.
//!
//! The unique node labeled `111` is the **coordinator** `r` chosen by λ_arb.
//! The algorithm runs three phases, all orchestrated by `r`:
//!
//! 1. **Initialize** — an acknowledged broadcast (Algorithm 2) from `r` with
//!    payload "initialize". Every node `v` records the timestamp `t_v` of the
//!    first "initialize" message it hears; the acknowledgement initiator `z`
//!    appends `T = t_z` to its ack, so when the chain reaches `r` the
//!    coordinator knows `T` (an upper bound on the broadcast duration) and
//!    knows everyone has been reached.
//! 2. **Ready** — an acknowledged broadcast from `r` with payload
//!    `("ready", T)`, except that `z` stays silent; instead the *actual
//!    source* `s_G`, after hearing "ready", waits `T` rounds (so the ready
//!    broadcast has surely finished) and then starts the acknowledgement
//!    chain with the source message µ appended. When the chain reaches `r`,
//!    the coordinator knows µ.
//! 3. **Broadcast** — a plain broadcast (Algorithm B) from `r` with payload
//!    µ. Every node that waits `T − t_v` rounds after receiving µ knows that
//!    everyone else has received it too, so the algorithm also solves
//!    acknowledged broadcast.
//!
//! Implementation notes (see DESIGN.md): phases are carried explicitly inside
//! messages; round tags are phase-relative; the coordinator advances to the
//! next phase upon the chain-terminating ack (whose tag is one of its own
//! transmit rounds), which guarantees no phase-1 ack forwarding is still in
//! flight when phase 2 starts; and if the coordinator itself holds µ, phase 2
//! is skipped (it would otherwise never terminate, and it has nothing to
//! learn).

use crate::ack_engine::{AckExtra, BackEngine, EngineAction};
use crate::messages::{Phase, SourceMessage, TaggedMessage, TaggedPayload};
use rn_labeling::{lambda_arb, Label, Labeling};
use rn_radio::{Action, RadioNode};

/// The per-node state machine of Algorithm B_arb.
#[derive(Debug, Clone)]
pub struct ArbNode {
    is_coordinator: bool,
    /// The source message, if this node is the original source s_G.
    original_message: Option<SourceMessage>,
    phase1: BackEngine,
    phase2: BackEngine,
    phase3: BackEngine,
    /// Timestamp of the first "initialize" message (t_v); 0 for the
    /// coordinator.
    t_v: Option<u64>,
    /// The timestamp bound T learned from the "ready" broadcast (or, for the
    /// coordinator, from the phase-1 ack).
    t_bound: Option<u64>,
    /// Source-side countdown until it starts the phase-2 acknowledgement.
    source_ack_countdown: Option<u64>,
    /// Whether the source already started the phase-2 acknowledgement.
    source_ack_sent: bool,
    /// Coordinator-side countdown used only when the coordinator itself holds
    /// µ: phase 3 starts once the "ready" broadcast has surely finished,
    /// since no phase-2 acknowledgement will ever be initiated.
    phase3_start_countdown: Option<u64>,
    /// Countdown (after receiving µ in phase 3) until this node knows the
    /// broadcast has completed everywhere.
    completion_countdown: Option<u64>,
    /// Whether this node knows the broadcast has completed everywhere.
    knows_completion: bool,
}

/// The per-node knowledge [`ArbNode`] records from its phase engines at the
/// start of every step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LocalKnowledge {
    t_v: Option<u64>,
    t_bound: Option<u64>,
    source_ack_countdown: Option<u64>,
    completion_countdown: Option<u64>,
}

impl ArbNode {
    /// Creates the state machine for one node. `message` is `Some(µ)` for the
    /// actual source s_G and `None` for everyone else; the coordinator is
    /// recognised from its `111` label.
    pub fn new(label: Label, message: Option<SourceMessage>) -> Self {
        let is_coordinator = label == lambda_arb::coordinator_label();
        let phase1 = BackEngine::new(
            Phase::One,
            label,
            is_coordinator.then_some(TaggedPayload::Init),
            true,
            AckExtra::OwnInformedRound,
            true,
        );
        // Placeholder payloads; the coordinator fills them in when it learns
        // T (phase 2) and µ (phase 3).
        let phase2 = BackEngine::new(
            Phase::Two,
            label,
            is_coordinator.then_some(TaggedPayload::Ready(0)),
            false,
            AckExtra::None,
            false,
        );
        let phase3 = BackEngine::new(
            Phase::Three,
            label,
            is_coordinator.then_some(TaggedPayload::Data(0)),
            false,
            AckExtra::None,
            false,
        );
        ArbNode {
            is_coordinator,
            original_message: message,
            phase1,
            phase2,
            phase3,
            t_v: is_coordinator.then_some(0),
            t_bound: None,
            source_ack_countdown: None,
            source_ack_sent: false,
            phase3_start_countdown: None,
            completion_countdown: None,
            knows_completion: false,
        }
    }

    /// Builds the protocol instances for a whole λ_arb-labeled network with
    /// the actual source `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range for the labeling.
    pub fn network(labeling: &Labeling, source: usize, message: SourceMessage) -> Vec<ArbNode> {
        assert!(source < labeling.node_count(), "source out of range");
        (0..labeling.node_count())
            .map(|v| {
                ArbNode::new(
                    labeling.get(v),
                    if v == source { Some(message) } else { None },
                )
            })
            .collect()
    }

    /// Whether this node is the coordinator `r` (label `111`).
    pub fn is_coordinator(&self) -> bool {
        self.is_coordinator
    }

    /// The source message this node knows, from whichever phase taught it.
    pub fn learned_message(&self) -> Option<SourceMessage> {
        if let Some(m) = self.original_message {
            return Some(m);
        }
        if let Some(TaggedPayload::Data(m)) = self.phase3.payload() {
            return Some(m);
        }
        // The coordinator learns µ from the phase-2 ack before phase 3.
        if self.is_coordinator {
            if let Some((_, Some(m))) = self.phase2.final_ack() {
                return Some(m);
            }
        }
        None
    }

    /// The timestamp `t_v` recorded in phase 1 (0 for the coordinator).
    pub fn t_v(&self) -> Option<u64> {
        self.t_v
    }

    /// The bound `T` this node knows (from the phase-1 ack for the
    /// coordinator, from the "ready" message for everyone else).
    pub fn t_bound(&self) -> Option<u64> {
        self.t_bound
    }

    /// Whether the node knows the whole broadcast has completed (the
    /// acknowledged-broadcast guarantee of §4.2).
    pub fn knows_completion(&self) -> bool {
        self.knows_completion
    }

    /// How many further `step`s it takes until
    /// [`knows_completion`](Self::knows_completion) holds, for a node
    /// stepped every round: `Some(0)` once it does, `None` while the
    /// completion countdown still waits for a message the node has not
    /// received. Exact, because receptions never move a countdown that is
    /// running or about to start.
    pub(crate) fn steps_until_knows_completion(&self) -> Option<u64> {
        if self.knows_completion {
            return Some(0);
        }
        if !self.is_coordinator {
            // A countdown the next step starts is also ticked by it.
            return self.next_local_knowledge().completion_countdown;
        }
        if let Some(c) = self.completion_countdown {
            return Some(c);
        }
        // Phase 3 starts at the c-th step, which also starts the T + 1
        // countdown and ticks it once.
        if let Some(c) = self.phase3_start_countdown {
            return self.t_bound.map(|t| c + t);
        }
        if !self.phase_advance_pending() {
            return None;
        }
        if self.phase2.is_enabled() {
            // The next step starts phase 3 and the T + 1 countdown.
            return self.t_bound.map(|t| t + 1);
        }
        // The next step ends phase 1. Only a coordinator holding µ then
        // starts phase 3 by itself, at step T + 2, which also starts the
        // T + 1 countdown and ticks it once.
        let t = self.phase1.final_ack()?.1?;
        self.original_message.map(|_| 2 * t + 2)
    }

    /// Whether the coordinator has heard a phase's terminating ack but not
    /// yet started the next phase: its next `step` advances the phase (and,
    /// after phase 2, replaces its placeholder phase-3 payload with µ, which
    /// changes [`learned_message`](Self::learned_message) without any
    /// reception). Always false for other nodes.
    pub(crate) fn phase_advance_pending(&self) -> bool {
        if !self.is_coordinator || self.phase3.is_enabled() {
            return false;
        }
        if self.phase2.is_enabled() {
            self.phase2.final_ack().is_some()
        } else {
            self.phase1.final_ack().is_some()
        }
    }

    /// The fields [`update_local_knowledge`](Self::update_local_knowledge)
    /// records, as they stand.
    fn local_knowledge(&self) -> LocalKnowledge {
        LocalKnowledge {
            t_v: self.t_v,
            t_bound: self.t_bound,
            source_ack_countdown: self.source_ack_countdown,
            completion_countdown: self.completion_countdown,
        }
    }

    /// The fields as the next step's
    /// [`update_local_knowledge`](Self::update_local_knowledge) records
    /// them: t_v, T, the source's delayed acknowledgement and the
    /// completion countdown, each update seeing the ones before it.
    fn next_local_knowledge(&self) -> LocalKnowledge {
        let mut k = self.local_knowledge();
        if k.t_v.is_none() {
            k.t_v = self.phase1.informed_round();
        }
        if k.t_bound.is_none() {
            if let Some(TaggedPayload::Ready(t)) = self.phase2.payload() {
                k.t_bound = Some(t);
            }
        }
        // The actual source schedules its phase-2 acknowledgement T rounds
        // after hearing "ready".
        if self.original_message.is_some()
            && !self.is_coordinator
            && !self.source_ack_sent
            && k.source_ack_countdown.is_none()
        {
            if let (Some(t), Some(_)) = (k.t_bound, self.phase2.informed_round()) {
                k.source_ack_countdown = Some(t + 1);
            }
        }
        // Completion countdown: T - t_v rounds after receiving µ in phase 3.
        if k.completion_countdown.is_none()
            && !self.knows_completion
            && self.phase3.is_informed()
            && !self.is_coordinator
        {
            if let (Some(t), Some(tv)) = (k.t_bound, k.t_v) {
                k.completion_countdown = Some(t.saturating_sub(tv) + 1);
            }
        }
        k
    }

    /// Whether the next step's local-knowledge update changes anything.
    fn local_knowledge_pending(&self) -> bool {
        self.next_local_knowledge() != self.local_knowledge()
    }

    /// Coordinator-side bookkeeping executed at the start of every round:
    /// advance phases when the previous phase's terminating ack has arrived.
    fn advance_phases(&mut self) {
        if !self.is_coordinator {
            return;
        }
        if !self.phase2.is_enabled() && !self.phase3.is_enabled() {
            if let Some((_, extra)) = self.phase1.final_ack() {
                let t = extra.expect("phase-1 ack carries T = t_z");
                self.t_bound = Some(t);
                self.phase2.set_source_payload(TaggedPayload::Ready(t));
                self.phase2.enable();
                if self.original_message.is_some() {
                    // The coordinator already holds µ, so nobody will initiate
                    // the phase-2 acknowledgement (the source never *receives*
                    // "ready"). Phase 2 still runs so every node learns T;
                    // phase 3 starts once the ready broadcast has surely
                    // finished (T rounds plus slack).
                    self.phase3_start_countdown = Some(t + 2);
                }
            }
        } else if self.phase2.is_enabled() && !self.phase3.is_enabled() {
            if let Some((_, extra)) = self.phase2.final_ack() {
                let m = extra.expect("phase-2 ack carries µ");
                self.phase3.set_source_payload(TaggedPayload::Data(m));
                self.phase3.enable();
                // The coordinator (t_r = 0) knows completion T rounds after
                // it starts the final broadcast.
                self.completion_countdown = Some(self.t_bound.expect("T known") + 1);
            }
        }
    }

    /// Records t_v, T, the source's delayed acknowledgement and the
    /// completion countdown, as
    /// [`next_local_knowledge`](Self::next_local_knowledge) computes them.
    fn update_local_knowledge(&mut self) {
        let k = self.next_local_knowledge();
        self.t_v = k.t_v;
        self.t_bound = k.t_bound;
        self.source_ack_countdown = k.source_ack_countdown;
        self.completion_countdown = k.completion_countdown;
    }

    fn countdowns(&mut self) -> Option<TaggedMessage> {
        // Coordinator-holds-µ special case: start phase 3 once the ready
        // broadcast has surely finished.
        if let Some(c) = &mut self.phase3_start_countdown {
            *c -= 1;
            if *c == 0 {
                self.phase3_start_countdown = None;
                let m = self
                    .original_message
                    .expect("only the source-coordinator waits");
                self.phase3.set_source_payload(TaggedPayload::Data(m));
                self.phase3.enable();
                self.completion_countdown = Some(self.t_bound.expect("T known") + 1);
            }
        }
        // Completion countdown.
        if let Some(c) = &mut self.completion_countdown {
            *c -= 1;
            if *c == 0 {
                self.completion_countdown = None;
                self.knows_completion = true;
            }
        }
        // Source-side delayed acknowledgement.
        if let Some(c) = &mut self.source_ack_countdown {
            *c -= 1;
            if *c == 0 {
                self.source_ack_countdown = None;
                self.source_ack_sent = true;
                let k = self
                    .phase2
                    .informed_round()
                    .expect("the source heard the ready broadcast");
                return Some(TaggedMessage::ack_with_extra(
                    Phase::Two,
                    k,
                    Some(self.original_message.expect("only the source acks with µ")),
                ));
            }
        }
        None
    }
}

impl RadioNode for ArbNode {
    type Msg = TaggedMessage;

    fn step(&mut self) -> Action<TaggedMessage> {
        self.advance_phases();
        self.update_local_knowledge();

        let special = self.countdowns();

        // Step every engine (they track their own local time); collect the
        // transmission requests.
        let a1 = self.phase1.step();
        let a2 = self.phase2.step();
        let a3 = self.phase3.step();

        // The phases never overlap, so at most one engine (or the special
        // source acknowledgement) asks to transmit; prefer the latest phase
        // for robustness.
        if let EngineAction::Transmit(m) = a3 {
            return Action::Transmit(m);
        }
        if let Some(m) = special {
            return Action::Transmit(m);
        }
        if let EngineAction::Transmit(m) = a2 {
            return Action::Transmit(m);
        }
        if let EngineAction::Transmit(m) = a1 {
            return Action::Transmit(m);
        }
        Action::Listen
    }

    fn receive(&mut self, heard: Option<&TaggedMessage>) {
        let Some(msg) = heard else { return };
        match msg.phase {
            Phase::One => self.phase1.receive(Some(msg)),
            Phase::Two => self.phase2.receive(Some(msg)),
            Phase::Three => self.phase3.receive(Some(msg)),
        }
    }

    fn wake_hint(&self) -> u64 {
        // Frozen once no coordinator phase advance, local-knowledge update
        // or countdown is pending and all three Algorithm 2 instances are
        // frozen: `step` is then a Listen no-op until a message arrives.
        // Countdowns are driven round by round (hint 0) rather than
        // fast-forwarded.
        let frozen = !self.phase_advance_pending()
            && !self.local_knowledge_pending()
            && self.phase3_start_countdown.is_none()
            && self.completion_countdown.is_none()
            && self.source_ack_countdown.is_none()
            && self.phase1.is_frozen()
            && self.phase2.is_frozen()
            && self.phase3.is_frozen();
        if frozen {
            u64::MAX
        } else {
            0
        }
    }

    fn state_digest(&self) -> u64 {
        let d = rn_radio::Digest::new(0xA4B)
            .flag(self.is_coordinator)
            .opt(self.original_message)
            .opt(self.t_v)
            .opt(self.t_bound)
            .opt(self.source_ack_countdown)
            .flag(self.source_ack_sent)
            .opt(self.phase3_start_countdown)
            .opt(self.completion_countdown)
            .flag(self.knows_completion);
        let d = self.phase1.digest_into(d);
        let d = self.phase2.digest_into(d);
        self.phase3.digest_into(d).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_radio::{Simulator, StopCondition};

    const MSG: SourceMessage = 4242;

    fn run_barb(
        g: rn_graph::Graph,
        coordinator: usize,
        source: usize,
        cap: u64,
    ) -> Simulator<ArbNode> {
        let scheme = lambda_arb::construct_with_coordinator(
            &g,
            coordinator,
            rn_graph::algorithms::ReductionOrder::Forward,
        )
        .unwrap();
        let nodes = ArbNode::network(scheme.labeling(), source, MSG);
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::AfterRounds(cap), |s| {
            s.nodes()
                .iter()
                .all(|n| n.learned_message() == Some(MSG) && n.knows_completion())
        });
        sim
    }

    #[test]
    fn arbitrary_source_broadcast_on_a_path() {
        let g = generators::path(8);
        let sim = run_barb(g, 0, 5, 400);
        for (v, node) in sim.nodes().iter().enumerate() {
            assert_eq!(node.learned_message(), Some(MSG), "node {v}");
            assert!(node.knows_completion(), "node {v}");
        }
    }

    #[test]
    fn works_when_source_is_far_from_coordinator() {
        let g = generators::grid(4, 4);
        let sim = run_barb(g, 0, 15, 600);
        assert!(sim
            .nodes()
            .iter()
            .all(|n| n.learned_message() == Some(MSG) && n.knows_completion()));
    }

    #[test]
    fn works_when_coordinator_is_the_source() {
        let g = generators::cycle(9);
        let sim = run_barb(g, 3, 3, 400);
        assert!(sim
            .nodes()
            .iter()
            .all(|n| n.learned_message() == Some(MSG) && n.knows_completion()));
    }

    #[test]
    fn works_when_source_is_adjacent_to_coordinator() {
        let g = generators::star(7);
        let sim = run_barb(g, 0, 3, 300);
        assert!(sim
            .nodes()
            .iter()
            .all(|n| n.learned_message() == Some(MSG) && n.knows_completion()));
    }

    #[test]
    fn every_source_position_works_on_a_small_graph() {
        let g = generators::cycle(6);
        for source in 0..6 {
            let sim = run_barb(g.clone(), 0, source, 400);
            assert!(
                sim.nodes()
                    .iter()
                    .all(|n| n.learned_message() == Some(MSG) && n.knows_completion()),
                "source {source}"
            );
        }
    }

    #[test]
    fn coordinator_learns_t_and_message() {
        let g = generators::path(7);
        let sim = run_barb(g, 0, 6, 400);
        let coord = &sim.nodes()[0];
        assert!(coord.is_coordinator());
        assert!(coord.t_bound().is_some());
        assert_eq!(coord.learned_message(), Some(MSG));
        assert_eq!(coord.t_v(), Some(0));
    }

    /// Drives `pairs` elided-span `step`/`receive(None)` pairs, asserting
    /// each step listens and the digest never moves (the frozen-state
    /// contract behind a `u64::MAX` hint).
    fn assert_frozen(node: &mut ArbNode, pairs: usize) {
        assert_eq!(node.wake_hint(), u64::MAX);
        let before = node.state_digest();
        for _ in 0..pairs {
            assert_eq!(node.step(), Action::Listen);
            node.receive(None);
            assert_eq!(node.state_digest(), before);
        }
    }

    /// Drives `step`/`receive(None)` pairs while the hint is 0; returns how
    /// many it took to park.
    fn settle(node: &mut ArbNode) -> u64 {
        let mut pairs = 0;
        while node.wake_hint() == 0 {
            assert!(pairs < 100, "node never settles");
            node.step();
            node.receive(None);
            pairs += 1;
        }
        pairs
    }

    fn relay_label() -> Label {
        Label::three_bits(true, false, false)
    }

    #[test]
    fn wake_hint_tracks_activity() {
        // The coordinator is phase 1's source, about to transmit: driven.
        let mut coordinator = ArbNode::new(lambda_arb::coordinator_label(), None);
        assert_eq!(coordinator.wake_hint(), 0);
        assert!(coordinator.step().is_transmit());
        settle(&mut coordinator);
        assert_frozen(&mut coordinator, 10);
        // The terminating phase-1 ack (tag 1 = its own transmit round)
        // makes a phase advance pending: driven until phase 2 is under way.
        coordinator.receive(Some(&TaggedMessage::ack_with_extra(Phase::One, 1, Some(6))));
        assert!(coordinator.phase_advance_pending());
        assert_eq!(coordinator.wake_hint(), 0);
        assert!(coordinator.step().is_transmit(), "phase 2 starts at once");
        settle(&mut coordinator);
        assert_eq!(coordinator.t_bound(), Some(6));
        assert_frozen(&mut coordinator, 10);

        // Fresh relays, with or without µ, are frozen until they hear
        // something.
        let mut source = ArbNode::new(relay_label(), Some(MSG));
        assert_frozen(&mut source, 5);
        let mut relay = ArbNode::new(relay_label(), None);
        assert_frozen(&mut relay, 5);
        // Hearing "initialize" wakes a relay (t_v to record, a relay to
        // send); once its ages settle it parks again.
        relay.receive(Some(&TaggedMessage::new(
            Phase::One,
            TaggedPayload::Init,
            2,
        )));
        assert_eq!(relay.wake_hint(), 0);
        settle(&mut relay);
        assert_eq!(relay.t_v(), Some(2));
        assert_frozen(&mut relay, 10);
        // Phase 2 teaches T = 6; phase 3 then starts its T − t_v + 1 = 5
        // step completion countdown, during which it is driven every round.
        relay.receive(Some(&TaggedMessage::new(
            Phase::Two,
            TaggedPayload::Ready(6),
            3,
        )));
        settle(&mut relay);
        assert_eq!(relay.t_bound(), Some(6));
        relay.receive(Some(&TaggedMessage::new(
            Phase::Three,
            TaggedPayload::Data(MSG),
            4,
        )));
        assert_eq!(relay.steps_until_knows_completion(), Some(5));
        for left in (1..=5).rev() {
            assert_eq!(relay.wake_hint(), 0, "countdown running");
            assert_eq!(relay.steps_until_knows_completion(), Some(left));
            relay.step();
            relay.receive(None);
        }
        assert!(relay.knows_completion());
        settle(&mut relay);
        assert_frozen(&mut relay, 10);
    }

    #[test]
    fn hints_pass_the_wake_hint_audit_on_whole_runs() {
        for (g, coordinator, source) in [
            (generators::path(8), 0, 5),
            (generators::cycle(9), 3, 3),
            (generators::grid(3, 4), 5, 0),
            (generators::gnp_connected(14, 0.2, 3).unwrap(), 0, 7),
        ] {
            let n = g.node_count() as u64;
            let scheme = lambda_arb::construct_with_coordinator(
                &g,
                coordinator,
                rn_graph::algorithms::ReductionOrder::Forward,
            )
            .unwrap();
            let nodes = ArbNode::network(scheme.labeling(), source, MSG);
            let mut sim = Simulator::new(g, nodes).without_trace();
            let audit = rn_radio::audit_wake_hints(&mut sim, 16 * (n + 2)).expect("hints hold");
            assert!(audit.hints_audited > 0);
        }
    }

    #[test]
    fn completion_knowledge_is_predicted_exactly() {
        // Coordinator far from, equal to, and next to the source.
        for (g, coordinator, source) in [
            (generators::path(8), 0, 5),
            (generators::cycle(9), 3, 3),
            (generators::star(7), 0, 3),
            (generators::gnp_connected(14, 0.2, 3).unwrap(), 0, 7),
        ] {
            let n = g.node_count();
            let scheme = lambda_arb::construct_with_coordinator(
                &g,
                coordinator,
                rn_graph::algorithms::ReductionOrder::Forward,
            )
            .unwrap();
            let nodes = ArbNode::network(scheme.labeling(), source, MSG);
            let mut sim = Simulator::new(g, nodes).without_trace();
            let mut predicted: Vec<Option<u64>> = vec![None; n];
            let mut known: Vec<Option<u64>> = vec![None; n];
            for round in 1..=16 * (n as u64 + 2) {
                sim.step_round();
                for (v, node) in sim.nodes().iter().enumerate() {
                    if predicted[v].is_none() {
                        predicted[v] = node.steps_until_knows_completion().map(|s| round + s);
                    }
                    if known[v].is_none() && node.knows_completion() {
                        known[v] = Some(round);
                    }
                }
            }
            assert!(known.iter().all(Option::is_some));
            assert_eq!(
                predicted, known,
                "coordinator {coordinator}, source {source}"
            );
        }
    }

    #[test]
    fn completion_is_never_declared_before_everyone_has_the_message() {
        // Run round by round and check the safety property at every step.
        let g = generators::gnp_connected(14, 0.2, 3).unwrap();
        let scheme = lambda_arb::construct(&g).unwrap();
        let nodes = ArbNode::network(scheme.labeling(), 7, MSG);
        let mut sim = Simulator::new(g, nodes);
        for _ in 0..500 {
            sim.step_round();
            let anyone_knows_completion = sim.nodes().iter().any(ArbNode::knows_completion);
            if anyone_knows_completion {
                assert!(
                    sim.nodes().iter().all(|n| n.learned_message() == Some(MSG)),
                    "a node declared completion before broadcast finished"
                );
            }
        }
        assert!(sim.nodes().iter().all(ArbNode::knows_completion));
    }
}
