//! Equivalence suite for the session API: every scheme's `Session` must
//! reproduce what the one-shot runners of the original design computed —
//! construct the labeling, build the protocol network, simulate it with a
//! recorded trace under the scheme's stop condition — with the same
//! completion, acknowledgement and common-knowledge rounds, the same
//! informed rounds, and the same communication statistics, across the
//! canonical workload families. The reference replays run on a bare
//! `Simulator`, independent of the session's node templates, scratch pool
//! and online informed-round tracking. Repeated session runs must also
//! reuse the cached labeling.

use radio_labeling::broadcast::algo_b::BNode;
use radio_labeling::broadcast::algo_back::BackNode;
use radio_labeling::broadcast::algo_barb::ArbNode;
use radio_labeling::broadcast::baselines::SlottedNode;
use radio_labeling::broadcast::delay_relay::DelayRelayNode;
use radio_labeling::broadcast::session::{
    RoundCapPolicy, RunReport, RunSpec, Scheme, Session, StopPolicy, TracePolicy,
};
use radio_labeling::broadcast::{verify, BMessage, TaggedPayload};
use radio_labeling::broadcast::{GossipNode, MultiNode};
use radio_labeling::graph::{generators, Graph};
use radio_labeling::labeling::{
    baselines, gossip, lambda, lambda_ack, lambda_arb, multi, onebit, Labeling,
};
use radio_labeling::radio::{
    Engine, ExecutionStats, FaultPlan, RadioNode, Simulator, StopCondition,
};
use std::sync::Arc;

const MSG: u64 = 42;

/// The workloads the session API is validated on: Path, Star, Grid,
/// GnpSparse (plus a cycle and a grid for the 1-bit schemes).
fn workloads() -> Vec<(&'static str, Graph, usize)> {
    vec![
        ("path-16", generators::path(16), 0),
        ("path-16-mid", generators::path(16), 8),
        ("star-12", generators::star(12), 0),
        ("star-12-leaf", generators::star(12), 5),
        ("grid-4x5", generators::grid(4, 5), 7),
        (
            "gnp-sparse-24",
            generators::gnp_connected(24, 0.12, 9).unwrap(),
            3,
        ),
    ]
}

fn session_run(scheme: Scheme, g: &Graph, source: usize) -> RunReport {
    Session::builder(scheme, g.clone())
        .source(source)
        .message(MSG)
        .build()
        .unwrap()
        .run()
}

/// Linear round caps of the constant-length schemes, scaled by `factor`.
fn linear_cap(g: &Graph, factor: u64) -> u64 {
    factor * (g.node_count() as u64 + 2) + 16
}

/// Replays `nodes` on a bare, traced simulator until `stop` or until
/// `done` (evaluated after every round with the round number) holds.
fn replay<N: RadioNode>(
    g: &Graph,
    nodes: Vec<N>,
    stop: StopCondition,
    mut done: impl FnMut(&Simulator<N>, u64) -> bool,
) -> Simulator<N> {
    let mut sim = Simulator::new(g.clone(), nodes);
    sim.run_until(stop, |s| done(s, s.current_round()));
    sim
}

/// Asserts that a session report carries the trace-derived fields of a
/// reference replay: informed rounds (first payload reception), completion
/// round, executed rounds and statistics.
fn assert_matches_replay<N: RadioNode>(
    name: &str,
    report: &RunReport,
    sim: &Simulator<N>,
    labeling: &Labeling,
    is_payload: impl Fn(&N::Msg) -> bool,
) {
    let informed =
        verify::first_payload_rounds(sim.trace(), report.node_count, report.source, is_payload);
    assert_eq!(report.scheme, labeling.scheme(), "{name}");
    assert_eq!(report.label_length, labeling.length(), "{name}");
    assert_eq!(report.distinct_labels, labeling.distinct_count(), "{name}");
    assert_eq!(report.informed_rounds, informed, "{name}");
    assert_eq!(
        report.completion_round,
        verify::completion_round(&informed),
        "{name}"
    );
    assert_eq!(report.rounds_executed, sim.current_round(), "{name}");
    assert_eq!(
        report.stats,
        ExecutionStats::from_trace(sim.trace()),
        "{name}"
    );
}

/// Reference replay of a quiet-stopping single-payload protocol (B, the
/// 1-bit delay relay) under the linear cap of factor 4.
fn assert_quiet_replay<N: RadioNode>(
    name: &str,
    report: &RunReport,
    g: &Graph,
    labeling: &Labeling,
    nodes: Vec<N>,
    is_payload: impl Fn(&N::Msg) -> bool,
) {
    let stop = StopCondition::QuietFor {
        quiet: 3,
        cap: linear_cap(g, 4),
    };
    let sim = replay(g, nodes, stop, |_, _| false);
    assert_matches_replay(name, report, &sim, labeling, is_payload);
}

#[test]
fn lambda_sessions_reproduce_run_broadcast() {
    for (name, g, source) in workloads() {
        let labeling = lambda::construct(&g, source).unwrap().into_labeling();
        let nodes = BNode::network(&labeling, source, MSG);
        let report = session_run(Scheme::Lambda, &g, source);
        assert_quiet_replay(name, &report, &g, &labeling, nodes, |m| {
            matches!(m, BMessage::Data(_))
        });
    }
}

#[test]
fn lambda_ack_sessions_reproduce_run_acknowledged_broadcast() {
    for (name, g, source) in workloads() {
        let labeling = lambda_ack::construct(&g, source).unwrap().into_labeling();
        let stop = StopCondition::QuietFor {
            quiet: 3,
            cap: linear_cap(&g, 6),
        };
        let mut ack_round = None;
        let sim = replay(
            &g,
            BackNode::network(&labeling, source, MSG),
            stop,
            |s, round| {
                if ack_round.is_none() && s.nodes()[source].source_received_ack() {
                    ack_round = Some(round);
                }
                false
            },
        );
        let report = session_run(Scheme::LambdaAck, &g, source);
        assert_matches_replay(name, &report, &sim, &labeling, |m| {
            matches!(m.payload, TaggedPayload::Data(_))
        });
        assert_eq!(report.ack_round, ack_round, "{name}");
    }
}

#[test]
fn lambda_arb_sessions_reproduce_run_arbitrary_source() {
    for (name, g, source) in workloads() {
        let labeling = lambda_arb::construct(&g).unwrap().into_labeling();
        let (mut completion, mut common_knowledge) = (None, None);
        let sim = replay(
            &g,
            ArbNode::network(&labeling, source, MSG),
            StopCondition::AfterRounds(linear_cap(&g, 16)),
            |s, round| {
                let nodes = s.nodes();
                if completion.is_none() && nodes.iter().all(|v| v.learned_message() == Some(MSG)) {
                    completion = Some(round);
                }
                if common_knowledge.is_none() && nodes.iter().all(ArbNode::knows_completion) {
                    common_knowledge = Some(round);
                }
                completion.is_some() && common_knowledge.is_some()
            },
        );
        let report = Session::builder(Scheme::LambdaArb, g.clone())
            .coordinator(0)
            .source(source)
            .message(MSG)
            .build()
            .unwrap()
            .run();
        assert_eq!(report.coordinator, Some(0), "{name}");
        assert_eq!(report.source, source, "{name}");
        assert_eq!(report.completion_round, completion, "{name}");
        assert_eq!(report.common_knowledge_round, common_knowledge, "{name}");
        assert_eq!(report.label_length, labeling.length(), "{name}");
        assert_eq!(report.rounds_executed, sim.current_round(), "{name}");
        assert_eq!(
            report.stats,
            ExecutionStats::from_trace(sim.trace()),
            "{name}"
        );
    }
}

#[test]
fn baseline_sessions_reproduce_the_baseline_runners() {
    for (name, g, source) in workloads() {
        let n = g.node_count() as u64;
        for (scheme, labeling) in [
            (Scheme::UniqueIds, baselines::unique_ids(&g).unwrap()),
            (
                Scheme::SquareColoring,
                baselines::square_coloring(&g).unwrap().0,
            ),
        ] {
            let sim = replay(
                &g,
                SlottedNode::network(&labeling, source, MSG),
                StopCondition::AfterRounds(16 * n * n + 64),
                |s, _| s.nodes().iter().all(SlottedNode::is_informed),
            );
            let report = session_run(scheme, &g, source);
            assert_matches_replay(name, &report, &sim, &labeling, |_| true);
        }
    }
}

#[test]
fn onebit_sessions_reproduce_the_onebit_runners() {
    let is_data = |m: &BMessage| matches!(m, BMessage::Data(_));
    let c = generators::cycle(14);
    let labeling = onebit::cycle_onebit(&c, 4).unwrap();
    let nodes = DelayRelayNode::network(&labeling, 4, MSG);
    let report = session_run(Scheme::OneBitCycle, &c, 4);
    assert_quiet_replay("cycle-14", &report, &c, &labeling, nodes, is_data);

    let g = generators::grid(3, 5);
    let labeling = onebit::grid_onebit(&g, 3, 5, 7).unwrap();
    let nodes = DelayRelayNode::network(&labeling, 7, MSG);
    let report = session_run(Scheme::OneBitGrid { rows: 3, cols: 5 }, &g, 7);
    assert_quiet_replay("grid-3x5", &report, &g, &labeling, nodes, is_data);
}

#[test]
fn consecutive_runs_reuse_the_cached_labeling() {
    let g = generators::gnp_connected(30, 0.12, 5).unwrap();
    let session = Session::builder(Scheme::Lambda, g)
        .source(3)
        .message(MSG)
        .build()
        .unwrap();
    // The labeling is owned by the session: the same allocation is observed
    // before and after running, and both runs agree exactly.
    let labeling_ptr = session.labeling() as *const Labeling;
    let first = session.run();
    let mid_ptr = session.labeling() as *const Labeling;
    let second = session.run();
    assert!(std::ptr::eq(labeling_ptr, mid_ptr));
    assert!(std::ptr::eq(labeling_ptr, session.labeling()));
    assert_eq!(first.informed_rounds, second.informed_rounds);
    assert_eq!(first.completion_round, second.completion_round);
    assert_eq!(first.stats, second.stats);
}

#[test]
fn batch_runs_match_sequential_runs_for_every_thread_count() {
    let g = Arc::new(generators::gnp_connected(20, 0.18, 11).unwrap());
    let session = Session::builder(Scheme::LambdaArb, Arc::clone(&g))
        .build()
        .unwrap();
    let specs: Vec<RunSpec> = (0..g.node_count())
        .map(|s| RunSpec::new(s, MSG + s as u64))
        .collect();
    let sequential = session.run_batch(&specs, 1).unwrap();
    for threads in [2, 4, 8] {
        let parallel = session.run_batch(&specs, threads).unwrap();
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.source, s.source, "threads={threads}");
            assert_eq!(p.completion_round, s.completion_round, "threads={threads}");
            assert_eq!(
                p.common_knowledge_round, s.common_knowledge_round,
                "threads={threads}"
            );
            assert_eq!(p.informed_rounds, s.informed_rounds, "threads={threads}");
            assert_eq!(p.stats, s.stats, "threads={threads}");
        }
    }
}

#[test]
fn trace_policy_disabled_preserves_round_measurements() {
    for (name, g, source) in workloads() {
        let recorded = session_run(Scheme::Lambda, &g, source);
        let disabled = Session::builder(Scheme::Lambda, g)
            .source(source)
            .message(MSG)
            .trace(TracePolicy::Disabled)
            .build()
            .unwrap()
            .run();
        assert_eq!(recorded.informed_rounds, disabled.informed_rounds, "{name}");
        assert_eq!(
            recorded.completion_round, disabled.completion_round,
            "{name}"
        );
        assert_eq!(recorded.rounds_executed, disabled.rounds_executed, "{name}");
        assert_eq!(
            disabled.stats.transmissions, 0,
            "{name}: stats need a trace"
        );
    }
}

#[test]
fn explicit_policies_compose_with_every_scheme() {
    let g = Arc::new(generators::grid(4, 4));
    for scheme in Scheme::GENERAL {
        let r = Session::builder(scheme, Arc::clone(&g))
            .message(MSG)
            .stop(StopPolicy::RunToCap)
            .round_cap(RoundCapPolicy::Fixed(4096))
            .trace(TracePolicy::Disabled)
            .build()
            .unwrap()
            .run();
        assert!(r.completed(), "{} under explicit policies", scheme.name());
    }
}

/// Round by round over a bare simulator with `plan`, the full-scan
/// bookkeeping the session's receiver-driven observers replace. The
/// listener-centric engine executes every round, so the scan sees each one
/// (the event-driven default skips quiet rounds). Records every
/// node's first round satisfying `informed` (0 if it starts so) and, for
/// each of the `measures` predicates `holds(node, i)`, the first executed
/// round in which it holds for every node. `done` (given those rounds)
/// stops the run early.
#[allow(clippy::too_many_arguments)]
fn full_scan<N: RadioNode>(
    g: &Graph,
    nodes: Vec<N>,
    plan: &FaultPlan,
    stop: StopCondition,
    informed: impl Fn(&N) -> bool,
    measures: usize,
    holds: impl Fn(&N, usize) -> bool,
    done: impl Fn(&[Option<u64>]) -> bool,
) -> (Vec<Option<u64>>, Vec<Option<u64>>, u64) {
    let mut informed_rounds: Vec<Option<u64>> =
        nodes.iter().map(|v| informed(v).then_some(0)).collect();
    let mut reached = vec![None; measures];
    let mut sim = Simulator::new(g.clone(), nodes)
        .with_engine(Engine::ListenerCentric)
        .with_faults(plan)
        .without_trace();
    let outcome = sim.run_until(stop, |s| {
        let round = s.current_round();
        for (v, node) in s.nodes().iter().enumerate() {
            if informed_rounds[v].is_none() && informed(node) {
                informed_rounds[v] = Some(round);
            }
        }
        for (i, slot) in reached.iter_mut().enumerate() {
            if slot.is_none() && s.nodes().iter().all(|v| holds(v, i)) {
                *slot = Some(round);
            }
        }
        done(&reached)
    });
    (informed_rounds, reached, outcome.rounds_executed)
}

/// Checks a multi-message session's informed and per-message completion
/// rounds against [`full_scan`] of the same protocol network.
fn check_bundle<N: RadioNode>(
    what: &str,
    session: &Session,
    g: &Graph,
    plan: &FaultPlan,
    nodes: Vec<N>,
    has_message: fn(&N, usize) -> bool,
    holds_all: fn(&N) -> bool,
) {
    let sources = session.sources();
    let (informed, reached, rounds) = full_scan(
        g,
        nodes,
        plan,
        session.resolved_stop_condition(),
        holds_all,
        sources.len(),
        has_message,
        |r| r.iter().all(Option::is_some),
    );
    let report = session.run();
    assert_eq!(report.informed_rounds, informed, "{what}");
    assert_eq!(report.rounds_executed, rounds, "{what}");
    let expected: Vec<(usize, Option<u64>)> = sources.iter().copied().zip(reached).collect();
    assert_eq!(report.message_completion_rounds, Some(expected), "{what}");
}

/// The fault plans the observer oracle replays: none, plus crash, late
/// wake, jam and drop schedules that delay or break the broadcasts.
fn oracle_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::none(),
        FaultPlan::none().crash(5, 9),
        FaultPlan::none().late_wake(3, 12).late_wake(7, 30),
        FaultPlan::none().jam(2, 4, 6).drop_message(6, 3),
    ]
}

#[test]
fn receiver_driven_observers_match_full_scans() {
    for (name, g, source) in workloads() {
        let n = g.node_count();
        for plan in oracle_plans()
            .into_iter()
            .filter(|p| p.max_node() < Some(n))
        {
            for trace in [TracePolicy::Recorded, TracePolicy::Disabled] {
                let build = |scheme: Scheme| {
                    Session::builder(scheme, g.clone())
                        .source(source)
                        .message(MSG)
                        .trace(trace)
                        .faults(plan.clone())
                        .build()
                        .unwrap()
                };
                let what = format!("{name}, {plan:?}, {trace:?}");

                // λ_arb: completion and common knowledge.
                let session = build(Scheme::LambdaArb);
                let labeling = session.labeling();
                let (informed, reached, rounds) = full_scan(
                    &g,
                    ArbNode::network(labeling, source, MSG),
                    &plan,
                    session.resolved_stop_condition(),
                    |v: &ArbNode| v.learned_message().is_some(),
                    2,
                    |v: &ArbNode, i| match i {
                        0 => v.learned_message() == Some(MSG),
                        _ => v.knows_completion(),
                    },
                    |r| r.iter().all(Option::is_some),
                );
                let report = session.run();
                assert_eq!(report.informed_rounds, informed, "lambda_arb {what}");
                assert_eq!(report.completion_round, reached[0], "lambda_arb {what}");
                assert_eq!(
                    report.common_knowledge_round, reached[1],
                    "lambda_arb {what}"
                );
                assert_eq!(report.rounds_executed, rounds, "lambda_arb {what}");

                // λ_ack: the source's first acknowledgement.
                let session = build(Scheme::LambdaAck);
                let nodes = BackNode::network(session.labeling(), source, MSG);
                let mut sim = Simulator::new(g.clone(), nodes)
                    .with_faults(&plan)
                    .without_trace();
                let mut ack_round = None;
                sim.run_until(session.resolved_stop_condition(), |s| {
                    if ack_round.is_none() && s.nodes()[source].source_received_ack() {
                        ack_round = Some(s.current_round());
                    }
                    false
                });
                assert_eq!(session.run().ack_round, ack_round, "lambda_ack {what}");

                // Multi-message: per-message completion and full holders.
                let session = build(Scheme::MultiLambda { k: 3 });
                let scheme =
                    multi::construct_with_coordinator(&g, session.sources(), session.coordinator())
                        .unwrap();
                let payloads: Vec<u64> = (0..scheme.k() as u64).map(|j| MSG + j).collect();
                check_bundle(
                    &format!("multi {what}"),
                    &session,
                    &g,
                    &plan,
                    MultiNode::network(&scheme, &payloads),
                    MultiNode::has_message,
                    MultiNode::holds_all_messages,
                );
                let session = build(Scheme::Gossip);
                let scheme = gossip::construct_with_coordinator(&g, session.coordinator()).unwrap();
                let payloads: Vec<u64> = (0..n as u64).map(|j| MSG + j).collect();
                check_bundle(
                    &format!("gossip {what}"),
                    &session,
                    &g,
                    &plan,
                    GossipNode::network(&scheme, &payloads),
                    GossipNode::has_message,
                    GossipNode::holds_all_messages,
                );
            }
        }
    }
}

#[test]
fn lambda_arb_common_knowledge_waits_for_a_jammed_countdown() {
    // Jamming a node while its completion countdown runs suspends the
    // countdown, so the predicted round of knowing completion passes
    // unmet and must be checked again: common knowledge comes later than
    // in the fault-free run, exactly when a full scan sees it.
    let g = generators::path(16);
    let build = |plan: FaultPlan| {
        Session::builder(Scheme::LambdaArb, g.clone())
            .source(8)
            .message(MSG)
            .trace(TracePolicy::Disabled)
            .faults(plan)
            .build()
            .unwrap()
    };
    let clean = build(FaultPlan::none()).run();
    let (completion, knowledge) = (
        clean.completion_round.unwrap(),
        clean.common_knowledge_round.unwrap(),
    );
    assert!(completion < knowledge);
    let plan = FaultPlan::none().jam(15, completion + 1, 3);
    let session = build(plan.clone());
    let (_, reached, _) = full_scan(
        &g,
        ArbNode::network(session.labeling(), 8, MSG),
        &plan,
        session.resolved_stop_condition(),
        |v: &ArbNode| v.learned_message().is_some(),
        1,
        |v: &ArbNode, _| v.knows_completion(),
        |r| r[0].is_some(),
    );
    let report = session.run();
    assert_eq!(report.common_knowledge_round, reached[0]);
    assert!(report.common_knowledge_round > Some(knowledge));
}
