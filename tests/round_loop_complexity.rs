//! Complexity pins for the session round loop, by deterministic work
//! counters rather than by timings.
//!
//! A traceless run on the default event-driven engine costs O(frontier)
//! per round end to end:
//!
//! * the engine steps only the due set — nodes whose wake hint expired, and
//!   nodes woken by a decoded message, which stay awake for the at most three
//!   rounds their Algorithm 2 / Algorithm B age rules need. Writing
//!   `Σ frontier = transmissions + deliveries` for the nodes that act in some
//!   round (summed over the rounds), `node_steps ≤ C·(n + Σ frontier)`;
//! * the session's completion observers examine every node once up front
//!   and afterwards only the receivers of each round, skipping those whose
//!   progress is already recorded, so `observer_visits ≤ deliveries + n`.
//!   λ_arb's observer also checks each node's predicted round of knowing
//!   completion once when it falls due (exact predictions need no second
//!   check), so there the bound is `deliveries + 2n`.
//!
//! λ_arb's completion countdown (T − t_v rounds per node after phase 3) is
//! driven round by round rather than fast-forwarded; on a unit-disk graph T
//! is a few times the diameter, which the constant absorbs.
//!
//! A per-round O(n) scan — stepping every node, or rescanning all nodes for
//! completion — costs about `n · rounds`, orders of magnitude above both
//! bounds on these graphs.

use radio_labeling::broadcast::session::{Scheme, Session, TracePolicy};
use radio_labeling::graph::{generators, Graph};
use radio_labeling::radio::RunCounters;

/// The constant of the `node_steps` bound; see the module docs.
const C: u64 = 8;

fn counters(scheme: Scheme, graph: Graph, source: usize) -> (u64, RunCounters) {
    let n = graph.node_count() as u64;
    let session = Session::builder(scheme, graph)
        .source(source)
        .trace(TracePolicy::Disabled)
        .build()
        .expect("labeling builds");
    let (report, metrics) = session.run_instrumented();
    assert!(report.completed(), "{} did not complete", scheme.name());
    (n, metrics.counters.expect("instrumented runs count"))
}

/// Checks both bounds; `visits_per_node` is the number of observer visits
/// each node costs besides its receptions (see the module docs).
fn check(scheme: Scheme, graph: Graph, source: usize, visits_per_node: u64) {
    let (n, c) = counters(scheme, graph, source);
    let frontier = c.transmissions + c.deliveries;
    assert!(
        c.observer_visits <= c.deliveries + visits_per_node * n,
        "{}: observer_visits {} > deliveries {} + {visits_per_node}·n {n}",
        scheme.name(),
        c.observer_visits,
        c.deliveries
    );
    assert!(
        c.node_steps <= C * (n + frontier),
        "{}: node_steps {} > {C}·(n {n} + Σ frontier {frontier}) over {} rounds",
        scheme.name(),
        c.node_steps,
        c.rounds
    );
}

#[test]
fn lambda_on_a_path_steps_only_the_frontier() {
    check(Scheme::Lambda, generators::path(10_000), 0, 1);
}

#[test]
fn lambda_ack_on_a_random_tree_steps_only_the_frontier() {
    check(Scheme::LambdaAck, generators::random_tree(10_000, 7), 0, 1);
}

#[test]
fn lambda_arb_on_a_unit_disk_graph_steps_only_the_frontier() {
    let g = generators::unit_disk_with_degree(2000, 8.0, 3).expect("unit disk generates");
    check(Scheme::LambdaArb, g, 1234, 2);
}
