//! Complexity pins for the §2.1 sequence construction, by its deterministic
//! work counter (`SequenceConstruction::work`: adjacency entries walked plus
//! set elements visited) rather than by timings.
//!
//! Write `F_i`, `D_i`, `N_i` for `FRONTIER_i`, `DOM_i`, `NEW_i`, and
//! `T_i = vol(F_i ∪ D_{i−1} ∪ N_{i−1})` for the adjacency stage `i ≥ 2` may
//! touch. Stage `i` of the build visits `F_{i−1}` once, walks `Γ(N_{i−1})`,
//! merges the candidates `C_i = D_{i−1} ∪ N_{i−1}`, and runs the reducer
//! (cover counts over `F_i`, one trial walk per candidate, a bounded number
//! of passes over `C_i` and `F_i`). Since every degree is ≥ 1 in a connected
//! graph with n ≥ 2, `|X| ≤ vol(X)`, and the tally is at most
//! `8·T_i + |F_{i−1}|`; summing (each `F_{i−1}` is part of `T_{i−1}`) and
//! adding the `n + 2m` connectivity check and stage 1 gives
//! `work ≤ 9·(n + m + Σ_i T_i)`.
//!
//! On a path from an endpoint every stage has `|F_i| = |D_i| = |N_i| = 1`
//! and costs exactly 25, plus 3 per node of setup: `work = 14·(n + m)`.
//!
//! `C = 16` covers both with a small margin. The original construction
//! rebuilt `INF_i`, `UNINF_i` and `Γ(INF_i)` at every stage — about
//! `n·ℓ = 10¹⁰` element visits on `path(100 000)`, over 3000× this bound.

use radio_labeling::graph::algorithms::ReductionOrder;
use radio_labeling::graph::generators::{self, TopologyFamily};
use radio_labeling::graph::{Graph, NodeId};
use radio_labeling::labeling::SequenceConstruction;

/// The constant of both bounds; see the module docs.
const C: u64 = 16;

fn vol(g: &Graph, set: &[NodeId]) -> u64 {
    set.iter().map(|&v| g.degree(v) as u64).sum()
}

fn n_plus_m(g: &Graph) -> u64 {
    (g.node_count() + g.edge_count()) as u64
}

/// `Σ_{i≥2} vol(FRONTIER_i ∪ DOM_{i−1} ∪ NEW_{i−1})`; the three sets are
/// disjoint (`FRONTIER_i ⊆ UNINF_i`, the other two ⊆ `INF_i`).
fn touched_volume(g: &Graph, c: &SequenceConstruction) -> u64 {
    (2..=c.ell())
        .map(|i| vol(g, c.frontier(i)) + vol(g, c.dom(i - 1)) + vol(g, c.new_set(i - 1)))
        .sum()
}

#[test]
fn path_from_an_endpoint_costs_linear_work() {
    let g = generators::path(100_000);
    let c = SequenceConstruction::build(&g, 0, ReductionOrder::Forward).unwrap();
    assert_eq!(c.ell(), 100_000);
    let bound = C * n_plus_m(&g);
    assert!(c.work() <= bound, "work {} > {bound}", c.work());
}

/// Builds every preset in `presets` at n = 2000 from two sources and checks
/// the construction's work against the touched-volume bound.
fn check_presets(presets: &[TopologyFamily]) {
    for family in presets {
        let g = family.generate(2000, 1).expect("presets generate");
        for source in [0, g.node_count() / 2] {
            let c = SequenceConstruction::build(&g, source, ReductionOrder::Forward).unwrap();
            let bound = C * (n_plus_m(&g) + touched_volume(&g, &c));
            assert!(
                c.work() <= bound,
                "{} from {source}: work {} > {bound}",
                family.name(),
                c.work()
            );
        }
    }
}

// The presets are split in two tests so the harness builds them on two
// threads: generating the 2-million-edge complete graph dominates.

#[test]
fn first_half_of_the_presets_has_no_per_stage_linear_term() {
    check_presets(&TopologyFamily::PRESETS[..9]);
}

#[test]
fn second_half_of_the_presets_has_no_per_stage_linear_term() {
    check_presets(&TopologyFamily::PRESETS[9..]);
}
