//! Differential test of the §2.1 sequence construction against a reference.
//!
//! `reference` below is the original, direct transcription of §2.1: it
//! materialises `INF_i`/`UNINF_i` at every stage, recomputes `Γ(INF_i)` from
//! scratch, and reduces with freshly allocated `n`-sized arrays — `Θ(n)` work
//! and memory per stage. It is kept here verbatim (less its debug-only
//! minimality assertion, which the library build still makes), together
//! with the domination primitives it used, as the oracle for the
//! incremental `SequenceConstruction::build`: every stage's sets, ℓ, the
//! per-node point queries and the λ, λ_ack, λ_arb, multi_lambda and gossip
//! labelings must match it exactly over every registry preset, a range of
//! sizes, seeds and sources, in each reduction order (one test per order),
//! and over every connected graph on up to 8 nodes from every source.

use rand::{Rng, SeedableRng};
use rn_graph::algorithms::{self, ReductionOrder};
use rn_graph::enumerate::connected_graphs;
use rn_graph::generators::TopologyFamily;
use rn_graph::{Graph, NodeId};
use rn_labeling::{gossip, lambda, lambda_ack, lambda_arb, multi, Label, SequenceConstruction};

mod reference {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rn_graph::algorithms::{is_connected, ReductionOrder};
    use rn_graph::{Graph, NodeId};
    use rn_labeling::Label;

    pub struct Stage {
        pub index: usize,
        pub inf: Vec<NodeId>,
        pub uninf: Vec<NodeId>,
        pub frontier: Vec<NodeId>,
        pub dom: Vec<NodeId>,
        pub new: Vec<NodeId>,
    }

    pub struct Construction {
        pub source: NodeId,
        pub stages: Vec<Stage>,
    }

    fn neighborhood_of_set(g: &Graph, set: &[NodeId]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = set
            .iter()
            .flat_map(|&v| g.neighbors(v).iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    pub fn is_dominating_set(g: &Graph, set: &[NodeId], targets: &[NodeId]) -> bool {
        let mut in_set = vec![false; g.node_count()];
        for &v in set {
            in_set[v] = true;
        }
        targets
            .iter()
            .all(|&t| g.neighbors(t).iter().any(|&w| in_set[w]))
    }

    pub fn is_minimal_dominating_set(g: &Graph, set: &[NodeId], targets: &[NodeId]) -> bool {
        if !is_dominating_set(g, set, targets) {
            return false;
        }
        let mut in_set = vec![false; g.node_count()];
        for &v in set {
            in_set[v] = true;
        }
        set.iter().all(|&member| {
            targets.iter().any(|&t| {
                g.has_edge(member, t) && g.neighbors(t).iter().filter(|&&w| in_set[w]).count() == 1
            })
        })
    }

    pub fn dominator_count(g: &Graph, set: &[NodeId], target: NodeId) -> usize {
        let mut in_set = vec![false; g.node_count()];
        for &v in set {
            in_set[v] = true;
        }
        g.neighbors(target).iter().filter(|&&w| in_set[w]).count()
    }

    pub fn minimal_dominating_subset(
        g: &Graph,
        candidates: &[NodeId],
        targets: &[NodeId],
        order: ReductionOrder,
    ) -> Option<Vec<NodeId>> {
        if !is_dominating_set(g, candidates, targets) {
            return None;
        }
        let n = g.node_count();
        let mut in_set = vec![false; n];
        for &c in candidates {
            in_set[c] = true;
        }
        let mut cover = vec![0usize; n];
        let mut is_target = vec![false; n];
        for &t in targets {
            is_target[t] = true;
            cover[t] = g.neighbors(t).iter().filter(|&&w| in_set[w]).count();
        }

        let mut trial: Vec<NodeId> = candidates.to_vec();
        match order {
            ReductionOrder::Forward => trial.sort_unstable(),
            ReductionOrder::Reverse => {
                trial.sort_unstable();
                trial.reverse();
            }
            ReductionOrder::Random(seed) => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                trial.sort_unstable();
                trial.shuffle(&mut rng);
            }
        }

        for &c in &trial {
            let removable = g
                .neighbors(c)
                .iter()
                .all(|&t| !is_target[t] || cover[t] >= 2);
            if removable && in_set[c] {
                in_set[c] = false;
                for &t in g.neighbors(c) {
                    if is_target[t] {
                        cover[t] -= 1;
                    }
                }
            }
        }

        let mut result: Vec<NodeId> = (0..n).filter(|&v| in_set[v]).collect();
        result.sort_unstable();
        Some(result)
    }

    /// The §2.1 construction, stage by stage, exactly as first written.
    /// Panics where the library returns an error (inputs here are valid).
    pub fn build(g: &Graph, source: NodeId, order: ReductionOrder) -> Construction {
        let n = g.node_count();
        assert!(n > 0 && source < n && is_connected(g));

        let mut stages = Vec::new();
        let mut informed = vec![false; n];
        informed[source] = true;

        let frontier1 = neighborhood_of_set(g, &[source]);
        stages.push(Stage {
            index: 1,
            inf: vec![source],
            uninf: (0..n).filter(|&v| v != source).collect(),
            frontier: frontier1.clone(),
            dom: vec![source],
            new: frontier1,
        });

        loop {
            let prev = stages.last().expect("at least one stage");
            if prev.uninf.is_empty() {
                break;
            }
            let index = prev.index + 1;
            for &v in &prev.new {
                informed[v] = true;
            }
            let inf: Vec<NodeId> = (0..n).filter(|&v| informed[v]).collect();
            let uninf: Vec<NodeId> = (0..n).filter(|&v| !informed[v]).collect();

            let gamma_inf = neighborhood_of_set(g, &inf);
            let frontier: Vec<NodeId> = uninf
                .iter()
                .copied()
                .filter(|v| gamma_inf.binary_search(v).is_ok())
                .collect();

            let mut candidates: Vec<NodeId> =
                prev.dom.iter().chain(prev.new.iter()).copied().collect();
            candidates.sort_unstable();
            candidates.dedup();
            let dom = minimal_dominating_subset(g, &candidates, &frontier, order)
                .expect("Lemma 2.5: DOM_{i-1} ∪ NEW_{i-1} dominates FRONTIER_i");

            let new: Vec<NodeId> = frontier
                .iter()
                .copied()
                .filter(|&v| dominator_count(g, &dom, v) == 1)
                .collect();

            stages.push(Stage {
                index,
                inf,
                uninf,
                frontier,
                dom,
                new,
            });
            let last = stages.last().expect("just pushed");
            assert!(
                !last.new.is_empty() || last.uninf.is_empty(),
                "construction stalled: Lemma 2.4 violated"
            );
        }
        Construction { source, stages }
    }

    impl Construction {
        pub fn new_stage_of(&self, v: NodeId) -> Option<usize> {
            self.stages
                .iter()
                .find(|s| s.new.binary_search(&v).is_ok())
                .map(|s| s.index)
        }

        pub fn in_some_dom(&self, v: NodeId) -> bool {
            self.stages.iter().any(|s| s.dom.binary_search(&v).is_ok())
        }
    }

    /// λ's 2-bit labels from the construction, as first written.
    pub fn lambda_labels(g: &Graph, construction: &Construction) -> Vec<Label> {
        let n = g.node_count();
        let mut x1 = vec![false; n];
        let mut x2 = vec![false; n];
        for stage in &construction.stages {
            for &v in &stage.dom {
                x1[v] = true;
            }
        }
        for window in construction.stages.windows(2) {
            let cur = &window[0];
            let next = &window[1];
            for &v in &next.dom {
                if cur.dom.binary_search(&v).is_ok() {
                    let w = cur
                        .new
                        .iter()
                        .copied()
                        .find(|&w| g.has_edge(v, w))
                        .expect("minimality of DOM_i gives v a private NEW_i neighbour");
                    x2[w] = true;
                }
            }
        }
        (0..n).map(|v| Label::two_bits(x1[v], x2[v])).collect()
    }

    /// λ_ack's node `z` and 3-bit labels: λ plus `x3` at the first node of
    /// `NEW_{ℓ−1}` (the source on a single node).
    pub fn lambda_ack_labels(g: &Graph, construction: &Construction) -> (NodeId, Vec<Label>) {
        let ell = construction.stages.len();
        let z = if ell >= 2 {
            construction.stages[ell - 2].new[0]
        } else {
            construction.source
        };
        let labels = lambda_labels(g, construction)
            .into_iter()
            .enumerate()
            .map(|(v, l)| Label::three_bits(l.x1(), l.x2(), v == z))
            .collect();
        (z, labels)
    }
}

/// Node counts the differential sweeps every preset over.
const SIZES: [usize; 9] = [1, 2, 3, 5, 8, 17, 40, 100, 300];
const SEEDS: [u64; 3] = [1, 2, 3];

/// Every instance of the sweep as (description, graph, source): each preset
/// at each size in [`SIZES`] and seed in [`SEEDS`] from sources {0, n/2,
/// n−1} of the generated graph's node count. The presets start at n = 4, so
/// the sizes below that are covered by every connected graph on 1–3 nodes
/// (up to isomorphism) from every source instead.
fn instances() -> Vec<(String, Graph, NodeId)> {
    let mut out = Vec::new();
    for n in SIZES.into_iter().filter(|&n| n < 4) {
        for (k, g) in connected_graphs(n).into_iter().enumerate() {
            for source in g.nodes() {
                out.push((
                    format!("connected graph #{k} n={n} source={source}"),
                    g.clone(),
                    source,
                ));
            }
        }
    }
    for family in TopologyFamily::PRESETS {
        for n in SIZES.into_iter().filter(|&n| n >= 4) {
            for seed in SEEDS {
                let g = family.generate(n, seed).expect("presets generate");
                let n = g.node_count();
                let mut sources = vec![0, n / 2, n - 1];
                sources.dedup();
                for source in sources {
                    let what = format!("{} n={n} seed={seed} source={source}", family.name());
                    out.push((what, g.clone(), source));
                }
            }
        }
    }
    out
}

fn assert_same_construction(
    g: &Graph,
    c: &SequenceConstruction,
    r: &reference::Construction,
    what: &str,
) {
    assert_eq!(c.source(), r.source, "{what}: source");
    assert_eq!(c.ell(), r.stages.len(), "{what}: ℓ");
    assert_eq!(c.stages().len(), r.stages.len(), "{what}: stage count");
    for (s, rs) in c.stages().zip(&r.stages) {
        let i = rs.index;
        assert_eq!(s.index, i, "{what}: stage index");
        assert_eq!(s.frontier, rs.frontier, "{what}: FRONTIER_{i}");
        assert_eq!(s.dom, rs.dom, "{what}: DOM_{i}");
        assert_eq!(s.new, rs.new, "{what}: NEW_{i}");
        assert_eq!(c.inf(i), rs.inf, "{what}: INF_{i}");
        assert_eq!(c.uninf(i), rs.uninf, "{what}: UNINF_{i}");
    }
    for v in g.nodes() {
        assert_eq!(c.new_stage_of(v), r.new_stage_of(v), "{what}: stage of {v}");
        assert_eq!(c.in_some_dom(v), r.in_some_dom(v), "{what}: {v} ∈ some DOM");
    }
}

/// Every connected graph on 1 to 8 nodes up to isomorphism — the
/// rn-modelcheck enumeration — from every source.
fn enumerated_instances() -> Vec<(String, Graph, NodeId)> {
    let mut out = Vec::new();
    for n in 1..=8 {
        for (k, g) in connected_graphs(n).into_iter().enumerate() {
            for source in g.nodes() {
                out.push((
                    format!("connected graph #{k} n={n} source={source}"),
                    g.clone(),
                    source,
                ));
            }
        }
    }
    out
}

/// Diffs the construction and the λ, λ_ack and λ_arb labelings (and, for
/// the forward order, multi_lambda and gossip) against the reference on
/// every instance, reducing in `order`. Returns how many instances were
/// compared.
fn check_paper_schemes(instances: &[(String, Graph, NodeId)], order: ReductionOrder) -> usize {
    for (what, g, source) in instances {
        let source = *source;
        let what = format!("{what} {order:?}");
        let r = reference::build(g, source, order);
        let ref_lambda = reference::lambda_labels(g, &r);
        let (ref_z, ref_ack) = reference::lambda_ack_labels(g, &r);

        let c = SequenceConstruction::build(g, source, order).unwrap();
        assert_same_construction(g, &c, &r, &what);

        let l = lambda::construct_with_order(g, source, order).unwrap();
        assert_eq!(l.labeling().labels(), ref_lambda, "{what}: λ");

        let ack = lambda_ack::construct_with_order(g, source, order).unwrap();
        assert_eq!(ack.z(), ref_z, "{what}: λ_ack z");
        assert_eq!(ack.labeling().labels(), ref_ack, "{what}: λ_ack");

        // λ_arb with this node as the coordinator r: λ_ack of r, r → 111.
        let arb = lambda_arb::construct_with_coordinator(g, source, order).unwrap();
        let mut ref_arb = ref_ack;
        ref_arb[source] = lambda_arb::coordinator_label();
        assert_eq!(arb.z(), ref_z, "{what}: λ_arb z");
        assert_eq!(arb.labeling().labels(), ref_arb, "{what}: λ_arb");

        if order == ReductionOrder::Forward {
            // multi_lambda and gossip always reduce in the forward order:
            // their labels are the coordinator's λ labels.
            let gossip = gossip::construct_with_coordinator(g, source).unwrap();
            assert_same_construction(g, gossip.construction(), &r, &what);
            assert_eq!(gossip.labeling().labels(), ref_lambda, "{what}: gossip");

            let mut sources = vec![0, g.node_count() - 1];
            sources.dedup();
            let m = multi::construct_with_coordinator(g, &sources, source).unwrap();
            assert_same_construction(g, m.construction(), &r, &what);
            assert_eq!(m.labeling().labels(), ref_lambda, "{what}: multi_lambda");
        }
    }
    instances.len()
}

/// At least one source per preset graph (six preset sizes ≥ 4), so a sweep
/// that silently shrank fails loudly.
const MIN_INSTANCES: usize = TopologyFamily::PRESETS.len() * 6 * SEEDS.len();

#[test]
fn forward_order_matches_the_reference_for_all_five_schemes() {
    assert!(check_paper_schemes(&instances(), ReductionOrder::Forward) >= MIN_INSTANCES);
}

#[test]
fn reverse_order_matches_the_reference() {
    assert!(check_paper_schemes(&instances(), ReductionOrder::Reverse) >= MIN_INSTANCES);
}

#[test]
fn random_order_matches_the_reference() {
    assert!(check_paper_schemes(&instances(), ReductionOrder::Random(7)) >= MIN_INSTANCES);
}

/// Connected graphs on n = 1…8 nodes up to isomorphism (OEIS A001349),
/// each from its n sources.
const ENUMERATED_INSTANCES: usize = 1 + 2 + 2 * 3 + 6 * 4 + 21 * 5 + 112 * 6 + 853 * 7 + 11_117 * 8;

#[test]
fn forward_order_matches_the_reference_on_every_graph_up_to_eight_nodes() {
    let compared = check_paper_schemes(&enumerated_instances(), ReductionOrder::Forward);
    assert_eq!(compared, ENUMERATED_INSTANCES);
}

#[test]
fn reverse_order_matches_the_reference_on_every_graph_up_to_eight_nodes() {
    let compared = check_paper_schemes(&enumerated_instances(), ReductionOrder::Reverse);
    assert_eq!(compared, ENUMERATED_INSTANCES);
}

#[test]
fn random_order_matches_the_reference_on_every_graph_up_to_eight_nodes() {
    let compared = check_paper_schemes(&enumerated_instances(), ReductionOrder::Random(7));
    assert_eq!(compared, ENUMERATED_INSTANCES);
}

#[test]
fn domination_primitives_match_the_reference_on_random_sets() {
    // The library's reducer and predicates against the originals on
    // arbitrary inputs: unsorted candidates with duplicates, candidates that
    // overlap the targets, and candidate sets that do not dominate.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2019);
    for family in TopologyFamily::PRESETS {
        let g = family.generate(40, 1).expect("presets generate");
        let n = g.node_count();
        for _ in 0..20 {
            let k = rng.gen_range(0..2 * n);
            let set: Vec<NodeId> = (0..k).map(|_| rng.gen_range(0..n)).collect();
            let k = rng.gen_range(0..n);
            let targets: Vec<NodeId> = (0..k).map(|_| rng.gen_range(0..n)).collect();
            let what = format!("{} set={set:?} targets={targets:?}", family.name());
            for order in [
                ReductionOrder::Forward,
                ReductionOrder::Reverse,
                ReductionOrder::Random(rng.gen_range(0..1000)),
            ] {
                assert_eq!(
                    algorithms::minimal_dominating_subset(&g, &set, &targets, order),
                    reference::minimal_dominating_subset(&g, &set, &targets, order),
                    "{what} {order:?}"
                );
            }
            assert_eq!(
                algorithms::is_dominating_set(&g, &set, &targets),
                reference::is_dominating_set(&g, &set, &targets),
                "{what}"
            );
            assert_eq!(
                algorithms::is_minimal_dominating_set(&g, &set, &targets),
                reference::is_minimal_dominating_set(&g, &set, &targets),
                "{what}"
            );
            for &t in &targets {
                assert_eq!(
                    algorithms::dominator_count(&g, &set, t),
                    reference::dominator_count(&g, &set, t),
                    "{what} t={t}"
                );
            }
        }
    }
}

#[test]
fn the_reference_itself_reproduces_known_constructions() {
    // Guard against the oracle drifting: C4 from 0 informs {1, 3}; the
    // forward reduction then drops 1 (node 2 still hears 3), so 3 alone
    // informs 2.
    let g = rn_graph::generators::cycle(4);
    let r = reference::build(&g, 0, ReductionOrder::Forward);
    let sets: Vec<(Vec<NodeId>, Vec<NodeId>)> = r
        .stages
        .iter()
        .map(|s| (s.dom.clone(), s.new.clone()))
        .collect();
    assert_eq!(
        sets,
        vec![(vec![0], vec![1, 3]), (vec![3], vec![2]), (vec![], vec![])]
    );
    let labels: Vec<Label> = reference::lambda_labels(&g, &r);
    assert_eq!(labels[0], Label::two_bits(true, false));
}
