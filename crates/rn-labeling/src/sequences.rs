//! The five-sequence construction of §2.1 of the paper.
//!
//! For a connected graph `G` with source `s`, the construction produces, for
//! each stage `i ≥ 1`, five sets:
//!
//! * `INF_i`  — nodes informed before round `2i − 1`;
//! * `UNINF_i` — nodes not yet informed before round `2i − 1`;
//! * `FRONTIER_i` — uninformed nodes adjacent to an informed node;
//! * `DOM_i` — a **minimal** subset of `DOM_{i−1} ∪ NEW_{i−1}` dominating the
//!   frontier (the nodes that transmit µ in round `2i − 1`);
//! * `NEW_i` — frontier nodes adjacent to **exactly one** node of `DOM_i`
//!   (the nodes newly informed in round `2i − 1`).
//!
//! The construction ends at the first stage `ℓ` with `INF_ℓ = V(G)`.
//!
//! Besides being the basis of the λ labeling scheme, the construction is the
//! ground truth against which the integration tests check the executed
//! broadcast (Lemma 2.8: exactly `DOM_i` transmit in round `2i − 1`, exactly
//! `NEW_i` are newly informed).
//!
//! # Algorithm
//!
//! [`SequenceConstruction::build`] is incremental: after an `O(n + m)` setup
//! (input checks and scratch allocated once), no stage does work or holds
//! memory proportional to `n`.
//!
//! * **Frontier.** `INF_i = INF_{i−1} ∪ NEW_{i−1}`, so
//!   `FRONTIER_i = (FRONTIER_{i−1} \ NEW_{i−1}) ∪ (Γ(NEW_{i−1}) ∩ UNINF_i)`.
//!   The first part is `FRONTIER_{i−1}` filtered in order; the second is the
//!   neighbours of `NEW_{i−1}` not yet *reached* (a node is reached once it
//!   is the source or has entered a frontier), sorted and merged in.
//! * **Reduction.** One [`DominationReducer`], allocated per build, reduces
//!   the merged candidates `DOM_{i−1} ∪ NEW_{i−1}` against `FRONTIER_i` in
//!   the given [`ReductionOrder`] and resets only the entries it touched.
//!   `NEW_i` is read off its final cover counts: the frontier nodes covered
//!   exactly once.
//! * **Storage.** `FRONTIER`, `DOM` and `NEW` live in three flat arrays with
//!   per-stage offsets; [`stages`](SequenceConstruction::stages) hands out
//!   borrowed [`Stage`] views. `NEW` partitions `V \ {s}` (Corollary 2.7), so
//!   a per-node stage index answers
//!   [`new_stage_of`](SequenceConstruction::new_stage_of) and
//!   [`informed_round`](SequenceConstruction::informed_round) in `O(1)`, and
//!   `INF_i`/`UNINF_i` are derived on demand by [`inf`](SequenceConstruction::inf)
//!   and [`uninf`](SequenceConstruction::uninf) instead of being stored.
//!
//! Stage `i ≥ 2` walks `FRONTIER_{i−1}` once and the adjacency of
//! `FRONTIER_i ∪ DOM_{i−1} ∪ NEW_{i−1}` a constant number of times (plus
//! sorting the newly reached nodes and the reducer's trial order), so a build
//! costs `O(n + m + Σ_i vol(FRONTIER_i ∪ DOM_{i−1} ∪ NEW_{i−1}))` up to those
//! sorts, and stores `O(n + Σ_i (|FRONTIER_i| + |DOM_i|))` node ids — linear
//! on a path, where the old per-stage `INF`/`UNINF` vectors were
//! `Θ(n · ℓ) = Θ(n²)`. [`SequenceConstruction::work`] counts that cost
//! deterministically.

use crate::error::LabelingError;
use rn_graph::algorithms::{
    is_connected, is_minimal_dominating_set, DominationReducer, ReductionOrder,
};
use rn_graph::{Graph, NodeId};

/// A borrowed view of one stage of the construction (the paper's index `i`
/// is `index`). `INF_i` and `UNINF_i` are not stored; see
/// [`SequenceConstruction::inf`] and [`SequenceConstruction::uninf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage<'a> {
    /// The 1-based stage index `i`.
    pub index: usize,
    /// `FRONTIER_i`: uninformed nodes adjacent to at least one informed node
    /// (sorted).
    pub frontier: &'a [NodeId],
    /// `DOM_i`: the minimal dominating subset that transmits in round
    /// `2i − 1` (sorted).
    pub dom: &'a [NodeId],
    /// `NEW_i`: nodes newly informed in round `2i − 1` (sorted).
    pub new: &'a [NodeId],
}

/// One kind of set (`FRONTIER`, `DOM` or `NEW`) for every stage, back to
/// back: stage `i`'s set is `items[offsets[i − 1]..offsets[i]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StageSets {
    items: Vec<NodeId>,
    offsets: Vec<usize>,
}

impl StageSets {
    fn new() -> Self {
        StageSets {
            items: Vec::new(),
            offsets: vec![0],
        }
    }

    /// The set of stage `i` (1-based), empty outside the stored stages.
    fn get(&self, i: usize) -> &[NodeId] {
        match (i.checked_sub(1), self.offsets.get(i)) {
            (Some(lo), Some(&hi)) => &self.items[self.offsets[lo]..hi],
            _ => &[],
        }
    }

    /// Closes the stage whose items were appended since the last close.
    fn close_stage(&mut self) {
        self.offsets.push(self.items.len());
    }
}

/// Marks a node not (yet) in any `NEW_i` in
/// [`SequenceConstruction::informed_stage`].
const NOT_INFORMED: u32 = u32::MAX;

/// The full sequence construction for a graph and source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceConstruction {
    source: NodeId,
    frontier: StageSets,
    dom: StageSets,
    new: StageSets,
    /// Per node: the stage `i` with `v ∈ NEW_i`, or 0 for the source.
    informed_stage: Vec<u32>,
    /// Per node: whether it belongs to some `DOM_i`.
    in_some_dom: Vec<bool>,
    work: u64,
}

impl SequenceConstruction {
    /// Runs the construction of §2.1 for `(g, source)`.
    ///
    /// `order` selects how the minimal dominating subset is reduced; every
    /// order yields a valid construction (the paper allows any minimal
    /// subset), and the choice only matters for the ablation experiment.
    pub fn build(g: &Graph, source: NodeId, order: ReductionOrder) -> Result<Self, LabelingError> {
        let n = g.node_count();
        if n == 0 {
            return Err(LabelingError::EmptyGraph);
        }
        if source >= n {
            return Err(LabelingError::SourceOutOfRange {
                source,
                node_count: n,
            });
        }
        if !is_connected(g) {
            return Err(LabelingError::NotConnected);
        }

        let mut c = SequenceConstruction {
            source,
            frontier: StageSets::new(),
            dom: StageSets::new(),
            new: StageSets::new(),
            informed_stage: vec![NOT_INFORMED; n],
            in_some_dom: vec![false; n],
            // The connectivity check visits every node and adjacency entry.
            work: (n + 2 * g.edge_count()) as u64,
        };
        // The source and every node that has entered some frontier.
        let mut reached = vec![false; n];
        let mut reducer = DominationReducer::new(n);
        let (mut added, mut retained, mut candidates) = (Vec::new(), Vec::new(), Vec::new());
        let (mut dom, mut new) = (Vec::new(), Vec::new());

        // Stage 1: FRONTIER_1 = NEW_1 = Γ(s), DOM_1 = {s}.
        let gamma = g.neighbors(source);
        reached[source] = true;
        for &v in gamma {
            reached[v] = true;
        }
        c.work += gamma.len() as u64;
        c.informed_stage[source] = 0;
        c.frontier.items.extend_from_slice(gamma);
        c.frontier.close_stage();
        c.record(&[source], gamma);
        // |INF_i| for the last stage pushed.
        let mut informed = 1;

        // The construction ends at the first stage with INF_i = V(G).
        while informed < n {
            let prev = c.ell();
            let index = prev + 1;
            let prev_new = c.new.get(prev);
            informed += prev_new.len();

            // FRONTIER_i = (FRONTIER_{i-1} \ NEW_{i-1}) ∪ (Γ(NEW_{i-1}) ∩ UNINF_i).
            added.clear();
            for &v in prev_new {
                let nbrs = g.neighbors(v);
                c.work += nbrs.len() as u64;
                for &u in nbrs {
                    if !reached[u] {
                        reached[u] = true;
                        added.push(u);
                    }
                }
            }
            added.sort_unstable();
            retained.clear();
            retained.extend(
                (c.frontier.get(prev).iter().copied())
                    .filter(|&v| c.informed_stage[v] == NOT_INFORMED), // v ∉ NEW_{i-1}
            );
            c.work += (c.frontier.get(prev).len() + retained.len() + added.len()) as u64;
            merge_sorted(&retained, &added, &mut c.frontier.items);
            c.frontier.close_stage();

            // DOM_i = minimal subset of DOM_{i-1} ∪ NEW_{i-1} dominating
            // FRONTIER_i (the two are disjoint: DOM_{i-1} ⊆ INF_{i-1}, NEW_{i-1}
            // ⊆ UNINF_{i-1}); NEW_i = frontier nodes with exactly one
            // dominator in DOM_i.
            candidates.clear();
            merge_sorted(c.dom.get(prev), c.new.get(prev), &mut candidates);
            c.work += candidates.len() as u64;
            let frontier = c.frontier.get(index);
            let dominated = reducer.reduce(g, &candidates, frontier, order, &mut dom, &mut new);
            assert!(
                dominated,
                "Lemma 2.5: DOM_{{i-1}} ∪ NEW_{{i-1}} dominates FRONTIER_i"
            );
            debug_assert!(frontier.is_empty() || is_minimal_dominating_set(g, &dom, frontier));
            c.record(&dom, &new);

            // Safety net: the construction must make progress (Lemma 2.4); if
            // it ever fails to, something is deeply wrong and looping forever
            // would be worse than panicking.
            assert!(
                !new.is_empty() || informed == n,
                "construction stalled: Lemma 2.4 violated"
            );
        }

        c.work += reducer.work();
        Ok(c)
    }

    /// Appends `DOM_i` and `NEW_i` of the stage whose frontier was just
    /// closed, and records each node's stage and dominator status.
    fn record(&mut self, dom: &[NodeId], new: &[NodeId]) {
        let index = u32::try_from(self.frontier.offsets.len() - 1).expect("ℓ ≤ n fits in u32");
        self.dom.items.extend_from_slice(dom);
        self.dom.close_stage();
        self.new.items.extend_from_slice(new);
        self.new.close_stage();
        for &v in dom {
            self.in_some_dom[v] = true;
        }
        for &v in new {
            self.informed_stage[v] = index;
        }
        self.work += (dom.len() + new.len()) as u64;
    }

    /// The source node the construction was built for.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// All stages in order, stage 1 first, as borrowed views.
    pub fn stages(&self) -> impl ExactSizeIterator<Item = Stage<'_>> + '_ {
        (1..self.ell() + 1).map(|i| self.view(i))
    }

    /// The stage with index `i` (1-based), if it exists.
    pub fn stage(&self, i: usize) -> Option<Stage<'_>> {
        (1..=self.ell()).contains(&i).then(|| self.view(i))
    }

    fn view(&self, index: usize) -> Stage<'_> {
        Stage {
            index,
            frontier: self.frontier.get(index),
            dom: self.dom.get(index),
            new: self.new.get(index),
        }
    }

    /// The paper's ℓ: the smallest `i` with `INF_i = V(G)`.
    pub fn ell(&self) -> usize {
        self.dom.offsets.len() - 1
    }

    /// `DOM_i` for any `i ≥ 1` (empty for `i ≥ ℓ`).
    pub fn dom(&self, i: usize) -> &[NodeId] {
        self.dom.get(i)
    }

    /// `NEW_i` for any `i ≥ 1` (empty for `i ≥ ℓ`).
    pub fn new_set(&self, i: usize) -> &[NodeId] {
        self.new.get(i)
    }

    /// `FRONTIER_i` for any `i ≥ 1` (empty for `i ≥ ℓ`): the uninformed
    /// neighbourhood of `INF_{i-1}` that `DOM_i` dominates.
    pub fn frontier(&self, i: usize) -> &[NodeId] {
        self.frontier.get(i)
    }

    /// `INF_i` for any `i ≥ 1` (sorted): the source plus `NEW_1, …,
    /// NEW_{i−1}` (Fact 2.2). Derived on demand in `O(n)`.
    pub fn inf(&self, i: usize) -> Vec<NodeId> {
        self.nodes_where(|stage| stage < i)
    }

    /// `UNINF_i` for any `i ≥ 1` (sorted): the complement of `INF_i`.
    /// Derived on demand in `O(n)`.
    pub fn uninf(&self, i: usize) -> Vec<NodeId> {
        self.nodes_where(|stage| stage >= i)
    }

    fn nodes_where(&self, keep: impl Fn(usize) -> bool) -> Vec<NodeId> {
        (0..self.informed_stage.len())
            .filter(|&v| keep(self.informed_stage[v] as usize))
            .collect()
    }

    /// Whether node `v` belongs to `DOM_i` for some `i`. `O(1)`.
    pub fn in_some_dom(&self, v: NodeId) -> bool {
        self.in_some_dom.get(v).is_some_and(|&d| d)
    }

    /// The unique stage `i` with `v ∈ NEW_i`, if any (Lemma 2.3 guarantees
    /// uniqueness; the source belongs to no `NEW_i`). `O(1)`.
    pub fn new_stage_of(&self, v: NodeId) -> Option<usize> {
        if v == self.source {
            return None;
        }
        self.informed_stage.get(v).map(|&i| i as usize)
    }

    /// The round in which node `v` is informed when algorithm B runs on the λ
    /// labeling derived from this construction: round 1 receives nothing (the
    /// source starts informed), a node in `NEW_i` is informed in round
    /// `2i − 1` (Lemma 2.8).
    pub fn informed_round(&self, v: NodeId) -> Option<u64> {
        if v == self.source {
            return Some(0);
        }
        self.new_stage_of(v).map(|i| 2 * i as u64 - 1)
    }

    /// Adjacency entries walked plus set elements visited by
    /// [`build`](Self::build), including the connectivity check: a
    /// deterministic measure of the construction's cost, linear in
    /// `n + m + Σ_i vol(FRONTIER_i ∪ DOM_{i−1} ∪ NEW_{i−1})`.
    pub fn work(&self) -> u64 {
        self.work
    }
}

/// Appends the union of the sorted, disjoint `a` and `b` to `out`, sorted.
fn merge_sorted(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    let mut b = b.iter().copied().peekable();
    for &x in a {
        while let Some(y) = b.next_if(|&y| y < x) {
            out.push(y);
        }
        out.push(x);
    }
    out.extend(b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::algorithms::dominator_count;
    use rn_graph::generators;

    fn build(g: &Graph, s: NodeId) -> SequenceConstruction {
        SequenceConstruction::build(g, s, ReductionOrder::Forward).unwrap()
    }

    #[test]
    fn rejects_bad_inputs() {
        let empty = Graph::empty(0);
        assert_eq!(
            SequenceConstruction::build(&empty, 0, ReductionOrder::Forward).unwrap_err(),
            LabelingError::EmptyGraph
        );
        let path = generators::path(4);
        assert!(matches!(
            SequenceConstruction::build(&path, 9, ReductionOrder::Forward).unwrap_err(),
            LabelingError::SourceOutOfRange { .. }
        ));
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            SequenceConstruction::build(&disconnected, 0, ReductionOrder::Forward).unwrap_err(),
            LabelingError::NotConnected
        );
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::empty(1);
        let c = build(&g, 0);
        assert_eq!(c.ell(), 1);
        assert_eq!(c.stages().len(), 1);
        assert_eq!(c.inf(1), vec![0]);
        assert!(c.stage(1).unwrap().new.is_empty());
    }

    #[test]
    fn stage_one_matches_definition() {
        let g = generators::star(6);
        let c = build(&g, 0);
        let s1 = c.stage(1).unwrap();
        assert_eq!(c.inf(1), vec![0]);
        assert_eq!(c.uninf(1), (1..6).collect::<Vec<_>>());
        assert_eq!(s1.frontier, (1..6).collect::<Vec<_>>());
        assert_eq!(s1.new, (1..6).collect::<Vec<_>>());
        assert_eq!(s1.dom, vec![0]);
        // Star: everything informed after stage 1, so ℓ = 2.
        assert_eq!(c.ell(), 2);
    }

    #[test]
    fn fact_2_1_new_subset_frontier_subset_uninf() {
        for (g, s) in [
            (generators::path(9), 0),
            (generators::cycle(10), 3),
            (generators::grid(4, 5), 7),
            (generators::hypercube(4), 0),
            (generators::gnp_connected(40, 0.1, 11).unwrap(), 5),
        ] {
            let c = build(&g, s);
            for st in c.stages() {
                let uninf = c.uninf(st.index);
                for v in st.new {
                    assert!(st.frontier.contains(v), "NEW ⊆ FRONTIER");
                }
                for v in st.frontier {
                    assert!(uninf.contains(v), "FRONTIER ⊆ UNINF");
                }
            }
        }
    }

    #[test]
    fn fact_2_2_inf_is_source_plus_new_sets() {
        let g = generators::grid(4, 4);
        let c = build(&g, 0);
        for st in c.stages() {
            let mut expected: Vec<NodeId> = vec![c.source()];
            for prev in c.stages().take_while(|p| p.index < st.index) {
                expected.extend_from_slice(prev.new);
            }
            expected.sort_unstable();
            expected.dedup();
            let inf = c.inf(st.index);
            assert_eq!(inf, expected, "stage {}", st.index);
            // UNINF is the complement of INF.
            let mut all: Vec<NodeId> = inf.into_iter().chain(c.uninf(st.index)).collect();
            all.sort_unstable();
            assert_eq!(all, (0..g.node_count()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lemma_2_3_new_sets_are_disjoint() {
        let g = generators::gnp_connected(60, 0.07, 3).unwrap();
        let c = build(&g, 0);
        let mut seen = vec![false; g.node_count()];
        for st in c.stages() {
            for &v in st.new {
                assert!(!seen[v], "node {v} appears in two NEW sets");
                seen[v] = true;
            }
        }
    }

    #[test]
    fn lemma_2_4_progress_every_stage() {
        let g = generators::barbell(5, 3);
        let c = build(&g, 0);
        for st in c.stages() {
            if !c.uninf(st.index).is_empty() {
                assert!(!st.new.is_empty(), "stage {} made no progress", st.index);
            }
        }
    }

    #[test]
    fn lemma_2_6_ell_at_most_n() {
        for (g, s) in [
            (generators::path(17), 0),
            (generators::cycle(12), 0),
            (generators::complete(9), 4),
            (generators::star(15), 3),
            (generators::lollipop(5, 6), 10),
        ] {
            let c = build(&g, s);
            assert!(c.ell() <= g.node_count(), "ℓ = {} > n", c.ell());
        }
    }

    #[test]
    fn corollary_2_7_new_sets_partition_non_source_nodes() {
        for (g, s) in [
            (generators::grid(3, 5), 7),
            (generators::random_tree(33, 5), 0),
            (generators::theta(4, 3).unwrap(), 1),
        ] {
            let c = build(&g, s);
            let mut count = 0;
            let mut covered = vec![false; g.node_count()];
            for st in c.stages() {
                for &v in st.new {
                    assert!(!covered[v]);
                    covered[v] = true;
                    count += 1;
                }
            }
            assert_eq!(count, g.node_count() - 1);
            assert!(!covered[s]);
        }
    }

    #[test]
    fn dom_sets_are_minimal_dominating_sets_of_the_frontier() {
        let g = generators::gnp_connected(35, 0.12, 8).unwrap();
        let c = build(&g, 2);
        for st in c.stages().skip(1) {
            if st.frontier.is_empty() {
                assert!(st.dom.is_empty());
            } else {
                assert!(
                    is_minimal_dominating_set(&g, st.dom, st.frontier),
                    "stage {}",
                    st.index
                );
            }
        }
    }

    #[test]
    fn dom_subset_of_previous_dom_union_new() {
        let g = generators::grid(5, 5);
        let c = build(&g, 12);
        for (prev, cur) in c.stages().zip(c.stages().skip(1)) {
            for v in cur.dom {
                assert!(
                    prev.dom.contains(v) || prev.new.contains(v),
                    "DOM_{} contains {v} not in DOM_{} ∪ NEW_{}",
                    cur.index,
                    prev.index,
                    prev.index
                );
            }
        }
    }

    #[test]
    fn new_nodes_have_exactly_one_dominator() {
        let g = generators::hypercube(4);
        let c = build(&g, 0);
        for st in c.stages() {
            for &v in st.new {
                assert_eq!(dominator_count(&g, st.dom, v), 1);
            }
            // Frontier nodes not in NEW have 0 or >= 2 dominators — but by
            // domination they have at least one, so >= 2.
            for &v in st.frontier {
                if !st.new.contains(&v) {
                    assert!(dominator_count(&g, st.dom, v) >= 2);
                }
            }
        }
    }

    #[test]
    fn last_stage_has_everyone_informed() {
        let g = generators::caterpillar(6, 3);
        let c = build(&g, 0);
        let last = c.stages().last().unwrap();
        assert_eq!(last.index, c.ell());
        assert_eq!(c.inf(last.index).len(), g.node_count());
        assert!(c.uninf(last.index).is_empty());
        assert!(last.frontier.is_empty());
        assert!(last.dom.is_empty());
        assert!(last.new.is_empty());
    }

    #[test]
    fn path_from_endpoint_has_linear_ell() {
        let g = generators::path(10);
        let c = build(&g, 0);
        // One new node per stage: ℓ = n.
        assert_eq!(c.ell(), 10);
        for (i, st) in c.stages().enumerate() {
            if i + 1 < c.ell() {
                assert_eq!(st.new.len(), 1);
            }
        }
    }

    #[test]
    fn complete_graph_needs_two_stages() {
        // K_n: the source is adjacent to every other node, so NEW_1 is all of
        // them and INF_2 = V(G), giving ℓ = 2.
        let g = generators::complete(7);
        let c = build(&g, 0);
        assert_eq!(c.ell(), 2);
    }

    #[test]
    fn four_cycle_stages() {
        // C4 with source 0: stage 1 informs 1 and 3; stage 2 informs 2 via a
        // single dominator; ℓ = 3.
        let g = generators::cycle(4);
        let c = build(&g, 0);
        assert_eq!(c.ell(), 3);
        let s2 = c.stage(2).unwrap();
        assert_eq!(s2.frontier, vec![2]);
        assert_eq!(s2.dom.len(), 1);
        assert_eq!(s2.new, vec![2]);
    }

    #[test]
    fn accessor_helpers() {
        let g = generators::cycle(6);
        let c = build(&g, 0);
        assert_eq!(c.source(), 0);
        assert!(c.in_some_dom(0));
        assert!(!c.in_some_dom(99));
        assert_eq!(c.new_stage_of(0), None);
        assert_eq!(c.new_stage_of(99), None);
        assert!(c.new_stage_of(1).is_some());
        assert_eq!(c.informed_round(0), Some(0));
        let v = 3; // antipodal node
        let i = c.new_stage_of(v).unwrap();
        assert_eq!(c.informed_round(v), Some(2 * i as u64 - 1));
        assert!(c.stage(0).is_none());
        assert!(c.stage(c.ell() + 5).is_none());
        assert!(c.dom(0).is_empty());
        assert!(c.dom(c.ell() + 5).is_empty());
        assert!(c.new_set(c.ell() + 5).is_empty());
        assert!(c.frontier(c.ell() + 5).is_empty());
    }

    #[test]
    fn point_queries_agree_with_the_stage_views() {
        let g = generators::gnp_connected(50, 0.08, 6).unwrap();
        let c = build(&g, 9);
        assert_eq!(c.stages().len(), c.ell());
        assert_eq!(c.stages().last(), c.stage(c.ell()));
        for (k, st) in c.stages().enumerate() {
            assert_eq!(st.index, k + 1);
            assert_eq!(Some(st), c.stage(st.index));
            assert_eq!(st.frontier, c.frontier(st.index));
            assert_eq!(st.dom, c.dom(st.index));
            assert_eq!(st.new, c.new_set(st.index));
            for &v in st.new {
                assert_eq!(c.new_stage_of(v), Some(st.index));
            }
        }
        for v in g.nodes() {
            assert_eq!(c.in_some_dom(v), c.stages().any(|st| st.dom.contains(&v)));
        }
    }

    #[test]
    fn different_reduction_orders_all_satisfy_invariants() {
        let g = generators::gnp_connected(30, 0.15, 4).unwrap();
        for order in [
            ReductionOrder::Forward,
            ReductionOrder::Reverse,
            ReductionOrder::Random(1),
            ReductionOrder::Random(99),
        ] {
            let c = SequenceConstruction::build(&g, 0, order).unwrap();
            assert!(c.ell() <= g.node_count());
            let mut covered = 0;
            for st in c.stages() {
                covered += st.new.len();
            }
            assert_eq!(covered, g.node_count() - 1);
        }
    }
}
