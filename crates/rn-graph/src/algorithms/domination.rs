//! Dominating sets and minimal dominating subsets.
//!
//! The heart of the paper's labeling scheme (§2.1, step 4) is: given the set
//! `DOM_{i-1} ∪ NEW_{i-1}` of candidate transmitters and the frontier
//! `FRONTIER_i` of uninformed nodes adjacent to informed nodes, pick a
//! **minimal** subset of the candidates that dominates the frontier. Minimality
//! (no candidate can be removed without leaving some frontier node
//! undominated) is exactly what guarantees progress (Lemma 2.4): every
//! candidate kept has a "private" frontier neighbour that hears it without
//! collision.
//!
//! [`DominationReducer`] implements that reduction on reusable scratch, so a
//! caller running it once per stage pays only for the sets it touches;
//! [`minimal_dominating_subset`] is the one-shot allocating form. The
//! [`ReductionOrder`] parameter exists only for the ablation benchmark — every
//! order yields a minimal set, but different minimal sets can lead to
//! different broadcast schedules.
//!
//! The membership predicates ([`is_dominating_set`],
//! [`is_minimal_dominating_set`], [`dominator_count`]) work on a sorted copy
//! of the set and never allocate anything of size `n`, so they stay cheap
//! inside per-stage debug assertions.

use crate::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Order in which candidate nodes are tried for removal when reducing a
/// dominating set to a minimal one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionOrder {
    /// Try candidates in increasing node-index order.
    Forward,
    /// Try candidates in decreasing node-index order.
    Reverse,
    /// Try candidates in a pseudo-random order derived from the given seed.
    Random(u64),
}

/// Whether node `x` dominates node `y` in `g`, i.e. `x` is adjacent to `y`.
/// (The paper's notion of domination is by adjacency, not closed
/// neighbourhood.)
pub fn dominates(g: &Graph, x: NodeId, y: NodeId) -> bool {
    g.has_edge(x, y)
}

/// `set` sorted and deduplicated: the membership index the predicates below
/// binary-search instead of allocating an `n`-sized bitmap.
fn members(set: &[NodeId]) -> Vec<NodeId> {
    let mut members = set.to_vec();
    members.sort_unstable();
    members.dedup();
    members
}

/// Number of neighbours of `target` in the sorted, deduplicated `members`.
fn cover_in(g: &Graph, members: &[NodeId], target: NodeId) -> usize {
    g.neighbors(target)
        .iter()
        .filter(|w| members.binary_search(w).is_ok())
        .count()
}

/// Whether `set` dominates every node of `targets`: each target has at least
/// one neighbour in `set`.
///
/// Runs in `O((|set| + Σ_{t∈targets} deg(t)) · log |set|)`, independent of
/// `n`.
pub fn is_dominating_set(g: &Graph, set: &[NodeId], targets: &[NodeId]) -> bool {
    let members = members(set);
    targets.iter().all(|&t| cover_in(g, &members, t) > 0)
}

/// Whether `set` is a **minimal** set dominating `targets`: it dominates them
/// and no proper subset does. Equivalently, every member of `set` has a
/// private target neighbour (a target adjacent to it and to no other member).
///
/// One pass over the targets computes each target's cover count; a target
/// covered exactly once marks its one dominator as having a private
/// neighbour. Runs in `O((|set| + Σ_{t∈targets} deg(t)) · log |set|)`,
/// independent of `n`.
pub fn is_minimal_dominating_set(g: &Graph, set: &[NodeId], targets: &[NodeId]) -> bool {
    let members = members(set);
    let mut has_private = vec![false; members.len()];
    for &t in targets {
        let mut dominators = g
            .neighbors(t)
            .iter()
            .filter_map(|w| members.binary_search(w).ok());
        match (dominators.next(), dominators.next()) {
            (None, _) => return false,
            (Some(only), None) => has_private[only] = true,
            (Some(_), Some(_)) => {}
        }
    }
    has_private.into_iter().all(|p| p)
}

/// Number of neighbours of `target` inside `set` (used to find nodes that hear
/// exactly one transmitter). Runs in `O((|set| + deg(target)) · log |set|)`.
pub fn dominator_count(g: &Graph, set: &[NodeId], target: NodeId) -> usize {
    cover_in(g, &members(set), target)
}

/// Reusable scratch for reducing candidate sets to minimal dominating subsets
/// of a fixed graph.
///
/// The reducer holds one `in_set` flag and one `cover` count per node,
/// allocated once. Each [`reduce`](Self::reduce) call sets only the entries of
/// its own candidates and targets and resets exactly those before returning,
/// so a caller reducing once per stage pays `O(n)` once and then only for
/// what each stage touches.
#[derive(Debug, Clone)]
pub struct DominationReducer {
    /// Whether a node is a current member of the candidate set being reduced.
    in_set: Vec<bool>,
    /// For a target: the number of current members adjacent to it (always
    /// ≥ 1 while reducing). Zero for every non-target.
    cover: Vec<u32>,
    /// The candidates in trial order.
    trial: Vec<NodeId>,
    /// Adjacency entries walked and set elements visited so far.
    work: u64,
}

impl DominationReducer {
    /// A reducer for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        DominationReducer {
            in_set: vec![false; n],
            cover: vec![0; n],
            trial: Vec::new(),
            work: 0,
        }
    }

    /// Adjacency entries walked plus set elements visited by every
    /// [`reduce`](Self::reduce) call so far: a deterministic measure of the
    /// reducer's cost.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Reduces `candidates` to a minimal subset that still dominates
    /// `targets`, writing it sorted and deduplicated into `dom`, and writes
    /// into `once` the targets (in `targets` order) adjacent to exactly one
    /// member of `dom`.
    ///
    /// Returns `false`, leaving `dom` and `once` empty, if `candidates` does
    /// not dominate `targets`.
    ///
    /// The reduction repeatedly drops any candidate whose removal keeps all
    /// targets dominated, trying candidates in the given [`ReductionOrder`]
    /// (applied to the sorted candidates, duplicates included). The result is
    /// inclusion-minimal regardless of order. Runs in
    /// `O(|candidates| log |candidates| + Σ_{c∈candidates} deg(c) +
    /// Σ_{t∈targets} deg(t))`.
    ///
    /// # Panics
    /// Panics if a candidate or target is not a node of a graph with the
    /// reducer's node count.
    pub fn reduce(
        &mut self,
        g: &Graph,
        candidates: &[NodeId],
        targets: &[NodeId],
        order: ReductionOrder,
        dom: &mut Vec<NodeId>,
        once: &mut Vec<NodeId>,
    ) -> bool {
        dom.clear();
        once.clear();
        for &c in candidates {
            self.in_set[c] = true;
        }
        let mut dominated = true;
        for &t in targets {
            let nbrs = g.neighbors(t);
            self.work += nbrs.len() as u64;
            let cover = nbrs.iter().filter(|&&w| self.in_set[w]).count();
            self.cover[t] = u32::try_from(cover).expect("degree fits in u32");
            dominated &= cover > 0;
        }

        if dominated {
            self.trial.clear();
            self.trial.extend_from_slice(candidates);
            self.trial.sort_unstable();
            match order {
                ReductionOrder::Forward => {}
                ReductionOrder::Reverse => self.trial.reverse(),
                ReductionOrder::Random(seed) => {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    self.trial.shuffle(&mut rng);
                }
            }
            for &c in &self.trial {
                if !self.in_set[c] {
                    continue;
                }
                // c is removable iff no target neighbour has c as its only
                // dominator (non-targets have cover 0, targets cover ≥ 1).
                let nbrs = g.neighbors(c);
                self.work += nbrs.len() as u64;
                if nbrs.iter().all(|&t| self.cover[t] != 1) {
                    self.in_set[c] = false;
                    for &t in nbrs {
                        self.cover[t] = self.cover[t].saturating_sub(1);
                    }
                }
            }
            dom.extend(candidates.iter().copied().filter(|&c| self.in_set[c]));
            dom.sort_unstable();
            dom.dedup();
            once.extend(targets.iter().copied().filter(|&t| self.cover[t] == 1));
        }

        for &c in candidates {
            self.in_set[c] = false;
        }
        for &t in targets {
            self.cover[t] = 0;
        }
        self.work += 4 * candidates.len() as u64 + 3 * targets.len() as u64;
        dominated
    }
}

/// Reduces `candidates` to a minimal subset that still dominates `targets`.
///
/// Precondition: `candidates` must dominate `targets` (checked; returns `None`
/// if it does not — the paper's Lemma 2.5 guarantees this never happens when
/// called by the scheme construction).
///
/// The one-shot form of [`DominationReducer::reduce`]: it allocates a fresh
/// reducer, so it runs in `O(n + |candidates| log |candidates| +
/// Σ_{c∈candidates} deg(c) + Σ_{t∈targets} deg(t))`.
pub fn minimal_dominating_subset(
    g: &Graph,
    candidates: &[NodeId],
    targets: &[NodeId],
    order: ReductionOrder,
) -> Option<Vec<NodeId>> {
    let mut dom = Vec::new();
    DominationReducer::new(g.node_count())
        .reduce(g, candidates, targets, order, &mut dom, &mut Vec::new())
        .then_some(dom)
}

/// Greedy dominating set for the whole graph (classic ln-approximation):
/// repeatedly pick the node covering the most uncovered nodes (closed
/// neighbourhood). Used only by auxiliary experiments; the paper's scheme uses
/// [`minimal_dominating_subset`] instead.
pub fn greedy_dominating_set(g: &Graph) -> Vec<NodeId> {
    let n = g.node_count();
    let mut covered = vec![false; n];
    let mut num_covered = 0;
    let mut set = Vec::new();
    while num_covered < n {
        let mut best = None;
        let mut best_gain = 0usize;
        for v in 0..n {
            let mut gain = usize::from(!covered[v]);
            gain += g.neighbors(v).iter().filter(|&&w| !covered[w]).count();
            if gain > best_gain {
                best_gain = gain;
                best = Some(v);
            }
        }
        let v = best.expect("some node must cover an uncovered node");
        set.push(v);
        if !covered[v] {
            covered[v] = true;
            num_covered += 1;
        }
        for &w in g.neighbors(v) {
            if !covered[w] {
                covered[w] = true;
                num_covered += 1;
            }
        }
    }
    set.sort_unstable();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn dominates_is_adjacency() {
        let g = generators::path(3);
        assert!(dominates(&g, 0, 1));
        assert!(!dominates(&g, 0, 2));
        assert!(!dominates(&g, 0, 0));
    }

    #[test]
    fn is_dominating_set_detects_coverage() {
        let g = generators::star(5); // centre 0
        assert!(is_dominating_set(&g, &[0], &[1, 2, 3, 4]));
        assert!(!is_dominating_set(&g, &[1], &[2, 3]));
        // empty target set is trivially dominated
        assert!(is_dominating_set(&g, &[], &[]));
    }

    #[test]
    fn minimality_check_accepts_and_rejects() {
        let g = generators::path(5); // 0-1-2-3-4
                                     // {1,3} dominates {0,2,4} minimally.
        assert!(is_minimal_dominating_set(&g, &[1, 3], &[0, 2, 4]));
        // {1,2,3} also dominates but is not minimal (2 has no private target).
        assert!(!is_minimal_dominating_set(&g, &[1, 2, 3], &[0, 2, 4]));
        // non-dominating set is not minimal-dominating
        assert!(!is_minimal_dominating_set(&g, &[1], &[0, 2, 4]));
    }

    #[test]
    fn dominator_count_counts_set_neighbors() {
        let g = generators::cycle(4);
        assert_eq!(dominator_count(&g, &[1, 3], 0), 2);
        assert_eq!(dominator_count(&g, &[1], 0), 1);
        assert_eq!(dominator_count(&g, &[], 0), 0);
    }

    #[test]
    fn minimal_subset_none_when_candidates_do_not_dominate() {
        let g = generators::path(5);
        assert!(minimal_dominating_subset(&g, &[0], &[3], ReductionOrder::Forward).is_none());
    }

    #[test]
    fn minimal_subset_is_minimal_for_all_orders() {
        let g = generators::grid(3, 4);
        let candidates: Vec<usize> = g.nodes().collect();
        let targets: Vec<usize> = g.nodes().collect();
        for order in [
            ReductionOrder::Forward,
            ReductionOrder::Reverse,
            ReductionOrder::Random(7),
            ReductionOrder::Random(1234),
        ] {
            let sub = minimal_dominating_subset(&g, &candidates, &targets, order).unwrap();
            assert!(is_minimal_dominating_set(&g, &sub, &targets), "{order:?}");
        }
    }

    #[test]
    fn minimal_subset_subset_of_candidates() {
        let g = generators::cycle(8);
        let candidates = vec![0, 2, 4, 6];
        let targets = vec![1, 3, 5, 7];
        let sub =
            minimal_dominating_subset(&g, &candidates, &targets, ReductionOrder::Forward).unwrap();
        assert!(sub.iter().all(|v| candidates.contains(v)));
        assert!(is_dominating_set(&g, &sub, &targets));
    }

    #[test]
    fn minimal_subset_star_reduces_to_centre() {
        let g = generators::star(6);
        let candidates: Vec<usize> = g.nodes().collect();
        let targets: Vec<usize> = (1..6).collect();
        let sub =
            minimal_dominating_subset(&g, &candidates, &targets, ReductionOrder::Forward).unwrap();
        assert_eq!(sub, vec![0]);
    }

    #[test]
    fn minimal_subset_with_empty_targets_is_empty() {
        let g = generators::path(4);
        let sub = minimal_dominating_subset(&g, &[0, 1, 2], &[], ReductionOrder::Forward).unwrap();
        assert!(sub.is_empty());
    }

    #[test]
    fn different_orders_may_differ_but_all_dominate() {
        let g = generators::complete(6);
        let candidates: Vec<usize> = g.nodes().collect();
        let targets: Vec<usize> = g.nodes().collect();
        let a =
            minimal_dominating_subset(&g, &candidates, &targets, ReductionOrder::Forward).unwrap();
        let b =
            minimal_dominating_subset(&g, &candidates, &targets, ReductionOrder::Reverse).unwrap();
        assert!(is_dominating_set(&g, &a, &targets));
        assert!(is_dominating_set(&g, &b, &targets));
        // Domination is by adjacency (open neighbourhood), so covering every
        // node of a clique — including the chosen dominators themselves —
        // needs exactly two nodes.
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn predicates_ignore_duplicate_set_members() {
        let g = generators::path(5); // 0-1-2-3-4
        assert!(is_dominating_set(&g, &[3, 1, 3], &[0, 2, 4]));
        assert!(is_minimal_dominating_set(&g, &[3, 1, 1], &[0, 2, 4]));
        assert_eq!(dominator_count(&g, &[1, 3, 1], 2), 2);
    }

    #[test]
    fn reducer_reused_across_calls_matches_fresh_one_shot_reductions() {
        let g = generators::grid(4, 5);
        let mut reducer = DominationReducer::new(g.node_count());
        let (mut dom, mut once) = (Vec::new(), Vec::new());
        let cases: [(Vec<usize>, Vec<usize>); 4] = [
            ((0..20).collect(), (0..20).collect()),
            (vec![6, 8, 11, 13], vec![1, 7, 12, 18]),
            // Not dominating: must leave the scratch clean for the next call.
            (vec![0], vec![19]),
            (vec![5, 7, 9, 5], vec![0, 6, 10, 14]),
        ];
        for order in [
            ReductionOrder::Forward,
            ReductionOrder::Reverse,
            ReductionOrder::Random(7),
        ] {
            for (candidates, targets) in &cases {
                let fresh = minimal_dominating_subset(&g, candidates, targets, order);
                let ok = reducer.reduce(&g, candidates, targets, order, &mut dom, &mut once);
                assert_eq!(ok, fresh.is_some(), "{order:?} {candidates:?}");
                assert_eq!(dom, fresh.unwrap_or_default(), "{order:?} {candidates:?}");
                let expected_once: Vec<usize> = if ok {
                    (targets.iter().copied())
                        .filter(|&t| dominator_count(&g, &dom, t) == 1)
                        .collect()
                } else {
                    Vec::new()
                };
                assert_eq!(once, expected_once, "{order:?} {candidates:?}");
            }
        }
        assert!(reducer.work() > 0);
    }

    #[test]
    fn greedy_dominating_set_dominates_whole_graph() {
        for g in [
            generators::path(10),
            generators::cycle(9),
            generators::grid(4, 4),
            generators::star(7),
        ] {
            let ds = greedy_dominating_set(&g);
            // every node is in the set or adjacent to it (closed domination)
            let mut in_set = vec![false; g.node_count()];
            for &v in &ds {
                in_set[v] = true;
            }
            for v in g.nodes() {
                assert!(in_set[v] || g.neighbors(v).iter().any(|&w| in_set[w]));
            }
        }
    }

    #[test]
    fn greedy_dominating_set_star_is_centre() {
        let g = generators::star(9);
        assert_eq!(greedy_dominating_set(&g), vec![0]);
    }
}
