//! One module per experiment of the DESIGN.md index.
//!
//! | id  | module                | reproduces                                             |
//! |-----|-----------------------|--------------------------------------------------------|
//! | E1  | [`fig1`]              | Figure 1: a worked execution of algorithm B            |
//! | E2  | [`broadcast_time`]    | Theorem 2.9: broadcast within 2n − 3 rounds            |
//! | E3  | [`ack_time`]          | Theorem 3.9: acknowledgement within n − 2 extra rounds |
//! | E4  | [`label_length`]      | §1.1 label-length / message-size comparison            |
//! | E5  | [`arbitrary_source`]  | §4: the unknown-source three-phase algorithm           |
//! | E6  | [`onebit`]            | §5: 1-bit schemes on special graph classes             |
//! | E7  | [`impossibility`]     | §1.1: impossibility on the unlabeled four-cycle        |
//! | E8  | [`scheme_cost`]       | labeling-scheme construction cost                      |
//! | E9  | [`baseline_comparison`] | λ vs round-robin vs square-colouring broadcast time |
//! | E10 | [`common_round`]      | §3: the common completion round                        |
//! | A1  | [`ablation`]          | dominating-set reduction order / colouring order       |

pub mod ablation;
pub mod ack_time;
pub mod arbitrary_source;
pub mod baseline_comparison;
pub mod broadcast_time;
pub mod common_round;
pub mod fig1;
pub mod impossibility;
pub mod label_length;
pub mod onebit;
pub mod scheme_cost;

use crate::scenario::Instance;
use crate::{SweepSpec, Table};
use rn_graph::generators::TopologyFamily;

/// Every family the experiment tables sweep, in presentation order.
pub const ALL_FAMILIES: [TopologyFamily; 13] = [
    TopologyFamily::Path,
    TopologyFamily::Cycle,
    TopologyFamily::Star,
    TopologyFamily::Complete,
    TopologyFamily::Grid,
    TopologyFamily::Hypercube,
    TopologyFamily::RandomTree,
    TopologyFamily::GnpAvgDegree { avg_degree: 10.0 },
    TopologyFamily::Gnp { p: 0.3 },
    TopologyFamily::SeriesParallel,
    TopologyFamily::Barbell,
    TopologyFamily::Caterpillar { legs: 2 },
    TopologyFamily::UnitDisk { avg_degree: 8.0 },
];

/// A compact subset that still covers the qualitative regimes, for the
/// heavier experiments and the benches.
pub const CORE_FAMILIES: [TopologyFamily; 6] = [
    TopologyFamily::Path,
    TopologyFamily::Cycle,
    TopologyFamily::Grid,
    TopologyFamily::RandomTree,
    TopologyFamily::GnpAvgDegree { avg_degree: 10.0 },
    TopologyFamily::Barbell,
];

/// The experiment tables' names for the parameterized families they sweep.
const FAMILY_LABELS: [(TopologyFamily, &str); 4] = [
    (
        TopologyFamily::GnpAvgDegree { avg_degree: 10.0 },
        "gnp_sparse",
    ),
    (TopologyFamily::Gnp { p: 0.3 }, "gnp_dense"),
    (TopologyFamily::Caterpillar { legs: 2 }, "caterpillar"),
    (TopologyFamily::UnitDisk { avg_degree: 8.0 }, "unit_disk"),
];

/// The family column of the experiment tables: the name of the regime a
/// parameterized family stands for (`gnp_sparse`, `gnp_dense`, …), the
/// registry name otherwise.
pub fn family_label(family: TopologyFamily) -> &'static str {
    FAMILY_LABELS
        .iter()
        .find(|(f, _)| *f == family)
        .map_or_else(|| family.name(), |&(_, label)| label)
}

/// Measures every instance of `families` × the config's sizes × seeds, in
/// job order, on the config's worker threads. The config's own families,
/// schemes and fault presets play no part: each experiment brings its own.
fn measure<R: Send>(
    config: &SweepSpec,
    families: &[TopologyFamily],
    measure: impl Fn(&Instance) -> R + Sync,
) -> Vec<R> {
    config
        .clone()
        .families(families)
        .map_instances(measure)
        .expect("experiment families generate at every size >= 4")
}

/// Identifier and human name of each experiment, for the `repro` binary.
pub const EXPERIMENT_IDS: [(&str, &str); 11] = [
    ("e1", "Figure 1 worked execution"),
    ("e2", "Theorem 2.9 broadcast time"),
    ("e3", "Theorem 3.9 acknowledgement time"),
    ("e4", "label length and message size comparison"),
    ("e5", "arbitrary-source broadcast"),
    ("e6", "one-bit schemes on special classes"),
    ("e7", "impossibility on the unlabeled four-cycle"),
    ("e8", "labeling-scheme construction cost"),
    ("e9", "baseline comparison"),
    ("e10", "common completion round"),
    ("a1", "ablations"),
];

/// Runs a single experiment by id with the sizes, seeds and threads of
/// `config`, returning its tables.
pub fn run_by_id(id: &str, config: &SweepSpec) -> Option<Vec<Table>> {
    match id {
        "e1" => Some(vec![fig1::run()]),
        "e2" => Some(vec![broadcast_time::run(config)]),
        "e3" => Some(vec![ack_time::run(config)]),
        "e4" => Some(vec![label_length::run(config)]),
        "e5" => Some(vec![arbitrary_source::run(config)]),
        "e6" => Some(onebit::run(config)),
        "e7" => Some(vec![impossibility::run()]),
        "e8" => Some(vec![scheme_cost::run(config)]),
        "e9" => Some(vec![baseline_comparison::run(config)]),
        "e10" => Some(vec![common_round::run(config)]),
        "a1" => Some(ablation::run(config)),
        _ => None,
    }
}

/// Runs every experiment, returning all tables in index order.
pub fn run_all(config: &SweepSpec) -> Vec<Table> {
    EXPERIMENT_IDS
        .iter()
        .flat_map(|(id, _)| run_by_id(id, config).expect("known id"))
        .collect()
}

/// A test config: the given sizes and seeds, inline on one thread.
#[cfg(test)]
fn test_config(sizes: &[usize], seeds: &[u64]) -> SweepSpec {
    SweepSpec::new("test").sizes(sizes).seeds(seeds).threads(1)
}

/// The small config most experiment tests share.
#[cfg(test)]
fn small_config() -> SweepSpec {
    test_config(&[8, 16, 24], &[1, 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run_by_id("nope", &small_config()).is_none());
    }

    #[test]
    fn all_ids_resolve() {
        let cfg = test_config(&[8], &[1]);
        for (id, _) in EXPERIMENT_IDS {
            assert!(run_by_id(id, &cfg).is_some(), "{id}");
        }
    }

    #[test]
    fn family_labels_name_the_regimes_and_stay_distinct() {
        let mut labels: Vec<&str> = ALL_FAMILIES.iter().map(|&f| family_label(f)).collect();
        assert_eq!(labels[7..9], ["gnp_sparse", "gnp_dense"]);
        assert_eq!(family_label(TopologyFamily::Gnp { p: 0.5 }), "gnp");
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ALL_FAMILIES.len());
        assert!(CORE_FAMILIES.iter().all(|f| ALL_FAMILIES.contains(f)));
    }
}
