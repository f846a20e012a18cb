//! **E6 — one-bit schemes on special graph classes** (paper §5 conclusion).
//!
//! The paper's conclusion claims that single-bit labels suffice for broadcast
//! on several restricted classes. This experiment exercises the two classes
//! implemented in `rn_labeling::onebit` — cycles and grids — across sizes and
//! **every** source position, and reports the completion rounds.

use crate::report::{fmt_bool, Table};
use crate::SweepSpec;
use rn_broadcast::session::{RunSpec, Scheme, Session};
use rn_graph::generators;
use std::sync::Arc;

/// Runs the cycle and grid sweeps and renders one table per class.
pub fn run(config: &SweepSpec) -> Vec<Table> {
    vec![cycles(config), grids(config)]
}

fn cycles(config: &SweepSpec) -> Table {
    let mut table = Table::new(
        "E6a: one-bit labels on cycles (delay-relay algorithm), all source positions",
        &[
            "n",
            "label length",
            "worst completion round",
            "all sources informed",
        ],
    );
    for &n in &config.sizes {
        let n = n.max(4);
        let g = Arc::new(generators::cycle(n));
        // The 1-bit labeling depends on the source, so each spec relabels —
        // but the graph itself is shared across all n runs.
        let session = Session::builder(Scheme::OneBitCycle, Arc::clone(&g))
            .message(9)
            .build()
            .expect("cycle scheme applies");
        let specs: Vec<RunSpec> = (0..n).map(|s| RunSpec::new(s, 9)).collect();
        let mut worst = 0u64;
        let mut all_ok = true;
        for r in session
            .run_batch(&specs, config.resolved_threads(specs.len()))
            .expect("sources in range")
        {
            match r.completion_round {
                Some(c) => worst = worst.max(c),
                None => all_ok = false,
            }
        }
        table.push_row(vec![
            n.to_string(),
            "1".to_string(),
            worst.to_string(),
            fmt_bool(all_ok),
        ]);
    }
    table.push_note("even cycles need the single marked neighbour; odd cycles use all-zero labels");
    table
}

fn grids(config: &SweepSpec) -> Table {
    let mut table = Table::new(
        "E6b: one-bit labels on grids (delay-relay algorithm), all source positions",
        &[
            "rows x cols",
            "n",
            "label length",
            "worst completion round",
            "all sources informed",
        ],
    );
    for &n in &config.sizes {
        let rows = ((n as f64).sqrt().round() as usize).max(2);
        let cols = (n / rows).max(2);
        let g = Arc::new(generators::grid(rows, cols));
        let session = Session::builder(Scheme::OneBitGrid { rows, cols }, Arc::clone(&g))
            .message(9)
            .build()
            .expect("grid scheme applies");
        let specs: Vec<RunSpec> = (0..g.node_count()).map(|s| RunSpec::new(s, 9)).collect();
        let mut worst = 0u64;
        let mut all_ok = true;
        for r in session
            .run_batch(&specs, config.resolved_threads(specs.len()))
            .expect("sources in range")
        {
            match r.completion_round {
                Some(c) => worst = worst.max(c),
                None => all_ok = false,
            }
        }
        table.push_row(vec![
            format!("{rows}x{cols}"),
            g.node_count().to_string(),
            "1".to_string(),
            worst.to_string(),
            fmt_bool(all_ok),
        ]);
    }
    table.push_note("worst case is roughly cols + 2*rows rounds: fast along the source row, half speed down columns");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_config;

    #[test]
    fn both_classes_complete_everywhere() {
        for t in run(&test_config(&[6, 9], &[1])) {
            assert!(t.row_count() > 0);
            assert!(!t.render().contains("NO"), "{}", t.title);
        }
    }

    #[test]
    fn completion_is_linear_in_n() {
        let tables = run(&test_config(&[16], &[1]));
        let cycle_worst: u64 = tables[0].rows[0][2].parse().unwrap();
        assert!(cycle_worst <= 16 + 2);
    }
}
