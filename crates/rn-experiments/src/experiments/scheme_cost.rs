//! **E8 — labeling-scheme construction cost**.
//!
//! The paper's motivating scenario has a central monitor computing the labels
//! ahead of time. This experiment measures the wall-clock cost of computing
//! each scheme as the network grows, confirming that the construction (a
//! sequence of minimal-dominating-set reductions) is cheap enough for the
//! scenario to be practical.

use super::{family_label, measure, CORE_FAMILIES};
use crate::report::{fmt_f64, Table};
use crate::SweepSpec;
use rn_labeling::scheme::{LabelingScheme, SchemeKind};
use std::time::Instant;

/// Runs the sweep and renders the table: per family and size, the
/// construction time of every scheme in [`SchemeKind::ALL`], in
/// microseconds.
pub fn run(config: &SweepSpec) -> Table {
    let rows = measure(config, &CORE_FAMILIES, |instance| {
        let g = &instance.graph;
        let mut row = vec![
            family_label(instance.family).to_string(),
            g.node_count().to_string(),
            g.edge_count().to_string(),
        ];
        for s in SchemeKind::ALL {
            let start = Instant::now();
            let labeling = s.assign(g, 0).expect("connected workload");
            let elapsed = start.elapsed().as_secs_f64() * 1e6;
            // Keep the labeling alive so the construction is not optimised
            // away.
            std::hint::black_box(labeling.length());
            row.push(fmt_f64(elapsed));
        }
        row
    });

    let mut headers: Vec<String> = vec!["family".into(), "n".into(), "m".into()];
    for s in SchemeKind::ALL {
        headers.push(format!("{} (us)", s.name()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "E8: labeling-scheme construction wall time (microseconds)",
        &header_refs,
    );
    for row in rows {
        table.push_row(row);
    }
    table.push_note("wall-clock times; exact values vary by machine, the shape (near-linear growth) is what matters");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_config;

    #[test]
    fn produces_one_row_per_point_with_positive_times() {
        let t = run(&test_config(&[8, 16], &[1]));
        assert_eq!(t.row_count(), CORE_FAMILIES.len() * 2);
        for row in &t.rows {
            for cell in &row[3..] {
                let v: f64 = cell.parse().unwrap();
                assert!(v >= 0.0);
            }
        }
    }
}
