//! **E10 — common completion round** (end of §3 of the paper): after running
//! B_ack and then re-broadcasting the acknowledgement round `m` with B, round
//! `2m` is a common round in which every node knows the original broadcast
//! completed.

use super::{family_label, measure, CORE_FAMILIES};
use crate::report::{fmt_bool, Table};
use crate::SweepSpec;
use rn_broadcast::common_round::run_common_round;

/// Runs the sweep and renders the table.
pub fn run(config: &SweepSpec) -> Table {
    let rows = measure(config, &CORE_FAMILIES, |instance| {
        let r = run_common_round(&instance.graph, 0, 7).expect("connected workload");
        vec![
            family_label(instance.family).to_string(),
            instance.graph.node_count().to_string(),
            r.ack_round.to_string(),
            r.second_completion_round.to_string(),
            r.common_round.to_string(),
            fmt_bool(r.claim_holds),
        ]
    });

    let mut table = Table::new(
        "E10: common completion round (B_ack followed by a broadcast of m)",
        &[
            "family",
            "n",
            "ack round m",
            "all know m by round",
            "common round 2m",
            "claim holds",
        ],
    );
    for row in rows {
        table.push_row(row);
    }
    table.push_note("claim: every node receives m strictly before round 2m, so 2m is a common known-completion round");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::small_config;

    #[test]
    fn claim_holds_everywhere() {
        let t = run(&small_config());
        assert!(t.row_count() > 0);
        assert!(!t.render().contains("NO"));
    }
}
