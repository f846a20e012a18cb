//! Smoke tests for the experiment harness: every experiment id must run on a
//! small configuration and report no failed theorem checks (a `NO` cell in a
//! report table means a guarantee was violated).

use radio_labeling::experiments::experiments::{run_by_id, EXPERIMENT_IDS};
use radio_labeling::experiments::SweepSpec;

fn small_config() -> SweepSpec {
    SweepSpec::new("smoke")
        .sizes(&[8, 12])
        .seeds(&[1])
        .threads(2)
}

#[test]
fn every_experiment_runs_and_reports_no_violations() {
    let cfg = small_config();
    for (id, name) in EXPERIMENT_IDS {
        let tables = run_by_id(id, &cfg).unwrap_or_else(|| panic!("unknown id {id}"));
        assert!(!tables.is_empty(), "{id} ({name}) produced no tables");
        for t in &tables {
            assert!(t.row_count() > 0, "{id}: empty table {}", t.title);
            // E7 intentionally contains NO cells (the uniform attempts are
            // *supposed* to fail); everywhere else a NO is a violated check.
            if id != "e7" {
                assert!(
                    !t.render().contains(" NO"),
                    "{id} ({name}) reported a violated check:\n{}",
                    t.render()
                );
            }
        }
    }
}

#[test]
fn experiment_tables_render_with_titles_and_headers() {
    let cfg = small_config();
    let tables = run_by_id("e2", &cfg).unwrap();
    let rendered = tables[0].render();
    assert!(rendered.starts_with("== E2"));
    assert!(rendered.contains("family"));
    assert!(rendered.contains("bound 2n-3"));
}

#[test]
fn parallel_and_sequential_experiment_runs_agree() {
    let seq = run_by_id("e4", &small_config().threads(1)).unwrap();
    let par = run_by_id("e4", &small_config().threads(4)).unwrap();
    assert_eq!(
        seq, par,
        "sweep results must not depend on the thread count"
    );
}
