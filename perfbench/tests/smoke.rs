//! The benchmark's own tests: the smoke mode at toy sizes, the metric lists
//! against `BENCHMARK.json`, and the correctness gate on a wrong report.

use perfbench::{Config, Scale, Workload, END_TO_END, PER_LAYER};

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("name ends")].to_string()
        })
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let listed =
        |spec: &[(&str, &str)]| spec.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names_in(&json, "end_to_end"), listed(&END_TO_END));
    assert_eq!(names_in(&json, "per_layer"), listed(&PER_LAYER));
    let workloads = names_in(&json, "workloads");
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
}

#[test]
fn smoke_mode_runs_every_workload_and_emits_every_metric() {
    perfbench::smoke(3).expect("smoke mode passes");
}

#[test]
fn wrong_expected_report_trips_the_gate() {
    assert!(perfbench::wrong_report_trips_gate(5).expect("toy instance builds"));
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let cfg = Config {
        workload: Workload::Gossip,
        seed: 9,
        seconds: 0.0,
        trace: false,
        scale: Scale::Smoke,
    };
    let outcome = perfbench::run(&cfg).expect("smoke gossip runs");
    assert!(outcome.correct, "{:?}", outcome.failures);
    assert_eq!(outcome.failed, 0);
    let line = outcome.json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(
            line.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing"
        );
    }
    assert!(
        outcome.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        outcome.metrics
    );
}

#[test]
fn same_seed_gives_same_inputs() {
    let cfg = Config {
        workload: Workload::ColdLarge,
        seed: 4,
        seconds: 0.0,
        trace: true,
        scale: Scale::Smoke,
    };
    let counts = |o: &perfbench::Outcome| {
        o.metrics
            .iter()
            .filter(|m| m.unit == "count")
            .map(|m| (m.name, m.value))
            .collect::<Vec<_>>()
    };
    let a = perfbench::run(&cfg).expect("runs");
    let b = perfbench::run(&cfg).expect("runs");
    assert_eq!(counts(&a), counts(&b));
}
