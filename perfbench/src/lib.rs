//! The repository's end-to-end benchmark: generate → label → broadcast →
//! certify, through the public API of every workspace layer.
//!
//! One invocation runs one named [`Workload`] for a fixed wall-clock budget.
//! The timed passes run with tracing off and yield the end-to-end metrics
//! ([`END_TO_END`]); with `trace` set, traced passes alternate with untraced
//! ones and yield the per-layer metrics ([`PER_LAYER`]) instead. Spans are
//! recorded only here, around the calls into each layer, plus the phase
//! spans and counters the layers already expose
//! (`Session::run_instrumented`, `SweepTelemetry`).
//!
//! Every pass's reports must equal the first pass's; after the timed loop a
//! gate pass rebuilds every session, certifies every run with
//! `rn_analyze::analyze_and_cross_check`, and checks completion and the
//! paper's round bound. See `README.md` for the metric definitions and the
//! metric → layer → workload predictions.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use rn_analyze::{Certificate, Finding};
use rn_broadcast::algo_b::BNode;
use rn_broadcast::algo_back::BackNode;
use rn_broadcast::algo_barb::ArbNode;
use rn_broadcast::session::{RunReport, RunSpec, Scheme, Session, TracePolicy};
use rn_broadcast::GossipNode;
use rn_experiments::{SweepRecord, SweepSpec, SweepTelemetry};
use rn_graph::algorithms::ReductionOrder;
use rn_graph::generators::TopologyFamily;
use rn_graph::Graph;
use rn_labeling::SequenceConstruction;
use rn_radio::{Engine, RadioNode, RunCounters, Simulator};
use rn_telemetry::RunMetrics;

/// Worker threads any workload may use.
pub const THREADS: usize = 2;

/// The end-to-end metrics a `trace = false` run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("pipeline_s", "s"),
    ("setup_s", "s"),
    ("broadcast_s", "s"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a `trace = true` run reports, with their units.
/// A workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("rn-graph.generate_s", "s"),
    ("rn-graph.edges", "count"),
    ("rn-labeling.construct_s", "s"),
    ("rn-labeling.stages", "count"),
    ("rn-labeling.frontier_sum", "count"),
    ("rn-broadcast.plan_build_s", "s"),
    ("rn-broadcast.template_build_s", "s"),
    ("rn-broadcast.round_loop_s", "s"),
    ("rn-broadcast.self_s", "s"),
    ("rn-broadcast.stats_mismatch", "count"),
    ("rn-radio.simulate_s", "s"),
    ("rn-radio.rounds", "count"),
    ("rn-radio.transmissions", "count"),
    ("rn-radio.deliveries", "count"),
    ("rn-radio.collisions", "count"),
    ("rn-radio.elided_rounds", "count"),
    ("rn-radio.frontier_peak", "count"),
    ("rn-radio.silent_ratio", "ratio"),
    ("rn-radio.ns_per_round", "ns"),
    ("rn-analyze.certify_s", "s"),
    ("rn-analyze.findings", "count"),
    ("rn-experiments.sweep_s", "s"),
    ("rn-experiments.self_s", "s"),
    ("rn-experiments.worker_busy_ratio", "ratio"),
    ("rn-telemetry.overhead_ratio", "ratio"),
    ("rn-telemetry.overhead_s", "s"),
];

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Generate, build and run once each: λ on a 4000-node path, λ_ack on a
    /// 10⁴-node random tree, λ on a 2·10⁴-node G(n, p).
    ColdLarge,
    /// λ_arb on eight 2000-node unit-disk graphs: each built once, then
    /// `run_batch` over 32 spread sources on two threads.
    WarmBatch,
    /// Gossip on a 32×32 torus: one build, one run.
    Gossip,
    /// The `radio` sweep at n ∈ {128, 256, 512} × 8 seeds, traced and
    /// statically verified, on two threads.
    SweepSmall,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdLarge,
        Workload::WarmBatch,
        Workload::Gossip,
        Workload::SweepSmall,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdLarge => "cold-large",
            Workload::WarmBatch => "warm-batch",
            Workload::Gossip => "gossip",
            Workload::SweepSmall => "sweep-small",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the real workloads or toy instances for the smoke mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Toy sizes: every code path, a fraction of a second per workload.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Wall-clock budget of the timed loop, in seconds.
    pub seconds: f64,
    /// Report the per-layer metrics of traced passes instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed next to the name.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every run passed the correctness gate.
    pub correct: bool,
    /// Distinct runs per pass, each checked in every pass.
    pub attempted: usize,
    /// Runs that failed any check in any pass.
    pub failed: usize,
    /// The reported metrics, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (engine, thread count, sample counts).
    pub context: Vec<String>,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result object: one line of JSON with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// How the sessions built on one generated topology are run.
#[derive(Debug, Clone)]
enum Plan {
    /// One session with the builder defaults, one `Session::run`.
    Single(Scheme),
    /// One session from source 0, then `run_batch` over `sources` spread
    /// sources on [`THREADS`] threads.
    Batch { scheme: Scheme, sources: usize },
    /// The sessions `SweepSpec::run` builds for one instance, run the way it
    /// runs them (traces recorded, message 7, inline batches).
    SweepPoint {
        schemes: Vec<Scheme>,
        sources: usize,
    },
}

/// One topology to generate and the sessions to build on it.
#[derive(Debug, Clone)]
struct Job {
    family: TopologyFamily,
    n: usize,
    seed: u64,
    plan: Plan,
}

/// One session to build and the runs to execute on it.
#[derive(Debug, Clone)]
struct Build {
    scheme: Scheme,
    source: usize,
    trace: TracePolicy,
    /// `None` runs the session's configured source with `Session::run`.
    specs: Option<Vec<RunSpec>>,
    threads: usize,
}

/// `count` sources spread evenly over `n` nodes, deduplicated — the same
/// spread `SweepSpec` uses.
fn spread(count: usize, n: usize) -> Vec<usize> {
    let mut sources: Vec<usize> = (0..count).map(|i| i * n / count).collect();
    sources.dedup();
    sources
}

impl Plan {
    fn builds(&self, n: usize) -> Vec<Build> {
        match self {
            Plan::Single(scheme) => vec![Build {
                scheme: *scheme,
                source: 0,
                trace: TracePolicy::Disabled,
                specs: None,
                threads: 1,
            }],
            Plan::Batch { scheme, sources } => vec![Build {
                scheme: *scheme,
                source: 0,
                trace: TracePolicy::Disabled,
                specs: Some(
                    spread(*sources, n)
                        .into_iter()
                        .map(|s| RunSpec::new(s, 1))
                        .collect(),
                ),
                threads: THREADS,
            }],
            Plan::SweepPoint { schemes, sources } => {
                let nodes = spread(*sources, n);
                let mut builds = Vec::new();
                for &scheme in schemes {
                    let per_source = scheme.labeling_depends_on_source() && nodes.len() > 1;
                    let session_sources = if per_source { &nodes[..] } else { &nodes[..1] };
                    for &source in session_sources {
                        let specs = if scheme.is_multi_message() || per_source {
                            vec![RunSpec::new(source, 7)]
                        } else {
                            nodes.iter().map(|&s| RunSpec::new(s, 7)).collect()
                        };
                        builds.push(Build {
                            scheme,
                            source,
                            trace: TracePolicy::Recorded,
                            specs: Some(specs),
                            threads: 1,
                        });
                    }
                }
                builds
            }
        }
    }
}

/// splitmix64: derives independent instance seeds from the run's seed.
fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const GNP8: TopologyFamily = TopologyFamily::GnpAvgDegree { avg_degree: 8.0 };

/// The workload's inputs: the topologies and sessions of one pass, and for
/// `sweep-small` the sweep itself.
fn inputs(cfg: &Config) -> Result<(Vec<Job>, Option<SweepSpec>), String> {
    let full = cfg.scale == Scale::Full;
    let job = |family, n, index, plan| Job {
        family,
        n,
        seed: derive_seed(cfg.seed, index),
        plan,
    };
    Ok(match cfg.workload {
        Workload::ColdLarge => {
            let (a, b, c) = if full {
                (4000, 10_000, 20_000)
            } else {
                (40, 60, 80)
            };
            let jobs = vec![
                job(TopologyFamily::Path, a, 0, Plan::Single(Scheme::Lambda)),
                job(
                    TopologyFamily::RandomTree,
                    b,
                    1,
                    Plan::Single(Scheme::LambdaAck),
                ),
                job(GNP8, c, 2, Plan::Single(Scheme::Lambda)),
            ];
            (jobs, None)
        }
        Workload::WarmBatch => {
            // Round counts follow each instance's diameter; several
            // instances keep one seed's pass comparable to another's.
            let (n, instances, sources) = if full { (2000, 8, 32) } else { (60, 2, 8) };
            let family = TopologyFamily::UnitDisk { avg_degree: 8.0 };
            let jobs = (0..instances)
                .map(|i| {
                    let plan = Plan::Batch {
                        scheme: Scheme::LambdaArb,
                        sources,
                    };
                    job(family, n, i, plan)
                })
                .collect();
            (jobs, None)
        }
        Workload::Gossip => {
            // The session's per-message completion scan costs 0.5–1.4 s on
            // G(n, p) at n = 1000 (2-vCPU VM), depending on the seed; the
            // torus is one fixed instance, so the pass measures the program,
            // not the draw.
            let n = if full { 1000 } else { 36 };
            let plan = Plan::Single(Scheme::Gossip);
            (vec![job(TopologyFamily::Torus, n, 0, plan)], None)
        }
        Workload::SweepSmall => {
            let (sizes, seed_count): (&[usize], u64) = if full {
                (&[128, 256, 512], 8)
            } else {
                (&[16, 24], 2)
            };
            let seeds: Vec<u64> = (0..seed_count).map(|i| derive_seed(cfg.seed, i)).collect();
            let spec = rn_experiments::scenario::named("radio")
                .ok_or("the radio sweep is not registered")?
                .sizes(sizes)
                .seeds(&seeds)
                .threads(THREADS)
                .verify_static(true);
            let mut jobs = Vec::new();
            for &family in &spec.families {
                for &n in &spec.sizes {
                    for &seed in &spec.seeds {
                        jobs.push(Job {
                            family,
                            n,
                            seed,
                            plan: Plan::SweepPoint {
                                schemes: spec.schemes.clone(),
                                sources: spec.sources_per_point,
                            },
                        });
                    }
                }
            }
            (jobs, Some(spec))
        }
    })
}

/// What the traced passes learn about each layer. Times are seconds;
/// batch runs contribute thread-seconds.
#[derive(Debug, Clone, Default)]
struct Layers {
    generate_s: f64,
    edges: u64,
    construct_s: f64,
    plan_build_s: f64,
    template_build_s: f64,
    /// Build and run time not covered by the phase spans above and by
    /// `round_loop_s` (node cloning, report assembly, the verify phase).
    broadcast_other_s: f64,
    round_loop_s: f64,
    counters: RunCounters,
    /// Wall time of `SweepSpec::run_with_telemetry`.
    sweep_s: f64,
    /// Σ of the sweep's per-point phase spans, each build counted once.
    sweep_point_s: f64,
}

/// Adds one run's counters to the pass totals (the fields reported).
fn add_counters(total: &mut RunCounters, c: &RunCounters) {
    total.rounds += c.rounds;
    total.transmissions += c.transmissions;
    total.deliveries += c.deliveries;
    total.collisions += c.collisions;
    total.silent_rounds += c.silent_rounds;
    total.elided_rounds += c.elided_rounds;
    total.frontier_peak = total.frontier_peak.max(c.frontier_peak);
}

fn span_s(metrics: &RunMetrics, name: &str) -> f64 {
    metrics.span_nanos(name).unwrap_or(0) as f64 / 1e9
}

/// Wall-clock seconds since `start`.
fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// One pass over the workload.
struct Pass {
    /// Wall time of the pass: the session pipeline, or for `sweep-small`
    /// the sweep.
    wall_s: f64,
    /// Time inside `TopologyFamily::generate` and `SessionBuilder::build`.
    setup_s: f64,
    /// Time inside `Session::run` / `Session::run_batch`.
    broadcast_s: f64,
    /// Every run's report, in job order.
    reports: Vec<RunReport>,
    /// The sweep's records (`sweep-small` only).
    records: Vec<SweepRecord>,
    /// Filled by traced passes only.
    layers: Layers,
}

fn build_session(graph: &Arc<Graph>, build: &Build) -> Result<Session, String> {
    Session::builder(build.scheme, Arc::clone(graph))
        .source(build.source)
        .trace(build.trace)
        .build()
        .map_err(|e| format!("building {}: {e}", build.scheme.name()))
}

fn generate(job: &Job) -> Result<Arc<Graph>, String> {
    job.family
        .generate(job.n, job.seed)
        .map(Arc::new)
        .map_err(|e| format!("generating {} n={}: {e}", job.family.name(), job.n))
}

/// Runs a built session untraced.
fn run_plain(session: &Session, build: &Build) -> Result<Vec<RunReport>, String> {
    match &build.specs {
        None => Ok(vec![session.run()]),
        Some(specs) => session
            .run_batch(specs, build.threads)
            .map_err(|e| format!("running {}: {e}", build.scheme.name())),
    }
}

/// Runs a built session with the layers' own instrumentation.
fn run_traced(session: &Session, build: &Build) -> Result<Vec<(RunReport, RunMetrics)>, String> {
    match &build.specs {
        None => Ok(vec![session.run_instrumented()]),
        Some(specs) => rn_radio::batch::run_parallel(specs.clone(), build.threads, |spec| {
            session.run_with_instrumented(spec)
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("running {}: {e}", build.scheme.name())),
    }
}

/// Generates, builds and runs every job once. With `traced`, runs are
/// instrumented and the spans around each layer call are kept.
fn session_pass(jobs: &[Job], traced: bool) -> Result<Pass, String> {
    let start = Instant::now();
    let mut layers = Layers::default();
    let (mut setup_s, mut broadcast_s) = (0.0, 0.0);
    let mut reports = Vec::new();
    for job in jobs {
        let t = Instant::now();
        let graph = generate(job)?;
        let generate_s = secs(t);
        setup_s += generate_s;
        layers.generate_s += generate_s;
        layers.edges += graph.edge_count() as u64;
        for build in job.plan.builds(graph.node_count()) {
            let t = Instant::now();
            let session = build_session(&graph, &build)?;
            let build_s = secs(t);
            setup_s += build_s;
            let t = Instant::now();
            if traced {
                let runs = run_traced(&session, &build)?;
                let run_s = secs(t);
                broadcast_s += run_s;
                account(&mut layers, build_s, run_s, &build, &runs);
                reports.extend(runs.into_iter().map(|(r, _)| r));
            } else {
                reports.extend(run_plain(&session, &build)?);
                broadcast_s += secs(t);
            }
        }
    }
    Ok(Pass {
        wall_s: secs(start),
        setup_s,
        broadcast_s,
        reports,
        records: Vec::new(),
        layers,
    })
}

/// Splits one traced build-and-run into the layers' phase spans.
fn account(
    layers: &mut Layers,
    build_s: f64,
    run_s: f64,
    build: &Build,
    runs: &[(RunReport, RunMetrics)],
) {
    // Every run of one session carries the session's build spans; count
    // them once.
    let first = &runs[0].1;
    let construct = span_s(first, "labeling_construction");
    let plan = span_s(first, "plan_build");
    let template = span_s(first, "template_build");
    layers.construct_s += construct;
    layers.plan_build_s += plan;
    layers.template_build_s += template;
    let round_loop: f64 = runs.iter().map(|(_, m)| span_s(m, "round_loop")).sum();
    layers.round_loop_s += round_loop;
    let threads = build.threads.clamp(1, runs.len()) as f64;
    layers.broadcast_other_s +=
        (build_s - construct - plan - template).max(0.0) + (run_s * threads - round_loop).max(0.0);
    for (_, m) in runs {
        if let Some(c) = &m.counters {
            add_counters(&mut layers.counters, c);
        }
    }
}

/// One `sweep-small` pass: the replica of the sweep's sessions (which gives
/// `setup_s` and `broadcast_s`), then the sweep itself (which gives the
/// pass wall time).
fn sweep_pass(jobs: &[Job], spec: &SweepSpec, traced: bool) -> Result<Pass, String> {
    let mut pass = session_pass(jobs, traced)?;
    let start = Instant::now();
    let report = if traced {
        let (telemetry, buffer) = SweepTelemetry::to_buffer();
        let report = spec.run_with_telemetry(Some(&telemetry));
        pass.layers.sweep_s = secs(start);
        let text = String::from_utf8_lossy(&buffer.lock().expect("telemetry buffer")).into_owned();
        pass.layers.sweep_point_s = point_span_seconds(&text);
        report
    } else {
        spec.run()
    }
    .map_err(|e| format!("sweep: {e}"))?;
    pass.wall_s = secs(start);
    pass.records = report.records;
    Ok(pass)
}

/// Σ of the phase spans in the sweep's `point` events. The runs of one
/// session repeat its build spans; those are counted once per session.
fn point_span_seconds(jsonl: &str) -> f64 {
    const BUILD: [&str; 3] = ["plan_build", "labeling_construction", "template_build"];
    let mut seen_builds = BTreeSet::new();
    let mut total_ns = 0u64;
    for line in jsonl.lines().filter(|l| l.contains("\"event\":\"point\"")) {
        let Some(start) = line.find("\"spans\":{") else {
            continue;
        };
        let body = &line[start + "\"spans\":{".len()..];
        let body = &body[..body.find('}').unwrap_or(body.len())];
        let mut build_ns = Vec::new();
        let mut run_ns = 0u64;
        for entry in body.split(',').filter(|e| !e.is_empty()) {
            let Some((name, value)) = entry.split_once(':') else {
                continue;
            };
            let value: u64 = value.trim().parse().unwrap_or(0);
            if BUILD.contains(&name.trim_matches('"')) {
                build_ns.push(value);
            } else {
                run_ns += value;
            }
        }
        let key: Vec<&str> = ["family", "n", "seed", "scheme"]
            .iter()
            .map(|k| json_field(line, k))
            .collect();
        if seen_builds.insert((key.join("/"), build_ns.clone())) {
            total_ns += build_ns.iter().sum::<u64>();
        }
        total_ns += run_ns;
    }
    total_ns as f64 / 1e9
}

/// The raw text of a top-level `"key":value` field of a flat JSON line.
fn json_field<'a>(line: &'a str, key: &str) -> &'a str {
    let pattern = format!("\"{key}\":");
    let Some(at) = line.find(&pattern) else {
        return "";
    };
    let rest = &line[at + pattern.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim_matches('"')
}

/// Compares a pass's report with the first pass's. Traced passes read
/// their statistics from counters while untraced `Session::run` leaves them
/// zero (a known discrepancy), so `stats` is excluded from a traced
/// comparison and counted in `stats_mismatch` instead.
fn same_run(reference: &RunReport, observed: &RunReport, traced: bool) -> (bool, bool) {
    let stats_differ = reference.stats != observed.stats;
    if traced {
        let mut aligned = observed.clone();
        aligned.stats = reference.stats.clone();
        (aligned == *reference, stats_differ)
    } else {
        (observed == reference, stats_differ)
    }
}

/// The correctness gate for one run: the report must complete, stay within
/// the paper's round bound where one is stated, and be certified by
/// `rn_analyze::analyze_and_cross_check` (`certified`). Returns one line
/// per failed check.
pub fn check_run(report: &RunReport, certified: &Result<Certificate, Vec<Finding>>) -> Vec<String> {
    let mut failures = Vec::new();
    let what = format!(
        "{} n={} source={}",
        report.scheme, report.node_count, report.source
    );
    if !report.completed() {
        failures.push(format!("{what}: did not complete"));
    }
    if let (Some(bound), Some(round)) = (report.theorem_bound(), report.completion_round) {
        if round > bound {
            failures.push(format!(
                "{what}: completed in round {round} > bound {bound}"
            ));
        }
    }
    if let Err(findings) = certified {
        let first = findings
            .first()
            .map(ToString::to_string)
            .unwrap_or_default();
        failures.push(format!(
            "{what}: {} certification finding(s): {first}",
            findings.len()
        ));
    }
    failures
}

/// What the gate pass measures besides pass/fail.
#[derive(Debug, Default)]
struct GateLayers {
    certify_s: f64,
    findings: u64,
    simulate_s: f64,
    stages: u64,
    frontier_sum: u64,
}

/// Rebuilds every session untimed and puts each run of the first pass
/// through [`check_run`]. With `probe`, also replays each run on a raw
/// `Simulator` and counts the labeling construction's stages.
fn gate(
    jobs: &[Job],
    reference: &[RunReport],
    probe: bool,
    failed: &mut BTreeSet<usize>,
    failures: &mut Vec<String>,
) -> Result<GateLayers, String> {
    let mut out = GateLayers::default();
    let mut runs = reference.iter().enumerate();
    for job in jobs {
        let graph = generate(job)?;
        for build in job.plan.builds(graph.node_count()) {
            let session = build_session(&graph, &build)?;
            if probe {
                let (stages, frontier_sum) = construction_counts(&session, &build)?;
                out.stages += stages;
                out.frontier_sum += frontier_sum;
            }
            let count = build.specs.as_ref().map_or(1, Vec::len);
            for (index, report) in runs.by_ref().take(count) {
                if probe {
                    out.simulate_s += simulate(&session, report)?;
                }
                let t = Instant::now();
                let certified = rn_analyze::analyze_and_cross_check(&session, report);
                out.certify_s += secs(t);
                if let Err(findings) = &certified {
                    out.findings += findings.len() as u64;
                }
                let problems = check_run(report, &certified);
                if !problems.is_empty() {
                    failed.insert(index);
                    failures.extend(problems);
                }
            }
        }
    }
    Ok(out)
}

/// Σℓ and Σ|FRONTIER_i| of the §2.1 sequence construction behind a
/// session's labeling: built from the source for λ and λ_ack, from the
/// coordinator for λ_arb and gossip.
fn construction_counts(session: &Session, build: &Build) -> Result<(u64, u64), String> {
    fn counts(c: &SequenceConstruction) -> (u64, u64) {
        let stages = c.stages().len();
        let frontier = (1..=stages).map(|i| c.frontier(i).len() as u64).sum();
        (stages as u64, frontier)
    }
    let g = session.graph();
    let r = session.coordinator();
    let err = |e: rn_labeling::LabelingError| format!("construction probe: {e}");
    match build.scheme {
        Scheme::Lambda => rn_labeling::lambda::construct(g, build.source)
            .map(|s| counts(s.construction()))
            .map_err(err),
        Scheme::LambdaAck => rn_labeling::lambda_ack::construct(g, build.source)
            .map(|s| counts(s.construction()))
            .map_err(err),
        Scheme::LambdaArb => {
            rn_labeling::lambda_arb::construct_with_coordinator(g, r, ReductionOrder::Forward)
                .map(|s| counts(s.construction()))
                .map_err(err)
        }
        Scheme::Gossip => rn_labeling::gossip::construct_with_coordinator(g, r)
            .map(|s| counts(s.construction()))
            .map_err(err),
        other => Err(format!("no construction probe for {}", other.name())),
    }
}

/// Replays a run's rounds on a raw, traceless `Simulator` with the
/// session's engine and returns the seconds spent in the simulator alone.
fn simulate(session: &Session, report: &RunReport) -> Result<f64, String> {
    fn time<N: RadioNode>(graph: &Arc<Graph>, nodes: Vec<N>, rounds: u64) -> f64 {
        let mut sim = Simulator::new(Arc::clone(graph), nodes)
            .with_engine(Engine::default())
            .without_trace();
        let t = Instant::now();
        std::hint::black_box(sim.run_rounds(rounds));
        secs(t)
    }
    let graph = session.graph();
    let rounds = report.rounds_executed;
    let (labeling, source, message) = (session.labeling(), report.source, report.message);
    Ok(match session.scheme() {
        Scheme::Lambda => time(graph, BNode::network(labeling, source, message), rounds),
        Scheme::LambdaAck => time(graph, BackNode::network(labeling, source, message), rounds),
        Scheme::LambdaArb => time(graph, ArbNode::network(labeling, source, message), rounds),
        Scheme::Gossip => {
            let scheme =
                rn_labeling::gossip::construct_with_coordinator(graph, session.coordinator())
                    .map_err(|e| format!("gossip probe: {e}"))?;
            let payloads: Vec<u64> = (0..scheme.k() as u64)
                .map(|j| message.wrapping_add(j))
                .collect();
            time(graph, GossipNode::network(&scheme, &payloads), rounds)
        }
        other => return Err(format!("no simulator probe for {}", other.name())),
    })
}

/// Compares the sweep's records with the replica's reports, run by run.
fn check_records(
    records: &[SweepRecord],
    reports: &[RunReport],
    failed: &mut BTreeSet<usize>,
    failures: &mut Vec<String>,
) {
    if records.len() != reports.len() {
        failures.push(format!(
            "sweep produced {} records, the replica {} runs",
            records.len(),
            reports.len()
        ));
        failed.extend(0..reports.len());
        return;
    }
    for (i, (rec, rep)) in records.iter().zip(reports).enumerate() {
        let agrees = rec.scheme == rep.scheme
            && rec.n == rep.node_count
            && rec.source == rep.source
            && rec.label_length == rep.label_length
            && rec.distinct_labels == rep.distinct_labels
            && rec.completion_round == rep.completion_round
            && rec.rounds_executed == rep.rounds_executed
            && rec.transmissions == rep.stats.transmissions
            && rec.collisions == rep.stats.collisions
            && rec.silent_rounds == rep.stats.silent_rounds
            && rec.delivery_rate == rep.delivery_rate
            && rec.stalled_at == rep.stalled_at
            && rec.predicted_completion_round == rep.completion_round;
        if !agrees {
            failed.insert(i);
            failures.push(format!(
                "sweep record {i} ({} {} n={}) disagrees with the replica run",
                rec.family, rec.scheme, rec.n
            ));
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        len if len % 2 == 1 => v[len / 2],
        len => (v[len / 2 - 1] + v[len / 2]) / 2.0,
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Orders the measured values by `spec` and attaches units; a name missing
/// from `values` is an error, so every listed metric is always emitted.
fn collect(
    spec: &[(&'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
) -> Result<Vec<Metric>, String> {
    spec.iter()
        .map(|&(name, unit)| {
            values
                .get(name)
                .map(|&value| Metric { name, value, unit })
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect()
}

/// Fewest passes of each kind, whatever the time budget.
const MIN_PASSES: usize = 3;

/// Runs one benchmark invocation.
///
/// # Errors
/// Returns an error when an input cannot be generated or labeled, which
/// is a benchmark bug rather than a measurement.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (jobs, sweep) = inputs(cfg)?;
    let pass = |traced: bool| match &sweep {
        Some(spec) => sweep_pass(&jobs, spec, traced),
        None => session_pass(&jobs, traced),
    };
    let start = Instant::now();
    let mut failed = BTreeSet::new();
    let mut failures = Vec::new();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut stats_mismatch = 0u64;
    let mut reference: Vec<RunReport> = Vec::new();
    let mut reference_records: Vec<SweepRecord> = Vec::new();
    let kinds: &[bool] = if cfg.trace { &[false, true] } else { &[false] };
    loop {
        for &is_traced in kinds {
            let p = pass(is_traced)?;
            if reference.is_empty() {
                reference = p.reports.clone();
                reference_records = p.records.clone();
                if sweep.is_some() {
                    check_records(&p.records, &p.reports, &mut failed, &mut failures);
                }
            }
            if p.reports.len() != reference.len() || p.records != reference_records {
                failures.push("a pass's run set differs from the first pass's".to_string());
                failed.extend(0..reference.len());
            }
            let mut mismatches = 0;
            for (i, (r, o)) in reference.iter().zip(&p.reports).enumerate() {
                let (same, stats_differ) = same_run(r, o, is_traced);
                if !same {
                    failed.insert(i);
                    failures.push(format!("run {i} differs between passes"));
                }
                mismatches += u64::from(stats_differ);
            }
            // Keep only the timings: every pass's reports are checked by
            // now, and holding them would inflate peak_rss_mb.
            let p = Pass {
                reports: Vec::new(),
                records: Vec::new(),
                ..p
            };
            if is_traced {
                stats_mismatch = mismatches;
                traced.push(p);
            } else {
                plain.push(p);
            }
        }
        // Stop before a further round of passes would overrun the budget.
        let per_round = secs(start) / plain.len() as f64;
        if plain.len() >= MIN_PASSES && secs(start) + per_round > cfg.seconds {
            break;
        }
    }
    let peak_rss_mb = rn_telemetry::peak_rss_kb() as f64 / 1024.0;
    let gate = gate(&jobs, &reference, cfg.trace, &mut failed, &mut failures)?;

    let runs = reference.len();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let metrics = if cfg.trace {
        let layer = |f: &dyn Fn(&Layers) -> f64| median_of(&traced, |p| f(&p.layers));
        let last = traced.last().map(|p| p.layers.clone()).unwrap_or_default();
        let c = last.counters;
        let round_loop_s = layer(&|l| l.round_loop_s);
        let generate_s = layer(&|l| l.generate_s);
        let sweep_s = layer(&|l| l.sweep_s);
        let sweep_point_s = layer(&|l| l.sweep_point_s);
        let untraced_s = median_of(&plain, |p| p.wall_s);
        let traced_s = median_of(&traced, |p| p.wall_s);
        values.insert("rn-graph.generate_s", generate_s);
        values.insert("rn-graph.edges", last.edges as f64);
        values.insert("rn-labeling.construct_s", layer(&|l| l.construct_s));
        values.insert("rn-labeling.stages", gate.stages as f64);
        values.insert("rn-labeling.frontier_sum", gate.frontier_sum as f64);
        values.insert("rn-broadcast.plan_build_s", layer(&|l| l.plan_build_s));
        values.insert(
            "rn-broadcast.template_build_s",
            layer(&|l| l.template_build_s),
        );
        values.insert("rn-broadcast.round_loop_s", round_loop_s);
        // The round loop drives the simulator; what the raw simulator does
        // not account for is the session's own per-round work.
        values.insert(
            "rn-broadcast.self_s",
            layer(&|l| l.plan_build_s + l.template_build_s + l.broadcast_other_s)
                + (round_loop_s - gate.simulate_s).max(0.0),
        );
        values.insert("rn-broadcast.stats_mismatch", stats_mismatch as f64);
        values.insert("rn-radio.simulate_s", gate.simulate_s);
        values.insert("rn-radio.rounds", c.rounds as f64);
        values.insert("rn-radio.transmissions", c.transmissions as f64);
        values.insert("rn-radio.deliveries", c.deliveries as f64);
        values.insert("rn-radio.collisions", c.collisions as f64);
        values.insert("rn-radio.elided_rounds", c.elided_rounds as f64);
        values.insert("rn-radio.frontier_peak", c.frontier_peak as f64);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        values.insert(
            "rn-radio.silent_ratio",
            ratio(c.silent_rounds as f64, c.rounds as f64),
        );
        values.insert(
            "rn-radio.ns_per_round",
            ratio(round_loop_s * 1e9, c.rounds as f64),
        );
        values.insert("rn-analyze.certify_s", gate.certify_s);
        values.insert("rn-analyze.findings", gate.findings as f64);
        values.insert("rn-experiments.sweep_s", sweep_s);
        let sweep_threads = sweep.as_ref().map_or(0.0, |s| s.threads as f64);
        values.insert(
            "rn-experiments.self_s",
            if sweep.is_some() {
                sweep_threads * sweep_s - sweep_point_s - generate_s - gate.certify_s
            } else {
                0.0
            },
        );
        values.insert(
            "rn-experiments.worker_busy_ratio",
            ratio(sweep_point_s, sweep_threads * sweep_s),
        );
        values.insert("rn-telemetry.overhead_ratio", ratio(traced_s, untraced_s));
        values.insert("rn-telemetry.overhead_s", traced_s - untraced_s);
        collect(&PER_LAYER, &values)?
    } else {
        values.insert("pipeline_s", median_of(&plain, |p| p.wall_s));
        values.insert("setup_s", median_of(&plain, |p| p.setup_s));
        values.insert("broadcast_s", median_of(&plain, |p| p.broadcast_s));
        let runs_per_pass = if sweep.is_some() {
            reference_records.len()
        } else {
            runs
        };
        values.insert(
            "runs_per_s",
            median_of(&plain, |p| runs_per_pass as f64 / p.wall_s),
        );
        values.insert("peak_rss_mb", peak_rss_mb);
        collect(&END_TO_END, &values)?
    };

    let engine = rn_experiments::telemetry::engine_name(Engine::default());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let failed_frac = if runs == 0 {
        1.0
    } else {
        failed.len() as f64 / runs as f64
    };
    let context = vec![
        format!(
            "workload {} seed {} scale {:?}",
            cfg.workload.name(),
            cfg.seed,
            cfg.scale
        ),
        format!("engine {engine} nproc {nproc} threads {THREADS}"),
        format!(
            "passes {} untraced, {} traced; timings are medians over those passes",
            plain.len(),
            traced.len()
        ),
        format!(
            "runs per pass {runs}, failed {} (failed_frac {failed_frac})",
            failed.len()
        ),
        format!(
            "pass wall samples, s: untraced {:?} traced {:?}",
            plain.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
            traced.iter().map(|p| p.wall_s).collect::<Vec<_>>()
        ),
    ];
    Ok(Outcome {
        correct: failed.is_empty() && failures.is_empty() && runs > 0,
        attempted: runs.max(1),
        failed: failed.len(),
        metrics,
        context,
        failures,
    })
}

/// The smoke mode: every workload at toy sizes, untraced and traced, must
/// pass its gate and emit every listed metric; then a deliberately wrong
/// expected report must trip the gate.
///
/// # Errors
/// Describes the first check that failed.
pub fn smoke(seed: u64) -> Result<(), String> {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed,
                seconds: 0.0,
                trace,
                scale: Scale::Smoke,
            };
            let outcome = run(&cfg)?;
            if !outcome.correct {
                return Err(format!(
                    "{} failed its gate: {:?}",
                    workload.name(),
                    outcome.failures
                ));
            }
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            if names != expected.iter().map(|(n, _)| *n).collect::<Vec<_>>() {
                return Err(format!("{} emitted {names:?}", workload.name()));
            }
        }
    }
    let wrong = wrong_report_trips_gate(seed)?;
    if !wrong {
        return Err("a wrong expected report passed the gate".to_string());
    }
    Ok(())
}

/// Whether the gate rejects a deliberately wrong report: a copy of a real
/// run's report with the completion round shifted by one must fail both
/// the comparison with the first pass and [`check_run`].
///
/// # Errors
/// Returns an error if the toy instance cannot be built or the real report
/// fails the gate.
pub fn wrong_report_trips_gate(seed: u64) -> Result<bool, String> {
    let graph = Arc::new(
        GNP8.generate(40, derive_seed(seed, 0))
            .map_err(|e| e.to_string())?,
    );
    let session = Session::builder(Scheme::Lambda, graph)
        .trace(TracePolicy::Disabled)
        .build()
        .map_err(|e| e.to_string())?;
    let report = session.run();
    let certified = rn_analyze::analyze_and_cross_check(&session, &report);
    if !check_run(&report, &certified).is_empty() {
        return Err("the correct report failed the gate".to_string());
    }
    let mut wrong = report.clone();
    wrong.completion_round = wrong.completion_round.map(|r| r + 1);
    let certified = rn_analyze::analyze_and_cross_check(&session, &wrong);
    Ok(!same_run(&report, &wrong, false).0 && !check_run(&wrong, &certified).is_empty())
}
