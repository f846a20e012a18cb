//! The execution API: one builder, one report, reusable schemes,
//! batch-parallel runs.
//!
//! * a [`Scheme`] selects the labeling scheme / algorithm pair — the paper's
//!   λ, λ_ack and λ_arb, the 1-bit delay-relay schemes for cycles and grids,
//!   and the §1.1 baselines;
//! * a [`SessionBuilder`] configures the graph (shared via `Arc`, never
//!   cloned per run), source, message, and the stop / trace / round-cap
//!   policies;
//! * [`SessionBuilder::build`] constructs the labeling **once**; the session
//!   owns the labeling and a template of per-node protocol state machines, so
//!   repeated runs amortize scheme construction — the dominant pattern in the
//!   experiment sweeps and benches;
//! * every run returns the same [`RunReport`], whichever scheme executed;
//! * [`Session::run_batch`] fans independent runs out over the scoped worker
//!   threads of [`rn_radio::batch`], returning reports in spec order;
//! * every run borrows its simulator's per-round working buffers
//!   ([`rn_radio::RoundScratch`]) from a pool on the session, so repeat and
//!   batch runs amortize per-round memory exactly like they amortize the
//!   labeling — and [`SessionBuilder::engine`] can replay any workload on the
//!   retained listener-centric reference engine (or the per-round
//!   transmitter-centric engine) instead of the default event-driven
//!   frontier engine, for equivalence checking;
//! * completion bookkeeping is receiver-driven: after each round only the
//!   nodes that decoded a message are examined, so a run costs O(frontier)
//!   per round end to end.
//!
//! ```
//! use rn_broadcast::session::{RunSpec, Scheme, Session};
//! use rn_graph::generators;
//! use std::sync::Arc;
//!
//! let g = Arc::new(generators::grid(4, 5));
//! let session = Session::builder(Scheme::Lambda, Arc::clone(&g))
//!     .source(7)
//!     .message(11)
//!     .build()
//!     .unwrap();
//! let report = session.run();
//! assert!(report.completed());
//! assert_eq!(report.label_length, 2); // the 2-bit λ labels of Theorem 2.9
//!
//! // The cached labeling is reused: only the simulation repeats.
//! let again = session.run_with(RunSpec::new(7, 12)).unwrap();
//! assert_eq!(again.completion_round, report.completion_round);
//! ```

use crate::algo_b::BNode;
use crate::algo_back::BackNode;
use crate::algo_barb::ArbNode;
use crate::baselines::SlottedNode;
use crate::delay_relay::DelayRelayNode;
use crate::gossip::GossipNode;
use crate::messages::{BMessage, SourceMessage, TaggedPayload};
use crate::multi::MultiNode;
use crate::verify;
use rn_graph::{Graph, NodeId};
use rn_labeling::collection::CollectionPlan;
use rn_labeling::gossip::GossipScheme;
use rn_labeling::multi::MultiLambdaScheme;
use rn_labeling::{
    baselines, gossip, lambda, lambda_ack, lambda_arb, multi, onebit, Labeling, LabelingError,
};
use rn_radio::{
    CounterSink, Engine, ExecutionStats, FaultPlan, MetricsSink, RadioNode, RoundScratch,
    RunCounters, Simulator, StopCondition, TraceShape, WakeHintAudit, WakeHintViolation,
};
use rn_telemetry::{RunMetrics, SpanRecord, SpanTimer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

/// Which labeling scheme / broadcast algorithm pair a session executes.
///
/// Each variant pairs one of the paper's labelings with its universal
/// algorithm; [`Scheme::name`] gives the stable string the reports use and
/// [`Scheme::parse`] turns that string back into a scheme (the sweep CLI's
/// entry point).
///
/// ```
/// use rn_broadcast::session::Scheme;
///
/// assert_eq!(Scheme::parse("lambda_ack").unwrap(), Scheme::LambdaAck);
/// assert_eq!(Scheme::parse("onebit_grid:3x5").unwrap(),
///            Scheme::OneBitGrid { rows: 3, cols: 5 });
/// for scheme in Scheme::GENERAL {
///     assert_eq!(Scheme::parse(scheme.name()).unwrap(), scheme);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's 2-bit scheme λ driving Algorithm B (Theorem 2.9).
    Lambda,
    /// The paper's 3-bit scheme λ_ack driving Algorithm B_ack (Theorem 3.9).
    LambdaAck,
    /// The paper's 3-bit unknown-source scheme λ_arb driving Algorithm B_arb
    /// (§4.2). The labeling is built for the session's coordinator, not its
    /// source, so one session can run from every source position.
    LambdaArb,
    /// The 1-bit delay-relay scheme for cycles (§5 conclusion).
    OneBitCycle,
    /// The 1-bit delay-relay scheme for canonically numbered grids
    /// (§5 conclusion).
    OneBitGrid {
        /// Number of grid rows.
        rows: usize,
        /// Number of grid columns.
        cols: usize,
    },
    /// Baseline: distinct ⌈log₂ n⌉-bit identifiers, slotted round robin.
    UniqueIds,
    /// Baseline: colouring of the square of the graph, slotted.
    SquareColoring,
    /// The k-source multi-broadcast scheme `multi_lambda`
    /// ([`rn_labeling::multi`]): a collision-free collection phase funnels
    /// every source's message to a coordinator, which then runs Algorithm B
    /// on the bundle of all k messages under the λ labels of
    /// `(G, coordinator)`.
    ///
    /// Sources come from [`SessionBuilder::sources`]; without an explicit
    /// set, `k` sources are spread evenly over the node range. The run's
    /// payloads are derived from the run message µ as `µ, µ+1, …, µ+k−1`
    /// (one per source, in sorted source order). The labeling depends on
    /// the source *set* fixed at build time, not on a per-run source, so
    /// [`Session::run_with`] reuses the cache for every spec.
    MultiLambda {
        /// Number of sources to spread over the node range when
        /// [`SessionBuilder::sources`] is not given explicitly.
        k: usize,
    },
    /// The all-to-all gossip scheme ([`rn_labeling::gossip`]): **every**
    /// node is a source, and completion means every node holds all n
    /// messages. A DFS token walk collects everything at the coordinator
    /// (the graph centre by default) in `2(n − 1)` collision-free rounds;
    /// Algorithm B then broadcasts the bundle under the λ labels of
    /// `(G, coordinator)`, for `≤ 4n − 5` rounds in total.
    ///
    /// The source set is always all of `0..n` ([`SessionBuilder::sources`]
    /// is ignored); the run's payloads are derived from the run message µ
    /// as `µ, µ+1, …, µ+n−1` (node `v` starts with `µ + v`), and
    /// [`RunReport::message_completion_rounds`] has length n.
    Gossip,
}

impl Scheme {
    /// The schemes defined on every connected graph (excludes the restricted
    /// 1-bit classes), in presentation order. `MultiLambda` appears with its
    /// default parameterization (`k = 2`), like the parameterless spelling
    /// [`parse`](Self::parse) accepts.
    pub const GENERAL: [Scheme; 7] = [
        Scheme::Lambda,
        Scheme::LambdaAck,
        Scheme::LambdaArb,
        Scheme::UniqueIds,
        Scheme::SquareColoring,
        Scheme::MultiLambda { k: 2 },
        Scheme::Gossip,
    ];

    /// The accepted spellings of every scheme, as listed by
    /// [`ParseSchemeError`]: what [`parse`](Self::parse) accepts, with the
    /// parameter syntax spelled out for the parameterized schemes.
    pub const VALID_NAMES: [&'static str; 9] = [
        "lambda",
        "lambda_ack",
        "lambda_arb",
        "onebit_cycle",
        "onebit_grid:RxC",
        "unique_ids",
        "square_coloring",
        "multi_lambda[:K]",
        "gossip",
    ];

    /// Human-readable scheme name, matching the name recorded in labelings
    /// and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Lambda => lambda::SCHEME_NAME,
            Scheme::LambdaAck => lambda_ack::SCHEME_NAME,
            Scheme::LambdaArb => lambda_arb::SCHEME_NAME,
            Scheme::OneBitCycle => onebit::CYCLE_SCHEME_NAME,
            Scheme::OneBitGrid { .. } => onebit::GRID_SCHEME_NAME,
            Scheme::UniqueIds => baselines::UNIQUE_IDS_NAME,
            Scheme::SquareColoring => baselines::SQUARE_COLORING_NAME,
            Scheme::MultiLambda { .. } => multi::SCHEME_NAME,
            Scheme::Gossip => gossip::SCHEME_NAME,
        }
    }

    /// Whether the labeling depends on the source position. Source-independent
    /// schemes (λ_arb, the baselines, `multi_lambda` — whose labeling is a
    /// function of the source *set* fixed at build time — and gossip, where
    /// every node is a source) reuse one cached labeling for every source in
    /// [`Session::run_with`] / [`Session::run_batch`].
    pub fn labeling_depends_on_source(&self) -> bool {
        match self {
            Scheme::Lambda
            | Scheme::LambdaAck
            | Scheme::OneBitCycle
            | Scheme::OneBitGrid { .. } => true,
            Scheme::LambdaArb
            | Scheme::UniqueIds
            | Scheme::SquareColoring
            | Scheme::MultiLambda { .. }
            | Scheme::Gossip => false,
        }
    }

    /// Whether this scheme runs more than one message at a time
    /// (`multi_lambda`, gossip). Multi-message runs fix their source set at
    /// build time and ignore the per-run source, so sweeps execute them
    /// once per instance, and their reports carry per-message completion
    /// rounds.
    pub fn is_multi_message(&self) -> bool {
        matches!(self, Scheme::MultiLambda { .. } | Scheme::Gossip)
    }

    /// Parses a scheme from its [`name`](Self::name). `onebit_grid` takes its
    /// dimensions as a `:RxC` suffix (`onebit_grid:4x5`), `multi_lambda` its
    /// source count as a `:k` suffix (`multi_lambda:4`, bare `multi_lambda`
    /// means `k = 2`); every other scheme is just its name. This is the
    /// inverse of `name` and the string form the sweep CLI accepts.
    pub fn parse(s: &str) -> Result<Scheme, ParseSchemeError> {
        let err = || ParseSchemeError {
            input: s.to_string(),
        };
        if let Some(dims) = s.strip_prefix(onebit::GRID_SCHEME_NAME) {
            let dims = dims.strip_prefix(':').ok_or_else(err)?;
            let (rows, cols) = dims.split_once('x').ok_or_else(err)?;
            return Ok(Scheme::OneBitGrid {
                rows: rows.parse().map_err(|_| err())?,
                cols: cols.parse().map_err(|_| err())?,
            });
        }
        if let Some(rest) = s.strip_prefix(multi::SCHEME_NAME) {
            let k = match rest.strip_prefix(':') {
                Some(k) => k.parse().ok().filter(|&k| k >= 1).ok_or_else(err)?,
                None if rest.is_empty() => 2,
                None => return Err(err()),
            };
            return Ok(Scheme::MultiLambda { k });
        }
        match s {
            lambda::SCHEME_NAME => Ok(Scheme::Lambda),
            lambda_ack::SCHEME_NAME => Ok(Scheme::LambdaAck),
            lambda_arb::SCHEME_NAME => Ok(Scheme::LambdaArb),
            onebit::CYCLE_SCHEME_NAME => Ok(Scheme::OneBitCycle),
            baselines::UNIQUE_IDS_NAME => Ok(Scheme::UniqueIds),
            baselines::SQUARE_COLORING_NAME => Ok(Scheme::SquareColoring),
            gossip::SCHEME_NAME => Ok(Scheme::Gossip),
            _ => Err(err()),
        }
    }
}

impl std::str::FromStr for Scheme {
    type Err = ParseSchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::parse(s)
    }
}

/// The input of [`Scheme::parse`] named no known scheme.
///
/// The error's [`Display`](std::fmt::Display) form lists every accepted
/// spelling ([`Scheme::VALID_NAMES`]), so a CLI typo shows the caller the
/// full menu instead of only rejecting:
///
/// ```
/// use rn_broadcast::session::Scheme;
///
/// let err = Scheme::parse("gosip").unwrap_err();
/// assert!(err.to_string().contains("gossip"));
/// assert!(err.to_string().contains("multi_lambda[:K]"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError {
    /// The rejected input.
    pub input: String,
}

impl std::fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheme {:?}; valid schemes: {}",
            self.input,
            Scheme::VALID_NAMES.join(", ")
        )
    }
}

impl std::error::Error for ParseSchemeError {}

/// When a run stops, beyond the scheme-specific completion predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopPolicy {
    /// The scheme-appropriate default: quiet detection (3 consecutive silent
    /// rounds) for λ, λ_ack and the 1-bit schemes, which legitimately go
    /// quiet when done; run-to-cap with completion predicates for λ_arb and
    /// the slotted baselines.
    #[default]
    Auto,
    /// Run until the round cap regardless of quiet detection (completion
    /// predicates still stop λ_arb and baseline runs early).
    RunToCap,
    /// Stop after this many consecutive silent rounds, for any scheme.
    QuietFor(u64),
}

/// Whether a run records a full [`rn_radio::Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TracePolicy {
    /// Record the trace and derive [`RunReport::informed_rounds`] and the
    /// full [`ExecutionStats`] from it (the default).
    #[default]
    Recorded,
    /// Skip trace recording (saves memory and time on large batch runs).
    /// Informed rounds are then tracked from the state of the nodes that
    /// decoded a message each round — identical for every scheme in this
    /// crate — and the statistics carry only the round count, whether or
    /// not the run is instrumented (the counters of
    /// [`Session::run_instrumented`] stay in its `RunMetrics`).
    Disabled,
}

/// How the safety cap on the number of rounds is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundCapPolicy {
    /// The scheme-appropriate default: linear in `n` for the constant-length
    /// schemes (whose theorems bound completion by `O(n)` rounds), quadratic
    /// for the slotted baselines.
    #[default]
    Auto,
    /// An explicit cap in rounds.
    Fixed(u64),
}

/// One run of a session: a source and a message. Sessions built for a
/// source-independent scheme execute any spec against the cached labeling;
/// source-dependent schemes relabel when the source differs from the
/// session's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// The broadcasting source node.
    pub source: NodeId,
    /// The source message µ.
    pub message: SourceMessage,
}

impl RunSpec {
    /// Creates a run spec.
    pub fn new(source: NodeId, message: SourceMessage) -> Self {
        RunSpec { source, message }
    }
}

/// The unified result of one session run, for every scheme: the fields a
/// scheme does not produce (an ack round, a coordinator, per-message
/// completion) stay `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the labeling scheme used.
    pub scheme: &'static str,
    /// Number of nodes in the graph.
    pub node_count: usize,
    /// The broadcasting source of this run (for a multi-broadcast run, the
    /// first of [`sources`](Self::sources)).
    pub source: NodeId,
    /// Every designated source of this run: `vec![source]` for the
    /// single-source schemes, the full sorted k-source set for
    /// [`Scheme::MultiLambda`].
    pub sources: Vec<NodeId>,
    /// The coordinator `r` of the λ_arb or `multi_lambda` labeling, if the
    /// scheme has one.
    pub coordinator: Option<NodeId>,
    /// The source message µ of this run (for a multi-broadcast run, the
    /// base payload: source `j` broadcasts `µ + j`).
    pub message: SourceMessage,
    /// Length of the labeling (max label bits).
    pub label_length: usize,
    /// Number of distinct labels used.
    pub distinct_labels: usize,
    /// Round in which each node was first informed (0 for the source);
    /// `None` if never informed within the round cap. For a multi-broadcast
    /// run "informed" means *fully* informed: holding all k messages.
    pub informed_rounds: Vec<Option<u64>>,
    /// Round by which every node was informed, if broadcast completed (for
    /// multi-broadcast: every node holds every message).
    pub completion_round: Option<u64>,
    /// Multi-broadcast only: for each source (in [`sources`](Self::sources)
    /// order), the round by which **every** node held that source's
    /// message, or `None` if it never fully propagated. `None` for
    /// single-source schemes.
    pub message_completion_rounds: Option<Vec<(NodeId, Option<u64>)>>,
    /// Round in which the source first heard an "ack" (the Theorem 3.9
    /// quantity). Only λ_ack sessions produce acknowledgements.
    pub ack_round: Option<u64>,
    /// Round by which every node additionally knew that broadcast had
    /// completed everywhere. Only λ_arb sessions track common knowledge.
    pub common_knowledge_round: Option<u64>,
    /// Number of rounds the simulation executed (including quiet tail
    /// rounds after completion).
    pub rounds_executed: u64,
    /// Communication statistics of the execution.
    pub stats: ExecutionStats,
    /// Robustness: fraction of **non-crashed** nodes that ended the run
    /// informed (for multi-message schemes: fully informed). Nodes the fault
    /// plan crashed within the executed rounds are excluded from both sides
    /// of the ratio; a fault-free completed run reports exactly 1.0.
    pub delivery_rate: f64,
    /// Robustness: the last round in which any node became newly informed —
    /// the round after which the broadcast made no further progress. `None`
    /// when no node was ever informed within the executed rounds.
    pub stalled_at: Option<u64>,
    /// Robustness: number of scheduled fault events whose effect had begun
    /// by the end of the run (0 for a fault-free run).
    pub faults_injected: usize,
}

impl RunReport {
    /// Whether every node was informed.
    pub fn completed(&self) -> bool {
        self.completion_round.is_some()
    }

    /// The paper's closed-form completion bound for this run's scheme, when
    /// it states one: Theorem 2.9's `2n − 3` rounds for λ and the `4n − 5`
    /// bound for the gossip scheme (token walk plus bundle broadcast).
    /// `None` for the other schemes, whose bounds are stated asymptotically,
    /// and for the degenerate `n < 2` graphs the bounds do not cover.
    pub fn theorem_bound(&self) -> Option<u64> {
        let n = self.node_count as u64;
        if n < 2 {
            return None;
        }
        if self.scheme == lambda::SCHEME_NAME {
            Some(2 * n - 3)
        } else if self.scheme == gossip::SCHEME_NAME {
            Some(4 * n - 5)
        } else {
            None
        }
    }
}

/// One-paragraph human-readable summary: scheme and graph size, completion
/// round against the paper bound (when the scheme has a closed-form one),
/// delivery rate, and fault count — the report a person wants to read after
/// a run, next to the machine-oriented fields.
impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} nodes carrying {}-bit labels ({} distinct); ",
            self.scheme, self.node_count, self.label_length, self.distinct_labels
        )?;
        match self.completion_round {
            Some(round) => {
                write!(
                    f,
                    "broadcast from source {} completed in round {round} of {} executed",
                    self.source, self.rounds_executed
                )?;
                if let Some(bound) = self.theorem_bound() {
                    write!(f, ", within the paper's {bound}-round bound")?;
                }
            }
            None => write!(
                f,
                "broadcast from source {} did not complete within {} rounds",
                self.source, self.rounds_executed
            )?,
        }
        if let Some(ack) = self.ack_round {
            write!(f, "; the source heard the acknowledgement in round {ack}")?;
        }
        if let Some(ck) = self.common_knowledge_round {
            write!(f, "; completion was common knowledge by round {ck}")?;
        }
        write!(
            f,
            ". Delivery rate {:.1}%, {} fault event{} injected.",
            self.delivery_rate * 100.0,
            self.faults_injected,
            if self.faults_injected == 1 { "" } else { "s" }
        )
    }
}

/// Builder for a [`Session`].
///
/// Defaults: source 0, coordinator 0 (λ_arb only), message 1, and the `Auto`
/// stop, `Recorded` trace and `Auto` round-cap policies.
///
/// ```
/// use rn_broadcast::session::{RoundCapPolicy, Scheme, Session, TracePolicy};
/// use rn_graph::generators;
///
/// let session = Session::builder(Scheme::LambdaAck, generators::cycle(11))
///     .source(3)
///     .message(5)
///     .trace(TracePolicy::Disabled)       // skip trace recording
///     .round_cap(RoundCapPolicy::Fixed(200))
///     .build()?;
/// let report = session.run();
/// assert!(report.completed());
/// assert!(report.ack_round > report.completion_round);
/// # Ok::<(), rn_labeling::LabelingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    scheme: Scheme,
    graph: Arc<Graph>,
    source: NodeId,
    /// Explicit multi-broadcast sources; empty means "derive from the
    /// scheme's `k` by spreading over the node range".
    sources: Vec<NodeId>,
    /// `None` resolves to the scheme default at build time: 0 for λ_arb,
    /// the BFS-forest centre of the sources for `multi_lambda`.
    coordinator: Option<NodeId>,
    message: SourceMessage,
    stop: StopPolicy,
    trace: TracePolicy,
    round_cap: RoundCapPolicy,
    engine: Engine,
    faults: FaultPlan,
}

impl SessionBuilder {
    /// Starts a builder for `scheme` on `graph` (owned or `Arc`-shared).
    pub fn new(scheme: Scheme, graph: impl Into<Arc<Graph>>) -> Self {
        SessionBuilder {
            scheme,
            graph: graph.into(),
            source: 0,
            sources: Vec::new(),
            coordinator: None,
            message: 1,
            stop: StopPolicy::default(),
            trace: TracePolicy::default(),
            round_cap: RoundCapPolicy::default(),
            engine: Engine::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Sets the broadcasting source (default 0).
    pub fn source(mut self, source: NodeId) -> Self {
        self.source = source;
        self
    }

    /// Sets the designated multi-broadcast sources ([`Scheme::MultiLambda`]
    /// only; ignored by the single-source schemes). The set is sorted and
    /// deduplicated; message `j` of every run belongs to the `j`-th source
    /// in that order. Without an explicit set, `MultiLambda { k }` spreads
    /// `k` sources evenly over the node range.
    pub fn sources(mut self, sources: &[NodeId]) -> Self {
        self.sources = sources.to_vec();
        self
    }

    /// Sets the coordinator `r` of the λ_arb or `multi_lambda` labeling
    /// (ignored by other schemes). Defaults: 0 for λ_arb; for
    /// `multi_lambda`, the node minimising the maximum distance to any
    /// source ([`rn_labeling::multi::choose_coordinator`]).
    pub fn coordinator(mut self, coordinator: NodeId) -> Self {
        self.coordinator = Some(coordinator);
        self
    }

    /// Sets the source message µ (default 1).
    pub fn message(mut self, message: SourceMessage) -> Self {
        self.message = message;
        self
    }

    /// Sets the stop policy (default [`StopPolicy::Auto`]).
    pub fn stop(mut self, stop: StopPolicy) -> Self {
        self.stop = stop;
        self
    }

    /// Sets the trace policy (default [`TracePolicy::Recorded`]).
    pub fn trace(mut self, trace: TracePolicy) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the round-cap policy (default [`RoundCapPolicy::Auto`]).
    pub fn round_cap(mut self, round_cap: RoundCapPolicy) -> Self {
        self.round_cap = round_cap;
        self
    }

    /// Selects the simulator delivery engine (default
    /// [`Engine::EventDriven`], which drives only the wake-hint frontier and,
    /// with tracing off, elides provably quiet spans).
    /// [`Engine::TransmitterCentric`] steps every node every round, and
    /// [`Engine::ListenerCentric`] replays runs on the retained reference
    /// implementation; the equivalence suite uses the reference to pin down
    /// that all three engines produce identical reports.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Installs a [`FaultPlan`] (default [`FaultPlan::none`]): every run of
    /// the session replays the same deterministic fault schedule through the
    /// simulator (see `rn_radio::fault`), and the report's robustness
    /// columns ([`RunReport::delivery_rate`], [`RunReport::stalled_at`],
    /// [`RunReport::faults_injected`]) measure the damage. An empty plan
    /// leaves every run byte-identical to an unfaulted session.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Constructs the labeling and the per-node protocol templates.
    ///
    /// This is the expensive step (BFS layering, sequence construction,
    /// dominating-set minimisation); every run of the returned session reuses
    /// its output.
    pub fn build(self) -> Result<Session, LabelingError> {
        // Phase spans of the build, reported later through
        // `Session::run_instrumented`: "plan_build" covers source-set and
        // coordinator resolution, prepare() adds "labeling_construction"
        // and "template_build". Recording them is a handful of clock reads,
        // so it happens unconditionally.
        let mut build_spans = Vec::new();
        let plan_timer = SpanTimer::start("plan_build");
        let node_count = self.graph.node_count();
        if node_count == 0 {
            return Err(LabelingError::EmptyGraph);
        }
        // Resolve the multi-message source set (left empty for the
        // single-source schemes): every node for gossip; for multi-broadcast
        // the explicit `.sources(..)` set if given, otherwise `k` sources
        // spread evenly over the node range.
        let sources: Vec<NodeId> = match self.scheme {
            Scheme::Gossip => (0..node_count).collect(),
            Scheme::MultiLambda { k } => {
                if self.sources.is_empty() {
                    if k == 0 {
                        return Err(LabelingError::NoSources);
                    }
                    let k = k.min(node_count);
                    let mut spread: Vec<NodeId> = (0..k).map(|i| i * node_count / k).collect();
                    spread.dedup();
                    spread
                } else {
                    let mut explicit = self.sources.clone();
                    for &s in &explicit {
                        if s >= node_count {
                            return Err(LabelingError::SourceOutOfRange {
                                source: s,
                                node_count,
                            });
                        }
                    }
                    explicit.sort_unstable();
                    explicit.dedup();
                    explicit
                }
            }
            _ => Vec::new(),
        };
        // The session's nominal source: the first designated source for
        // multi-broadcast, the `.source(..)` setting otherwise.
        let source = sources.first().copied().unwrap_or(self.source);
        if source >= node_count {
            return Err(LabelingError::SourceOutOfRange { source, node_count });
        }
        if let Some(max) = self.faults.max_node() {
            if max >= node_count {
                return Err(LabelingError::FaultTargetOutOfRange {
                    node: max,
                    node_count,
                });
            }
        }
        let coordinator = match (self.scheme, self.coordinator) {
            (_, Some(c)) => c,
            (Scheme::MultiLambda { .. }, None) => multi::choose_coordinator(&self.graph, &sources)?,
            (Scheme::Gossip, None) => gossip::choose_coordinator(&self.graph)?,
            (_, None) => 0,
        };
        build_spans.push(plan_timer.stop());
        let prepared = prepare(
            self.scheme,
            &self.graph,
            source,
            &sources,
            coordinator,
            self.message,
            &mut build_spans,
        )?;
        Ok(Session {
            scheme: self.scheme,
            graph: self.graph,
            source,
            sources,
            coordinator,
            message: self.message,
            stop: self.stop,
            trace: self.trace,
            round_cap: self.round_cap,
            engine: self.engine,
            faults: self.faults,
            prepared,
            build_spans,
            scratch_pool: Mutex::new(Vec::new()),
        })
    }
}

/// A reusable execution context: one graph, one constructed labeling scheme,
/// many runs.
///
/// See the [module documentation](self) for an overview and example.
pub struct Session {
    scheme: Scheme,
    graph: Arc<Graph>,
    source: NodeId,
    /// The resolved multi-broadcast source set (empty for single-source
    /// schemes); sorted and deduplicated, message `j` belongs to entry `j`.
    sources: Vec<NodeId>,
    coordinator: NodeId,
    message: SourceMessage,
    stop: StopPolicy,
    trace: TracePolicy,
    round_cap: RoundCapPolicy,
    engine: Engine,
    /// The deterministic fault schedule every run replays (empty by
    /// default); validated against the graph at build time.
    faults: FaultPlan,
    prepared: Prepared,
    /// Wall-clock spans of the build phases ("plan_build",
    /// "labeling_construction", "template_build"), recorded once at build
    /// time and prepended to the [`RunMetrics`] of every
    /// [`run_instrumented`](Session::run_instrumented) call.
    build_spans: Vec<SpanRecord>,
    /// Recycled per-round simulator buffers: every run borrows a scratch
    /// from here and returns it afterwards, so repeat and batch runs
    /// amortize per-round working memory the same way they amortize the
    /// labeling. Grows to at most the number of concurrently running
    /// simulations (the batch thread count).
    scratch_pool: Mutex<Vec<RoundScratch>>,
}

impl Session {
    /// Starts a [`SessionBuilder`] for `scheme` on `graph`.
    pub fn builder(scheme: Scheme, graph: impl Into<Arc<Graph>>) -> SessionBuilder {
        SessionBuilder::new(scheme, graph)
    }

    /// The scheme this session executes.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The shared graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The session's default source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The resolved multi-broadcast source set: sorted, deduplicated, and
    /// message `j` of every run belongs to entry `j`. Empty for the
    /// single-source schemes.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The cached labeling this session was built with. Stable across runs:
    /// running never re-labels the session's own graph/source pair.
    pub fn labeling(&self) -> &Labeling {
        self.prepared.labeling()
    }

    /// The resolved coordinator: the `111`-labeled node for λ_arb and the
    /// collection root for multi/gossip (node 0 for schemes that have no
    /// coordinator concept). Static analyzers certify against this value.
    pub fn coordinator(&self) -> NodeId {
        self.coordinator
    }

    /// The fault schedule every run of this session replays (empty unless
    /// [`SessionBuilder::faults`] installed one).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The collection schedule of a multi-broadcast or gossip session
    /// (`None` for every single-message scheme). Exposed so certificate
    /// checkers can audit the exact plan the relay protocol will drive.
    pub fn collection_plan(&self) -> Option<&CollectionPlan> {
        match &self.prepared.kind {
            PreparedKind::Multi { scheme, .. } => Some(scheme.plan()),
            PreparedKind::Gossip { scheme, .. } => Some(scheme.plan()),
            _ => None,
        }
    }

    /// Runs the session with its configured source and message: exactly
    /// [`run_with`](Self::run_with) on the session's own spec, which always
    /// reuses the cached labeling and so cannot fail.
    pub fn run(&self) -> RunReport {
        self.run_with(self.own_spec())
            .expect("the session's own spec runs on its cached labeling")
    }

    /// Runs the session with its configured source and message, with full
    /// telemetry: a [`CounterSink`] is installed on the simulator (the only
    /// run mode that pays for per-round metric assembly) and the returned
    /// [`RunMetrics`] carries the aggregated deterministic counters, the
    /// phase spans (build phases recorded once at build time, plus this
    /// run's `round_loop` and `verify`), and the process peak RSS.
    ///
    /// The [`RunReport`] is **identical** to what [`run`](Self::run)
    /// returns: deterministic counters never alter report contents, they
    /// only corroborate them ([`RunMetrics::counters_match_trace`] records
    /// the cross-check when a trace was also recorded). Timings and RSS are
    /// nondeterministic and live only in the `RunMetrics` block, so callers
    /// that persist reports stay byte-identical with telemetry on.
    pub fn run_instrumented(&self) -> (RunReport, RunMetrics) {
        self.run_with_instrumented(self.own_spec())
            .expect("the session's own spec runs on its cached labeling")
    }

    /// The session's configured source and message as a [`RunSpec`].
    fn own_spec(&self) -> RunSpec {
        RunSpec::new(self.source, self.message)
    }

    /// Runs the session with its configured source and message and also
    /// returns the message-agnostic [`TraceShape`] of the execution, forcing
    /// trace recording for this run regardless of the session's trace policy.
    ///
    /// The shape is what the model checker compares across engines: two
    /// executions of the same protocol are physically equivalent iff their
    /// shapes match round for round.
    pub fn run_shaped(&self) -> (RunReport, TraceShape) {
        let (report, shape) = self.execute(&self.prepared, self.source, self.message, true, None);
        (report, shape.expect("shape requested"))
    }

    /// The concrete [`StopCondition`] the session's stop and round-cap
    /// policies resolve to for its graph — the exact condition every
    /// [`run`](Self::run) executes under. Exposed so external checkers (the
    /// model checker's round-cap invariant) can certify against the same
    /// bound the simulation uses.
    pub fn resolved_stop_condition(&self) -> StopCondition {
        self.stop_condition()
    }

    /// Audits the wake-hint contract of every node over one full execution:
    /// at every reachable state (including the initial one), every node
    /// advertising `wake_hint() == h > 0` is cloned and its next
    /// `min(h, horizon)` elided `step`/`receive(None)` pairs are replayed,
    /// verifying they are Listen-only and (for nodes implementing
    /// [`RadioNode::state_digest`]) leave the state bit-identical.
    ///
    /// The execution is driven round by round under the session's configured
    /// engine and fault plan, up to the resolved round cap. Returns the audit
    /// counters on success or the first violation found.
    ///
    /// # Errors
    /// Returns the first [`WakeHintViolation`] encountered, identifying the
    /// node, round, offset into the promised span, and violation kind.
    pub fn audit_wake_hints(&self) -> Result<WakeHintAudit, WakeHintViolation> {
        match &self.prepared.kind {
            PreparedKind::AlgoB { template, .. } => self.audit_nodes(template.clone()),
            PreparedKind::AlgoBack { template, .. } => self.audit_nodes(template.clone()),
            PreparedKind::AlgoBarb { template, .. } => self.audit_nodes(template.clone()),
            PreparedKind::Slotted { template, .. } => self.audit_nodes(template.clone()),
            PreparedKind::DelayRelay { template, .. } => self.audit_nodes(template.clone()),
            PreparedKind::Multi { template, .. } => self.audit_nodes(template.clone()),
            PreparedKind::Gossip { template, .. } => self.audit_nodes(template.clone()),
        }
    }

    /// Runs the protocol for `rounds` rounds under the session's engine and
    /// fault plan, recording every node's [`RadioNode::state_digest`] at
    /// every reachable state: row 0 holds the initial digests, row `r` the
    /// digests after round `r`. The digest-contract tests use this to pin
    /// determinism and the informed-transition sensitivity of the digests.
    pub fn state_digest_history(&self, rounds: u64) -> Vec<Vec<u64>> {
        match &self.prepared.kind {
            PreparedKind::AlgoB { template, .. } => self.digest_history(template.clone(), rounds),
            PreparedKind::AlgoBack { template, .. } => {
                self.digest_history(template.clone(), rounds)
            }
            PreparedKind::AlgoBarb { template, .. } => {
                self.digest_history(template.clone(), rounds)
            }
            PreparedKind::Slotted { template, .. } => self.digest_history(template.clone(), rounds),
            PreparedKind::DelayRelay { template, .. } => {
                self.digest_history(template.clone(), rounds)
            }
            PreparedKind::Multi { template, .. } => self.digest_history(template.clone(), rounds),
            PreparedKind::Gossip { template, .. } => self.digest_history(template.clone(), rounds),
        }
    }

    /// The shared tail of [`state_digest_history`](Self::state_digest_history).
    fn digest_history<N: RadioNode + Clone>(&self, nodes: Vec<N>, rounds: u64) -> Vec<Vec<u64>> {
        let mut sim = Simulator::new(Arc::clone(&self.graph), nodes)
            .with_engine(self.engine)
            .with_faults(&self.faults)
            .without_trace();
        let digest_row =
            |sim: &Simulator<N>| sim.nodes().iter().map(RadioNode::state_digest).collect();
        let mut rows: Vec<Vec<u64>> = Vec::with_capacity(rounds as usize + 1);
        rows.push(digest_row(&sim));
        for _ in 0..rounds {
            sim.step_round();
            rows.push(digest_row(&sim));
        }
        rows
    }

    /// The shared tail of [`audit_wake_hints`](Self::audit_wake_hints): runs
    /// the generic auditor on a simulator configured like a normal run
    /// (engine, faults), up to the resolved round cap.
    fn audit_nodes<N: RadioNode + Clone>(
        &self,
        nodes: Vec<N>,
    ) -> Result<WakeHintAudit, WakeHintViolation> {
        let cap = self.stop_condition().cap();
        let mut sim = Simulator::new(Arc::clone(&self.graph), nodes)
            .with_engine(self.engine)
            .with_faults(&self.faults)
            .without_trace();
        rn_radio::audit_wake_hints(&mut sim, cap)
    }

    /// Runs an arbitrary spec.
    ///
    /// For source-independent schemes (λ_arb, the baselines) any source
    /// executes against the cached labeling. For source-dependent schemes a
    /// spec with a different source constructs a fresh labeling for that
    /// source (the documented cost of moving the source); specs with the
    /// session's own source always reuse the cache, and a new message never
    /// relabels (labels never depend on µ).
    pub fn run_with(&self, spec: RunSpec) -> Result<RunReport, LabelingError> {
        self.run_spec(spec, None)
    }

    /// Runs an arbitrary spec with full telemetry, mirroring
    /// [`run_with`](Self::run_with) exactly: the returned [`RunReport`] is
    /// identical to what `run_with` produces, and the [`RunMetrics`] block
    /// carries the deterministic counters, phase spans, and peak RSS the
    /// same way [`run_instrumented`](Self::run_instrumented) does.
    ///
    /// When the spec forces a fresh labeling (source-dependent scheme, new
    /// source), the metrics' span list holds the *fresh* construction's
    /// `labeling_construction`/`template_build` timings rather than the
    /// cached build's — the spans describe the work this call actually did.
    ///
    /// # Errors
    /// Same contract as [`run_with`](Self::run_with).
    pub fn run_with_instrumented(
        &self,
        spec: RunSpec,
    ) -> Result<(RunReport, RunMetrics), LabelingError> {
        let mut metrics = RunMetrics::default();
        let report = self.run_spec(spec, Some(&mut metrics))?;
        metrics.peak_rss_kb = rn_telemetry::peak_rss_kb();
        Ok((report, metrics))
    }

    /// The spec path behind every run entry point: checks the source range,
    /// then executes against the cached labeling or, for a source-dependent
    /// scheme moved to a new source, a fresh one. An instrumented run's
    /// spans start with the build phases of whichever labeling it used.
    fn run_spec(
        &self,
        spec: RunSpec,
        mut metrics: Option<&mut RunMetrics>,
    ) -> Result<RunReport, LabelingError> {
        let node_count = self.graph.node_count();
        if spec.source >= node_count {
            return Err(LabelingError::SourceOutOfRange {
                source: spec.source,
                node_count,
            });
        }
        let fresh;
        let prepared = if spec.source == self.source || !self.scheme.labeling_depends_on_source() {
            if let Some(m) = metrics.as_deref_mut() {
                m.spans = self.build_spans.clone();
            }
            &self.prepared
        } else {
            let mut spans = Vec::new();
            fresh = prepare(
                self.scheme,
                &self.graph,
                spec.source,
                &self.sources,
                self.coordinator,
                spec.message,
                &mut spans,
            )?;
            if let Some(m) = metrics.as_deref_mut() {
                m.spans = spans;
            }
            &fresh
        };
        Ok(self
            .execute(prepared, spec.source, spec.message, false, metrics)
            .0)
    }

    /// Runs every spec, fanning the independent simulations out over up to
    /// `threads` worker threads ([`rn_radio::batch::run_parallel`]). Reports
    /// come back in spec order, so batch runs are deterministic regardless of
    /// the thread count. `threads <= 1` runs inline.
    ///
    /// ```
    /// use rn_broadcast::session::{RunSpec, Scheme, Session};
    /// use rn_graph::generators;
    ///
    /// // λ_arb: one labeling serves every source, so a batch over all
    /// // sources reuses the cached labeling in every worker.
    /// let g = generators::gnp_connected(12, 0.3, 1)?;
    /// let session = Session::builder(Scheme::LambdaArb, g).build()?;
    /// let specs: Vec<RunSpec> = (0..12).map(|s| RunSpec::new(s, 7)).collect();
    /// let reports = session.run_batch(&specs, 4)?;
    /// assert_eq!(reports.len(), 12);
    /// assert!(reports.iter().all(|r| r.completed()));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_batch(
        &self,
        specs: &[RunSpec],
        threads: usize,
    ) -> Result<Vec<RunReport>, LabelingError> {
        rn_radio::batch::run_parallel(specs.to_vec(), threads, |spec| self.run_with(spec))
            .into_iter()
            .collect()
    }

    /// The stop condition this session's policies resolve to for its graph.
    fn stop_condition(&self) -> StopCondition {
        let n = self.graph.node_count() as u64;
        let cap = match self.round_cap {
            RoundCapPolicy::Fixed(c) => c,
            RoundCapPolicy::Auto => match self.scheme {
                Scheme::Lambda | Scheme::OneBitCycle | Scheme::OneBitGrid { .. } => {
                    4 * (n + 2) + 16
                }
                Scheme::LambdaAck => 6 * (n + 2) + 16,
                Scheme::LambdaArb => 16 * (n + 2) + 16,
                Scheme::UniqueIds | Scheme::SquareColoring => 16 * n * n + 64,
                // Collection is bounded by k·(n − 1) one-hop rounds, the
                // bundle broadcast by Theorem 2.9's 2n − 3.
                Scheme::MultiLambda { .. } => 2 * (self.sources.len() as u64 + 2) * (n + 2) + 16,
                // The token walk takes exactly 2(n − 1) rounds, the bundle
                // broadcast ≤ 2n − 3 (Theorem 2.9): linear with slack.
                Scheme::Gossip => 6 * (n + 2) + 16,
            },
        };
        match self.stop {
            StopPolicy::Auto => match self.scheme {
                Scheme::Lambda
                | Scheme::LambdaAck
                | Scheme::OneBitCycle
                | Scheme::OneBitGrid { .. }
                | Scheme::MultiLambda { .. }
                | Scheme::Gossip => StopCondition::QuietFor { quiet: 3, cap },
                Scheme::LambdaArb | Scheme::UniqueIds | Scheme::SquareColoring => {
                    StopCondition::AfterRounds(cap)
                }
            },
            StopPolicy::RunToCap => StopCondition::AfterRounds(cap),
            StopPolicy::QuietFor(quiet) => StopCondition::QuietFor { quiet, cap },
        }
    }

    fn execute(
        &self,
        prepared: &Prepared,
        source: NodeId,
        message: SourceMessage,
        want_shape: bool,
        metrics: Option<&mut RunMetrics>,
    ) -> (RunReport, Option<TraceShape>) {
        let stop = self.stop_condition();
        let record = self.trace == TracePolicy::Recorded || want_shape;
        let labeling = prepared.labeling();
        let instrument = metrics.is_some();
        let round_timer = instrument.then(|| SpanTimer::start("round_loop"));
        // Every match arm below assigns `counters` exactly once (deferred
        // initialization — no `mut` needed).
        let counters: Option<RunCounters>;
        let mut shape = None;
        let mut report = RunReport {
            scheme: labeling.scheme(),
            node_count: self.graph.node_count(),
            source,
            sources: vec![source],
            coordinator: (matches!(self.scheme, Scheme::LambdaArb)
                || self.scheme.is_multi_message())
            .then_some(self.coordinator),
            message,
            label_length: labeling.length(),
            distinct_labels: labeling.distinct_count(),
            informed_rounds: Vec::new(),
            completion_round: None,
            message_completion_rounds: None,
            ack_round: None,
            common_knowledge_round: None,
            rounds_executed: 0,
            stats: ExecutionStats::default(),
            delivery_rate: 0.0,
            stalled_at: None,
            faults_injected: 0,
        };

        match &prepared.kind {
            PreparedKind::AlgoB { labeling, template } => {
                let nodes = clone_or_rebuild(template, source, message, prepared.spec, || {
                    BNode::network(labeling, source, message)
                });
                let mut run = Execution::new(self, nodes, record)
                    .instrumented(instrument)
                    .run(stop, BNode::is_informed, &mut ());
                counters = run.counters;
                run.fill(&mut report, record, |m| matches!(m, BMessage::Data(_)));
                report.completion_round = verify::completion_round(&report.informed_rounds);
                if want_shape {
                    shape = Some(run.sim.trace().shape());
                }
            }
            PreparedKind::AlgoBack { labeling, template } => {
                let nodes = clone_or_rebuild(template, source, message, prepared.spec, || {
                    BackNode::network(labeling, source, message)
                });
                let mut ack = AckObserver {
                    source,
                    ack_round: None,
                };
                let mut run = Execution::new(self, nodes, record)
                    .instrumented(instrument)
                    .run(stop, BackNode::is_informed, &mut ack);
                counters = run.counters;
                run.fill(&mut report, record, |m| {
                    matches!(m.payload, TaggedPayload::Data(_))
                });
                report.completion_round = verify::completion_round(&report.informed_rounds);
                report.ack_round = ack.ack_round;
                if want_shape {
                    shape = Some(run.sim.trace().shape());
                }
            }
            PreparedKind::AlgoBarb { labeling, template } => {
                let nodes = clone_or_rebuild(template, source, message, prepared.spec, || {
                    ArbNode::network(labeling, source, message)
                });
                let mut arb = ArbObserver::new(nodes.len(), message);
                let mut run = Execution::new(self, nodes, record)
                    .instrumented(instrument)
                    .run(
                        stop,
                        |node: &ArbNode| node.learned_message().is_some(),
                        &mut arb,
                    );
                counters = run.counters;
                // B_arb relays µ inside several message kinds, so informed
                // rounds come from node state rather than a payload pattern.
                run.fill_from_nodes(&mut report);
                report.completion_round = arb.completion;
                report.common_knowledge_round = arb.common_knowledge;
                if want_shape {
                    shape = Some(run.sim.trace().shape());
                }
            }
            PreparedKind::Slotted { labeling, template } => {
                let nodes = clone_or_rebuild(template, source, message, prepared.spec, || {
                    SlottedNode::network(labeling, source, message)
                });
                let mut run = Execution::new(self, nodes, record)
                    .instrumented(instrument)
                    .run(stop, SlottedNode::is_informed, &mut AllInformed);
                counters = run.counters;
                run.fill(&mut report, record, |_| true);
                report.completion_round = verify::completion_round(&report.informed_rounds);
                if want_shape {
                    shape = Some(run.sim.trace().shape());
                }
            }
            PreparedKind::DelayRelay { labeling, template } => {
                let nodes = clone_or_rebuild(template, source, message, prepared.spec, || {
                    DelayRelayNode::network(labeling, source, message)
                });
                let mut run = Execution::new(self, nodes, record)
                    .instrumented(instrument)
                    .run(stop, DelayRelayNode::is_informed, &mut ());
                counters = run.counters;
                run.fill(&mut report, record, |m| matches!(m, BMessage::Data(_)));
                report.completion_round = verify::completion_round(&report.informed_rounds);
                if want_shape {
                    shape = Some(run.sim.trace().shape());
                }
            }
            // The multi-message arms ignore the per-run source (their
            // source sets are fixed at build time), so the cached template
            // is reusable whenever the *message* matches — hence
            // `prepared.spec.source` in place of the run's source below.
            PreparedKind::Multi {
                scheme: mscheme,
                template,
            } => {
                let nodes = clone_or_rebuild(
                    template,
                    prepared.spec.source,
                    message,
                    prepared.spec,
                    || MultiNode::network(mscheme, &multi_payloads(message, mscheme.k())),
                );
                (shape, counters) = self.run_bundle_protocol(
                    &mut report,
                    stop,
                    record,
                    want_shape,
                    instrument,
                    nodes,
                    mscheme.sources().to_vec(),
                    MultiNode::has_message,
                    MultiNode::held_count,
                );
            }
            PreparedKind::Gossip {
                scheme: gscheme,
                template,
            } => {
                let nodes = clone_or_rebuild(
                    template,
                    prepared.spec.source,
                    message,
                    prepared.spec,
                    || GossipNode::network(gscheme, &multi_payloads(message, gscheme.k())),
                );
                (shape, counters) = self.run_bundle_protocol(
                    &mut report,
                    stop,
                    record,
                    want_shape,
                    instrument,
                    nodes,
                    self.sources.clone(),
                    GossipNode::has_message,
                    GossipNode::held_count,
                );
            }
        }
        self.fill_robustness(&mut report);
        if let Some(m) = metrics {
            if let Some(timer) = round_timer {
                m.spans.push(timer.stop());
            }
            // The "verify" phase: cross-check the deterministic counters
            // against the trace-derived statistics when both exist. The
            // check never alters the report — it only certifies that the
            // per-round counters and the trace walk agree field for field.
            let verify_timer = SpanTimer::start("verify");
            m.counters = counters;
            m.counters_match_trace = match counters {
                Some(c) if record => Some(ExecutionStats::from_counters(&c) == report.stats),
                _ => None,
            };
            m.spans.push(verify_timer.stop());
        }
        (report, shape)
    }

    /// Fills the robustness columns from the informed rounds and the fault
    /// plan. Cheap and scheme-agnostic, so it runs for every report; with
    /// the default empty plan it reduces to `informed / n`, the last
    /// informed round, and zero faults.
    fn fill_robustness(&self, report: &mut RunReport) {
        let mut eligible = 0usize;
        let mut delivered = 0usize;
        for (v, informed) in report.informed_rounds.iter().enumerate() {
            let crashed = self
                .faults
                .crash_round(v)
                .is_some_and(|r| r <= report.rounds_executed);
            if !crashed {
                eligible += 1;
                if informed.is_some() {
                    delivered += 1;
                }
            }
        }
        // Every node crashed: delivery is vacuously complete.
        report.delivery_rate = if eligible == 0 {
            1.0
        } else {
            delivered as f64 / eligible as f64
        };
        report.stalled_at = report.informed_rounds.iter().flatten().copied().max();
        report.faults_injected = self.faults.injected_by(report.rounds_executed);
    }

    /// Runs a multi-message (collection + bundle broadcast) execution and
    /// fills the report: the shared tail of the `multi_lambda` and gossip
    /// arms, whose node types differ only in the collection plan they were
    /// built from. `has_message(node, j)` and `held(node)` (an O(1) count
    /// of the messages held) expose the per-node payload state of the
    /// concrete protocol.
    #[allow(clippy::too_many_arguments)]
    fn run_bundle_protocol<N: RadioNode>(
        &self,
        report: &mut RunReport,
        stop: StopCondition,
        record: bool,
        want_shape: bool,
        instrument: bool,
        nodes: Vec<N>,
        sources: Vec<NodeId>,
        has_message: fn(&N, usize) -> bool,
        held: fn(&N) -> usize,
    ) -> (Option<TraceShape>, Option<RunCounters>) {
        let k = sources.len();
        report.source = sources[0];
        report.sources = sources.clone();
        let mut bundle = BundleObserver::new(nodes.len(), k, has_message, held);
        let mut run = Execution::new(self, nodes, record)
            .instrumented(instrument)
            .run(stop, |node: &N| held(node) == k, &mut bundle);
        // "Informed" for a multi-message run means holding all k messages,
        // which no payload pattern in the trace captures (relays, tokens,
        // bundles and overhearing all contribute), so the rounds come from
        // node state like B_arb's.
        run.fill_from_nodes(report);
        report.completion_round = verify::completion_round(&report.informed_rounds);
        report.message_completion_rounds =
            Some(sources.into_iter().zip(bundle.message_completion).collect());
        (want_shape.then(|| run.sim.trace().shape()), run.counters)
    }
}

/// The cached output of scheme construction: the labeling plus a template of
/// per-node protocol state machines, and the spec the template was built for.
struct Prepared {
    /// The (source, message) pair the node template encodes.
    spec: RunSpec,
    kind: PreparedKind,
}

/// The scheme-specific half of a [`Prepared`].
enum PreparedKind {
    /// λ with Algorithm B.
    AlgoB {
        labeling: Labeling,
        template: Vec<BNode>,
    },
    /// λ_ack with Algorithm B_ack.
    AlgoBack {
        labeling: Labeling,
        template: Vec<BackNode>,
    },
    /// λ_arb with Algorithm B_arb.
    AlgoBarb {
        labeling: Labeling,
        template: Vec<ArbNode>,
    },
    /// A baseline labeling with the slotted round-robin algorithm.
    Slotted {
        labeling: Labeling,
        template: Vec<SlottedNode>,
    },
    /// A 1-bit labeling with the delay-relay algorithm.
    DelayRelay {
        labeling: Labeling,
        template: Vec<DelayRelayNode>,
    },
    /// The `multi_lambda` scheme with the k-source multi-broadcast
    /// algorithm; the scheme owns the labeling and the collection schedule.
    Multi {
        scheme: MultiLambdaScheme,
        template: Vec<MultiNode>,
    },
    /// The gossip scheme with the all-to-all token-walk algorithm; the
    /// scheme owns the labeling and the DFS token plan.
    Gossip {
        scheme: GossipScheme,
        template: Vec<GossipNode>,
    },
}

impl Prepared {
    fn labeling(&self) -> &Labeling {
        match &self.kind {
            PreparedKind::AlgoB { labeling, .. }
            | PreparedKind::AlgoBack { labeling, .. }
            | PreparedKind::AlgoBarb { labeling, .. }
            | PreparedKind::Slotted { labeling, .. }
            | PreparedKind::DelayRelay { labeling, .. } => labeling,
            PreparedKind::Multi { scheme, .. } => scheme.labeling(),
            PreparedKind::Gossip { scheme, .. } => scheme.labeling(),
        }
    }
}

/// The per-source payloads of a multi-broadcast run: source `j` (in sorted
/// source order) broadcasts `µ + j`, so every message is distinct and the
/// whole run is still parameterized by the single run-spec message µ.
fn multi_payloads(message: SourceMessage, k: usize) -> Vec<SourceMessage> {
    (0..k as u64).map(|j| message.wrapping_add(j)).collect()
}

/// Times `f` under `name`, appending the span to `spans` — the phase-span
/// bookkeeping of [`prepare`] (and, through it, of the session's
/// [`RunMetrics`] output).
fn timed<T>(spans: &mut Vec<SpanRecord>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let timer = SpanTimer::start(name);
    let out = f();
    spans.push(timer.stop());
    out
}

fn prepare(
    scheme: Scheme,
    graph: &Graph,
    source: NodeId,
    sources: &[NodeId],
    coordinator: NodeId,
    message: SourceMessage,
    spans: &mut Vec<SpanRecord>,
) -> Result<Prepared, LabelingError> {
    const CONSTRUCT: &str = "labeling_construction";
    const TEMPLATE: &str = "template_build";
    let kind = match scheme {
        Scheme::Lambda => {
            let labeling =
                timed(spans, CONSTRUCT, || lambda::construct(graph, source))?.into_labeling();
            let template = timed(spans, TEMPLATE, || {
                BNode::network(&labeling, source, message)
            });
            PreparedKind::AlgoB { labeling, template }
        }
        Scheme::LambdaAck => {
            let labeling =
                timed(spans, CONSTRUCT, || lambda_ack::construct(graph, source))?.into_labeling();
            let template = timed(spans, TEMPLATE, || {
                BackNode::network(&labeling, source, message)
            });
            PreparedKind::AlgoBack { labeling, template }
        }
        Scheme::LambdaArb => {
            let labeling = timed(spans, CONSTRUCT, || {
                lambda_arb::construct_with_coordinator(
                    graph,
                    coordinator,
                    rn_graph::algorithms::ReductionOrder::Forward,
                )
            })?
            .into_labeling();
            let template = timed(spans, TEMPLATE, || {
                ArbNode::network(&labeling, source, message)
            });
            PreparedKind::AlgoBarb { labeling, template }
        }
        Scheme::OneBitCycle => {
            let labeling = timed(spans, CONSTRUCT, || onebit::cycle_onebit(graph, source))?;
            let template = timed(spans, TEMPLATE, || {
                DelayRelayNode::network(&labeling, source, message)
            });
            PreparedKind::DelayRelay { labeling, template }
        }
        Scheme::OneBitGrid { rows, cols } => {
            let labeling = timed(spans, CONSTRUCT, || {
                onebit::grid_onebit(graph, rows, cols, source)
            })?;
            let template = timed(spans, TEMPLATE, || {
                DelayRelayNode::network(&labeling, source, message)
            });
            PreparedKind::DelayRelay { labeling, template }
        }
        Scheme::UniqueIds => {
            let labeling = timed(spans, CONSTRUCT, || baselines::unique_ids(graph))?;
            let template = timed(spans, TEMPLATE, || {
                SlottedNode::network(&labeling, source, message)
            });
            PreparedKind::Slotted { labeling, template }
        }
        Scheme::SquareColoring => {
            let (labeling, _) = timed(spans, CONSTRUCT, || baselines::square_coloring(graph))?;
            let template = timed(spans, TEMPLATE, || {
                SlottedNode::network(&labeling, source, message)
            });
            PreparedKind::Slotted { labeling, template }
        }
        Scheme::MultiLambda { .. } => {
            let mscheme = timed(spans, CONSTRUCT, || {
                multi::construct_with_coordinator(graph, sources, coordinator)
            })?;
            let template = timed(spans, TEMPLATE, || {
                MultiNode::network(&mscheme, &multi_payloads(message, mscheme.k()))
            });
            PreparedKind::Multi {
                scheme: mscheme,
                template,
            }
        }
        Scheme::Gossip => {
            let gscheme = timed(spans, CONSTRUCT, || {
                gossip::construct_with_coordinator(graph, coordinator)
            })?;
            let template = timed(spans, TEMPLATE, || {
                GossipNode::network(&gscheme, &multi_payloads(message, gscheme.k()))
            });
            PreparedKind::Gossip {
                scheme: gscheme,
                template,
            }
        }
    };
    Ok(Prepared {
        spec: RunSpec::new(source, message),
        kind,
    })
}

/// Clones a prepared node template when the run's spec matches the spec the
/// template was built for, otherwise rebuilds the (cheap, O(n)) node vector
/// from the cached labeling.
fn clone_or_rebuild<N: Clone>(
    template: &[N],
    source: NodeId,
    message: SourceMessage,
    template_spec: RunSpec,
    rebuild: impl FnOnce() -> Vec<N>,
) -> Vec<N> {
    if template_spec == RunSpec::new(source, message) {
        template.to_vec()
    } else {
        rebuild()
    }
}

/// One simulation in flight: wires the online informed-round tracking and the
/// scheme's [`Observer`] into `Simulator::run_until`.
struct Execution<'g, N: RadioNode> {
    session: &'g Session,
    nodes: Vec<N>,
    record: bool,
    /// Whether to install a [`CounterSink`] on the simulator. Off (the
    /// default) for every plain run, so the engines' hot paths never pay
    /// for metric assembly; [`Session::run_instrumented`] turns it on.
    instrument: bool,
}

/// A finished simulation, ready to fill a [`RunReport`].
struct Finished<N: RadioNode> {
    sim: Simulator<N>,
    online_informed: Vec<Option<u64>>,
    rounds_executed: u64,
    /// The aggregated deterministic counters, when the execution was
    /// instrumented with a [`CounterSink`].
    counters: Option<RunCounters>,
}

/// A scheme's completion bookkeeping, fed only by the nodes that decoded a
/// message each round ([`Simulator::receivers`]). Every protocol of this
/// crate changes its informed / holds-message / heard-the-ack predicates
/// only in `receive(Some(_))`, so the receivers are the complete set of
/// nodes whose progress can move (λ_arb's step-driven exceptions are
/// handled by [`ArbObserver`]). Keeps the session round loop O(receivers)
/// instead of O(n) (or O(n·k)) per round.
trait Observer<N> {
    /// Whether receiver `v` can still change this observer's state, judged
    /// from the observer's own bookkeeping without examining the node.
    fn wants(&self, _v: NodeId) -> bool {
        false
    }

    /// Examines node `v` after `round`: every node once at round 0, then
    /// each round's receivers that the informed tracking or
    /// [`wants`](Self::wants) still cares about.
    fn examine(&mut self, _v: NodeId, _node: &N, _round: u64) {}

    /// Closes `round` once its receivers are examined; `informed` is the
    /// number of informed nodes. Nodes examined here are added to
    /// `visits`. Returning `true` stops the run.
    fn end_round(
        &mut self,
        _nodes: &[N],
        _round: u64,
        _informed: usize,
        _visits: &mut u64,
    ) -> bool {
        false
    }
}

/// Informed tracking only (λ, the 1-bit schemes).
impl<N> Observer<N> for () {}

/// Stops once every node is informed (the slotted baselines).
struct AllInformed;

impl<N> Observer<N> for AllInformed {
    fn end_round(&mut self, nodes: &[N], _round: u64, informed: usize, _visits: &mut u64) -> bool {
        informed == nodes.len()
    }
}

/// λ_ack: the round in which the source first heard an acknowledgement.
struct AckObserver {
    source: NodeId,
    ack_round: Option<u64>,
}

impl Observer<BackNode> for AckObserver {
    fn wants(&self, v: NodeId) -> bool {
        v == self.source && self.ack_round.is_none()
    }

    fn examine(&mut self, v: NodeId, node: &BackNode, round: u64) {
        if self.wants(v) && node.source_received_ack() {
            self.ack_round = Some(round);
        }
    }
}

/// λ_arb: the round by which every node learned µ, and the round by which
/// every node knew it ([`ArbNode::knows_completion`]).
///
/// Knowing completion is the end of a countdown, which ticks in `step`
/// without any reception; but the countdown's length is fixed by the time
/// it can first be predicted ([`ArbNode::steps_until_knows_completion`]),
/// and that happens on a reception. Each prediction is checked when it
/// falls due, one visit per node when the node steps every round; under a
/// fault plan an inert node's countdown stalls, and a late node is checked
/// again when its remaining countdown could end.
struct ArbObserver {
    message: SourceMessage,
    /// Nodes whose learned message is µ.
    learned: BitSet,
    learned_count: usize,
    /// The coordinator between hearing a phase's terminating ack and its
    /// next `step`, which may replace its learned message without a
    /// reception; with the round it was registered in.
    advancing: Option<(NodeId, u64)>,
    /// Nodes whose round of knowing completion is predicted.
    predicted: BitSet,
    /// The predictions still to check, as a min-heap of `(round, node)`.
    checks: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// How many nodes were seen knowing.
    knowing: usize,
    completion: Option<u64>,
    common_knowledge: Option<u64>,
}

impl ArbObserver {
    fn new(n: usize, message: SourceMessage) -> Self {
        ArbObserver {
            message,
            learned: BitSet::new(n),
            learned_count: 0,
            advancing: None,
            predicted: BitSet::new(n),
            checks: BinaryHeap::new(),
            knowing: 0,
            completion: None,
            common_knowledge: None,
        }
    }

    fn note_learned(&mut self, v: NodeId, node: &ArbNode) {
        if !self.learned.get(v) && node.learned_message() == Some(self.message) {
            self.learned.set(v);
            self.learned_count += 1;
        }
    }
}

impl Observer<ArbNode> for ArbObserver {
    fn wants(&self, v: NodeId) -> bool {
        !self.learned.get(v) || !self.predicted.get(v)
    }

    fn examine(&mut self, v: NodeId, node: &ArbNode, round: u64) {
        self.note_learned(v, node);
        if !self.predicted.get(v) {
            if let Some(steps) = node.steps_until_knows_completion() {
                self.predicted.set(v);
                self.checks.push(Reverse((round + steps, v)));
            }
        }
        if node.phase_advance_pending() {
            self.advancing = Some((v, round));
        }
    }

    fn end_round(
        &mut self,
        nodes: &[ArbNode],
        round: u64,
        _informed: usize,
        visits: &mut u64,
    ) -> bool {
        let n = nodes.len();
        if let Some((c, since)) = self.advancing {
            if since < round {
                *visits += 1;
                self.note_learned(c, &nodes[c]);
                if !nodes[c].phase_advance_pending() {
                    self.advancing = None;
                }
            }
        }
        if self.completion.is_none() && self.learned_count == n {
            self.completion = Some(round);
        }
        while let Some(&Reverse((at, v))) = self.checks.peek() {
            if at > round {
                break;
            }
            self.checks.pop();
            *visits += 1;
            match nodes[v].steps_until_knows_completion() {
                Some(0) => self.knowing += 1,
                // Late (a fault kept it from stepping): check again when its
                // remaining countdown could end.
                Some(steps) => self.checks.push(Reverse((round + steps, v))),
                None => unreachable!("a started countdown stays predictable"),
            }
        }
        if self.common_knowledge.is_none() && self.knowing == n {
            self.common_knowledge = Some(round);
        }
        self.completion.is_some() && self.common_knowledge.is_some()
    }
}

/// `multi_lambda` and gossip: the round by which every node held each
/// message, from per-message holder counts.
struct BundleObserver<N> {
    k: usize,
    has_message: fn(&N, usize) -> bool,
    held: fn(&N) -> usize,
    /// Bit `v·k + j`: node `v` is counted as a holder of message `j`.
    seen: BitSet,
    /// Messages counted per node (equal to `held` once caught up).
    seen_count: Vec<u32>,
    holders: Vec<u32>,
    /// Messages some node still lacks.
    incomplete: usize,
    message_completion: Vec<Option<u64>>,
}

impl<N> BundleObserver<N> {
    fn new(n: usize, k: usize, has_message: fn(&N, usize) -> bool, held: fn(&N) -> usize) -> Self {
        BundleObserver {
            k,
            has_message,
            held,
            seen: BitSet::new(n * k),
            seen_count: vec![0; n],
            holders: vec![0; k],
            incomplete: k,
            message_completion: vec![None; k],
        }
    }
}

impl<N> Observer<N> for BundleObserver<N> {
    fn wants(&self, v: NodeId) -> bool {
        (self.seen_count[v] as usize) < self.k
    }

    fn examine(&mut self, v: NodeId, node: &N, round: u64) {
        let held = (self.held)(node);
        let n = self.seen_count.len() as u32;
        // Scan for the new messages only when the O(1) count moved, and
        // stop as soon as all of them are found.
        let mut j = 0;
        while (self.seen_count[v] as usize) < held && j < self.k {
            let bit = v * self.k + j;
            if !self.seen.get(bit) && (self.has_message)(node, j) {
                self.seen.set(bit);
                self.seen_count[v] += 1;
                self.holders[j] += 1;
                if self.holders[j] == n {
                    // Round 0 covers a message every node starts with.
                    self.message_completion[j] = Some(round);
                    self.incomplete -= 1;
                }
            }
            j += 1;
        }
    }

    fn end_round(
        &mut self,
        _nodes: &[N],
        _round: u64,
        _informed: usize,
        _visits: &mut u64,
    ) -> bool {
        self.incomplete == 0
    }
}

/// A fixed-size bitset: the observers' per-node (and, for the bundle
/// schemes, per node × message) flags at one bit each.
struct BitSet(Vec<u64>);

impl BitSet {
    fn new(bits: usize) -> Self {
        BitSet(vec![0; bits.div_ceil(64)])
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
}

impl<'g, N: RadioNode> Execution<'g, N> {
    fn new(session: &'g Session, nodes: Vec<N>, record: bool) -> Self {
        Execution {
            session,
            nodes,
            record,
            instrument: false,
        }
    }

    /// Installs (or skips) the metrics sink for this execution.
    fn instrumented(mut self, instrument: bool) -> Self {
        self.instrument = instrument;
        self
    }

    /// Runs to the stop condition. Every node is examined once up front
    /// (the source(s) holding their message(s) get informed round 0, as
    /// the trace-based accounting credits the source); after each round
    /// only that round's receivers are, by `informed` (to record newly
    /// informed nodes) and by `observer`, whose
    /// [`end_round`](Observer::end_round) can stop the run early. The
    /// number of nodes examined lands in the counters' `observer_visits`.
    ///
    /// The simulator's per-round scratch is borrowed from the session's pool
    /// before the run and returned afterwards, so repeated and batched runs
    /// reuse the same working arrays instead of reallocating them per run.
    fn run(
        self,
        stop: StopCondition,
        informed: impl Fn(&N) -> bool,
        observer: &mut impl Observer<N>,
    ) -> Finished<N> {
        let pooled = self
            .session
            .scratch_pool
            .lock()
            .expect("scratch pool not poisoned")
            .pop();
        let scratch_reused = pooled.is_some();
        let scratch = pooled.unwrap_or_default();
        let mut online: Vec<Option<u64>> = vec![None; self.nodes.len()];
        let mut informed_count = 0usize;
        let mut visits = 0u64;
        for (v, node) in self.nodes.iter().enumerate() {
            visits += 1;
            if informed(node) {
                online[v] = Some(0);
                informed_count += 1;
            }
            observer.examine(v, node, 0);
        }
        let mut sim = Simulator::new(Arc::clone(&self.session.graph), self.nodes)
            .with_engine(self.session.engine)
            .with_scratch(scratch)
            .with_faults(&self.session.faults);
        if !self.record {
            sim = sim.without_trace();
        }
        if self.instrument {
            let mut sink = CounterSink::new();
            sink.on_scratch(scratch_reused);
            sim = sim.with_metrics(Box::new(sink));
        }
        let outcome = sim.run_until(stop, |s| {
            let round = s.current_round();
            let nodes = s.nodes();
            for &v in s.receivers() {
                let fresh = online[v].is_none();
                if !fresh && !observer.wants(v) {
                    continue;
                }
                visits += 1;
                let node = &nodes[v];
                if fresh && informed(node) {
                    online[v] = Some(round);
                    informed_count += 1;
                }
                observer.examine(v, node, round);
            }
            observer.end_round(nodes, round, informed_count, &mut visits)
        });
        self.session
            .scratch_pool
            .lock()
            .expect("scratch pool not poisoned")
            .push(sim.take_scratch());
        let counters = sim.metrics_counters().map(|c| RunCounters {
            observer_visits: visits,
            ..c
        });
        Finished {
            sim,
            online_informed: online,
            rounds_executed: outcome.rounds_executed,
            counters,
        }
    }
}

impl<N: RadioNode> Finished<N> {
    /// Fills the trace-derived report fields. With a recorded trace the
    /// informed rounds come from the trace through the scheme's payload
    /// predicate; without one they come from the online node state, and the
    /// statistics carry only the round count.
    fn fill(&mut self, report: &mut RunReport, record: bool, is_payload: impl Fn(&N::Msg) -> bool) {
        if record {
            report.informed_rounds = verify::first_payload_rounds(
                self.sim.trace(),
                report.node_count,
                report.source,
                is_payload,
            );
            report.stats = ExecutionStats::from_trace(self.sim.trace());
        } else {
            report.informed_rounds = std::mem::take(&mut self.online_informed);
            report.stats = self.traceless_stats();
        }
        report.rounds_executed = self.rounds_executed;
    }

    /// Like [`fill`](Self::fill), but always takes informed rounds from node
    /// state (for protocols whose payloads are not a simple message pattern).
    fn fill_from_nodes(&mut self, report: &mut RunReport) {
        report.informed_rounds = std::mem::take(&mut self.online_informed);
        if self.sim.trace().is_empty() {
            report.stats = self.traceless_stats();
        } else {
            report.stats = ExecutionStats::from_trace(self.sim.trace());
        }
        report.rounds_executed = self.rounds_executed;
    }

    /// Statistics for a run executed without a trace: the bare round count,
    /// instrumented or not, so a metrics sink never changes a report (its
    /// counters reach the caller through `RunMetrics` instead).
    fn traceless_stats(&self) -> ExecutionStats {
        ExecutionStats {
            rounds: self.rounds_executed,
            ..ExecutionStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;

    #[test]
    fn instrumented_runs_report_identically_and_counters_match_trace() {
        let g = Arc::new(generators::gnp_connected(20, 0.2, 5).unwrap());
        for scheme in Scheme::GENERAL {
            let session = Session::builder(scheme, Arc::clone(&g)).build().unwrap();
            let plain = session.run();
            let (report, metrics) = session.run_instrumented();
            assert_eq!(report, plain, "{}", scheme.name());
            let counters = metrics.counters.expect("sink installed");
            assert_eq!(
                ExecutionStats::from_counters(&counters),
                report.stats,
                "{}",
                scheme.name()
            );
            assert_eq!(
                metrics.counters_match_trace,
                Some(true),
                "{}",
                scheme.name()
            );
            for phase in [
                "plan_build",
                "labeling_construction",
                "template_build",
                "round_loop",
                "verify",
            ] {
                assert!(
                    metrics.span_nanos(phase).is_some(),
                    "{}: missing {phase} span",
                    scheme.name()
                );
            }
            assert!(metrics.peak_rss_kb > 0);
        }
    }

    #[test]
    fn traceless_instrumented_runs_report_plainly_and_count_fully() {
        let g = Arc::new(generators::grid(4, 5));
        for engine in [
            Engine::ListenerCentric,
            Engine::TransmitterCentric,
            Engine::EventDriven,
        ] {
            // Run-to-cap leaves a long quiet tail after completion, which
            // the event engine elides with tracing off — so the counter
            // comparison below also pins elided-span accounting against the
            // trace walk of the recorded run.
            let build = |trace: TracePolicy| {
                Session::builder(Scheme::Lambda, Arc::clone(&g))
                    .engine(engine)
                    .trace(trace)
                    .stop(StopPolicy::RunToCap)
                    .build()
                    .unwrap()
            };
            let traced = build(TracePolicy::Recorded).run();
            let session = build(TracePolicy::Disabled);
            let plain = session.run();
            let (instrumented, metrics) = session.run_instrumented();
            // The sink never changes the report, stats included...
            assert_eq!(instrumented, plain, "{engine:?}");
            // ...while its counters carry the full statistics a trace walk
            // derives.
            let counters = metrics.counters.expect("sink installed");
            assert_eq!(
                ExecutionStats::from_counters(&counters),
                traced.stats,
                "{engine:?}"
            );
            // No trace, no cross-check.
            assert_eq!(metrics.counters_match_trace, None, "{engine:?}");
            if engine == Engine::EventDriven {
                assert!(
                    counters.elided_rounds > 0,
                    "event engine should elide the quiet tail with tracing off"
                );
            }
        }
    }

    #[test]
    fn run_with_instrumented_mirrors_run_with_on_both_paths() {
        let g = Arc::new(generators::gnp_connected(20, 0.2, 5).unwrap());
        // Cached path (session's own source) and relabel path (λ is
        // source-dependent, so a different source rebuilds the labeling).
        let session = Session::builder(Scheme::Lambda, Arc::clone(&g))
            .build()
            .unwrap();
        for source in [0usize, 3] {
            let spec = RunSpec::new(source, 7);
            let plain = session.run_with(spec).unwrap();
            let (report, metrics) = session.run_with_instrumented(spec).unwrap();
            assert_eq!(report, plain, "source {source}");
            let counters = metrics.counters.expect("sink installed");
            assert_eq!(
                ExecutionStats::from_counters(&counters),
                report.stats,
                "source {source}"
            );
            for phase in [
                "labeling_construction",
                "template_build",
                "round_loop",
                "verify",
            ] {
                assert!(
                    metrics.span_nanos(phase).is_some(),
                    "source {source}: missing {phase} span"
                );
            }
        }
        assert!(session.run_with_instrumented(RunSpec::new(99, 7)).is_err());
    }

    #[test]
    fn run_report_display_summarizes_the_run() {
        let g = generators::grid(4, 5);
        let session = Session::builder(Scheme::Lambda, g).build().unwrap();
        let r = session.run();
        let text = r.to_string();
        assert!(text.contains("lambda"), "{text}");
        assert!(text.contains("20 nodes"), "{text}");
        assert!(
            text.contains(&format!("the paper's {}-round bound", 2 * 20 - 3)),
            "{text}"
        );
        assert!(text.contains("Delivery rate 100.0%"), "{text}");
        assert!(text.contains("0 fault events injected"), "{text}");
    }

    #[test]
    fn fault_free_reports_carry_trivial_robustness_columns() {
        let g = generators::grid(4, 5);
        let session = Session::builder(Scheme::Lambda, g).build().unwrap();
        let r = session.run();
        assert!(r.completed());
        assert!((r.delivery_rate - 1.0).abs() < 1e-12);
        assert_eq!(r.stalled_at, r.completion_round);
        assert_eq!(r.faults_injected, 0);
    }

    #[test]
    fn none_plan_sessions_report_byte_identically() {
        let g = Arc::new(generators::gnp_connected(20, 0.2, 5).unwrap());
        for scheme in Scheme::GENERAL {
            let plain = Session::builder(scheme, Arc::clone(&g)).build().unwrap();
            let with_none = Session::builder(scheme, Arc::clone(&g))
                .faults(FaultPlan::none())
                .build()
                .unwrap();
            assert_eq!(plain.run(), with_none.run(), "{}", scheme.name());
        }
    }

    #[test]
    fn crashed_relay_starves_the_far_side_and_lowers_delivery_rate() {
        // Path 0..12 with source 0: node 5 dies immediately, so nodes 6..
        // can never be informed; 0..=4 still are. Eligible = 11 non-crashed
        // nodes, delivered = 5.
        let g = generators::path(12);
        let session = Session::builder(Scheme::Lambda, g)
            .faults(FaultPlan::none().crash(5, 1))
            .build()
            .unwrap();
        let r = session.run();
        assert!(!r.completed());
        assert_eq!(r.faults_injected, 1);
        assert!(r.informed_rounds[4].is_some());
        assert!(r.informed_rounds[6].is_none());
        assert!((r.delivery_rate - 5.0 / 11.0).abs() < 1e-12);
        assert_eq!(r.stalled_at, r.informed_rounds[4]);
    }

    #[test]
    fn repeated_faulted_runs_are_deterministic_and_engines_agree() {
        let g = Arc::new(generators::grid(3, 4));
        let plan = FaultPlan::none().crash(5, 3).jam(0, 2, 2).late_wake(11, 4);
        let build = |engine: Engine| {
            Session::builder(Scheme::Lambda, Arc::clone(&g))
                .faults(plan.clone())
                .engine(engine)
                .build()
                .unwrap()
        };
        let reference = build(Engine::ListenerCentric);
        let a = reference.run();
        assert!(a.faults_injected > 0);
        for engine in [Engine::TransmitterCentric, Engine::EventDriven] {
            let session = build(engine);
            let b = session.run();
            assert_eq!(b, session.run(), "[{engine:?}] same session, same report");
            assert_eq!(b, a, "[{engine:?}] engines must agree under faults");
        }
    }

    #[test]
    fn builder_rejects_fault_plans_targeting_missing_nodes() {
        let g = generators::path(3);
        let result = Session::builder(Scheme::Lambda, g)
            .faults(FaultPlan::none().crash(9, 1))
            .build();
        match result {
            Err(LabelingError::FaultTargetOutOfRange { node, node_count }) => {
                assert_eq!(node, 9);
                assert_eq!(node_count, 3);
            }
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("build accepted an out-of-range fault target"),
        }
    }

    #[test]
    fn lambda_session_matches_theorem_2_9() {
        let g = generators::grid(4, 5);
        let session = Session::builder(Scheme::Lambda, g)
            .source(7)
            .message(11)
            .build()
            .unwrap();
        let r = session.run();
        assert!(r.completed());
        assert_eq!(r.scheme, "lambda");
        assert_eq!(r.label_length, 2);
        assert!(r.distinct_labels <= 4);
        assert!(r.completion_round.unwrap() <= 2 * 20 - 3);
        assert_eq!(r.informed_rounds[7], Some(0));
        assert!(r.stats.transmissions > 0);
        assert_eq!(r.coordinator, None);
    }

    #[test]
    fn repeated_runs_reuse_the_cached_labeling_and_agree() {
        let g = generators::gnp_connected(24, 0.15, 3).unwrap();
        let session = Session::builder(Scheme::Lambda, g)
            .source(5)
            .message(9)
            .build()
            .unwrap();
        let labeling_before = session.labeling() as *const Labeling;
        let a = session.run();
        let b = session.run();
        assert!(std::ptr::eq(labeling_before, session.labeling()));
        assert_eq!(a.completion_round, b.completion_round);
        assert_eq!(a.informed_rounds, b.informed_rounds);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn ack_session_reports_the_ack_round() {
        let g = generators::cycle(11);
        let session = Session::builder(Scheme::LambdaAck, g)
            .source(3)
            .message(5)
            .build()
            .unwrap();
        let r = session.run();
        assert!(r.completed());
        let t = r.completion_round.unwrap();
        let ack = r.ack_round.unwrap();
        assert!(ack > t);
        assert!(ack <= t + 11 - 2);
        assert_eq!(r.label_length, 3);
    }

    #[test]
    fn arb_session_runs_every_source_against_one_labeling() {
        let g = Arc::new(generators::gnp_connected(14, 0.25, 2).unwrap());
        let session = Session::builder(Scheme::LambdaArb, Arc::clone(&g))
            .coordinator(0)
            .message(77)
            .build()
            .unwrap();
        let labeling = session.labeling() as *const Labeling;
        for source in 0..g.node_count() {
            let r = session.run_with(RunSpec::new(source, 77)).unwrap();
            assert!(r.completion_round.is_some(), "source {source}");
            assert!(r.common_knowledge_round.is_some(), "source {source}");
            assert!(r.common_knowledge_round >= r.completion_round);
            assert_eq!(r.coordinator, Some(0));
            assert_eq!(r.label_length, 3);
        }
        assert!(std::ptr::eq(labeling, session.labeling()));
    }

    #[test]
    fn run_batch_matches_sequential_runs_in_order() {
        let g = Arc::new(generators::gnp_connected(18, 0.2, 7).unwrap());
        let session = Session::builder(Scheme::LambdaArb, Arc::clone(&g))
            .build()
            .unwrap();
        let specs: Vec<RunSpec> = (0..g.node_count())
            .map(|s| RunSpec::new(s, 40 + s as u64))
            .collect();
        let sequential: Vec<RunReport> = specs
            .iter()
            .map(|&spec| session.run_with(spec).unwrap())
            .collect();
        let parallel = session.run_batch(&specs, 4).unwrap();
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.source, s.source);
            assert_eq!(p.completion_round, s.completion_round);
            assert_eq!(p.common_knowledge_round, s.common_knowledge_round);
            assert_eq!(p.stats, s.stats);
        }
    }

    #[test]
    fn disabled_trace_still_tracks_informed_rounds() {
        let g = generators::grid(4, 5);
        let with_trace = Session::builder(Scheme::Lambda, g.clone())
            .source(7)
            .build()
            .unwrap()
            .run();
        let without = Session::builder(Scheme::Lambda, g)
            .source(7)
            .trace(TracePolicy::Disabled)
            .build()
            .unwrap()
            .run();
        assert_eq!(with_trace.informed_rounds, without.informed_rounds);
        assert_eq!(with_trace.completion_round, without.completion_round);
        assert_eq!(without.stats.transmissions, 0, "no trace, no tx stats");
        assert_eq!(without.stats.rounds, without.rounds_executed);
    }

    #[test]
    fn baseline_sessions_complete_with_longer_labels() {
        let g = Arc::new(generators::grid(3, 4));
        let ids = Session::builder(Scheme::UniqueIds, Arc::clone(&g))
            .message(5)
            .build()
            .unwrap()
            .run();
        let colors = Session::builder(Scheme::SquareColoring, Arc::clone(&g))
            .message(5)
            .build()
            .unwrap()
            .run();
        let lambda = Session::builder(Scheme::Lambda, Arc::clone(&g))
            .message(5)
            .build()
            .unwrap()
            .run();
        assert!(ids.completed() && colors.completed() && lambda.completed());
        assert!(ids.label_length > lambda.label_length);
        assert!(colors.label_length >= lambda.label_length || lambda.label_length == 2);
    }

    #[test]
    fn onebit_sessions_complete_on_their_classes() {
        let c = generators::cycle(10);
        let r = Session::builder(Scheme::OneBitCycle, c)
            .source(4)
            .message(3)
            .build()
            .unwrap()
            .run();
        assert!(r.completed());
        assert_eq!(r.label_length, 1);

        let g = generators::grid(3, 5);
        let r = Session::builder(Scheme::OneBitGrid { rows: 3, cols: 5 }, g)
            .source(7)
            .message(3)
            .build()
            .unwrap()
            .run();
        assert!(r.completed());
        assert_eq!(r.label_length, 1);
    }

    #[test]
    fn build_errors_propagate() {
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        for scheme in Scheme::GENERAL {
            assert!(
                Session::builder(scheme, disconnected.clone())
                    .build()
                    .is_err(),
                "{}",
                scheme.name()
            );
        }
        let g = generators::path(4);
        assert!(Session::builder(Scheme::Lambda, g.clone())
            .source(9)
            .build()
            .is_err());
        assert!(Session::builder(Scheme::OneBitCycle, g).build().is_err());
    }

    #[test]
    fn run_with_rejects_out_of_range_sources() {
        let g = generators::path(6);
        let session = Session::builder(Scheme::Lambda, g).build().unwrap();
        assert!(matches!(
            session.run_with(RunSpec::new(99, 1)),
            Err(LabelingError::SourceOutOfRange { .. })
        ));
    }

    #[test]
    fn run_with_relabels_for_a_source_dependent_scheme() {
        let g = generators::path(12);
        let session = Session::builder(Scheme::Lambda, g)
            .source(0)
            .build()
            .unwrap();
        let from_other_end = session.run_with(RunSpec::new(11, 4)).unwrap();
        assert!(from_other_end.completed());
        assert_eq!(from_other_end.informed_rounds[11], Some(0));
        // The session's own cache is untouched.
        assert_eq!(session.run().informed_rounds[0], Some(0));
    }

    #[test]
    fn fixed_round_cap_truncates_the_run() {
        let g = generators::path(20);
        let session = Session::builder(Scheme::Lambda, g)
            .round_cap(RoundCapPolicy::Fixed(3))
            .build()
            .unwrap();
        let r = session.run();
        assert!(r.rounds_executed <= 3);
        assert!(!r.completed(), "a 20-path cannot finish in 3 rounds");
    }

    #[test]
    fn reference_engine_reports_match_the_other_engines() {
        let g = Arc::new(generators::gnp_connected(20, 0.18, 11).unwrap());
        for scheme in Scheme::GENERAL {
            let build = |engine: Engine| {
                Session::builder(scheme, Arc::clone(&g))
                    .source(3)
                    .message(8)
                    .engine(engine)
                    .build()
                    .unwrap()
            };
            let reference = build(Engine::ListenerCentric).run();
            for engine in [Engine::TransmitterCentric, Engine::EventDriven] {
                assert_eq!(
                    build(engine).run(),
                    reference,
                    "{} [{engine:?}]",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn scratch_pool_recycles_buffers_across_runs() {
        let g = generators::grid(4, 4);
        let session = Session::builder(Scheme::Lambda, g).build().unwrap();
        assert!(session.scratch_pool.lock().unwrap().is_empty());
        session.run();
        assert_eq!(
            session.scratch_pool.lock().unwrap().len(),
            1,
            "a sequential run parks exactly one scratch"
        );
        session.run();
        session.run();
        assert_eq!(session.scratch_pool.lock().unwrap().len(), 1);

        let specs: Vec<RunSpec> = (0..16).map(|s| RunSpec::new(s, 2)).collect();
        let threads = 4;
        session.run_batch(&specs, threads).unwrap();
        let pooled = session.scratch_pool.lock().unwrap().len();
        assert!(
            (1..=threads).contains(&pooled),
            "pool bounded by concurrency, got {pooled}"
        );
    }

    #[test]
    fn multi_session_delivers_every_message_to_every_node() {
        let g = Arc::new(generators::grid(4, 5));
        let session = Session::builder(Scheme::MultiLambda { k: 3 }, Arc::clone(&g))
            .sources(&[19, 0, 7])
            .message(100)
            .build()
            .unwrap();
        assert_eq!(session.sources(), &[0, 7, 19], "sorted and deduplicated");
        let r = session.run();
        assert!(r.completed());
        assert_eq!(r.scheme, "multi_lambda");
        assert_eq!(r.label_length, 2, "the λ half stays 2 bits");
        assert_eq!(r.sources, vec![0, 7, 19]);
        assert_eq!(r.source, 0);
        assert!(r.coordinator.is_some());
        let per_message = r.message_completion_rounds.as_ref().unwrap();
        assert_eq!(per_message.len(), 3);
        for &(s, round) in per_message {
            assert!(r.sources.contains(&s));
            let round = round.expect("every message fully propagates");
            assert!(round <= r.completion_round.unwrap());
        }
        assert!(per_message
            .iter()
            .any(|&(_, round)| round == r.completion_round));
        // Every node ends fully informed, in a round <= completion.
        assert!(r.informed_rounds.iter().all(Option::is_some));
    }

    #[test]
    fn multi_session_spreads_default_sources() {
        let g = generators::cycle(12);
        let session = Session::builder(Scheme::MultiLambda { k: 4 }, g)
            .build()
            .unwrap();
        assert_eq!(session.sources(), &[0, 3, 6, 9]);
        assert!(session.run().completed());
        // k beyond n clamps to one source per node.
        let small = Session::builder(Scheme::MultiLambda { k: 99 }, generators::path(5))
            .build()
            .unwrap();
        assert_eq!(small.sources(), &[0, 1, 2, 3, 4]);
        assert!(small.run().completed());
    }

    #[test]
    fn multi_session_reuses_the_cached_labeling_for_every_spec() {
        let g = Arc::new(generators::gnp_connected(20, 0.2, 4).unwrap());
        let session = Session::builder(Scheme::MultiLambda { k: 2 }, Arc::clone(&g))
            .build()
            .unwrap();
        let labeling = session.labeling() as *const Labeling;
        let a = session.run();
        let b = session.run_with(RunSpec::new(5, 1)).unwrap();
        assert!(std::ptr::eq(labeling, session.labeling()));
        // The per-run source is irrelevant to a multi run: the source set is
        // fixed at build time.
        assert_eq!(a, b);
        let c = session.run_with(RunSpec::new(0, 900)).unwrap();
        assert_eq!(a.completion_round, c.completion_round);
        assert_ne!(a.message, c.message);
    }

    #[test]
    fn multi_engines_agree() {
        let g = Arc::new(generators::gnp_connected(24, 0.15, 6).unwrap());
        for k in [2usize, 4, 8] {
            let build = |engine: Engine| {
                Session::builder(Scheme::MultiLambda { k }, Arc::clone(&g))
                    .message(50)
                    .engine(engine)
                    .build()
                    .unwrap()
            };
            let reference = build(Engine::ListenerCentric).run();
            assert!(reference.completed(), "k = {k}");
            for engine in [Engine::TransmitterCentric, Engine::EventDriven] {
                assert_eq!(build(engine).run(), reference, "k = {k} [{engine:?}]");
            }
        }
    }

    #[test]
    fn multi_single_source_matches_lambda_times_when_colocated() {
        // k = 1 with the source as its own coordinator degenerates to
        // Algorithm B: same completion round as a λ session from there.
        let g = Arc::new(generators::grid(4, 4));
        let multi = Session::builder(Scheme::MultiLambda { k: 1 }, Arc::clone(&g))
            .sources(&[5])
            .coordinator(5)
            .message(42)
            .build()
            .unwrap();
        let lambda = Session::builder(Scheme::Lambda, Arc::clone(&g))
            .source(5)
            .message(42)
            .build()
            .unwrap();
        assert_eq!(multi.run().completion_round, lambda.run().completion_round);
    }

    #[test]
    fn multi_build_errors() {
        let g = generators::path(6);
        assert!(matches!(
            Session::builder(Scheme::MultiLambda { k: 0 }, g.clone()).build(),
            Err(LabelingError::NoSources)
        ));
        assert!(matches!(
            Session::builder(Scheme::MultiLambda { k: 2 }, g.clone())
                .sources(&[0, 9])
                .build(),
            Err(LabelingError::SourceOutOfRange { source: 9, .. })
        ));
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(Session::builder(Scheme::MultiLambda { k: 2 }, disconnected)
            .build()
            .is_err());
    }

    #[test]
    fn multi_scheme_parses() {
        assert_eq!(
            Scheme::parse("multi_lambda:4").unwrap(),
            Scheme::MultiLambda { k: 4 }
        );
        assert_eq!(
            Scheme::parse("multi_lambda").unwrap(),
            Scheme::MultiLambda { k: 2 }
        );
        assert_eq!(Scheme::MultiLambda { k: 7 }.name(), "multi_lambda");
        for bad in ["multi_lambda:0", "multi_lambda:x", "multi_lambdas"] {
            assert!(Scheme::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn gossip_session_delivers_every_message_to_every_node() {
        let g = Arc::new(generators::grid(4, 5));
        let n = g.node_count();
        let session = Session::builder(Scheme::Gossip, Arc::clone(&g))
            .message(100)
            .build()
            .unwrap();
        assert_eq!(session.sources(), (0..n).collect::<Vec<_>>().as_slice());
        let r = session.run();
        assert!(r.completed());
        assert_eq!(r.scheme, "gossip");
        assert_eq!(r.label_length, 2, "the λ half stays 2 bits");
        assert_eq!(r.sources.len(), n, "every node is a source");
        assert_eq!(r.source, 0);
        assert!(r.coordinator.is_some());
        // Linear total time: 2(n-1) collection + 2n-3 broadcast.
        assert!(r.completion_round.unwrap() <= 4 * n as u64 - 5);
        let per_message = r.message_completion_rounds.as_ref().unwrap();
        assert_eq!(per_message.len(), n, "one completion round per message");
        for (j, &(s, round)) in per_message.iter().enumerate() {
            assert_eq!(s, j, "message j belongs to node j");
            let round = round.expect("every message fully propagates");
            assert!(round <= r.completion_round.unwrap());
        }
        assert!(per_message
            .iter()
            .any(|&(_, round)| round == r.completion_round));
        assert!(r.informed_rounds.iter().all(Option::is_some));
    }

    #[test]
    fn gossip_session_ignores_per_run_source_and_reuses_the_labeling() {
        let g = Arc::new(generators::gnp_connected(20, 0.2, 4).unwrap());
        let session = Session::builder(Scheme::Gossip, Arc::clone(&g))
            .build()
            .unwrap();
        let labeling = session.labeling() as *const Labeling;
        let a = session.run();
        let b = session.run_with(RunSpec::new(5, 1)).unwrap();
        assert!(std::ptr::eq(labeling, session.labeling()));
        assert_eq!(a, b, "the source set is fixed: every node");
        let c = session.run_with(RunSpec::new(0, 900)).unwrap();
        assert_eq!(a.completion_round, c.completion_round);
        assert_ne!(a.message, c.message);
    }

    #[test]
    fn gossip_engines_agree() {
        let g = Arc::new(generators::gnp_connected(24, 0.15, 6).unwrap());
        let build = |engine: Engine| {
            Session::builder(Scheme::Gossip, Arc::clone(&g))
                .message(50)
                .engine(engine)
                .build()
                .unwrap()
        };
        let reference = build(Engine::ListenerCentric).run();
        assert!(reference.completed());
        for engine in [Engine::TransmitterCentric, Engine::EventDriven] {
            assert_eq!(build(engine).run(), reference, "[{engine:?}]");
        }
    }

    #[test]
    fn gossip_single_node_is_trivially_complete() {
        let session = Session::builder(Scheme::Gossip, generators::path(1))
            .build()
            .unwrap();
        let r = session.run();
        assert!(r.completed());
        assert_eq!(r.message_completion_rounds, Some(vec![(0, Some(0))]));
    }

    #[test]
    fn gossip_build_errors() {
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(Session::builder(Scheme::Gossip, disconnected)
            .build()
            .is_err());
        let g = generators::path(6);
        assert!(matches!(
            Session::builder(Scheme::Gossip, g).coordinator(9).build(),
            Err(LabelingError::SourceOutOfRange { source: 9, .. })
        ));
    }

    #[test]
    fn gossip_scheme_parses() {
        assert_eq!(Scheme::parse("gossip").unwrap(), Scheme::Gossip);
        assert_eq!(Scheme::Gossip.name(), "gossip");
        for bad in ["gossip:2", "gossips", "gos"] {
            assert!(Scheme::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_error_lists_every_valid_scheme_name() {
        // The error must teach the caller the full menu, not only reject.
        let err = Scheme::parse("no_such_scheme").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no_such_scheme"));
        for name in Scheme::VALID_NAMES {
            assert!(msg.contains(name), "message must list {name:?}: {msg}");
        }
        for scheme in Scheme::GENERAL {
            assert!(
                msg.contains(scheme.name()),
                "message must cover {:?}",
                scheme.name()
            );
        }
        assert!(msg.contains("gossip"));
        assert!(msg.contains("onebit_cycle"));
    }

    #[test]
    fn scheme_parse_round_trips_every_name() {
        for scheme in Scheme::GENERAL {
            assert_eq!(Scheme::parse(scheme.name()).unwrap(), scheme);
        }
        assert_eq!(Scheme::parse("onebit_cycle").unwrap(), Scheme::OneBitCycle);
        assert_eq!(
            Scheme::parse("onebit_grid:4x5").unwrap(),
            Scheme::OneBitGrid { rows: 4, cols: 5 }
        );
        assert_eq!("lambda".parse::<Scheme>().unwrap(), Scheme::Lambda);
    }

    #[test]
    fn scheme_parse_rejects_unknown_and_malformed() {
        for bad in [
            "",
            "lambda2",
            "onebit_grid",
            "onebit_grid:4",
            "onebit_grid:axb",
        ] {
            let err = Scheme::parse(bad).unwrap_err();
            assert_eq!(err.input, bad);
            assert!(err.to_string().contains("unknown scheme"));
        }
    }

    #[test]
    fn scheme_names_are_distinct_and_stable() {
        let mut names: Vec<&str> = Scheme::GENERAL.iter().map(Scheme::name).collect();
        names.push(Scheme::OneBitCycle.name());
        names.push(Scheme::OneBitGrid { rows: 2, cols: 2 }.name());
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
