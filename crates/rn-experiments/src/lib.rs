//! # rn-experiments
//!
//! The experiment and scenario harness, built on one executor: a
//! [`scenario::SweepSpec`] names topology families × sizes × seeds (plus
//! worker threads), and [`SweepSpec::map_instances`] generates every
//! instance through the `TopologyFamily` registry and measures it in
//! parallel.
//!
//! * **Scenario sweeps** — [`SweepSpec::run`] crosses the instances with
//!   schemes, sources and fault presets through the
//!   [`Session`](rn_broadcast::session::Session) API and emits
//!   machine-readable JSON/CSV reports ([`emit`]); the `sweep` binary runs
//!   the named sweeps.
//! * **Paper experiments** — each experiment in the DESIGN.md index (E1–E10,
//!   plus the ablations) has its own module under [`experiments`], taking
//!   sizes, seeds and threads from a `SweepSpec` and producing plain-text
//!   tables through [`report::Table`]; the `repro` binary runs them all.
//!
//! Everything is deterministic: instances are generated from explicit seeds
//! and parallel sweeps return results in job order, so two runs of `repro`
//! or `sweep` produce byte-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod experiments;
pub mod faults;
pub mod report;
pub mod scenario;
pub mod stats;
pub mod telemetry;

pub use faults::FaultSpec;
pub use report::Table;
pub use scenario::{Instance, SweepRecord, SweepReport, SweepSpec};
pub use telemetry::SweepTelemetry;
