//! Parallel execution of many independent simulation jobs.
//!
//! Experiment sweeps and `Session::run_batch` (in `rn-broadcast`) run many
//! independent simulations — one per graph size × family × seed, or one per
//! run spec. Each simulation is single-threaded and deterministic; the batch
//! itself is embarrassingly parallel, so the jobs fan out over a small pool
//! of scoped threads and come back in job order, so parallel and sequential
//! batches produce byte-identical reports.
//!
//! The executor and its thread policy (`RN_THREADS`) live in
//! [`rn_graph::parallel`], the bottom of the crate graph, where the per-pair
//! random generators use them too; they are re-exported here unchanged.

pub use rn_graph::parallel::{
    default_threads, default_threads_for, run_parallel, LARGE_BATCH_JOBS, MAX_DEFAULT_THREADS,
};
