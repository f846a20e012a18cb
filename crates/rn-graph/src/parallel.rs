//! The one parallel executor and thread policy of the workspace.
//!
//! Everything in this repository that fans independent work out over
//! threads goes through [`run_parallel`]: experiment sweeps and
//! `Session::run_batch` (re-exported from `rn_radio::batch`) run one
//! simulation per job, and the per-pair random generators sample one block
//! of their pair stream per job. Each job is deterministic and results come
//! back in job order, so parallel and sequential runs produce byte-identical
//! output. Worker counts come from [`default_threads_for`], which honours
//! the `RN_THREADS` override.
//!
//! The executor lives at the bottom of the crate graph so the generators,
//! the session API and the sweep harness share one implementation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `worker` on every job, using up to `threads` worker threads, and
/// returns the results in the same order as the input jobs.
///
/// With `threads <= 1`, or a single job, the jobs are executed inline on the
/// calling thread, which is exactly equivalent.
pub fn run_parallel<T, R, F>(jobs: Vec<T>, threads: usize, worker: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let job_count = jobs.len();
    if job_count == 0 {
        return Vec::new();
    }
    if threads.min(job_count) <= 1 {
        return jobs.into_iter().map(worker).collect();
    }

    // Wrap jobs in Options so worker threads can take ownership one at a time.
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..job_count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let thread_count = threads.min(job_count);
    std::thread::scope(|scope| {
        for _ in 0..thread_count {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= job_count {
                    break;
                }
                let job = slots[idx]
                    .lock()
                    .expect("job mutex not poisoned")
                    .take()
                    .expect("each job is taken exactly once");
                let result = worker(job);
                *results[idx].lock().expect("result mutex not poisoned") = Some(result);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result mutex not poisoned")
                .expect("every job produced a result")
        })
        .collect()
}

/// Batches at least this many jobs count as "large" for
/// [`default_threads_for`]: enough independent simulations to keep a big
/// machine busy past the small-batch cap.
pub const LARGE_BATCH_JOBS: usize = 32;

/// A sensible default worker-thread count: the `RN_THREADS` environment
/// override if set, otherwise the available parallelism capped at
/// [`MAX_DEFAULT_THREADS`]. Equivalent to [`default_threads_for`] with an
/// unbounded batch; callers that know their job count should prefer that.
///
/// Thread count never affects results — jobs return in spec order, so
/// reports are byte-identical at any thread count (see [`run_parallel`]).
pub fn default_threads() -> usize {
    default_threads_for(usize::MAX)
}

/// Hard ceiling on the default worker count. An explicit `--threads` /
/// `RN_THREADS` can exceed it.
pub const MAX_DEFAULT_THREADS: usize = 64;

/// Default worker-thread count for a batch of `jobs` independent
/// simulations.
///
/// * `RN_THREADS` (a positive integer) overrides everything — the escape
///   hatch for schedulers and benchmarking scripts.
/// * Small batches (fewer than [`LARGE_BATCH_JOBS`] jobs) cap at 8 workers:
///   per-thread labeling/scratch warm-up dominates below that.
/// * Large batches use the machine's full available parallelism (up to
///   [`MAX_DEFAULT_THREADS`]), so a 16- or 64-core host is no longer half
///   idle on big sweeps.
/// * Never more threads than jobs.
pub fn default_threads_for(jobs: usize) -> usize {
    if let Some(t) = env_thread_override() {
        return t;
    }
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let cap = if jobs >= LARGE_BATCH_JOBS {
        MAX_DEFAULT_THREADS
    } else {
        8
    };
    available.min(cap).min(jobs.max(1))
}

/// The `RN_THREADS` override, if set to a positive integer (anything else is
/// ignored rather than guessed at).
fn env_thread_override() -> Option<usize> {
    std::env::var("RN_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&t| t >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_job_list() {
        let out: Vec<u32> = run_parallel(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn sequential_mode_preserves_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let out = run_parallel(jobs.clone(), 1, |x| x * 2);
        assert_eq!(out, jobs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_mode_preserves_order() {
        let jobs: Vec<u64> = (0..500).collect();
        let out = run_parallel(jobs.clone(), 4, |x| x * x);
        assert_eq!(out, jobs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        // Results must be byte-identical at every thread count, including
        // counts past the old hard cap of 8: ordering comes from the job
        // index, never from scheduling.
        let jobs: Vec<u64> = (0..200).collect();
        let seq = run_parallel(jobs.clone(), 1, |x| x % 7);
        for threads in [2usize, 6, 8, 16, 32] {
            let par = run_parallel(jobs.clone(), threads, |x| x % 7);
            assert_eq!(seq, par, "{threads} threads");
        }
    }

    #[test]
    fn more_threads_than_jobs() {
        let out = run_parallel(vec![1u32, 2, 3], 16, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    /// One test (not several) because it mutates `RN_THREADS`, and the test
    /// harness runs tests of a crate concurrently in one process: splitting
    /// the env-free assertions out would race them against the override.
    #[test]
    fn default_thread_policy() {
        let saved = std::env::var("RN_THREADS").ok();
        std::env::remove_var("RN_THREADS");

        // Without an override: positive, capped, never more than jobs.
        assert!(default_threads() >= 1);
        assert!(default_threads() <= MAX_DEFAULT_THREADS);
        assert_eq!(default_threads(), default_threads_for(usize::MAX));
        assert_eq!(default_threads_for(1), 1);
        assert_eq!(default_threads_for(0), 1);
        assert!(default_threads_for(3) <= 3);
        // Small batches stay under the small-batch cap; large batches may
        // use the whole machine.
        assert!(default_threads_for(LARGE_BATCH_JOBS - 1) <= 8);
        let large = default_threads_for(10_000);
        assert!((1..=MAX_DEFAULT_THREADS).contains(&large));

        // RN_THREADS override wins, regardless of batch size.
        std::env::set_var("RN_THREADS", "13");
        assert_eq!(default_threads(), 13);
        assert_eq!(default_threads_for(2), 13, "explicit override is obeyed");
        // Non-positive or garbage overrides are ignored, not guessed at.
        std::env::set_var("RN_THREADS", "0");
        assert!(default_threads() >= 1);
        std::env::set_var("RN_THREADS", "lots");
        assert!(default_threads() >= 1);

        match saved {
            Some(v) => std::env::set_var("RN_THREADS", v),
            None => std::env::remove_var("RN_THREADS"),
        }
    }
}
