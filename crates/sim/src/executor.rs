//! Deterministic parallel execution of sweep work units.
//!
//! The paper's evaluation is embarrassingly parallel: every
//! (scheduler × weighting × case) unit is a pure function of the scenario
//! and its configuration (baseline PRNG streams are keyed per *case*, not
//! per thread), so fanning units out over a worker pool and merging the
//! results in stable unit order reproduces the sequential output byte for
//! byte. This module provides the worker pool ([`run_indexed`]) and the
//! thread-count policy ([`resolve_threads`]): an explicit flag beats the
//! `DSTAGE_THREADS` environment variable, which beats the machine's
//! available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Runs one work unit under the observability tap: wall time goes to the
/// per-unit histogram and the flight recorder, the queue-wait histogram
/// gets the time between pool start and pickup. Pure overhead-free
/// pass-through when the tap is disabled.
fn observed<T>(unit: usize, queued_since: Instant, work: impl FnOnce(usize) -> T) -> T {
    if !dstage_obs::enabled() {
        return work(unit);
    }
    let wait_us = u64::try_from(queued_since.elapsed().as_micros()).unwrap_or(u64::MAX);
    let started = Instant::now();
    let result = work(unit);
    let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    dstage_obs::metrics::SIM_WORK_UNITS.inc();
    dstage_obs::metrics::SIM_WORK_UNIT_WALL_US.record(wall_us);
    dstage_obs::metrics::SIM_QUEUE_WAIT_US.record(wait_us);
    dstage_obs::recorder::record("sim", "work_unit", unit as u64, wall_us);
    result
}

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV_VAR: &str = "DSTAGE_THREADS";

/// The machine's available parallelism (1 when it cannot be queried).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resolves the worker-thread count for a sweep.
///
/// Precedence: an explicit `flag` (e.g. `--threads` on a binary), then
/// the `DSTAGE_THREADS` environment variable, then
/// [`available_threads`]. Zero or unparsable values fall through to the
/// next source.
#[must_use]
pub fn resolve_threads(flag: Option<usize>) -> usize {
    if let Some(n) = flag.filter(|&n| n > 0) {
        return n;
    }
    if let Some(n) = std::env::var(THREADS_ENV_VAR)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    available_threads()
}

/// Applies `work` to every index in `0..n_units` across `threads` workers
/// and returns the results **in index order**, regardless of which worker
/// computed which unit or in what order they finished.
///
/// `work` must be a pure function of the index for the output to be
/// deterministic; the pool only guarantees a stable merge.
///
/// # Panics
///
/// Propagates a panic from any worker (the remaining workers are joined
/// first).
#[must_use]
pub fn run_indexed<T, F>(n_units: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n_units == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n_units);
    let pool_started = Instant::now();
    if workers == 1 {
        return (0..n_units).map(|i| observed(i, pool_started, &work)).collect();
    }

    // Each worker takes the next unclaimed index and keeps its own
    // results; the scope joins every worker before a panic propagates.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_units {
                            break done;
                        }
                        done.push((i, observed(i, pool_started, &work)));
                    }
                })
            })
            .collect();
        let joined = handles.into_iter().map(std::thread::ScopedJoinHandle::join);
        joined.flat_map(|done| done.unwrap_or_else(|e| std::panic::resume_unwind(e))).collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let squares = run_indexed(100, 8, |i| i * i);
        assert_eq!(squares.len(), 100);
        for (i, sq) in squares.iter().enumerate() {
            assert_eq!(*sq, i * i);
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let work = |i: usize| format!("unit-{i}:{}", (i as u64).wrapping_mul(0x9E37_79B9));
        let sequential = run_indexed(37, 1, work);
        for threads in [2, 4, 8] {
            assert_eq!(run_indexed(37, threads, work), sequential, "{threads} threads");
        }
    }

    #[test]
    fn every_unit_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let results = run_indexed(50, 4, |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(counter.load(Ordering::SeqCst), 50);
        assert_eq!(results, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zero_units_is_fine() {
        let none: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(none.is_empty());
    }

    #[test]
    fn more_threads_than_units_is_fine() {
        assert_eq!(run_indexed(2, 64, |i| i + 1), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "unit 3 exploded")]
    fn worker_panics_propagate() {
        let _ = run_indexed(8, 4, |i| {
            assert!(i != 3, "unit 3 exploded");
            i
        });
    }

    #[test]
    fn explicit_flag_wins_thread_resolution() {
        assert_eq!(resolve_threads(Some(3)), 3);
        // Zero falls through to the environment / machine default.
        assert!(resolve_threads(Some(0)) >= 1);
        assert!(resolve_threads(None) >= 1);
    }
}
