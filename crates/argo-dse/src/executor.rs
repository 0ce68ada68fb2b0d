//! Parallel map over one shared job queue, with deterministic result
//! ordering.
//!
//! Built from std threads and one mutex-guarded queue — the container
//! ships no external concurrency crates. The jobs are whole compile and
//! analyze points from a fixed list, milliseconds each, so one short
//! lock per job balances them across workers as well as per-worker
//! deques with stealing would. Every worker, the calling thread
//! included, pops the next `(index, item)` and keeps its own
//! `(index, outcome)` pairs; the caller places the results by index,
//! so the output is identical for any thread count or interleaving.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of workers to use by default: the machine's parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on `threads` workers (the calling thread
/// is one of them) and returns the results **in input order**.
///
/// `f` receives `(index, item)` and must be safe to call from any worker.
///
/// # Panics
///
/// Every job runs even when some panic; the panic of the lowest-index
/// panicking job is then re-raised with its original payload.
pub fn parallel_map<I, T, F>(items: Vec<I>, threads: usize, f: &F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.max(1).min(n);
    // Utilization accounting (busy µs vs. wall µs × workers) is gated
    // so a metrics-off process pays nothing per job.
    let instrumented = argo_trace::metrics_on();
    let busy_us = AtomicU64::new(0);
    let t0 = Instant::now();
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut outcomes = Vec::new();
        loop {
            // The guard drops at the end of this statement: no job runs
            // under the lock.
            let next = queue
                .lock()
                .expect("the queue lock is never held while a job runs")
                .next();
            let Some((i, item)) = next else {
                return outcomes;
            };
            let start = instrumented.then(Instant::now);
            // A panicking job must not stop the others: its payload is
            // kept and re-raised by the caller once every job has run.
            outcomes.push((i, catch_unwind(AssertUnwindSafe(|| f(i, item)))));
            if let Some(start) = start {
                busy_us.fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
        }
    };
    let mut outcomes = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut outcomes = work();
        for helper in helpers {
            outcomes.extend(helper.join().expect("workers catch their jobs' panics"));
        }
        outcomes
    });
    if instrumented {
        let m = argo_trace::metrics();
        m.counter("argo_dse_worker_busy_us_total")
            .add(busy_us.load(Ordering::Relaxed));
        m.counter("argo_dse_worker_wall_us_total")
            .add(t0.elapsed().as_micros() as u64 * workers as u64);
    }
    outcomes.sort_unstable_by_key(|&(i, _)| i);
    outcomes
        .into_iter()
        .map(|(_, outcome)| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let square = |_i: usize, x: u64| x * x;
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                parallel_map(items.clone(), threads, &square),
                expect,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(items, 7, &|i, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            i + x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out[99], 198);
    }

    #[test]
    fn uneven_job_durations_are_stolen() {
        // First worker gets the slow jobs under round-robin dealing; the
        // result must still be ordered and complete.
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(items, 4, &|i, x| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = parallel_map(Vec::<u8>::new(), 4, &|_, x| x);
        assert!(out.is_empty());
    }

    /// Regression: with one job per worker, every worker enters the steal
    /// scan at the same time. Holding the own-deque lock across the scan
    /// (the original code shape) deadlocks here within a few hundred
    /// iterations; the fix drops the own guard before stealing.
    #[test]
    fn simultaneous_stealing_does_not_deadlock() {
        for round in 0..500 {
            let items: Vec<u64> = vec![round, round + 1];
            let out = parallel_map(items, 2, &|_, x| x * 2);
            assert_eq!(out, vec![round * 2, (round + 1) * 2]);
        }
    }

    /// Pool survival: one panicking job must not take its worker (or
    /// the pool) down — every other job still runs to completion, so a
    /// caller that isolates panics per job (the explorer) gets a full
    /// result set.
    #[test]
    fn panicking_job_does_not_stop_the_other_jobs() {
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            parallel_map((0..64).collect::<Vec<u32>>(), 4, &|i, x| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(i != 9, "job nine exploded");
                x
            })
        });
        assert!(result.is_err(), "the panic still reaches the caller");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            64,
            "all jobs ran despite the panic"
        );
    }

    #[test]
    fn job_panic_propagates_with_original_message() {
        let result = std::panic::catch_unwind(|| {
            parallel_map((0..8).collect::<Vec<u32>>(), 3, &|i, x| {
                assert!(i != 5, "job five exploded");
                x
            })
        });
        let payload = result.unwrap_err();
        let msg = argo_core::diag::panic_message(&*payload);
        assert!(msg.contains("job five exploded"), "got: {msg}");
    }
}
