//! The run-boundary worker pool behind the parallel sweep engine.
//!
//! Parallelism in `nowlab` stops at the boundary of a single simulation:
//! every [`crate::sweep::SweepableApp::run`] stays single-threaded and
//! `Rc`-internal, and whole *runs* — independent `(app, axis, value)`
//! points of a sensitivity sweep — fan out across OS threads. Because a
//! run is a pure function of its [`crate::sweep::RunSpec`], executing
//! points concurrently and collecting results **by point index** yields
//! byte-identical output to the sequential driver; seeds and fault plans
//! derive from the spec, never from submission order.
//!
//! The pool is dependency-free (`std::thread::scope` plus an atomic
//! work-claiming cursor). The root `clippy.toml` disallows threads, locks
//! and atomics everywhere; this module is the one place above the run
//! boundary that uses them.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the run-boundary pool: whole runs fan out across OS threads, each simulation stays single-threaded, and results are collected by point index"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count used when the caller does not specify `--jobs`: the
/// host's available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item, using up to `jobs` worker threads, and
/// returns the results **in item order** — independent of which worker ran
/// which item and of completion order.
///
/// With `jobs <= 1` (or fewer than two items) this is a plain sequential
/// loop on the calling thread — exactly the pre-parallel code path. Worker
/// threads claim items through a shared atomic cursor (self-balancing: a
/// worker stuck on a slow simulation does not hold back the queue).
///
/// # Panics
///
/// Propagates the first panic raised by `f` (via `std::thread::scope`).
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let out = f(i, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                })
            })
            .collect();
        // Join explicitly so a worker's panic resumes with its original
        // payload (scope's implicit join replaces it with a generic one).
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without storing a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_item_order_for_any_job_count() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|v| v * v).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = parallel_map(jobs, &items, |i, v| {
                assert_eq!(i, *v);
                v * v
            });
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(8, &none, |_, v| *v).is_empty());
        assert_eq!(parallel_map(8, &[41u32], |_, v| v + 1), vec![42]);
    }

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        let _ = parallel_map(2, &items, |_, v| {
            if *v == 5 {
                panic!("boom");
            }
            *v
        });
    }
}
