//! One parallel-for over a closed list of independent jobs.
//!
//! [`shard`](crate::shard) rounds, replicate batches (`fet_sim::batch`)
//! and episode sweeps (`fet-sweep`) all hand [`run_jobs`] a known list of
//! jobs that never submit further work, so one shared cursor is the whole
//! scheduler: each idle worker claims the next unclaimed job, and a slow
//! job holds back nothing but its own worker.
//!
//! Determinism contract: the dispenser decides *when* a job runs, never
//! *what* it computes. Each job carries everything that derives its
//! result (an index, a seed, a shard's storage and stream), so a caller
//! that files each result under its job's key gets output independent of
//! the worker count and of OS scheduling. This is the same "only the key
//! derives the stream" discipline the split-RNG sharding in
//! [`shard`](crate::shard) follows.

use std::sync::{mpsc, Mutex};

/// Runs `work` over `jobs` on up to `workers` scoped threads and hands
/// every result to `done` on the calling thread, in completion order.
///
/// Workers claim one job at a time, in list order, from a single shared
/// cursor. Once `done` returns `false` the cursor closes: jobs already
/// claimed finish, their results are dropped, and the call returns. Each
/// worker hands over one result at a time and waits until `done` has
/// taken it, so when `done` returns `false` on the `k`-th result, at most
/// `k + workers` jobs have been claimed.
///
/// With one worker (or zero) or at most one job, everything runs inline
/// on the calling thread, in list order.
///
/// # Panics
///
/// Propagates the panic of a panicking job (after the other workers
/// finish) or of `done`.
pub fn run_jobs<J, R>(
    jobs: Vec<J>,
    workers: usize,
    work: impl Fn(J) -> R + Sync,
    mut done: impl FnMut(R) -> bool,
) where
    J: Send,
    R: Send,
{
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        for job in jobs {
            if !done(work(job)) {
                break;
            }
        }
        return;
    }
    let cursor = Mutex::new(jobs.into_iter());
    let (tx, rx) = mpsc::sync_channel(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (cursor, work, tx) = (&cursor, &work, tx.clone());
                scope.spawn(move || loop {
                    // The guard drops at the end of this statement, so no
                    // job runs under the lock.
                    let job = cursor.lock().expect("job cursor poisoned").next();
                    let Some(job) = job else { break };
                    if tx.send(work(job)).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        for result in rx {
            if !done(result) {
                *cursor.lock().expect("job cursor poisoned") = Vec::new().into_iter();
                break;
            }
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every result of `run_jobs` over `jobs` on `workers`, sorted by job.
    fn collect(jobs: usize, workers: usize, f: impl Fn(usize) -> u64 + Sync) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        run_jobs(
            (0..jobs).collect(),
            workers,
            |i| (i, f(i)),
            |r| {
                out.push(r);
                true
            },
        );
        out.sort_unstable();
        out
    }

    #[test]
    fn every_job_runs_once_and_worker_count_never_changes_results() {
        let f = |i: usize| (i as u64 * 0x9E37) ^ 0xabc;
        for jobs in 0..=40 {
            let reference = collect(jobs, 1, f);
            assert_eq!(reference.len(), jobs);
            for workers in 1..=9 {
                let runs: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
                let out = collect(jobs, workers, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    f(i)
                });
                assert_eq!(out, reference, "jobs={jobs} workers={workers}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "jobs={jobs} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn one_worker_or_one_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (jobs, workers) in [(5, 1), (5, 0), (1, 4)] {
            let mut threads = Vec::new();
            run_jobs(
                (0..jobs).collect::<Vec<_>>(),
                workers,
                |_| std::thread::current().id(),
                |id| {
                    threads.push(id);
                    true
                },
            );
            assert_eq!(threads, vec![caller; jobs], "jobs={jobs} workers={workers}");
        }
    }

    #[test]
    fn no_job_is_claimed_once_done_declines() {
        for workers in [1, 2, 4, 9] {
            for stop_after in [1, 3, 7] {
                let claimed = AtomicUsize::new(0);
                let mut taken = 0;
                run_jobs(
                    (0..1000).collect::<Vec<u32>>(),
                    workers,
                    |job| {
                        claimed.fetch_add(1, Ordering::Relaxed);
                        job
                    },
                    |_| {
                        taken += 1;
                        taken < stop_after
                    },
                );
                assert_eq!(taken, stop_after, "done is not called after `false`");
                let claimed = claimed.load(Ordering::Relaxed);
                let bound = stop_after + if workers > 1 { workers } else { 0 };
                assert!(
                    claimed <= bound,
                    "workers={workers} stop_after={stop_after}: {claimed} jobs claimed"
                );
            }
        }
    }

    #[test]
    fn a_panicking_job_propagates_its_panic() {
        for workers in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                run_jobs(
                    (0..8).collect::<Vec<u32>>(),
                    workers,
                    |job| assert_ne!(job, 5, "job 5 fails"),
                    |()| true,
                );
            })
            .expect_err("the job's panic reaches the caller");
            let message = caught
                .downcast_ref::<String>()
                .expect("assert_ne! panics with a formatted message");
            assert!(message.contains("job 5 fails"), "{message}");
        }
    }
}
