//! Persistent worker-thread pool with deterministic job routing.
//!
//! The fused parallel gradient kernel, both federated executors, and
//! anything else that wants intra-step parallelism share one
//! [`WorkerPool`], so thread spawn/join is paid once per process rather
//! than once per gradient step.
//!
//! **Determinism contract.** The pool itself performs no scheduling
//! decisions that could affect numerics: job `w` submitted through
//! [`WorkerPool::submit`] always runs on worker thread `w % size`, each
//! worker runs its jobs strictly in submission order (a private FIFO
//! channel per worker), and the pool never splits, merges, or re-routes
//! work. Callers partition work *statically* — the gradient kernel deals
//! chunk bands by the same `base + (w < extra)` formula for every pool
//! size — and combine results on the submitting thread in a fixed order,
//! so results are bit-identical for any worker count (including zero
//! workers, where callers fall back to inline execution).
//!
//! Jobs are `'static` closures; callers that need to lend buffers move
//! them into the job and receive them back through their own result
//! channel (see `LogisticRegression::pooled_loss_and_gradient_into`).
//! A panicking job is contained (`catch_unwind`) so the worker thread —
//! and every queued job behind the panic — survives; job authors that
//! must observe panics send them through their result channel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of persistent worker threads with per-worker FIFO
/// queues.
///
/// Dropping the pool closes every queue and joins every worker, so no
/// thread outlives the pool.
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `size` worker threads. A `size` of zero is allowed and
    /// spawns nothing — `WorkerPool::submit` then panics, and callers
    /// are expected to run inline instead (checked via
    /// `WorkerPool::size`).
    pub fn new(size: usize) -> Self {
        let mut senders = Vec::with_capacity(size);
        let mut handles = Vec::with_capacity(size);
        for w in 0..size {
            let (tx, rx) = channel::<Job>();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("fei-pool-{w}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // Contain panics so one bad job cannot take the
                        // worker (and all jobs queued behind it) down.
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    }
                })
                .expect("invariant: spawning a pool worker thread cannot fail");
            handles.push(handle);
        }
        Self { senders, handles }
    }

    /// Number of worker threads.
    pub(crate) fn size(&self) -> usize {
        self.senders.len()
    }

    /// Enqueues `job` on worker `worker % size`. Jobs submitted to the
    /// same worker run in submission order; jobs on different workers run
    /// concurrently.
    ///
    /// # Panics
    ///
    /// Panics if the pool has zero workers.
    pub(crate) fn submit(&self, worker: usize, job: impl FnOnce() + Send + 'static) {
        assert!(
            !self.senders.is_empty(),
            "cannot submit to an empty WorkerPool"
        );
        let w = worker % self.senders.len();
        self.senders[w]
            .send(Box::new(job))
            .expect("invariant: pool workers outlive the pool handle");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop; join so no
        // worker outlives the pool.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.senders.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    use super::*;

    #[test]
    fn runs_jobs_and_reports_size() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.size(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for w in 0..9 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(w, move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(w).expect("invariant: test receiver alive");
            });
        }
        let mut seen: Vec<usize> = (0..9).map(|_| rx.recv().expect("job ran")).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>());
        assert_eq!(counter.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn same_worker_jobs_run_in_submission_order() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel();
        for i in 0..32 {
            let tx = tx.clone();
            pool.submit(0, move || {
                tx.send(i).expect("invariant: test receiver alive");
            });
        }
        let order: Vec<i32> = (0..32).map(|_| rx.recv().expect("job ran")).collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>(), "FIFO per worker");
    }

    #[test]
    fn worker_survives_a_panicking_job() {
        let pool = WorkerPool::new(1);
        pool.submit(0, || panic!("job blew up"));
        let (tx, rx) = channel();
        pool.submit(0, move || {
            tx.send(42).expect("invariant: test receiver alive");
        });
        assert_eq!(rx.recv().expect("worker still alive"), 42);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = channel();
        for w in 0..4 {
            let tx = tx.clone();
            pool.submit(w, move || {
                tx.send(w).expect("invariant: test receiver alive");
            });
        }
        drop(pool); // must not hang, must not lose queued jobs
        drop(tx); // the jobs' clones are gone once the jobs ran
        let mut seen: Vec<usize> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "empty WorkerPool")]
    fn submit_to_empty_pool_panics() {
        let pool = WorkerPool::new(0);
        pool.submit(0, || {});
    }
}
