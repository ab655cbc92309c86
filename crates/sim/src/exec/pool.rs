//! The persistent worker pool behind [`crate::Simulation`]'s parallel
//! backend.
//!
//! One pool owns `threads` OS threads, each with a private job channel and a
//! private result channel (`std::sync::mpsc`).  Each round the driver
//! *moves* every lane (a boxed [`RoundTask`]) to worker `l % threads` and
//! then takes the lanes back in lane order with [`WorkerPool::collect`].  A
//! worker runs its jobs in the order they arrive, so lane `l` is always the
//! next result on its worker's channel.  The driver's wait for the last lane
//! **is** the deterministic round barrier: no lane can observe round
//! `r + 1` state before every lane has finished round `r`.
//!
//! The lane→thread mapping is a pure function of the configuration; thread
//! scheduling can change *when* a lane runs, never *what* it computes.
//!
//! A task that panics kills its worker, which closes the worker's channels;
//! the driver's next `submit` or `collect` on that worker then panics with
//! "lane panicked" instead of waiting forever.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A unit of per-round work that can be shipped to a worker thread.
pub trait RoundTask: Send + 'static {
    /// Executes this task's share of round `round`.
    fn run_task(&mut self, round: u64);
}

struct Worker<J> {
    jobs: Sender<(Box<J>, u64)>,
    results: Receiver<Box<J>>,
    handle: JoinHandle<()>,
}

/// A persistent pool of worker threads executing [`RoundTask`]s.
///
/// The pool is generic without bounds so it can live inside
/// `Simulation<A>` unconditionally; only [`WorkerPool::new`] requires the
/// task to actually be shippable.
// Persistent, not spawned per round: `std::thread::scope` per round cost 1.6x peak RSS on `burst`.
pub struct WorkerPool<J> {
    workers: Vec<Worker<J>>,
}

impl<J: RoundTask> WorkerPool<J> {
    /// Spawns `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let workers = (0..threads.max(1))
            .map(|w| {
                let (jobs, job_rx) = channel::<(Box<J>, u64)>();
                let (result_tx, results) = channel();
                let handle = std::thread::Builder::new()
                    .name(format!("skueue-lane-{w}"))
                    .spawn(move || {
                        // Ends when the pool drops its job sender.
                        for (mut task, round) in job_rx {
                            task.run_task(round);
                            if result_tx.send(task).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("failed to spawn lane worker thread");
                Worker {
                    jobs,
                    results,
                    handle,
                }
            })
            .collect();
        WorkerPool { workers }
    }
}

impl<J> WorkerPool<J> {
    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Ships task `idx` to its worker (`idx % worker_count`) for `round`.
    pub fn submit(&mut self, idx: usize, task: Box<J>, round: u64) {
        let w = idx % self.workers.len();
        self.workers[w]
            .jobs
            .send((task, round))
            .unwrap_or_else(|_| panic!("lane worker {w} exited (lane panicked)"));
    }

    /// Waits for task `idx` to finish and takes it back.  Tasks must be
    /// collected in the order they were submitted.  Panics if the task's
    /// worker died (a task panicked on its thread) — the simulation cannot
    /// continue with a lost lane.
    pub fn collect(&mut self, idx: usize) -> Box<J> {
        let w = idx % self.workers.len();
        self.workers[w].results.recv().unwrap_or_else(|_| {
            panic!("lane worker {w} exited while task {idx} was outstanding (lane panicked)")
        })
    }
}

impl<J> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        // Close every job channel first so the workers wind down together.
        let handles: Vec<JoinHandle<()>> = self.workers.drain(..).map(|w| w.handle).collect();
        for handle in handles {
            // A worker that panicked already aborted the run via `submit` or
            // `collect`; during unwinding, ignore the secondary error.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::thread_token;

    struct Doubler {
        input: u64,
        output: u64,
        ran_on: u64,
        /// Signals here once this task has finished.
        done: Option<Sender<()>>,
        /// Waits for this many signals before finishing.
        wait_for: Option<(Receiver<()>, usize)>,
    }

    impl Doubler {
        fn boxed(input: u64) -> Box<Self> {
            Box::new(Doubler {
                input,
                output: 0,
                ran_on: 0,
                done: None,
                wait_for: None,
            })
        }
    }

    impl RoundTask for Doubler {
        fn run_task(&mut self, round: u64) {
            if let Some((rx, signals)) = &self.wait_for {
                for _ in 0..*signals {
                    rx.recv().expect("signalling tasks run on other workers");
                }
            }
            self.output = self.input * 2 + round;
            self.ran_on = thread_token();
            if let Some(tx) = &self.done {
                tx.send(()).expect("the waiting task is still running");
            }
        }
    }

    #[test]
    fn pool_runs_tasks_and_returns_them() {
        let mut pool: WorkerPool<Doubler> = WorkerPool::new(3);
        assert_eq!(pool.worker_count(), 3);
        for repeat in 0..50u64 {
            // Uneven work: task 0 (worker 0) cannot finish before tasks 5
            // and 7, the last tasks of workers 1 and 2, so every task on
            // those workers finishes before task 0.
            let (tx, rx) = channel();
            let mut tasks: Vec<Box<Doubler>> = (0..8).map(Doubler::boxed).collect();
            tasks[0].wait_for = Some((rx, 2));
            tasks[5].done = Some(tx.clone());
            tasks[7].done = Some(tx);
            for (idx, task) in tasks.into_iter().enumerate() {
                pool.submit(idx, task, repeat);
            }
            for idx in 0..8usize {
                let task = pool.collect(idx);
                assert_eq!(
                    task.input, idx as u64,
                    "collect({idx}) returned another task"
                );
                assert_eq!(task.output, idx as u64 * 2 + repeat);
                assert_ne!(task.ran_on, 0);
                assert_ne!(
                    task.ran_on,
                    thread_token(),
                    "task must have run off the driver thread"
                );
            }
        }
    }

    #[test]
    fn distinct_workers_get_distinct_threads() {
        let mut pool: WorkerPool<Doubler> = WorkerPool::new(2);
        for idx in 0..4usize {
            pool.submit(idx, Doubler::boxed(0), 1);
        }
        let mut token_of_worker = [0u64; 2];
        for idx in 0..4usize {
            let task = pool.collect(idx);
            let w = idx % 2;
            if token_of_worker[w] == 0 {
                token_of_worker[w] = task.ran_on;
            } else {
                assert_eq!(
                    token_of_worker[w], task.ran_on,
                    "worker {w} must be a persistent thread"
                );
            }
        }
        assert_ne!(token_of_worker[0], token_of_worker[1]);
    }

    #[test]
    fn drop_shuts_workers_down() {
        let pool: WorkerPool<Doubler> = WorkerPool::new(4);
        drop(pool); // must not hang
    }
}
