//! A bounded worker pool with overload shedding, panic isolation, and
//! graceful drain.
//!
//! Analysis jobs are CPU-bound, so the pool runs a fixed number of worker
//! threads (the available hardware parallelism by default, or the CLI's
//! `--threads` flag) over a bounded FIFO queue. A full queue **rejects**
//! new work instead of blocking the submitter: connection handlers
//! translate that into a typed 503, which keeps tail latency bounded
//! under overload instead of letting the queue grow without limit.
//!
//! Jobs are isolated with `catch_unwind`: a panicking job takes down only
//! itself. The worker that caught it retires (its thread-local state is
//! suspect after an arbitrary unwind) and — unless the pool is draining —
//! spawns a fresh replacement before exiting, so capacity is restored
//! without the submitter noticing. [`WorkerPool::panics`] and
//! [`WorkerPool::respawns`] expose the counts for metrics.
//!
//! [`WorkerPool::drain`] implements graceful shutdown: no new work is
//! accepted, every queued and in-flight job runs to completion, and the
//! worker threads are joined panic-tolerantly — a crashed worker is
//! *reported* in the [`DrainReport`], never propagated into the caller.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::cpu::{ThreadCpu, ThreadRole};

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// How much nicer than the process its workers run. Computation yields the
/// CPU to the event loop, so a saturated pool cannot hold back the loop's
/// reads, writes and streamed chunks: the latency-insensitive shell is
/// never starved by the pearl it wraps.
const WORKER_NICE_INCREMENT: i32 = 10;

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; the job was shed.
    Overloaded,
    /// The pool is draining and accepts no new work.
    ShuttingDown,
}

/// What [`WorkerPool::drain`] observed while joining the workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Worker threads joined (initial workers plus any respawns).
    pub joined: usize,
    /// Joins that returned a panic instead of a clean exit. Always zero
    /// unless a worker unwound *outside* job isolation — a pool bug, not
    /// a job bug — and even then drain completes instead of crashing.
    pub panicked: usize,
    /// Result-store spills that were still pending at drain time and were
    /// flushed to disk before exit (always zero without `--store`). Filled
    /// in by the server's drain path, not by [`WorkerPool::drain`] itself.
    pub spilled: usize,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    draining: AtomicBool,
    /// Mirror of the queue length for lock-free metrics reads.
    depth: AtomicI64,
    /// Handles of every live (or not-yet-joined) worker. Lives in the
    /// shared state so a retiring worker can register its replacement.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Jobs that panicked inside a worker.
    panics: AtomicU64,
    /// Replacement workers spawned after a panic.
    respawns: AtomicU64,
    /// Next worker thread name suffix.
    next_id: AtomicUsize,
    /// Where every worker, respawns included, registers its CPU time.
    cpu: Arc<ThreadCpu>,
}

/// A fixed-size thread pool over a bounded job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    worker_count: usize,
    capacity: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads servicing a queue of at most `capacity`
    /// pending jobs. Both must be nonzero.
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        WorkerPool::with_thread_cpu(workers, capacity, Arc::default())
    }

    /// [`new`](WorkerPool::new), with every worker registered in `cpu`
    /// under [`ThreadRole::Worker`].
    pub(crate) fn with_thread_cpu(
        workers: usize,
        capacity: usize,
        cpu: Arc<ThreadCpu>,
    ) -> WorkerPool {
        assert!(workers > 0, "a pool needs at least one worker");
        assert!(capacity > 0, "a pool needs at least one queue slot");
        let shared = Arc::new(Shared {
            cpu,
            ..Shared::default()
        });
        let handles: Vec<JoinHandle<()>> = (0..workers).map(|_| spawn_worker(&shared)).collect();
        *shared.handles.lock().expect("pool lock") = handles;
        WorkerPool {
            shared,
            worker_count: workers,
            capacity,
        }
    }

    /// Queue capacity this pool was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Jobs currently queued (excluding in-flight ones).
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Relaxed).max(0) as usize
    }

    /// Jobs that panicked inside a worker since the pool started.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Replacement workers spawned after panics.
    pub fn respawns(&self) -> u64 {
        self.shared.respawns.load(Ordering::Relaxed)
    }

    /// Enqueues a job.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is full,
    /// [`SubmitError::ShuttingDown`] after [`drain`](WorkerPool::drain)
    /// began.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        if self.shared.draining.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let mut queue = self.shared.queue.lock().expect("pool lock");
        if queue.len() >= self.capacity {
            return Err(SubmitError::Overloaded);
        }
        queue.push_back(Box::new(job));
        self.shared
            .depth
            .store(queue.len() as i64, Ordering::Relaxed);
        drop(queue);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Stops accepting work, runs every queued job to completion, and joins
    /// the workers — panic-tolerantly: a worker that died unwinding is
    /// counted in the report, not re-thrown into the caller. Safe to call
    /// more than once; later calls are no-ops.
    ///
    /// Joining loops until the handle list stays empty, because a worker
    /// that caught a panicking job just before the drain flag was set may
    /// still be registering its replacement.
    pub fn drain(&self) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.available.notify_all();
        let mut report = DrainReport::default();
        loop {
            let handles: Vec<JoinHandle<()>> =
                std::mem::take(&mut *self.shared.handles.lock().expect("pool lock"));
            if handles.is_empty() {
                return report;
            }
            for handle in handles {
                report.joined += 1;
                if handle.join().is_err() {
                    report.panicked += 1;
                }
            }
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>) -> JoinHandle<()> {
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("lis-worker-{id}"))
        .spawn(move || {
            crate::net::sys::nice_this_thread(WORKER_NICE_INCREMENT);
            let _cpu = shared.cpu.register(ThreadRole::Worker);
            worker_loop(&shared)
        })
        .expect("spawn worker")
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.depth.store(queue.len() as i64, Ordering::Relaxed);
                    break Some(job);
                }
                if shared.draining.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.available.wait(queue).expect("pool lock");
            }
        };
        match job {
            Some(job) => {
                if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                    // The job panicked. Contain it, retire this worker
                    // (its thread-locals are suspect after an arbitrary
                    // unwind), and restore capacity with a fresh thread.
                    // While draining, retiring would strand the remaining
                    // queue if every worker hit a panicking job — so the
                    // worker soldiers on instead: the drain guarantee
                    // (every queued job runs) outranks thread freshness.
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    if shared.draining.load(Ordering::Acquire) {
                        continue;
                    }
                    let replacement = spawn_worker(shared);
                    shared.handles.lock().expect("pool lock").push(replacement);
                    shared.respawns.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Panics with the injected-fault marker so the quiet hook keeps the
    /// test output free of expected backtraces.
    fn quiet_panic() -> ! {
        crate::fault::silence_injected_panics();
        std::panic::panic_any(format!(
            "{} (pool test)",
            crate::fault::INJECTED_PANIC_MARKER
        ));
    }

    #[test]
    fn jobs_run_and_results_come_back() {
        let pool = WorkerPool::new(4, 64);
        let (tx, rx) = mpsc::channel();
        for i in 0..32usize {
            let tx = tx.clone();
            pool.submit(move || tx.send(i * i).expect("send"))
                .expect("submit");
        }
        let mut got: Vec<usize> = rx.iter().take(32).collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).map(|i| i * i).collect::<Vec<_>>());
        pool.drain();
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let pool = WorkerPool::new(1, 1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        pool.submit(move || {
            block_rx.recv().expect("release");
        })
        .expect("first job");
        // ...then fill the single queue slot. Submission order guarantees
        // the worker has or will take the first job; poll until the queue
        // slot is actually the blocker.
        let started = std::time::Instant::now();
        loop {
            match pool.submit(|| {}) {
                Ok(()) if pool.queue_depth() >= 1 => break,
                Ok(()) => {}
                Err(SubmitError::Overloaded) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
            assert!(started.elapsed() < Duration::from_secs(5), "never filled");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Now the queue is full: the next submission must shed.
        let mut shed = false;
        for _ in 0..100 {
            if pool.submit(|| {}) == Err(SubmitError::Overloaded) {
                shed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(shed, "full queue never shed a job");
        block_tx.send(()).expect("unblock");
        pool.drain();
    }

    #[test]
    fn drain_completes_every_queued_job() {
        let pool = WorkerPool::new(2, 128);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                std::thread::sleep(Duration::from_micros(50));
                done.fetch_add(1, Ordering::Relaxed);
            })
            .expect("submit");
        }
        let report = pool.drain();
        assert_eq!(done.load(Ordering::Relaxed), 100, "drain dropped jobs");
        assert_eq!(report.joined, 2);
        assert_eq!(report.panicked, 0);
    }

    #[test]
    fn submissions_after_drain_are_rejected() {
        let pool = WorkerPool::new(1, 4);
        pool.drain();
        assert_eq!(pool.submit(|| {}), Err(SubmitError::ShuttingDown));
        pool.drain(); // second drain is a no-op
    }

    #[test]
    fn queue_depth_tracks_the_queue() {
        let pool = WorkerPool::new(1, 8);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            block_rx.recv().expect("release");
        })
        .expect("submit");
        // Wait for the worker to pick the blocker up, then stack two more.
        let started = std::time::Instant::now();
        while pool.queue_depth() != 0 {
            assert!(started.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.submit(|| {}).expect("submit");
        pool.submit(|| {}).expect("submit");
        assert_eq!(pool.queue_depth(), 2);
        block_tx.send(()).expect("unblock");
        pool.drain();
    }

    #[test]
    fn panicking_job_respawns_the_worker_and_spares_the_rest() {
        let pool = WorkerPool::new(2, 64);
        let (tx, rx) = mpsc::channel();
        pool.submit(|| quiet_panic()).expect("submit panicker");
        // Plenty of ordinary jobs; they must all complete even though one
        // of the two workers died and was replaced mid-stream.
        for i in 0..32usize {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).expect("send"))
                .expect("submit");
        }
        let mut got: Vec<usize> = rx.iter().take(32).collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
        // The dying worker's bookkeeping races the result channel: poll.
        let started = std::time::Instant::now();
        while pool.panics() < 1 || pool.respawns() < 1 {
            assert!(started.elapsed() < Duration::from_secs(5), "never counted");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.panics(), 1, "the panic was counted");
        assert_eq!(pool.respawns(), 1, "a replacement was spawned");
        let report = pool.drain();
        // 2 original workers + 1 replacement, none of which unwound: the
        // panic was contained at the job boundary.
        assert_eq!(report.joined, 3);
        assert_eq!(report.panicked, 0);
    }

    #[test]
    fn drain_survives_a_storm_of_panicking_jobs() {
        let pool = WorkerPool::new(3, 256);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..60usize {
            if i % 3 == 0 {
                pool.submit(|| quiet_panic()).expect("submit panicker");
            } else {
                let done = Arc::clone(&done);
                pool.submit(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                })
                .expect("submit");
            }
        }
        // Drain must terminate (respawned workers are re-joined until the
        // handle list stays empty) and never propagate a worker panic.
        let report = pool.drain();
        assert_eq!(done.load(Ordering::Relaxed), 40, "non-panicking jobs ran");
        assert_eq!(pool.panics(), 20);
        assert_eq!(report.panicked, 0, "panics were contained, not re-thrown");
        assert!(report.joined >= 3, "at least the original workers joined");
    }
}
