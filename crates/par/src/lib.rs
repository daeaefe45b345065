//! Deterministic fork-join parallelism and the process-wide thread budget.
//!
//! The workspace cannot depend on rayon (offline builds), so this crate
//! provides the small parallel surface the experiment binaries need, built
//! on [`std::thread::scope`]:
//!
//! * [`par_map`] / [`par_map_indexed`] — order-preserving parallel map over
//!   a slice or index range with work stealing via an atomic cursor;
//! * [`max_threads`] / [`set_max_threads`] — a process-wide thread cap
//!   (also settable with the `LIS_THREADS` environment variable), used by
//!   the determinism tests to force serial execution. It also sizes the
//!   daemon's worker pool.
//!
//! The analysis libraries themselves are serial: the daemon runs requests
//! in parallel across its worker pool, never inside one.
//!
//! Every function here is *deterministic by construction*: results are
//! collected by input index, so the output is identical to the serial map
//! regardless of scheduling. Parallelism changes wall-clock time only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// 0 = "not configured": fall back to `LIS_THREADS` or the hardware count.
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Returns the effective thread budget for parallel maps.
///
/// Priority: [`set_max_threads`] override, then the `LIS_THREADS`
/// environment variable, then [`std::thread::available_parallelism`].
pub fn max_threads() -> usize {
    let configured = MAX_THREADS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("LIS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Caps the thread budget process-wide (0 restores the default resolution).
///
/// Returns the previous configured value (0 if none). Intended for tests
/// and benchmarks that compare serial against parallel execution.
pub fn set_max_threads(n: usize) -> usize {
    MAX_THREADS.swap(n, Ordering::Relaxed)
}

/// Runs `f` with the thread budget forced to `n`, restoring the previous
/// configuration afterwards (also on panic).
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            MAX_THREADS.store(self.0, Ordering::Relaxed);
        }
    }
    let _guard = Restore(set_max_threads(n));
    f()
}

/// Inputs of at most this many items run inline on the caller's thread:
/// spawning even one scoped thread costs far more than a tiny map saves
/// (a 1–2 SCC analysis is the common case for small LIS models).
const SERIAL_CUTOFF: usize = 2;

/// Parallel, order-preserving map over `0..n`.
///
/// Semantically identical to `(0..n).map(f).collect()`; work is distributed
/// over up to [`max_threads`] worker threads with an atomic work-stealing
/// cursor. With a budget of 1, or `n` at most the serial cutoff (2), no
/// threads are spawned at all.
///
/// # Panics
///
/// Propagates the first panic raised by `f` (as [`std::thread::scope`]
/// does).
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = max_threads().min(n);
    if threads <= 1 || n <= SERIAL_CUTOFF {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    // Restore input order: every index appears exactly once across parts.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for part in parts.drain(..) {
        for (i, r) in part {
            debug_assert!(slots[i].is_none());
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed"))
        .collect()
}

/// Parallel, order-preserving map over a slice.
///
/// Equivalent to `items.iter().map(f).collect()` with the same determinism
/// guarantee as [`par_map_indexed`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that touch the process-wide cap serialize on this lock.
    static CAP_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn matches_serial_map() {
        let xs: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = xs.iter().map(|x| x * x).collect();
        let parallel = par_map(&xs, |x| x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn forced_serial_equals_forced_parallel() {
        let _lock = CAP_LOCK.lock().unwrap();
        let work = || par_map_indexed(257, |i| i * 31 % 97);
        let serial = with_threads(1, work);
        let parallel = with_threads(8, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn with_threads_restores_previous_cap() {
        let _lock = CAP_LOCK.lock().unwrap();
        let before = max_threads();
        with_threads(3, || assert_eq!(max_threads(), 3));
        assert_eq!(max_threads(), before);
    }

    #[test]
    fn tiny_inputs_run_inline_and_in_order() {
        let _lock = CAP_LOCK.lock().unwrap();
        let main_id = std::thread::current().id();
        for n in 0..=SERIAL_CUTOFF {
            let out = with_threads(8, || {
                par_map_indexed(n, |i| (i, std::thread::current().id()))
            });
            // Order-identical to the serial map...
            assert_eq!(
                out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                (0..n).collect::<Vec<_>>()
            );
            // ...and executed inline, no pool dispatch.
            assert!(out.iter().all(|&(_, id)| id == main_id), "n={n}");
        }
        // Just past the cutoff, the parallel path still preserves order.
        let out = with_threads(8, || par_map_indexed(SERIAL_CUTOFF + 1, |i| i * 2));
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn order_preserved_under_uneven_work() {
        let _lock = CAP_LOCK.lock().unwrap();
        let out = with_threads(4, || {
            par_map_indexed(64, |i| {
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                i
            })
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }
}
