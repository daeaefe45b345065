//! The paper's reproduction and the workspace's measurement binaries.
//!
//! [`paper`] renders every committed artifact of the paper's evaluation
//! (Tables I–VI, Figs. 15–17, the cross-validation and the ablation); the
//! `paper` binary writes them to `results/`. This library also provides
//! the text-table renderer and summary statistics the binaries share, and
//! [`par_map`], the order-preserving fan-out behind the trial loops: every
//! trial derives its own seed, so output is identical at every thread
//! count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A plain-text table, printed in the style of the paper's tables.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().max(1) - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (0 for fewer than two samples).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Median (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in measurements"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Experiment options: the paper's defaults (50 trials, seed 2008, a 10 s
/// exact-solver budget); tests shrink `trials`.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Number of random trials per configuration.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Wall-clock budget per exact solve.
    pub timeout: Duration,
}

impl Default for ExpOptions {
    fn default() -> ExpOptions {
        ExpOptions {
            trials: 50,
            seed: 2008,
            timeout: Duration::from_secs(10),
        }
    }
}

/// Inputs of at most this many items run inline on the caller's thread:
/// spawning even one scoped thread costs far more than a tiny map saves.
const SERIAL_CUTOFF: usize = 2;

/// Parallel, order-preserving map over a slice on up to `threads` scoped
/// threads.
///
/// Semantically identical to `items.iter().map(f).collect()`: workers
/// claim indexes from an atomic cursor and results are collected by input
/// index, so the output is the serial map's regardless of scheduling. With
/// `threads` at most 1, or at most two items, no thread is spawned.
///
/// # Panics
///
/// Propagates a panic raised by `f`.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 || n <= SERIAL_CUTOFF {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break out;
                        }
                        out.push((i, f(&items[i])));
                    }
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
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "2000".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn timed_measures() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_secs() < 1);
    }

    #[test]
    fn matches_serial_map() {
        let xs: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = xs.iter().map(|x| x * x).collect();
        assert_eq!(serial, par_map(&xs, 4, |x| x * x));
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(&[] as &[usize], 4, |&i| i), Vec::<usize>::new());
        assert_eq!(par_map(&[0usize], 4, |&i| i + 1), vec![1]);
    }

    #[test]
    fn forced_serial_equals_forced_parallel() {
        let xs: Vec<usize> = (0..257).collect();
        let work = |threads| par_map(&xs, threads, |&i| i * 31 % 97);
        assert_eq!(work(1), work(8));
    }

    #[test]
    fn tiny_inputs_run_inline_and_in_order() {
        let main_id = std::thread::current().id();
        for n in 0..=SERIAL_CUTOFF {
            let xs: Vec<usize> = (0..n).collect();
            let out = par_map(&xs, 8, |&i| (i, std::thread::current().id()));
            // Order-identical to the serial map...
            assert_eq!(out.iter().map(|&(i, _)| i).collect::<Vec<_>>(), xs);
            // ...and executed inline, no thread spawned.
            assert!(out.iter().all(|&(_, id)| id == main_id), "n={n}");
        }
        // Just past the cutoff, the parallel path still preserves order.
        assert_eq!(par_map(&[0, 1, 2], 8, |&i| i * 2), vec![0, 2, 4]);
    }

    #[test]
    fn order_preserved_under_uneven_work() {
        let xs: Vec<usize> = (0..64).collect();
        let out = par_map(&xs, 4, |&i| {
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            i
        });
        assert_eq!(out, xs);
    }

    #[test]
    fn default_options() {
        let o = ExpOptions::default();
        assert_eq!(o.trials, 50);
        assert_eq!(o.seed, 2008);
        assert_eq!(o.timeout, Duration::from_secs(10));
    }
}
