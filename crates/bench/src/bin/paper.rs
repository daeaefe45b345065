//! Regenerates the paper's committed artifacts under `results/`.
//!
//! `paper [NAME...]` renders each named artifact (all of
//! [`lis_bench::paper::ARTIFACTS`] when none is named) with the paper's
//! options and writes `results/<name>.txt`; progress goes to stderr. The
//! trial loops fan out over the available hardware threads. Wall-clock
//! values sit on lines matching [`lis_bench::paper::TIMING_LINE`], which
//! the CI diff of `results/` ignores.
//!
//! ```text
//! cargo run --release -p lis-bench --bin paper             # all eleven
//! cargo run --release -p lis-bench --bin paper -- table5   # one
//! ```

use std::path::Path;

use lis_bench::paper::ARTIFACTS;
use lis_bench::{timed, ExpOptions};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    if let Some(unknown) = names.iter().find(|n| !known.contains(&n.as_str())) {
        eprintln!("unknown artifact {unknown:?}; known: {}", known.join(" "));
        std::process::exit(2);
    }
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = ExpOptions::default();
    for (name, render) in ARTIFACTS {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let (text, elapsed) = timed(|| render(&opts, threads));
        let path = results.join(format!("{name}.txt"));
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote results/{name}.txt in {:.1} s", elapsed.as_secs_f64());
    }
}
