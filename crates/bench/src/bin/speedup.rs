//! Records the wall-clock speedups of the incremental analysis engine into
//! `results/parallel_speedup.txt`.
//!
//! Two workloads, both bit-identical in their answers to the baselines
//! they are measured against:
//!
//! 1. **Incremental MCM vs from-scratch Karp** on the queue-sizing query
//!    pattern (same doubled graph, different backedge tokens). The
//!    incremental engine decomposes into SCCs once, re-solves only the
//!    components a query touches, and memoizes per-component deltas.
//! 2. **Branch-and-bound with vs without the transposition memo** on dense
//!    Token Deficit instances.
//!
//! The minimum-cycle-mean kernel no longer fans SCCs out across threads
//! (a request already owns one worker), so the former parallel-vs-serial
//! workload is gone with the parallel entry points it measured.
//!
//! Timings are the minimum of three runs each; answers are asserted equal
//! before anything is written.

use std::fmt::Write as _;
use std::time::Duration;

use lis_bench::timed;
use lis_core::LisModel;
use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
use lis_qs::{exact_solve_with, ExactOptions, TdInstance};
use marked_graph::incremental::IncrementalMcm;
use marked_graph::mcm::karp;
use marked_graph::PlaceId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OUT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/parallel_speedup.txt"
);

fn fig_cfg(vertices: usize, sccs: usize) -> GeneratorConfig {
    GeneratorConfig {
        vertices,
        sccs,
        min_cycles_per_scc: 5,
        relay_stations: 10,
        reconvergent_paths: true,
        policy: InsertionPolicy::Scc,
        extra_inter_edges: None,
    }
}

/// Minimum elapsed time of three runs (the answer must not vary).
fn best_of_3<T: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 0..2 {
        let (next, d) = timed(&mut f);
        assert_eq!(next, out, "non-deterministic workload");
        if d < best {
            best = d;
            out = next;
        }
    }
    (out, best)
}

/// Workload 1: the query stream a queue-sizing branch-and-bound produces —
/// every ordered placement of 3 extra tokens on 8 shell queues (512
/// queries, only 120 distinct assignments, exactly the transposition
/// redundancy the incremental engine's memo absorbs) — answered from
/// scratch vs incrementally.
fn incremental_vs_scratch(report: &mut String) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let lis = generate(&fig_cfg(200, 10), &mut rng);
    let model = LisModel::doubled(&lis.system);
    let backedges: Vec<(PlaceId, u64)> = lis
        .system
        .channel_ids()
        .filter_map(|c| model.queue_backedge(c))
        .map(|p| (p, model.graph().tokens(p)))
        .collect();
    assert!(backedges.len() >= 8, "need 8 shell queues");
    let mut queries: Vec<Vec<(PlaceId, u64)>> = Vec::with_capacity(512);
    for a in 0..8usize {
        for b in 0..8usize {
            for c in 0..8usize {
                let mut extra = std::collections::BTreeMap::new();
                for i in [a, b, c] {
                    *extra.entry(i).or_insert(0u64) += 1;
                }
                queries.push(
                    extra
                        .into_iter()
                        .map(|(i, w)| {
                            let (p, base) = backedges[i];
                            (p, base + w)
                        })
                        .collect(),
                );
            }
        }
    }
    let g = model.graph();

    let (scratch, t_scratch) = best_of_3(|| {
        let mut means = Vec::with_capacity(queries.len());
        for q in &queries {
            let mut patched = g.clone();
            for &(p, tok) in q {
                patched.set_tokens(p, tok);
            }
            means.push(karp(&patched).expect("cyclic"));
        }
        means
    });
    let (incremental, t_inc) = best_of_3(|| {
        let mut inc = IncrementalMcm::new(g);
        let mut means = Vec::with_capacity(queries.len());
        for q in &queries {
            means.push(inc.mcm_with_tokens(q).expect("cyclic"));
        }
        means
    });
    assert_eq!(
        scratch, incremental,
        "incremental engine diverged from Karp"
    );

    let speedup = t_scratch.as_secs_f64() / t_inc.as_secs_f64();
    writeln!(
        report,
        "incremental MCM vs from-scratch Karp\n  \
         workload: 512 branch-and-bound-style queries (every ordered placement of\n  \
         3 extra tokens on 8 shell queues; 120 distinct assignments), doubled\n  \
         graph of a random LIS (v=200, s=10)\n  \
         from-scratch: {:>10.3} ms   incremental: {:>10.3} ms   speedup: {:.2}x",
        t_scratch.as_secs_f64() * 1e3,
        t_inc.as_secs_f64() * 1e3,
        speedup
    )
    .expect("write to String");
    speedup
}

/// Dense random TD instance, in the harder regime where the disjoint-cycle
/// bound stays loose and the search tree carries real transposition
/// redundancy (larger than the solver test suite's instances).
fn dense_td(rng: &mut StdRng) -> TdInstance {
    let n_cycles = rng.gen_range(10..14);
    let n_sets = rng.gen_range(7..10);
    let deficits: Vec<u64> = (0..n_cycles).map(|_| rng.gen_range(2..5)).collect();
    let mut sets: Vec<Vec<usize>> = (0..n_sets)
        .map(|_| (0..n_cycles).filter(|_| rng.gen_bool(0.45)).collect())
        .collect();
    for (c, &d) in deficits.iter().enumerate() {
        if d > 0 && !sets.iter().any(|s| s.contains(&c)) {
            sets[0].push(c);
        }
    }
    TdInstance::new(deficits, sets)
}

/// Workload 2: exact branch-and-bound with vs without the memo.
fn memo_vs_no_memo(report: &mut String) -> f64 {
    let mut rng = StdRng::seed_from_u64(5);
    let instances: Vec<TdInstance> = (0..20).map(|_| dense_td(&mut rng)).collect();
    let solve = |memo: bool| {
        let opts = ExactOptions {
            budget: Some(Duration::from_secs(30)),
            memo,
            ..ExactOptions::default()
        };
        let instances = &instances;
        move || {
            let mut nodes = 0u64;
            let totals = instances
                .iter()
                .map(|td| {
                    let out = exact_solve_with(td, &opts);
                    assert!(out.optimal, "budget exhausted");
                    nodes += out.nodes;
                    out.solution.total()
                })
                .collect::<Vec<u64>>();
            (totals, nodes)
        }
    };
    let ((with_memo, n_memo), t_memo) = best_of_3(solve(true));
    let ((without, n_plain), t_plain) = best_of_3(solve(false));
    assert_eq!(with_memo, without, "memo changed an optimum");
    assert!(n_memo <= n_plain, "memo enlarged the search tree");

    let speedup = t_plain.as_secs_f64() / t_memo.as_secs_f64();
    writeln!(
        report,
        "exact branch-and-bound with vs without the transposition memo\n  \
         workload: 20 dense random Token Deficit instances, solved to optimality\n  \
         no memo:      {:>10.3} ms ({n_plain} nodes)   memoized: {:>10.3} ms ({n_memo} nodes)\n  \
         wall-clock ratio: {:.2}x — at this instance size the node-count\n  \
         reduction ({:.2}x) is offset by the hashing cost per node; the memo\n  \
         is kept default-on for the budgeted regimes where trees are deep",
        t_plain.as_secs_f64() * 1e3,
        t_memo.as_secs_f64() * 1e3,
        speedup,
        n_plain as f64 / n_memo as f64
    )
    .expect("write to String");
    speedup
}

fn main() {
    let mut report = String::new();
    writeln!(
        report,
        "Wall-clock speedups of the incremental MCM analysis engine\n\
         ==========================================================\n\
         timings are the minimum of 3 runs; every measured variant is\n\
         asserted bit-identical to its baseline before the numbers are\n\
         recorded. Regenerate with:\n\
         \x20   cargo run --release -p lis-bench --bin speedup\n"
    )
    .expect("write to String");

    let s1 = incremental_vs_scratch(&mut report);
    report.push('\n');
    let s2 = memo_vs_no_memo(&mut report);
    report.push('\n');

    let best = s1.max(s2);
    writeln!(
        report,
        "best recorded speedup: {best:.2}x (target: >= 2x). The\n\
         incremental-engine gain is algorithmic (memoized per-component\n\
         re-solves) and holds at any core count."
    )
    .expect("write to String");

    assert!(
        best >= 2.0,
        "no workload reached the 2x target (best {best:.2}x)"
    );
    std::fs::write(OUT_PATH, &report).expect("write results/parallel_speedup.txt");
    print!("{report}");
    eprintln!("\nwrote {OUT_PATH}");
}
