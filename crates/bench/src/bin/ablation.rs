//! Ablation study of the queue-sizing pipeline's design choices.
//!
//! DESIGN.md calls out four levers; this binary quantifies each on the
//! Table IV workload (rs=10 inter-SCC, reconvergent paths):
//!
//! 1. **SCC collapsing (rule 4)** — cycle-census reduction from contracting
//!    SCCs before enumeration;
//! 2. **subset/singleton simplification (rules 2–3)** — Token Deficit
//!    instance shrinkage;
//! 3. **the disjoint-cycle admissible bound** in the exact search;
//! 4. **symmetry breaking** (non-decreasing set order) in the exact search.
//!
//! All variants provably return the same optimum (asserted); the point is
//! the cost difference.

use std::time::Duration;

use lis_bench::{mean, ExpOptions, Table};
use lis_core::LisModel;
use lis_gen::{generate, GeneratorConfig};
use lis_qs::{
    collapse_sccs, exact_solve_with, extract_instance, greedy_cover_solve, heuristic_solve,
    simplify, ExactOptions, TdInstance,
};
use marked_graph::cycles::count_elementary_cycles;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let opts = ExpOptions::from_args();
    let cfg = GeneratorConfig::table4(100, 20);

    // --- Lever 1: SCC collapsing vs raw enumeration. ---
    // The raw census routinely explodes — that explosion IS the result, so
    // saturate the count at a cap and report how often it was hit.
    const RAW_CAP: usize = 2_000_000;
    let mut raw_cycles = Vec::new();
    let mut raw_blowups = 0usize;
    let mut collapsed_cycles = Vec::new();
    for trial in 0..opts.trials {
        let mut rng = StdRng::seed_from_u64(opts.seed ^ trial as u64);
        let lis = generate(&cfg, &mut rng);
        let raw = LisModel::doubled(&lis.system);
        match count_elementary_cycles(raw.graph(), RAW_CAP) {
            Ok(n) => raw_cycles.push(n as f64),
            Err(_) => {
                raw_blowups += 1;
                raw_cycles.push(RAW_CAP as f64); // lower bound
            }
        }
        let col = collapse_sccs(&lis.system).expect("scc policy collapses");
        let cd = LisModel::doubled(&col.system);
        collapsed_cycles.push(
            count_elementary_cycles(cd.graph(), RAW_CAP).expect("small after collapse") as f64,
        );
    }
    let mut t1 = Table::new(
        format!(
            "Ablation 1: SCC collapsing, v=100 s=20 rs=10, {} trials (raw census capped at {RAW_CAP})",
            opts.trials
        ),
        &["variant", "doubled-graph cycles (avg)", "census blowups"],
    );
    t1.row(&[
        format!("raw{}", if raw_blowups > 0 { " (>= cap)" } else { "" }),
        format!("{:.1}", mean(&raw_cycles)),
        raw_blowups.to_string(),
    ]);
    t1.row(&[
        "collapsed".to_string(),
        format!("{:.1}", mean(&collapsed_cycles)),
        "0".to_string(),
    ]);
    t1.print();
    println!();

    // --- Levers 2-4 on the extracted TD instances. ---
    let mut td_sets_before = Vec::new();
    let mut td_sets_after = Vec::new();
    let mut td_cycles_before = Vec::new();
    let mut td_cycles_after = Vec::new();
    let mut heur_totals = Vec::new();
    let mut greedy_totals = Vec::new();
    let mut exact_totals = Vec::new();
    let mut nodes_full = Vec::new();
    let mut nodes_no_bound = Vec::new();
    let mut nodes_no_sym = Vec::new();
    let mut nodes_neither = Vec::new();
    let mut timeouts = [0usize; 4];

    for trial in 0..opts.trials {
        let mut rng = StdRng::seed_from_u64(opts.seed ^ (1 << 20) ^ trial as u64);
        let lis = generate(&cfg, &mut rng);
        let col = collapse_sccs(&lis.system).expect("scc policy collapses");
        let inst = extract_instance(&col.system, 2_000_000).expect("bounded");
        let (td, _) = TdInstance::from_qs(&inst);
        td_sets_before.push(td.set_count() as f64);
        td_cycles_before.push(td.cycle_count() as f64);
        let simp = simplify(&td);
        td_sets_after.push(simp.instance.set_count() as f64);
        td_cycles_after.push(simp.instance.cycle_count() as f64);

        heur_totals.push(heuristic_solve(&td).total() as f64);
        greedy_totals.push(greedy_cover_solve(&td).total() as f64);

        let variants = [
            (true, true, &mut nodes_full, 0usize),
            (false, true, &mut nodes_no_bound, 1),
            (true, false, &mut nodes_no_sym, 2),
            (false, false, &mut nodes_neither, 3),
        ];
        let mut optimum: Option<u64> = None;
        for (bound, sym, sink, idx) in variants {
            let out = exact_solve_with(
                &td,
                // Memo off: the ablation isolates the bound/symmetry axes,
                // and the node counts stay comparable with the historical
                // (pre-memo) runs in `results/ablation.txt`.
                &ExactOptions {
                    budget: Some(Duration::from_secs(opts.timeout.as_secs().min(5))),
                    disjoint_bound: bound,
                    symmetry_breaking: sym,
                    memo: false,
                },
            );
            if out.optimal {
                sink.push(out.nodes as f64);
                if idx == 0 {
                    exact_totals.push(out.solution.total() as f64);
                }
                match optimum {
                    None => optimum = Some(out.solution.total()),
                    Some(o) => assert_eq!(
                        o,
                        out.solution.total(),
                        "variant ({bound},{sym}) changed the optimum"
                    ),
                }
            } else {
                timeouts[idx] += 1;
            }
        }
    }

    let mut t2 = Table::new(
        "Ablation 2: simplification rules 2-3 (Token Deficit instance size)",
        &["stage", "sets (avg)", "deficient cycles (avg)"],
    );
    t2.row(&[
        "before".to_string(),
        format!("{:.2}", mean(&td_sets_before)),
        format!("{:.2}", mean(&td_cycles_before)),
    ]);
    t2.row(&[
        "after".to_string(),
        format!("{:.2}", mean(&td_sets_after)),
        format!("{:.2}", mean(&td_cycles_after)),
    ]);
    t2.print();
    println!();

    let mut ts = Table::new(
        "Solver quality: extra tokens per instance (same workload)",
        &["solver", "avg extra tokens"],
    );
    ts.row(&[
        "paper heuristic (trim-down)".to_string(),
        format!("{:.2}", mean(&heur_totals)),
    ]);
    ts.row(&[
        "greedy max-coverage".to_string(),
        format!("{:.2}", mean(&greedy_totals)),
    ]);
    ts.row(&["exact".to_string(), format!("{:.2}", mean(&exact_totals))]);
    ts.print();
    println!();

    let mut t3 = Table::new(
        "Ablation 3/4: exact-search optimizations (same optimum, different cost)",
        &["variant", "search nodes (avg)", "timeouts"],
    );
    t3.row(&[
        "bound + symmetry".to_string(),
        format!("{:.1}", mean(&nodes_full)),
        timeouts[0].to_string(),
    ]);
    t3.row(&[
        "no bound".to_string(),
        format!("{:.1}", mean(&nodes_no_bound)),
        timeouts[1].to_string(),
    ]);
    t3.row(&[
        "no symmetry breaking".to_string(),
        format!("{:.1}", mean(&nodes_no_sym)),
        timeouts[2].to_string(),
    ]);
    t3.row(&[
        "neither".to_string(),
        format!("{:.1}", mean(&nodes_neither)),
        timeouts[3].to_string(),
    ]);
    t3.print();
}
