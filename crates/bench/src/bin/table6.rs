//! Table VI — the potential critical cycles when relay stations are added
//! between FEC and Spread, and Spread and Pilot (Fig. 19 scenario).
//!
//! Lists every deficient cycle of the doubled COFDM graph with its blocks
//! (backedge hops marked with a `*`, the paper's italics) and cycle mean,
//! then prints the queue-sizing solution — one extra slot behind each of
//! the backedges `(Pilot, Control)` and `(FFT_in, Control)` in the paper.

use lis_bench::Table;
use lis_cofdm::table6_scenario;
use lis_core::{ideal_mst, practical_mst, LisModel};
use lis_qs::{extract_instance, solve, verify_solution, Algorithm, QsConfig};
use marked_graph::Ratio;

fn main() {
    let soc = table6_scenario();
    let sys = &soc.system;
    println!(
        "ideal throughput {} = {:.2} (paper 0.75); degraded {} = {:.2} (paper lists cycles down to 0.67)",
        ideal_mst(sys),
        ideal_mst(sys).to_f64(),
        practical_mst(sys),
        practical_mst(sys).to_f64()
    );
    println!();

    let model = LisModel::doubled(sys);
    let graph = model.graph();
    let inst = extract_instance(sys, 10_000_000).expect("bounded");

    let mut t = Table::new(
        "Table VI: potential critical cycles (backedge hops marked *)",
        &["Cycle", "Blocks", "Cycle Mean"],
    );
    for (i, cycle) in inst.cycles.iter().enumerate() {
        let mut blocks = Vec::new();
        for &p in &cycle.places {
            let name = graph.transition_name(graph.target(p)).to_string();
            let star = if model.is_backedge(p) { "*" } else { "" };
            blocks.push(format!("{name}{star}"));
        }
        t.row(&[
            format!("C{}", i + 1),
            blocks.join(", "),
            format!(
                "{} = {:.2}",
                Ratio::new(cycle.tokens as i64, cycle.len as i64),
                cycle.tokens as f64 / cycle.len as f64
            ),
        ]);
    }
    t.print();
    // The paper's six cycles, in enumeration order: the 2/3 one is C5.
    let means: Vec<Ratio> = inst
        .cycles
        .iter()
        .map(|c| Ratio::new(c.tokens as i64, c.len as i64))
        .collect();
    let (r57, r23) = (Ratio::new(5, 7), Ratio::new(2, 3));
    assert_eq!(means, [r57, r57, r57, r57, r23, r57]);

    println!();
    let report = solve(sys, Algorithm::Exact, &QsConfig::default()).expect("bounded");
    println!(
        "exact queue-sizing solution: {} extra token(s) (paper: one on (Pilot, Control) + one on (FFT_in, Control)):",
        report.total_extra
    );
    for (c, w) in &report.extra_tokens {
        println!(
            "  +{w} slot(s) on the queue of {} -> {} (backedge ({}, {}))",
            sys.block_name(sys.channel_from(*c)),
            sys.block_name(sys.channel_to(*c)),
            sys.block_name(sys.channel_to(*c)),
            sys.block_name(sys.channel_from(*c)),
        );
    }
    assert!(verify_solution(sys, &report));
    assert_eq!(report.total_extra, 2);
}
