//! Byte pins on every critical cycle, witness and bottleneck set.
//!
//! A minimum cycle mean can be attained by many cycles, and which one an
//! answer names depends on the potentials the tight-cycle search runs under
//! and on the order it walks the edges. `/analyze` bodies carry that choice
//! (`critical_cycle`, `bottleneck_queues`), so it is pinned here: each
//! family of answers folds into one FNV-1a digest that must not move.
//!
//! The families:
//! * `explain` on the paper's figures and the Table VI COFDM scenario;
//! * `explain` on 400 seeded designs shaped like the `cold-solve`
//!   benchmark's (random systems of 64–200 blocks, and one in four a ring of
//!   250–350 blocks with two relay stations);
//! * `minimum_cycle_mean`, `IncrementalMcm::analysis_with_tokens` under
//!   random token overrides, and `Certificate::find` witnesses on 2,000
//!   adversarial graphs: up to 30 transitions, 0–3 tokens a place, chords,
//!   parallel places, self-loops and several components, so minimum-mean
//!   cycles tie often.
//!
//! A digest mismatch prints the new value. Update a pin only together with
//! a note of the byte change it records.

use lis::cofdm::table6_scenario;
use lis::core::{explain, figures, fnv1a, LisSystem};
use lis::gen::{generate, ring, GeneratorConfig, InsertionPolicy};
use lis::marked_graph::certificate::Certificate;
use lis::marked_graph::incremental::IncrementalMcm;
use lis::marked_graph::mcm::{karp, minimum_cycle_mean};
use lis::marked_graph::{MarkedGraph, PlaceId, TransitionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Panics, naming every family whose digest moved and its new value, when
/// any digest differs from its pin.
fn assert_digests(families: &[(&str, &str, u64)]) {
    let moved: Vec<String> = families
        .iter()
        .filter_map(|&(family, text, pinned)| {
            let digest = fnv1a(text.as_bytes());
            (digest != pinned).then(|| format!("{family}: {digest:#018x} (pinned {pinned:#018x})"))
        })
        .collect();
    assert!(moved.is_empty(), "digests moved: {}", moved.join("; "));
}

/// One line per report: the practical MST, the cycle and the bottlenecks.
fn explain_line(out: &mut String, name: &str, sys: &LisSystem) {
    let r = explain(sys);
    writeln!(
        out,
        "{name}: {} {:?} {:?}",
        r.practical, r.critical_cycle, r.bottleneck_queues
    )
    .expect("writing to a String");
}

#[test]
fn explain_on_the_figures_and_table6() {
    let designs = [
        ("fig1", figures::fig1().0),
        ("fig2 right", figures::fig2_right().0),
        ("fig6", figures::fig6().0),
        ("fig15", figures::fig15().0),
        ("fig2 family 1", figures::fig2_family(1)),
        ("fig2 family 3", figures::fig2_family(3)),
        ("uplink/downlink", figures::uplink_downlink().0),
        ("table6", table6_scenario().system),
    ];
    let mut out = String::new();
    for (name, sys) in &designs {
        explain_line(&mut out, name, sys);
    }
    assert_digests(&[("figures", &out, 0x6df0_b237_c324_1203)]);
}

/// The `cold-solve` benchmark's base shapes.
fn cold_design(rng: &mut StdRng, i: usize) -> LisSystem {
    if i % 4 == 3 {
        let n = rng.gen_range(250..=350usize);
        let r = ring(n);
        let mut sys = r.system;
        sys.add_relay_station(r.channels[0]);
        sys.add_relay_station(r.channels[rng.gen_range(1..n / 2)]);
        return sys;
    }
    let vertices = rng.gen_range(64..=200usize);
    let cfg = GeneratorConfig {
        vertices,
        sccs: (vertices / 16).max(2),
        min_cycles_per_scc: 3,
        relay_stations: rng.gen_range(4..=10usize),
        reconvergent_paths: true,
        policy: InsertionPolicy::Scc,
        extra_inter_edges: None,
    };
    generate(&cfg, rng).system
}

#[test]
fn explain_on_400_cold_solve_designs() {
    let mut rng = StdRng::seed_from_u64(0xC01D);
    let mut out = String::new();
    let mut degraded = 0;
    for i in 0..400 {
        let sys = cold_design(&mut rng, i);
        degraded += usize::from(explain(&sys).is_degraded());
        explain_line(&mut out, &format!("design {i}"), &sys);
    }
    // The pin is only as strong as the answers that name a cycle.
    assert!(degraded >= 100, "only {degraded} degraded designs");
    assert_digests(&[("cold-solve designs", &out, 0xb358_3fad_c609_d980)]);
}

/// A graph of up to 30 transitions in one to four groups: each a ring (in
/// either direction) with chords, parallel places and self-loops, joined by
/// bridges that sometimes close a cycle across groups. Tokens are 0–3.
fn adversarial_graph(rng: &mut StdRng) -> MarkedGraph {
    let mut g = MarkedGraph::new();
    let groups = rng.gen_range(1..=4usize);
    let mut firsts = Vec::new();
    for k in 0..groups {
        let n = rng.gen_range(1..=30 / groups);
        let ts: Vec<TransitionId> = (0..n)
            .map(|i| g.add_transition(format!("g{k}t{i}")))
            .collect();
        let reverse = rng.gen_bool(0.5);
        for i in 0..n {
            let (a, b) = if reverse {
                ((i + 1) % n, i)
            } else {
                (i, (i + 1) % n)
            };
            g.add_place(ts[a], ts[b], rng.gen_range(0..=3));
        }
        for _ in 0..rng.gen_range(0..=2 * n) {
            let u = rng.gen_range(0..n);
            let v = match rng.gen_range(0..4) {
                0 => u,
                1 => (u + 1) % n,
                _ => rng.gen_range(0..n),
            };
            g.add_place(ts[u], ts[v], rng.gen_range(0..=3));
        }
        firsts.push(ts);
    }
    for _ in 0..rng.gen_range(0..=groups) {
        let (a, b) = (rng.gen_range(0..groups), rng.gen_range(0..groups));
        let u = firsts[a][rng.gen_range(0..firsts[a].len())];
        let v = firsts[b][rng.gen_range(0..firsts[b].len())];
        g.add_place(u, v, rng.gen_range(0..=3));
    }
    g
}

#[test]
fn cycles_witnesses_and_bottlenecks_on_2000_adversarial_graphs() {
    let mut rng = StdRng::seed_from_u64(0xAD5E);
    let (mut mcm, mut analyses, mut witnesses) = (String::new(), String::new(), String::new());
    for i in 0..2_000 {
        let g = adversarial_graph(&mut rng);
        let result = minimum_cycle_mean(&g);
        writeln!(mcm, "{i}: {result:?}").expect("writing to a String");

        let places: Vec<PlaceId> = g.place_ids().collect();
        let mut inc = IncrementalMcm::new(&g);
        for q in 0..3 {
            let overrides: Vec<(PlaceId, u64)> = (0..rng.gen_range(0..=3))
                .map(|_| (places[rng.gen_range(0..places.len())], rng.gen_range(0..=3)))
                .collect();
            let a = inc.analysis_with_tokens(&overrides);
            writeln!(analyses, "{i}.{q}: {overrides:?} {a:?}").expect("writing to a String");
        }

        let tokens: Vec<u64> = places.iter().map(|&p| g.tokens(p)).collect();
        let mean = karp(&g).expect("every group has a ring");
        let cert = Certificate::find(&g, &tokens, mean, true).expect("the true mean certifies");
        assert!(cert.check(&g, &tokens), "graph {i}");
        writeln!(witnesses, "{i}: {:?}", cert.witness).expect("writing to a String");
    }
    assert_digests(&[
        ("minimum_cycle_mean", &mcm, 0x4866_f975_b109_0753),
        ("analysis_with_tokens", &analyses, 0x16e4_1e0f_4996_281d),
        ("certificate witnesses", &witnesses, 0x23b0_e606_0cbc_32f4),
    ]);
}
