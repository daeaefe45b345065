//! Property-based tests of the workspace's core invariants.

use lis::core::{ideal_mst, practical_mst, LisModel, LisSystem};
use lis::marked_graph::{FiringEngine, MarkedGraph, Ratio};
use proptest::prelude::*;

/// Strategy: a random LIS as (block count, channel endpoints, rs flags, q).
fn arb_lis() -> impl Strategy<Value = LisSystem> {
    (2usize..8)
        .prop_flat_map(|n| {
            let channels = proptest::collection::vec(((0..n), (0..n), 0u32..3, 1u64..4), 1..14);
            (Just(n), channels)
        })
        .prop_map(|(n, channels)| {
            let mut sys = LisSystem::new();
            let blocks: Vec<_> = (0..n).map(|i| sys.add_block(format!("b{i}"))).collect();
            for (from, to, rs, q) in channels {
                let c = sys.add_channel(blocks[from], blocks[to]);
                for _ in 0..rs {
                    sys.add_relay_station(c);
                }
                sys.set_queue_capacity(c, q).expect("q >= 1");
            }
            sys
        })
}

/// Strategy: a small random system from the paper's generator (degraded or
/// not, depending on where its relay stations land).
fn arb_generated_lis() -> impl Strategy<Value = LisSystem> {
    (
        4usize..13,
        1usize..5,
        1usize..4,
        0usize..7,
        (proptest::bool::ANY, proptest::bool::ANY, 1usize..5),
        0u64..u64::MAX,
    )
        .prop_map(
            |(vertices, sccs, cycles, stations, (rp, any_policy, inter), seed)| {
                use lis::gen::{generate, GeneratorConfig, InsertionPolicy};
                use rand::SeedableRng;
                let cfg = GeneratorConfig {
                    vertices,
                    sccs: sccs.min(vertices / 2),
                    min_cycles_per_scc: cycles,
                    relay_stations: stations,
                    reconvergent_paths: rp,
                    policy: if any_policy {
                        InsertionPolicy::Any
                    } else {
                        InsertionPolicy::Scc
                    },
                    extra_inter_edges: Some(inter),
                };
                generate(&cfg, &mut rand::rngs::StdRng::seed_from_u64(seed)).system
            },
        )
}

/// Strategy: a ring with random relay stations and queue capacities — an
/// SCC without reconvergent paths, so never degraded (Table II).
fn arb_ring_lis() -> impl Strategy<Value = LisSystem> {
    (
        2usize..40,
        proptest::collection::vec((0usize..40, 1u32..3), 0..4),
        proptest::collection::vec((0usize..40, 1u64..4), 0..4),
    )
        .prop_map(|(len, stations, queues)| {
            let r = lis::gen::ring(len);
            let mut sys = r.system;
            for (at, count) in stations {
                for _ in 0..count {
                    sys.add_relay_station(r.channels[at % len]);
                }
            }
            for (at, q) in queues {
                sys.set_queue_capacity(r.channels[at % len], q)
                    .expect("q >= 1");
            }
            sys
        })
}

/// The queue-sizing instance of `sys` by definition: every elementary cycle
/// of d[G] in enumeration order, keeping the deficient ones.
fn deficient_filter(sys: &LisSystem) -> Vec<lis::qs::DeficientCycle> {
    use lis::marked_graph::cycles::elementary_cycles;
    let target = ideal_mst(sys);
    let model = LisModel::doubled(sys);
    let g = model.graph();
    elementary_cycles(g, usize::MAX)
        .expect("no limit")
        .into_iter()
        .filter_map(|places| {
            let tokens: u64 = places.iter().map(|&p| g.tokens(p)).sum();
            let len = places.len() as u64;
            let deficit = lis::qs::cycle_deficit(tokens, len, target);
            let mut adjustable: Vec<_> = places
                .iter()
                .filter_map(|&p| model.channel_of_queue_backedge(p))
                .collect();
            adjustable.sort();
            adjustable.dedup();
            (deficit > 0).then_some(lis::qs::DeficientCycle {
                places,
                tokens,
                len,
                deficit,
                adjustable,
            })
        })
        .collect()
}

/// `extract_instance` equals [`deficient_filter`]; on non-degraded systems
/// both solvers report zero extra slots, proven optimal, with no search.
fn check_qs_extract(sys: &LisSystem) -> Result<(), String> {
    use lis::qs::{extract_instance, solve, Algorithm, QsConfig, QsReport, DEFAULT_CYCLE_LIMIT};
    let inst = extract_instance(sys, DEFAULT_CYCLE_LIMIT).expect("bounded");
    prop_assert_eq!(inst.target, ideal_mst(sys));
    prop_assert_eq!(inst.practical, practical_mst(sys));
    prop_assert_eq!(&inst.cycles, &deficient_filter(sys));
    prop_assert_eq!(inst.is_degraded(), inst.practical < inst.target);
    if !inst.is_degraded() {
        for algo in [Algorithm::Heuristic, Algorithm::Exact] {
            let expected = QsReport {
                target: inst.target,
                practical_before: inst.practical,
                extra_tokens: Vec::new(),
                total_extra: 0,
                optimal: true,
                deficient_cycles: 0,
                nodes: 0,
            };
            prop_assert_eq!(
                solve(sys, algo, &QsConfig::default()).expect("solves"),
                expected
            );
        }
    }
    Ok(())
}

/// Strategy: a random live marked graph (ring + chords, every place ≥ 0
/// tokens with at least one token per ring).
fn arb_marked_graph() -> impl Strategy<Value = MarkedGraph> {
    (2usize..8)
        .prop_flat_map(|n| {
            let ring_tokens = proptest::collection::vec(0u64..3, n);
            let chords = proptest::collection::vec(((0..n), (0..n), 0u64..3), 0..8);
            (Just(n), ring_tokens, chords)
        })
        .prop_map(|(n, ring_tokens, chords)| {
            let mut g = MarkedGraph::new();
            let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
            let mut any = false;
            for (i, &tok) in ring_tokens.iter().enumerate() {
                any |= tok > 0;
                let tok = if i == n - 1 && !any { 1 } else { tok };
                g.add_place(ts[i], ts[(i + 1) % n], tok);
            }
            for (u, v, tok) in chords {
                g.add_place(ts[u], ts[v], tok.max(u64::from(u == v))); // live self-loops
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Doubling (adding backpressure) can only lower the MST.
    #[test]
    fn doubling_never_increases_mst(sys in arb_lis()) {
        prop_assert!(practical_mst(&sys) <= ideal_mst(&sys));
    }

    /// Growing any queue can only help (monotonicity of queue sizing).
    #[test]
    fn queue_growth_is_monotone(sys in arb_lis(), extra in 1u64..3) {
        let before = practical_mst(&sys);
        for c in sys.channel_ids() {
            let mut grown = sys.clone();
            grown.grow_queue(c, extra);
            prop_assert!(practical_mst(&grown) >= before, "channel {c:?}");
        }
    }

    /// The conservative uniform size q = r + 1 always restores the ideal MST.
    #[test]
    fn conservative_fixed_q_always_works(sys in arb_lis()) {
        let q = lis::core::conservative_fixed_q(&sys);
        prop_assert!(lis::core::fixed_q_preserves_mst(&sys, q));
    }

    /// Relay-station insertion never raises the ideal MST.
    #[test]
    fn insertion_never_raises_ideal_mst(sys in arb_lis()) {
        let before = ideal_mst(&sys);
        for c in sys.channel_ids() {
            let mut s = sys.clone();
            s.add_relay_station(c);
            prop_assert!(ideal_mst(&s) <= before);
        }
    }

    /// Token counts along any cycle are invariant under firing.
    #[test]
    fn cycle_tokens_invariant_under_firing(g in arb_marked_graph(), steps in 1u64..60) {
        let cycles = lis::marked_graph::cycles::elementary_cycles(&g, 10_000).expect("bounded");
        let mut engine = FiringEngine::new(&g);
        let before: Vec<u64> = cycles.iter().map(|c| engine.marking().cycle_tokens(c)).collect();
        engine.run(steps);
        for (c, b) in cycles.iter().zip(before) {
            prop_assert_eq!(engine.marking().cycle_tokens(c), b);
        }
    }

    /// Karp and Lawler agree on arbitrary live marked graphs.
    #[test]
    fn karp_equals_lawler(g in arb_marked_graph()) {
        prop_assert_eq!(lis::marked_graph::mcm::karp(&g), lis::marked_graph::mcm::lawler(&g));
    }

    /// The doubled model's structure: every channel contributes paired
    /// forward/backward places, and edge/backedge two-cycles hold >= 2 tokens.
    #[test]
    fn doubled_model_pairs_and_two_cycles(sys in arb_lis()) {
        let m = LisModel::doubled(&sys);
        let g = m.graph();
        for c in sys.channel_ids() {
            let f = m.forward_places(c);
            let b = m.backward_places(c);
            prop_assert_eq!(f.len(), b.len());
            prop_assert_eq!(f.len() as u32, sys.relay_stations_on(c) + 1);
            for (&fp, &bp) in f.iter().zip(b.iter()) {
                prop_assert_eq!(g.source(fp), g.target(bp));
                prop_assert_eq!(g.target(fp), g.source(bp));
                prop_assert!(g.tokens(fp) + g.tokens(bp) >= 2);
            }
        }
        // Doubled graphs of LISs are always live: no token-free cycle.
        prop_assert!(g.check_live().is_ok());
    }

    /// The two protocol implementations — RTL and marked-graph executor —
    /// sustain the same per-block rates on arbitrary systems. (The global
    /// analytic MST only bounds connected components, so the comparison is
    /// implementation-vs-implementation, per block.)
    #[test]
    fn rtl_matches_marked_graph_simulator(sys in arb_lis()) {
        use lis::sim::{CoreModel, LisSimulator, Passthrough, QueueMode, RtlSimulator};
        let cores = || -> Vec<Box<dyn CoreModel>> {
            sys.block_ids()
                .map(|b| {
                    let outs = sys
                        .channel_ids()
                        .filter(|&c| sys.channel_from(c) == b)
                        .count();
                    Box::new(Passthrough::new(outs, 0)) as Box<dyn CoreModel>
                })
                .collect()
        };
        let mut rtl = RtlSimulator::new(&sys, cores());
        rtl.run(3000);
        let mut mg = LisSimulator::new(&sys, cores(), QueueMode::Finite);
        mg.run(3000);
        // The global MST lower-bounds every block's sustained rate.
        let floor = practical_mst(&sys).to_f64();
        for b in sys.block_ids() {
            let r = rtl.throughput(b).to_f64();
            let m = mg.throughput(b).to_f64();
            prop_assert!((r - m).abs() < 0.03, "{b:?}: rtl {} vs mg {}", r, m);
            prop_assert!(r >= floor - 0.03, "{b:?}: rtl {} below floor {}", r, floor);
        }
    }

    /// The incremental engine answers token-override queries exactly like
    /// patching a clone and rerunning Karp (and Lawler) from scratch.
    #[test]
    fn incremental_mcm_matches_clone_based(g in arb_marked_graph(), seed in 0u64..1_000) {
        use lis::marked_graph::incremental::IncrementalMcm;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let places: Vec<_> = g.place_ids().collect();
        let mut inc = IncrementalMcm::new(&g);
        prop_assert_eq!(inc.base_mean(), lis::marked_graph::mcm::karp(&g));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let k = rng.gen_range(0..5usize).min(places.len());
            let overrides: Vec<_> = (0..k)
                .map(|_| (places[rng.gen_range(0..places.len())], rng.gen_range(0..4u64)))
                .collect();
            let mut patched = g.clone();
            for &(p, tok) in &overrides {
                patched.set_tokens(p, tok);
            }
            prop_assert_eq!(inc.mcm_with_tokens(&overrides), lis::marked_graph::mcm::karp(&patched));
            prop_assert_eq!(inc.mcm_with_tokens(&overrides), lis::marked_graph::mcm::lawler(&patched));
        }
    }

    /// Howard policy iteration is bit-identical to the Karp and Lawler
    /// oracles — same mean AND same critical cycle — on arbitrary live
    /// marked graphs.
    #[test]
    fn howard_equals_karp_and_lawler(g in arb_marked_graph()) {
        use lis::marked_graph::mcm::{minimum_cycle_mean_with, McmEngine};
        let karp = minimum_cycle_mean_with(&g, McmEngine::Karp);
        let lawler = minimum_cycle_mean_with(&g, McmEngine::Lawler);
        let howard = minimum_cycle_mean_with(&g, McmEngine::Howard);
        prop_assert_eq!(&karp, &lawler);
        prop_assert_eq!(&karp, &howard);
        prop_assert_eq!(karp.map(|r| r.mean).ok(), lis::marked_graph::mcm::karp(&g));
    }

    /// Warm-started Howard inside the incremental engine stays exact under
    /// random token-override sequences: each query matches patching a
    /// clone and rerunning Karp from scratch, even though consecutive
    /// solves reuse the previous policy.
    #[test]
    fn incremental_howard_warm_start_matches_karp(g in arb_marked_graph(), seed in 0u64..1_000) {
        use lis::marked_graph::incremental::IncrementalMcm;
        use lis::marked_graph::mcm::McmEngine;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let places: Vec<_> = g.place_ids().collect();
        let mut inc = IncrementalMcm::with_engine(&g, McmEngine::Howard);
        prop_assert_eq!(inc.base_mean(), lis::marked_graph::mcm::karp(&g));
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b9));
        for _ in 0..10 {
            let k = rng.gen_range(0..5usize).min(places.len());
            let overrides: Vec<_> = (0..k)
                .map(|_| (places[rng.gen_range(0..places.len())], rng.gen_range(0..6u64)))
                .collect();
            let mut patched = g.clone();
            for &(p, tok) in &overrides {
                patched.set_tokens(p, tok);
            }
            prop_assert_eq!(inc.mcm_with_tokens(&overrides), lis::marked_graph::mcm::karp(&patched));
        }
    }

    /// On the doubled model of a long ring — one SCC whose critical cycle is
    /// hundreds of hops long — cold Howard certifies the Karp mean in a
    /// handful of policy-iteration rounds, whatever the ring's length,
    /// relay stations and queue sizes, and the reported critical cycle is
    /// the one every other engine reports.
    #[test]
    fn howard_certifies_doubled_rings_in_few_rounds(
        len in 20usize..400,
        stations in proptest::collection::vec((0usize..400, 1u32..3), 1..4),
        queues in proptest::collection::vec((0usize..400, 1u64..4), 0..4),
    ) {
        use lis::gen::ring;
        use lis::marked_graph::csr::CsrScc;
        use lis::marked_graph::howard::{howard_csr, HowardScratch};
        use lis::marked_graph::mcm::{self, minimum_cycle_mean_with, McmEngine};
        use lis::marked_graph::SccDecomposition;
        let r = ring(len);
        let mut sys = r.system;
        for (at, count) in stations {
            for _ in 0..count {
                sys.add_relay_station(r.channels[at % len]);
            }
        }
        for (at, q) in queues {
            sys.set_queue_capacity(r.channels[at % len], q).expect("q >= 1");
        }
        let g = LisModel::doubled(&sys).into_graph();
        let scc = SccDecomposition::compute(&g);
        prop_assert_eq!(scc.component_ids().count(), 1);
        let csr = CsrScc::build(&g, &scc, 0);
        let mut scratch = HowardScratch::new();
        let mean = howard_csr(&csr, &mut scratch, &mut Vec::new());
        prop_assert_eq!(Some(mean), mcm::karp(&g));
        let stats = scratch.take_stats();
        prop_assert!(stats.rounds <= 4, "{:?}", stats);
        prop_assert!(stats.relaxations <= 4 * csr.edge_count() as u64, "{:?}", stats);
        prop_assert_eq!(
            minimum_cycle_mean_with(&g, McmEngine::Howard),
            minimum_cycle_mean_with(&g, McmEngine::Karp)
        );
    }

    /// Ratios: ordering is total and consistent with subtraction sign.
    #[test]
    fn ratio_order_consistency(a in -50i64..50, b in 1i64..20, c in -50i64..50, d in 1i64..20) {
        let x = Ratio::new(a, b);
        let y = Ratio::new(c, d);
        prop_assert_eq!(x < y, (x - y).numer() < 0);
        prop_assert_eq!(x == y, (x - y).numer() == 0);
        prop_assert_eq!((x + y) - y, x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Extraction skips enumeration only when no cycle is deficient: on
    /// random generated systems it returns exactly the deficient cycles of
    /// the full enumeration, in order.
    #[test]
    fn qs_extract_is_the_deficient_filter_on_generated_systems(sys in arb_generated_lis()) {
        check_qs_extract(&sys)?;
    }

    /// The same on the small ad-hoc systems (self-loops, parallel channels).
    #[test]
    fn qs_extract_is_the_deficient_filter_on_small_systems(sys in arb_lis()) {
        check_qs_extract(&sys)?;
    }

    /// The same on rings, the non-degraded family the shortcut is for.
    #[test]
    fn qs_extract_is_the_deficient_filter_on_rings(sys in arb_ring_lis()) {
        prop_assert!(practical_mst(&sys) == ideal_mst(&sys));
        check_qs_extract(&sys)?;
    }
}

/// The same on the paper's figures, degraded (Figs. 1, 6, 15) and not.
#[test]
fn qs_extract_is_the_deficient_filter_on_the_figure_corpus() {
    use lis::core::figures;
    let mut corpus = vec![
        figures::fig1().0,
        figures::fig2_right().0,
        figures::fig6().0,
        figures::fig15().0,
    ];
    corpus.extend((0..4).map(figures::fig2_family));
    for sys in &corpus {
        check_qs_extract(sys).unwrap();
    }
}

/// The pre-single-build `explain_with`, kept as the reference: the class,
/// θ(G) on a freshly built G, θ(d[G]) with its critical cycle from the
/// from-scratch solver, and the bottlenecks from a second solver over the
/// same d[G].
fn explain_reference(sys: &LisSystem, engine: lis::marked_graph::McmEngine) -> String {
    use lis::core::{
        classify, describe_cycle, ideal_mst_with, mst_with_critical_cycle_with, AnalysisReport,
    };
    use lis::marked_graph::sensitivity::bottleneck_places;
    let class = classify(sys);
    let ideal = ideal_mst_with(sys, engine);
    let model = LisModel::doubled(sys);
    let (practical_raw, cycle) =
        mst_with_critical_cycle_with(model.graph(), engine).unwrap_or((Ratio::ONE, None));
    let practical = practical_raw.min(ideal);
    let degraded = practical < ideal;
    let critical_cycle = if degraded {
        cycle.map(|c| describe_cycle(&model, &c))
    } else {
        None
    };
    let bottleneck_queues = if degraded {
        let mut chs: Vec<_> = bottleneck_places(model.graph())
            .into_iter()
            .filter_map(|p| model.channel_of_queue_backedge(p))
            .collect();
        chs.sort();
        chs.dedup();
        chs
    } else {
        Vec::new()
    };
    // AnalysisReport has no PartialEq; Debug shows every field.
    format!(
        "{:?}",
        AnalysisReport {
            class,
            ideal,
            practical,
            critical_cycle,
            bottleneck_queues,
            engine,
        }
    )
}

/// The single-build `explain_with` equals [`explain_reference`] under
/// every engine, and the forward-mask θ(G) equals θ of a freshly built G.
fn check_single_build(sys: &LisSystem) -> Result<(), String> {
    use lis::core::{explain_with, ideal_mst_of, mst};
    use lis::marked_graph::McmEngine;
    for engine in McmEngine::ALL {
        prop_assert_eq!(
            format!("{:?}", explain_with(sys, engine)),
            explain_reference(sys, engine),
            "engine {}",
            engine
        );
        prop_assert_eq!(
            ideal_mst_of(&LisModel::doubled(sys), engine),
            mst(LisModel::ideal(sys).graph())
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One d[G] and one solve per `/analyze` answer exactly what the
    /// separate G build, d[G] solve and bottleneck solve answered.
    #[test]
    fn single_build_explain_matches_the_reference_on_generated_systems(sys in arb_generated_lis()) {
        check_single_build(&sys)?;
    }

    /// The same on the small ad-hoc systems (self-loops, parallel channels).
    #[test]
    fn single_build_explain_matches_the_reference_on_small_systems(sys in arb_lis()) {
        check_single_build(&sys)?;
    }

    /// The same on rings, where θ(G) itself is below one.
    #[test]
    fn single_build_explain_matches_the_reference_on_rings(sys in arb_ring_lis()) {
        check_single_build(&sys)?;
    }

    /// θ(G) solved on d[G]'s forward places equals θ of G built on its own.
    #[test]
    fn forward_mask_ideal_mst_equals_the_ideal_model(sys in arb_lis()) {
        use lis::core::{ideal_mst_of, mst};
        use lis::marked_graph::McmEngine;
        let doubled = LisModel::doubled(&sys);
        let ideal = LisModel::ideal(&sys);
        prop_assert_eq!(ideal_mst_of(&doubled, McmEngine::Howard), mst(ideal.graph()));
        prop_assert_eq!(ideal_mst_of(&ideal, McmEngine::Howard), mst(ideal.graph()));
    }
}

/// The same on every design of the paper's figures.
#[test]
fn single_build_explain_matches_the_reference_on_the_figure_corpus() {
    use lis::core::figures;
    let mut corpus = vec![
        figures::fig1().0,
        figures::fig2_right().0,
        figures::fig6().0,
        figures::fig15().0,
        figures::uplink_downlink().0,
    ];
    corpus.extend((0..4).map(figures::fig2_family));
    for sys in &corpus {
        check_single_build(sys).unwrap();
    }
}
