//! The certified queue-sizing check against the re-solving oracle.
//!
//! `lis_qs::solve` checks its own answer with `certify_solution`: extra
//! slots as token overrides on the `d[G]` it already built, potentials at
//! λ = θ(G) and, below 1, a witness cycle of mean λ. `verify_solution`
//! clones the system, rebuilds `d[G]` and re-solves it. The two must give
//! the same verdict on every report: the solver's own answers, every
//! answer with one token withheld, and reports with random slots or a
//! wrong target.

use lis::core::{figures, LisModel, LisSystem};
use lis::gen::{generate, ring, GeneratorConfig, InsertionPolicy};
use lis::qs::{certify_solution, solve, verify_solution, Algorithm, QsConfig, QsReport};
use marked_graph::Ratio;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What one design contributed: reports checked, and broken ones.
#[derive(Default)]
struct Tally {
    reports: usize,
    broken: usize,
}

/// Both checks on `report`; they must agree, and the verdict comes back.
fn agree(sys: &LisSystem, model: &LisModel, report: &QsReport, what: &str) -> bool {
    let certified = certify_solution(model, report);
    let resolved = verify_solution(sys, report);
    assert_eq!(
        certified, resolved,
        "{what}: certified {certified}, re-solved {resolved}, report {report:?}"
    );
    certified
}

/// Solves `sys` with both algorithms and checks each answer, each answer
/// with one token withheld, and a few perturbed reports.
fn check_design(sys: &LisSystem, rng: &mut StdRng, name: &str, tally: &mut Tally) {
    let model = LisModel::doubled(sys);
    for algo in [Algorithm::Heuristic, Algorithm::Exact] {
        let what = format!("{name} {algo:?}");
        let report = solve(sys, algo, &QsConfig::default()).expect("solve checks its answer");
        assert!(
            agree(sys, &model, &report, &what),
            "{what}: answer rejected"
        );
        tally.reports += 1;

        // Every answer is minimal on its deficient cycles: withholding any
        // one of its slots must fail both checks.
        for i in 0..report.extra_tokens.len() {
            let mut broken = report.clone();
            broken.extra_tokens[i].1 -= 1;
            broken.total_extra -= 1;
            let what = format!("{what} without one slot on {:?}", report.extra_tokens[i].0);
            assert!(!agree(sys, &model, &broken, &what), "{what}: accepted");
            tally.broken += 1;
        }

        // Random slots and a wrong target: whatever the verdict, it must
        // be the same.
        let channels = sys.channel_count();
        let mut random = report.clone();
        random.extra_tokens = (0..rng.gen_range(0..4))
            .map(|_| {
                let c = lis::core::ChannelId::new(rng.gen_range(0..channels));
                (c, rng.gen_range(1..3))
            })
            .collect();
        agree(sys, &model, &random, &format!("{what} random slots"));
        for target in [report.practical_before, Ratio::new(1, 2), Ratio::ONE] {
            let mut retarget = report.clone();
            retarget.target = target;
            agree(sys, &model, &retarget, &format!("{what} target {target}"));
        }
    }
}

#[test]
fn the_figures_agree() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut tally = Tally::default();
    let designs = [
        ("fig1", figures::fig1().0),
        ("fig2 right", figures::fig2_right().0),
        ("fig6", figures::fig6().0),
        ("fig15", figures::fig15().0),
        ("fig2 family 3", figures::fig2_family(3)),
        ("uplink/downlink", figures::uplink_downlink().0),
    ];
    for (name, sys) in &designs {
        check_design(sys, &mut rng, name, &mut tally);
    }
    eprintln!(
        "figures: {} answers, {} broken reports",
        tally.reports, tally.broken
    );
    assert!(
        tally.broken >= 8,
        "only {} broken figure reports",
        tally.broken
    );
}

#[test]
fn two_hundred_generated_designs_agree_under_both_policies() {
    for policy in [InsertionPolicy::Scc, InsertionPolicy::Any] {
        let mut rng = StdRng::seed_from_u64(2028);
        let mut tally = Tally::default();
        for i in 0..200 {
            let vertices = rng.gen_range(6..=40usize);
            let cfg = GeneratorConfig {
                vertices,
                sccs: (vertices / 8).max(2),
                min_cycles_per_scc: 2,
                relay_stations: rng.gen_range(1..=6usize),
                reconvergent_paths: true,
                policy,
                extra_inter_edges: Some(2),
            };
            let sys = generate(&cfg, &mut rng).system;
            check_design(
                &sys,
                &mut rng,
                &format!("{policy:?} design {i}"),
                &mut tally,
            );
        }
        eprintln!(
            "{policy:?}: {} answers, {} broken reports",
            tally.reports, tally.broken
        );
        // The corpus must reach the interesting case: answers that add
        // slots, each of which is load-bearing.
        assert!(
            tally.broken >= 200,
            "{policy:?}: only {} broken reports",
            tally.broken
        );
    }
}

#[test]
fn rings_of_3_to_350_blocks_agree() {
    let mut rng = StdRng::seed_from_u64(350);
    let mut tally = Tally::default();
    for n in 3..=350 {
        // Two relay stations, as the benchmark's rings carry.
        let r = ring(n);
        let mut sys = r.system;
        sys.add_relay_station(r.channels[0]);
        sys.add_relay_station(r.channels[n / 3]);
        check_design(&sys, &mut rng, &format!("ring {n}"), &mut tally);
        // A chord with two relay stations beside a ring channel makes the
        // ring reconvergent, as in Fig. 1: now the answer must add slots.
        if n % 25 == 3 {
            let chord = sys.add_channel(r.blocks[n / 2], r.blocks[n / 2 + 1]);
            sys.add_relay_station(chord);
            sys.add_relay_station(chord);
            check_design(
                &sys,
                &mut rng,
                &format!("ring {n} with a chord"),
                &mut tally,
            );
        }
    }
    eprintln!(
        "rings: {} answers, {} broken reports",
        tally.reports, tally.broken
    );
    assert!(
        tally.broken >= 20,
        "only {} broken ring reports",
        tally.broken
    );
}
