//! Queue-sizing solver benchmarks: heuristic vs exact, with and without the
//! simplification rules — the CPU-time story of Tables IV and V — plus the
//! exact solver's search-tree variants (memoization on/off).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lis_cofdm::table6_scenario;
use lis_gen::{generate, GeneratorConfig};
use lis_qs::{
    exact_solve, exact_solve_with, extract_instance, heuristic_solve, simplify, ExactOptions,
    TdInstance,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn table4_td(vertices: usize, sccs: usize, seed: u64) -> TdInstance {
    let cfg = GeneratorConfig::table4(vertices, sccs);
    let mut rng = StdRng::seed_from_u64(seed);
    let lis = generate(&cfg, &mut rng);
    let collapsed = lis_qs::collapse_sccs(&lis.system).expect("scc policy collapses");
    let inst = extract_instance(&collapsed.system, 1_000_000).expect("bounded cycle count");
    TdInstance::from_qs(&inst).0
}

/// Dense random TD instance — the regime where the disjoint-cycle bound
/// stays loose and the branch-and-bound variants actually differ.
fn dense_td(seed: u64) -> TdInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_cycles = rng.gen_range(6..12);
    let n_sets = rng.gen_range(5..10);
    let deficits: Vec<u64> = (0..n_cycles).map(|_| rng.gen_range(1..4)).collect();
    let mut sets: Vec<Vec<usize>> = (0..n_sets)
        .map(|_| (0..n_cycles).filter(|_| rng.gen_bool(0.4)).collect())
        .collect();
    for (c, &d) in deficits.iter().enumerate() {
        if d > 0 && !sets.iter().any(|s| s.contains(&c)) {
            sets[0].push(c);
        }
    }
    TdInstance::new(deficits, sets)
}

/// Exact-solver search variants on one dense instance: full pruning with
/// the transposition memo (default) and memo disabled. Both return the same
/// optimum.
fn bench_exact_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("qs_exact_variants");
    group.sample_size(10);
    let td = dense_td(5);
    let budget = Some(Duration::from_secs(5));
    let cases: [(&str, ExactOptions); 2] = [
        (
            "memo",
            ExactOptions {
                budget,
                ..ExactOptions::default()
            },
        ),
        (
            "no_memo",
            ExactOptions {
                budget,
                memo: false,
                ..ExactOptions::default()
            },
        ),
    ];
    for (name, opts) in cases {
        group.bench_with_input(BenchmarkId::new(name, "dense"), &td, |b, td| {
            b.iter(|| exact_solve_with(std::hint::black_box(td), &opts))
        });
    }
    group.finish();
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("qs");
    group.sample_size(20);

    for (v, s) in [(50usize, 10usize), (100, 10), (100, 20)] {
        let td = table4_td(v, s, 3);
        group.bench_with_input(
            BenchmarkId::new("heuristic", format!("v{v}s{s}")),
            &td,
            |b, td| b.iter(|| heuristic_solve(std::hint::black_box(td))),
        );
        group.bench_with_input(
            BenchmarkId::new("simplify+heuristic", format!("v{v}s{s}")),
            &td,
            |b, td| {
                b.iter(|| {
                    let s = simplify(std::hint::black_box(td));
                    s.expand(&heuristic_solve(&s.instance))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exact", format!("v{v}s{s}")),
            &td,
            |b, td| b.iter(|| exact_solve(std::hint::black_box(td), Some(Duration::from_secs(5)))),
        );
    }

    // The COFDM Table VI instance end to end (extraction + solve).
    let soc = table6_scenario();
    group.bench_function("cofdm_heuristic_end_to_end", |b| {
        b.iter(|| {
            lis_qs::solve(
                std::hint::black_box(&soc.system),
                lis_qs::Algorithm::Heuristic,
                &lis_qs::QsConfig::default(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_exact_variants);
criterion_main!(benches);
