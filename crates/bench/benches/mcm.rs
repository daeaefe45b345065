//! Minimum-cycle-mean kernel benchmarks: Karp vs Lawler vs Howard, and
//! from-scratch vs incremental re-evaluation
//! (the incremental rows compare warm-started Howard against Karp).
//!
//! These back the CPU-time columns of Tables IV/V: every queue-sizing
//! verification is one MCM computation on the doubled graph. The
//! incremental engine answers the queue-sizing query pattern (same graph,
//! different backedge tokens) without rebuilding anything — the speedups
//! recorded in `results/parallel_speedup.txt` come from the same workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lis_core::LisModel;
use lis_gen::{generate, reconvergent, GeneratorConfig, InsertionPolicy};
use marked_graph::incremental::IncrementalMcm;
use marked_graph::mcm::{karp, lawler, mcm_serial};
use marked_graph::{McmEngine, PlaceId, Ratio};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn doubled_graph(vertices: usize, sccs: usize) -> marked_graph::MarkedGraph {
    let mut rng = StdRng::seed_from_u64(7);
    let lis = generate(&fig_cfg(vertices, sccs), &mut rng);
    LisModel::doubled(&lis.system).into_graph()
}

fn bench_mcm(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcm");
    for (v, s) in [(50, 10), (100, 10), (200, 10), (400, 20)] {
        let g = doubled_graph(v, s);
        group.bench_with_input(BenchmarkId::new("karp", v), &g, |b, g| {
            b.iter(|| karp(std::hint::black_box(g)))
        });
        group.bench_with_input(BenchmarkId::new("lawler", v), &g, |b, g| {
            b.iter(|| lawler(std::hint::black_box(g)))
        });
        group.bench_with_input(BenchmarkId::new("howard", v), &g, |b, g| {
            b.iter(|| mcm_serial(std::hint::black_box(g), McmEngine::Howard))
        });
    }
    group.finish();
}

/// Deterministic batch of queue-sizing-shaped queries: token overrides on
/// shell backedges of the doubled graph (exactly what the queue-sizing
/// solvers ask while exploring assignments).
fn backedge_queries(
    model: &LisModel,
    sys: &lis_core::LisSystem,
    count: usize,
) -> Vec<Vec<(PlaceId, u64)>> {
    let backedges: Vec<(PlaceId, u64)> = sys
        .channel_ids()
        .filter_map(|c| model.queue_backedge(c))
        .map(|p| (p, model.graph().tokens(p)))
        .collect();
    (0..count)
        .map(|i| {
            backedges
                .iter()
                .enumerate()
                .filter(|&(j, _)| (i >> (j % 7)) & 1 == 1)
                .map(|(_, &(p, base))| (p, base + 1 + (i % 3) as u64))
                .collect()
        })
        .collect()
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcm_incremental");
    group.sample_size(10);
    for (v, s) in [(100usize, 10usize), (200, 10)] {
        let mut rng = StdRng::seed_from_u64(7);
        let lis = generate(&fig_cfg(v, s), &mut rng);
        let model = LisModel::doubled(&lis.system);
        let queries = backedge_queries(&model, &lis.system, 64);
        let g = model.graph();

        // Baseline: every query clones the graph, patches tokens, reruns Karp.
        group.bench_with_input(
            BenchmarkId::new("scratch_karp_64_queries", v),
            &(g, &queries),
            |b, (g, queries)| {
                b.iter(|| {
                    let mut acc = Ratio::ONE;
                    for q in queries.iter() {
                        let mut patched = (*g).clone();
                        for &(p, tok) in q {
                            patched.set_tokens(p, tok);
                        }
                        acc = acc.min(karp(&patched).expect("cyclic"));
                    }
                    acc
                })
            },
        );
        // Incremental: one decomposition, per-SCC re-solves plus memo
        // cache, once per engine (the default is warm-started Howard).
        for engine in [McmEngine::Howard, McmEngine::Karp] {
            group.bench_with_input(
                BenchmarkId::new(format!("incremental_{engine}_64_queries"), v),
                &(g, &queries),
                |b, (g, queries)| {
                    let mut inc = IncrementalMcm::with_engine(g, engine);
                    b.iter(|| {
                        let mut acc = Ratio::ONE;
                        for q in queries.iter() {
                            acc = acc.min(inc.mcm_with_tokens(q).expect("cyclic"));
                        }
                        acc
                    })
                },
            );
        }
    }
    group.finish();
}

/// The bottleneck pass on long degraded critical cycles: two reconvergent
/// paths of `k` blocks (critical cycle ≈ 2k places). `howard` is a cold
/// solve for scale; `cycle` is the warm query for the potentials and the
/// critical cycle, and `cycle_bottlenecks` adds the bottleneck pass, so
/// the last two rows differ by the pass alone. Linear in `k`: about 2× per
/// doubling.
fn bench_bottlenecks(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcm_bottlenecks");
    group.sample_size(10);
    for k in [150usize, 300, 600] {
        let model = LisModel::doubled(&reconvergent(k).system);
        let mut inc = IncrementalMcm::new(model.graph());
        group.bench_function(BenchmarkId::new("howard", k), |b| {
            b.iter(|| mcm_serial(model.graph(), McmEngine::Howard))
        });
        group.bench_function(BenchmarkId::new("cycle", k), |b| {
            b.iter(|| inc.result_with_tokens(&[]).expect("cyclic"))
        });
        group.bench_function(BenchmarkId::new("cycle_bottlenecks", k), |b| {
            b.iter(|| inc.analysis_with_tokens(&[]).expect("cyclic"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mcm, bench_incremental, bench_bottlenecks);
criterion_main!(benches);
