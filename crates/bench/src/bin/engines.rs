//! Head-to-head benchmark of the MCM engines (Karp, Lawler, Howard, and
//! warm-started Howard) over the CSR kernel, written to
//! `results/engine_speedup.txt`.
//!
//! Two sections:
//!
//! 1. **Kernel head-to-head** across topology classes: doubled rings and
//!    tori (backpressure turns the whole system into one large SCC) and the
//!    paper's random generator in the ideal model (many medium SCCs — the
//!    shape Karp's `O(n·m)` per-SCC table can still afford at 100k places).
//!    Every engine must report the identical exact mean per row; warm
//!    Howard answers the queue-sizing query pattern (distinct token
//!    overrides through [`IncrementalMcm`], so the memo cache never hits
//!    and every query re-solves with a persisted policy).
//! 2. **End-to-end exact queue sizing** in the style of Tables V/VI: the
//!    COFDM Table VI scenario plus scaled random LIS instances, solved with
//!    `Algorithm::Exact` and oracle trimming under each engine. Reports
//!    must be identical; the wall-clock ratio is the pipeline-level payoff.
//!
//! Every row also records Howard's policy-iteration rounds per component
//! solve ([`HowardScratch::take_stats`]); a cold solve needing more than
//! `MAX_HOWARD_ROUNDS` rounds fails the run in every mode. The count is
//! deterministic, so this gate catches one-hop-per-round propagation, which
//! makes long rings quadratic, without timing noise.
//!
//! Flags: `--quick` (small sizes, no 10x gate — the CI smoke mode),
//! `--min-large-speedup X` (default 10), `--min-e2e-speedup X` (default 3).

use std::fmt::Write as _;
use std::time::Duration;

use lis_bench::{timed, Table};
use lis_core::{LisModel, LisSystem};
use lis_gen::{generate, ring, torus, GeneratorConfig};
use lis_qs::{solve, Algorithm, QsConfig};
use marked_graph::csr::CsrScc;
use marked_graph::howard::{howard_csr, HowardScratch};
use marked_graph::incremental::IncrementalMcm;
use marked_graph::mcm::{self, McmEngine};
use marked_graph::{MarkedGraph, Ratio, SccDecomposition};
use rand::rngs::StdRng;
use rand::SeedableRng;

const OUT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/engine_speedup.txt"
);

/// Most policy-iteration rounds any cold Howard solve of a benchmark row
/// may take.
const MAX_HOWARD_ROUNDS: u64 = 8;

struct Opts {
    quick: bool,
    min_large_speedup: f64,
    min_e2e_speedup: f64,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        min_large_speedup: 10.0,
        min_e2e_speedup: 3.0,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                opts.quick = true;
                i += 1;
            }
            "--min-large-speedup" => {
                opts.min_large_speedup = args[i + 1]
                    .parse()
                    .expect("--min-large-speedup takes a number");
                i += 2;
            }
            "--min-e2e-speedup" => {
                opts.min_e2e_speedup = args[i + 1]
                    .parse()
                    .expect("--min-e2e-speedup takes a number");
                i += 2;
            }
            other => {
                panic!("unknown flag {other}; known: --quick --min-large-speedup --min-e2e-speedup")
            }
        }
    }
    opts
}

/// The benchmark instances: `(label, graph)` in ascending-size order per
/// class. The last random-generator row is the "large" row the speedup
/// gate applies to.
fn build_rows(quick: bool) -> Vec<(String, MarkedGraph)> {
    let mut rows = Vec::new();

    // Backpressure classes: d[G] is one large SCC, the worst case for
    // Karp's O(n·m) table and the common case for queue-sizing queries.
    let ring_sizes: &[usize] = if quick { &[100] } else { &[300, 1000] };
    for &n in ring_sizes {
        let r = ring(n);
        let mut sys = r.system;
        sys.add_relay_station(r.channels[0]);
        rows.push((
            format!("ring d[G] n={n}"),
            LisModel::doubled(&sys).into_graph(),
        ));
    }
    let torus_sizes: &[usize] = if quick { &[6] } else { &[12, 24] };
    for &k in torus_sizes {
        let t = torus(k, k);
        let mut sys = t.system;
        let c0 = sys.channel_ids().next().expect("torus has channels");
        sys.add_relay_station(c0);
        rows.push((
            format!("torus d[G] {k}x{k}"),
            LisModel::doubled(&sys).into_graph(),
        ));
    }

    // The paper's random generator in the ideal model: many medium SCCs,
    // the SCC fan-out shape, scaled to ~100k places on the largest row.
    // Ascending SCC size last: Karp's (n+1)·n value table grows
    // quadratically in the SCC size while Howard stays linear in edges,
    // so the component shape — not just the place count — sets the gap.
    let rand_cfgs: &[(usize, usize)] = if quick {
        &[(2_000, 8)]
    } else {
        &[(10_000, 16), (50_000, 64), (100_000, 128), (100_000, 32)]
    };
    for &(v, s) in rand_cfgs {
        let cfg = GeneratorConfig::table4(v, s);
        let mut rng = StdRng::seed_from_u64(2026);
        let lis = generate(&cfg, &mut rng);
        rows.push((
            format!("random G v={v} s={s}"),
            LisModel::ideal(&lis.system).into_graph(),
        ));
    }
    rows
}

/// Per-solve time of `engine` on `g`: minimum over `samples` measurements
/// of `reps` back-to-back solves. The answer must not vary.
fn cold(g: &MarkedGraph, engine: McmEngine, samples: usize, reps: usize) -> (Ratio, Duration) {
    let mut best = Duration::MAX;
    let mut mean: Option<Ratio> = None;
    for _ in 0..samples {
        let (m, t) = timed(|| {
            let mut last = None;
            for _ in 0..reps {
                last = mcm::mcm_serial(g, engine);
            }
            last.expect("benchmark graphs are cyclic")
        });
        if let Some(prev) = mean {
            assert_eq!(prev, m, "{engine} returned different means across runs");
        }
        mean = Some(m);
        best = best.min(t);
    }
    (mean.expect("samples >= 1"), best / reps as u32)
}

/// Per-query time of warm-started Howard on the queue-sizing query
/// pattern: `q` token overrides of a critical place, every override value
/// distinct so the memo cache never hits and each query re-solves the
/// touched component with its persisted policy. The first `verify` queries
/// are cross-checked against from-scratch Karp on a patched clone.
fn warm(g: &MarkedGraph, q: usize, samples: usize, verify: usize) -> Duration {
    let base_result = mcm::minimum_cycle_mean_with(g, McmEngine::Howard).expect("cyclic graph");
    let place = base_result.critical_cycle[0];
    let base_tokens = g.tokens(place);
    let mut inc = IncrementalMcm::new(g);

    for k in 0..verify as u64 {
        let tokens = base_tokens + 1 + k;
        let warm_mean = inc
            .mcm_with_tokens(&[(place, tokens)])
            .expect("cyclic graph");
        let mut patched = g.clone();
        patched.set_tokens(place, tokens);
        let oracle = mcm::mcm_serial(&patched, McmEngine::Karp).expect("cyclic graph");
        assert_eq!(
            warm_mean, oracle,
            "warm Howard diverged from Karp at tokens={tokens}"
        );
    }

    let mut best = Duration::MAX;
    for s in 0..samples as u64 {
        // Shift each batch past everything already asked so no query can be
        // answered from the memo.
        let start = base_tokens + 1 + verify as u64 + s * q as u64;
        let misses_before = inc.cache_stats().misses;
        let (_, t) = timed(|| {
            for i in 0..q as u64 {
                let m = inc.mcm_with_tokens(&[(place, start + i)]);
                assert!(m.is_some(), "cyclic graph");
            }
        });
        assert_eq!(
            inc.cache_stats().misses - misses_before,
            q as u64,
            "warm timing was contaminated by memo hits"
        );
        best = best.min(t);
    }
    best / q as u32
}

/// The most policy-iteration rounds a cold Howard solve of any cyclic
/// component of `g` takes. A Karp fallback shows as the full round limit.
fn max_howard_rounds(g: &MarkedGraph) -> u64 {
    let scc = SccDecomposition::compute(g);
    let mut scratch = HowardScratch::new();
    scc.component_ids()
        .filter(|&c| scc.is_cyclic(g, c))
        .map(|c| {
            howard_csr(&CsrScc::build(g, &scc, c), &mut scratch, &mut Vec::new());
            scratch.take_stats().rounds
        })
        .max()
        .unwrap_or(0)
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Section 1: the kernel head-to-head. Returns the Karp/Howard speedup of
/// the largest row.
fn kernel_section(report: &mut String, opts: &Opts) -> f64 {
    let rows = build_rows(opts.quick);
    let mut table = Table::new(
        "MCM engine head-to-head (per-solve ms; howard-warm is per incremental query)",
        &[
            "instance",
            "places",
            "karp",
            "lawler",
            "howard",
            "howard-warm",
            "rounds",
            "karp/howard",
            "mean",
        ],
    );
    let mut large_speedup = 0.0;
    for (i, (label, g)) in rows.iter().enumerate() {
        let places = g.place_count();
        let samples = if places > 20_000 { 1 } else { 3 };
        let reps = (100_000 / (places + 1)).clamp(1, 10);
        let (m_karp, t_karp) = cold(g, McmEngine::Karp, samples, reps);
        // Lawler's parametric search runs a Bellman-Ford feasibility pass
        // per mediant step; past ~15k places a single solve takes minutes,
        // so the largest rows skip it (its exactness is already covered by
        // the proptests and the rows below the cutoff).
        let lawler = (places <= 15_000).then(|| {
            let (samples, reps) = if places > 5_000 {
                (1, 1)
            } else {
                (samples, reps)
            };
            cold(g, McmEngine::Lawler, samples, reps)
        });
        let (m_howard, t_howard) = cold(g, McmEngine::Howard, samples, reps);
        if let Some((m_lawler, _)) = lawler {
            assert_eq!(m_karp, m_lawler, "{label}: lawler disagrees with karp");
        }
        assert_eq!(m_karp, m_howard, "{label}: howard disagrees with karp");
        let max_rounds = max_howard_rounds(g);
        assert!(
            max_rounds <= MAX_HOWARD_ROUNDS,
            "{label}: a cold Howard solve took {max_rounds} rounds (limit {MAX_HOWARD_ROUNDS})"
        );
        let q = if opts.quick { 8 } else { 32 };
        let t_warm = warm(g, q, samples, if opts.quick { 4 } else { 8 });
        assert!(
            t_warm < t_howard,
            "{label}: warm Howard ({t_warm:?}/query) lost to cold Howard ({t_howard:?})"
        );
        let speedup = t_karp.as_secs_f64() / t_howard.as_secs_f64();
        if i + 1 == rows.len() {
            large_speedup = speedup;
        }
        let lawler_cell = lawler.map_or("-".to_string(), |(_, t)| fmt_ms(t));
        eprintln!(
            "[engines] {label}: karp {} ms, lawler {lawler_cell} ms, howard {} ms, \
             warm {} ms/query ({speedup:.1}x)",
            fmt_ms(t_karp),
            fmt_ms(t_howard),
            fmt_ms(t_warm),
        );
        table.row(&[
            label.clone(),
            places.to_string(),
            fmt_ms(t_karp),
            lawler_cell,
            fmt_ms(t_howard),
            fmt_ms(t_warm),
            format!("{max_rounds}"),
            format!("{speedup:.1}x"),
            m_karp.to_string(),
        ]);
    }
    report.push_str(&table.render());
    report.push('\n');
    large_speedup
}

/// Section 2: end-to-end exact queue sizing (Table V/VI style) under each
/// engine. Returns the Karp/Howard wall-clock ratio.
fn e2e_section(report: &mut String, opts: &Opts) -> f64 {
    let mut systems: Vec<(String, LisSystem)> = vec![(
        "COFDM Table VI scenario".into(),
        lis_cofdm::table6_scenario().system,
    )];
    let gen_cfgs: &[(usize, usize, u64)] = if opts.quick {
        &[(150, 3, 11)]
    } else {
        &[(300, 3, 11), (600, 6, 12)]
    };
    for &(v, s, seed) in gen_cfgs {
        let cfg = GeneratorConfig::table4(v, s);
        let mut rng = StdRng::seed_from_u64(seed);
        systems.push((
            format!("random LIS v={v} s={s} rs=10"),
            generate(&cfg, &mut rng).system,
        ));
    }

    let run = |engine: McmEngine| {
        timed(|| {
            systems
                .iter()
                .map(|(label, sys)| {
                    let cfg = QsConfig {
                        engine,
                        oracle_trim: true,
                        cycle_limit: 1_000_000,
                        ..QsConfig::default()
                    };
                    let r = solve(sys, Algorithm::Exact, &cfg)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    (
                        r.target,
                        r.practical_before,
                        r.total_extra,
                        r.extra_tokens,
                        r.optimal,
                    )
                })
                .collect::<Vec<_>>()
        })
    };
    let (karp_out, t_karp) = run(McmEngine::Karp);
    let (howard_out, t_howard) = run(McmEngine::Howard);
    assert_eq!(
        karp_out, howard_out,
        "exact queue sizing changed its reports under Howard"
    );
    let total_extra: u64 = howard_out.iter().map(|r| r.2).sum();
    let speedup = t_karp.as_secs_f64() / t_howard.as_secs_f64();
    writeln!(
        report,
        "end-to-end exact queue sizing + oracle trim (Table V/VI style)\n  \
         workloads: {} (identical targets, optima, and extra-token\n  \
         assignments under every engine; {total_extra} extra slots total)\n  \
         karp: {:>10.3} ms   howard: {:>10.3} ms   speedup: {speedup:.2}x",
        systems
            .iter()
            .map(|(l, _)| l.as_str())
            .collect::<Vec<_>>()
            .join("; "),
        t_karp.as_secs_f64() * 1e3,
        t_howard.as_secs_f64() * 1e3,
    )
    .expect("write to String");
    speedup
}

fn main() {
    let opts = parse_opts();
    let mut report = String::new();
    writeln!(
        report,
        "MCM engine speedups on the flat CSR kernel\n\
         ==========================================\n\
         Howard policy iteration vs Karp (the original oracle) vs Lawler\n\
         (parametric search), all per-SCC over the same CSR snapshot with\n\
         exact rational arithmetic; per-row means are asserted identical\n\
         before anything is written. howard-warm answers the queue-sizing\n\
         query pattern through IncrementalMcm with persisted policies and a\n\
         cold memo (every override value distinct). rounds is the most\n\
         policy-iteration rounds any one cold Howard component solve took\n\
         (gate: <= {MAX_HOWARD_ROUNDS}). Lawler is skipped (\"-\") past 15k\n\
         places, where one parametric solve takes minutes.\n\
         Regenerate with:\n\
         \x20   cargo run --release -p lis-bench --bin engines\n\
         mode: {}\n",
        if opts.quick {
            "quick (CI smoke)"
        } else {
            "full"
        }
    )
    .expect("write to String");

    let large_speedup = kernel_section(&mut report, &opts);
    let e2e_speedup = e2e_section(&mut report, &opts);
    report.push('\n');

    let (gate, e2e_gate) = if opts.quick {
        (1.0, 1.0)
    } else {
        (opts.min_large_speedup, opts.min_e2e_speedup)
    };
    writeln!(
        report,
        "largest-row speedup: {large_speedup:.1}x (target >= {gate:.0}x); \
         end-to-end exact QS speedup: {e2e_speedup:.2}x (target >= {e2e_gate:.0}x)"
    )
    .expect("write to String");
    assert!(
        large_speedup >= gate,
        "Howard vs Karp on the largest row: {large_speedup:.2}x < {gate}x"
    );
    assert!(
        e2e_speedup >= e2e_gate,
        "end-to-end exact QS: {e2e_speedup:.2}x < {e2e_gate}x"
    );

    if !opts.quick {
        std::fs::write(OUT_PATH, &report).expect("write results/engine_speedup.txt");
    }
    print!("{report}");
    if !opts.quick {
        eprintln!("\nwrote {OUT_PATH}");
    }
}
