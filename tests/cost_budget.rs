//! Exact cost counters: heap allocations per request stage.
//!
//! A counting global allocator tallies, per thread, every `alloc`,
//! `alloc_zeroed` and `realloc` (a growth step is an allocation). Each
//! design of two corpora — the paper's figures and seeded `lis-gen` designs
//! shaped like the `cold-solve` benchmark's — goes through the stages of a
//! cold `/analyze` or `/qs` request, and the worst count per stage must stay
//! under its ceiling. Work done is deterministic, so unlike a timing these
//! counts move only when the code does; a change that claims a saving
//! lowers its ceiling in the same diff. Allocation counts can differ
//! between build profiles, so every ceiling holds in debug and in release.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lis::core::{
    canonical_hash, classify, explain_with, figures, to_netlist, LisModel, LisSystem, McmEngine,
};
use lis::gen::{generate, ring, GeneratorConfig, InsertionPolicy};
use lis::qs::{solve, verify_solution, Algorithm, QsConfig};
use lis_server::wire::obj;
use lis_server::{Json, RequestKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `bump` touches only a const-initialized
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` and `layout` come from this allocator, which got
        // them from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its value with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

const STAGES: [&str; 9] = [
    "Json::parse",
    "RequestKind::decode + parse_netlist",
    "canonical_hash",
    "explain_with",
    "  classify",
    "  LisModel::doubled",
    "  the rest of explain_with",
    "lis_qs::solve",
    "verify_solution",
];

/// The allocations of the solver stages on one design: `explain_with`,
/// its `classify`, its `LisModel::doubled` and the rest of it, then
/// `lis_qs::solve` and `verify_solution`.
fn solver_stages(sys: &LisSystem) -> [u64; 6] {
    let (_, explain) = counted(|| explain_with(sys, McmEngine::default()));
    let (_, class) = counted(|| classify(sys));
    let (_, doubled) = counted(|| LisModel::doubled(sys));
    let (report, qs) =
        counted(|| solve(sys, Algorithm::Heuristic, &QsConfig::default()).expect("solves"));
    let (ok, verify) = counted(|| verify_solution(sys, &report));
    assert!(ok, "queue sizing verifies");
    let rest = explain - class - doubled;
    [explain, class, doubled, rest, qs, verify]
}

/// The most allocations any design of a corpus makes in each stage.
fn worst_per_stage(designs: &[LisSystem]) -> [u64; 9] {
    let mut worst = [0u64; 9];
    for sys in designs {
        let body = obj([("netlist", Json::str(to_netlist(sys)))]).to_string();
        for route in ["analyze", "qs"] {
            let (envelope, json) = counted(|| Json::parse(&body).expect("envelope parses"));
            let (parsed, decode) = counted(|| {
                let (netlist, kind) = RequestKind::decode(route, &envelope).expect("decodes");
                (lis::core::parse_netlist(&netlist).expect("parses"), kind)
            });
            let (parsed, _) = parsed;
            let (_, hash) = counted(|| canonical_hash(&parsed));
            for (w, n) in worst.iter_mut().zip([json, decode, hash]) {
                *w = (*w).max(n);
            }
        }
        for (w, n) in worst[3..].iter_mut().zip(solver_stages(sys)) {
            *w = (*w).max(n);
        }
    }
    worst
}

fn check(corpus: &str, designs: &[LisSystem], ceilings: [u64; 9]) {
    let worst = worst_per_stage(designs);
    for ((stage, n), ceiling) in STAGES.iter().zip(worst).zip(ceilings) {
        eprintln!("{corpus}: {stage}: {n} allocations (ceiling {ceiling})");
    }
    for ((stage, n), ceiling) in STAGES.iter().zip(worst).zip(ceilings) {
        assert!(
            n <= ceiling,
            "{corpus}: {stage} made {n} allocations, over its ceiling of {ceiling}"
        );
    }
}

/// The paper's figures.
fn figure_corpus() -> Vec<LisSystem> {
    vec![
        figures::fig1().0,
        figures::fig2_right().0,
        figures::fig6().0,
        figures::fig15().0,
        figures::fig2_family(3),
        figures::uplink_downlink().0,
    ]
}

/// A ring of `n` blocks with two relay stations, as `cold-solve` sends.
fn ring_with_two_relays(n: usize) -> LisSystem {
    let r = ring(n);
    let mut sys = r.system;
    sys.add_relay_station(r.channels[0]);
    sys.add_relay_station(r.channels[n / 3]);
    sys
}

/// Seeded designs shaped like `cold-solve`'s: random LIS of 64–200 blocks
/// and rings of 250–350 blocks with two relay stations, plus one
/// 1,000-block ring to show that parsing cost does not grow with size.
fn generated_corpus() -> Vec<LisSystem> {
    let mut rng = StdRng::seed_from_u64(2021);
    let mut designs: Vec<LisSystem> = (0..12)
        .map(|_| {
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
            generate(&cfg, &mut rng).system
        })
        .collect();
    designs.extend([250, 300, 350, 1000].map(ring_with_two_relays));
    designs
}

// The parent of the one-pass parser measured, in both profiles:
//   figures [6, 27, 0, 151, 196, 75]
//   lis-gen [13, 3_040, 0, 5_281, 5_243, 4_121]
// Decode is now one copy of the netlist plus a constant five for the
// parse at any size, and `verify_solution`'s clone of the system costs
// three allocations instead of one per block.
//
// The parent of the flat marked graph measured, in both profiles:
//   figures explain_with 151, lis_qs::solve 196, verify_solution 71
//   lis-gen explain_with 5_281, lis_qs::solve 5_243, verify_solution 3_122
// (on the 1,000-block ring, 2_072 of explain_with's in classify and 3_017
// in LisModel::doubled). A marked graph is now a constant number of flat
// arrays with its names in one arena, the block graph names nothing, and
// the SCC, biconnected, CSR and Howard buffers are sized before they fill.
//
// The parent of the certified `/qs` measured, in both profiles:
//   figures lis_qs::solve 153, lis-gen lis_qs::solve 483
// and every runtime answer paid `verify_solution` on top (44 more). Now
// `solve` checks its own answer on the d[G] it built (nine allocations:
// the overridden tokens, the potentials and the pass's scratch, the
// witness), and Johnson's `B` sets keep their buffers, so `solve` with its
// check costs 153 and 317 against the parent's 197 and 527.

#[test]
fn figure_corpus_stays_under_its_allocation_ceilings() {
    check(
        "figures",
        &figure_corpus(),
        [6, 6, 0, 106, 29, 12, 79, 153, 44],
    );
}

#[test]
fn generated_corpus_stays_under_its_allocation_ceilings() {
    check(
        "lis-gen",
        &generated_corpus(),
        [13, 6, 0, 194, 31, 12, 151, 317, 44],
    );
}

/// The flat marked graph, the block graph and every solver buffer are
/// sized up front, so a ring of 1,000 blocks costs each solver stage
/// exactly what a ring of 250 costs.
#[test]
fn ring_solver_stages_cost_the_same_at_any_size() {
    let small = solver_stages(&ring_with_two_relays(250));
    let large = solver_stages(&ring_with_two_relays(1000));
    for ((stage, s), l) in STAGES[3..].iter().zip(small).zip(large) {
        eprintln!("ring: {stage}: {s} allocations at 250 blocks, {l} at 1,000");
    }
    assert_eq!(
        small, large,
        "solver-stage allocations, 250 vs 1,000 blocks"
    );
}

/// A quoted name with escapes is the one thing the parser copies: one
/// allocation per such token, on top of the constant.
#[test]
fn an_escaped_name_costs_one_allocation_per_token() {
    let netlist = |name: &dyn Fn(usize) -> String| {
        let mut sys = LisSystem::new();
        let blocks: Vec<_> = (0..10).map(|i| sys.add_block(name(i))).collect();
        for i in 0..10 {
            sys.add_channel(blocks[i], blocks[(i + 1) % 10]);
        }
        to_netlist(&sys)
    };
    let plain = netlist(&|i| format!("core_{i}_with_a_long_name"));
    let escaped = netlist(&|i| format!("core \"{i}\" with a long name"));
    let (_, base) = counted(|| lis::core::parse_netlist(&plain).expect("parses"));
    let (_, copied) = counted(|| lis::core::parse_netlist(&escaped).expect("parses"));
    // Ten block lines and twenty channel endpoints name an escaped block.
    assert_eq!((base, copied), (5, 5 + 30));
}
