//! End-to-end queue sizing on a LIS netlist.
//!
//! Pipeline: extract deficient cycles from `d[G]` → abstract to a Token
//! Deficit instance (optionally collapsing SCCs and applying the
//! simplification rules) → solve (heuristic or exact) → map weights back to
//! per-channel queue growth → certify `θ(d[G]) = θ(G)` on the `d[G]`
//! already built, with the extra slots as token overrides on the queue
//! backedges: potentials at λ = θ(G) and, below 1, a witness cycle of
//! mean λ, checked by [`marked_graph::certificate`] in O(E).

use std::time::Duration;

use lis_core::{ideal_mst_of, ChannelId, LisModel, LisSystem};
use marked_graph::certificate::Certificate;
use marked_graph::{McmEngine, Ratio};

use crate::collapse::collapse_sccs;
use crate::deficit::{extract_from_model_with, DEFAULT_CYCLE_LIMIT};
use crate::error::QsError;
use crate::exact::{exact_solve_with, ExactOptions};
use crate::heuristic::heuristic_solve;
use crate::oracle::{trim_weights, ThroughputOracle};
use crate::td::{simplify, TdInstance, TdSolution};

/// Which solver to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's polynomial heuristic (Section VII-B).
    Heuristic,
    /// The paper's exact branch-and-bound with binary search on the budget.
    Exact,
}

/// Configuration of the queue-sizing pipeline.
#[derive(Debug, Clone)]
pub struct QsConfig {
    /// Cap on elementary-cycle enumeration.
    pub cycle_limit: usize,
    /// Apply the subset/singleton simplification rules before solving.
    pub simplify: bool,
    /// Try SCC collapsing (rule 4) before extraction.
    pub collapse_sccs: bool,
    /// Wall-clock budget for the exact solver (`None` = run to completion).
    pub budget: Option<Duration>,
    /// After solving, trim the solution against the real throughput with
    /// the incremental [`ThroughputOracle`]. Never breaks feasibility (each
    /// removal is verified); can go below the Token Deficit optimum when
    /// cycle enumeration was truncated. Off by default to keep the paper's
    /// reported numbers.
    pub oracle_trim: bool,
    /// The MCM engine backing every throughput solve in the pipeline
    /// (extraction, verification, oracle trimming). All engines give
    /// identical answers; Howard (the default) is the fastest.
    pub engine: McmEngine,
}

impl Default for QsConfig {
    fn default() -> QsConfig {
        QsConfig {
            cycle_limit: DEFAULT_CYCLE_LIMIT,
            simplify: true,
            collapse_sccs: true,
            budget: None,
            oracle_trim: false,
            engine: McmEngine::default(),
        }
    }
}

/// The outcome of queue sizing a system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QsReport {
    /// The ideal MST `θ(G)` the solution restores.
    pub target: Ratio,
    /// The practical MST `θ(d[G])` before queue sizing.
    pub practical_before: Ratio,
    /// Extra queue slots per channel (only channels receiving tokens).
    pub extra_tokens: Vec<(ChannelId, u64)>,
    /// Total extra slots spent.
    pub total_extra: u64,
    /// Whether the solution is proven optimal (always `false` for the
    /// heuristic on degraded instances unless trivially zero; `true` for a
    /// completed exact search).
    pub optimal: bool,
    /// Number of deficient cycles in the instance.
    pub deficient_cycles: usize,
    /// Search nodes explored by the exact solver (0 for the heuristic).
    pub nodes: u64,
}

/// Runs the queue-sizing pipeline on a system and checks its answer with
/// [`certify_solution`] on the doubled model it built.
///
/// # Errors
///
/// Returns [`QsError::TooManyCycles`] if cycle enumeration exceeds
/// `cfg.cycle_limit`, and [`QsError::Unverified`] if the answer fails its
/// check.
///
/// # Examples
///
/// The Fig. 5 degradation is fixed by one extra slot on the lower channel:
///
/// ```
/// use lis_core::figures;
/// use lis_qs::{solve, Algorithm, QsConfig};
/// use marked_graph::Ratio;
///
/// let (sys, _, lower) = figures::fig1();
/// let report = solve(&sys, Algorithm::Exact, &QsConfig::default())?;
/// assert_eq!(report.total_extra, 1);
/// assert_eq!(report.extra_tokens, vec![(lower, 1)]);
/// assert!(report.optimal);
/// # Ok::<(), lis_qs::QsError>(())
/// ```
pub fn solve(sys: &LisSystem, algo: Algorithm, cfg: &QsConfig) -> Result<QsReport, QsError> {
    // One doubled model of the whole system serves every question asked
    // about it: θ(G) on its forward places, θ(d[G]), the deficient cycles,
    // and the oracle trim.
    let model = LisModel::doubled(sys);
    let mut report = solve_core(sys, &model, algo, cfg)?;
    if cfg.oracle_trim && report.total_extra > 0 {
        let mut oracle = ThroughputOracle::from_model(sys, &model, cfg.engine);
        let mut weights: Vec<u64> = report.extra_tokens.iter().map(|&(_, w)| w).collect();
        let labels: Vec<ChannelId> = report.extra_tokens.iter().map(|&(c, _)| c).collect();
        trim_weights(&mut weights, &labels, &mut oracle, report.target);
        report.extra_tokens = labels
            .into_iter()
            .zip(weights)
            .filter(|&(_, w)| w > 0)
            .collect();
        report.total_extra = report.extra_tokens.iter().map(|&(_, w)| w).sum();
    }
    if !certify_solution(&model, &report) {
        return Err(QsError::Unverified);
    }
    Ok(report)
}

/// [`solve`] under the default [`QsConfig`] on `engine`, exact or
/// heuristic: the queue sizing behind the server's `/qs` route and a
/// sweep's queue-sizing rows.
///
/// # Errors
///
/// As [`solve`].
pub fn solve_with_engine(
    sys: &LisSystem,
    exact: bool,
    engine: McmEngine,
) -> Result<QsReport, QsError> {
    let algo = if exact {
        Algorithm::Exact
    } else {
        Algorithm::Heuristic
    };
    let cfg = QsConfig {
        engine,
        ..QsConfig::default()
    };
    solve(sys, algo, &cfg)
}

/// The pipeline proper, without the oracle-trim post-pass. `model` is the
/// doubled model of `sys`.
fn solve_core(
    sys: &LisSystem,
    model: &LisModel,
    algo: Algorithm,
    cfg: &QsConfig,
) -> Result<QsReport, QsError> {
    // Rule 4: collapse SCCs when applicable, then solve on the smaller
    // system and map channels back.
    if cfg.collapse_sccs {
        if let Some(col) = collapse_sccs(sys) {
            if col.system.block_count() < sys.block_count() {
                let mut sub_cfg = cfg.clone();
                sub_cfg.collapse_sccs = false;
                sub_cfg.oracle_trim = false;
                let sub_model = LisModel::doubled(&col.system);
                let sub = solve_core(&col.system, &sub_model, algo, &sub_cfg)?;
                let extra_tokens = sub
                    .extra_tokens
                    .iter()
                    .map(|&(c, w)| (col.channel_map[c.index()], w))
                    .collect();
                // Cycle counts describe the (smaller) collapsed instance —
                // that reduction is the point of rule 4 — but the throughput
                // figures must describe the original system: contraction
                // shortens cycles, changing their means (not their deficits).
                return Ok(QsReport {
                    extra_tokens,
                    practical_before: lis_core::mst_with(model.graph(), cfg.engine),
                    ..sub
                });
            }
        }
    }

    let target = ideal_mst_of(model, cfg.engine);
    let inst = extract_from_model_with(model, target, cfg.cycle_limit, cfg.engine)?;
    let (td, labels) = TdInstance::from_qs(&inst);

    let (solution, optimal, nodes) = run_solver(&td, algo, cfg);

    let extra_tokens: Vec<(ChannelId, u64)> = solution
        .weights
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w > 0)
        .map(|(i, &w)| (labels[i], w))
        .collect();
    Ok(QsReport {
        target: inst.target,
        practical_before: inst.practical,
        total_extra: solution.total(),
        extra_tokens,
        optimal,
        deficient_cycles: inst.cycles.len(),
        nodes,
    })
}

fn run_solver(td: &TdInstance, algo: Algorithm, cfg: &QsConfig) -> (TdSolution, bool, u64) {
    if cfg.simplify {
        let simp = simplify(td);
        let (reduced_sol, optimal, nodes) = match algo {
            Algorithm::Heuristic => (heuristic_solve(&simp.instance), false, 0),
            Algorithm::Exact => {
                let out = exact_solve_with(&simp.instance, &exact_options(cfg));
                (out.solution, out.optimal, out.nodes)
            }
        };
        let sol = simp.expand(&reduced_sol);
        let trivially_optimal = sol.total() == 0;
        (sol, optimal || trivially_optimal, nodes)
    } else {
        match algo {
            Algorithm::Heuristic => {
                let sol = heuristic_solve(td);
                let trivially_optimal = sol.total() == 0;
                (sol, trivially_optimal, 0)
            }
            Algorithm::Exact => {
                let out = exact_solve_with(td, &exact_options(cfg));
                (out.solution, out.optimal, out.nodes)
            }
        }
    }
}

fn exact_options(cfg: &QsConfig) -> ExactOptions {
    ExactOptions {
        budget: cfg.budget,
        ..ExactOptions::default()
    }
}

/// Applies a queue-sizing report to a system, growing the named queues.
pub fn apply_solution(sys: &mut LisSystem, report: &QsReport) {
    for &(c, w) in &report.extra_tokens {
        sys.grow_queue(c, w);
    }
}

/// Checks a report against `model`, the doubled model of the system it
/// sizes: the resized system's `θ(d[G])` must equal the report's target,
/// the polynomial certificate of the paper's NP-membership argument.
///
/// No clone, no rebuild, no MCM engine: the extra slots become token
/// overrides on the queue backedges, [`Certificate::find`] computes
/// potentials at λ = target (no cycle has a lower mean) and, when λ < 1, a
/// witness cycle of mean exactly λ (θ is not above the target), and
/// [`Certificate::check`] verifies both in O(E). A target of 1 needs no
/// witness: θ is capped at 1. The verdict is [`verify_solution`]'s
/// (`tests/qs_certificate.rs`), a wrong sizing is rejected after O(E) work,
/// not `n·E`, and extra slots that would overflow a queue capacity are
/// rejected too.
///
/// # Examples
///
/// ```
/// use lis_core::{figures, LisModel};
/// use lis_qs::{certify_solution, solve, Algorithm, QsConfig};
///
/// let (sys, _, _) = figures::fig1();
/// let model = LisModel::doubled(&sys);
/// let mut report = solve(&sys, Algorithm::Exact, &QsConfig::default())?;
/// assert!(certify_solution(&model, &report));
/// report.extra_tokens.clear(); // withhold the one slot Fig. 1 needs
/// assert!(!certify_solution(&model, &report));
/// # Ok::<(), lis_qs::QsError>(())
/// ```
pub fn certify_solution(model: &LisModel, report: &QsReport) -> bool {
    let graph = model.graph();
    let mut tokens: Vec<u64> = graph.place_ids().map(|p| graph.tokens(p)).collect();
    for &(c, w) in &report.extra_tokens {
        let Some(slot) = model.queue_backedge(c).map(|p| &mut tokens[p.index()]) else {
            return false;
        };
        let Some(grown) = slot.checked_add(w) else {
            return false;
        };
        *slot = grown;
    }
    let below_one = report.target < Ratio::ONE;
    Certificate::find(graph, &tokens, report.target, below_one)
        .is_some_and(|cert| cert.check(graph, &tokens) && (cert.witness.is_some() || !below_one))
}

/// Verifies a report by re-running the static analysis on a resized clone
/// of the system: the practical MST must now equal the target. The
/// from-scratch test oracle for [`certify_solution`].
pub fn verify_solution(sys: &LisSystem, report: &QsReport) -> bool {
    let mut resized = sys.clone();
    apply_solution(&mut resized, report);
    lis_core::practical_mst(&resized) == report.target
}

/// [`verify_solution`] through a reusable [`ThroughputOracle`]: no clone,
/// no model rebuild, only the components touched by the solution are
/// re-analyzed. Equivalent to the from-scratch check on every input; use it
/// when verifying many reports against the same system.
pub fn verify_solution_incremental(oracle: &mut ThroughputOracle, report: &QsReport) -> bool {
    oracle.practical_mst_with_extra(&report.extra_tokens) == report.target
}

/// Verifies a report *dynamically*: resizes the system, executes it on the
/// compiled simulation kernel for `steps` clock periods, and checks that
/// the measured steady-state rate reaches the restored target.
///
/// This is the executable counterpart of the static certificate in
/// [`verify_solution`] — independent of the MCM engines, it exercises the
/// actual token game the queues play. Cumulative rates carry an
/// `O(1/steps)` start-up transient, so the comparison uses a tolerance of
/// `max(0.01, 64/steps)`; a few thousand steps separates any real
/// degradation (rational gaps are far larger on realistic systems).
///
/// # Panics
///
/// Panics if `steps` is zero.
pub fn verify_solution_simulated(sys: &LisSystem, report: &QsReport, steps: u64) -> bool {
    assert!(steps > 0, "simulated verification needs at least one step");
    let mut resized = sys.clone();
    apply_solution(&mut resized, report);
    let mut sim = lis_sim::CompiledSim::new(&resized, lis_sim::QueueMode::Finite);
    sim.run(steps);
    let measured = sim.min_throughput().to_f64();
    let tol = (64.0 / steps as f64).max(0.01);
    (measured - report.target.to_f64()).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::figures;

    #[test]
    fn fig1_heuristic_and_exact() {
        let (sys, _, lower) = figures::fig1();
        for algo in [Algorithm::Heuristic, Algorithm::Exact] {
            let report = solve(&sys, algo, &QsConfig::default()).unwrap();
            assert_eq!(report.total_extra, 1, "{algo:?}");
            assert_eq!(report.extra_tokens, vec![(lower, 1)]);
            assert_eq!(report.practical_before, Ratio::new(2, 3));
            assert_eq!(report.target, Ratio::ONE);
            assert!(verify_solution(&sys, &report), "{algo:?}");
        }
    }

    #[test]
    fn simulated_verification_agrees_with_static_certificate() {
        let (sys, _, _) = figures::fig1();
        let report = solve(&sys, Algorithm::Exact, &QsConfig::default()).unwrap();
        assert!(verify_solution_simulated(&sys, &report, 4000));

        // Withholding the extra slot leaves the system at 2/3 < 1: the
        // simulated check must reject the claim just as the static one does.
        let mut broken = report.clone();
        broken.extra_tokens.clear();
        assert!(!verify_solution(&sys, &broken));
        assert!(!verify_solution_simulated(&sys, &broken, 4000));
    }

    #[test]
    fn fig15_solution_verifies_simulated() {
        let (sys, _) = figures::fig15();
        let report = solve(&sys, Algorithm::Exact, &QsConfig::default()).unwrap();
        assert!(verify_solution(&sys, &report));
        assert!(verify_solution_simulated(&sys, &report, 6000));
    }

    #[test]
    fn non_degraded_system_needs_nothing() {
        let (sys, _, _) = figures::fig2_right();
        let report = solve(&sys, Algorithm::Heuristic, &QsConfig::default()).unwrap();
        assert_eq!(report.total_extra, 0);
        assert!(report.optimal);
        assert!(report.extra_tokens.is_empty());
        assert!(verify_solution(&sys, &report));
    }

    #[test]
    fn fig15_queue_sizing_restores_ideal() {
        let (sys, _) = figures::fig15();
        let report = solve(&sys, Algorithm::Exact, &QsConfig::default()).unwrap();
        assert!(report.optimal);
        assert!(report.total_extra >= 1);
        assert!(verify_solution(&sys, &report));
        let h = solve(&sys, Algorithm::Heuristic, &QsConfig::default()).unwrap();
        assert!(verify_solution(&sys, &h));
        assert!(h.total_extra >= report.total_extra);
    }

    #[test]
    fn solver_options_agree_on_fig15() {
        let (sys, _) = figures::fig15();
        let base = solve(
            &sys,
            Algorithm::Exact,
            &QsConfig {
                simplify: false,
                collapse_sccs: false,
                ..QsConfig::default()
            },
        )
        .unwrap();
        let simp = solve(&sys, Algorithm::Exact, &QsConfig::default()).unwrap();
        assert_eq!(base.total_extra, simp.total_extra);
        assert!(base.optimal && simp.optimal);
    }

    #[test]
    fn collapse_path_produces_original_channel_ids() {
        // Two rings bridged by two reconvergent pipelined paths.
        let mut sys = LisSystem::new();
        let a0 = sys.add_block("a0");
        let a1 = sys.add_block("a1");
        let b0 = sys.add_block("b0");
        let b1 = sys.add_block("b1");
        sys.add_channel(a0, a1);
        sys.add_channel(a1, a0);
        sys.add_channel(b0, b1);
        sys.add_channel(b1, b0);
        let up = sys.add_channel(a1, b0);
        let down = sys.add_channel(a0, b1);
        sys.add_relay_station(up);
        let report = solve(&sys, Algorithm::Exact, &QsConfig::default()).unwrap();
        for (c, _) in &report.extra_tokens {
            assert!(sys.check_channel(*c).is_ok());
            assert!(*c == up || *c == down || c.index() < 6);
        }
        assert!(verify_solution(&sys, &report));
    }

    #[test]
    fn oracle_trim_preserves_feasibility() {
        let (sys, _) = figures::fig15();
        for algo in [Algorithm::Heuristic, Algorithm::Exact] {
            let plain = solve(&sys, algo, &QsConfig::default()).unwrap();
            let trimmed = solve(
                &sys,
                algo,
                &QsConfig {
                    oracle_trim: true,
                    ..QsConfig::default()
                },
            )
            .unwrap();
            assert!(verify_solution(&sys, &trimmed), "{algo:?}");
            assert!(trimmed.total_extra <= plain.total_extra, "{algo:?}");
            let mut oracle = ThroughputOracle::new(&sys);
            assert!(verify_solution_incremental(&mut oracle, &trimmed));
        }
    }

    #[test]
    fn incremental_verification_agrees_with_clone_based() {
        let (sys, _, _) = figures::fig1();
        let report = solve(&sys, Algorithm::Exact, &QsConfig::default()).unwrap();
        let mut oracle = ThroughputOracle::new(&sys);
        assert_eq!(
            verify_solution(&sys, &report),
            verify_solution_incremental(&mut oracle, &report)
        );
        // A broken report must fail both ways.
        let mut broken = report.clone();
        broken.extra_tokens.clear();
        assert_eq!(
            verify_solution(&sys, &broken),
            verify_solution_incremental(&mut oracle, &broken)
        );
        assert!(!verify_solution(&sys, &broken));
    }

    #[test]
    fn collapse_and_direct_agree_on_totals() {
        let mut sys = LisSystem::new();
        let a0 = sys.add_block("a0");
        let a1 = sys.add_block("a1");
        let b0 = sys.add_block("b0");
        sys.add_channel(a0, a1);
        sys.add_channel(a1, a0);
        let p1 = sys.add_channel(a1, b0);
        sys.add_channel(a0, b0);
        sys.add_relay_station(p1);
        let with = solve(&sys, Algorithm::Exact, &QsConfig::default()).unwrap();
        let without = solve(
            &sys,
            Algorithm::Exact,
            &QsConfig {
                collapse_sccs: false,
                ..QsConfig::default()
            },
        )
        .unwrap();
        assert_eq!(with.total_extra, without.total_extra);
        assert!(verify_solution(&sys, &with));
        assert!(verify_solution(&sys, &without));
    }
}
