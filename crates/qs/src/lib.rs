//! Queue sizing (QS) for latency-insensitive systems.
//!
//! Backpressure with finite queues can degrade a LIS's maximal sustainable
//! throughput below the ideal (infinite-queue) value. *Queue sizing* — adding
//! extra slots to shell input queues, i.e. extra tokens to backedges of the
//! doubled marked graph — restores it. The paper proves the minimal-token
//! version NP-complete (reduction from Vertex Cover, Section V) and proposes
//! the pipeline implemented here (Section VII):
//!
//! 1. [`extract_instance`] — enumerate the cycles of `d[G]`, keep the
//!    *deficient* ones (mean below the ideal MST), and record the shell
//!    queues each one runs through; a system with `θ(d[G]) = θ(G)` has
//!    none, so it is not enumerated at all;
//! 2. [`TdInstance::from_qs`] — abstract to the Token Deficit problem;
//! 3. [`simplify`] / [`collapse_sccs`] — the paper's simplification rules
//!    (subset sets, singleton cycles, SCC contraction);
//! 4. [`heuristic_solve`] (the paper's polynomial trim-down),
//!    [`greedy_cover_solve`] (a max-coverage baseline), or [`exact_solve`]
//!    (binary search + depth-K branch and bound with a wall-clock budget,
//!    optionally memoized);
//! 5. [`certify_solution`] — check `θ(d[G]) = θ(G)` for the resized
//!    system on the `d[G]` already built: potentials at λ = θ(G) and, below
//!    1, a witness cycle of mean λ, verified in O(E) by the engine-free
//!    [`marked_graph::certificate`] checker. This is the polynomial
//!    certificate of the NP-membership argument; [`solve`] runs it on every
//!    answer. [`verify_solution`] (a clone, a rebuild and an MCM solve) and
//!    [`verify_solution_simulated`] stay as test oracles.
//!
//! [`ThroughputOracle`] answers repeated "θ(d\[G\]) with these extra slots?"
//! queries incrementally (one doubled model, per-SCC re-solves with a memo
//! cache); it backs [`verify_solution_incremental`] and the oracle-based
//! trim pass [`trim_weights`], which [`solve`] runs after either algorithm
//! when [`QsConfig::oracle_trim`] is set: it can tighten solutions past the
//! Token Deficit abstraction when cycle enumeration was truncated.
//!
//! [`solve`] runs the whole pipeline on a [`lis_core::LisSystem`].
//!
//! # Examples
//!
//! ```
//! use lis_core::figures;
//! use lis_qs::{solve, verify_solution, Algorithm, QsConfig};
//!
//! let (sys, _, _) = figures::fig1();
//! // `solve` has already certified its answer; the re-solving oracle
//! // agrees.
//! let report = solve(&sys, Algorithm::Exact, &QsConfig::default())?;
//! assert_eq!(report.total_extra, 1); // one extra queue slot suffices
//! assert!(verify_solution(&sys, &report));
//! # Ok::<(), lis_qs::QsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collapse;
mod deficit;
mod error;
mod exact;
mod fixed;
mod greedy;
mod heuristic;
mod lp;
mod oracle;
mod solve;
mod td;

pub use collapse::{collapse_sccs, Collapsed};
pub use deficit::{
    cycle_deficit, extract_from_model, extract_from_model_with, extract_instance,
    extract_instance_with, DeficientCycle, QsInstance, DEFAULT_CYCLE_LIMIT,
};
pub use error::QsError;
pub use exact::{brute_force_optimum, exact_solve, exact_solve_with, ExactOptions, ExactOutcome};
pub use fixed::{minimal_uniform_q, sufficient_queue_capacities};
pub use greedy::greedy_cover_solve;
pub use heuristic::heuristic_solve;
pub use lp::{to_lp, to_lp_from_td};
pub use oracle::{trim_weights, ThroughputOracle};
pub use solve::{
    apply_solution, certify_solution, solve, solve_with_engine, verify_solution,
    verify_solution_incremental, verify_solution_simulated, Algorithm, QsConfig, QsReport,
};
pub use td::{simplify, Simplified, TdInstance, TdSolution};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<QsError>();
        assert_traits::<TdInstance>();
        assert_traits::<QsReport>();
        assert_traits::<QsInstance>();
    }
}
