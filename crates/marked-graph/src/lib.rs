//! Marked graphs (decision-free Petri nets) and their performance analysis.
//!
//! This crate is the analysis substrate for the latency-insensitive-system
//! (LIS) workspace. It implements the marked-graph machinery of
//! *Collins & Carloni, "Topology-Based Performance Analysis and Optimization
//! of Latency-Insensitive Systems"* (IEEE TCAD 2008), which extends
//! *Carloni & Sangiovanni-Vincentelli* (DAC 2000):
//!
//! * [`MarkedGraph`] — places (token-weighted edges) and transitions, with
//!   the paper's restriction that every place has exactly one producer and
//!   one consumer.
//! * [`FiringEngine`] — step-semantics execution (all enabled transitions
//!   fire concurrently once per clock period).
//! * [`mcm`] — minimum cycle mean with three interchangeable engines
//!   ([`mcm::McmEngine`]): Howard's policy iteration (the default, running
//!   on the flat CSR kernel in [`csr`]/[`howard`]), Karp's dynamic program
//!   (the cross-validation oracle), and Lawler's parametric search. All
//!   three return bit-identical exact rationals; the reciprocal of the
//!   minimum cycle mean is the cycle time, capped at 1 it becomes the
//!   maximal sustainable throughput of a LIS. Components are solved one
//!   after another on the calling thread; [`mcm::mcm_masked`] solves the
//!   subgraph of selected places without building it.
//! * [`certificate`] — [`certificate::Certificate`]: potentials and a
//!   witness cycle proving a minimum cycle mean, found by one
//!   label-correcting pass and checked in O(E) without any engine.
//! * [`csr`] — [`csr::CsrScc`], a flat compressed-sparse-row snapshot of
//!   one SCC, built once and reused by every engine and query.
//! * [`howard`] — Howard's policy iteration over the CSR snapshot, with
//!   reusable scratch buffers and warm-startable policies.
//! * [`incremental`] — [`incremental::IncrementalMcm`] re-evaluates the MCM
//!   under token overrides, re-solving only the touched components with a
//!   memo cache keyed by the delta vector and warm-started policies.
//! * [`cycles`] — Johnson's elementary-cycle enumeration, the input to the
//!   Token Deficit abstraction used by queue sizing.
//! * [`SccDecomposition`] — Tarjan SCCs and the condensation DAG.
//! * [`word`] — balanced binary words ([`word::BalancedWord`]), the
//!   two-integer encoding of periodic firing schedules.
//! * [`structure`] — articulation points, biconnected components, and the
//!   reconvergent-path test behind the paper's topology classification.
//!
//! # Examples
//!
//! Computing the throughput-limiting cycle of a small system:
//!
//! ```
//! use marked_graph::{mcm::minimum_cycle_mean, MarkedGraph, Ratio};
//!
//! // A three-stage ring with one token: each stage fires once every three
//! // clock periods.
//! let mut g = MarkedGraph::new();
//! let a = g.add_transition("A");
//! let b = g.add_transition("B");
//! let c = g.add_transition("C");
//! g.add_place(a, b, 1);
//! g.add_place(b, c, 0);
//! g.add_place(c, a, 0);
//! let result = minimum_cycle_mean(&g)?;
//! assert_eq!(result.mean, Ratio::new(1, 3));
//! # Ok::<(), marked_graph::GraphError>(())
//! ```
//!
//! Simulated throughput converges to the analytic value:
//!
//! ```
//! use marked_graph::{FiringEngine, MarkedGraph, Ratio};
//!
//! let mut g = MarkedGraph::new();
//! let a = g.add_transition("A");
//! let b = g.add_transition("B");
//! g.add_place(a, b, 1);
//! g.add_place(b, a, 0);
//! let mut engine = FiringEngine::new(&g);
//! let rate = engine.periodic_throughput(a, 1_000).expect("periodic");
//! assert_eq!(rate, Ratio::new(1, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod csr;
pub mod cycles;
pub mod dot;
mod error;
mod firing;
mod graph;
pub mod howard;
pub mod incremental;
pub mod mcm;
mod ratio;
mod scc;
pub mod sensitivity;
pub mod structure;
pub mod word;

pub use error::GraphError;
pub use firing::{FiringEngine, Marking, PeriodicBehavior};
pub use graph::{MarkedGraph, PlaceId, TransitionId};
pub use mcm::McmEngine;
pub use ratio::Ratio;
pub use scc::SccDecomposition;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<MarkedGraph>();
        assert_traits::<Marking>();
        assert_traits::<Ratio>();
        assert_traits::<GraphError>();
        assert_traits::<SccDecomposition>();
    }
}
