//! Modeling and performance analysis of latency-insensitive systems (LIS).
//!
//! This crate implements the core contribution of *Collins & Carloni,
//! "Topology-Based Performance Analysis and Optimization of
//! Latency-Insensitive Systems"* (IEEE TCAD 2008; extending Carloni &
//! Sangiovanni-Vincentelli, DAC 2000):
//!
//! * [`LisSystem`] — the netlist of shell-encapsulated cores, channels,
//!   relay stations, and per-channel input-queue capacities;
//! * [`LisModel`] — translation to marked graphs: the *ideal* model `G`
//!   (infinite queues) and the *doubled* model `d[G]` (finite queues with
//!   backpressure), with bookkeeping mapping places back to channels;
//! * [`mst`]/[`ideal_mst`]/[`practical_mst`] — the maximal sustainable
//!   throughput `θ` via minimum cycle mean, per the paper's SCC-aware
//!   definition;
//! * [`classify`] — the Table II topology classes that decide whether fixed
//!   queue sizing preserves the ideal MST;
//! * [`figures`] — every concrete example system of the paper, with its
//!   published throughput numbers asserted in tests.
//!
//! # Examples
//!
//! The paper's running example end to end:
//!
//! ```
//! use lis_core::{figures, ideal_mst, practical_mst, classify, TopologyClass};
//! use marked_graph::Ratio;
//!
//! let (mut sys, _upper, lower) = figures::fig1();
//! assert_eq!(ideal_mst(&sys), Ratio::ONE);
//! // Backpressure with unit queues degrades throughput by a third:
//! assert_eq!(practical_mst(&sys), Ratio::new(2, 3));
//! assert_eq!(classify(&sys), TopologyClass::General);
//! // Queue sizing: one extra slot on the lower channel restores it.
//! sys.set_queue_capacity(lower, 2)?;
//! assert_eq!(practical_mst(&sys), Ratio::ONE);
//! # Ok::<(), lis_core::LisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
mod compose;
mod error;
mod explain;
pub mod figures;
mod model;
mod mst;
mod netlist;
mod pipelining;
mod system;
mod topology;

pub use canonical::{canonical_hash, fnv1a};
pub use compose::{instantiate, Instantiation};
pub use error::LisError;
pub use explain::{analysis_report, describe_cycle, explain, explain_with, AnalysisReport};
pub use marked_graph::McmEngine;
pub use model::{LisModel, ModelKind};
pub use mst::{
    ideal_mst, ideal_mst_of, ideal_mst_with, mst, mst_degradation, mst_with,
    mst_with_critical_cycle, mst_with_critical_cycle_with, practical_mst, practical_mst_with,
};
pub use netlist::{parse_netlist, to_netlist, ParseNetlistError, MAX_CAPACITY, MAX_RELAY_STATIONS};
pub use pipelining::{expand_block_latency, LatencyExpansion};
pub use system::{BlockId, ChannelId, LisSystem};
pub use topology::{
    block_graph, classify, conservative_fixed_q, fixed_q_mst_ratio, fixed_q_preserves_mst,
    TopologyClass,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<LisSystem>();
        assert_traits::<LisModel>();
        assert_traits::<LisError>();
        assert_traits::<TopologyClass>();
    }
}
