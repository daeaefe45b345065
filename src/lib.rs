//! Umbrella crate for the latency-insensitive-system (LIS) workspace.
//!
//! This workspace reproduces *Collins & Carloni, "Topology-Based Performance
//! Analysis and Optimization of Latency-Insensitive Systems"* (IEEE TCAD
//! 2008), the journal extension of *Carloni & Sangiovanni-Vincentelli,
//! "Performance Analysis and Optimization of Latency Insensitive Systems"*
//! (DAC 2000). The facade re-exports every subsystem crate:
//!
//! * [`marked_graph`] — marked graphs, minimum cycle mean, cycle
//!   enumeration, SCCs, structural analysis;
//! * [`core`] (`lis-core`) — the LIS netlist model, ideal/doubled marked
//!   graphs, maximal sustainable throughput, topology classes, and the
//!   paper's figure constructors;
//! * [`qs`] (`lis-qs`) — queue sizing: deficient cycles, the Token Deficit
//!   abstraction, simplification rules, the heuristic and exact solvers;
//! * [`rsopt`] (`lis-rsopt`) — relay-station insertion optimization;
//! * [`gen`] (`lis-gen`) — the Section VIII random-LIS generator and the
//!   Vertex Cover reduction of the NP-completeness proof;
//! * [`sim`] (`lis-sim`) — the value-level cycle-accurate LIS simulator
//!   (traces, latency equivalence, measured throughput);
//! * [`cofdm`] (`lis-cofdm`) — the COFDM UWB transmitter case study;
//! * [`schedule`] (`lis-schedule`) — explicit periodic firing schedules
//!   (balanced binary words per transition) and queue-occupancy bounds per
//!   channel, plus bursty-source scenario analysis on the packed kernel;
//! * [`sweep`] (`lis-sweep`) — design-space exploration jobs: deterministic
//!   parameter grids over queue capacities, relay stations, and stall
//!   probabilities, evaluated on warm incremental solves and reduced to a
//!   Pareto front.
//!
//! # Examples
//!
//! ```
//! use lis::core::{figures, practical_mst};
//! use lis::marked_graph::Ratio;
//!
//! let (sys, _, _) = figures::fig1();
//! assert_eq!(practical_mst(&sys), Ratio::new(2, 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lis_cofdm as cofdm;
pub use lis_core as core;
pub use lis_gen as gen;
pub use lis_qs as qs;
pub use lis_rsopt as rsopt;
pub use lis_schedule as schedule;
pub use lis_sim as sim;
pub use lis_sweep as sweep;
pub use marked_graph;
