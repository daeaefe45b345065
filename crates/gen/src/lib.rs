//! Workload generation for the LIS experiments.
//!
//! Two generators back the paper's evaluation:
//!
//! * [`generate`] — the random-LIS procedure of Section VIII (partition into
//!   SCCs, Hamiltonian rings plus chords, a DAG of inter-SCC channels,
//!   relay stations per policy). Used by the Fig. 16/17 sweeps and the
//!   Table IV comparison.
//! * [`vc_to_qs`] — the Vertex Cover → Queue Sizing reduction of Section V,
//!   used both to exhibit the NP-hardness gadgets (Figs. 7–13) and to
//!   cross-validate the exact solver: the minimal queue-sizing cost of a
//!   reduced instance equals the minimum vertex cover of the source graph.
//!
//! # Examples
//!
//! ```
//! use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
//! use rand::SeedableRng;
//!
//! let cfg = GeneratorConfig::fig16(8, InsertionPolicy::Scc);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let lis = generate(&cfg, &mut rng);
//! // scc insertion keeps relay stations out of cycles: ideal MST is 1.
//! assert_eq!(lis_core::ideal_mst(&lis.system), marked_graph::Ratio::ONE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ds;
mod generator;
mod topologies;
mod vc;

pub use ds::{ds_to_td, DsInstance};
pub use generator::{generate, GeneratedLis, GeneratorConfig, InsertionPolicy};
pub use topologies::{
    butterfly, mesh, pipeline, reconvergent, ring, torus, Butterfly, Mesh, Pipeline, Reconvergent,
    Ring,
};
pub use vc::{vc_to_qs, VcInstance, VcReduction};
