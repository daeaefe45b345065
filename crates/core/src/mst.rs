//! Maximal sustainable throughput (MST).
//!
//! Section III-C of the paper defines the MST `θ(G)` of a marked graph `G`:
//!
//! * 1 if `G` is acyclic (it can sustain any token rate);
//! * `min(1, 1/π(G))` if `G` is strongly connected, where the cycle time
//!   `π(G)` is the reciprocal of the minimum cycle mean;
//! * the minimum of the SCC throughputs otherwise (the slowest component
//!   throttles everything downstream and constrains everything upstream).
//!
//! All three cases collapse to `min(1, minimum cycle mean over all cycles)`,
//! with the convention that an acyclic graph has no cycles and contributes 1.

use marked_graph::mcm::{self, McmEngine, McmResult};
use marked_graph::{GraphError, MarkedGraph, PlaceId, Ratio};

use crate::model::LisModel;
use crate::system::LisSystem;

/// The maximal sustainable throughput of a marked graph.
///
/// # Examples
///
/// ```
/// use lis_core::mst;
/// use marked_graph::{MarkedGraph, Ratio};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// g.add_place(a, b, 1);
/// assert_eq!(mst(&g), Ratio::ONE); // acyclic
///
/// g.add_place(b, a, 0);
/// assert_eq!(mst(&g), Ratio::new(1, 2)); // 1 token / 2 places
/// ```
pub fn mst(graph: &MarkedGraph) -> Ratio {
    mst_with(graph, McmEngine::default())
}

/// [`mst`] with an explicit MCM engine choice; all engines agree exactly.
pub fn mst_with(graph: &MarkedGraph, engine: McmEngine) -> Ratio {
    match mcm::mcm_serial(graph, engine) {
        Some(mean) => mean.min(Ratio::ONE),
        None => Ratio::ONE,
    }
}

/// The MST together with a critical cycle, when one exists.
///
/// Returns `(1, None)` for acyclic graphs; when the graph is cyclic but all
/// cycle means are at least one (no throughput limitation), the returned
/// cycle is still the minimum-mean one, with the MST capped at 1.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for graphs with no transitions.
pub fn mst_with_critical_cycle(
    graph: &MarkedGraph,
) -> Result<(Ratio, Option<Vec<PlaceId>>), GraphError> {
    mst_with_critical_cycle_with(graph, McmEngine::default())
}

/// [`mst_with_critical_cycle`] with an explicit MCM engine choice.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for graphs with no transitions.
pub fn mst_with_critical_cycle_with(
    graph: &MarkedGraph,
    engine: McmEngine,
) -> Result<(Ratio, Option<Vec<PlaceId>>), GraphError> {
    if graph.is_empty() {
        return Err(GraphError::Empty);
    }
    match mcm::minimum_cycle_mean_with(graph, engine) {
        Ok(McmResult {
            mean,
            critical_cycle,
        }) => Ok((mean.min(Ratio::ONE), Some(critical_cycle))),
        Err(GraphError::Acyclic) => Ok((Ratio::ONE, None)),
        Err(e) => Err(e),
    }
}

/// The MST of the *ideal* LIS (infinite queues, no backpressure).
///
/// # Examples
///
/// ```
/// use lis_core::{ideal_mst, LisSystem};
/// use marked_graph::Ratio;
///
/// let mut sys = LisSystem::new();
/// let a = sys.add_block("A");
/// let b = sys.add_block("B");
/// let upper = sys.add_channel(a, b);
/// sys.add_channel(a, b);
/// sys.add_relay_station(upper);
/// // No feedback loop: the tau leaves the system, MST stays 1.
/// assert_eq!(ideal_mst(&sys), Ratio::ONE);
/// ```
pub fn ideal_mst(sys: &LisSystem) -> Ratio {
    mst(LisModel::ideal(sys).graph())
}

/// [`ideal_mst`] with an explicit MCM engine choice.
pub fn ideal_mst_with(sys: &LisSystem, engine: McmEngine) -> Ratio {
    mst_with(LisModel::ideal(sys).graph(), engine)
}

/// The ideal MST `θ(G)` read off an already-built model of the system,
/// equal to [`ideal_mst_with`] on the system it was built from.
///
/// It solves the model restricted to its forward places. On a doubled
/// model that is `G` itself, so a caller holding `d[G]` never builds `G`.
///
/// # Examples
///
/// ```
/// use lis_core::{figures, ideal_mst, ideal_mst_of, LisModel};
/// use marked_graph::McmEngine;
///
/// let (sys, _) = figures::fig15();
/// let doubled = LisModel::doubled(&sys);
/// assert_eq!(ideal_mst_of(&doubled, McmEngine::Howard), ideal_mst(&sys));
/// ```
pub fn ideal_mst_of(model: &LisModel, engine: McmEngine) -> Ratio {
    // Every place of an ideal model is a forward edge, so the mask keeps
    // the whole graph there.
    mcm::mcm_masked(model.graph(), engine, &model.forward_mask())
        .map_or(Ratio::ONE, |m| m.min(Ratio::ONE))
}

/// The MST of the *practical* LIS (finite queues with backpressure), i.e.
/// `θ(d[G])` for the system's current queue capacities.
///
/// # Examples
///
/// ```
/// use lis_core::{practical_mst, LisSystem};
/// use marked_graph::Ratio;
///
/// let mut sys = LisSystem::new();
/// let a = sys.add_block("A");
/// let b = sys.add_block("B");
/// let upper = sys.add_channel(a, b);
/// sys.add_channel(a, b);
/// sys.add_relay_station(upper);
/// // Backpressure with q = 1 degrades the MST to 2/3 (paper Fig. 5).
/// assert_eq!(practical_mst(&sys), Ratio::new(2, 3));
/// ```
pub fn practical_mst(sys: &LisSystem) -> Ratio {
    mst(LisModel::doubled(sys).graph())
}

/// [`practical_mst`] with an explicit MCM engine choice.
pub fn practical_mst_with(sys: &LisSystem, engine: McmEngine) -> Ratio {
    mst_with(LisModel::doubled(sys).graph(), engine)
}

/// How much throughput backpressure costs: `ideal - practical`, always ≥ 0.
pub fn mst_degradation(sys: &LisSystem) -> Ratio {
    ideal_mst(sys) - practical_mst(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::LisSystem;

    #[test]
    fn empty_graph_mst_is_one_by_convention() {
        // karp() returns None for the empty graph; mst() maps that to 1.
        let g = MarkedGraph::new();
        assert_eq!(mst(&g), Ratio::ONE);
        assert!(mst_with_critical_cycle(&g).is_err());
    }

    #[test]
    fn acyclic_reports_no_cycle() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        let (m, c) = mst_with_critical_cycle(&g).unwrap();
        assert_eq!(m, Ratio::ONE);
        assert!(c.is_none());
    }

    #[test]
    fn mst_is_capped_at_one() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 3);
        g.add_place(b, a, 3);
        assert_eq!(mst(&g), Ratio::ONE);
        let (m, c) = mst_with_critical_cycle(&g).unwrap();
        assert_eq!(m, Ratio::ONE);
        assert!(c.is_some());
    }

    #[test]
    fn degradation_of_fig1() {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let upper = sys.add_channel(a, b);
        sys.add_channel(a, b);
        sys.add_relay_station(upper);
        assert_eq!(ideal_mst(&sys), Ratio::ONE);
        assert_eq!(practical_mst(&sys), Ratio::new(2, 3));
        assert_eq!(mst_degradation(&sys), Ratio::new(1, 3));
    }

    #[test]
    fn relay_station_in_feedback_loop_degrades_ideal_mst() {
        // A ring A -> B -> A with one relay station on the return channel:
        // the tau keeps circulating, ideal MST = 2/3 (2 tokens, 3 places).
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        sys.add_channel(a, b);
        let back = sys.add_channel(b, a);
        sys.add_relay_station(back);
        assert_eq!(ideal_mst(&sys), Ratio::new(2, 3));
        // Doubling cannot make it worse here (no reconvergent paths).
        assert_eq!(practical_mst(&sys), Ratio::new(2, 3));
    }

    #[test]
    fn practical_never_exceeds_ideal() {
        // Doubling only adds cycles, so theta(d[G]) <= theta(G).
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let c = sys.add_block("C");
        let ab = sys.add_channel(a, b);
        sys.add_channel(b, c);
        sys.add_channel(a, c);
        sys.add_channel(c, a);
        sys.add_relay_station(ab);
        assert!(practical_mst(&sys) <= ideal_mst(&sys));
        assert!(mst_degradation(&sys) >= Ratio::ZERO);
    }

    #[test]
    fn no_relay_stations_means_no_degradation() {
        // Without relay stations every cycle of d[G] has tokens >= places.
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let c = sys.add_block("C");
        sys.add_channel(a, b);
        sys.add_channel(b, c);
        sys.add_channel(c, a);
        sys.add_channel(a, c);
        assert_eq!(ideal_mst(&sys), Ratio::ONE);
        assert_eq!(practical_mst(&sys), Ratio::ONE);
    }
}
