//! Topology classification of LIS netlists (Table II of the paper).
//!
//! The paper shows that whether backpressure can degrade throughput — and
//! whether *fixed* queue sizing can repair it — depends on the block-level
//! topology:
//!
//! | Class | Shape | Fixed q = 1 preserves ideal MST? |
//! |---|---|---|
//! | Tree | no undirected cycles | yes (all τ's drain out) |
//! | SCC, no reconvergent paths | directed cycles glued at articulation points | yes |
//! | Network of SCCs, no reconvergent paths | SCCs joined by a tree-shaped DAG | yes |
//! | General | reconvergent paths present | no — queue sizing needed (NP-complete) |
//!
//! For any topology, the conservative uniform size `q = r + 1` (`r` = total
//! relay stations) always suffices.

use marked_graph::structure::biconnected;
use marked_graph::{MarkedGraph, Ratio, SccDecomposition, TransitionId};

use crate::mst::{ideal_mst, practical_mst};
use crate::system::{BlockId, LisSystem};

/// The topology classes of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyClass {
    /// No undirected cycles at all (trees and reconvergence-free DAGs).
    Tree,
    /// One strongly connected component with no reconvergent paths: directed
    /// cycles meeting only at articulation points.
    SccNoReconvergence,
    /// Several SCCs, none with reconvergent paths, connected by a
    /// reconvergence-free DAG.
    NetworkNoReconvergence,
    /// Reconvergent paths are present somewhere; fixed queue sizing cannot
    /// be guaranteed to preserve the ideal MST.
    General,
}

impl TopologyClass {
    /// Whether the paper guarantees that uniform queues of size one keep the
    /// practical MST equal to the ideal MST for this class, regardless of
    /// relay-station placement.
    pub fn fixed_q1_suffices(self) -> bool {
        self != TopologyClass::General
    }
}

impl std::fmt::Display for TopologyClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TopologyClass::Tree => "tree",
            TopologyClass::SccNoReconvergence => "SCC without reconvergent paths",
            TopologyClass::NetworkNoReconvergence => "network of SCCs without reconvergent paths",
            TopologyClass::General => "general (reconvergent paths)",
        };
        f.write_str(s)
    }
}

/// The block-level digraph of a system: one vertex per block, one edge per
/// channel, ignoring relay stations and queue capacities (neither changes
/// the topology class). Block `b` is transition `b.index()` and channel `c`
/// is place `c.index()`; transitions are unnamed, since only the structure
/// is ever queried.
pub fn block_graph(sys: &LisSystem) -> MarkedGraph {
    let mut g = MarkedGraph::with_capacity(sys.block_count(), sys.channel_count());
    for _ in sys.block_ids() {
        g.add_transition("");
    }
    let transition = |b: BlockId| TransitionId::new(b.index());
    for c in sys.channel_ids() {
        g.add_place(
            transition(sys.channel_from(c)),
            transition(sys.channel_to(c)),
            1,
        );
    }
    g
}

/// Classifies the topology of a system per Table II.
///
/// # Examples
///
/// ```
/// use lis_core::{classify, LisSystem, TopologyClass};
///
/// let mut sys = LisSystem::new();
/// let a = sys.add_block("A");
/// let b = sys.add_block("B");
/// sys.add_channel(a, b);
/// assert_eq!(classify(&sys), TopologyClass::Tree);
///
/// sys.add_channel(b, a); // close a directed ring
/// assert_eq!(classify(&sys), TopologyClass::SccNoReconvergence);
///
/// sys.add_channel(a, b); // a second parallel path: reconvergence
/// assert_eq!(classify(&sys), TopologyClass::General);
/// ```
pub fn classify(sys: &LisSystem) -> TopologyClass {
    let g = block_graph(sys);
    // One biconnected decomposition answers both structural questions.
    let bc = biconnected(&g);
    if bc.is_forest(&g) {
        TopologyClass::Tree
    } else if !bc.has_reconvergent_paths(&g) {
        if SccDecomposition::compute(&g).is_strongly_connected() {
            TopologyClass::SccNoReconvergence
        } else {
            TopologyClass::NetworkNoReconvergence
        }
    } else {
        TopologyClass::General
    }
}

/// The conservative uniform queue capacity `r + 1` that Table II guarantees
/// to preserve the ideal MST for *any* topology (`r` = total relay-station
/// count). Usually far larger than necessary.
pub fn conservative_fixed_q(sys: &LisSystem) -> u64 {
    u64::from(sys.relay_station_count()) + 1
}

/// Checks (by direct computation, not by the classification theorem) whether
/// the system with *all* queues forced to `q` has its practical MST equal to
/// its ideal MST.
pub fn fixed_q_preserves_mst(sys: &LisSystem, q: u64) -> bool {
    let mut s = sys.clone();
    s.set_uniform_queue_capacity(q);
    practical_mst(&s) == ideal_mst(&s)
}

/// The practical-over-ideal MST ratio under uniform queues of size `q`
/// (1 means no degradation). Used by the Fig. 16/17 experiments.
pub fn fixed_q_mst_ratio(sys: &LisSystem, q: u64) -> Ratio {
    let mut s = sys.clone();
    s.set_uniform_queue_capacity(q);
    let ideal = ideal_mst(&s);
    if ideal == Ratio::ZERO {
        return Ratio::ONE;
    }
    practical_mst(&s) / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_classification() {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let c = sys.add_block("C");
        sys.add_channel(a, b);
        sys.add_channel(a, c);
        assert_eq!(classify(&sys), TopologyClass::Tree);
        assert!(classify(&sys).fixed_q1_suffices());
    }

    #[test]
    fn dag_without_reconvergence_is_tree_class() {
        // a -> b -> c plus a -> d: an out-tree (a DAG with no reconvergence).
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let c = sys.add_block("C");
        let d = sys.add_block("D");
        sys.add_channel(a, b);
        sys.add_channel(b, c);
        sys.add_channel(a, d);
        assert_eq!(classify(&sys), TopologyClass::Tree);
    }

    #[test]
    fn diamond_dag_is_general() {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let c = sys.add_block("C");
        let d = sys.add_block("D");
        sys.add_channel(a, b);
        sys.add_channel(a, c);
        sys.add_channel(b, d);
        sys.add_channel(c, d);
        assert_eq!(classify(&sys), TopologyClass::General);
        assert!(!classify(&sys).fixed_q1_suffices());
    }

    #[test]
    fn ring_is_scc_no_reconvergence() {
        let mut sys = LisSystem::new();
        let ids: Vec<_> = (0..4).map(|i| sys.add_block(format!("b{i}"))).collect();
        for i in 0..4 {
            sys.add_channel(ids[i], ids[(i + 1) % 4]);
        }
        assert_eq!(classify(&sys), TopologyClass::SccNoReconvergence);
    }

    #[test]
    fn two_rings_bridged_is_network() {
        let mut sys = LisSystem::new();
        let ids: Vec<_> = (0..4).map(|i| sys.add_block(format!("b{i}"))).collect();
        sys.add_channel(ids[0], ids[1]);
        sys.add_channel(ids[1], ids[0]);
        sys.add_channel(ids[2], ids[3]);
        sys.add_channel(ids[3], ids[2]);
        sys.add_channel(ids[1], ids[2]);
        assert_eq!(classify(&sys), TopologyClass::NetworkNoReconvergence);
    }

    #[test]
    fn ring_with_chord_is_general() {
        let mut sys = LisSystem::new();
        let ids: Vec<_> = (0..4).map(|i| sys.add_block(format!("b{i}"))).collect();
        for i in 0..4 {
            sys.add_channel(ids[i], ids[(i + 1) % 4]);
        }
        sys.add_channel(ids[0], ids[2]);
        assert_eq!(classify(&sys), TopologyClass::General);
    }

    #[test]
    fn fixed_q1_theorem_holds_on_guaranteed_classes() {
        // Ring of rings glued at an articulation point, with relay stations
        // sprinkled everywhere: q = 1 must preserve the ideal MST.
        let mut sys = LisSystem::new();
        let hub = sys.add_block("hub");
        let a = sys.add_block("a");
        let b = sys.add_block("b");
        let c1 = sys.add_channel(hub, a);
        let c2 = sys.add_channel(a, hub);
        let c3 = sys.add_channel(hub, b);
        let c4 = sys.add_channel(b, hub);
        sys.add_relay_station(c1);
        sys.add_relay_station(c2);
        sys.add_relay_station(c3);
        sys.add_relay_station(c4);
        sys.add_relay_station(c4);
        assert_eq!(classify(&sys), TopologyClass::SccNoReconvergence);
        assert!(fixed_q_preserves_mst(&sys, 1));
    }

    #[test]
    fn fixed_q1_fails_on_fig1_but_conservative_q_succeeds() {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let upper = sys.add_channel(a, b);
        sys.add_channel(a, b);
        sys.add_relay_station(upper);
        assert_eq!(classify(&sys), TopologyClass::General);
        assert!(!fixed_q_preserves_mst(&sys, 1));
        let q = conservative_fixed_q(&sys);
        assert_eq!(q, 2);
        assert!(fixed_q_preserves_mst(&sys, q));
    }

    #[test]
    fn fixed_q_ratio_monotone_for_fig1() {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let upper = sys.add_channel(a, b);
        sys.add_channel(a, b);
        sys.add_relay_station(upper);
        let r1 = fixed_q_mst_ratio(&sys, 1);
        let r2 = fixed_q_mst_ratio(&sys, 2);
        assert_eq!(r1, Ratio::new(2, 3));
        assert_eq!(r2, Ratio::ONE);
        assert!(r1 < r2);
    }

    #[test]
    fn display_of_classes() {
        assert_eq!(TopologyClass::Tree.to_string(), "tree");
        assert!(TopologyClass::General.to_string().contains("reconvergent"));
    }
}
