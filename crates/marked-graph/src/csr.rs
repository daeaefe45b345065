//! Flat compressed-sparse-row snapshots of one SCC.
//!
//! Every MCM kernel in this crate ([`crate::mcm`], [`crate::howard`],
//! [`crate::incremental`]) iterates the edges of one strongly connected
//! component over and over. The original representation — a
//! `Vec<Vec<(usize, i64, PlaceId)>>` adjacency list — pays a pointer chase
//! and a bounds check per vertex row and scatters the edge data across the
//! heap. [`CsrScc`] packs the same view into four contiguous slabs:
//!
//! * `row_offsets[v]..row_offsets[v + 1]` — the edge-index range of local
//!   vertex `v` (prefix sums, `u32`);
//! * `targets[e]` — local target vertex of edge `e` (`u32`);
//! * `weights[e]` — token count of edge `e` (`i64`, patchable in place by
//!   the incremental engine);
//! * `places[e]` — the global [`PlaceId`] behind edge `e`.
//!
//! The snapshot is built **once** per component and reused for every solve;
//! queries mutate only `weights`, never the structure. Edge order is the
//! canonical order the rest of the crate depends on for bit-identical
//! critical cycles: vertices in [`SccDecomposition::members`] order, and for
//! each vertex its outgoing places in [`MarkedGraph::outputs`] order,
//! keeping only edges internal to the component.

use crate::graph::{MarkedGraph, PlaceId, TransitionId};
use crate::scc::SccDecomposition;

/// A compressed-sparse-row view of one strongly connected component.
///
/// Cloning copies the four slabs verbatim — including any in-place weight
/// patches — so a clone is an independent snapshot sharing no state with
/// the original. [`crate::incremental::IncrementalMcm::fork`] relies on
/// this to hand warm per-component state to parallel workers.
#[derive(Clone)]
pub struct CsrScc {
    /// Global transition id per local vertex.
    pub(crate) vertices: Vec<TransitionId>,
    /// Prefix edge offsets; `row_offsets[v]..row_offsets[v + 1]` indexes the
    /// slabs below. Length `n + 1`.
    pub(crate) row_offsets: Vec<u32>,
    /// Local target vertex per edge.
    pub(crate) targets: Vec<u32>,
    /// Token weight per edge (patched in place by token-override queries).
    pub(crate) weights: Vec<i64>,
    /// Global place id per edge.
    pub(crate) places: Vec<PlaceId>,
}

impl CsrScc {
    /// Builds the snapshot of component `comp`, keeping only edges whose
    /// source and target both lie inside the component.
    ///
    /// Vertex order follows `scc.members(comp)`; edge order within a vertex
    /// follows `graph.outputs`. This is the canonical order every kernel
    /// and the critical-cycle extraction share.
    pub fn build(graph: &MarkedGraph, scc: &SccDecomposition, comp: usize) -> CsrScc {
        CsrScc::build_filtered(graph, scc, comp, |_| true)
    }

    /// [`CsrScc::build`] keeping only the places `keep` accepts, for a
    /// decomposition computed over the same subgraph.
    pub(crate) fn build_filtered(
        graph: &MarkedGraph,
        scc: &SccDecomposition,
        comp: usize,
        keep: impl Fn(PlaceId) -> bool,
    ) -> CsrScc {
        let vertices: Vec<TransitionId> = scc.members(comp).to_vec();
        let internal = |p: PlaceId| scc.component_of(graph.target(p)) == comp && keep(p);
        // Count first, so every slab is allocated once at its exact size.
        let m = vertices
            .iter()
            .map(|&t| graph.outputs(t).iter().filter(|&&p| internal(p)).count())
            .sum();
        let mut row_offsets = Vec::with_capacity(vertices.len() + 1);
        let mut targets = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m);
        let mut places = Vec::with_capacity(m);
        row_offsets.push(0);
        for &t in &vertices {
            for &p in graph.outputs(t) {
                let w = graph.target(p);
                if internal(p) {
                    targets.push(scc.local_index(w) as u32);
                    weights.push(graph.tokens(p) as i64);
                    places.push(p);
                }
            }
            row_offsets.push(targets.len() as u32);
        }
        CsrScc {
            vertices,
            row_offsets,
            targets,
            weights,
            places,
        }
    }

    /// Number of local vertices.
    pub fn n(&self) -> usize {
        self.vertices.len()
    }

    /// Number of internal edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The edge-index range of local vertex `v`.
    #[inline]
    pub fn out(&self, v: usize) -> std::ops::Range<usize> {
        self.row_offsets[v] as usize..self.row_offsets[v + 1] as usize
    }

    /// Global transition id of local vertex `v`.
    pub fn transition(&self, v: usize) -> TransitionId {
        self.vertices[v]
    }

    /// Local target vertex of edge `e`.
    #[inline]
    pub fn target(&self, e: usize) -> usize {
        self.targets[e] as usize
    }

    /// Token weight of edge `e`.
    #[inline]
    pub fn weight(&self, e: usize) -> i64 {
        self.weights[e]
    }

    /// Global place behind edge `e`.
    #[inline]
    pub fn place(&self, e: usize) -> PlaceId {
        self.places[e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_orders_edges_by_member_then_output() {
        // Ring of 3 with a chord and an external tail; the tail edge must be
        // dropped, everything else kept in member × output order.
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..3).map(|i| g.add_transition(format!("t{i}"))).collect();
        let tail = g.add_transition("tail");
        let p01 = g.add_place(ts[0], ts[1], 1);
        let p_out = g.add_place(ts[0], tail, 7);
        let p02 = g.add_place(ts[0], ts[2], 2);
        let p12 = g.add_place(ts[1], ts[2], 0);
        let p20 = g.add_place(ts[2], ts[0], 3);
        let scc = SccDecomposition::compute(&g);
        let comp = scc.component_of(ts[0]);
        let csr = CsrScc::build(&g, &scc, comp);
        assert_eq!(csr.n(), 3);
        assert_eq!(csr.edge_count(), 4);
        // Member order of Tarjan components is deterministic; map through it.
        let local: std::collections::HashMap<_, _> =
            (0..csr.n()).map(|v| (csr.transition(v), v)).collect();
        let v0 = local[&ts[0]];
        let edges: Vec<(PlaceId, usize, i64)> = csr
            .out(v0)
            .map(|e| (csr.place(e), csr.target(e), csr.weight(e)))
            .collect();
        // t0's internal edges in output order: p01 then p02 (p_out dropped).
        assert_eq!(
            edges,
            vec![(p01, local[&ts[1]], 1), (p02, local[&ts[2]], 2)]
        );
        assert!(!csr.places.contains(&p_out));
        assert!(csr.places.contains(&p12));
        assert!(csr.places.contains(&p20));
        // Every vertex's row is within bounds and covers all edges exactly.
        let total: usize = (0..csr.n()).map(|v| csr.out(v).len()).sum();
        assert_eq!(total, csr.edge_count());
    }

    #[test]
    fn matches_graph_tokens() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        g.add_place(a, b, 5);
        g.add_place(b, a, 2);
        let scc = SccDecomposition::compute(&g);
        let comp = scc.component_of(a);
        let csr = CsrScc::build(&g, &scc, comp);
        for e in 0..csr.edge_count() {
            assert_eq!(csr.weight(e), g.tokens(csr.place(e)) as i64);
        }
    }
}
