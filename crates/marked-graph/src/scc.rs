//! Strongly connected components and the condensation (component DAG).
//!
//! The paper's MST definition (Section III-C) is per-SCC: the throughput of a
//! multi-SCC graph is the minimum over its components' throughputs. Tarjan's
//! algorithm gives the components in reverse topological order, which the
//! condensation preserves.

use crate::graph::{MarkedGraph, PlaceId, TransitionId};

/// The strongly-connected-component decomposition of a [`MarkedGraph`].
///
/// # Examples
///
/// ```
/// use marked_graph::{MarkedGraph, SccDecomposition};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// let c = g.add_transition("C");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 1); // {A, B} is one SCC
/// g.add_place(b, c, 1); // C is its own SCC downstream
/// let scc = SccDecomposition::compute(&g);
/// assert_eq!(scc.count(), 2);
/// assert_eq!(scc.component_of(a), scc.component_of(b));
/// assert_ne!(scc.component_of(a), scc.component_of(c));
/// ```
#[derive(Debug, Clone)]
pub struct SccDecomposition {
    /// Component index per transition.
    comp_of: Vec<usize>,
    /// Every transition, component after component.
    members: Vec<TransitionId>,
    /// End of each component's run in `members`.
    member_end: Vec<u32>,
    /// Position of each transition within its component's `members`.
    local: Vec<u32>,
}

impl SccDecomposition {
    /// Runs Tarjan's algorithm (iteratively, so deep graphs cannot overflow
    /// the call stack) over the transition graph induced by the places.
    pub fn compute(graph: &MarkedGraph) -> SccDecomposition {
        SccDecomposition::compute_filtered(graph, |_| true)
    }

    /// [`SccDecomposition::compute`] over the subgraph of the places `keep`
    /// accepts; every transition stays a vertex. Component numbering and
    /// member order are those of `compute` run on that subgraph.
    pub(crate) fn compute_filtered(
        graph: &MarkedGraph,
        keep: impl Fn(PlaceId) -> bool,
    ) -> SccDecomposition {
        let n = graph.transition_count();
        const UNVISITED: usize = usize::MAX;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        // Every buffer is sized for the worst case up front, so the pass
        // never reallocates.
        let mut stack: Vec<usize> = Vec::with_capacity(n);
        let mut next_index = 0usize;
        let mut members: Vec<TransitionId> = Vec::with_capacity(n);
        let mut member_end: Vec<u32> = Vec::with_capacity(n);
        let mut comp_of = vec![UNVISITED; n];
        let mut local = vec![0u32; n];

        // Explicit DFS frame: (vertex, next output-place index).
        let mut call: Vec<(usize, usize)> = Vec::with_capacity(n);
        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            call.push((root, 0));
            index[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;

            while let Some(&(v, out_idx)) = call.last() {
                let outs = graph.outputs(TransitionId::new(v));
                if out_idx < outs.len() {
                    call.last_mut().expect("frame exists").1 += 1;
                    if !keep(outs[out_idx]) {
                        continue;
                    }
                    let w = graph.target(outs[out_idx]).index();
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let comp_id = member_end.len();
                        let start = members.len();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp_of[w] = comp_id;
                            local[w] = (members.len() - start) as u32;
                            members.push(TransitionId::new(w));
                            if w == v {
                                break;
                            }
                        }
                        member_end.push(members.len() as u32);
                    }
                }
            }
        }

        SccDecomposition {
            comp_of,
            members,
            member_end,
            local,
        }
    }

    /// Number of strongly connected components.
    pub fn count(&self) -> usize {
        self.member_end.len()
    }

    /// The component index a transition belongs to.
    ///
    /// Components are numbered in reverse topological order (a Tarjan
    /// property): if component `i` has an edge to component `j`, then
    /// `i > j`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn component_of(&self, t: TransitionId) -> usize {
        self.comp_of[t.index()]
    }

    /// The transitions of component `c`.
    pub fn members(&self, c: usize) -> &[TransitionId] {
        let start = match c {
            0 => 0,
            _ => self.member_end[c - 1] as usize,
        };
        &self.members[start..self.member_end[c] as usize]
    }

    /// The position of `t` within [`members`](SccDecomposition::members) of
    /// its component.
    pub(crate) fn local_index(&self, t: TransitionId) -> usize {
        self.local[t.index()] as usize
    }

    /// Iterator over component indices.
    pub fn component_ids(&self) -> impl Iterator<Item = usize> {
        0..self.member_end.len()
    }

    /// Whether the whole graph is one strongly connected component.
    pub fn is_strongly_connected(&self) -> bool {
        self.member_end.len() == 1
    }

    /// Whether a place connects two transitions of the same component.
    pub fn is_internal(&self, graph: &MarkedGraph, p: PlaceId) -> bool {
        self.comp_of[graph.source(p).index()] == self.comp_of[graph.target(p).index()]
    }

    /// Whether component `c` contains at least one place internal to it
    /// (i.e., the component is cyclic rather than a trivial single vertex).
    pub fn is_cyclic(&self, graph: &MarkedGraph, c: usize) -> bool {
        let members = self.members(c);
        if members.len() > 1 {
            return true;
        }
        // Single vertex: cyclic only if it has a self-loop place.
        let t = members[0];
        graph.outputs(t).iter().any(|&p| graph.target(p) == t)
    }

    /// Edges of the condensation: deduplicated `(from_component,
    /// to_component)` pairs over all inter-component places.
    pub fn condensation_edges(&self, graph: &MarkedGraph) -> Vec<(usize, usize)> {
        let mut edges: Vec<(usize, usize)> = graph
            .place_ids()
            .filter_map(|p| {
                let s = self.comp_of[graph.source(p).index()];
                let t = self.comp_of[graph.target(p).index()];
                (s != t).then_some((s, t))
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_vertex_no_loop() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let scc = SccDecomposition::compute(&g);
        assert_eq!(scc.count(), 1);
        assert!(!scc.is_cyclic(&g, scc.component_of(a)));
        assert!(scc.is_strongly_connected());
    }

    #[test]
    fn self_loop_is_cyclic() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        g.add_place(a, a, 1);
        let scc = SccDecomposition::compute(&g);
        assert!(scc.is_cyclic(&g, 0));
    }

    #[test]
    fn two_rings_connected_by_a_bridge() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        let d = g.add_transition("D");
        g.add_place(a, b, 1);
        g.add_place(b, a, 1);
        g.add_place(c, d, 1);
        g.add_place(d, c, 1);
        let bridge = g.add_place(b, c, 1);
        let scc = SccDecomposition::compute(&g);
        assert_eq!(scc.count(), 2);
        assert_eq!(scc.component_of(a), scc.component_of(b));
        assert_eq!(scc.component_of(c), scc.component_of(d));
        assert!(!scc.is_internal(&g, bridge));
        // Reverse topological numbering: downstream {C,D} gets the smaller id.
        assert!(scc.component_of(b) > scc.component_of(c));
        assert_eq!(
            scc.condensation_edges(&g),
            vec![(scc.component_of(b), scc.component_of(c))]
        );
    }

    #[test]
    fn chain_is_all_singletons() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..5).map(|i| g.add_transition(format!("t{i}"))).collect();
        for w in ts.windows(2) {
            g.add_place(w[0], w[1], 1);
        }
        let scc = SccDecomposition::compute(&g);
        assert_eq!(scc.count(), 5);
        for c in scc.component_ids() {
            assert_eq!(scc.members(c).len(), 1);
            assert!(!scc.is_cyclic(&g, c));
        }
    }

    #[test]
    fn big_ring_is_one_component() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..1000)
            .map(|i| g.add_transition(format!("t{i}")))
            .collect();
        for i in 0..ts.len() {
            g.add_place(ts[i], ts[(i + 1) % ts.len()], 1);
        }
        let scc = SccDecomposition::compute(&g);
        assert_eq!(scc.count(), 1);
        assert!(scc.is_cyclic(&g, 0));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 200k-vertex path; a recursive Tarjan would blow the stack here.
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..200_000)
            .map(|i| g.add_transition(format!("t{i}")))
            .collect();
        for w in ts.windows(2) {
            g.add_place(w[0], w[1], 1);
        }
        let scc = SccDecomposition::compute(&g);
        assert_eq!(scc.count(), 200_000);
    }

    #[test]
    fn parallel_edges_and_dedup_in_condensation() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        g.add_place(a, b, 0);
        let scc = SccDecomposition::compute(&g);
        assert_eq!(scc.count(), 2);
        assert_eq!(scc.condensation_edges(&g).len(), 1);
    }
}
