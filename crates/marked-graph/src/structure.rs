//! Undirected structural analysis: biconnected components, articulation
//! points, and reconvergent-path detection.
//!
//! Section IV of the paper classifies LIS topologies by these properties:
//! trees and SCCs *without reconvergent paths* keep their ideal throughput
//! with fixed queues of size one. The paper defines a group of simple paths
//! as *reconvergent* "if they would form a cycle if the graph was
//! undirected"; a directed cycle is not reconvergent (the SCC-without-
//! reconvergent-paths class is exactly the graphs whose undirected
//! biconnected components are single directed cycles, glued at articulation
//! points).

use crate::graph::{MarkedGraph, PlaceId, TransitionId};

/// The undirected biconnected-component decomposition of a graph.
#[derive(Debug, Clone)]
pub struct Biconnected {
    /// Places grouped by biconnected component. Self-loop places form their
    /// own singleton components.
    pub components: Vec<Vec<PlaceId>>,
    /// Articulation points (cut vertices) of the undirected multigraph.
    pub articulation_points: Vec<TransitionId>,
}

impl Biconnected {
    /// [`is_forest`] from this decomposition of `graph`: every component is
    /// one place that is not a self-loop.
    pub fn is_forest(&self, graph: &MarkedGraph) -> bool {
        self.components
            .iter()
            .all(|c| c.len() == 1 && graph.source(c[0]) != graph.target(c[0]))
    }

    /// [`has_reconvergent_paths`] from this decomposition of `graph`: some
    /// component of two or more places is not a single directed cycle.
    pub fn has_reconvergent_paths(&self, graph: &MarkedGraph) -> bool {
        let mut buffers = CycleBuffers::new(graph.transition_count());
        self.components
            .iter()
            .any(|c| c.len() >= 2 && !buffers.is_single_directed_cycle(graph, c))
    }
}

/// Computes biconnected components and articulation points of the undirected
/// view of `graph` (Hopcroft–Tarjan, iterative).
///
/// Every place is one undirected edge; parallel and antiparallel places are
/// distinct edges, so a pair of channels between the same two blocks forms a
/// 2-edge biconnected component.
///
/// # Examples
///
/// ```
/// use marked_graph::{structure::biconnected, MarkedGraph};
///
/// // A ring of 3 plus a pendant vertex: one 3-edge component, one bridge.
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// let c = g.add_transition("C");
/// let d = g.add_transition("D");
/// g.add_place(a, b, 1);
/// g.add_place(b, c, 1);
/// g.add_place(c, a, 1);
/// g.add_place(c, d, 1);
/// let bc = biconnected(&g);
/// assert_eq!(bc.components.len(), 2);
/// assert_eq!(bc.articulation_points, vec![c]);
/// ```
pub fn biconnected(graph: &MarkedGraph) -> Biconnected {
    let n = graph.transition_count();
    // Undirected adjacency in CSR form: vertex v's (neighbor, place index)
    // pairs are `adj[start[v]..start[v + 1]]`, in place-id order.
    let mut start = vec![0usize; n + 1];
    let mut loops = 0;
    for p in graph.place_ids() {
        let u = graph.source(p).index();
        let v = graph.target(p).index();
        if u != v {
            start[u + 1] += 1;
            start[v + 1] += 1;
        } else {
            loops += 1;
        }
    }
    let mut self_loops: Vec<PlaceId> = Vec::with_capacity(loops);
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut adj = vec![(0usize, 0usize); start[n]];
    let mut fill = start[..n].to_vec();
    for p in graph.place_ids() {
        let u = graph.source(p).index();
        let v = graph.target(p).index();
        if u == v {
            self_loops.push(p);
        } else {
            adj[fill[u]] = (v, p.index());
            fill[u] += 1;
            adj[fill[v]] = (u, p.index());
            fill[v] += 1;
        }
    }
    let adj = |v: usize| &adj[start[v]..start[v + 1]];

    const UNSET: usize = usize::MAX;
    let mut disc = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut time = 0usize;
    // Each undirected edge is pushed at most once, and the DFS is at most
    // `n` frames deep: neither stack ever reallocates.
    let mut edge_stack: Vec<usize> = Vec::with_capacity(graph.place_count() - loops);
    let mut components: Vec<Vec<PlaceId>> = Vec::new();
    let mut is_ap = vec![false; n];

    // Frame: (vertex, entering edge (place index) or UNSET, next adj index).
    let mut frames: Vec<(usize, usize, usize)> = Vec::with_capacity(n);
    for root in 0..n {
        if disc[root] != UNSET {
            continue;
        }
        disc[root] = time;
        low[root] = time;
        time += 1;
        frames.push((root, UNSET, 0));
        let mut root_children = 0usize;

        while let Some(&(u, pe, i)) = frames.last() {
            if i < adj(u).len() {
                frames.last_mut().expect("frame").2 += 1;
                let (v, e) = adj(u)[i];
                if e == pe {
                    continue; // do not traverse the entering edge backwards
                }
                if disc[v] == UNSET {
                    if u == root {
                        root_children += 1;
                    }
                    edge_stack.push(e);
                    disc[v] = time;
                    low[v] = time;
                    time += 1;
                    frames.push((v, e, 0));
                } else if disc[v] < disc[u] {
                    // Back edge to an ancestor.
                    edge_stack.push(e);
                    if disc[v] < low[u] {
                        low[u] = disc[v];
                    }
                }
                // disc[v] > disc[u]: the edge was handled from v's side.
            } else {
                frames.pop();
                if let Some(&(parent, _, _)) = frames.last() {
                    if low[u] < low[parent] {
                        low[parent] = low[u];
                    }
                    if low[u] >= disc[parent] {
                        // parent separates u's subtree: pop one component,
                        // down to and including the tree edge parent-u (pe),
                        // top of the stack first.
                        let at = edge_stack.iter().rposition(|&e| e == pe).unwrap_or(0);
                        let comp = edge_stack[at..].iter().rev().map(|&e| PlaceId::new(e));
                        components.push(comp.collect());
                        edge_stack.truncate(at);
                        if parent != root {
                            is_ap[parent] = true;
                        }
                    }
                }
            }
        }
        if root_children >= 2 {
            is_ap[root] = true;
        }
    }

    for p in self_loops {
        components.push(vec![p]);
    }

    Biconnected {
        components,
        articulation_points: (0..n)
            .filter(|&v| is_ap[v])
            .map(TransitionId::new)
            .collect(),
    }
}

/// The bridge places of `graph`: channels whose (undirected) removal
/// disconnects the system. A bridge is exactly a single-edge biconnected
/// component that is not a self-loop.
///
/// # Examples
///
/// ```
/// use marked_graph::{structure::bridges, MarkedGraph};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// let c = g.add_transition("C");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 1); // ring: not a bridge
/// let link = g.add_place(b, c, 1); // pendant link: bridge
/// assert_eq!(bridges(&g), vec![link]);
/// ```
pub fn bridges(graph: &MarkedGraph) -> Vec<PlaceId> {
    let mut out: Vec<PlaceId> = biconnected(graph)
        .components
        .into_iter()
        .filter(|c| c.len() == 1 && graph.source(c[0]) != graph.target(c[0]))
        .map(|c| c[0])
        .collect();
    out.sort();
    out
}

/// Whether the undirected view of `graph` is a forest (no undirected cycles,
/// hence in particular no reconvergent paths and no directed cycles).
///
/// Parallel channels, antiparallel channel pairs, and self-loops all count
/// as undirected cycles.
///
/// # Examples
///
/// ```
/// use marked_graph::{structure::is_forest, MarkedGraph};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// let c = g.add_transition("C");
/// g.add_place(a, b, 1);
/// g.add_place(a, c, 1);
/// assert!(is_forest(&g));
/// ```
pub fn is_forest(graph: &MarkedGraph) -> bool {
    biconnected(graph).is_forest(graph)
}

/// Whether a set of places forms exactly one directed elementary cycle.
///
/// Used to decide if an undirected biconnected component is a plain directed
/// cycle (not reconvergent) or a genuine reconvergence.
pub fn is_single_directed_cycle(graph: &MarkedGraph, places: &[PlaceId]) -> bool {
    CycleBuffers::new(graph.transition_count()).is_single_directed_cycle(graph, places)
}

/// Dense per-transition buffers for [`is_single_directed_cycle`], reused
/// across the components of one graph. Every query leaves them as it found
/// them (all successors unset, all in-degrees zero).
struct CycleBuffers {
    /// The one successor of each transition inside the component.
    next: Vec<u32>,
    /// In-degree of each transition inside the component.
    indeg: Vec<u32>,
}

impl CycleBuffers {
    const UNSET: u32 = u32::MAX;

    fn new(transitions: usize) -> CycleBuffers {
        CycleBuffers {
            next: vec![CycleBuffers::UNSET; transitions],
            indeg: vec![0; transitions],
        }
    }

    fn is_single_directed_cycle(&mut self, graph: &MarkedGraph, places: &[PlaceId]) -> bool {
        let answer = self.check(graph, places);
        for &p in places {
            self.next[graph.source(p).index()] = CycleBuffers::UNSET;
            self.indeg[graph.target(p).index()] = 0;
        }
        answer
    }

    fn check(&mut self, graph: &MarkedGraph, places: &[PlaceId]) -> bool {
        if places.is_empty() {
            return false;
        }
        for &p in places {
            let s = graph.source(p).index();
            let t = graph.target(p).index();
            if self.next[s] != CycleBuffers::UNSET {
                return false; // out-degree > 1 inside the component
            }
            self.next[s] = t as u32;
            self.indeg[t] += 1;
            if self.indeg[t] > 1 {
                return false; // in-degree > 1 inside the component
            }
        }
        // Sources and targets are each distinct and equally many, so they
        // are the same set iff every target is also a source.
        if places
            .iter()
            .any(|&p| self.next[graph.target(p).index()] == CycleBuffers::UNSET)
        {
            return false;
        }
        // Out-degree 1, in-degree 1 everywhere: a permutation. One cycle iff
        // following `next` from any vertex visits every vertex.
        let start = graph.source(places[0]).index() as u32;
        let mut cur = self.next[start as usize];
        let mut visited = 1;
        while cur != start {
            visited += 1;
            cur = self.next[cur as usize];
        }
        visited == places.len()
    }
}

/// Whether `graph` contains reconvergent paths in the paper's sense: an
/// undirected cycle that is not a single directed cycle.
///
/// # Examples
///
/// The Fig. 1 system (two channels from A to B, one pipelined) *is*
/// reconvergent, which is why backpressure degrades it:
///
/// ```
/// use marked_graph::{structure::has_reconvergent_paths, MarkedGraph};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let rs = g.add_transition("rs");
/// let b = g.add_transition("B");
/// g.add_place(a, rs, 1);
/// g.add_place(rs, b, 0);
/// g.add_place(a, b, 1);
/// assert!(has_reconvergent_paths(&g));
/// ```
///
/// A plain directed ring is not:
///
/// ```
/// use marked_graph::{structure::has_reconvergent_paths, MarkedGraph};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 1);
/// assert!(!has_reconvergent_paths(&g));
/// ```
pub fn has_reconvergent_paths(graph: &MarkedGraph) -> bool {
    biconnected(graph).has_reconvergent_paths(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_detection() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        let d = g.add_transition("D");
        g.add_place(a, b, 1);
        g.add_place(a, c, 1);
        g.add_place(c, d, 1);
        assert!(is_forest(&g));
        g.add_place(b, d, 1); // closes an undirected cycle
        assert!(!is_forest(&g));
    }

    #[test]
    fn parallel_channels_are_not_forest() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        g.add_place(a, b, 1);
        assert!(!is_forest(&g));
        assert!(has_reconvergent_paths(&g));
    }

    #[test]
    fn directed_ring_is_not_reconvergent() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..5).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..5 {
            g.add_place(ts[i], ts[(i + 1) % 5], 1);
        }
        assert!(!has_reconvergent_paths(&g));
        assert!(!is_forest(&g));
        let bc = biconnected(&g);
        assert_eq!(bc.components.len(), 1);
        assert_eq!(bc.components[0].len(), 5);
        assert!(bc.articulation_points.is_empty());
    }

    #[test]
    fn antiparallel_pair_is_a_directed_cycle() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        g.add_place(b, a, 1);
        assert!(!has_reconvergent_paths(&g));
    }

    #[test]
    fn figure_eight_rings_share_articulation_point() {
        // Two directed rings sharing exactly one vertex: the paper's
        // "SCC with no reconvergent paths" canonical shape.
        let mut g = MarkedGraph::new();
        let hub = g.add_transition("hub");
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        g.add_place(hub, a, 1);
        g.add_place(a, hub, 1);
        g.add_place(hub, b, 1);
        g.add_place(b, hub, 1);
        let bc = biconnected(&g);
        assert_eq!(bc.components.len(), 2);
        assert_eq!(bc.articulation_points, vec![hub]);
        assert!(!has_reconvergent_paths(&g));
    }

    #[test]
    fn diamond_is_reconvergent() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        let d = g.add_transition("D");
        g.add_place(a, b, 1);
        g.add_place(a, c, 1);
        g.add_place(b, d, 1);
        g.add_place(c, d, 1);
        assert!(has_reconvergent_paths(&g));
        let bc = biconnected(&g);
        assert_eq!(bc.components.len(), 1);
        assert_eq!(bc.components[0].len(), 4);
    }

    #[test]
    fn self_loop_is_own_component_and_not_reconvergent() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        g.add_place(a, a, 1);
        let bc = biconnected(&g);
        assert_eq!(bc.components.len(), 1);
        assert!(!has_reconvergent_paths(&g));
        assert!(!is_forest(&g)); // a self-loop is an undirected cycle
    }

    #[test]
    fn chain_of_rings_no_reconvergence() {
        // ring - bridge - ring: articulation points at bridge endpoints.
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..6).map(|i| g.add_transition(format!("t{i}"))).collect();
        g.add_place(ts[0], ts[1], 1);
        g.add_place(ts[1], ts[2], 1);
        g.add_place(ts[2], ts[0], 1);
        g.add_place(ts[2], ts[3], 1); // bridge
        g.add_place(ts[3], ts[4], 1);
        g.add_place(ts[4], ts[5], 1);
        g.add_place(ts[5], ts[3], 1);
        let bc = biconnected(&g);
        assert_eq!(bc.components.len(), 3);
        let mut aps = bc.articulation_points.clone();
        aps.sort();
        assert_eq!(aps, vec![ts[2], ts[3]]);
        assert!(!has_reconvergent_paths(&g));
    }

    #[test]
    fn single_directed_cycle_checker() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        let p1 = g.add_place(a, b, 1);
        let p2 = g.add_place(b, c, 1);
        let p3 = g.add_place(c, a, 1);
        assert!(is_single_directed_cycle(&g, &[p1, p2, p3]));
        assert!(!is_single_directed_cycle(&g, &[p1, p2]));
        assert!(!is_single_directed_cycle(&g, &[]));
        // Two disjoint 2-cycles are a permutation but not a single cycle.
        let mut h = MarkedGraph::new();
        let w = h.add_transition("w");
        let x = h.add_transition("x");
        let y = h.add_transition("y");
        let z = h.add_transition("z");
        let q1 = h.add_place(w, x, 1);
        let q2 = h.add_place(x, w, 1);
        let q3 = h.add_place(y, z, 1);
        let q4 = h.add_place(z, y, 1);
        assert!(!is_single_directed_cycle(&h, &[q1, q2, q3, q4]));
    }

    /// The two-`HashMap` formulation the dense buffers replaced.
    fn single_cycle_reference(graph: &MarkedGraph, places: &[PlaceId]) -> bool {
        use std::collections::HashMap;
        if places.is_empty() {
            return false;
        }
        let mut next: HashMap<TransitionId, TransitionId> = HashMap::new();
        let mut indeg: HashMap<TransitionId, usize> = HashMap::new();
        for &p in places {
            if next.insert(graph.source(p), graph.target(p)).is_some() {
                return false;
            }
            *indeg.entry(graph.target(p)).or_insert(0) += 1;
        }
        if indeg.values().any(|&d| d != 1) || indeg.len() != places.len() {
            return false;
        }
        let start = graph.source(places[0]);
        let mut visited = 1;
        let mut cur = next[&start];
        while cur != start {
            visited += 1;
            cur = match next.get(&cur) {
                Some(&t) => t,
                None => return false,
            };
        }
        visited == places.len()
    }

    #[test]
    fn dense_single_cycle_check_matches_the_hash_map_formulation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..2000 {
            let n = rng.gen_range(1..7);
            let mut g = MarkedGraph::new();
            let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
            // Half the trials start from a permutation, so single cycles
            // and unions of cycles both occur often.
            if trial % 2 == 0 {
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    perm.swap(i, rng.gen_range(0..=i));
                }
                for (i, &j) in perm.iter().enumerate() {
                    g.add_place(ts[i], ts[j], 1);
                }
            }
            for _ in 0..rng.gen_range(0..3) {
                g.add_place(ts[rng.gen_range(0..n)], ts[rng.gen_range(0..n)], 1);
            }
            let places: Vec<PlaceId> = g.place_ids().collect();
            let mut buffers = CycleBuffers::new(n);
            for len in 0..=places.len() {
                let subset = &places[..len];
                let expected = single_cycle_reference(&g, subset);
                assert_eq!(
                    is_single_directed_cycle(&g, subset),
                    expected,
                    "trial {trial}"
                );
                // Reused buffers must answer the same, query after query.
                assert_eq!(
                    buffers.is_single_directed_cycle(&g, subset),
                    expected,
                    "trial {trial}"
                );
            }
        }
    }

    #[test]
    fn bridges_of_chained_rings() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..6).map(|i| g.add_transition(format!("t{i}"))).collect();
        g.add_place(ts[0], ts[1], 1);
        g.add_place(ts[1], ts[2], 1);
        g.add_place(ts[2], ts[0], 1);
        let bridge = g.add_place(ts[2], ts[3], 1);
        g.add_place(ts[3], ts[4], 1);
        g.add_place(ts[4], ts[5], 1);
        g.add_place(ts[5], ts[3], 1);
        assert_eq!(bridges(&g), vec![bridge]);
        // Self-loops are never bridges.
        let mut h = MarkedGraph::new();
        let a = h.add_transition("a");
        h.add_place(a, a, 1);
        assert!(bridges(&h).is_empty());
        // In a tree every place is a bridge.
        let mut t = MarkedGraph::new();
        let x = t.add_transition("x");
        let y = t.add_transition("y");
        let z = t.add_transition("z");
        let p1 = t.add_place(x, y, 1);
        let p2 = t.add_place(x, z, 1);
        assert_eq!(bridges(&t), vec![p1, p2]);
    }

    #[test]
    fn empty_graph() {
        let g = MarkedGraph::new();
        assert!(is_forest(&g));
        assert!(!has_reconvergent_paths(&g));
        assert!(biconnected(&g).components.is_empty());
    }

    #[test]
    fn disconnected_components_handled() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        let d = g.add_transition("D");
        g.add_place(a, b, 1);
        g.add_place(c, d, 1);
        g.add_place(d, c, 1);
        let bc = biconnected(&g);
        assert_eq!(bc.components.len(), 2);
        assert!(!has_reconvergent_paths(&g));
    }
}
