//! Enumeration of elementary cycles (Johnson's algorithm).
//!
//! The queue-sizing pipeline of the paper needs the explicit list of cycles
//! of the doubled graph (Section VII-A): each deficient cycle becomes a
//! constraint of the Token Deficit problem. The number of elementary cycles
//! can be exponential, so enumeration takes a hard `limit` and fails loudly
//! instead of exhausting memory — mirroring the paper's observation that "the
//! initial listing of all the cycles ... may blow up fairly quickly".

use crate::error::GraphError;
use crate::graph::{MarkedGraph, PlaceId, TransitionId};

/// Default cap on the number of enumerated cycles.
pub const DEFAULT_CYCLE_LIMIT: usize = 1_000_000;

/// Enumerates all elementary cycles of `graph` as closed walks of places.
///
/// Parallel places produce distinct cycles (one per place choice), matching
/// the marked-graph semantics where each place is an independent buffer.
/// Cycles are elementary with respect to *transitions*: no transition is
/// visited twice.
///
/// # Errors
///
/// Returns [`GraphError::TooManyCycles`] if more than `limit` cycles exist.
///
/// # Examples
///
/// ```
/// use marked_graph::{cycles::elementary_cycles, MarkedGraph};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// let c = g.add_transition("C");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 1);
/// g.add_place(b, c, 1);
/// g.add_place(c, a, 1);
/// let cycles = elementary_cycles(&g, 100)?;
/// assert_eq!(cycles.len(), 2); // A-B and A-B-C
/// # Ok::<(), marked_graph::GraphError>(())
/// ```
pub fn elementary_cycles(
    graph: &MarkedGraph,
    limit: usize,
) -> Result<Vec<Vec<PlaceId>>, GraphError> {
    let mut enumerator = Johnson::new(graph, limit);
    enumerator.run()?;
    Ok(enumerator.cycles)
}

/// Counts elementary cycles without keeping them (same `limit` behavior).
///
/// # Errors
///
/// Returns [`GraphError::TooManyCycles`] if more than `limit` cycles exist.
pub fn count_elementary_cycles(graph: &MarkedGraph, limit: usize) -> Result<usize, GraphError> {
    let mut enumerator = Johnson::new(graph, limit);
    enumerator.keep = false;
    enumerator.run()?;
    Ok(enumerator.count)
}

/// One level of Johnson's circuit search: a vertex on the current path,
/// the index of its next output place to try, and whether a cycle through
/// the start vertex was found below it.
struct Frame {
    v: usize,
    next: usize,
    found: bool,
}

/// Johnson's algorithm with explicit stacks instead of recursion, so a path
/// as long as the graph (a deep reconvergent chain) needs heap, not thread
/// stack. Emission order is that of the textbook recursive formulation.
struct Johnson<'g> {
    graph: &'g MarkedGraph,
    limit: usize,
    keep: bool,
    count: usize,
    cycles: Vec<Vec<PlaceId>>,
    blocked: Vec<bool>,
    /// `b_sets[v]` = vertices to unblock transitively when `v` unblocks.
    b_sets: Vec<Vec<usize>>,
    /// Current DFS path as places.
    path: Vec<PlaceId>,
    /// The DFS frames of the current path's vertices.
    frames: Vec<Frame>,
    /// Worklist of [`Johnson::unblock`].
    unblocking: Vec<usize>,
    /// Vertices whose `blocked` flag or `B` set may have changed since the
    /// current start began; only these need resetting before the next one.
    touched: Vec<usize>,
    start: usize,
}

impl<'g> Johnson<'g> {
    fn new(graph: &'g MarkedGraph, limit: usize) -> Johnson<'g> {
        let n = graph.transition_count();
        Johnson {
            graph,
            limit,
            keep: true,
            count: 0,
            cycles: Vec::new(),
            blocked: vec![false; n],
            b_sets: vec![Vec::new(); n],
            path: Vec::new(),
            frames: Vec::new(),
            unblocking: Vec::new(),
            touched: Vec::new(),
            start: 0,
        }
    }

    fn run(&mut self) -> Result<(), GraphError> {
        let n = self.graph.transition_count();
        for s in 0..n {
            self.start = s;
            self.circuit(s)?;
            // Every vertex is unblocked with an empty `B` set before each
            // start, as Johnson's reset of the subgraph on vertices >= s
            // requires, at the cost of what the last search touched.
            for v in self.touched.drain(..) {
                self.blocked[v] = false;
                self.b_sets[v].clear();
            }
        }
        Ok(())
    }

    /// Unblocks `v` and, transitively, every blocked vertex in the `B` sets
    /// of the vertices it unblocks. The resulting state does not depend on
    /// the order of the walk, so a worklist replaces the recursion. Each `B`
    /// set is cleared in place, keeping its buffer for the next push.
    fn unblock(&mut self, v: usize) {
        self.blocked[v] = false;
        self.unblocking.push(v);
        while let Some(u) = self.unblocking.pop() {
            for &w in &self.b_sets[u] {
                if self.blocked[w] {
                    self.blocked[w] = false;
                    self.unblocking.push(w);
                }
            }
            self.b_sets[u].clear();
        }
    }

    fn record(&mut self) -> Result<(), GraphError> {
        self.count += 1;
        if self.count > self.limit {
            return Err(GraphError::TooManyCycles { limit: self.limit });
        }
        if self.keep {
            self.cycles.push(self.path.clone());
        }
        Ok(())
    }

    /// Johnson's `CIRCUIT(s)`: every elementary cycle through the start
    /// vertex `s` in the subgraph on vertices `>= s`.
    fn circuit(&mut self, s: usize) -> Result<(), GraphError> {
        let graph = self.graph;
        self.blocked[s] = true;
        self.touched.push(s);
        self.frames.push(Frame {
            v: s,
            next: 0,
            found: false,
        });
        while let Some(top) = self.frames.last_mut() {
            let v = top.v;
            let outs = graph.outputs(TransitionId::new(v));
            if let Some(&p) = outs.get(top.next) {
                top.next += 1;
                let w = graph.target(p).index();
                if w < self.start {
                    continue; // restricted to the subgraph on vertices >= start
                }
                if w == self.start {
                    top.found = true;
                    self.path.push(p);
                    self.record()?;
                    self.path.pop();
                } else if !self.blocked[w] {
                    self.path.push(p);
                    self.blocked[w] = true;
                    self.touched.push(w);
                    self.frames.push(Frame {
                        v: w,
                        next: 0,
                        found: false,
                    });
                }
                continue;
            }
            // All outputs of `v` explored: return from its frame.
            let found = top.found;
            self.frames.pop();
            if found {
                self.unblock(v);
            } else {
                for &p in outs {
                    let w = graph.target(p).index();
                    if w >= self.start && !self.b_sets[w].contains(&v) {
                        self.b_sets[w].push(v);
                        self.touched.push(w);
                    }
                }
            }
            if let Some(parent) = self.frames.last_mut() {
                parent.found |= found;
                self.path.pop();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> MarkedGraph {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..n {
            g.add_place(ts[i], ts[(i + 1) % n], 1);
        }
        g
    }

    #[test]
    fn ring_has_one_cycle() {
        let g = ring(5);
        let cs = elementary_cycles(&g, 100).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].len(), 5);
        assert_eq!(count_elementary_cycles(&g, 100).unwrap(), 1);
    }

    #[test]
    fn acyclic_has_none() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        g.add_place(a, b, 1);
        g.add_place(a, c, 1);
        g.add_place(b, c, 1);
        assert!(elementary_cycles(&g, 100).unwrap().is_empty());
    }

    #[test]
    fn self_loop_counts() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        g.add_place(a, a, 1);
        let cs = elementary_cycles(&g, 100).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].len(), 1);
    }

    #[test]
    fn parallel_edges_give_distinct_cycles() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        g.add_place(a, b, 0);
        g.add_place(b, a, 1);
        let cs = elementary_cycles(&g, 100).unwrap();
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn complete_graph_cycle_count() {
        // K4 (directed, both directions): number of elementary cycles is
        // sum over subset sizes k>=2 of C(4,k) * (k-1)!  plus... known value:
        // directed K4 has 20 elementary cycles (6 of len 2, 8 of len 3, 6 of len 4).
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..4).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    g.add_place(ts[i], ts[j], 1);
                }
            }
        }
        let cs = elementary_cycles(&g, 1000).unwrap();
        assert_eq!(cs.len(), 20);
        let mut by_len = [0usize; 5];
        for c in &cs {
            by_len[c.len()] += 1;
        }
        assert_eq!(by_len[2], 6);
        assert_eq!(by_len[3], 8);
        assert_eq!(by_len[4], 6);
    }

    #[test]
    fn limit_is_enforced() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..6).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    g.add_place(ts[i], ts[j], 1);
                }
            }
        }
        assert_eq!(
            elementary_cycles(&g, 10).unwrap_err(),
            GraphError::TooManyCycles { limit: 10 }
        );
    }

    #[test]
    fn cycles_are_closed_walks() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..5).map(|i| g.add_transition(format!("t{i}"))).collect();
        g.add_place(ts[0], ts[1], 1);
        g.add_place(ts[1], ts[2], 1);
        g.add_place(ts[2], ts[0], 1);
        g.add_place(ts[2], ts[3], 1);
        g.add_place(ts[3], ts[4], 1);
        g.add_place(ts[4], ts[2], 1);
        g.add_place(ts[1], ts[3], 1);
        for c in elementary_cycles(&g, 1000).unwrap() {
            // cycle_mean panics on non-closed walks, so this validates shape.
            let _ = g.cycle_mean(&c);
            // Elementary: no repeated transitions.
            let mut seen: Vec<TransitionId> = c.iter().map(|&p| g.source(p)).collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), c.len());
        }
    }

    #[test]
    fn two_disjoint_rings() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..6).map(|i| g.add_transition(format!("t{i}"))).collect();
        g.add_place(ts[0], ts[1], 1);
        g.add_place(ts[1], ts[0], 1);
        g.add_place(ts[3], ts[4], 1);
        g.add_place(ts[4], ts[5], 1);
        g.add_place(ts[5], ts[3], 1);
        let cs = elementary_cycles(&g, 100).unwrap();
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn deep_path_does_not_need_a_deep_thread_stack() {
        // t0 -> t(n-1) -> t(n-2) -> ... -> t1 -> t0: the search from t0 runs
        // n levels deep; every later start sees its only output lead to a
        // smaller vertex and stops at once.
        const N: usize = 200_000;
        let worker = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut g = MarkedGraph::new();
                let ts: Vec<_> = (0..N).map(|i| g.add_transition(format!("t{i}"))).collect();
                for i in 0..N {
                    g.add_place(ts[i], ts[(i + N - 1) % N], 1);
                }
                let cs = elementary_cycles(&g, 10).unwrap();
                (cs.len(), cs[0].len())
            })
            .expect("spawn small-stack thread");
        assert_eq!(worker.join().expect("no stack overflow"), (1, N));
    }

    /// The textbook recursive formulation of Johnson's search, kept as the
    /// reference for the emission order of [`elementary_cycles`].
    struct Recursive<'g> {
        graph: &'g MarkedGraph,
        cycles: Vec<Vec<PlaceId>>,
        blocked: Vec<bool>,
        b_sets: Vec<Vec<usize>>,
        path: Vec<PlaceId>,
        start: usize,
    }

    impl Recursive<'_> {
        fn enumerate(graph: &MarkedGraph) -> Vec<Vec<PlaceId>> {
            let n = graph.transition_count();
            let mut r = Recursive {
                graph,
                cycles: Vec::new(),
                blocked: vec![false; n],
                b_sets: vec![Vec::new(); n],
                path: Vec::new(),
                start: 0,
            };
            for s in 0..n {
                r.start = s;
                for v in s..n {
                    r.blocked[v] = false;
                    r.b_sets[v].clear();
                }
                r.circuit(s);
            }
            r.cycles
        }

        fn unblock(&mut self, v: usize) {
            self.blocked[v] = false;
            for w in std::mem::take(&mut self.b_sets[v]) {
                if self.blocked[w] {
                    self.unblock(w);
                }
            }
        }

        fn circuit(&mut self, v: usize) -> bool {
            let mut found = false;
            self.blocked[v] = true;
            let outs = self.graph.outputs(TransitionId::new(v));
            for &p in outs {
                let w = self.graph.target(p).index();
                if w < self.start {
                    continue;
                }
                if w == self.start {
                    self.path.push(p);
                    self.cycles.push(self.path.clone());
                    self.path.pop();
                    found = true;
                } else if !self.blocked[w] {
                    self.path.push(p);
                    found |= self.circuit(w);
                    self.path.pop();
                }
            }
            if found {
                self.unblock(v);
            } else {
                for &p in outs {
                    let w = self.graph.target(p).index();
                    if w >= self.start && !self.b_sets[w].contains(&v) {
                        self.b_sets[w].push(v);
                    }
                }
            }
            found
        }
    }

    #[test]
    fn emission_order_matches_the_recursive_formulation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x10b5);
        for trial in 0..300 {
            let n: usize = rng.gen_range(1..8);
            let mut g = MarkedGraph::new();
            let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
            // Random multigraph: parallel places and self-loops included.
            for _ in 0..rng.gen_range(0..3 * n + 1) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                g.add_place(ts[u], ts[v], rng.gen_range(0..3));
            }
            let expected = Recursive::enumerate(&g);
            assert_eq!(
                elementary_cycles(&g, usize::MAX).unwrap(),
                expected,
                "trial {trial}: {g:?}"
            );
            assert_eq!(
                count_elementary_cycles(&g, usize::MAX).unwrap(),
                expected.len()
            );
        }
    }
}
