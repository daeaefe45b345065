//! The marked-graph data structure.
//!
//! A marked graph (decision-free Petri net) restricted as in the paper: every
//! place has exactly one producing and one consuming transition, so a place is
//! equivalently a *token-weighted edge* between two transitions. We store the
//! graph as flat arrays (transition names, delays, places) plus a
//! per-transition adjacency table derived from the places, which keeps the
//! bipartite invariant true by construction.

use std::fmt;
use std::sync::OnceLock;

use crate::error::GraphError;
use crate::ratio::Ratio;

/// Index of a transition in a [`MarkedGraph`].
///
/// Transitions model the actors of the system (shells and relay stations in a
/// latency-insensitive system).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(u32);

impl TransitionId {
    /// Creates a transition id from a raw index.
    pub fn new(index: usize) -> TransitionId {
        TransitionId(index as u32)
    }

    /// The raw index of this transition.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Index of a place in a [`MarkedGraph`].
///
/// In the paper's restricted model each place sits on exactly one edge
/// between two transitions, so a `PlaceId` also identifies that edge.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(u32);

impl PlaceId {
    /// Creates a place id from a raw index.
    pub fn new(index: usize) -> PlaceId {
        PlaceId(index as u32)
    }

    /// The raw index of this place.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct PlaceData {
    source: TransitionId,
    pub(crate) target: TransitionId,
    tokens: u64,
}

/// Transition adjacency in compressed-sparse-row form: the outputs of
/// transition `t` are `ids[offsets[t]..offsets[t + 1]]`, its inputs are
/// `ids[offsets[n + 1 + t]..offsets[n + 2 + t]]` (`n` transitions), each
/// in place-id order.
#[derive(Clone)]
struct Adjacency {
    offsets: Vec<u32>,
    ids: Vec<PlaceId>,
}

impl Adjacency {
    /// One counting-sort pass over the places. Walking the places backwards
    /// and filling each row from its end keeps every row in place-id order,
    /// the order in which [`MarkedGraph::add_place`] appended to it.
    fn build(transitions: usize, places: &[PlaceData]) -> Adjacency {
        let n = transitions;
        let mut offsets = vec![0u32; 2 * (n + 1)];
        for p in places {
            offsets[p.source.index()] += 1;
            offsets[n + 1 + p.target.index()] += 1;
        }
        // Inclusive prefix sums: each counter becomes the end of its row,
        // and the sentinel after each half the end of that half.
        let mut end = 0u32;
        for slot in offsets.iter_mut() {
            end += *slot;
            *slot = end;
        }
        let mut ids = vec![PlaceId(0); 2 * places.len()];
        for (i, p) in places.iter().enumerate().rev() {
            let out = &mut offsets[p.source.index()];
            *out -= 1;
            ids[*out as usize] = PlaceId::new(i);
            let inp = &mut offsets[n + 1 + p.target.index()];
            *inp -= 1;
            ids[*inp as usize] = PlaceId::new(i);
        }
        Adjacency { offsets, ids }
    }

    fn row(&self, slot: usize) -> &[PlaceId] {
        &self.ids[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }
}

/// A timed marked graph with an initial marking.
///
/// Construction happens through [`MarkedGraph::new`] plus
/// [`add_transition`](MarkedGraph::add_transition) /
/// [`add_place`](MarkedGraph::add_place); the structure (which transitions a
/// place connects) is immutable once created, but token counts and delays can
/// be updated, which is exactly what queue sizing does.
///
/// The layout is flat: transition names sit back to back in one string
/// with an end offset per transition, delays and places in one `Vec` each,
/// and [`inputs`](MarkedGraph::inputs) / [`outputs`](MarkedGraph::outputs)
/// are rows of one CSR table built from the places on first use (and
/// dropped by `add_transition` and `add_place`). A graph of any size costs
/// a constant number of allocations.
///
/// # Examples
///
/// Build the two-transition graph with a one-token place in each direction
/// (a minimal ring) and compute nothing more than its shape:
///
/// ```
/// use marked_graph::MarkedGraph;
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 1);
/// assert_eq!(g.transition_count(), 2);
/// assert_eq!(g.place_count(), 2);
/// ```
#[derive(Clone, Default)]
pub struct MarkedGraph {
    /// Every transition name, back to back.
    names: String,
    /// End of each transition's name in `names`.
    name_end: Vec<u32>,
    /// Delay per transition.
    delays: Vec<u64>,
    places: Vec<PlaceData>,
    adjacency: OnceLock<Adjacency>,
}

impl MarkedGraph {
    /// Creates an empty marked graph.
    pub fn new() -> MarkedGraph {
        MarkedGraph::default()
    }

    /// Creates an empty marked graph with room for `transitions`
    /// transitions and `places` places, for callers that know the final
    /// size up front.
    pub fn with_capacity(transitions: usize, places: usize) -> MarkedGraph {
        MarkedGraph::with_capacity_and_name_bytes(transitions, places, 0)
    }

    /// [`with_capacity`](MarkedGraph::with_capacity) plus room for
    /// `name_bytes` bytes of transition names in total, so that a caller
    /// that knows every name up front builds the graph without a single
    /// reallocation.
    pub fn with_capacity_and_name_bytes(
        transitions: usize,
        places: usize,
        name_bytes: usize,
    ) -> MarkedGraph {
        MarkedGraph {
            names: String::with_capacity(name_bytes),
            name_end: Vec::with_capacity(transitions),
            delays: Vec::with_capacity(transitions),
            places: Vec::with_capacity(places),
            adjacency: OnceLock::new(),
        }
    }

    /// Adds a transition with unit delay and returns its id.
    ///
    /// The paper models synchronous systems, where every transition has delay
    /// one (one clock period); use
    /// [`add_transition_with_delay`](MarkedGraph::add_transition_with_delay)
    /// for the general timed case.
    pub fn add_transition(&mut self, name: impl fmt::Display) -> TransitionId {
        self.add_transition_with_delay(name, 1)
    }

    /// Adds a transition with an explicit delay and returns its id.
    ///
    /// The name is written straight into the graph's name arena, so a
    /// `&str` or a [`format_args!`] costs no allocation of its own.
    pub fn add_transition_with_delay(
        &mut self,
        name: impl fmt::Display,
        delay: u64,
    ) -> TransitionId {
        use fmt::Write;
        let id = TransitionId::new(self.delays.len());
        write!(self.names, "{name}").expect("writing to a String cannot fail");
        let end = u32::try_from(self.names.len()).expect("transition names fit in 4 GiB");
        self.name_end.push(end);
        self.delays.push(delay);
        self.adjacency.take();
        id
    }

    /// Adds a place (token-weighted edge) from `source` to `target` carrying
    /// `tokens` initial tokens, and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `target` is not a transition of this graph.
    pub fn add_place(
        &mut self,
        source: TransitionId,
        target: TransitionId,
        tokens: u64,
    ) -> PlaceId {
        assert!(
            source.index() < self.delays.len(),
            "unknown source transition"
        );
        assert!(
            target.index() < self.delays.len(),
            "unknown target transition"
        );
        let id = PlaceId::new(self.places.len());
        self.places.push(PlaceData {
            source,
            target,
            tokens,
        });
        self.adjacency.take();
        id
    }

    /// The CSR adjacency, built on first use after the last change.
    fn adjacency(&self) -> &Adjacency {
        self.adjacency
            .get_or_init(|| Adjacency::build(self.delays.len(), &self.places))
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.delays.len()
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Whether the graph has no transitions.
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
    }

    /// Total number of tokens in the initial marking.
    pub fn total_tokens(&self) -> u64 {
        self.places.iter().map(|p| p.tokens).sum()
    }

    /// The name of a transition.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn transition_name(&self, t: TransitionId) -> &str {
        let end = self.name_end[t.index()] as usize;
        let start = match t.index() {
            0 => 0,
            i => self.name_end[i - 1] as usize,
        };
        &self.names[start..end]
    }

    /// The delay of a transition (1 for synchronous systems).
    pub fn delay(&self, t: TransitionId) -> u64 {
        self.delays[t.index()]
    }

    /// The source transition of a place.
    pub fn source(&self, p: PlaceId) -> TransitionId {
        self.places[p.index()].source
    }

    /// The target transition of a place.
    pub fn target(&self, p: PlaceId) -> TransitionId {
        self.places[p.index()].target
    }

    /// The initial token count of a place.
    pub fn tokens(&self, p: PlaceId) -> u64 {
        self.places[p.index()].tokens
    }

    /// Sets the initial token count of a place.
    ///
    /// Queue sizing adds tokens to backedge places; this is the mutation it
    /// uses.
    pub fn set_tokens(&mut self, p: PlaceId, tokens: u64) {
        self.places[p.index()].tokens = tokens;
    }

    /// Adds `extra` tokens to a place's initial marking.
    pub fn add_tokens(&mut self, p: PlaceId, extra: u64) {
        self.places[p.index()].tokens += extra;
    }

    /// Places entering a transition.
    pub fn inputs(&self, t: TransitionId) -> &[PlaceId] {
        assert!(t.index() < self.delays.len(), "unknown transition");
        self.adjacency().row(self.delays.len() + 1 + t.index())
    }

    /// Every transition's output places as one table: the places leaving
    /// transition `t`, in [`MarkedGraph::outputs`] order, are
    /// `ids[offsets[t]..offsets[t + 1]]`.
    pub(crate) fn output_table(&self) -> (&[u32], &[PlaceId], &[PlaceData]) {
        let adjacency = self.adjacency();
        (
            &adjacency.offsets[..=self.delays.len()],
            &adjacency.ids,
            &self.places,
        )
    }

    /// Places leaving a transition.
    pub fn outputs(&self, t: TransitionId) -> &[PlaceId] {
        assert!(t.index() < self.delays.len(), "unknown transition");
        self.adjacency().row(t.index())
    }

    /// Iterator over all transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> + '_ {
        (0..self.delays.len()).map(TransitionId::new)
    }

    /// Iterator over all place ids.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> + '_ {
        (0..self.places.len()).map(PlaceId::new)
    }

    /// Looks up a transition by name. Linear scan; meant for tests and small
    /// hand-built graphs.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transition_ids()
            .find(|&t| self.transition_name(t) == name)
    }

    /// Looks up the place from `source` to `target`, if there is exactly one
    /// obvious candidate (the first in insertion order).
    pub fn place_between(&self, source: TransitionId, target: TransitionId) -> Option<PlaceId> {
        self.places
            .iter()
            .position(|p| p.source == source && p.target == target)
            .map(PlaceId::new)
    }

    /// The cycle mean of a cycle given as a sequence of places: total tokens
    /// divided by total transition delay along the cycle.
    ///
    /// For the synchronous (unit-delay) graphs of the paper this is the
    /// token-to-place ratio of the cycle.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is empty or is not a closed walk of places.
    ///
    /// # Examples
    ///
    /// ```
    /// use marked_graph::MarkedGraph;
    ///
    /// let mut g = MarkedGraph::new();
    /// let a = g.add_transition("A");
    /// let b = g.add_transition("B");
    /// let p1 = g.add_place(a, b, 1);
    /// let p2 = g.add_place(b, a, 0);
    /// assert_eq!(g.cycle_mean(&[p1, p2]), marked_graph::Ratio::new(1, 2));
    /// ```
    pub fn cycle_mean(&self, cycle: &[PlaceId]) -> Ratio {
        assert!(!cycle.is_empty(), "cycle mean of an empty cycle");
        let mut tokens: u64 = 0;
        let mut delay: u64 = 0;
        for (i, &p) in cycle.iter().enumerate() {
            let next = cycle[(i + 1) % cycle.len()];
            assert_eq!(
                self.target(p),
                self.source(next),
                "places do not form a closed walk"
            );
            tokens += self.tokens(p);
            delay += self.delay(self.target(p));
        }
        Ratio::new(tokens as i64, delay as i64)
    }

    /// Validates that a transition id belongs to this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownTransition`] if out of range.
    pub fn check_transition(&self, t: TransitionId) -> Result<(), GraphError> {
        if t.index() < self.delays.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownTransition(t))
        }
    }

    /// Validates that a place id belongs to this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownPlace`] if out of range.
    pub fn check_place(&self, p: PlaceId) -> Result<(), GraphError> {
        if p.index() < self.places.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownPlace(p))
        }
    }

    /// Checks liveness: every cycle carries at least one token.
    ///
    /// A marked graph is live (never deadlocks) iff no token-free cycle
    /// exists. The check walks only places with zero tokens and looks for a
    /// directed cycle among them.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DeadlockedCycle`] listing one offending cycle.
    ///
    /// # Examples
    ///
    /// ```
    /// use marked_graph::MarkedGraph;
    ///
    /// let mut g = MarkedGraph::new();
    /// let a = g.add_transition("A");
    /// let b = g.add_transition("B");
    /// g.add_place(a, b, 0);
    /// g.add_place(b, a, 0);
    /// assert!(g.check_live().is_err());
    /// ```
    pub fn check_live(&self) -> Result<(), GraphError> {
        // DFS over the subgraph of zero-token places.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.delays.len();
        let mut color = vec![Color::White; n];
        let mut parent: Vec<Option<TransitionId>> = vec![None; n];
        for start in self.transition_ids() {
            if color[start.index()] != Color::White {
                continue;
            }
            // Iterative DFS with an explicit stack of (node, next-output-index).
            let mut stack: Vec<(TransitionId, usize)> = vec![(start, 0)];
            color[start.index()] = Color::Gray;
            while let Some(&(t, next)) = stack.last() {
                let outs = self.outputs(t);
                if next >= outs.len() {
                    color[t.index()] = Color::Black;
                    stack.pop();
                    continue;
                }
                stack.last_mut().expect("stack is nonempty").1 += 1;
                let p = outs[next];
                if self.tokens(p) > 0 {
                    continue;
                }
                let succ = self.target(p);
                match color[succ.index()] {
                    Color::White => {
                        color[succ.index()] = Color::Gray;
                        parent[succ.index()] = Some(t);
                        stack.push((succ, 0));
                    }
                    Color::Gray => {
                        // Found a token-free cycle; reconstruct it by walking
                        // parent pointers from `t` back to `succ`.
                        let mut cycle = vec![t];
                        let mut cur = t;
                        while cur != succ {
                            cur = parent[cur.index()].expect("gray node has a parent chain");
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Err(GraphError::DeadlockedCycle(cycle));
                    }
                    Color::Black => {}
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for MarkedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "MarkedGraph {{ {} transitions, {} places }}",
            self.delays.len(),
            self.places.len()
        )?;
        for (i, p) in self.places.iter().enumerate() {
            writeln!(
                f,
                "  p{}: {} -> {} [{} tokens]",
                i,
                self.transition_name(p.source),
                self.transition_name(p.target),
                p.tokens
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(tokens: &[u64]) -> MarkedGraph {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..tokens.len())
            .map(|i| g.add_transition(format!("t{i}")))
            .collect();
        for i in 0..tokens.len() {
            g.add_place(ts[i], ts[(i + 1) % ts.len()], tokens[i]);
        }
        g
    }

    #[test]
    fn construction_and_accessors() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition_with_delay("B", 3);
        let p = g.add_place(a, b, 2);
        assert_eq!(g.transition_count(), 2);
        assert_eq!(g.place_count(), 1);
        assert_eq!(g.transition_name(a), "A");
        assert_eq!(g.delay(a), 1);
        assert_eq!(g.delay(b), 3);
        assert_eq!(g.source(p), a);
        assert_eq!(g.target(p), b);
        assert_eq!(g.tokens(p), 2);
        assert_eq!(g.outputs(a), &[p]);
        assert_eq!(g.inputs(b), &[p]);
        assert_eq!(g.transition_by_name("B"), Some(b));
        assert_eq!(g.transition_by_name("C"), None);
        assert_eq!(g.place_between(a, b), Some(p));
        assert_eq!(g.place_between(b, a), None);
        assert_eq!(g.total_tokens(), 2);
    }

    #[test]
    fn token_mutation() {
        let mut g = ring(&[1, 0]);
        let p = PlaceId::new(1);
        g.set_tokens(p, 5);
        assert_eq!(g.tokens(p), 5);
        g.add_tokens(p, 2);
        assert_eq!(g.tokens(p), 7);
    }

    #[test]
    fn cycle_mean_of_ring() {
        let g = ring(&[1, 0, 1, 0, 1, 0]);
        let cycle: Vec<_> = g.place_ids().collect();
        assert_eq!(g.cycle_mean(&cycle), Ratio::new(1, 2));
    }

    #[test]
    fn cycle_mean_uses_delays() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition_with_delay("A", 2);
        let b = g.add_transition_with_delay("B", 3);
        let p1 = g.add_place(a, b, 4);
        let p2 = g.add_place(b, a, 1);
        assert_eq!(g.cycle_mean(&[p1, p2]), Ratio::new(5, 5));
    }

    #[test]
    #[should_panic(expected = "closed walk")]
    fn cycle_mean_rejects_non_cycle() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        let p1 = g.add_place(a, b, 1);
        let _p2 = g.add_place(b, c, 1);
        let p3 = g.add_place(c, a, 1);
        // Skipping p2 breaks the walk.
        let _ = g.cycle_mean(&[p1, p3]);
    }

    #[test]
    fn liveness_detects_token_free_cycle() {
        let live = ring(&[1, 0, 0]);
        assert!(live.check_live().is_ok());
        let dead = ring(&[0, 0, 0]);
        match dead.check_live() {
            Err(GraphError::DeadlockedCycle(c)) => assert_eq!(c.len(), 3),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn liveness_on_acyclic_graph() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        g.add_place(a, b, 0);
        g.add_place(b, c, 0);
        g.add_place(a, c, 0);
        assert!(g.check_live().is_ok());
    }

    #[test]
    fn liveness_finds_inner_cycle_not_through_root() {
        // start -> x -> y -> x (token-free cycle not containing start)
        let mut g = MarkedGraph::new();
        let s = g.add_transition("s");
        let x = g.add_transition("x");
        let y = g.add_transition("y");
        g.add_place(s, x, 0);
        g.add_place(x, y, 0);
        g.add_place(y, x, 0);
        match g.check_live() {
            Err(GraphError::DeadlockedCycle(c)) => assert_eq!(c.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn id_checks() {
        let g = ring(&[1, 1]);
        assert!(g.check_transition(TransitionId::new(1)).is_ok());
        assert!(g.check_transition(TransitionId::new(2)).is_err());
        assert!(g.check_place(PlaceId::new(1)).is_ok());
        assert!(g.check_place(PlaceId::new(9)).is_err());
    }

    #[test]
    fn debug_output_nonempty() {
        let g = ring(&[1, 0]);
        let s = format!("{g:?}");
        assert!(s.contains("2 transitions"));
        assert!(s.contains("[1 tokens]"));
    }

    #[test]
    fn parallel_places_are_allowed() {
        // Two channels between the same pair of blocks are legal in a LIS.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let p1 = g.add_place(a, b, 1);
        let p2 = g.add_place(a, b, 0);
        assert_ne!(p1, p2);
        assert_eq!(g.outputs(a).len(), 2);
        assert_eq!(g.place_between(a, b), Some(p1));
    }
}
