//! Certificates for minimum cycle means, and an engine-free checker.
//!
//! A claim "the minimum cycle mean of this graph is λ = num/den" has a
//! short proof that takes one pass over the places to check:
//!
//! * **potentials** `p`, one integer per transition, with
//!   `p(v) ≤ p(u) + den·m − num` on every place `u → v` of `m` tokens.
//!   Summed around any cycle of `k` places the potentials cancel, leaving
//!   `den·Σm − num·k ≥ 0`: no cycle has a mean below λ;
//! * a **witness**, a closed walk of places whose mean is exactly λ: some
//!   cycle has a mean of at most λ.
//!
//! [`Certificate::check`] verifies both in exact `i128` arithmetic and
//! trusts nothing else: not the engine that found λ, not the search that
//! found the potentials. [`Certificate::find`] produces a certificate for a
//! given λ without any MCM engine: one label-correcting shortest-path pass
//! under the reduced weights `den·m − num`, started from every transition
//! at potential 0 (a virtual source, so no SCC decomposition is needed),
//! then a depth-first search for a cycle of *tight* places, those where the
//! inequality holds with equality. Every cycle of mean exactly λ is tight
//! under any valid potentials (its reduced total is 0 and no term is
//! negative), and every tight cycle has mean λ, so a witness exists exactly
//! when λ is attained.
//!
//! When some cycle has a mean below λ the pass would lower potentials
//! forever. Every `n` relaxations it checks the predecessor graph (the
//! vertex whose arc last lowered each potential) for a cycle, which can
//! only close on a cycle of negative reduced weight and eventually must, so
//! a wrong λ is rejected after amortized O(1) extra work per relaxation
//! rather than after `n·E` of them.
//!
//! The pass and the search are the crate's only label-correcting
//! shortest-path pass and its only tight-cycle search. Both run on a small
//! view of vertices and weighted arcs with two implementations: a graph's
//! places under a token slice (the certificates here), and one strongly
//! connected component's [`CsrScc`] snapshot under a mean. On the latter,
//! [`crate::mcm`] extracts critical cycles and bottlenecks from the
//! distances from the component's first vertex, which are unique, so the
//! cycle named depends on nothing but the mean and the canonical edge
//! order; and Lawler's parametric search tests each guess with the pass
//! from all-zero labels, where failure means a cycle below the guess.
//!
//! Like the MCM engines, certificates cover the paper's synchronous graphs,
//! where every transition has unit delay; both functions refuse any other.
//! Token counts are passed as one slice indexed by place, so a caller can
//! check a graph under token overrides (extra queue slots, say) without
//! cloning or rebuilding it.
//!
//! # Examples
//!
//! ```
//! use marked_graph::certificate::Certificate;
//! use marked_graph::{MarkedGraph, Ratio};
//!
//! let mut g = MarkedGraph::new();
//! let a = g.add_transition("A");
//! let b = g.add_transition("B");
//! g.add_place(a, b, 1);
//! g.add_place(b, a, 0);
//! let tokens = [1, 0];
//! let cert = Certificate::find(&g, &tokens, Ratio::new(1, 2), true).expect("1/2 is the mean");
//! assert!(cert.check(&g, &tokens));
//! assert_eq!(cert.witness.as_ref().map(Vec::len), Some(2));
//! // No cycle has a mean below 1/2, so no potentials exist at 2/3.
//! assert!(Certificate::find(&g, &tokens, Ratio::new(2, 3), false).is_none());
//! ```

use crate::csr::CsrScc;
use crate::graph::{MarkedGraph, PlaceData, PlaceId, TransitionId};
use crate::ratio::Ratio;

/// Marks a vertex whose label no arc has lowered.
const NO_PRED: u32 = u32::MAX;

/// The start label of a vertex the pass has not reached.
pub(crate) const UNREACHED: i64 = i64::MAX;

/// The pass's `i64` range: a reduced weight at or above `CAP` counts as
/// `CAP`, and the pass gives up on a label at or beyond `±CAP`. With every
/// label in `(-CAP, CAP)` and every weight in `[-CAP, CAP]` no sum
/// overflows. From all-zero labels every label stays in `(-CAP, 0]`, so a
/// place of weight `CAP` can neither lower a label nor be tight, exactly as
/// its true weight could not.
const CAP: i64 = 1 << 62;

/// A proof that a graph's minimum cycle mean is at least, or with a
/// witness exactly, [`mean`](Certificate::mean).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The claimed bound λ.
    pub mean: Ratio,
    /// One potential per transition, in transition-id order.
    pub potentials: Vec<i64>,
    /// A closed walk of places of mean exactly λ, in walk order; `None`
    /// when the certificate only bounds the minimum cycle mean from below.
    pub witness: Option<Vec<PlaceId>>,
}

impl Certificate {
    /// Looks for a certificate of `mean` on `graph` with `tokens[p]` tokens
    /// on place `p`, and for a witness too when `witness` is set.
    ///
    /// Returns `None` when some cycle has a mean below `mean`, when a
    /// witness was asked for and no cycle attains `mean`, when `mean` is
    /// negative or some delay is not 1, or when a potential falls to
    /// -2^62 or below (beyond any token count and mean a netlist can hold
    /// in practice).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` does not hold one count per place.
    pub fn find(
        graph: &MarkedGraph,
        tokens: &[u64],
        mean: Ratio,
        witness: bool,
    ) -> Option<Certificate> {
        assert_eq!(
            tokens.len(),
            graph.place_count(),
            "one token count per place"
        );
        if !unit_delays(graph) {
            return None;
        }
        let places = Places::new(graph, tokens, Reduced::new(mean)?);
        let (potentials, witness) =
            potentials_and_witness(&places, vec![0; graph.transition_count()], witness)?;
        Some(Certificate {
            mean,
            potentials,
            witness,
        })
    }

    /// Whether the certificate holds on `graph` with `tokens[p]` tokens on
    /// place `p`: every place satisfies the potential inequality, and the
    /// witness, if any, is a closed walk of mean exactly
    /// [`mean`](Certificate::mean). Uses nothing but the graph's structure
    /// and `tokens`; all arithmetic is exact. A negative mean, which no
    /// cycle can attain, and a graph with a delay other than 1 are
    /// rejected.
    pub fn check(&self, graph: &MarkedGraph, tokens: &[u64]) -> bool {
        if self.mean < Ratio::ZERO
            || self.potentials.len() != graph.transition_count()
            || tokens.len() != graph.place_count()
            || !unit_delays(graph)
        {
            return false;
        }
        // With 0 ≤ num, den < 2^63 and m < 2^64 every term stays below
        // 2^127 − 2^64 in magnitude: nothing here can overflow.
        let (num, den) = (i128::from(self.mean.numer()), i128::from(self.mean.denom()));
        let p = |t: TransitionId| i128::from(self.potentials[t.index()]);
        let feasible = graph.place_ids().all(|pl| {
            p(graph.target(pl)) <= p(graph.source(pl)) + den * i128::from(tokens[pl.index()]) - num
        });
        let Some(walk) = &self.witness else {
            return feasible;
        };
        let n_places = graph.place_count();
        if !feasible || walk.is_empty() || walk.iter().any(|pl| pl.index() >= n_places) {
            return false;
        }
        let closed = walk
            .iter()
            .zip(walk.iter().cycle().skip(1))
            .all(|(&pl, &next)| graph.target(pl) == graph.source(next));
        let m: i128 = walk.iter().map(|&pl| i128::from(tokens[pl.index()])).sum();
        let len = walk.len() as i128;
        closed && matches!(den.checked_mul(m), Some(total) if total == num * len)
    }
}

fn unit_delays(graph: &MarkedGraph) -> bool {
    graph.transition_ids().all(|t| graph.delay(t) == 1)
}

/// The reduced weight `den·m − num` of a token count `m` under a mean
/// `num/den`, in `i64` and capped at [`CAP`].
#[derive(Clone, Copy)]
struct Reduced {
    num: i64,
    den: i64,
    /// The largest token count whose weight is below `CAP`.
    max_exact: u64,
}

impl Reduced {
    /// `None` for a negative mean or one whose numerator is at or above
    /// `CAP`.
    fn new(mean: Ratio) -> Option<Reduced> {
        let (num, den) = (mean.numer(), mean.denom());
        if !(0..CAP).contains(&num) {
            return None;
        }
        // den·m − num < CAP exactly when m ≤ (CAP − 1 + num) / den.
        let max_exact = ((CAP - 1 + num) / den) as u64;
        Some(Reduced {
            num,
            den,
            max_exact,
        })
    }

    #[inline]
    fn of(self, m: u64) -> i64 {
        if m > self.max_exact {
            CAP
        } else {
            self.den * m as i64 - self.num
        }
    }
}

/// What the pass and the search run on: `n` vertices, vertex `v` with the
/// out-arcs `arcs(v)` in that order, arc `a` leading to `head(a)` under the
/// reduced weight `weight(a)`. Both implementations hold their tables as
/// plain slices and hand out a vertex's arcs as one iterator, so the hot
/// loops index no graph twice per arc.
pub(crate) trait Arcs {
    type Arc: Copy;
    type Out: Iterator<Item = Self::Arc>;
    fn n(&self) -> usize;
    fn arcs(&self, v: usize) -> Self::Out;
    fn head(&self, a: Self::Arc) -> usize;
    fn weight(&self, a: Self::Arc) -> i64;
}

/// A graph's places under a token slice and a mean: vertices are
/// transitions, arcs are places in [`MarkedGraph::outputs`] order.
struct Places<'a> {
    /// [`MarkedGraph::output_table`].
    offsets: &'a [u32],
    outputs: &'a [PlaceId],
    places: &'a [PlaceData],
    tokens: &'a [u64],
    reduced: Reduced,
}

impl<'a> Places<'a> {
    fn new(graph: &'a MarkedGraph, tokens: &'a [u64], reduced: Reduced) -> Places<'a> {
        let (offsets, outputs, places) = graph.output_table();
        Places {
            offsets,
            outputs,
            places,
            tokens,
            reduced,
        }
    }
}

impl<'a> Arcs for Places<'a> {
    type Arc = PlaceId;
    type Out = std::iter::Copied<std::slice::Iter<'a, PlaceId>>;

    fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn arcs(&self, v: usize) -> Self::Out {
        self.outputs[self.offsets[v] as usize..self.offsets[v + 1] as usize]
            .iter()
            .copied()
    }

    #[inline]
    fn head(&self, pl: PlaceId) -> usize {
        self.places[pl.index()].target.index()
    }

    #[inline]
    fn weight(&self, pl: PlaceId) -> i64 {
        self.reduced.of(self.tokens[pl.index()])
    }
}

/// One component's snapshot under a mean: vertices are local, arcs are
/// edge indices in the snapshot's canonical order.
pub(crate) struct Scc<'a> {
    csr: &'a CsrScc,
    /// The snapshot's slabs.
    row_offsets: &'a [u32],
    targets: &'a [u32],
    weights: &'a [i64],
    reduced: Reduced,
}

impl<'a> Scc<'a> {
    /// # Panics
    ///
    /// Panics if `mean` is negative or its numerator is 2^62 or more.
    pub(crate) fn new(csr: &'a CsrScc, mean: Ratio) -> Scc<'a> {
        let reduced = Reduced::new(mean).expect("a mean in the pass's range");
        Scc {
            csr,
            row_offsets: &csr.row_offsets,
            targets: &csr.targets,
            weights: &csr.weights,
            reduced,
        }
    }

    pub(crate) fn csr(&self) -> &'a CsrScc {
        self.csr
    }
}

impl Arcs for Scc<'_> {
    type Arc = usize;
    type Out = std::ops::Range<usize>;

    fn n(&self) -> usize {
        self.row_offsets.len() - 1
    }

    #[inline]
    fn arcs(&self, v: usize) -> Self::Out {
        self.row_offsets[v] as usize..self.row_offsets[v + 1] as usize
    }

    #[inline]
    fn head(&self, e: usize) -> usize {
        self.targets[e] as usize
    }

    #[inline]
    fn weight(&self, e: usize) -> i64 {
        // Snapshot weights are token counts stored as `i64`; the cast
        // recovers the count.
        self.reduced.of(self.weights[e] as u64)
    }
}

/// Shortest-path labels, and a cycle of tight arcs under them if one was
/// asked for.
pub(crate) type Potentials<A> = (Vec<i64>, Option<Vec<A>>);

/// Shortest-path labels from the start labels `p` (see [`label_correct`])
/// and, when `witness` is set, a cycle of tight arcs under them. `None`
/// when the pass fails or no tight cycle exists.
pub(crate) fn potentials_and_witness<G: Arcs>(
    g: &G,
    mut p: Vec<i64>,
    witness: bool,
) -> Option<Potentials<G::Arc>> {
    let mut mark = vec![0u32; g.n()];
    label_correct(g, &mut p, &mut mark).ok()?;
    let witness = if witness {
        Some(tight_cycle(g, &p, &mut mark)?)
    } else {
        None
    };
    Some((p, witness))
}

/// The crate's one label-correcting shortest-path pass: FIFO from every
/// vertex whose start label in `p` is finite (not [`UNREACHED`]). All-zero
/// labels are a virtual source with a zero-weight arc into every vertex;
/// zero at one vertex and [`UNREACHED`] elsewhere give the distances from
/// it. On success `p` holds the shortest labels, each in `(-CAP, CAP)`.
/// Fails as soon as the predecessor graph closes a cycle, checked every
/// `n` relaxations (the first check waits one more for each vertex that
/// starts unreached: its first label is no evidence of a cycle), or as soon
/// as a label leaves that range; `mark` is scratch. Either way the count of
/// label decreases comes back.
pub(crate) fn label_correct<G: Arcs>(
    g: &G,
    p: &mut [i64],
    mark: &mut [u32],
) -> Result<usize, usize> {
    let n = p.len();
    let mut pred = vec![NO_PRED; n];
    let mut queued = vec![false; n];
    // A FIFO ring of `n` slots: each vertex waits in it at most once at a
    // time.
    let mut ring = vec![0u32; n];
    let (mut head, mut len) = (0, 0);
    for (v, &label) in p.iter().enumerate() {
        if label != UNREACHED {
            queued[v] = true;
            ring[len] = v as u32;
            len += 1;
        }
    }
    let mut relaxations = 0;
    let mut until_check = n + (n - len);
    while len > 0 {
        let u = ring[head] as usize;
        head = if head + 1 == n { 0 } else { head + 1 };
        len -= 1;
        queued[u] = false;
        for a in g.arcs(u) {
            let v = g.head(a);
            let cand = p[u] + g.weight(a);
            if cand >= p[v] {
                continue;
            }
            if cand <= -CAP || cand >= CAP {
                return Err(relaxations);
            }
            p[v] = cand;
            pred[v] = u as u32;
            relaxations += 1;
            if !queued[v] {
                queued[v] = true;
                let tail = head + len;
                ring[if tail >= n { tail - n } else { tail }] = v as u32;
                len += 1;
            }
            until_check -= 1;
            if until_check == 0 {
                until_check = n;
                if has_pred_cycle(&pred, mark) {
                    return Err(relaxations);
                }
            }
        }
    }
    Ok(relaxations)
}

/// Whether the predecessor graph (each vertex pointing at the vertex whose
/// arc last lowered its label) has a cycle. Each walk stamps what it
/// visits with its own number, so the check is O(n).
fn has_pred_cycle(pred: &[u32], mark: &mut [u32]) -> bool {
    mark.fill(0);
    for start in 0..pred.len() {
        let stamp = start as u32 + 1;
        let mut v = start;
        while mark[v] == 0 {
            mark[v] = stamp;
            if pred[v] == NO_PRED {
                break;
            }
            v = pred[v] as usize;
        }
        if mark[v] == stamp && pred[v] != NO_PRED {
            return true;
        }
    }
    false
}

/// The crate's one tight-cycle search: the first cycle of tight arcs
/// (`p(head) = p(tail) + weight`) met by an iterative depth-first search
/// from every vertex in id order, trying each vertex's arcs in order;
/// `mark` is scratch. Every label in `p` must lie in `(-CAP, CAP)`, as a
/// successful [`label_correct`] leaves them.
pub(crate) fn tight_cycle<G: Arcs>(g: &G, p: &[i64], mark: &mut [u32]) -> Option<Vec<G::Arc>> {
    const NEW: u32 = 0;
    const OPEN: u32 = 1;
    const DONE: u32 = 2;
    let n = p.len();
    mark.fill(NEW);
    // (vertex, its arcs not yet tried); `path[i]` leads from `stack[i]` to
    // `stack[i + 1]`.
    let mut stack: Vec<(usize, G::Out)> = Vec::with_capacity(n);
    let mut path: Vec<G::Arc> = Vec::with_capacity(n);
    for root in 0..n {
        if mark[root] != NEW {
            continue;
        }
        mark[root] = OPEN;
        stack.push((root, g.arcs(root)));
        while let Some((u, rest)) = stack.last_mut() {
            let u = *u;
            let Some(a) = rest.next() else {
                mark[u] = DONE;
                stack.pop();
                path.pop();
                continue;
            };
            let v = g.head(a);
            if p[v] != p[u] + g.weight(a) {
                continue;
            }
            match mark[v] {
                NEW => {
                    mark[v] = OPEN;
                    stack.push((v, g.arcs(v)));
                    path.push(a);
                }
                OPEN => {
                    let from = stack
                        .iter()
                        .rposition(|&(t, _)| t == v)
                        .expect("an open vertex lies on the search path");
                    let mut walk = Vec::with_capacity(path.len() - from + 1);
                    walk.extend_from_slice(&path[from..]);
                    walk.push(a);
                    return Some(walk);
                }
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcm::mcm_serial;
    use crate::McmEngine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tokens_of(g: &MarkedGraph) -> Vec<u64> {
        g.place_ids().map(|p| g.tokens(p)).collect()
    }

    /// A random graph: a ring through every transition (so it is
    /// strongly connected) plus random chords, with 0–3 tokens a place.
    fn random_graph(rng: &mut StdRng) -> MarkedGraph {
        let n = rng.gen_range(1..12usize);
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..n {
            g.add_place(ts[i], ts[(i + 1) % n], rng.gen_range(0..4));
        }
        for _ in 0..rng.gen_range(0..2 * n) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            g.add_place(ts[u], ts[v], rng.gen_range(0..4));
        }
        g
    }

    /// The certificate of the graph's true minimum cycle mean, witness
    /// included.
    fn true_certificate(g: &MarkedGraph) -> (Vec<u64>, Certificate) {
        let tokens = tokens_of(g);
        let mean = mcm_serial(g, McmEngine::Karp).expect("the ring makes it cyclic");
        let cert = Certificate::find(g, &tokens, mean, true).expect("the true mean certifies");
        (tokens, cert)
    }

    fn graphs(seed: u64, count: usize) -> impl Iterator<Item = MarkedGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(move |_| random_graph(&mut rng))
    }

    #[test]
    fn the_true_mean_certifies_and_nothing_above_it_does() {
        for g in graphs(1, 300) {
            let (tokens, cert) = true_certificate(&g);
            assert!(cert.check(&g, &tokens), "{g:?}");
            let above = cert.mean + Ratio::new(1, 1000);
            assert!(
                Certificate::find(&g, &tokens, above, false).is_none(),
                "{g:?}"
            );
            if cert.mean == Ratio::ZERO {
                continue;
            }
            // Below the mean potentials exist, but no cycle attains it.
            let below = cert.mean - Ratio::new(1, 1000);
            let lower = Certificate::find(&g, &tokens, below, false).expect("a lower bound");
            assert!(lower.check(&g, &tokens));
            assert!(
                Certificate::find(&g, &tokens, below, true).is_none(),
                "{g:?}"
            );
        }
    }

    #[test]
    fn a_potential_off_by_one_on_a_tight_place_is_rejected() {
        let mut tested = 0;
        for g in graphs(2, 300) {
            let (tokens, cert) = true_certificate(&g);
            let witness = cert.witness.as_ref().expect("asked for");
            // Raising the potential at the head of a tight place breaks
            // that place's inequality by exactly one (a self-loop's two
            // ends move together).
            let Some(&tight) = witness.iter().find(|&&p| g.source(p) != g.target(p)) else {
                continue;
            };
            let mut raised = cert.clone();
            raised.potentials[g.target(tight).index()] += 1;
            assert!(!raised.check(&g, &tokens), "{g:?}");
            tested += 1;
        }
        assert!(tested >= 200, "only {tested} witnesses with a proper place");
    }

    #[test]
    fn a_mean_above_the_true_one_is_rejected() {
        for g in graphs(3, 300) {
            let (tokens, cert) = true_certificate(&g);
            for step in [Ratio::new(1, 1_000_000), Ratio::new(1, 7), Ratio::ONE] {
                let mut above = cert.clone();
                above.mean = cert.mean + step;
                assert!(!above.check(&g, &tokens), "{g:?} + {step}");
                above.witness = None;
                assert!(!above.check(&g, &tokens), "{g:?} + {step}, no witness");
            }
        }
    }

    #[test]
    fn a_witness_that_is_not_closed_is_rejected() {
        for g in graphs(4, 300) {
            let (tokens, cert) = true_certificate(&g);
            let walk = cert.witness.as_ref().expect("asked for");
            if walk.len() > 1 {
                let mut open = cert.clone();
                open.witness.as_mut().expect("present").pop();
                assert!(!open.check(&g, &tokens), "{g:?}");
            }
            let mut empty = cert.clone();
            empty.witness = Some(Vec::new());
            assert!(!empty.check(&g, &tokens));
            let mut unknown = cert.clone();
            unknown.witness = Some(vec![PlaceId::new(g.place_count())]);
            assert!(!unknown.check(&g, &tokens));
        }
    }

    #[test]
    fn an_open_walk_of_the_right_mean_is_rejected() {
        // Every place holds one token, so every walk, closed or not, has
        // mean 1: only closedness tells the witnesses below apart.
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..4).map(|i| g.add_transition(format!("t{i}"))).collect();
        let ring: Vec<PlaceId> = (0..4)
            .map(|i| g.add_place(ts[i], ts[(i + 1) % 4], 1))
            .collect();
        let tokens = tokens_of(&g);
        let cert = Certificate::find(&g, &tokens, Ratio::ONE, true).expect("mean 1");
        assert!(cert.check(&g, &tokens));
        for walk in [
            ring[..3].to_vec(),
            vec![ring[0], ring[2], ring[1], ring[3]],
            vec![ring[1]],
        ] {
            let open = Certificate {
                witness: Some(walk.clone()),
                ..cert.clone()
            };
            assert!(!open.check(&g, &tokens), "{walk:?}");
        }
    }

    #[test]
    fn a_witness_of_the_wrong_mean_is_rejected() {
        let mut rejected = 0;
        for g in graphs(5, 300) {
            let (tokens, cert) = true_certificate(&g);
            // The ring through every transition is a closed walk; when its
            // mean is not the minimum it must not pass as the witness.
            let ring: Vec<PlaceId> = (0..g.transition_count()).map(PlaceId::new).collect();
            let mut wrong = cert.clone();
            wrong.witness = Some(ring.clone());
            let ring_mean = g.cycle_mean(&ring);
            assert_eq!(wrong.check(&g, &tokens), ring_mean == cert.mean, "{g:?}");
            rejected += usize::from(ring_mean != cert.mean);
        }
        assert!(rejected >= 100, "only {rejected} rings above the minimum");
    }

    #[test]
    fn token_counts_near_u64_max_do_not_wrap() {
        // A two-place cycle with u64::MAX and 2 tokens: in i64 the first
        // count reads -1, the sum 1, and the mean 1/2. The potentials
        // below satisfy that wrapped reading exactly.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let ab = g.add_place(a, b, u64::MAX);
        let ba = g.add_place(b, a, 2);
        let tokens = [u64::MAX, 2];
        let forged = Certificate {
            mean: Ratio::new(1, 2),
            potentials: vec![0, -3],
            witness: Some(vec![ab, ba]),
        };
        assert!(!forged.check(&g, &tokens));
        // The true mean, (2^64 + 1) / 2, is beyond a Ratio: a huge λ is a
        // lower bound with potentials, never attained. The place of
        // 2^64 − 1 tokens saturates in the search, not in the check.
        let big = Ratio::new(1 << 61, 1);
        let bound = Certificate::find(&g, &tokens, big, false).expect("a lower bound");
        assert!(bound.check(&g, &tokens));
        assert!(Certificate::find(&g, &tokens, big, true).is_none());
        // A queue capacity near u64::MAX on a backedge leaves the forward
        // cycle's mean the minimum.
        let mut ring = MarkedGraph::new();
        let (x, y) = (ring.add_transition("X"), ring.add_transition("Y"));
        ring.add_place(x, y, 1);
        ring.add_place(y, x, 0);
        ring.add_place(y, x, u64::MAX - 1);
        let tokens = tokens_of(&ring);
        let cert = Certificate::find(&ring, &tokens, Ratio::new(1, 2), true).expect("1/2");
        assert!(cert.check(&ring, &tokens));
    }

    #[test]
    fn non_unit_delays_are_refused() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition_with_delay("A", 3);
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        g.add_place(b, a, 1);
        let tokens = tokens_of(&g);
        // The cycle's mean per place is 1; per time unit it would be 1/2.
        assert!(Certificate::find(&g, &tokens, Ratio::ONE, true).is_none());
        let unit = Certificate {
            mean: Ratio::ONE,
            potentials: vec![0, 0],
            witness: Some(vec![PlaceId::new(0), PlaceId::new(1)]),
        };
        assert!(!unit.check(&g, &tokens));
    }

    #[test]
    fn acyclic_graphs_have_potentials_but_no_witness() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 0);
        let tokens = [0];
        let cert = Certificate::find(&g, &tokens, Ratio::ONE, false).expect("no cycle");
        assert!(cert.check(&g, &tokens));
        assert!(Certificate::find(&g, &tokens, Ratio::ONE, true).is_none());
    }

    /// From one start vertex, labels grow along heavy places. A label that
    /// would reach 2^62 fails the pass instead of being stored, so no later
    /// sum can overflow.
    #[test]
    fn single_source_labels_past_the_range_fail_the_pass() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..3).map(|i| g.add_transition(format!("t{i}"))).collect();
        g.add_place(ts[0], ts[0], 0);
        g.add_place(ts[0], ts[1], (1 << 62) - 1);
        g.add_place(ts[1], ts[2], (1 << 62) - 1);
        g.add_place(ts[2], ts[0], 0);
        let scc = crate::scc::SccDecomposition::compute(&g);
        let csr = CsrScc::build(&g, &scc, scc.component_of(ts[0]));
        assert_eq!(csr.n(), 3);
        // Started at t0, t2's label would be 2^63 − 2.
        let mut p = vec![UNREACHED; 3];
        p[(0..3).find(|&v| csr.transition(v) == ts[0]).expect("t0")] = 0;
        let mut mark = vec![0u32; 3];
        assert!(label_correct(&Scc::new(&csr, Ratio::ZERO), &mut p, &mut mark).is_err());
    }

    /// A wrong mean is rejected after O(E) relaxations: on a ring of n
    /// transitions whose one cycle sits just below the claimed mean, the
    /// pass stops within a few laps, where Bellman–Ford's bound allows n.
    #[test]
    fn a_wrong_mean_is_rejected_in_linear_time() {
        let n = 2_000;
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..n {
            // Against the id order, the FIFO pass's worst direction.
            g.add_place(ts[(i + 1) % n], ts[i], u64::from(i % 2 == 0));
        }
        let tokens = tokens_of(&g);
        let run = |mean: Ratio| {
            let places = Places::new(&g, &tokens, Reduced::new(mean).expect("in range"));
            let mut p = vec![0i64; n];
            let mut mark = vec![0u32; n];
            label_correct(&places, &mut p, &mut mark)
        };
        let relaxations = run(Ratio::new(n as i64 / 2 + 1, n as i64)).expect_err("below the mean");
        assert!(relaxations <= 4 * n, "{relaxations} relaxations");
        assert!(run(Ratio::new(1, 2)).expect("the mean") <= 4 * n);
    }
}
