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
//! place that last lowered each potential) for a cycle, which can only
//! close on a cycle of negative reduced weight and eventually must, so a
//! wrong λ is rejected after amortized O(1) extra work per relaxation
//! rather than after `n·E` of them.
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

use std::collections::VecDeque;

use crate::graph::{MarkedGraph, PlaceId, TransitionId};
use crate::ratio::Ratio;

/// Marks a transition whose potential no place has lowered.
const NO_PRED: u32 = u32::MAX;

/// The search's `i64` range: a reduced weight at or above `CAP` counts as
/// `CAP`, and the search gives up on a potential at or below `-CAP`. With
/// every potential in `(-CAP, 0]`, a place of weight `CAP` can neither
/// lower a potential nor be tight, exactly as its true weight could not,
/// and no sum overflows.
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
        let weights = Weights::new(graph, tokens, mean)?;
        let n = graph.transition_count();
        let mut potentials = vec![0i64; n];
        let mut mark = vec![0u32; n];
        label_correct(graph, &weights, &mut potentials, &mut mark).ok()?;
        let witness = if witness {
            Some(tight_cycle(graph, &weights, &potentials, &mut mark)?)
        } else {
            None
        };
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

/// The search's reduced place weights `den·m − num`, in `i64` and capped
/// at [`CAP`].
struct Weights<'a> {
    tokens: &'a [u64],
    num: i64,
    den: i64,
    /// The largest token count whose weight is below `CAP`.
    max_exact: u64,
}

impl<'a> Weights<'a> {
    /// `None` for a negative mean, one at or above `CAP`, or a graph with
    /// a delay other than 1.
    fn new(graph: &MarkedGraph, tokens: &'a [u64], mean: Ratio) -> Option<Weights<'a>> {
        let (num, den) = (mean.numer(), mean.denom());
        if !(0..CAP).contains(&num) || !unit_delays(graph) {
            return None;
        }
        // den·m − num < CAP exactly when m ≤ (CAP − 1 + num) / den.
        let max_exact = ((CAP - 1 + num) / den) as u64;
        Some(Weights {
            tokens,
            num,
            den,
            max_exact,
        })
    }

    #[inline]
    fn of(&self, pl: PlaceId) -> i64 {
        let m = self.tokens[pl.index()];
        if m > self.max_exact {
            CAP
        } else {
            self.den * m as i64 - self.num
        }
    }
}

/// FIFO label-correcting shortest paths from a virtual source with a
/// zero-weight place into every transition. On success `p` holds valid
/// potentials, each in `(-CAP, 0]`. Fails as soon as the predecessor graph
/// closes a cycle, checked every `n` relaxations, or a potential falls to
/// `-CAP`; `mark` is scratch. Either way the count of potential decreases
/// comes back.
fn label_correct(
    graph: &MarkedGraph,
    weights: &Weights<'_>,
    p: &mut [i64],
    mark: &mut [u32],
) -> Result<usize, usize> {
    let n = p.len();
    let mut pass = Pass {
        p,
        pred: vec![NO_PRED; n],
        queued: vec![false; n],
        // Each transition waits in the queue at most once at a time.
        queue: VecDeque::with_capacity(n),
        relaxations: 0,
        until_check: n,
    };
    // From potential 0 everywhere only a place of negative weight can
    // lower a potential, so one walk over the places stands in for a first
    // scan of every transition's outputs.
    for pl in graph.place_ids() {
        let w = weights.of(pl);
        if w < 0 {
            pass.relax(graph, pl, w, mark)?;
        }
    }
    while let Some(u) = pass.queue.pop_front() {
        let u = u as usize;
        pass.queued[u] = false;
        for &pl in graph.outputs(TransitionId::new(u)) {
            pass.relax(graph, pl, weights.of(pl), mark)?;
        }
    }
    Ok(pass.relaxations)
}

/// The state of one [`label_correct`] pass.
struct Pass<'p> {
    p: &'p mut [i64],
    /// The place that last lowered each potential.
    pred: Vec<u32>,
    queued: Vec<bool>,
    queue: VecDeque<u32>,
    relaxations: usize,
    until_check: usize,
}

impl Pass<'_> {
    /// Lowers the potential at the head of `pl`, of weight `w`, if the
    /// place allows less, and queues the head.
    #[inline]
    fn relax(
        &mut self,
        graph: &MarkedGraph,
        pl: PlaceId,
        w: i64,
        mark: &mut [u32],
    ) -> Result<(), usize> {
        let v = graph.target(pl).index();
        let cand = self.p[graph.source(pl).index()] + w;
        if cand >= self.p[v] {
            return Ok(());
        }
        if cand <= -CAP {
            return Err(self.relaxations);
        }
        self.p[v] = cand;
        self.pred[v] = pl.index() as u32;
        self.relaxations += 1;
        if !self.queued[v] {
            self.queued[v] = true;
            self.queue.push_back(v as u32);
        }
        self.until_check -= 1;
        if self.until_check == 0 {
            self.until_check = self.p.len();
            if has_pred_cycle(graph, &self.pred, mark) {
                return Err(self.relaxations);
            }
        }
        Ok(())
    }
}

/// Whether the predecessor graph (each transition pointing at the source
/// of the place that last lowered its potential) has a cycle. Each walk
/// stamps what it visits with its own number, so the check is O(n).
fn has_pred_cycle(graph: &MarkedGraph, pred: &[u32], mark: &mut [u32]) -> bool {
    mark.fill(0);
    for start in 0..pred.len() {
        let stamp = start as u32 + 1;
        let mut v = start;
        while mark[v] == 0 {
            mark[v] = stamp;
            if pred[v] == NO_PRED {
                break;
            }
            v = graph.source(PlaceId::new(pred[v] as usize)).index();
        }
        if mark[v] == stamp && pred[v] != NO_PRED {
            return true;
        }
    }
    false
}

/// A cycle of tight places under the potentials `p`, found by an
/// iterative depth-first search in place-id order; `mark` is scratch.
fn tight_cycle(
    graph: &MarkedGraph,
    weights: &Weights<'_>,
    p: &[i64],
    mark: &mut [u32],
) -> Option<Vec<PlaceId>> {
    const NEW: u32 = 0;
    const OPEN: u32 = 1;
    const DONE: u32 = 2;
    let n = p.len();
    mark.fill(NEW);
    let tight =
        |pl: PlaceId| p[graph.target(pl).index()] == p[graph.source(pl).index()] + weights.of(pl);
    let outputs = |t: usize| graph.outputs(TransitionId::new(t));
    // (transition, its outputs not yet tried); `path[i]` leads from
    // `stack[i]` to `stack[i + 1]`.
    let mut stack: Vec<(usize, &[PlaceId])> = Vec::with_capacity(n);
    let mut path: Vec<PlaceId> = Vec::with_capacity(n);
    for root in 0..n {
        if mark[root] != NEW {
            continue;
        }
        mark[root] = OPEN;
        stack.push((root, outputs(root)));
        while let Some((u, rest)) = stack.last_mut() {
            let Some((&pl, tail)) = rest.split_first() else {
                mark[*u] = DONE;
                stack.pop();
                path.pop();
                continue;
            };
            *rest = tail;
            if !tight(pl) {
                continue;
            }
            let v = graph.target(pl).index();
            match mark[v] {
                NEW => {
                    mark[v] = OPEN;
                    stack.push((v, outputs(v)));
                    path.push(pl);
                }
                OPEN => {
                    let from = stack
                        .iter()
                        .rposition(|&(t, _)| t == v)
                        .expect("an open transition lies on the search path");
                    let mut walk = Vec::with_capacity(path.len() - from + 1);
                    walk.extend_from_slice(&path[from..]);
                    walk.push(pl);
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
            let weights = Weights::new(&g, &tokens, mean).expect("in range");
            let mut p = vec![0i64; n];
            let mut mark = vec![0u32; n];
            label_correct(&g, &weights, &mut p, &mut mark)
        };
        let relaxations = run(Ratio::new(n as i64 / 2 + 1, n as i64)).expect_err("below the mean");
        assert!(relaxations <= 4 * n, "{relaxations} relaxations");
        assert!(run(Ratio::new(1, 2)).expect("the mean") <= 4 * n);
    }
}
