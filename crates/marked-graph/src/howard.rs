//! Howard's policy iteration for the minimum cycle mean of one SCC.
//!
//! Howard's algorithm maintains a *policy* — one chosen out-edge per vertex.
//! The policy graph (n vertices, n edges) contains at least one cycle; each
//! policy cycle is evaluated exactly as a [`Ratio`] `total_weight / length`,
//! and every vertex gets a *bias* `h(v)` measuring how much cheaper its
//! policy path is than the cycle mean predicts. One round of this solver
//! has three steps:
//!
//! 1. **Evaluate** the policy: the mean of the policy cycle each vertex
//!    drains into, and its exact bias.
//! 2. **Drain** every vertex into the smallest policy-cycle mean λ found: a
//!    reverse breadth-first search from the vertices already attached to it
//!    re-points each other vertex at an edge into the attached set. In a
//!    strongly connected component this reaches everything, so after one
//!    O(E) pass every vertex carries the mean λ — the fixpoint that the
//!    textbook mean-improvement step reaches one hop per round.
//! 3. **Certify** λ: a label-correcting shortest-path pass under the reduced
//!    weights `w·den − num`, pulling each bias down to the cheapest
//!    reachable policy path and re-pointing the policy along it. When no
//!    edge can lower a bias any more, the biases are an exact integer
//!    certificate — `h(u) ≤ w(e)·den − num + h(v)` on every edge `u → v`,
//!    so every cycle has mean ≥ λ — and λ is returned. If the re-pointed
//!    policy instead closes a cycle of negative reduced weight, that cycle's
//!    mean is strictly below λ and the next round starts from it.
//!
//! The certificate step is what keeps long single-cycle components linear.
//! The classic bias-improvement step switches a vertex only when its
//! target's *previous* bias beats its own, so on a doubled ring of n blocks —
//! every vertex first attached to a two-cycle of mean 1, the ring's cheaper
//! mean hidden behind n hops — it spends about n rounds of O(E) each
//! discovering the ring. The label-correcting pass propagates the same
//! improvement around the whole ring in one queue sweep.
//!
//! Two properties matter for the rest of the crate:
//!
//! * **Exactness** — cycle means are compared with i128 cross-multiplied
//!   [`Ratio`] arithmetic and biases are kept as exact integer numerators
//!   over the cycle-mean denominator, so the returned mean is bit-identical
//!   to Karp's DP.
//! * **Warm starts** — the converged policy is a plain `Vec<u32>` the caller
//!   may persist. After a small token override (the incremental engine's
//!   bread and butter), re-running from the previous policy usually
//!   certifies in one round instead of a full cold solve.
//!
//! Every round either returns or strictly lowers λ, so the solve terminates;
//! as a safety net it still falls back to Karp's DP if it has not converged
//! after `10·n + 64` rounds. In practice this path is unreachable, and
//! [`HowardStats::karp_fallbacks`] counts it if it ever runs.

use std::collections::VecDeque;

use crate::csr::CsrScc;
use crate::mcm;
use crate::ratio::Ratio;

/// Work counters of the solves run through one [`HowardScratch`],
/// cumulative since its creation or the last [`HowardScratch::take_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HowardStats {
    /// Policy-iteration rounds (evaluate, drain, certify) over all solves.
    pub rounds: u64,
    /// Bias decreases made by the certificate steps.
    pub relaxations: u64,
    /// Solves that hit the round limit and fell back to Karp's DP.
    pub karp_fallbacks: u64,
}

/// Reusable scratch buffers for [`howard_csr`]. One instance can serve any
/// number of SCCs of any size; buffers grow to the largest component seen
/// and are reused without reallocation afterwards.
#[derive(Debug, Default)]
pub struct HowardScratch {
    /// Cycle-mean numerator attached to each vertex (reduced).
    eta_num: Vec<i64>,
    /// Cycle-mean denominator attached to each vertex (reduced, > 0).
    eta_den: Vec<i64>,
    /// Bias numerator of each vertex, in units of `1 / eta_den[v]`.
    h: Vec<i64>,
    /// Per-vertex mark: evaluated (evaluate), attached (drain), or finished
    /// (the policy-cycle check).
    done: Vec<bool>,
    /// Generation stamp marking membership in the walk in progress.
    walk_gen: Vec<u32>,
    /// Position of each walk vertex inside `path`.
    path_pos: Vec<u32>,
    /// The walk in progress (local vertex indices).
    path: Vec<u32>,
    /// Current walk generation.
    gen: u32,
    /// Whether `rev_offsets`/`rev_edges`/`sources` describe the current
    /// component. Built on first need: a solve whose starting policy is
    /// already optimal never touches them.
    reverse_ready: bool,
    /// Prefix offsets of the in-edge lists, per local vertex (length n + 1).
    rev_offsets: Vec<u32>,
    /// In-edge lists: CSR edge indices grouped by target vertex.
    rev_edges: Vec<u32>,
    /// Source vertex of each CSR edge.
    sources: Vec<u32>,
    /// Whether the vertex is waiting in `queue`.
    queued: Vec<bool>,
    /// Work queue of the drain and certificate steps.
    queue: VecDeque<u32>,
    /// Work counters.
    stats: HowardStats,
}

impl HowardScratch {
    /// Creates an empty scratch; buffers are sized lazily on first solve.
    pub fn new() -> HowardScratch {
        HowardScratch::default()
    }

    /// Returns the work counters and resets them to zero.
    pub fn take_stats(&mut self) -> HowardStats {
        std::mem::take(&mut self.stats)
    }

    fn reset(&mut self, n: usize) {
        self.eta_num.clear();
        self.eta_num.resize(n, 0);
        self.eta_den.clear();
        self.eta_den.resize(n, 1);
        self.h.clear();
        self.h.resize(n, 0);
        self.done.clear();
        self.done.resize(n, false);
        self.walk_gen.clear();
        self.walk_gen.resize(n, 0);
        self.path_pos.clear();
        self.path_pos.resize(n, 0);
        // A walk and the work queue each hold every vertex at most once.
        self.path.clear();
        self.path.reserve(n);
        self.queue.clear();
        self.queue.reserve(n);
        self.gen = 0;
        self.reverse_ready = false;
        self.queued.clear();
        self.queued.resize(n, false);
    }

    /// Builds the in-edge lists of `csr` (a counting sort of the edges by
    /// target) unless they are already current.
    fn ensure_reverse(&mut self, csr: &CsrScc) {
        if self.reverse_ready {
            return;
        }
        let n = csr.n();
        let m = csr.edge_count();
        self.rev_offsets.clear();
        self.rev_offsets.resize(n + 1, 0);
        self.sources.clear();
        self.sources.resize(m, 0);
        for v in 0..n {
            for e in csr.out(v) {
                self.rev_offsets[csr.target(e) + 1] += 1;
                self.sources[e] = v as u32;
            }
        }
        for v in 0..n {
            self.rev_offsets[v + 1] += self.rev_offsets[v];
        }
        // Fill each target's slice back to front with its end offset as the
        // cursor. That leaves slice v's start in `rev_offsets[v + 1]`; one
        // shift puts every start back in place.
        self.rev_edges.clear();
        self.rev_edges.resize(m, 0);
        for e in (0..m).rev() {
            let t = csr.target(e);
            self.rev_offsets[t + 1] -= 1;
            self.rev_edges[self.rev_offsets[t + 1] as usize] = e as u32;
        }
        self.rev_offsets.copy_within(1.., 0);
        self.rev_offsets[n] = m as u32;
        self.reverse_ready = true;
    }

    /// Starts a new walk generation, clearing stale stamps on wrap-around.
    fn next_gen(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            for g in self.walk_gen.iter_mut() {
                *g = 0;
            }
            self.gen = 1;
        }
    }

    /// The CSR edge indices entering local vertex `v`.
    fn in_edges(&self, v: usize) -> std::ops::Range<usize> {
        self.rev_offsets[v] as usize..self.rev_offsets[v + 1] as usize
    }
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// Minimum cycle mean of `csr` via policy iteration.
///
/// `policy` holds one out-edge index (into the CSR edge slabs) per local
/// vertex. If it carries a valid policy from a previous solve of the same
/// component it is used as the warm start; otherwise it is (re)initialized
/// to each vertex's minimum-weight first out-edge. On return it holds the
/// converged policy, ready to warm-start the next query.
///
/// The caller must guarantee every vertex has at least one outgoing edge
/// (true for any strongly connected component with ≥ 1 edge).
pub fn howard_csr(csr: &CsrScc, scratch: &mut HowardScratch, policy: &mut Vec<u32>) -> Ratio {
    let n = csr.n();
    debug_assert!(n > 0, "howard_csr needs a non-empty SCC");
    let valid_warm_start = policy.len() == n
        && policy
            .iter()
            .enumerate()
            .all(|(v, &e)| csr.out(v).contains(&(e as usize)));
    if !valid_warm_start {
        policy.clear();
        policy.reserve(n);
        for v in 0..n {
            let range = csr.out(v);
            debug_assert!(!range.is_empty(), "SCC vertex without out-edge");
            let mut best = range.start;
            for e in range {
                if csr.weight(e) < csr.weight(best) {
                    best = e;
                }
            }
            policy.push(best as u32);
        }
    }
    scratch.reset(n);
    let max_rounds = 10 * n + 64;
    for _ in 0..max_rounds {
        scratch.stats.rounds += 1;
        evaluate(csr, scratch, policy);
        let (num, den) = drain(csr, scratch, policy);
        if certify(csr, scratch, policy, num, den) {
            return Ratio::new(num, den);
        }
    }
    // Unreachable in practice; fall back to the DP oracle so callers always
    // get an exact answer.
    scratch.stats.karp_fallbacks += 1;
    mcm::karp_csr(csr)
}

/// Evaluates the current policy: assigns every vertex the mean of the policy
/// cycle it drains into and an exact bias relative to that mean.
fn evaluate(csr: &CsrScc, s: &mut HowardScratch, policy: &[u32]) {
    let n = csr.n();
    for d in s.done.iter_mut() {
        *d = false;
    }
    for start in 0..n {
        if s.done[start] {
            continue;
        }
        // Walk the policy successors until we hit an evaluated vertex or
        // close a cycle inside the current walk.
        s.next_gen();
        s.path.clear();
        let mut v = start;
        loop {
            if s.done[v] {
                break;
            }
            if s.walk_gen[v] == s.gen {
                // Closed a new policy cycle at position path_pos[v].
                break;
            }
            s.walk_gen[v] = s.gen;
            s.path_pos[v] = s.path.len() as u32;
            s.path.push(v as u32);
            v = csr.target(policy[v] as usize);
        }
        let tail_start = if s.done[v] {
            s.path.len()
        } else {
            let cpos = s.path_pos[v] as usize;
            // Evaluate the cycle path[cpos..] exactly.
            let mut total: i64 = 0;
            let len = (s.path.len() - cpos) as i64;
            for &u in &s.path[cpos..] {
                total += csr.weight(policy[u as usize] as usize);
            }
            let g = gcd(total, len);
            let (num, den) = (total / g, len / g);
            // Root vertex: bias 0 by convention. Walking the cycle backwards
            // from the root keeps every equation
            //   h(u) = w(u, π(u))·den − num + h(π(u))
            // satisfied; the cycle identity total·den = num·len closes it.
            let root = s.path[cpos] as usize;
            s.eta_num[root] = num;
            s.eta_den[root] = den;
            s.h[root] = 0;
            s.done[root] = true;
            let mut succ_h: i64 = 0;
            for i in (cpos + 1..s.path.len()).rev() {
                let u = s.path[i] as usize;
                succ_h += csr.weight(policy[u] as usize) * den - num;
                s.h[u] = succ_h;
                s.eta_num[u] = num;
                s.eta_den[u] = den;
                s.done[u] = true;
            }
            cpos
        };
        // Back-propagate along the tail path[..tail_start] into `v` (the
        // first already-evaluated vertex, or the cycle root just handled).
        let mut succ = v;
        for i in (0..tail_start).rev() {
            let u = s.path[i] as usize;
            let (num, den) = (s.eta_num[succ], s.eta_den[succ]);
            s.h[u] = csr.weight(policy[u] as usize) * den - num + s.h[succ];
            s.eta_num[u] = num;
            s.eta_den[u] = den;
            s.done[u] = true;
            succ = u;
        }
    }
}

/// Re-points every vertex at the smallest evaluated policy-cycle mean λ and
/// returns λ as its reduced `(num, den)`.
///
/// A reverse breadth-first search from the vertices already attached to λ
/// switches each unattached vertex to an edge into the attached set and
/// gives it the matching bias `w·den − num + h(target)`. Every switch moves
/// a vertex to a strictly smaller attached mean — a mean-improvement step of
/// policy iteration — and the search reaches every vertex of a strongly
/// connected component, so afterwards the whole component carries λ.
fn drain(csr: &CsrScc, s: &mut HowardScratch, policy: &mut [u32]) -> (i64, i64) {
    let n = csr.n();
    let (mut num, mut den) = (s.eta_num[0], s.eta_den[0]);
    for v in 1..n {
        if (s.eta_num[v] as i128) * (den as i128) < (num as i128) * (s.eta_den[v] as i128) {
            num = s.eta_num[v];
            den = s.eta_den[v];
        }
    }
    // Means are reduced, so equal means have equal numerator/denominator.
    let mut attached = 0;
    for v in 0..n {
        s.done[v] = s.eta_num[v] == num && s.eta_den[v] == den;
        attached += usize::from(s.done[v]);
    }
    if attached == n {
        return (num, den);
    }
    s.ensure_reverse(csr);
    s.queue.clear();
    s.queue
        .extend((0..n as u32).filter(|&v| s.done[v as usize]));
    while let Some(t) = s.queue.pop_front() {
        let t = t as usize;
        for i in s.in_edges(t) {
            let e = s.rev_edges[i] as usize;
            let u = s.sources[e] as usize;
            if !s.done[u] {
                s.done[u] = true;
                policy[u] = e as u32;
                s.eta_num[u] = num;
                s.eta_den[u] = den;
                s.h[u] = csr.weight(e) * den - num + s.h[t];
                s.queue.push_back(u as u32);
            }
        }
    }
    debug_assert!(s.done.iter().all(|&d| d), "SCC vertex not drained");
    (num, den)
}

/// The certificate step: label-correcting shortest paths under the reduced
/// weights `w·den − num`, starting from the drained biases.
///
/// Every bias decrease re-points the vertex's policy at the edge that
/// produced it and queues the vertex so its in-neighbours are re-checked.
/// Returns `true` once the queue empties: then `h(u) ≤ w(e)·den − num +
/// h(v)` holds on every edge `u → v`, which sums to a nonnegative reduced
/// weight on every cycle, so λ = num/den is the minimum cycle mean.
///
/// A cycle of negative reduced weight keeps lowering biases forever; the
/// re-pointed policy then eventually contains such a cycle, which is checked
/// after every n relaxations (O(n) per check, amortized O(1) per
/// relaxation). Returns `false` when one is found; the caller re-evaluates
/// from the improved policy.
fn certify(csr: &CsrScc, s: &mut HowardScratch, policy: &mut [u32], num: i64, den: i64) -> bool {
    let n = csr.n();
    let reduced = |e: usize| csr.weight(e) * den - num;
    // Seed pass: one sweep over every edge, re-pointing in place. A warm
    // start that is already optimal finishes here.
    s.queue.clear();
    for (v, pol) in policy.iter_mut().enumerate() {
        let mut best = s.h[v];
        let mut best_edge = *pol;
        for e in csr.out(v) {
            let cand = reduced(e) + s.h[csr.target(e)];
            if cand < best {
                best = cand;
                best_edge = e as u32;
            }
        }
        if best_edge != *pol {
            s.h[v] = best;
            *pol = best_edge;
            s.stats.relaxations += 1;
            s.queued[v] = true;
            s.queue.push_back(v as u32);
        }
    }
    if s.queue.is_empty() {
        return true;
    }
    s.ensure_reverse(csr);
    let mut until_check = n;
    while let Some(t) = s.queue.pop_front() {
        let t = t as usize;
        s.queued[t] = false;
        let ht = s.h[t];
        for i in s.in_edges(t) {
            let e = s.rev_edges[i] as usize;
            let u = s.sources[e] as usize;
            let cand = reduced(e) + ht;
            if cand >= s.h[u] {
                continue;
            }
            s.h[u] = cand;
            policy[u] = e as u32;
            s.stats.relaxations += 1;
            if !s.queued[u] {
                s.queued[u] = true;
                s.queue.push_back(u as u32);
            }
            until_check -= 1;
            if until_check == 0 {
                until_check = n;
                if has_negative_policy_cycle(csr, s, policy, num, den) {
                    while let Some(q) = s.queue.pop_front() {
                        s.queued[q as usize] = false;
                    }
                    return false;
                }
            }
        }
    }
    true
}

/// Whether the policy graph contains a cycle of negative reduced weight
/// `Σ (w·den − num)`, i.e. a cycle with mean strictly below `num/den`.
fn has_negative_policy_cycle(
    csr: &CsrScc,
    s: &mut HowardScratch,
    policy: &[u32],
    num: i64,
    den: i64,
) -> bool {
    let n = csr.n();
    for d in s.done.iter_mut() {
        *d = false;
    }
    for start in 0..n {
        if s.done[start] {
            continue;
        }
        s.next_gen();
        let mut v = start;
        while !s.done[v] && s.walk_gen[v] != s.gen {
            s.walk_gen[v] = s.gen;
            v = csr.target(policy[v] as usize);
        }
        if !s.done[v] {
            // The walk closed a cycle through `v` that no earlier walk saw.
            let mut total: i64 = 0;
            let mut u = v;
            loop {
                let e = policy[u] as usize;
                total += csr.weight(e) * den - num;
                u = csr.target(e);
                if u == v {
                    break;
                }
            }
            if total < 0 {
                return true;
            }
        }
        let mut u = start;
        while !s.done[u] {
            s.done[u] = true;
            u = csr.target(policy[u] as usize);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MarkedGraph;
    use crate::scc::SccDecomposition;

    fn solve(g: &MarkedGraph) -> (Ratio, Vec<u32>) {
        let scc = SccDecomposition::compute(g);
        let comp = scc.component_of(g.transition_ids().next().unwrap());
        let csr = CsrScc::build(g, &scc, comp);
        let mut scratch = HowardScratch::new();
        let mut policy = Vec::new();
        let mean = howard_csr(&csr, &mut scratch, &mut policy);
        (mean, policy)
    }

    #[test]
    fn ring_mean_is_tokens_over_length() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..4).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..4 {
            g.add_place(ts[i], ts[(i + 1) % 4], if i == 0 { 2 } else { 0 });
        }
        assert_eq!(solve(&g).0, Ratio::new(2, 4));
    }

    #[test]
    fn nested_cycles_pick_the_minimum() {
        // Outer 3-cycle with 3 tokens (mean 1), inner 2-cycle with 1 token
        // (mean 1/2): Howard must find 1/2.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        let c = g.add_transition("c");
        g.add_place(a, b, 1);
        g.add_place(b, c, 1);
        g.add_place(c, a, 1);
        g.add_place(b, a, 0);
        assert_eq!(solve(&g).0, Ratio::new(1, 2));
    }

    #[test]
    fn warm_start_reconverges_after_weight_patch() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..5).map(|i| g.add_transition(format!("t{i}"))).collect();
        let mut ring = Vec::new();
        for i in 0..5 {
            ring.push(g.add_place(ts[i], ts[(i + 1) % 5], 1));
        }
        g.add_place(ts[2], ts[0], 1); // chord: 3-cycle with 3 tokens
        let scc = SccDecomposition::compute(&g);
        let comp = scc.component_of(ts[0]);
        let mut csr = CsrScc::build(&g, &scc, comp);
        let mut scratch = HowardScratch::new();
        let mut policy = Vec::new();
        assert_eq!(howard_csr(&csr, &mut scratch, &mut policy), Ratio::ONE);
        let converged = policy.clone();
        // Patch one ring edge's tokens and re-solve from the warm policy.
        let e = csr.places.iter().position(|&p| p == ring[4]).unwrap();
        csr.weights[e] = 6;
        let warm = howard_csr(&csr, &mut scratch, &mut policy);
        // Ring now carries 10 tokens over 5 edges (mean 2); the chord cycle
        // ts[0]→ts[1]→ts[2]→ts[0] carries 3 over 3 (mean 1) and wins.
        assert_eq!(warm, Ratio::ONE);
        // And the warm solve must agree with a cold solve of the same CSR.
        let mut cold_policy = Vec::new();
        assert_eq!(howard_csr(&csr, &mut scratch, &mut cold_policy), Ratio::ONE);
        let _ = converged;
    }

    #[test]
    fn self_loop() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        g.add_place(a, a, 3);
        assert_eq!(solve(&g).0, Ratio::from_integer(3));
    }

    #[test]
    fn parallel_edges_use_the_lighter_one() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        g.add_place(a, b, 4);
        g.add_place(a, b, 1);
        g.add_place(b, a, 1);
        assert_eq!(solve(&g).0, Ratio::ONE);
    }

    /// The doubled model `d[G]` of a ring of `n` shells `r{i}` with one
    /// relay station `rs` on the channel `r0 → r1`, built place for place as
    /// the LIS model builder does: per channel hop a forward place (one
    /// token into a shell, none into the station) then its backedge (one
    /// queue slot at a shell, two at the station). Every two-cycle has mean
    /// 1 and the first policy attaches every vertex to one; the ring's mean
    /// `n/(n+1)` lies n hops away. `reversed` creates the shells in the
    /// opposite order, so the ring runs against the transition order: an
    /// in-place sweep in vertex order then carries news one hop per pass.
    fn doubled_ring(n: usize, reversed: bool) -> MarkedGraph {
        let mut g = MarkedGraph::new();
        let mut r: Vec<_> = (0..n).map(|i| g.add_transition(format!("r{i}"))).collect();
        if reversed {
            r.reverse();
        }
        let rs = g.add_transition("rs");
        for i in 0..n {
            let (from, to) = (r[i], r[(i + 1) % n]);
            let hops = if i == 0 {
                vec![from, rs, to]
            } else {
                vec![from, to]
            };
            for w in hops.windows(2) {
                let into_shell = w[1] != rs;
                g.add_place(w[0], w[1], u64::from(into_shell));
                g.add_place(w[1], w[0], if into_shell { 1 } else { 2 });
            }
        }
        g
    }

    #[test]
    fn long_ring_certifies_in_constant_rounds() {
        for (n, reversed) in [10, 100, 1000]
            .into_iter()
            .flat_map(|n| [(n, false), (n, true)])
        {
            let g = doubled_ring(n, reversed);
            let scc = SccDecomposition::compute(&g);
            let comp = scc.component_of(g.transition_ids().next().unwrap());
            let csr = CsrScc::build(&g, &scc, comp);
            let mut scratch = HowardScratch::new();
            let mut policy = Vec::new();
            let mean = howard_csr(&csr, &mut scratch, &mut policy);
            assert_eq!(mean, Ratio::new(n as i64, n as i64 + 1));
            assert_eq!(mean, mcm::karp_csr(&csr));
            let stats = scratch.take_stats();
            assert!(stats.rounds <= 2, "n={n} reversed={reversed}: {stats:?}");
            // Each relaxation lowers a bias; a linear solve needs O(E) of them.
            assert!(
                stats.relaxations <= 2 * csr.edge_count() as u64,
                "n={n} reversed={reversed}: {stats:?}"
            );
            // The converged policy is optimal: a warm re-solve certifies in
            // its seed pass.
            assert_eq!(howard_csr(&csr, &mut scratch, &mut policy), mean);
            let warm = scratch.take_stats();
            assert_eq!((warm.rounds, warm.relaxations), (1, 0));
        }
    }

    #[test]
    fn arbitrary_warm_policies_reach_the_karp_mean() {
        // Dense little components with random weights, each solved from
        // every one of a set of pseudo-random starting policies.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..300 {
            let n = 1 + next(9) as usize;
            let mut g = MarkedGraph::new();
            let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
            for i in 0..n {
                g.add_place(ts[i], ts[(i + 1) % n], next(5));
            }
            for _ in 0..next(3 * n as u64 + 1) {
                let (a, b) = (next(n as u64) as usize, next(n as u64) as usize);
                g.add_place(ts[a], ts[b], next(6));
            }
            let scc = SccDecomposition::compute(&g);
            let csr = CsrScc::build(&g, &scc, scc.component_of(ts[0]));
            let oracle = mcm::karp_csr(&csr);
            let mut scratch = HowardScratch::new();
            for _ in 0..4 {
                let mut policy: Vec<u32> = (0..csr.n())
                    .map(|v| {
                        let out = csr.out(v);
                        (out.start + next(out.len() as u64) as usize) as u32
                    })
                    .collect();
                assert_eq!(howard_csr(&csr, &mut scratch, &mut policy), oracle);
            }
            assert_eq!(scratch.take_stats().karp_fallbacks, 0);
        }
    }
}
