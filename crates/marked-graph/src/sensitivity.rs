//! Bottleneck and sensitivity analysis.
//!
//! Once the minimum cycle mean is known, a designer wants to know *where*
//! to spend buffering: which places lie on critical cycles, and which
//! single-token additions actually raise the throughput. This module
//! answers both questions exactly. [`token_sensitivity`] re-solves the MCM
//! under each hypothetical token addition through
//! [`crate::incremental::IncrementalMcm`], so only the touched component is
//! re-evaluated, warm-started from the previous Howard policy.
//! [`bottleneck_places`] and [`critical_places`] reach the same exact
//! answers structurally, from the tight subgraph of one solve (a place can
//! lie on *a* critical cycle without being on *all* of them, and only the
//! latter are bottlenecks).

use crate::csr::CsrScc;
use crate::graph::{MarkedGraph, PlaceId};
use crate::incremental::IncrementalMcm;
use crate::mcm;
use crate::ratio::Ratio;
use crate::scc::SccDecomposition;

/// The sensitivity of the minimum cycle mean to one extra token on a place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaceSensitivity {
    /// The place examined.
    pub place: PlaceId,
    /// The minimum cycle mean after adding one token there.
    pub mean_after: Ratio,
    /// Whether the addition strictly raises the minimum cycle mean — i.e.
    /// the place lies on **every** minimum-mean cycle.
    pub improves: bool,
}

/// Computes, for every place, the minimum cycle mean after one extra token
/// on that place.
///
/// Returns an empty vector for acyclic graphs (nothing limits throughput).
///
/// # Examples
///
/// In a single ring every place is a bottleneck; with two token-disjoint
/// critical cycles no single place is:
///
/// ```
/// use marked_graph::{sensitivity::token_sensitivity, MarkedGraph};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 0);
/// let report = token_sensitivity(&g);
/// assert!(report.iter().all(|s| s.improves));
/// ```
pub fn token_sensitivity(graph: &MarkedGraph) -> Vec<PlaceSensitivity> {
    let mut inc = IncrementalMcm::new(graph);
    let Some(base) = inc.base_mean() else {
        return Vec::new();
    };
    graph
        .place_ids()
        .map(|p| {
            // One extra token on `p`: only p's component is re-solved,
            // warm-started; every other component reuses its base mean.
            let mean_after = inc
                .mcm_with_tokens(&[(p, graph.tokens(p) + 1)])
                .expect("graph still cyclic");
            PlaceSensitivity {
                place: p,
                mean_after,
                improves: mean_after > base,
            }
        })
        .collect()
}

/// The places whose single-token increment strictly raises the minimum
/// cycle mean — the true bottlenecks (places on *every* critical cycle).
///
/// Computed structurally via [`IncrementalMcm::bottlenecks_with_tokens`]:
/// a token on `p` leaves every cycle avoiding `p` unchanged, so `p` is a
/// bottleneck iff the tight subgraph of minimum-mean cycles minus `p` is
/// acyclic — one solve per component and one linear pass over the tight
/// subgraph, identical in output to probing every place but with no
/// per-place re-solves.
///
/// # Examples
///
/// ```
/// use marked_graph::{sensitivity::bottleneck_places, MarkedGraph};
///
/// // Two rings sharing the place (a -> b): only the shared place is a
/// // bottleneck when both rings are equally critical.
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// let c = g.add_transition("C");
/// let d = g.add_transition("D");
/// let shared = g.add_place(a, b, 1);
/// g.add_place(b, c, 0);
/// g.add_place(c, a, 0);
/// g.add_place(b, d, 0);
/// g.add_place(d, a, 0);
/// assert_eq!(bottleneck_places(&g), vec![shared]);
/// ```
pub fn bottleneck_places(graph: &MarkedGraph) -> Vec<PlaceId> {
    IncrementalMcm::new(graph).bottlenecks_with_tokens(&[])
}

/// All places lying on at least one minimum-mean cycle ("critical places").
///
/// A place `p` is critical iff some cycle through `p` has mean equal to the
/// minimum. Under reduced weights `r(e) = den·w(e) − num` every cycle has
/// nonnegative total and the critical ones total zero. With exact
/// shortest-path potentials `phi` of each component, a cycle totals zero
/// iff every edge on it is *tight* (`phi(u) + r(e) == phi(v)`), so the
/// critical cycles are exactly the cycles of the tight subgraph, and `p` is
/// critical iff it is tight and its endpoints share a strongly connected
/// component of that subgraph. One potentials pass per component and one
/// SCC decomposition answer every place at once.
///
/// # Examples
///
/// ```
/// use marked_graph::{sensitivity::critical_places, MarkedGraph};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// let p1 = g.add_place(a, b, 1);
/// let p2 = g.add_place(b, a, 0);
/// // A second, slack ring through c is not critical.
/// let c = g.add_transition("C");
/// g.add_place(a, c, 5);
/// g.add_place(c, a, 5);
/// assert_eq!(critical_places(&g), vec![p1, p2]);
/// ```
pub fn critical_places(graph: &MarkedGraph) -> Vec<PlaceId> {
    let Some(base) = mcm::howard(graph) else {
        return Vec::new();
    };
    let (num, den) = (base.numer(), base.denom());
    let scc = SccDecomposition::compute(graph);
    // The tight subgraph over the same transition ids. No component's mean
    // is below `base`, so every component has potentials under it.
    let mut tight = MarkedGraph::new();
    for _ in graph.transition_ids() {
        tight.add_transition("");
    }
    let mut tight_places = Vec::new();
    for c in scc.component_ids().filter(|&c| scc.is_cyclic(graph, c)) {
        let csr = CsrScc::build(graph, &scc, c);
        let phi = mcm::potentials_csr(&csr, base);
        for v in 0..csr.n() {
            for e in csr.out(v) {
                let w = csr.target(e);
                if phi[v] + den * csr.weight(e) - num == phi[w] {
                    tight.add_place(csr.transition(v), csr.transition(w), 0);
                    tight_places.push(csr.place(e));
                }
            }
        }
    }
    let tight_scc = SccDecomposition::compute(&tight);
    let mut critical: Vec<PlaceId> = tight_places
        .into_iter()
        .filter(|&p| {
            tight_scc.component_of(graph.source(p)) == tight_scc.component_of(graph.target(p))
        })
        .collect();
    critical.sort_unstable();
    critical
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graph_has_no_bottlenecks() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        assert!(token_sensitivity(&g).is_empty());
        assert!(bottleneck_places(&g).is_empty());
        assert!(critical_places(&g).is_empty());
    }

    #[test]
    fn single_ring_every_place_critical_and_bottleneck() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..4).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..4 {
            g.add_place(ts[i], ts[(i + 1) % 4], u64::from(i == 0));
        }
        assert_eq!(bottleneck_places(&g).len(), 4);
        assert_eq!(critical_places(&g).len(), 4);
    }

    #[test]
    fn slack_ring_is_not_critical() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        let p1 = g.add_place(a, b, 0);
        let p2 = g.add_place(b, a, 1);
        let p3 = g.add_place(a, c, 3);
        let p4 = g.add_place(c, a, 3);
        let crit = critical_places(&g);
        assert!(crit.contains(&p1));
        assert!(crit.contains(&p2));
        assert!(!crit.contains(&p3));
        assert!(!crit.contains(&p4));
    }

    #[test]
    fn two_disjoint_critical_rings_have_no_bottleneck() {
        // Both rings at mean 1/2: improving one leaves the other limiting.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        let d = g.add_transition("D");
        g.add_place(a, b, 1);
        g.add_place(b, a, 0);
        g.add_place(c, d, 1);
        g.add_place(d, c, 0);
        assert!(bottleneck_places(&g).is_empty());
        // ...but every place is critical (on some minimum cycle).
        assert_eq!(critical_places(&g).len(), 4);
    }

    #[test]
    fn shared_place_is_the_only_bottleneck() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        let d = g.add_transition("D");
        let shared = g.add_place(a, b, 1);
        g.add_place(b, c, 0);
        g.add_place(c, a, 0);
        g.add_place(b, d, 0);
        g.add_place(d, a, 0);
        assert_eq!(bottleneck_places(&g), vec![shared]);
        assert_eq!(critical_places(&g).len(), 5);
    }

    #[test]
    fn sensitivity_reports_new_means() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        g.add_place(b, a, 0);
        for s in token_sensitivity(&g) {
            assert_eq!(s.mean_after, Ratio::ONE);
            assert!(s.improves);
        }
    }

    #[test]
    fn structural_bottlenecks_agree_with_exhaustive_probing() {
        // The tight-subgraph computation must match probing every place
        // with a re-solve, on random graphs and random token overrides.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(27);
        for trial in 0..40 {
            let n = rng.gen_range(2..9);
            let mut g = MarkedGraph::new();
            let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
            let mut places = Vec::new();
            for i in 0..n {
                places.push(g.add_place(ts[i], ts[(i + 1) % n], rng.gen_range(0..3)));
            }
            for _ in 0..rng.gen_range(0..2 * n) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                places.push(g.add_place(ts[u], ts[v], rng.gen_range(0..3)));
            }
            // Base marking: against the probe-everything oracle.
            let expected = {
                let mut probe = IncrementalMcm::new(&g);
                let base = probe.base_mean().expect("ring is cyclic");
                places
                    .iter()
                    .copied()
                    .filter(|&p| {
                        probe
                            .mcm_with_tokens(&[(p, g.tokens(p) + 1)])
                            .expect("still cyclic")
                            > base
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(bottleneck_places(&g), expected, "trial {trial}\n{g:?}");
            // Random overrides: the incremental entry point against the
            // oracle probing on top of the same overrides.
            for _ in 0..5 {
                let k = rng.gen_range(0..3usize);
                let overrides: Vec<(PlaceId, u64)> = (0..k)
                    .map(|_| {
                        (
                            places[rng.gen_range(0..places.len())],
                            rng.gen_range(0..4u64),
                        )
                    })
                    .collect();
                let mut inc = IncrementalMcm::new(&g);
                let base = inc.mcm_with_tokens(&overrides).expect("still cyclic");
                let tokens_at = |p: PlaceId| {
                    overrides
                        .iter()
                        .rev()
                        .find_map(|&(op, t)| (op == p).then_some(t))
                        .unwrap_or_else(|| g.tokens(p))
                };
                let expected: Vec<PlaceId> = places
                    .iter()
                    .copied()
                    .filter(|&p| {
                        let mut probe = overrides.clone();
                        probe.push((p, tokens_at(p) + 1));
                        inc.mcm_with_tokens(&probe).expect("still cyclic") > base
                    })
                    .collect();
                assert_eq!(
                    inc.bottlenecks_with_tokens(&overrides),
                    expected,
                    "trial {trial} overrides {overrides:?}\n{g:?}"
                );
            }
        }
    }

    #[test]
    fn critical_agrees_with_enumeration_on_random_graphs() {
        use crate::cycles::elementary_cycles;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..30 {
            let n = rng.gen_range(2..8);
            let mut g = MarkedGraph::new();
            let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
            for i in 0..n {
                g.add_place(ts[i], ts[(i + 1) % n], rng.gen_range(0..3));
            }
            for _ in 0..rng.gen_range(0..n) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                g.add_place(ts[u], ts[v], rng.gen_range(0..3));
            }
            // Every other trial: a second component, fed by the first, whose
            // ring may tie, beat, or trail it.
            if trial % 2 == 1 {
                let k = rng.gen_range(1..4);
                let rs: Vec<_> = (0..k).map(|i| g.add_transition(format!("r{i}"))).collect();
                for i in 0..k {
                    g.add_place(rs[i], rs[(i + 1) % k], rng.gen_range(0..3));
                }
                g.add_place(ts[0], rs[0], 0);
            }
            let base = match mcm::karp(&g) {
                Some(m) => m,
                None => continue,
            };
            let cycles = elementary_cycles(&g, 100_000).expect("bounded");
            let mut expected: Vec<PlaceId> = cycles
                .iter()
                .filter(|c| g.cycle_mean(c) == base)
                .flat_map(|c| c.iter().copied())
                .collect();
            expected.sort();
            expected.dedup();
            let mut got = critical_places(&g);
            got.sort();
            assert_eq!(got, expected, "trial {trial}\n{g:?}");
        }
    }
}
