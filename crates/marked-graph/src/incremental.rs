//! Incremental minimum-cycle-mean re-evaluation.
//!
//! Queue sizing explores many token assignments of the *same* graph: each
//! candidate solution only bumps the token counts of a few backedge places.
//! Recomputing the MCM from scratch per candidate repeats the SCC
//! decomposition and re-solves every component, even though token changes
//! never alter the graph's structure. [`IncrementalMcm`] factors that work:
//!
//! * the SCC decomposition and per-component [`CsrScc`] snapshots are built
//!   **once**, at construction;
//! * a query ([`IncrementalMcm::mcm_with_tokens`]) re-solves **only the
//!   components containing a changed place** — untouched components reuse
//!   their base mean;
//! * re-solves are memoized per component, keyed by the normalized token
//!   delta vector, so revisiting an assignment (binary search over budgets,
//!   branch-and-bound backtracking) is a hash lookup;
//! * with the default [`McmEngine::Howard`] engine, each component keeps
//!   its converged policy and **warm-starts** the next re-solve from it. A
//!   small token override rarely moves the optimal policy far, so warm
//!   solves typically finish in one or two sweeps instead of a full cold
//!   solve — this is where branch-and-bound spends its life.
//!
//! Token overrides on places that are not internal to any cyclic component
//! are ignored: such a place lies on no cycle (every cycle is contained in
//! one SCC), so its marking cannot affect any cycle mean. This makes a
//! query sound for arbitrary override sets, not just backedges.
//!
//! Results are exactly those of the from-scratch solvers: the same exact
//! rational mean as [`crate::mcm::karp`] on the modified graph, and — via
//! [`IncrementalMcm::analysis_with_tokens`] — the same critical cycle as
//! [`crate::mcm::minimum_cycle_mean`] under the shared tie-break (lowest
//! component id attaining the minimum mean).

use std::collections::HashMap;

use crate::csr::CsrScc;
use crate::error::GraphError;
use crate::graph::{MarkedGraph, PlaceId};
use crate::howard::HowardScratch;
use crate::mcm::{critical_cycle_csr, cycle_and_bottlenecks_csr, solve_csr, McmEngine};
use crate::ratio::Ratio;
use crate::scc::SccDecomposition;

/// Per-component memo entries kept before the cache stops growing. Queries
/// past the cap still compute correctly; they just aren't remembered.
const CACHE_CAP: usize = 4096;

/// One cyclic component with its memoized re-evaluations.
#[derive(Clone)]
struct CompState {
    /// Component id in the underlying [`SccDecomposition`].
    comp_id: usize,
    /// Mutable CSR snapshot; edge weights are patched during a re-solve and
    /// always restored before the query returns.
    csr: CsrScc,
    /// Mean under the base marking.
    base_mean: Ratio,
    /// Normalized delta vector (sorted by place id) → mean.
    cache: HashMap<Vec<(PlaceId, u64)>, Ratio>,
    /// Howard's converged policy, persisted to warm-start the next solve
    /// (unused by the other engines).
    policy: Vec<u32>,
}

/// A query's overrides, normalized: per component slot, the sorted,
/// deduplicated, base-differing delta vector that keys its memo.
struct Deltas {
    /// Every slot's deltas, sorted by (slot, place).
    deltas: Vec<(PlaceId, u64)>,
    /// `(slot, start, end)`: the `deltas` range of each slot that has any,
    /// ascending by slot.
    spans: Vec<(usize, usize, usize)>,
}

impl Deltas {
    /// The deltas of component slot `slot` (empty = base marking).
    fn of(&self, slot: usize) -> &[(PlaceId, u64)] {
        self.spans
            .iter()
            .find(|span| span.0 == slot)
            .map_or(&[], |&(_, start, end)| &self.deltas[start..end])
    }
}

/// Everything [`IncrementalMcm::analysis_with_tokens`] computes in one
/// query: the pieces of [`crate::mcm::McmResult`] plus the bottleneck
/// places.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McmAnalysis {
    /// The minimum cycle mean under the queried token assignment.
    pub mean: Ratio,
    /// A cycle attaining it, under the shared lowest-component tie-break.
    pub critical_cycle: Vec<PlaceId>,
    /// Places whose +1 token strictly raises the mean, ascending by id
    /// (empty when two or more components tie for the minimum).
    pub bottlenecks: Vec<PlaceId>,
}

/// Cache-effectiveness counters reported by [`IncrementalMcm::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Component re-evaluations answered from the memo (or the base mean).
    pub hits: u64,
    /// Component re-evaluations that ran the MCM engine.
    pub misses: u64,
    /// Total memo entries currently held across components.
    pub entries: usize,
}

/// Incremental MCM engine for one graph under varying token assignments.
///
/// # Examples
///
/// ```
/// use marked_graph::incremental::IncrementalMcm;
/// use marked_graph::{mcm, MarkedGraph, Ratio};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// g.add_place(a, b, 1);
/// let back = g.add_place(b, a, 0);
///
/// let mut inc = IncrementalMcm::new(&g);
/// assert_eq!(inc.base_mean(), Some(Ratio::new(1, 2)));
/// // Granting the backedge one extra token: same as mutating the graph.
/// assert_eq!(inc.mcm_with_tokens(&[(back, 1)]), Some(Ratio::ONE));
/// g.set_tokens(back, 1);
/// assert_eq!(mcm::karp(&g), Some(Ratio::ONE));
/// ```
pub struct IncrementalMcm {
    /// Cyclic components in ascending component-id order.
    comps: Vec<CompState>,
    /// Per place id: (slot in `comps`, CSR edge index) for every place
    /// internal to a cyclic component, [`NOT_ON_A_CYCLE`] for the rest.
    place_index: Vec<(u32, u32)>,
    /// Whether the source graph had no transitions at all.
    graph_empty: bool,
    /// Which MCM algorithm runs the per-component re-solves.
    engine: McmEngine,
    /// Shared Howard scratch, reused across components and queries.
    scratch: HowardScratch,
    hits: u64,
    misses: u64,
    /// Critical-cycle or bottleneck extractions run so far.
    extractions: u64,
}

/// [`IncrementalMcm::place_index`] entry of a place that lies on no cycle.
const NOT_ON_A_CYCLE: (u32, u32) = (u32::MAX, u32::MAX);

impl IncrementalMcm {
    /// Builds the engine with the default algorithm ([`McmEngine::Howard`]):
    /// one SCC decomposition, one base solve per cyclic component.
    ///
    /// # Panics
    ///
    /// Panics if any transition has a delay other than 1, matching the MCM
    /// solvers' restriction.
    pub fn new(graph: &MarkedGraph) -> IncrementalMcm {
        IncrementalMcm::with_engine(graph, McmEngine::default())
    }

    /// [`IncrementalMcm::new`] with an explicit engine choice. All engines
    /// answer queries identically; Howard additionally warm-starts each
    /// component's re-solves from its previously converged policy.
    ///
    /// # Panics
    ///
    /// Panics if any transition has a delay other than 1.
    pub fn with_engine(graph: &MarkedGraph, engine: McmEngine) -> IncrementalMcm {
        for t in graph.transition_ids() {
            assert_eq!(graph.delay(t), 1, "MCM solvers require unit delays");
        }
        let scc = SccDecomposition::compute(graph);
        let mut comps = Vec::new();
        let mut place_index = vec![NOT_ON_A_CYCLE; graph.place_count()];
        let mut scratch = HowardScratch::new();
        for c in scc.component_ids() {
            if !scc.is_cyclic(graph, c) {
                continue;
            }
            let csr = CsrScc::build(graph, &scc, c);
            let slot = comps.len();
            for e in 0..csr.edge_count() {
                place_index[csr.place(e).index()] = (slot as u32, e as u32);
            }
            let mut policy = Vec::new();
            let base_mean = solve_csr(&csr, engine, &mut scratch, &mut policy);
            comps.push(CompState {
                comp_id: c,
                csr,
                base_mean,
                cache: HashMap::new(),
                policy,
            });
        }
        IncrementalMcm {
            comps,
            place_index,
            graph_empty: graph.is_empty(),
            engine,
            scratch,
            hits: 0,
            misses: 0,
            extractions: 0,
        }
    }

    /// The algorithm running the per-component re-solves.
    pub fn engine(&self) -> McmEngine {
        self.engine
    }

    /// The minimum cycle mean under the base marking (`None` if acyclic),
    /// equal to [`crate::mcm::karp`] on the source graph.
    pub fn base_mean(&self) -> Option<Ratio> {
        self.comps.iter().map(|c| c.base_mean).reduce(Ratio::min)
    }

    /// The minimum cycle mean with the given places' token counts
    /// **overridden** to the paired values (absolute counts, not
    /// increments). Places absent from `overrides` keep their base tokens;
    /// duplicate entries resolve to the last one; overrides on places that
    /// lie on no cycle are ignored (they cannot affect any mean).
    ///
    /// Returns `None` when the graph is acyclic. The value is exactly
    /// [`crate::mcm::karp`] of the graph with the overrides applied.
    pub fn mcm_with_tokens(&mut self, overrides: &[(PlaceId, u64)]) -> Option<Ratio> {
        let per_comp = self.normalize(overrides);
        let mut best: Option<Ratio> = None;
        for slot in 0..self.comps.len() {
            let mean = self.comp_mean(slot, per_comp.of(slot));
            best = Some(best.map_or(mean, |b: Ratio| b.min(mean)));
        }
        best
    }

    /// [`Self::mcm_with_tokens`] plus a critical cycle and the bottleneck
    /// places, from one component scan, one weight patch and one potentials
    /// pass shared between the two extractions.
    ///
    /// The mean and the critical cycle reproduce
    /// [`crate::mcm::minimum_cycle_mean`] on the modified graph bit for bit
    /// (same tie-break: lowest component id attaining the minimum). The
    /// bottlenecks are the places whose single-token increment strictly
    /// raises the minimum cycle mean, identical to probing every place with
    /// [`Self::mcm_with_tokens`] but computed structurally from the tight
    /// subgraph; if two or more components attain the minimum mean, no
    /// single place can raise it and the set is empty.
    ///
    /// # Errors
    ///
    /// [`GraphError::Empty`] for an empty source graph, [`GraphError::Acyclic`]
    /// when there are no cycles.
    pub fn analysis_with_tokens(
        &mut self,
        overrides: &[(PlaceId, u64)],
    ) -> Result<McmAnalysis, GraphError> {
        if self.graph_empty {
            return Err(GraphError::Empty);
        }
        let per_comp = self.normalize(overrides);
        let mut best: Option<(Ratio, usize)> = None;
        let mut ties = 0u32;
        for slot in 0..self.comps.len() {
            let mean = self.comp_mean(slot, per_comp.of(slot));
            match best {
                // Strict `<` keeps the lowest slot on a tie — the cycle
                // tie-break shared with minimum_cycle_mean.
                None => {
                    best = Some((mean, slot));
                    ties = 1;
                }
                Some((m, _)) if mean < m => {
                    best = Some((mean, slot));
                    ties = 1;
                }
                Some((m, _)) if mean == m => ties += 1,
                Some(_) => {}
            }
        }
        let (mean, slot) = best.ok_or(GraphError::Acyclic)?;
        let deltas = per_comp.of(slot);
        let saved = self.apply(slot, deltas);
        self.extractions += 1;
        let csr = &self.comps[slot].csr;
        // A cross-component tie means no single place raises the global
        // minimum, so the bottleneck set is empty by construction and the
        // tight-subgraph analysis is skipped.
        let (critical_cycle, mut bottlenecks) = if ties > 1 {
            (critical_cycle_csr(csr, mean), Vec::new())
        } else {
            cycle_and_bottlenecks_csr(csr, mean)
        };
        self.restore(slot, deltas, &saved);
        bottlenecks.sort_unstable();
        Ok(McmAnalysis {
            mean,
            critical_cycle,
            bottlenecks,
        })
    }

    /// Forks an independent engine that starts **warm**: the clone carries
    /// every per-component memo entry and converged Howard policy
    /// accumulated so far, so its first queries are hash lookups or
    /// one-sweep warm solves instead of cold re-solves.
    ///
    /// Forks share no mutable state with the original — each side may
    /// query (and grow its memo) concurrently. Design-space sweeps warm
    /// one engine per station group, then fork it per evaluation chunk.
    /// Hit/miss counters start at zero in the fork so per-chunk cache
    /// effectiveness is visible.
    pub fn fork(&self) -> IncrementalMcm {
        IncrementalMcm {
            comps: self.comps.clone(),
            place_index: self.place_index.clone(),
            graph_empty: self.graph_empty,
            engine: self.engine,
            scratch: HowardScratch::new(),
            hits: 0,
            misses: 0,
            extractions: 0,
        }
    }

    /// How many critical-cycle or bottleneck extractions (potentials
    /// passes over a component) this engine has run. Mean-only queries
    /// never extract; callers use this to prove they skipped the work.
    pub fn extraction_count(&self) -> u64 {
        self.extractions
    }

    /// Hit/miss/occupancy counters for the per-component memo.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.comps.iter().map(|c| c.cache.len()).sum(),
        }
    }

    /// Groups overrides by component slot as sorted, deduplicated,
    /// base-differing delta vectors — the canonical memo keys.
    fn normalize(&self, overrides: &[(PlaceId, u64)]) -> Deltas {
        // Sorting by (slot, place, input index) keeps one place's entries
        // adjacent and in input order, so the last of each run wins.
        let mut keyed: Vec<(u32, PlaceId, usize, u64)> = overrides
            .iter()
            .enumerate()
            .filter_map(|(i, &(p, tokens))| {
                // A place on no cycle cannot affect a mean.
                let &(slot, _) = self
                    .place_index
                    .get(p.index())
                    .filter(|&&entry| entry != NOT_ON_A_CYCLE)?;
                Some((slot, p, i, tokens))
            })
            .collect();
        keyed.sort_unstable();
        let mut out = Deltas {
            deltas: Vec::with_capacity(keyed.len()),
            spans: Vec::new(),
        };
        for (j, &(_, p, _, tokens)) in keyed.iter().enumerate() {
            if keyed.get(j + 1).is_some_and(|next| next.1 == p) {
                continue; // overridden again later
            }
            let (slot, e) = self.edge_of(p);
            if self.comps[slot].csr.weight(e) == tokens as i64 {
                continue; // equal to the base marking: not a delta
            }
            match out.spans.last_mut() {
                Some(span) if span.0 == slot => span.2 += 1,
                _ => out
                    .spans
                    .push((slot, out.deltas.len(), out.deltas.len() + 1)),
            }
            out.deltas.push((p, tokens));
        }
        out
    }

    /// Mean of one component under `deltas` (empty = base marking), via
    /// the memo when possible.
    fn comp_mean(&mut self, slot: usize, deltas: &[(PlaceId, u64)]) -> Ratio {
        if deltas.is_empty() {
            self.hits += 1;
            return self.comps[slot].base_mean;
        }
        if let Some(&mean) = self.comps[slot].cache.get(deltas) {
            self.hits += 1;
            return mean;
        }
        self.misses += 1;
        let saved = self.apply(slot, deltas);
        let engine = self.engine;
        let comp = &mut self.comps[slot];
        // Warm start: `comp.policy` holds the policy Howard converged to on
        // the previous solve of this component; for a small token delta it
        // is usually one improvement sweep away from optimal.
        let mean = solve_csr(&comp.csr, engine, &mut self.scratch, &mut comp.policy);
        self.restore(slot, deltas, &saved);
        let cache = &mut self.comps[slot].cache;
        if cache.len() < CACHE_CAP {
            cache.insert(deltas.to_vec(), mean);
        }
        mean
    }

    /// (slot in `comps`, CSR edge index) of a place on a cycle.
    fn edge_of(&self, p: PlaceId) -> (usize, usize) {
        let (slot, e) = self.place_index[p.index()];
        (slot as usize, e as usize)
    }

    /// Patches the component's edge weights, returning the saved originals.
    fn apply(&mut self, slot: usize, deltas: &[(PlaceId, u64)]) -> Vec<i64> {
        let mut saved = Vec::with_capacity(deltas.len());
        for &(p, tokens) in deltas {
            let (s, e) = self.edge_of(p);
            debug_assert_eq!(s, slot);
            let weight = &mut self.comps[slot].csr.weights[e];
            saved.push(*weight);
            *weight = tokens as i64;
        }
        saved
    }

    /// Undoes [`Self::apply`].
    fn restore(&mut self, slot: usize, deltas: &[(PlaceId, u64)], saved: &[i64]) {
        for (&(p, _), &w) in deltas.iter().zip(saved) {
            let (s, e) = self.edge_of(p);
            debug_assert_eq!(s, slot);
            self.comps[slot].csr.weights[e] = w;
        }
    }

    /// Number of cyclic components being tracked.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// Component ids of the tracked (cyclic) components, ascending.
    pub fn component_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.comps.iter().map(|c| c.comp_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcm::{self, McmResult};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Ring + chords + a detached acyclic tail, with every place returned
    /// for override fuzzing.
    fn random_graph(seed: u64) -> (MarkedGraph, Vec<PlaceId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = MarkedGraph::new();
        let n = rng.gen_range(2..10usize);
        let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
        let mut places = Vec::new();
        for i in 0..n {
            places.push(g.add_place(ts[i], ts[(i + 1) % n], rng.gen_range(0..4u64)));
        }
        for _ in 0..rng.gen_range(0..n) {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            places.push(g.add_place(ts[u], ts[v], rng.gen_range(0..4u64)));
        }
        // Acyclic tail: place overrides here must be ignored.
        let tail = g.add_transition("tail");
        places.push(g.add_place(ts[0], tail, rng.gen_range(0..4u64)));
        (g, places)
    }

    /// The mean and critical cycle of an analysis, as
    /// [`mcm::minimum_cycle_mean`] reports them.
    fn result(inc: &mut IncrementalMcm, overrides: &[(PlaceId, u64)]) -> Option<McmResult> {
        inc.analysis_with_tokens(overrides).ok().map(|a| McmResult {
            mean: a.mean,
            critical_cycle: a.critical_cycle,
        })
    }

    #[test]
    fn only_cycle_and_bottleneck_queries_count_as_extractions() {
        let (g, places) = random_graph(3);
        let mut inc = IncrementalMcm::new(&g);
        inc.mcm_with_tokens(&[]);
        inc.mcm_with_tokens(&[(places[0], 3)]);
        assert_eq!(inc.extraction_count(), 0);
        inc.analysis_with_tokens(&[]).unwrap();
        inc.analysis_with_tokens(&[(places[0], 3)]).unwrap();
        assert_eq!(inc.extraction_count(), 2);
        assert_eq!(inc.fork().extraction_count(), 0);
    }

    #[test]
    fn matches_karp_under_random_overrides() {
        for seed in 0..30 {
            let (mut g, places) = random_graph(seed);
            let mut inc = IncrementalMcm::new(&g);
            assert_eq!(inc.base_mean(), mcm::karp(&g), "seed {seed}");
            let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
            for query in 0..20 {
                let k = rng.gen_range(0..4usize);
                let overrides: Vec<(PlaceId, u64)> = (0..k)
                    .map(|_| {
                        (
                            places[rng.gen_range(0..places.len())],
                            rng.gen_range(0..5u64),
                        )
                    })
                    .collect();
                // Oracle: mutate a clone and run Karp from scratch.
                let saved: Vec<u64> = overrides.iter().map(|&(p, _)| g.tokens(p)).collect();
                for &(p, t) in &overrides {
                    g.set_tokens(p, t);
                }
                let expect = mcm::karp(&g);
                let expect_full = mcm::minimum_cycle_mean(&g);
                for (&(p, _), &t) in overrides.iter().zip(&saved) {
                    g.set_tokens(p, t);
                }
                assert_eq!(
                    inc.mcm_with_tokens(&overrides),
                    expect,
                    "seed {seed} query {query} overrides {overrides:?}"
                );
                assert_eq!(
                    result(&mut inc, &overrides),
                    expect_full.ok(),
                    "seed {seed} query {query}"
                );
            }
        }
    }

    #[test]
    fn every_engine_answers_identically() {
        for seed in 0..10 {
            let (g, places) = random_graph(seed);
            let mut engines: Vec<IncrementalMcm> = McmEngine::ALL
                .iter()
                .map(|&e| IncrementalMcm::with_engine(&g, e))
                .collect();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
            for query in 0..15 {
                let k = rng.gen_range(0..3usize);
                let overrides: Vec<(PlaceId, u64)> = (0..k)
                    .map(|_| {
                        (
                            places[rng.gen_range(0..places.len())],
                            rng.gen_range(0..5u64),
                        )
                    })
                    .collect();
                let answers: Vec<_> = engines
                    .iter_mut()
                    .map(|inc| {
                        (
                            inc.mcm_with_tokens(&overrides),
                            inc.analysis_with_tokens(&overrides).ok(),
                        )
                    })
                    .collect();
                for pair in answers.windows(2) {
                    assert_eq!(
                        pair[0], pair[1],
                        "seed {seed} query {query} overrides {overrides:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        let back = g.add_place(b, a, 0);
        let mut inc = IncrementalMcm::new(&g);
        let first = inc.mcm_with_tokens(&[(back, 3)]);
        let stats = inc.cache_stats();
        assert_eq!(stats.misses, 1);
        let second = inc.mcm_with_tokens(&[(back, 3)]);
        assert_eq!(first, second);
        let stats = inc.cache_stats();
        assert_eq!(stats.misses, 1, "second query must be a cache hit");
        assert!(stats.hits >= 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn base_marking_queries_never_resolve() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let fwd = g.add_place(a, b, 1);
        g.add_place(b, a, 0);
        let mut inc = IncrementalMcm::new(&g);
        // Overriding to the base value is not a delta.
        assert_eq!(inc.mcm_with_tokens(&[(fwd, 1)]), inc.base_mean());
        assert_eq!(inc.cache_stats().misses, 0);
    }

    #[test]
    fn duplicate_overrides_last_one_wins() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 0);
        let back = g.add_place(b, a, 0);
        let mut inc = IncrementalMcm::new(&g);
        assert_eq!(
            inc.mcm_with_tokens(&[(back, 7), (back, 2)]),
            Some(Ratio::ONE)
        );
    }

    #[test]
    fn acyclic_graph_has_no_mean() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let p = g.add_place(a, b, 1);
        let mut inc = IncrementalMcm::new(&g);
        assert_eq!(inc.base_mean(), None);
        assert_eq!(inc.mcm_with_tokens(&[(p, 5)]), None);
        assert_eq!(
            inc.analysis_with_tokens(&[]).unwrap_err(),
            GraphError::Acyclic
        );
        assert_eq!(inc.component_count(), 0);
        assert_eq!(inc.engine(), McmEngine::Howard);
    }

    #[test]
    fn empty_graph_reports_empty() {
        let g = MarkedGraph::new();
        let mut inc = IncrementalMcm::new(&g);
        assert_eq!(
            inc.analysis_with_tokens(&[]).unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn fork_answers_identically_and_starts_warm() {
        for seed in 0..10 {
            let (g, places) = random_graph(seed);
            let mut inc = IncrementalMcm::new(&g);
            // Warm the original on a query stream.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF0_52);
            let queries: Vec<Vec<(PlaceId, u64)>> = (0..12)
                .map(|_| {
                    (0..rng.gen_range(0..3usize))
                        .map(|_| {
                            (
                                places[rng.gen_range(0..places.len())],
                                rng.gen_range(0..5u64),
                            )
                        })
                        .collect()
                })
                .collect();
            for q in &queries {
                inc.mcm_with_tokens(q);
            }
            let warmed_misses = inc.cache_stats().misses;
            let mut fork = inc.fork();
            assert_eq!(fork.cache_stats().hits, 0);
            assert_eq!(fork.cache_stats().misses, 0);
            assert_eq!(fork.cache_stats().entries, inc.cache_stats().entries);
            // Replaying the warmed stream on the fork answers identically
            // and never runs the engine: every query is a memo hit.
            for q in &queries {
                assert_eq!(
                    fork.mcm_with_tokens(q),
                    inc.mcm_with_tokens(q),
                    "seed {seed}"
                );
                assert_eq!(
                    fork.analysis_with_tokens(q).ok(),
                    inc.analysis_with_tokens(q).ok(),
                    "seed {seed}"
                );
            }
            assert_eq!(fork.cache_stats().misses, 0, "fork must start warm");
            assert_eq!(
                inc.cache_stats().misses,
                warmed_misses,
                "replay on the original must also be all hits"
            );
            // Divergent queries on the fork leave the original untouched.
            let probe: Vec<(PlaceId, u64)> = places.iter().map(|&p| (p, 4)).collect();
            fork.mcm_with_tokens(&probe);
            assert_eq!(inc.cache_stats().misses, warmed_misses);
            assert_eq!(inc.mcm_with_tokens(&[]), inc.base_mean());
        }
    }

    /// The combined query against separate from-scratch answers: the
    /// mean and cycle of [`mcm::minimum_cycle_mean`] on the overridden
    /// graph, and the bottlenecks found by probing every place with one
    /// more token.
    #[test]
    fn combined_analysis_matches_separate_queries() {
        for seed in 0..25 {
            let (mut g, places) = random_graph(seed);
            let mut inc = IncrementalMcm::new(&g);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA11A);
            for query in 0..15 {
                let overrides: Vec<(PlaceId, u64)> = (0..rng.gen_range(0..4usize))
                    .map(|_| {
                        (
                            places[rng.gen_range(0..places.len())],
                            rng.gen_range(0..5u64),
                        )
                    })
                    .collect();
                let saved: Vec<u64> = overrides.iter().map(|&(p, _)| g.tokens(p)).collect();
                for &(p, t) in &overrides {
                    g.set_tokens(p, t);
                }
                let separate = mcm::minimum_cycle_mean(&g).expect("the ring is cyclic");
                let tokens: Vec<u64> = places.iter().map(|&p| g.tokens(p)).collect();
                for (&(p, _), &t) in overrides.iter().zip(&saved).rev() {
                    g.set_tokens(p, t);
                }
                let mut probed: Vec<PlaceId> = places
                    .iter()
                    .zip(&tokens)
                    .filter(|&(&p, &t)| {
                        let mut probe = overrides.clone();
                        probe.push((p, t + 1));
                        inc.mcm_with_tokens(&probe) > Some(separate.mean)
                    })
                    .map(|(&p, _)| p)
                    .collect();
                probed.sort_unstable();
                let combined = inc.analysis_with_tokens(&overrides).expect("cyclic");
                assert_eq!(combined.mean, separate.mean, "seed {seed} query {query}");
                assert_eq!(
                    combined.critical_cycle, separate.critical_cycle,
                    "seed {seed} query {query}"
                );
                assert_eq!(combined.bottlenecks, probed, "seed {seed} query {query}");
            }
        }
    }

    #[test]
    fn combined_analysis_error_cases() {
        let g = MarkedGraph::new();
        let mut inc = IncrementalMcm::new(&g);
        assert_eq!(
            inc.analysis_with_tokens(&[]).unwrap_err(),
            GraphError::Empty
        );
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        let mut inc = IncrementalMcm::new(&g);
        assert_eq!(
            inc.analysis_with_tokens(&[]).unwrap_err(),
            GraphError::Acyclic
        );
    }

    #[test]
    fn untouched_components_reuse_base_means() {
        // Two disconnected rings; overriding only the second must not
        // re-solve the first.
        let mut g = MarkedGraph::new();
        let a0 = g.add_transition("a0");
        let a1 = g.add_transition("a1");
        g.add_place(a0, a1, 1);
        g.add_place(a1, a0, 1);
        let b0 = g.add_transition("b0");
        let b1 = g.add_transition("b1");
        g.add_place(b0, b1, 1);
        let back = g.add_place(b1, b0, 0);
        let mut inc = IncrementalMcm::new(&g);
        assert_eq!(inc.component_count(), 2);
        assert_eq!(inc.mcm_with_tokens(&[(back, 9)]), Some(Ratio::ONE));
        // Exactly one engine run: the b-ring.
        assert_eq!(inc.cache_stats().misses, 1);
    }
}
