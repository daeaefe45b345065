//! Minimum cycle mean (MCM) computation.
//!
//! The cycle time of a strongly connected marked graph is the reciprocal of
//! its minimum cycle mean — the minimum over cycles of tokens-per-place
//! (Section III-B of the paper). Three interchangeable engines are provided,
//! selected by [`McmEngine`]:
//!
//! * [`McmEngine::Howard`] — Howard's policy iteration over a flat CSR
//!   snapshot ([`crate::csr::CsrScc`], [`crate::howard`]). The default: the
//!   empirically fastest MCM algorithm on sparse strongly connected graphs,
//!   with warm-startable policies for repeated queries.
//! * [`McmEngine::Karp`] — Karp's dynamic program, O(|V||E|), exact
//!   rationals. The algorithm the paper uses to check QS solutions; kept as
//!   the cross-validation oracle.
//! * [`McmEngine::Lawler`] — Lawler's parametric binary search with
//!   Bellman–Ford negative-cycle detection, snapped to the exact rational
//!   via Stern–Brocot best approximation.
//!
//! All three run on the same CSR snapshot with exact rational arithmetic,
//! so they return bit-identical means — and, because the critical-cycle
//! extraction depends only on the mean and the shared canonical edge order,
//! bit-identical critical cycles.
//!
//! [`minimum_cycle_mean`] is the main entry point: it runs per strongly
//! connected component and also extracts a *critical cycle* (a cycle whose
//! mean attains the minimum) through shortest-path potentials and tight
//! edges. Components are solved one after another on the calling thread:
//! a request already owns one worker, so fanning its components out would
//! add thread spawns but no capacity. Means are exact rationals reduced
//! with `min` in component-id order, and ties between components with the
//! same mean always resolve to the lowest component id, so the reported
//! critical cycle is deterministic. [`mcm_masked`] answers the same
//! question for the subgraph of selected places without building it. For
//! repeated evaluation of the same graph under different token
//! assignments, see [`crate::incremental::IncrementalMcm`].

use crate::csr::CsrScc;
use crate::error::GraphError;
use crate::graph::{MarkedGraph, PlaceId};
use crate::howard::{howard_csr, HowardScratch};
use crate::ratio::Ratio;
use crate::scc::SccDecomposition;

/// Result of a minimum-cycle-mean analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McmResult {
    /// The minimum cycle mean over all cycles of the graph.
    pub mean: Ratio,
    /// One cycle attaining the minimum, as a closed walk of places.
    pub critical_cycle: Vec<PlaceId>,
}

/// Which MCM algorithm to run per SCC. All engines return bit-identical
/// results; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum McmEngine {
    /// Howard's policy iteration (default; fastest, warm-startable).
    #[default]
    Howard,
    /// Karp's dynamic program (the cross-validation oracle).
    Karp,
    /// Lawler's parametric search with Stern–Brocot snapping.
    Lawler,
}

impl McmEngine {
    /// All engines, in display order.
    pub const ALL: [McmEngine; 3] = [McmEngine::Howard, McmEngine::Karp, McmEngine::Lawler];

    /// The lowercase name used by CLI flags, server options, and metrics
    /// labels.
    pub fn as_str(self) -> &'static str {
        match self {
            McmEngine::Howard => "howard",
            McmEngine::Karp => "karp",
            McmEngine::Lawler => "lawler",
        }
    }
}

impl std::fmt::Display for McmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for McmEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<McmEngine, String> {
        match s {
            "howard" => Ok(McmEngine::Howard),
            "karp" => Ok(McmEngine::Karp),
            "lawler" => Ok(McmEngine::Lawler),
            other => Err(format!(
                "unknown MCM engine {other:?} (expected howard, karp, or lawler)"
            )),
        }
    }
}

/// Solves one CSR snapshot with the chosen engine, reusing the caller's
/// Howard scratch/policy buffers (ignored by the other engines).
pub(crate) fn solve_csr(
    csr: &CsrScc,
    engine: McmEngine,
    scratch: &mut HowardScratch,
    policy: &mut Vec<u32>,
) -> Ratio {
    match engine {
        McmEngine::Howard => howard_csr(csr, scratch, policy),
        McmEngine::Karp => karp_csr(csr),
        McmEngine::Lawler => lawler_csr(csr),
    }
}

fn assert_unit_delays(graph: &MarkedGraph) {
    for t in graph.transition_ids() {
        assert_eq!(graph.delay(t), 1, "MCM solvers require unit delays");
    }
}

/// Computes the minimum cycle mean and one critical cycle of `graph` with
/// the default engine ([`McmEngine::Howard`]).
///
/// The mean of a cycle is its token count divided by its place count
/// (unit transition delays, as in the paper's synchronous setting).
///
/// # Errors
///
/// Returns [`GraphError::Acyclic`] if the graph has no cycles and
/// [`GraphError::Empty`] if it has no transitions.
///
/// # Panics
///
/// Panics if any transition has a delay other than 1; general delays are
/// supported by [`MarkedGraph::cycle_mean`] but not by the MCM solvers.
///
/// # Examples
///
/// The critical cycle of the doubled Fig. 2 graph has mean 2/3 (paper,
/// Fig. 5); a minimal version:
///
/// ```
/// use marked_graph::{mcm::minimum_cycle_mean, MarkedGraph, Ratio};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let rs = g.add_transition("rs");
/// let b = g.add_transition("B");
/// g.add_place(a, rs, 0); // relay station emits tau first: no token
/// g.add_place(rs, b, 1); // shell B fires in the first period
/// g.add_place(b, a, 1); // backedge with one queue slot
/// let r = minimum_cycle_mean(&g)?;
/// assert_eq!(r.mean, Ratio::new(2, 3));
/// assert_eq!(r.critical_cycle.len(), 3);
/// # Ok::<(), marked_graph::GraphError>(())
/// ```
pub fn minimum_cycle_mean(graph: &MarkedGraph) -> Result<McmResult, GraphError> {
    minimum_cycle_mean_with(graph, McmEngine::default())
}

/// [`minimum_cycle_mean`] with an explicit engine choice.
///
/// All engines return the same [`McmResult`] bit for bit: the mean is the
/// same exact rational, and the critical cycle is extracted from the same
/// CSR snapshot by the same engine-independent tight-edge search.
///
/// # Errors
///
/// Returns [`GraphError::Acyclic`] if the graph has no cycles and
/// [`GraphError::Empty`] if it has no transitions.
pub fn minimum_cycle_mean_with(
    graph: &MarkedGraph,
    engine: McmEngine,
) -> Result<McmResult, GraphError> {
    if graph.is_empty() {
        return Err(GraphError::Empty);
    }
    assert_unit_delays(graph);
    let (mean, csr) = solve_components(graph, engine, |_| true).ok_or(GraphError::Acyclic)?;
    let critical_cycle = critical_cycle_csr(&csr, mean);
    Ok(McmResult {
        mean,
        critical_cycle,
    })
}

/// Solves every cyclic component of the subgraph of the places `keep`
/// accepts, in component-id order, reusing one set of Howard buffers.
/// Returns the minimum mean and the CSR snapshot of the *lowest* component
/// id attaining it (only a strictly smaller mean displaces the incumbent):
/// the documented deterministic choice of critical cycle. `None` when that
/// subgraph is acyclic.
fn solve_components(
    graph: &MarkedGraph,
    engine: McmEngine,
    keep: impl Fn(PlaceId) -> bool + Copy,
) -> Option<(Ratio, CsrScc)> {
    let scc = SccDecomposition::compute_filtered(graph, keep);
    let mut scratch = HowardScratch::new();
    let mut policy = Vec::new();
    let mut best: Option<(Ratio, CsrScc)> = None;
    for c in scc.component_ids() {
        let members = scc.members(c);
        let cyclic = members.len() > 1 || {
            let t = members[0];
            graph
                .outputs(t)
                .iter()
                .any(|&p| graph.target(p) == t && keep(p))
        };
        if !cyclic {
            continue;
        }
        let csr = CsrScc::build_filtered(graph, &scc, c, keep);
        policy.clear();
        let mean = solve_csr(&csr, engine, &mut scratch, &mut policy);
        if best.as_ref().is_none_or(|(m, _)| mean < *m) {
            best = Some((mean, csr));
        }
    }
    best
}

/// Minimum cycle mean of one CSR snapshot under the chosen engine.
///
/// The public per-component entry point for consumers that already hold a
/// [`CsrScc`] snapshot — periodic schedule generation solves each component
/// on the same snapshot the full-graph analysis uses, so the per-SCC rates
/// it aligns phases against are bit-identical to the engine's answer.
///
/// # Examples
///
/// ```
/// use marked_graph::csr::CsrScc;
/// use marked_graph::mcm::{scc_mean_with, McmEngine};
/// use marked_graph::{MarkedGraph, Ratio, SccDecomposition};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 0);
/// let scc = SccDecomposition::compute(&g);
/// let csr = CsrScc::build(&g, &scc, scc.component_of(a));
/// assert_eq!(scc_mean_with(&csr, McmEngine::Karp), Ratio::new(1, 2));
/// ```
pub fn scc_mean_with(csr: &CsrScc, engine: McmEngine) -> Ratio {
    let mut scratch = HowardScratch::new();
    let mut policy = Vec::new();
    solve_csr(csr, engine, &mut scratch, &mut policy)
}

/// Minimum cycle mean over the whole graph with the chosen engine
/// (minimum across SCCs). Returns `None` for acyclic graphs. Howard's
/// scratch and policy buffers are reused across SCCs.
pub fn mcm_serial(graph: &MarkedGraph, engine: McmEngine) -> Option<Ratio> {
    solve_components(graph, engine, |_| true).map(|(mean, _)| mean)
}

/// Minimum cycle mean of the subgraph holding only the places `p` with
/// `mask[p.index()]` set, with every transition kept. Equal to
/// [`mcm_serial`] on that subgraph built as a graph of its own, but
/// without building it: the SCC decomposition and the per-component
/// snapshots skip the masked-out places. Returns `None` when the subgraph
/// is acyclic.
///
/// # Panics
///
/// Panics if `mask` is shorter than the place count.
///
/// # Examples
///
/// The forward places of a doubled graph form its ideal graph:
///
/// ```
/// use marked_graph::mcm::{mcm_masked, McmEngine};
/// use marked_graph::{MarkedGraph, Ratio};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// g.add_place(a, b, 1); // forward
/// g.add_place(b, a, 1); // forward
/// g.add_place(b, a, 0); // a backedge with no free slot
/// assert_eq!(mcm_masked(&g, McmEngine::Karp, &[true, true, true]), Some(Ratio::new(1, 2)));
/// assert_eq!(mcm_masked(&g, McmEngine::Karp, &[true, true, false]), Some(Ratio::ONE));
/// assert_eq!(mcm_masked(&g, McmEngine::Karp, &[true, false, false]), None);
/// ```
pub fn mcm_masked(graph: &MarkedGraph, engine: McmEngine, mask: &[bool]) -> Option<Ratio> {
    assert!(
        mask.len() >= graph.place_count(),
        "one mask entry per place"
    );
    solve_components(graph, engine, |p| mask[p.index()]).map(|(mean, _)| mean)
}

/// Karp's minimum cycle mean over the whole graph (minimum across SCCs).
///
/// Returns `None` for acyclic graphs.
///
/// # Examples
///
/// ```
/// use marked_graph::{mcm::karp, MarkedGraph, Ratio};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 0);
/// assert_eq!(karp(&g), Some(Ratio::new(1, 2)));
/// ```
pub fn karp(graph: &MarkedGraph) -> Option<Ratio> {
    mcm_serial(graph, McmEngine::Karp)
}

/// Howard's minimum cycle mean over the whole graph (minimum across SCCs).
///
/// Returns `None` for acyclic graphs; bit-identical to [`karp`] and
/// [`lawler`] on every input.
///
/// # Examples
///
/// ```
/// use marked_graph::{mcm::{howard, karp}, MarkedGraph};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 0);
/// assert_eq!(howard(&g), karp(&g));
/// ```
pub fn howard(graph: &MarkedGraph) -> Option<Ratio> {
    mcm_serial(graph, McmEngine::Howard)
}

/// Karp's dynamic program on one CSR snapshot.
///
/// `D_k(v)` = minimum token weight of a walk with exactly `k` edges from an
/// arbitrary root to `v`; the minimum cycle mean is
/// `min_v max_k (D_n(v) - D_k(v)) / (n - k)`. The DP table is one flat
/// `(n + 1) × n` slab with an `i64::MAX` sentinel for "unreachable".
///
/// # Panics
///
/// Panics if the snapshot has no cycle (never the case for a cyclic SCC).
pub(crate) fn karp_csr(csr: &CsrScc) -> Ratio {
    let n = csr.n();
    assert!(csr.edge_count() > 0, "cyclic SCC has a cycle");
    const UNSET: i64 = i64::MAX;
    let mut dp: Vec<i64> = vec![UNSET; (n + 1) * n];
    dp[0] = 0; // dp[0][0]
    for k in 0..n {
        let (head, tail) = dp[k * n..].split_at_mut(n);
        let next = &mut tail[..n];
        for (v, &dv) in head.iter().enumerate() {
            if dv == UNSET {
                continue;
            }
            for e in csr.out(v) {
                let w = csr.target(e);
                let cand = dv + csr.weight(e);
                if cand < next[w] {
                    next[w] = cand;
                }
            }
        }
    }
    let last = &dp[n * n..];
    let mut best: Option<Ratio> = None;
    for v in 0..n {
        let dn = last[v];
        if dn == UNSET {
            continue;
        }
        let mut worst: Option<Ratio> = None;
        for k in 0..n {
            let dk = dp[k * n + v];
            if dk == UNSET {
                continue;
            }
            let mean = Ratio::new(dn - dk, (n - k) as i64);
            worst = Some(worst.map_or(mean, |m: Ratio| m.max(mean)));
        }
        if let Some(w) = worst {
            best = Some(best.map_or(w, |b: Ratio| b.min(w)));
        }
    }
    best.expect("cyclic SCC has a cycle")
}

/// Extracts a cycle whose mean equals `mean` from one CSR snapshot.
///
/// Uses shortest-path potentials under reduced weights
/// `r(e) = den*w(e) - num` (all cycles then have nonnegative total, critical
/// cycles exactly zero); every edge of a critical cycle is *tight*
/// (`phi(u) + r(e) == phi(v)`), so any cycle in the tight subgraph is
/// critical. The traversal follows the snapshot's canonical edge order, so
/// the returned cycle is independent of which engine produced `mean`.
pub(crate) fn critical_cycle_csr(csr: &CsrScc, mean: Ratio) -> Vec<PlaceId> {
    let phi = potentials_csr(csr, mean);
    critical_cycle_from(csr, mean, &phi)
}

/// Shortest-path potentials under reduced weights `r(e) = den*w(e) - num`:
/// the exact distances from vertex 0 (SCC ⇒ everything reachable). Every
/// edge of every critical (zero-total) cycle is *tight* under these
/// potentials: `phi(u) + r(e) == phi(v)`.
///
/// `mean` must not exceed the component's minimum cycle mean, so no cycle
/// has a negative reduced total and the distances exist. They are unique, so any
/// exact shortest-path algorithm yields the same vector; this one is
/// label-correcting with a FIFO queue, which revisits only vertices whose
/// distance dropped. Full Bellman–Ford passes in vertex order would need one
/// pass per hop on a long ring whose edges run against that order.
pub(crate) fn potentials_csr(csr: &CsrScc, mean: Ratio) -> Vec<i64> {
    let n = csr.n();
    let num = mean.numer();
    let den = mean.denom();
    let reduced = |w: i64| den * w - num;
    let mut phi = vec![i64::MAX; n];
    let mut queued = vec![false; n];
    let mut queue = std::collections::VecDeque::with_capacity(n);
    phi[0] = 0;
    queued[0] = true;
    queue.push_back(0);
    // Bellman–Ford's bound: without a negative cycle no vertex is lowered
    // more than n times.
    let mut budget = n * n + n;
    while let Some(v) = queue.pop_front() {
        queued[v] = false;
        for e in csr.out(v) {
            let w = csr.target(e);
            let cand = phi[v] + reduced(csr.weight(e));
            if cand < phi[w] {
                phi[w] = cand;
                budget = budget
                    .checked_sub(1)
                    .expect("mean above the component's minimum cycle mean");
                if !queued[w] {
                    queued[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    phi
}

fn critical_cycle_from(csr: &CsrScc, mean: Ratio, phi: &[i64]) -> Vec<PlaceId> {
    critical_cycle_edges_from(csr, mean, phi)
        .into_iter()
        .map(|e| csr.place(e))
        .collect()
}

/// [`critical_cycle_from`] returning CSR edge indices instead of places.
fn critical_cycle_edges_from(csr: &CsrScc, mean: Ratio, phi: &[i64]) -> Vec<usize> {
    let n = csr.n();
    let num = mean.numer();
    let den = mean.denom();
    let reduced = |w: i64| den * w - num;

    // DFS for a cycle within tight edges. `next` counts per-vertex edge
    // offsets so the visit order matches the canonical CSR edge order.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    // (vertex, per-vertex edge index) path for reconstruction.
    let mut path: Vec<(usize, usize)> = Vec::new();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if color[root] != Color::White {
            continue;
        }
        stack.push((root, 0));
        color[root] = Color::Gray;
        path.clear();
        while let Some(&(v, next)) = stack.last() {
            let out = csr.out(v);
            if next >= out.len() {
                color[v] = Color::Black;
                stack.pop();
                path.pop();
                continue;
            }
            stack.last_mut().expect("stack nonempty").1 += 1;
            let e = out.start + next;
            let w = csr.target(e);
            if phi[v] + reduced(csr.weight(e)) != phi[w] {
                continue; // not tight
            }
            match color[w] {
                Color::White => {
                    color[w] = Color::Gray;
                    path.push((v, next));
                    stack.push((w, 0));
                }
                Color::Gray => {
                    // Cycle: w ... v -> w. Collect places from the path suffix
                    // starting at w, then the closing edge. `path[i]` is the
                    // edge from the i-th to the (i+1)-th vertex of the DFS
                    // chain held in `stack`.
                    let chain: Vec<usize> = stack.iter().map(|&(x, _)| x).collect();
                    let start = chain
                        .iter()
                        .position(|&x| x == w)
                        .expect("gray vertex lies on the DFS chain");
                    let mut edges: Vec<usize> = path[start..]
                        .iter()
                        .map(|&(u, ei)| csr.out(u).start + ei)
                        .collect();
                    edges.push(e);
                    return edges;
                }
                Color::Black => {}
            }
        }
    }
    unreachable!("a critical cycle must exist in the tight subgraph")
}

/// The places of one CSR snapshot whose single-token increment strictly
/// raises its minimum cycle mean, computed **structurally** — no re-solves.
///
/// A token on place `p` strictly raises the mean of every cycle through `p`
/// and no other, so the component minimum rises iff every minimum-mean
/// cycle contains `p`. Minimum-mean cycles are exactly the cycles of the
/// *tight subgraph* (edges with `phi(u) + r(e) == phi(v)`; any such cycle
/// telescopes to reduced total 0), so `p` qualifies iff the tight subgraph
/// minus `p` is acyclic. Only the edges of one extracted critical cycle
/// can pass that test, and [`bottleneck_places_from`] decides all of them
/// in one linear pass. Returned in critical-cycle order; callers sort as
/// needed.
pub(crate) fn bottleneck_places_csr(csr: &CsrScc, mean: Ratio) -> Vec<PlaceId> {
    let phi = potentials_csr(csr, mean);
    let cycle_edges = critical_cycle_edges_from(csr, mean, &phi);
    bottleneck_places_from(csr, mean, &phi, &cycle_edges)
}

/// Critical cycle and bottleneck places of one snapshot in a single pass,
/// sharing the Bellman–Ford potentials and the extracted cycle between the
/// two answers. Equal to ([`critical_cycle_csr`], [`bottleneck_places_csr`])
/// computed separately.
pub(crate) fn cycle_and_bottlenecks_csr(csr: &CsrScc, mean: Ratio) -> (Vec<PlaceId>, Vec<PlaceId>) {
    let phi = potentials_csr(csr, mean);
    let cycle_edges = critical_cycle_edges_from(csr, mean, &phi);
    let bottlenecks = bottleneck_places_from(csr, mean, &phi, &cycle_edges);
    let cycle = cycle_edges.into_iter().map(|e| csr.place(e)).collect();
    (cycle, bottlenecks)
}

/// The places of the edges of the critical cycle `C = v₀ → … → v_{k−1} → v₀`
/// whose removal leaves the tight subgraph acyclic, in cycle order and in
/// O(V + E).
///
/// Let `H` be the tight subgraph without `C`'s edges, and call a tight path
/// `v_a ⇝ v_b` whose inner vertices are off `C` a *bridge* (a chord is one).
/// A bridge together with `C`'s arc from `v_b` back to `v_a` is a cycle
/// avoiding exactly the cycle edges in the cyclic range `[a, b)`, so it
/// *jumps* them. Conversely, when `H` is acyclic every cycle of the tight
/// subgraph other than `C` is a sequence of `C` edges and bridges, and one
/// that avoids edge `i` must contain a bridge jumping it (cutting `C` at
/// `i`, `C` edges and non-jumping bridges only move forward). So edge `i`
/// is a bottleneck iff `H` is acyclic and no bridge jumps it.
///
/// Kahn's algorithm tests `H` and orders it. Over that order a forward
/// dynamic program gives every vertex the highest and lowest cycle position
/// its bridges first hit, and a backward one the highest position a bridge
/// into it starts from. Forward bridges from `v_a` then jump `[a, max)`;
/// the wrapping ones collapse to `[min source, k) ∪ [0, max target)`; a
/// prefix sum over positions marks every jumped edge.
fn bottleneck_places_from(
    csr: &CsrScc,
    mean: Ratio,
    phi: &[i64],
    cycle_edges: &[usize],
) -> Vec<PlaceId> {
    const OFF: i32 = -1;
    let n = csr.n();
    let k = cycle_edges.len();
    let num = mean.numer();
    let den = mean.denom();
    let reduced = |w: i64| den * w - num;

    // `pos[v]`: cycle position of `v` (`v_i` is the tail of cycle edge
    // `i`), `OFF` for vertices off the cycle.
    let mut pos = vec![OFF; n];
    for (i, &e) in cycle_edges.iter().enumerate() {
        pos[csr.target(e)] = ((i + 1) % k) as i32;
    }
    // `H` in flat CSR form: the tight edges that are not cycle edges.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets: Vec<u32> = Vec::with_capacity(csr.edge_count());
    let mut indegree = vec![0u32; n];
    offsets.push(0u32);
    for v in 0..n {
        let cycle_edge = (pos[v] != OFF).then(|| cycle_edges[pos[v] as usize]);
        for e in csr.out(v) {
            let w = csr.target(e);
            if phi[v] + reduced(csr.weight(e)) == phi[w] && cycle_edge != Some(e) {
                targets.push(w as u32);
                indegree[w] += 1;
            }
        }
        offsets.push(targets.len() as u32);
    }
    let h_out = |v: usize| &targets[offsets[v] as usize..offsets[v + 1] as usize];

    // Kahn's algorithm; `order` doubles as its queue.
    let mut order: Vec<u32> = (0..n as u32)
        .filter(|&v| indegree[v as usize] == 0)
        .collect();
    order.reserve(n - order.len());
    let mut head = 0;
    while head < order.len() {
        let v = order[head] as usize;
        head += 1;
        for &w in h_out(v) {
            indegree[w as usize] -= 1;
            if indegree[w as usize] == 0 {
                order.push(w);
            }
        }
    }
    if order.len() < n {
        return Vec::new(); // a tight cycle avoids every edge of `C`
    }

    // Forward: the highest and lowest positions `v`'s bridges first hit
    // (for `v` on the cycle, the targets of the bridges it starts).
    let mut hit_hi = vec![OFF; n];
    let mut hit_lo = vec![i32::MAX; n];
    for &v in order.iter().rev() {
        let v = v as usize;
        let (mut hi, mut lo) = (OFF, i32::MAX);
        for &w in h_out(v) {
            let w = w as usize;
            let (whi, wlo) = if pos[w] != OFF {
                (pos[w], pos[w])
            } else {
                (hit_hi[w], hit_lo[w])
            };
            hi = hi.max(whi);
            lo = lo.min(wlo);
        }
        hit_hi[v] = hi;
        hit_lo[v] = lo;
    }
    // Backward: the highest position a bridge into `v` starts from.
    let mut from_hi = vec![OFF; n];
    for &v in &order {
        let v = v as usize;
        let s = if pos[v] != OFF { pos[v] } else { from_hi[v] };
        if s != OFF {
            for &w in h_out(v) {
                from_hi[w as usize] = from_hi[w as usize].max(s);
            }
        }
    }

    // Cover the jumped positions with a difference array.
    let mut cover = vec![0i32; k + 1];
    let mut wrap_from = k;
    let mut wrap_to = 0;
    for (i, &e) in cycle_edges.iter().enumerate() {
        // `v` sits at position `i + 1` (mod k).
        let at = (i + 1) % k;
        let v = csr.target(e);
        if hit_hi[v] > at as i32 {
            cover[at] += 1;
            cover[hit_hi[v] as usize] -= 1;
        }
        if hit_lo[v] < at as i32 {
            wrap_from = wrap_from.min(at);
        }
        if from_hi[v] > at as i32 {
            wrap_to = wrap_to.max(at);
        }
    }
    if wrap_from < k {
        cover[wrap_from] += 1;
        cover[k] -= 1;
        cover[0] += 1;
        cover[wrap_to] -= 1;
    }
    let mut jumped = 0;
    cycle_edges
        .iter()
        .zip(&cover)
        .filter_map(|(&e, &delta)| {
            jumped += delta;
            (jumped == 0).then(|| csr.place(e))
        })
        .collect()
}

/// Lawler's algorithm: exact minimum cycle mean via parametric search.
///
/// Binary-searches the cycle-mean value, testing each guess `λ` with a
/// Bellman–Ford negative-cycle detection under reduced weights, then snaps
/// the bracketing interval to the unique rational with denominator ≤ |V|
/// via the Stern–Brocot tree. Returns `None` for acyclic graphs.
///
/// This is an independent cross-check of [`karp`]; the two must agree on
/// every input.
///
/// # Examples
///
/// ```
/// use marked_graph::{mcm::{karp, lawler}, MarkedGraph};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// let c = g.add_transition("C");
/// g.add_place(a, b, 1);
/// g.add_place(b, c, 1);
/// g.add_place(c, a, 0);
/// assert_eq!(lawler(&g), karp(&g));
/// ```
pub fn lawler(graph: &MarkedGraph) -> Option<Ratio> {
    mcm_serial(graph, McmEngine::Lawler)
}

/// Whether some cycle has mean strictly below `lambda` (num/den).
fn has_cycle_below(csr: &CsrScc, num: i64, den: i64) -> bool {
    // Cycle mean < num/den  ⟺  Σ(den*w - num) < 0 over the cycle.
    let n = csr.n();
    let reduced = |w: i64| den * w - num;
    let mut dist = vec![0i64; n];
    for _ in 0..n {
        let mut changed = false;
        for v in 0..n {
            for e in csr.out(v) {
                let w = csr.target(e);
                let cand = dist[v].saturating_add(reduced(csr.weight(e)));
                if cand < dist[w] {
                    dist[w] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            return false;
        }
    }
    // Still relaxing after n rounds ⇒ negative cycle.
    true
}

pub(crate) fn lawler_csr(csr: &CsrScc) -> Ratio {
    let n = csr.n() as i64;
    // Stern–Brocot walk. Invariant: lo = a/b is feasible ("no cycle with
    // mean below a/b", i.e. λ* ≥ a/b) and hi = c/d is infeasible (λ* < c/d),
    // with lo/hi Farey neighbors (c*b - a*d = 1). Because an elementary
    // cycle has at most n edges, λ* has denominator ≤ n; once the mediant's
    // denominator exceeds n no rational strictly between lo and hi can be
    // λ*, so λ* = lo exactly.
    //
    // The canonical root bracket is (0/1, 1/0): 0 is always feasible and
    // "infinity" always infeasible. The walk is unary in the integer part,
    // which is fine for LIS graphs where token weights per edge are small.
    let (mut a, mut b, mut c, mut d) = (0i64, 1i64, 1i64, 0i64);
    loop {
        let (mn, md) = (a + c, b + d);
        if md > n && d != 0 {
            // lo is the best feasible rational with denominator ≤ n.
            return Ratio::new(a, b);
        }
        if has_cycle_below(csr, mn, md) {
            // λ* < mediant: tighten hi.
            c = mn;
            d = md;
        } else {
            // λ* ≥ mediant: raise lo.
            a = mn;
            b = md;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TransitionId;

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
    fn ring_mean() {
        let g = ring(&[1, 0, 1, 0, 0, 1]);
        let r = minimum_cycle_mean(&g).unwrap();
        assert_eq!(r.mean, Ratio::new(3, 6));
        assert_eq!(r.critical_cycle.len(), 6);
        assert_eq!(g.cycle_mean(&r.critical_cycle), Ratio::new(1, 2));
    }

    #[test]
    fn two_nested_cycles_min_wins() {
        // Outer ring of 4 places with 3 tokens (mean 3/4) plus an inner chord
        // creating a 2-place cycle with 1 token (mean 1/2).
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..4).map(|i| g.add_transition(format!("t{i}"))).collect();
        g.add_place(ts[0], ts[1], 1);
        g.add_place(ts[1], ts[2], 1);
        g.add_place(ts[2], ts[3], 1);
        g.add_place(ts[3], ts[0], 0);
        g.add_place(ts[1], ts[0], 0); // chord: cycle t0->t1->t0 mean 1/2
        let r = minimum_cycle_mean(&g).unwrap();
        assert_eq!(r.mean, Ratio::new(1, 2));
        assert_eq!(g.cycle_mean(&r.critical_cycle), Ratio::new(1, 2));
        assert_eq!(r.critical_cycle.len(), 2);
    }

    #[test]
    fn acyclic_graph_errors() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        assert_eq!(minimum_cycle_mean(&g).unwrap_err(), GraphError::Acyclic);
        assert_eq!(karp(&g), None);
        assert_eq!(lawler(&g), None);
        assert_eq!(howard(&g), None);
    }

    #[test]
    fn empty_graph_errors() {
        let g = MarkedGraph::new();
        assert_eq!(minimum_cycle_mean(&g).unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn self_loop() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        g.add_place(a, a, 2);
        let r = minimum_cycle_mean(&g).unwrap();
        assert_eq!(r.mean, Ratio::from_integer(2));
        assert_eq!(r.critical_cycle.len(), 1);
    }

    #[test]
    fn zero_token_cycle_gives_zero_mean() {
        let g = ring(&[0, 0, 0]);
        assert_eq!(minimum_cycle_mean(&g).unwrap().mean, Ratio::ZERO);
        assert_eq!(lawler(&g), Some(Ratio::ZERO));
        assert_eq!(howard(&g), Some(Ratio::ZERO));
    }

    #[test]
    fn multiple_sccs_take_global_min() {
        // SCC 1: ring mean 1/2. SCC 2: ring mean 1/3. Connected by a bridge.
        let mut g = MarkedGraph::new();
        let a0 = g.add_transition("a0");
        let a1 = g.add_transition("a1");
        g.add_place(a0, a1, 1);
        g.add_place(a1, a0, 0);
        let b0 = g.add_transition("b0");
        let b1 = g.add_transition("b1");
        let b2 = g.add_transition("b2");
        g.add_place(b0, b1, 1);
        g.add_place(b1, b2, 0);
        g.add_place(b2, b0, 0);
        g.add_place(a1, b0, 5);
        let r = minimum_cycle_mean(&g).unwrap();
        assert_eq!(r.mean, Ratio::new(1, 3));
        assert_eq!(karp(&g), Some(Ratio::new(1, 3)));
        assert_eq!(lawler(&g), Some(Ratio::new(1, 3)));
        assert_eq!(howard(&g), Some(Ratio::new(1, 3)));
    }

    #[test]
    fn karp_and_lawler_agree_on_paper_fig5() {
        // Fig. 5: A -> rs -> B with backedges, q = 1. Forward-edge tokens
        // follow the paper's Fig. 3 convention: a place holds one token iff
        // its *target* is a shell (the shell fires in the first period); a
        // relay station's incoming place is empty (it emits tau first).
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let rs = g.add_transition("rs");
        let b = g.add_transition("B");
        g.add_place(a, rs, 0); // rs emits tau in the first period
        g.add_place(rs, b, 1); // B fires in the first period
        g.add_place(a, b, 1); // lower channel
        g.add_place(rs, a, 2); // backedge: rs has 2 slots
        g.add_place(b, rs, 1); // backedge: B queue q=1
        g.add_place(b, a, 1); // backedge: B queue q=1
        let m = minimum_cycle_mean(&g).unwrap();
        // Critical cycle {A, rs, B, A}: 3 places, 2 tokens.
        assert_eq!(m.mean, Ratio::new(2, 3));
        assert_eq!(lawler(&g), Some(Ratio::new(2, 3)));
        assert_eq!(g.cycle_mean(&m.critical_cycle), Ratio::new(2, 3));
        assert_eq!(m.critical_cycle.len(), 3);
        // Fig. 6: enlarging B's lower-channel queue to 2 restores mean >= 1.
        let back_lower = g.place_between(b, a).unwrap();
        g.set_tokens(back_lower, 2);
        assert!(minimum_cycle_mean(&g).unwrap().mean >= Ratio::ONE);
    }

    #[test]
    fn parallel_edges_pick_lighter() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 5);
        g.add_place(a, b, 1);
        g.add_place(b, a, 0);
        let r = minimum_cycle_mean(&g).unwrap();
        assert_eq!(r.mean, Ratio::new(1, 2));
        assert_eq!(lawler(&g), Some(Ratio::new(1, 2)));
    }

    #[test]
    fn mean_larger_than_one() {
        let g = ring(&[5, 4]);
        assert_eq!(karp(&g), Some(Ratio::new(9, 2)));
        assert_eq!(lawler(&g), Some(Ratio::new(9, 2)));
        assert_eq!(howard(&g), Some(Ratio::new(9, 2)));
    }

    #[test]
    fn engine_names_round_trip() {
        for engine in McmEngine::ALL {
            assert_eq!(engine.as_str().parse::<McmEngine>(), Ok(engine));
        }
        assert!("dijkstra".parse::<McmEngine>().is_err());
        assert_eq!(McmEngine::default(), McmEngine::Howard);
    }

    #[test]
    fn random_cross_validation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..60 {
            let n = rng.gen_range(2..12);
            let mut g = MarkedGraph::new();
            let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
            // Ring to guarantee a cycle, plus random chords.
            for i in 0..n {
                g.add_place(ts[i], ts[(i + 1) % n], rng.gen_range(0..4));
            }
            for _ in 0..rng.gen_range(0..2 * n) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                g.add_place(ts[u], ts[v], rng.gen_range(0..4));
            }
            let k = karp(&g);
            let l = lawler(&g);
            let h = howard(&g);
            assert_eq!(
                k, l,
                "trial {trial} mismatch: karp={k:?} lawler={l:?}\n{g:?}"
            );
            assert_eq!(
                k, h,
                "trial {trial} mismatch: karp={k:?} howard={h:?}\n{g:?}"
            );
            // The critical cycle's mean must equal the reported minimum,
            // and every engine must report the identical McmResult.
            let r = minimum_cycle_mean(&g).unwrap();
            assert_eq!(g.cycle_mean(&r.critical_cycle), r.mean, "trial {trial}");
            assert_eq!(Some(r.mean), k, "trial {trial}");
            for engine in McmEngine::ALL {
                assert_eq!(
                    minimum_cycle_mean_with(&g, engine).unwrap(),
                    r,
                    "trial {trial} engine {engine}"
                );
            }
        }
    }

    /// Full Bellman–Ford passes in vertex order: the reference the queue-
    /// based [`potentials_csr`] must reproduce exactly.
    fn potentials_by_passes(csr: &CsrScc, mean: Ratio) -> Vec<i64> {
        let (num, den) = (mean.numer(), mean.denom());
        let mut phi = vec![i64::MAX; csr.n()];
        phi[0] = 0;
        for _ in 0..csr.n() {
            let mut changed = false;
            for v in 0..csr.n() {
                if phi[v] == i64::MAX {
                    continue;
                }
                for e in csr.out(v) {
                    let cand = phi[v] + den * csr.weight(e) - num;
                    if cand < phi[csr.target(e)] {
                        phi[csr.target(e)] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        phi
    }

    #[test]
    fn queued_potentials_equal_bellman_ford_passes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..300 {
            let n = rng.gen_range(1..40);
            let mut g = MarkedGraph::new();
            let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
            // A ring run against vertex order half the time, plus chords.
            for i in 0..n {
                let (a, b) = if trial % 2 == 0 {
                    (i, (i + 1) % n)
                } else {
                    ((i + 1) % n, i)
                };
                g.add_place(ts[a], ts[b], rng.gen_range(0..4));
            }
            for _ in 0..rng.gen_range(0..n) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                g.add_place(ts[u], ts[v], rng.gen_range(0..4));
            }
            let scc = SccDecomposition::compute(&g);
            let csr = CsrScc::build(&g, &scc, scc.component_of(ts[0]));
            let mean = karp_csr(&csr);
            assert_eq!(
                potentials_csr(&csr, mean),
                potentials_by_passes(&csr, mean),
                "trial {trial}"
            );
        }
    }

    /// Random multi-SCC graphs: chains of rings joined by acyclic bridges,
    /// so the component loop has several components to reduce over.
    fn random_multi_scc(seed: u64) -> MarkedGraph {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = MarkedGraph::new();
        let mut prev_exit: Option<TransitionId> = None;
        for comp in 0..rng.gen_range(2..6usize) {
            let n = rng.gen_range(1..6usize);
            let ts: Vec<_> = (0..n)
                .map(|i| g.add_transition(format!("c{comp}t{i}")))
                .collect();
            for i in 0..n {
                g.add_place(ts[i], ts[(i + 1) % n], rng.gen_range(0..3u64));
            }
            if let Some(exit) = prev_exit {
                g.add_place(exit, ts[0], rng.gen_range(0..3u64));
            }
            prev_exit = Some(ts[n - 1]);
        }
        g
    }

    #[test]
    fn every_engine_agrees_on_multi_scc_graphs() {
        for seed in 0..40 {
            let g = random_multi_scc(seed);
            let expected = minimum_cycle_mean(&g).unwrap();
            assert_eq!(Some(expected.mean), karp(&g), "seed {seed}");
            for engine in McmEngine::ALL {
                assert_eq!(mcm_serial(&g, engine), karp(&g), "seed {seed} {engine}");
                assert_eq!(
                    minimum_cycle_mean_with(&g, engine).unwrap(),
                    expected,
                    "seed {seed} engine {engine}"
                );
            }
        }
    }

    /// The subgraph of the masked places, built as a graph of its own.
    fn masked_copy(g: &MarkedGraph, mask: &[bool]) -> MarkedGraph {
        let mut h = MarkedGraph::new();
        for t in g.transition_ids() {
            h.add_transition(g.transition_name(t));
        }
        for p in g.place_ids().filter(|p| mask[p.index()]) {
            h.add_place(g.source(p), g.target(p), g.tokens(p));
        }
        h
    }

    #[test]
    fn masked_mcm_equals_the_mcm_of_the_masked_subgraph() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for seed in 0..200 {
            let mut g = random_multi_scc(seed);
            // Chords and self-loops, some of them masked out below.
            let n = g.transition_count();
            for _ in 0..rng.gen_range(0..n + 2) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                g.add_place(
                    TransitionId::new(u),
                    TransitionId::new(v),
                    rng.gen_range(0..3),
                );
            }
            let mask: Vec<bool> = g.place_ids().map(|_| rng.gen_bool(0.7)).collect();
            let h = masked_copy(&g, &mask);
            for engine in McmEngine::ALL {
                assert_eq!(
                    mcm_masked(&g, engine, &mask),
                    mcm_serial(&h, engine),
                    "seed {seed} engine {engine}"
                );
            }
            let all = vec![true; g.place_count()];
            assert_eq!(mcm_masked(&g, McmEngine::Howard, &all), karp(&g));
        }
    }

    /// The per-edge reference the linear [`bottleneck_places_from`]
    /// replaced: one acyclicity DFS over the tight subgraph per cycle edge,
    /// O(|cycle|·|E|).
    fn bottleneck_places_by_probing(
        csr: &CsrScc,
        mean: Ratio,
        phi: &[i64],
        cycle_edges: &[usize],
    ) -> Vec<PlaceId> {
        let tight = |e: usize, v: usize| {
            phi[v] + mean.denom() * csr.weight(e) - mean.numer() == phi[csr.target(e)]
        };
        cycle_edges
            .iter()
            .filter(|&&skip| {
                // Three-color DFS over the tight edges other than `skip`.
                let mut color = vec![0u8; csr.n()];
                for root in 0..csr.n() {
                    if color[root] != 0 {
                        continue;
                    }
                    color[root] = 1;
                    let mut stack = vec![(root, csr.out(root))];
                    while let Some((v, edges)) = stack.last_mut() {
                        let v = *v;
                        let Some(e) = edges.next() else {
                            color[v] = 2;
                            stack.pop();
                            continue;
                        };
                        if e == skip || !tight(e, v) {
                            continue;
                        }
                        let w = csr.target(e);
                        match color[w] {
                            0 => {
                                color[w] = 1;
                                stack.push((w, csr.out(w)));
                            }
                            1 => return false,
                            _ => {}
                        }
                    }
                }
                true
            })
            .map(|&e| csr.place(e))
            .collect()
    }

    /// A random graph shaped to stress the bottleneck pass: small token
    /// counts (so minimum-mean cycles tie often), chords, parallel places
    /// and self-loops, and optionally a twin of the first ring joined to it
    /// both ways — two tight SCCs inside one component when the joins are
    /// heavy, or two tied components when there is only one join.
    fn random_bottleneck_graph(rng: &mut rand::rngs::StdRng) -> MarkedGraph {
        use rand::Rng;
        let mut g = MarkedGraph::new();
        let n = rng.gen_range(1..14usize);
        let max_tokens = rng.gen_range(1..4u64);
        let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..n {
            g.add_place(ts[i], ts[(i + 1) % n], rng.gen_range(0..max_tokens));
        }
        for _ in 0..rng.gen_range(0..2 * n) {
            let u = rng.gen_range(0..n);
            let v = match rng.gen_range(0..4) {
                0 => u,           // self-loop
                1 => (u + 1) % n, // parallel to a ring place
                _ => rng.gen_range(0..n),
            };
            g.add_place(ts[u], ts[v], rng.gen_range(0..max_tokens + 1));
        }
        if rng.gen_bool(0.4) {
            // The twin copies the ring's tokens, so both rings share its mean.
            let twin: Vec<_> = (0..n).map(|i| g.add_transition(format!("u{i}"))).collect();
            for i in 0..n {
                let tokens = g.tokens(PlaceId::new(i));
                g.add_place(twin[i], twin[(i + 1) % n], tokens);
            }
            let heavy = 4 * max_tokens + 4;
            g.add_place(ts[0], twin[0], heavy);
            if rng.gen_bool(0.5) {
                g.add_place(twin[n - 1], ts[n - 1], heavy);
            }
        }
        g
    }

    /// Per-component answers of the linear pass and the per-edge reference,
    /// plus the incremental engine's global answer against the reference
    /// under the cross-component tie rule. Returns how many components had
    /// a bottleneck set that was neither empty nor the whole cycle.
    fn check_bottlenecks_against_probing(g: &MarkedGraph) -> Result<usize, String> {
        let scc = SccDecomposition::compute(g);
        let mut partial = 0;
        let mut best: Option<(Ratio, Vec<PlaceId>)> = None;
        let mut ties = 0;
        for comp in scc.component_ids().filter(|&c| scc.is_cyclic(g, c)) {
            let csr = CsrScc::build(g, &scc, comp);
            let mean = karp_csr(&csr);
            let phi = potentials_csr(&csr, mean);
            let cycle = critical_cycle_edges_from(&csr, mean, &phi);
            let linear = bottleneck_places_from(&csr, mean, &phi, &cycle);
            let probed = bottleneck_places_by_probing(&csr, mean, &phi, &cycle);
            if linear != probed {
                return Err(format!("component {comp}: {linear:?} != {probed:?}"));
            }
            if !probed.is_empty() && probed.len() < cycle.len() {
                partial += 1;
            }
            match &best {
                Some((m, _)) if mean > *m => {}
                Some((m, _)) if mean == *m => ties += 1,
                _ => {
                    best = Some((mean, probed));
                    ties = 1;
                }
            }
        }
        let mut expected = match best {
            Some((_, places)) if ties == 1 => places,
            _ => Vec::new(),
        };
        expected.sort_unstable();
        let got = crate::incremental::IncrementalMcm::new(g).bottlenecks_with_tokens(&[]);
        if got != expected {
            return Err(format!("global: {got:?} != {expected:?}"));
        }
        Ok(partial)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn linear_bottleneck_pass_equals_per_edge_probing(seed in 0u64..u64::MAX) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let g = random_bottleneck_graph(&mut rng);
            if let Err(msg) = check_bottlenecks_against_probing(&g) {
                return Err(format!("{msg}\n{g:?}"));
            }
        }
    }

    /// The property above is only as strong as its cases: the generator
    /// must reach bottleneck sets that are neither empty nor the whole
    /// cycle, where an off-by-one in the cover would show.
    #[test]
    fn bottleneck_generator_reaches_partial_sets() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let partial: usize = (0..500)
            .map(|_| check_bottlenecks_against_probing(&random_bottleneck_graph(&mut rng)).unwrap())
            .sum();
        assert!(partial >= 25, "only {partial} partial bottleneck sets");
    }

    #[test]
    fn tie_break_picks_lowest_component() {
        // Two disconnected rings with the *same* mean 1/2; the critical
        // cycle must come from the first (lowest-id) component under every
        // engine.
        let mut g = MarkedGraph::new();
        let a0 = g.add_transition("a0");
        let a1 = g.add_transition("a1");
        g.add_place(a0, a1, 1);
        g.add_place(a1, a0, 0);
        let b0 = g.add_transition("b0");
        let b1 = g.add_transition("b1");
        g.add_place(b0, b1, 0);
        g.add_place(b1, b0, 1);
        for engine in McmEngine::ALL {
            let r = minimum_cycle_mean_with(&g, engine).unwrap();
            // Both places of the winning cycle belong to the a-ring.
            for &p in &r.critical_cycle {
                assert!(g.source(p) == a0 || g.source(p) == a1, "{engine}");
            }
        }
    }
}
