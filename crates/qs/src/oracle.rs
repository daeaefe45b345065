//! An incremental throughput oracle for queue-sizing candidates.
//!
//! Queue sizing repeatedly asks one question: *what is `θ(d[G])` if these
//! channels get this many extra slots?* Answering it from scratch means
//! rebuilding the doubled marked graph and re-running Karp per candidate.
//! [`ThroughputOracle`] builds the doubled model **once** and answers each
//! query through [`IncrementalMcm`]: an extra slot on a channel is exactly
//! one extra token on that channel's queue backedge (the model's
//! `queue_backedge` place), which leaves the graph's structure — and hence
//! its SCC decomposition — untouched. Only the components containing a
//! touched backedge are re-solved, and repeated assignments are answered
//! from the memo cache.
//!
//! The oracle also powers [`trim_weights`], an optional post-pass that
//! tightens any feasible solution against the *real* throughput instead of
//! the Token Deficit abstraction. The abstraction is conservative whenever
//! cycle enumeration was truncated by the cycle limit, so oracle trimming
//! can recover tokens the TD solvers could not know were unnecessary.

use std::collections::BTreeMap;

use lis_core::{ChannelId, LisModel, LisSystem};
use marked_graph::incremental::{CacheStats, IncrementalMcm};
use marked_graph::{McmEngine, PlaceId, Ratio};

/// Incremental `θ(d[G])` evaluator for one system under varying extra
/// queue slots.
///
/// # Examples
///
/// ```
/// use lis_core::figures;
/// use lis_qs::ThroughputOracle;
/// use marked_graph::Ratio;
///
/// let (sys, _, lower) = figures::fig1();
/// let mut oracle = ThroughputOracle::new(&sys);
/// assert_eq!(oracle.base_practical_mst(), Ratio::new(2, 3));
/// // One extra slot on the lower channel restores full throughput.
/// assert_eq!(oracle.practical_mst_with_extra(&[(lower, 1)]), Ratio::ONE);
/// ```
pub struct ThroughputOracle {
    inc: IncrementalMcm,
    /// Per channel index: the queue backedge place and its base tokens
    /// (= the channel's current queue capacity).
    backedges: Vec<Option<(PlaceId, u64)>>,
}

impl ThroughputOracle {
    /// Builds the doubled model of `sys` and its incremental MCM engine
    /// (default algorithm: Howard with warm-started policies).
    pub fn new(sys: &LisSystem) -> ThroughputOracle {
        ThroughputOracle::with_engine(sys, McmEngine::default())
    }

    /// [`ThroughputOracle::new`] with an explicit per-component MCM engine.
    pub fn with_engine(sys: &LisSystem, engine: McmEngine) -> ThroughputOracle {
        ThroughputOracle::from_model(sys, &LisModel::doubled(sys), engine)
    }

    /// [`ThroughputOracle::with_engine`] over an already-built doubled
    /// model of `sys`.
    pub fn from_model(sys: &LisSystem, model: &LisModel, engine: McmEngine) -> ThroughputOracle {
        let backedges = sys
            .channel_ids()
            .map(|c| {
                model
                    .queue_backedge(c)
                    .map(|p| (p, model.graph().tokens(p)))
            })
            .collect();
        let inc = IncrementalMcm::with_engine(model.graph(), engine);
        ThroughputOracle { inc, backedges }
    }

    /// The algorithm running the per-component re-solves.
    pub fn engine(&self) -> McmEngine {
        self.inc.engine()
    }

    /// `θ(d[G])` under the system's current queue capacities, equal to
    /// [`lis_core::practical_mst`].
    pub fn base_practical_mst(&self) -> Ratio {
        cap(self.inc.base_mean())
    }

    /// `θ(d[G])` with `extra` additional slots per channel, equal to
    /// [`lis_core::practical_mst`] on a clone grown with
    /// [`LisSystem::grow_queue`]. Entries for the same channel accumulate,
    /// mirroring repeated `grow_queue` calls.
    pub fn practical_mst_with_extra(&mut self, extra: &[(ChannelId, u64)]) -> Ratio {
        let mut per_channel: BTreeMap<usize, u64> = BTreeMap::new();
        for &(c, w) in extra {
            *per_channel.entry(c.index()).or_insert(0) += w;
        }
        let overrides: Vec<(PlaceId, u64)> = per_channel
            .into_iter()
            .filter_map(|(ci, w)| self.backedges[ci].map(|(p, base)| (p, base + w)))
            .collect();
        cap(self.inc.mcm_with_tokens(&overrides))
    }

    /// Memo-cache counters of the underlying incremental engine.
    pub fn cache_stats(&self) -> CacheStats {
        self.inc.cache_stats()
    }
}

/// `θ = min(1, minimum cycle mean)`, with acyclic graphs at 1.
fn cap(mean: Option<Ratio>) -> Ratio {
    mean.map_or(Ratio::ONE, |m| m.min(Ratio::ONE))
}

/// Greedily trims a feasible per-set assignment against the real
/// throughput: for each set in index order, decrement its weight while the
/// oracle still reports at least `target`. Returns the number of tokens
/// removed.
///
/// One sweep reaches a fixpoint: removing a token can only lower the
/// throughput of other candidates, so once a set is minimal given its
/// predecessors it stays minimal. The sweep order (ascending set index) is
/// fixed, making the result deterministic.
///
/// `labels[i]` names the channel behind set `i`, as produced by
/// [`crate::TdInstance::from_qs`].
pub fn trim_weights(
    weights: &mut [u64],
    labels: &[ChannelId],
    oracle: &mut ThroughputOracle,
    target: Ratio,
) -> u64 {
    assert_eq!(weights.len(), labels.len());
    let as_extra = |weights: &[u64]| -> Vec<(ChannelId, u64)> {
        weights
            .iter()
            .zip(labels)
            .filter(|&(&w, _)| w > 0)
            .map(|(&w, &c)| (c, w))
            .collect()
    };
    let mut removed = 0;
    for i in 0..weights.len() {
        while weights[i] > 0 {
            weights[i] -= 1;
            if oracle.practical_mst_with_extra(&as_extra(weights)) >= target {
                removed += 1;
            } else {
                weights[i] += 1;
                break;
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::figures;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random connected system with relay stations, for fuzzing.
    fn random_system(seed: u64) -> LisSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sys = LisSystem::new();
        let n = rng.gen_range(2..7usize);
        let blocks: Vec<_> = (0..n).map(|i| sys.add_block(format!("b{i}"))).collect();
        // A ring keeps everything live, chords add reconvergence.
        let mut channels = Vec::new();
        for i in 0..n {
            channels.push(sys.add_channel(blocks[i], blocks[(i + 1) % n]));
        }
        for _ in 0..rng.gen_range(0..n) {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            channels.push(sys.add_channel(blocks[u], blocks[v]));
        }
        for &c in &channels {
            for _ in 0..rng.gen_range(0..3u32) {
                sys.add_relay_station(c);
            }
        }
        sys
    }

    #[test]
    fn matches_practical_mst_on_grown_clones() {
        for seed in 0..20 {
            let sys = random_system(seed);
            let mut oracle = ThroughputOracle::new(&sys);
            assert_eq!(
                oracle.base_practical_mst(),
                lis_core::practical_mst(&sys),
                "seed {seed}: base"
            );
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
            let channels: Vec<ChannelId> = sys.channel_ids().collect();
            for query in 0..15 {
                let k = rng.gen_range(0..4usize);
                let extra: Vec<(ChannelId, u64)> = (0..k)
                    .map(|_| {
                        (
                            channels[rng.gen_range(0..channels.len())],
                            rng.gen_range(0..3u64),
                        )
                    })
                    .collect();
                let mut grown = sys.clone();
                for &(c, w) in &extra {
                    grown.grow_queue(c, w);
                }
                assert_eq!(
                    oracle.practical_mst_with_extra(&extra),
                    lis_core::practical_mst(&grown),
                    "seed {seed} query {query} extra {extra:?}"
                );
            }
        }
    }

    #[test]
    fn repeated_queries_are_cache_hits() {
        let (sys, _, lower) = figures::fig1();
        let mut oracle = ThroughputOracle::new(&sys);
        let a = oracle.practical_mst_with_extra(&[(lower, 1)]);
        let misses = oracle.cache_stats().misses;
        let b = oracle.practical_mst_with_extra(&[(lower, 1)]);
        assert_eq!(a, b);
        assert_eq!(
            oracle.cache_stats().misses,
            misses,
            "second query must not re-solve"
        );
    }

    #[test]
    fn trim_removes_redundant_tokens() {
        let (sys, _, lower) = figures::fig1();
        let mut oracle = ThroughputOracle::new(&sys);
        // Hand the trimmer a deliberately wasteful assignment: 3 slots where
        // 1 suffices.
        let mut weights = vec![3u64];
        let labels = vec![lower];
        let removed = trim_weights(&mut weights, &labels, &mut oracle, Ratio::ONE);
        assert_eq!(removed, 2);
        assert_eq!(weights, vec![1]);
        assert_eq!(oracle.practical_mst_with_extra(&[(lower, 1)]), Ratio::ONE);
    }

    #[test]
    fn trim_keeps_necessary_tokens() {
        let (sys, _, lower) = figures::fig1();
        let mut oracle = ThroughputOracle::new(&sys);
        let mut weights = vec![1u64];
        let labels = vec![lower];
        assert_eq!(
            trim_weights(&mut weights, &labels, &mut oracle, Ratio::ONE),
            0
        );
        assert_eq!(weights, vec![1]);
    }
}
