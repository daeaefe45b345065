//! Extraction of deficient cycles from the doubled graph.
//!
//! Queue sizing (Section V) asks for extra tokens on shell-queue backedges so
//! that `θ(d[G]) = θ(G)`. The first step (Section VII-A) lists the cycles of
//! `d[G]` whose mean falls short of the ideal MST; each such cycle carries a
//! *deficit* — the number of extra tokens needed to lift its mean to the
//! target — and a set of *adjustable edges* (the shell input queues it runs
//! through) where those tokens may be placed.

use lis_core::{ChannelId, LisModel, LisSystem};
use marked_graph::cycles::elementary_cycles;
use marked_graph::{McmEngine, PlaceId, Ratio};

use crate::error::QsError;

/// Default cap on enumerated cycles, matching
/// [`marked_graph::cycles::DEFAULT_CYCLE_LIMIT`].
pub const DEFAULT_CYCLE_LIMIT: usize = marked_graph::cycles::DEFAULT_CYCLE_LIMIT;

/// A cycle of the doubled graph whose mean is below the ideal MST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeficientCycle {
    /// The cycle as a closed walk of places in `d[G]`.
    pub places: Vec<PlaceId>,
    /// Token count along the cycle (before queue sizing).
    pub tokens: u64,
    /// Number of places on the cycle.
    pub len: u64,
    /// Extra tokens needed so that the cycle mean reaches the target MST.
    pub deficit: u64,
    /// Channels whose input queue lies on this cycle (deduplicated): the
    /// places where extra tokens may legally be added.
    pub adjustable: Vec<ChannelId>,
}

/// A queue-sizing instance: the target throughput plus all deficient cycles.
#[derive(Debug, Clone)]
pub struct QsInstance {
    /// The ideal MST `θ(G)` that queue sizing must restore.
    pub target: Ratio,
    /// The practical MST `θ(d[G])` before queue sizing.
    pub practical: Ratio,
    /// All deficient cycles of the doubled graph.
    pub cycles: Vec<DeficientCycle>,
}

impl QsInstance {
    /// Whether queue sizing is needed at all.
    pub fn is_degraded(&self) -> bool {
        !self.cycles.is_empty()
    }

    /// The channels that appear as adjustable edges in at least one
    /// deficient cycle, sorted and deduplicated.
    pub fn adjustable_channels(&self) -> Vec<ChannelId> {
        let mut chs: Vec<ChannelId> = self
            .cycles
            .iter()
            .flat_map(|c| c.adjustable.iter().copied())
            .collect();
        chs.sort();
        chs.dedup();
        chs
    }
}

/// The number of extra tokens a cycle needs to reach mean `target`.
///
/// A cycle with `tokens` tokens over `len` places needs
/// `max(0, ceil(target · len) - tokens)` extra tokens.
pub fn cycle_deficit(tokens: u64, len: u64, target: Ratio) -> u64 {
    let needed = (target * Ratio::from_integer(len as i64)).ceil();
    needed.saturating_sub(tokens as i64).max(0) as u64
}

/// Extracts the queue-sizing instance of a system: enumerates the cycles of
/// `d[G]`, keeps the deficient ones, and annotates each with its deficit and
/// adjustable channels.
///
/// When `θ(d[G])` already reaches `θ(G)` no cycle can be deficient, so the
/// instance is empty and nothing is enumerated.
///
/// # Errors
///
/// Returns [`QsError::TooManyCycles`] if the system is degraded and the
/// doubled graph has more than `cycle_limit` elementary cycles.
///
/// # Examples
///
/// The Fig. 5 instance has exactly one deficient cycle with deficit one:
///
/// ```
/// use lis_core::figures;
/// use lis_qs::extract_instance;
///
/// let (sys, _, lower) = figures::fig1();
/// let inst = extract_instance(&sys, 10_000)?;
/// assert!(inst.is_degraded());
/// assert_eq!(inst.cycles.len(), 1);
/// assert_eq!(inst.cycles[0].deficit, 1);
/// assert_eq!(inst.cycles[0].adjustable, vec![lower]);
/// # Ok::<(), lis_qs::QsError>(())
/// ```
pub fn extract_instance(sys: &LisSystem, cycle_limit: usize) -> Result<QsInstance, QsError> {
    extract_instance_with(sys, cycle_limit, McmEngine::default())
}

/// [`extract_instance`] with an explicit MCM engine for the ideal and
/// practical throughput solves.
///
/// # Errors
///
/// Returns [`QsError::TooManyCycles`] if the system is degraded and the
/// doubled graph has more than `cycle_limit` elementary cycles.
pub fn extract_instance_with(
    sys: &LisSystem,
    cycle_limit: usize,
    engine: McmEngine,
) -> Result<QsInstance, QsError> {
    // G is d[G] without its backedges: solve θ(G) on the forward places.
    let model = LisModel::doubled(sys);
    let ideal = lis_core::ideal_mst_of(&model, engine);
    extract_from_model_with(&model, ideal, cycle_limit, engine)
}

/// Like [`extract_instance`] but reuses an already-built doubled model and an
/// already-computed ideal MST (the exhaustive relay-station searches call
/// this in a loop).
pub fn extract_from_model(
    model: &LisModel,
    target: Ratio,
    cycle_limit: usize,
) -> Result<QsInstance, QsError> {
    extract_from_model_with(model, target, cycle_limit, McmEngine::default())
}

/// [`extract_from_model`] with an explicit MCM engine.
///
/// # Errors
///
/// Returns [`QsError::TooManyCycles`] if `θ(d[G])` falls short of `target`
/// and the doubled graph has more than `cycle_limit` elementary cycles.
pub fn extract_from_model_with(
    model: &LisModel,
    target: Ratio,
    cycle_limit: usize,
    engine: McmEngine,
) -> Result<QsInstance, QsError> {
    let graph = model.graph();
    let practical = lis_core::mst_with(graph, engine);
    // θ(d[G]) = min(1, minimum cycle mean) ≤ every cycle's mean, so once it
    // reaches the target every cycle has `tokens ≥ ⌈target · len⌉` and no
    // cycle is deficient: skip the (possibly quadratic) enumeration.
    if practical >= target {
        return Ok(QsInstance {
            target,
            practical,
            cycles: Vec::new(),
        });
    }
    let mut cycles = Vec::new();
    for places in elementary_cycles(graph, cycle_limit)? {
        let tokens: u64 = places.iter().map(|&p| graph.tokens(p)).sum();
        let len = places.len() as u64;
        let deficit = cycle_deficit(tokens, len, target);
        if deficit == 0 {
            continue;
        }
        let mut adjustable: Vec<ChannelId> = places
            .iter()
            .filter_map(|&p| model.channel_of_queue_backedge(p))
            .collect();
        adjustable.sort();
        adjustable.dedup();
        debug_assert!(
            !adjustable.is_empty(),
            "a deficient cycle must traverse at least one shell queue"
        );
        cycles.push(DeficientCycle {
            places,
            tokens,
            len,
            deficit,
            adjustable,
        });
    }
    Ok(QsInstance {
        target,
        practical,
        cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::figures;

    #[test]
    fn deficit_formula() {
        // 2 tokens over 3 places, target 1: need ceil(3) - 2 = 1.
        assert_eq!(cycle_deficit(2, 3, Ratio::ONE), 1);
        // 4 tokens over 6 places, target 5/6: need ceil(5) - 4 = 1.
        assert_eq!(cycle_deficit(4, 6, Ratio::new(5, 6)), 1);
        // Already at target.
        assert_eq!(cycle_deficit(5, 6, Ratio::new(5, 6)), 0);
        assert_eq!(cycle_deficit(9, 3, Ratio::ONE), 0);
        // Fractional target rounding: 7 places at 5/6 needs ceil(35/6)=6.
        assert_eq!(cycle_deficit(5, 7, Ratio::new(5, 6)), 1);
        // Zero tokens.
        assert_eq!(cycle_deficit(0, 4, Ratio::new(1, 2)), 2);
    }

    #[test]
    fn fig1_instance() {
        let (sys, _, lower) = figures::fig1();
        let inst = extract_instance(&sys, 10_000).unwrap();
        assert_eq!(inst.target, Ratio::ONE);
        assert_eq!(inst.practical, Ratio::new(2, 3));
        assert!(inst.is_degraded());
        assert_eq!(inst.cycles.len(), 1);
        let c = &inst.cycles[0];
        assert_eq!((c.tokens, c.len, c.deficit), (2, 3, 1));
        assert_eq!(inst.adjustable_channels(), vec![lower]);
    }

    #[test]
    fn fig2_right_not_degraded() {
        let (sys, _, _) = figures::fig2_right();
        let inst = extract_instance(&sys, 10_000).unwrap();
        assert!(!inst.is_degraded());
        assert_eq!(inst.practical, Ratio::ONE);
        assert!(inst.adjustable_channels().is_empty());
    }

    #[test]
    fn fig15_instance() {
        let (sys, ch) = figures::fig15();
        let inst = extract_instance(&sys, 10_000).unwrap();
        assert_eq!(inst.target, Ratio::new(5, 6));
        assert_eq!(inst.practical, Ratio::new(3, 4));
        assert!(inst.is_degraded());
        // The offending cycle {A, rs, E, C, A} uses the queues of channels
        // (C,E) and (A,C) in the backward direction.
        let adjustables = inst.adjustable_channels();
        assert!(adjustables.contains(&ch[5]) || adjustables.contains(&ch[6]));
        for c in &inst.cycles {
            assert!(c.deficit > 0);
            assert!(!c.adjustable.is_empty());
        }
    }

    #[test]
    fn no_relay_stations_no_deficit() {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let c = sys.add_block("C");
        sys.add_channel(a, b);
        sys.add_channel(b, c);
        sys.add_channel(c, a);
        sys.add_channel(a, c);
        // d[G] has many cycles, but a limit of one suffices: nothing is
        // enumerated when θ(d[G]) = θ(G).
        let inst = extract_instance(&sys, 1).unwrap();
        assert!(!inst.is_degraded());
        assert_eq!(inst.practical, inst.target);
    }

    #[test]
    fn non_degraded_ring_extracts_without_enumerating() {
        // A 300-block ring with two relay stations: d[G] has more than 300
        // elementary cycles (every channel's 2-cycle plus the two ring
        // directions), yet a limit of one is never hit.
        let mut sys = LisSystem::new();
        let blocks: Vec<_> = (0..300).map(|i| sys.add_block(format!("r{i}"))).collect();
        for i in 0..300 {
            let c = sys.add_channel(blocks[i], blocks[(i + 1) % 300]);
            if i == 0 || i == 150 {
                sys.add_relay_station(c);
            }
        }
        let inst = extract_instance(&sys, 1).unwrap();
        assert!(!inst.is_degraded());
        assert_eq!(inst.target, Ratio::new(150, 151));
        assert_eq!(inst.practical, inst.target);
        assert!(inst.cycles.is_empty());
    }

    #[test]
    fn cycle_limit_propagates() {
        let (sys, _) = figures::fig15();
        assert!(matches!(
            extract_instance(&sys, 2),
            Err(QsError::TooManyCycles { limit: 2 })
        ));
    }
}
