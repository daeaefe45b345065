//! SCC collapsing — simplification rule 4 (Section VII-A / VIII-C).
//!
//! When relay stations sit only on channels *between* SCCs, the ideal MST is
//! one (no cycle of the ideal graph contains a relay station) and every
//! deficient cycle crosses SCC boundaries. Intra-SCC hops contribute one
//! token per place in both directions (with unit queues), so each SCC can be
//! contracted to a single block: the collapsed system has the same deficient
//! cycles — over far fewer places — and its queue-sizing solutions map 1:1
//! onto the original inter-SCC channels.

use lis_core::{block_graph, ChannelId, LisSystem};
use marked_graph::SccDecomposition;

/// A collapsed system plus the channel mapping back to the original.
#[derive(Debug, Clone)]
pub struct Collapsed {
    /// The contracted system: one block per original SCC, one channel per
    /// original inter-SCC channel.
    pub system: LisSystem,
    /// `channel_map[i]` = original channel of the collapsed system's channel
    /// `i` (indices follow the collapsed system's channel order).
    pub channel_map: Vec<ChannelId>,
}

/// Attempts to collapse the SCCs of `sys`.
///
/// Returns `None` when the optimization does not apply: some relay station
/// lies on an intra-SCC channel, or some intra-SCC channel has a queue
/// larger than one (contracting it could then overstate deficits).
///
/// # Examples
///
/// ```
/// use lis_core::LisSystem;
/// use lis_qs::collapse_sccs;
///
/// // Two 2-block rings joined by one pipelined channel.
/// let mut sys = LisSystem::new();
/// let a0 = sys.add_block("a0");
/// let a1 = sys.add_block("a1");
/// let b0 = sys.add_block("b0");
/// let b1 = sys.add_block("b1");
/// sys.add_channel(a0, a1);
/// sys.add_channel(a1, a0);
/// sys.add_channel(b0, b1);
/// sys.add_channel(b1, b0);
/// let bridge = sys.add_channel(a1, b0);
/// sys.add_relay_station(bridge);
/// let collapsed = collapse_sccs(&sys).expect("applicable");
/// assert_eq!(collapsed.system.block_count(), 2);
/// assert_eq!(collapsed.system.channel_count(), 1);
/// assert_eq!(collapsed.channel_map, vec![bridge]);
/// ```
pub fn collapse_sccs(sys: &LisSystem) -> Option<Collapsed> {
    let g = block_graph(sys);
    let scc = SccDecomposition::compute(&g);
    let comp_of =
        |b: lis_core::BlockId| scc.component_of(marked_graph::TransitionId::new(b.index()));

    // Applicability checks.
    for c in sys.channel_ids() {
        let intra = comp_of(sys.channel_from(c)) == comp_of(sys.channel_to(c));
        if intra && sys.relay_stations_on(c) > 0 {
            return None;
        }
        if intra && sys.queue_capacity(c) != 1 {
            return None;
        }
    }

    let mut out = LisSystem::new();
    let blocks: Vec<_> = (0..scc.count())
        .map(|i| out.add_block(format!("scc{i}")))
        .collect();
    let mut channel_map = Vec::new();
    for c in sys.channel_ids() {
        let s = comp_of(sys.channel_from(c));
        let t = comp_of(sys.channel_to(c));
        if s == t {
            continue;
        }
        let nc = out.add_channel(blocks[s], blocks[t]);
        for _ in 0..sys.relay_stations_on(c) {
            out.add_relay_station(nc);
        }
        out.set_queue_capacity(nc, sys.queue_capacity(c))
            .expect("capacities are positive");
        channel_map.push(c);
    }

    Some(Collapsed {
        system: out,
        channel_map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::{ideal_mst, practical_mst};
    use marked_graph::Ratio;

    fn two_rings_bridged(rs_on_bridge: u32) -> (LisSystem, ChannelId) {
        let mut sys = LisSystem::new();
        let a0 = sys.add_block("a0");
        let a1 = sys.add_block("a1");
        let b0 = sys.add_block("b0");
        let b1 = sys.add_block("b1");
        sys.add_channel(a0, a1);
        sys.add_channel(a1, a0);
        sys.add_channel(b0, b1);
        sys.add_channel(b1, b0);
        let bridge = sys.add_channel(a1, b0);
        for _ in 0..rs_on_bridge {
            sys.add_relay_station(bridge);
        }
        (sys, bridge)
    }

    #[test]
    fn collapse_basic() {
        let (sys, bridge) = two_rings_bridged(2);
        let c = collapse_sccs(&sys).unwrap();
        assert_eq!(c.system.block_count(), 2);
        assert_eq!(c.system.channel_count(), 1);
        assert_eq!(c.channel_map, vec![bridge]);
        assert_eq!(c.system.relay_station_count(), 2);
    }

    #[test]
    fn not_applicable_with_intra_scc_relay_station() {
        let (mut sys, _) = two_rings_bridged(1);
        // Channel 0 (a0 -> a1) is intra-SCC.
        sys.add_relay_station(ChannelId::new(0));
        assert!(collapse_sccs(&sys).is_none());
    }

    #[test]
    fn not_applicable_with_enlarged_intra_scc_queue() {
        let (mut sys, _) = two_rings_bridged(1);
        sys.set_queue_capacity(ChannelId::new(0), 2).unwrap();
        assert!(collapse_sccs(&sys).is_none());
    }

    #[test]
    fn collapsed_ideal_mst_is_one() {
        let (sys, _) = two_rings_bridged(3);
        let c = collapse_sccs(&sys).unwrap();
        assert_eq!(ideal_mst(&c.system), Ratio::ONE);
        assert_eq!(ideal_mst(&sys), Ratio::ONE);
    }

    #[test]
    fn degradation_matches_between_original_and_collapsed() {
        // With reconvergent inter-SCC paths, both systems must agree on
        // whether backpressure degrades the throughput.
        let mut sys = LisSystem::new();
        let a0 = sys.add_block("a0");
        let a1 = sys.add_block("a1");
        let b0 = sys.add_block("b0");
        let c0 = sys.add_block("c0");
        sys.add_channel(a0, a1);
        sys.add_channel(a1, a0);
        let up = sys.add_channel(a1, b0); // path 1
        sys.add_channel(a1, c0); // path 2
        sys.add_channel(b0, c0); // reconverges at c0
        sys.add_relay_station(up);
        let col = collapse_sccs(&sys).unwrap();
        assert_eq!(
            practical_mst(&sys) < ideal_mst(&sys),
            practical_mst(&col.system) < ideal_mst(&col.system)
        );
    }

    #[test]
    fn collapse_on_fully_acyclic_system_is_renaming() {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let c1 = sys.add_channel(a, b);
        let c2 = sys.add_channel(a, b);
        sys.add_relay_station(c1);
        let col = collapse_sccs(&sys).unwrap();
        assert_eq!(col.system.block_count(), 2);
        assert_eq!(col.system.channel_count(), 2);
        assert_eq!(col.channel_map, vec![c1, c2]);
        assert_eq!(practical_mst(&col.system), practical_mst(&sys));
    }
}
