//! Translation of a [`LisSystem`] netlist into marked graphs.
//!
//! Two models are produced, mirroring Section III of the paper:
//!
//! * the **ideal** model `G` — forward edges only, equivalent to assuming
//!   infinite queues and no backpressure;
//! * the **doubled** model `d[G]` — every forward edge gets a *backedge*
//!   carrying tokens equal to the free slots of the consumer's buffer
//!   (queue capacity `q` for shells, 2 for relay stations), modeling
//!   backpressure with finite queues.
//!
//! Initial marking convention (paper Fig. 3): a forward place holds one
//! token iff its **target** is a shell (shells fire in the first clock
//! period; a relay station emits τ first, so its incoming place is empty).
//! This makes every edge/backedge two-cycle hold at least two tokens, as the
//! paper notes.

use marked_graph::{MarkedGraph, PlaceId, TransitionId};

use crate::system::{BlockId, ChannelId, LisSystem};

/// [`LisModel::place_role`] bit: the place is a forward edge.
const ROLE_FORWARD: u8 = 1;
/// [`LisModel::place_role`] bit: the place is a backedge.
const ROLE_BACKWARD: u8 = 2;

/// Which model a [`LisModel`] represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Forward edges only (infinite queues, no backpressure).
    Ideal,
    /// Forward edges plus backedges (finite queues with backpressure).
    Doubled,
}

/// A marked-graph model of a [`LisSystem`], with the bookkeeping needed to
/// map analysis results (places, transitions) back to netlist entities
/// (blocks, channels, queues).
///
/// # Examples
///
/// ```
/// use lis_core::{LisModel, LisSystem};
///
/// let mut sys = LisSystem::new();
/// let a = sys.add_block("A");
/// let b = sys.add_block("B");
/// let upper = sys.add_channel(a, b);
/// sys.add_channel(a, b);
/// sys.add_relay_station(upper);
///
/// let ideal = LisModel::ideal(&sys);
/// // A, B, and one relay-station transition.
/// assert_eq!(ideal.graph().transition_count(), 3);
/// // Two channels, one carrying a relay station: three forward places.
/// assert_eq!(ideal.graph().place_count(), 3);
///
/// let doubled = LisModel::doubled(&sys);
/// assert_eq!(doubled.graph().place_count(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct LisModel {
    graph: MarkedGraph,
    kind: ModelKind,
    block_transition: Vec<TransitionId>,
    /// Forward places of every channel, channel after channel, each
    /// ordered producer → consumer. Channel `c` owns
    /// `hop_start[c]..hop_start[c + 1]`.
    forward: Vec<PlaceId>,
    /// Backedges, index-paired with `forward`. Empty in the ideal model.
    backward: Vec<PlaceId>,
    /// Prefix offsets of each channel's hops (one hop per forward place).
    /// A channel with `k` relay stations has `k + 1` hops, so `hop_start[c]`
    /// is `c` plus the relay stations of the channels before `c`.
    hop_start: Vec<u32>,
    /// Relay-station transitions, channel after channel, each ordered
    /// producer → consumer. Channel `c` owns
    /// `hop_start[c] - c..hop_start[c + 1] - (c + 1)`.
    relay: Vec<TransitionId>,
    /// The adjustable shell-queue backedge per channel (the one entering the
    /// consumer shell's input queue). `None` in the ideal model.
    queue_backedge: Vec<Option<PlaceId>>,
    /// Per-place role flags, indexed by `PlaceId::index()`: bit 0 = forward
    /// edge, bit 1 = backedge. Critical-cycle descriptions query the role of
    /// every hop, so this must not be a per-channel scan.
    place_role: Vec<u8>,
    /// Per-place owner channel of adjustable queue backedges, indexed by
    /// `PlaceId::index()` (`None` for every other place).
    queue_channel: Vec<Option<ChannelId>>,
}

impl LisModel {
    /// Builds the ideal model `G` (no backpressure).
    pub fn ideal(sys: &LisSystem) -> LisModel {
        LisModel::build(sys, ModelKind::Ideal)
    }

    /// Builds the doubled model `d[G]` (backpressure with the system's
    /// current queue capacities).
    pub fn doubled(sys: &LisSystem) -> LisModel {
        LisModel::build(sys, ModelKind::Doubled)
    }

    fn build(sys: &LisSystem, kind: ModelKind) -> LisModel {
        let doubled = kind == ModelKind::Doubled;
        let n_channels = sys.channel_count();
        let n_relays = sys.relay_station_count() as usize;
        let n_hops = n_channels + n_relays;
        let n_places = if doubled { 2 * n_hops } else { n_hops };

        // Every name is written straight into the graph's name arena,
        // sized exactly: block names, then `rs<i>(<from>-><to>)` per relay
        // station, channel after channel.
        let relay_name_bytes: usize = sys.channel_ids().map(|c| relay_name_bytes(sys, c)).sum();
        let mut graph = MarkedGraph::with_capacity_and_name_bytes(
            sys.block_count() + n_relays,
            n_places,
            sys.name_bytes() + relay_name_bytes,
        );
        let block_transition: Vec<TransitionId> = sys
            .block_ids()
            .map(|b| graph.add_transition(sys.block_name(b)))
            .collect();

        let mut forward = Vec::with_capacity(n_hops);
        let mut backward = Vec::with_capacity(if doubled { n_hops } else { 0 });
        let mut hop_start = Vec::with_capacity(n_channels + 1);
        let mut relay = Vec::with_capacity(n_relays);
        let mut queue_backedge = vec![None; n_channels];
        let mut place_role = Vec::with_capacity(n_places);
        let mut queue_channel = vec![None; n_places];
        hop_start.push(0);

        for c in sys.channel_ids() {
            let from = sys.channel_from(c);
            let to = sys.channel_to(c);
            let q = sys.queue_capacity(c);
            let first_relay = relay.len();
            for i in 0..sys.relay_stations_on(c) {
                relay.push(graph.add_transition(format_args!(
                    "rs{}({}->{})",
                    i + 1,
                    sys.block_name(from),
                    sys.block_name(to)
                )));
            }

            // Chain of hops: from -> rs_1 -> ... -> rs_k -> to.
            let mut src = block_transition[from.index()];
            for w in first_relay..=relay.len() {
                let dst_is_shell = w == relay.len();
                let dst = if dst_is_shell {
                    block_transition[to.index()]
                } else {
                    relay[w]
                };
                // Forward place: one token iff the target fires in the first
                // period — it is a shell whose output latch is initialized.
                // (Uninitialized shells, like relay stations, emit void
                // first and hold no incoming token.)
                let fwd_tokens = u64::from(dst_is_shell && sys.is_initialized(to));
                forward.push(graph.add_place(src, dst, fwd_tokens));
                place_role.push(ROLE_FORWARD);
                if doubled {
                    // Backedge: free slots of the consumer's buffer.
                    let back_tokens = if dst_is_shell { q } else { 2 };
                    let back = graph.add_place(dst, src, back_tokens);
                    backward.push(back);
                    place_role.push(ROLE_BACKWARD);
                    if dst_is_shell {
                        queue_backedge[c.index()] = Some(back);
                        queue_channel[back.index()] = Some(c);
                    }
                }
                src = dst;
            }
            hop_start.push(forward.len() as u32);
        }

        LisModel {
            graph,
            kind,
            block_transition,
            forward,
            backward,
            hop_start,
            relay,
            queue_backedge,
            place_role,
            queue_channel,
        }
    }

    /// The hop range of channel `c` in `forward`/`backward`.
    fn hops(&self, c: ChannelId) -> std::ops::Range<usize> {
        self.hop_start[c.index()] as usize..self.hop_start[c.index() + 1] as usize
    }

    /// The underlying marked graph.
    pub fn graph(&self) -> &MarkedGraph {
        &self.graph
    }

    /// Mutable access to the underlying marked graph (queue sizing adds
    /// tokens to backedges through this).
    pub fn graph_mut(&mut self) -> &mut MarkedGraph {
        &mut self.graph
    }

    /// Consumes the model, returning the marked graph.
    pub fn into_graph(self) -> MarkedGraph {
        self.graph
    }

    /// Which model this is.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The transition modeling a block's shell.
    pub fn block_transition(&self, b: BlockId) -> TransitionId {
        self.block_transition[b.index()]
    }

    /// The relay-station transitions on a channel, producer → consumer order.
    pub fn relay_transitions(&self, c: ChannelId) -> &[TransitionId] {
        let hops = self.hops(c);
        &self.relay[hops.start - c.index()..hops.end - (c.index() + 1)]
    }

    /// The forward places of a channel, producer → consumer order.
    pub fn forward_places(&self, c: ChannelId) -> &[PlaceId] {
        &self.forward[self.hops(c)]
    }

    /// The backedges of a channel (empty in the ideal model), index-paired
    /// with [`forward_places`](LisModel::forward_places).
    pub fn backward_places(&self, c: ChannelId) -> &[PlaceId] {
        match self.kind {
            ModelKind::Ideal => &[],
            ModelKind::Doubled => &self.backward[self.hops(c)],
        }
    }

    /// The adjustable shell-queue backedge of a channel (`None` in the ideal
    /// model). Adding tokens here is equivalent to enlarging the consumer
    /// shell's input queue for this channel.
    pub fn queue_backedge(&self, c: ChannelId) -> Option<PlaceId> {
        self.queue_backedge[c.index()]
    }

    /// All adjustable backedges as `(channel, place)` pairs.
    pub fn adjustable_backedges(&self) -> Vec<(ChannelId, PlaceId)> {
        self.queue_backedge
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (ChannelId::new(i), p)))
            .collect()
    }

    /// Maps an adjustable backedge place back to its channel.
    pub fn channel_of_queue_backedge(&self, p: PlaceId) -> Option<ChannelId> {
        self.queue_channel.get(p.index()).copied().flatten()
    }

    /// Whether a place is a backedge (of any kind).
    pub fn is_backedge(&self, p: PlaceId) -> bool {
        self.place_role.get(p.index()).copied().unwrap_or(0) & ROLE_BACKWARD != 0
    }

    /// Whether a place is a forward edge.
    pub fn is_forward(&self, p: PlaceId) -> bool {
        self.place_role.get(p.index()).copied().unwrap_or(0) & ROLE_FORWARD != 0
    }

    /// One flag per place, set on the forward edges. Masking the doubled
    /// graph with it leaves exactly the ideal graph `G` (paper §III: `G` is
    /// `d[G]` without its backedges), with the same transitions and tokens.
    pub(crate) fn forward_mask(&self) -> Vec<bool> {
        self.place_role
            .iter()
            .map(|&role| role & ROLE_FORWARD != 0)
            .collect()
    }
}

/// The bytes of the relay-station names on channel `c`: `rs<i>(<from>-><to>)`
/// for `i` in `1..=k`.
fn relay_name_bytes(sys: &LisSystem, c: ChannelId) -> usize {
    let k = sys.relay_stations_on(c) as usize;
    let ends = sys.block_name(sys.channel_from(c)).len() + sys.block_name(sys.channel_to(c)).len();
    // Each name is `rs`, `(`, `->` and `)` around the two block names, plus
    // the decimal digits of its number.
    let mut digits = 0;
    let mut decade = 1;
    while decade <= k {
        digits += k - decade + 1;
        decade *= 10;
    }
    k * (6 + ends) + digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use marked_graph::Ratio;

    /// Fig. 1/2 of the paper: A feeds B over two channels, the upper one
    /// pipelined by one relay station.
    fn fig1() -> (LisSystem, ChannelId, ChannelId) {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let upper = sys.add_channel(a, b);
        let lower = sys.add_channel(a, b);
        sys.add_relay_station(upper);
        (sys, upper, lower)
    }

    #[test]
    fn ideal_model_shape() {
        let (sys, upper, lower) = fig1();
        let m = LisModel::ideal(&sys);
        assert_eq!(m.kind(), ModelKind::Ideal);
        assert_eq!(m.graph().transition_count(), 3);
        assert_eq!(m.graph().place_count(), 3);
        assert_eq!(m.forward_places(upper).len(), 2);
        assert_eq!(m.forward_places(lower).len(), 1);
        assert!(m.backward_places(upper).is_empty());
        assert!(m.queue_backedge(upper).is_none());
        assert_eq!(m.relay_transitions(upper).len(), 1);
        assert!(m.relay_transitions(lower).is_empty());
    }

    #[test]
    fn initial_marking_convention() {
        let (sys, upper, lower) = fig1();
        let m = LisModel::ideal(&sys);
        let g = m.graph();
        // Place entering the relay station: no token; entering shell B: one.
        let up = m.forward_places(upper);
        assert_eq!(g.tokens(up[0]), 0);
        assert_eq!(g.tokens(up[1]), 1);
        assert_eq!(g.tokens(m.forward_places(lower)[0]), 1);
    }

    #[test]
    fn doubled_model_backedges() {
        let (sys, upper, lower) = fig1();
        let m = LisModel::doubled(&sys);
        let g = m.graph();
        assert_eq!(g.place_count(), 6);
        let back_up = m.backward_places(upper);
        // Backedge into the producer side of the relay-station hop: 2 slots.
        assert_eq!(g.tokens(back_up[0]), 2);
        // Backedge for B's queue on the upper channel: q = 1.
        assert_eq!(g.tokens(back_up[1]), 1);
        assert_eq!(m.queue_backedge(upper), Some(back_up[1]));
        assert_eq!(m.queue_backedge(lower), Some(m.backward_places(lower)[0]));
        assert_eq!(m.adjustable_backedges().len(), 2);
        assert_eq!(m.channel_of_queue_backedge(back_up[1]), Some(upper));
        assert_eq!(m.channel_of_queue_backedge(back_up[0]), None);
        assert!(m.is_backedge(back_up[0]));
        assert!(!m.is_forward(back_up[0]));
        assert!(m.is_forward(m.forward_places(lower)[0]));
    }

    #[test]
    fn edge_backedge_two_cycles_have_two_tokens() {
        // Paper, Section IV: cycles between an edge and its backedge always
        // have at least two tokens by construction.
        let (sys, _, _) = fig1();
        let m = LisModel::doubled(&sys);
        let g = m.graph();
        for c in sys.channel_ids() {
            for (f, b) in m.forward_places(c).iter().zip(m.backward_places(c).iter()) {
                assert!(g.tokens(*f) + g.tokens(*b) >= 2);
            }
        }
    }

    #[test]
    fn fig5_critical_cycle_mean() {
        // The doubled Fig. 2 graph with q = 1 has MST 2/3 (paper Fig. 5).
        let (sys, _, _) = fig1();
        let m = LisModel::doubled(&sys);
        let mcm = marked_graph::mcm::minimum_cycle_mean(m.graph()).unwrap();
        assert_eq!(mcm.mean, Ratio::new(2, 3));
    }

    #[test]
    fn fig6_queue_sizing_restores_throughput() {
        // Growing B's lower-channel queue to 2 restores MST 1 (paper Fig. 6).
        let (mut sys, _, lower) = fig1();
        sys.set_queue_capacity(lower, 2).unwrap();
        let m = LisModel::doubled(&sys);
        let mcm = marked_graph::mcm::minimum_cycle_mean(m.graph()).unwrap();
        assert!(mcm.mean >= Ratio::ONE);
    }

    #[test]
    fn queue_capacity_reflected_in_backedge_tokens() {
        let (mut sys, upper, _) = fig1();
        sys.set_queue_capacity(upper, 7).unwrap();
        let m = LisModel::doubled(&sys);
        let back = m.queue_backedge(upper).unwrap();
        assert_eq!(m.graph().tokens(back), 7);
    }

    #[test]
    fn multi_relay_station_chain() {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let c = sys.add_channel(a, b);
        sys.add_relay_station(c);
        sys.add_relay_station(c);
        sys.add_relay_station(c);
        let m = LisModel::doubled(&sys);
        let g = m.graph();
        assert_eq!(m.relay_transitions(c).len(), 3);
        assert_eq!(m.forward_places(c).len(), 4);
        // tokens: 0 (into rs1), 0 (into rs2), 0 (into rs3), 1 (into B)
        let fwd: Vec<u64> = m.forward_places(c).iter().map(|&p| g.tokens(p)).collect();
        assert_eq!(fwd, vec![0, 0, 0, 1]);
        let back: Vec<u64> = m.backward_places(c).iter().map(|&p| g.tokens(p)).collect();
        assert_eq!(back, vec![2, 2, 2, 1]);
        // The whole channel ring holds 3 rs * 2 + 1 + 1 = ... check its mean:
        // forward+backward cycle through the full chain has 4+4 places.
        assert!(g.check_live().is_ok());
    }

    #[test]
    fn block_transition_mapping() {
        let (sys, _, _) = fig1();
        let m = LisModel::ideal(&sys);
        let a = sys.block_by_name("A").unwrap();
        assert_eq!(m.graph().transition_name(m.block_transition(a)), "A");
    }

    #[test]
    fn into_graph_and_graph_mut() {
        let (sys, upper, _) = fig1();
        let mut m = LisModel::doubled(&sys);
        let back = m.queue_backedge(upper).unwrap();
        m.graph_mut().add_tokens(back, 1);
        let g = m.into_graph();
        assert_eq!(g.tokens(back), 2);
    }
}
