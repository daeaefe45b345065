//! The latency-insensitive system netlist.
//!
//! A [`LisSystem`] is the designer-facing description: *blocks* (IP cores,
//! each already encapsulated in a shell) connected by point-to-point
//! *channels*. Each channel may carry any number of relay stations (inserted
//! for wire pipelining or for performance) and has one input queue at its
//! consumer shell whose capacity is the knob that queue sizing turns.

use std::fmt;

use crate::error::LisError;

/// Identifier of a shell-encapsulated block in a [`LisSystem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a block id from a raw index.
    pub fn new(index: usize) -> BlockId {
        BlockId(index as u32)
    }

    /// The raw index of this block.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifier of a point-to-point channel in a [`LisSystem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(u32);

impl ChannelId {
    /// Creates a channel id from a raw index.
    pub fn new(index: usize) -> ChannelId {
        ChannelId(index as u32)
    }

    /// The raw index of this channel.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Block {
    /// End of this block's name in `LisSystem::names`; the name starts
    /// where the previous block's ends.
    name_end: usize,
    /// Whether the shell's output latch holds valid data at reset (true for
    /// ordinary cores; false for internal pipeline stages, which emit void
    /// until real data reaches them — the paper's footnote-3 cores with
    /// latency > 1).
    initialized: bool,
}

#[derive(Debug, Clone)]
struct Channel {
    from: BlockId,
    to: BlockId,
    relay_stations: u32,
    queue_capacity: u64,
}

/// A latency-insensitive system: shell-encapsulated blocks and channels.
///
/// Block names live back to back in one `String` (the name arena), each
/// block recording where its name ends, so a system of any size owns three
/// heap buffers — names, blocks, channels — and cloning, moving to another
/// thread or dropping it costs three allocations, not one per block.
///
/// # Examples
///
/// The running example of the paper (Fig. 1): blocks `A` and `B`, two
/// channels from `A` to `B`, the upper one pipelined by one relay station.
///
/// ```
/// use lis_core::LisSystem;
///
/// let mut sys = LisSystem::new();
/// let a = sys.add_block("A");
/// let b = sys.add_block("B");
/// let upper = sys.add_channel(a, b);
/// let _lower = sys.add_channel(a, b);
/// sys.add_relay_station(upper);
/// assert_eq!(sys.relay_station_count(), 1);
/// assert_eq!(sys.channel_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LisSystem {
    /// Every block name, in id order, with no separators.
    names: String,
    blocks: Vec<Block>,
    channels: Vec<Channel>,
}

impl LisSystem {
    /// Creates an empty system.
    pub fn new() -> LisSystem {
        LisSystem::default()
    }

    /// Reserves room for `name_bytes` more bytes of block names, `blocks`
    /// more blocks and `channels` more channels.
    pub(crate) fn reserve(&mut self, name_bytes: usize, blocks: usize, channels: usize) {
        self.names.reserve_exact(name_bytes);
        self.blocks.reserve_exact(blocks);
        self.channels.reserve_exact(channels);
    }

    fn push_block(&mut self, name: &str, initialized: bool) -> BlockId {
        let id = BlockId::new(self.blocks.len());
        self.names.push_str(name);
        self.blocks.push(Block {
            name_end: self.names.len(),
            initialized,
        });
        id
    }

    /// Adds a shell-encapsulated block and returns its id.
    pub fn add_block(&mut self, name: impl AsRef<str>) -> BlockId {
        self.push_block(name.as_ref(), true)
    }

    /// Adds a block whose output is **void at reset**: it transfers nothing
    /// in the first clock period and only forwards data once real inputs
    /// reach it. Internal stages of pipelined cores (latency > 1, the
    /// paper's footnote 3) are modeled this way; an uninitialized
    /// single-input/single-output block with queue capacity 2 behaves
    /// exactly like a relay station.
    pub fn add_uninitialized_block(&mut self, name: impl AsRef<str>) -> BlockId {
        self.push_block(name.as_ref(), false)
    }

    /// Whether a block's output latch holds valid data at reset.
    pub fn is_initialized(&self, b: BlockId) -> bool {
        self.blocks[b.index()].initialized
    }

    /// Adds a channel from `from` to `to` with no relay stations and the
    /// default queue capacity of one, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is not a block of this system.
    pub fn add_channel(&mut self, from: BlockId, to: BlockId) -> ChannelId {
        self.push_channel(from, to, 0, 1)
    }

    /// [`add_channel`](Self::add_channel) with its relay stations and its
    /// (nonzero) queue capacity already set.
    pub(crate) fn push_channel(
        &mut self,
        from: BlockId,
        to: BlockId,
        relay_stations: u32,
        queue_capacity: u64,
    ) -> ChannelId {
        assert!(from.index() < self.blocks.len(), "unknown source block");
        assert!(to.index() < self.blocks.len(), "unknown target block");
        assert!(queue_capacity > 0, "queue capacity must be at least one");
        let id = ChannelId::new(self.channels.len());
        self.channels.push(Channel {
            from,
            to,
            relay_stations,
            queue_capacity,
        });
        id
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Total number of relay stations across all channels.
    pub fn relay_station_count(&self) -> u32 {
        self.channels.iter().map(|c| c.relay_stations).sum()
    }

    /// The name of a block.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block_name(&self, b: BlockId) -> &str {
        let i = b.index();
        let start = match i {
            0 => 0,
            _ => self.blocks[i - 1].name_end,
        };
        &self.names[start..self.blocks[i].name_end]
    }

    /// The total length in bytes of every block name.
    pub(crate) fn name_bytes(&self) -> usize {
        self.names.len()
    }

    /// Looks up a block by name (linear scan; for tests and small systems).
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.block_ids().find(|&b| self.block_name(b) == name)
    }

    /// The producer block of a channel.
    pub fn channel_from(&self, c: ChannelId) -> BlockId {
        self.channels[c.index()].from
    }

    /// The consumer block of a channel.
    pub fn channel_to(&self, c: ChannelId) -> BlockId {
        self.channels[c.index()].to
    }

    /// Number of relay stations currently on a channel.
    pub fn relay_stations_on(&self, c: ChannelId) -> u32 {
        self.channels[c.index()].relay_stations
    }

    /// Capacity of the consumer shell's input queue for this channel.
    pub fn queue_capacity(&self, c: ChannelId) -> u64 {
        self.channels[c.index()].queue_capacity
    }

    /// Inserts one more relay station on a channel.
    pub fn add_relay_station(&mut self, c: ChannelId) {
        self.channels[c.index()].relay_stations += 1;
    }

    /// Removes one relay station from a channel, if any is present.
    pub fn remove_relay_station(&mut self, c: ChannelId) {
        let rs = &mut self.channels[c.index()].relay_stations;
        *rs = rs.saturating_sub(1);
    }

    /// Sets the input-queue capacity for a channel.
    ///
    /// # Errors
    ///
    /// Returns [`LisError::ZeroQueueCapacity`] if `capacity` is zero: every
    /// shell needs at least one slot per input channel to operate.
    pub fn set_queue_capacity(&mut self, c: ChannelId, capacity: u64) -> Result<(), LisError> {
        if capacity == 0 {
            return Err(LisError::ZeroQueueCapacity(c));
        }
        self.channels[c.index()].queue_capacity = capacity;
        Ok(())
    }

    /// Sets every channel's queue capacity to `q` (fixed queue sizing,
    /// Section IV of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `q` is zero.
    pub fn set_uniform_queue_capacity(&mut self, q: u64) {
        assert!(q > 0, "queue capacity must be at least one");
        for ch in &mut self.channels {
            ch.queue_capacity = q;
        }
    }

    /// Adds `extra` slots to the queue of one channel.
    pub fn grow_queue(&mut self, c: ChannelId, extra: u64) {
        self.channels[c.index()].queue_capacity += extra;
    }

    /// Total queue capacity over all channels (a cost measure for QS).
    pub fn total_queue_capacity(&self) -> u64 {
        self.channels.iter().map(|c| c.queue_capacity).sum()
    }

    /// Iterator over block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// Iterator over channel ids.
    pub fn channel_ids(&self) -> impl Iterator<Item = ChannelId> + '_ {
        (0..self.channels.len()).map(ChannelId::new)
    }

    /// The channels from `from` to `to`, in insertion order.
    pub fn channels_between(&self, from: BlockId, to: BlockId) -> Vec<ChannelId> {
        self.channel_ids()
            .filter(|&c| self.channel_from(c) == from && self.channel_to(c) == to)
            .collect()
    }

    /// Validates a block id.
    ///
    /// # Errors
    ///
    /// Returns [`LisError::UnknownBlock`] if out of range.
    pub fn check_block(&self, b: BlockId) -> Result<(), LisError> {
        if b.index() < self.blocks.len() {
            Ok(())
        } else {
            Err(LisError::UnknownBlock(b))
        }
    }

    /// Validates a channel id.
    ///
    /// # Errors
    ///
    /// Returns [`LisError::UnknownChannel`] if out of range.
    pub fn check_channel(&self, c: ChannelId) -> Result<(), LisError> {
        if c.index() < self.channels.len() {
            Ok(())
        } else {
            Err(LisError::UnknownChannel(c))
        }
    }
}

impl fmt::Display for LisSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "LIS with {} blocks, {} channels, {} relay stations",
            self.blocks.len(),
            self.channels.len(),
            self.relay_station_count()
        )?;
        for c in self.channel_ids() {
            writeln!(
                f,
                "  {} -> {} (rs={}, q={})",
                self.block_name(self.channel_from(c)),
                self.block_name(self.channel_to(c)),
                self.relay_stations_on(c),
                self.queue_capacity(c)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_block_system() -> (LisSystem, BlockId, BlockId, ChannelId) {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let c = sys.add_channel(a, b);
        (sys, a, b, c)
    }

    #[test]
    fn building_blocks_and_channels() {
        let (sys, a, b, c) = two_block_system();
        assert_eq!(sys.block_count(), 2);
        assert_eq!(sys.channel_count(), 1);
        assert_eq!(sys.block_name(a), "A");
        assert_eq!(sys.channel_from(c), a);
        assert_eq!(sys.channel_to(c), b);
        assert_eq!(sys.queue_capacity(c), 1);
        assert_eq!(sys.relay_stations_on(c), 0);
        assert_eq!(sys.block_by_name("B"), Some(b));
        assert_eq!(sys.block_by_name("Z"), None);
    }

    #[test]
    fn relay_station_insertion_and_removal() {
        let (mut sys, _, _, c) = two_block_system();
        sys.add_relay_station(c);
        sys.add_relay_station(c);
        assert_eq!(sys.relay_stations_on(c), 2);
        assert_eq!(sys.relay_station_count(), 2);
        sys.remove_relay_station(c);
        assert_eq!(sys.relay_stations_on(c), 1);
        sys.remove_relay_station(c);
        sys.remove_relay_station(c); // saturates at zero
        assert_eq!(sys.relay_stations_on(c), 0);
    }

    #[test]
    fn queue_capacity_rules() {
        let (mut sys, _, _, c) = two_block_system();
        assert!(sys.set_queue_capacity(c, 3).is_ok());
        assert_eq!(sys.queue_capacity(c), 3);
        assert_eq!(
            sys.set_queue_capacity(c, 0),
            Err(LisError::ZeroQueueCapacity(c))
        );
        sys.grow_queue(c, 2);
        assert_eq!(sys.queue_capacity(c), 5);
        sys.set_uniform_queue_capacity(2);
        assert_eq!(sys.queue_capacity(c), 2);
        assert_eq!(sys.total_queue_capacity(), 2);
    }

    #[test]
    fn channels_between_finds_parallel_channels() {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let c1 = sys.add_channel(a, b);
        let c2 = sys.add_channel(a, b);
        let c3 = sys.add_channel(b, a);
        assert_eq!(sys.channels_between(a, b), vec![c1, c2]);
        assert_eq!(sys.channels_between(b, a), vec![c3]);
        assert!(sys.channels_between(b, b).is_empty());
    }

    #[test]
    fn id_validation() {
        let (sys, _, _, _) = two_block_system();
        assert!(sys.check_block(BlockId::new(1)).is_ok());
        assert_eq!(
            sys.check_block(BlockId::new(7)),
            Err(LisError::UnknownBlock(BlockId::new(7)))
        );
        assert!(sys.check_channel(ChannelId::new(0)).is_ok());
        assert!(sys.check_channel(ChannelId::new(1)).is_err());
    }

    #[test]
    fn display_lists_channels() {
        let (mut sys, _, _, c) = two_block_system();
        sys.add_relay_station(c);
        let s = sys.to_string();
        assert!(s.contains("2 blocks"));
        assert!(s.contains("A -> B (rs=1, q=1)"));
    }

    #[test]
    #[should_panic(expected = "unknown source block")]
    fn channel_with_bad_block_panics() {
        let mut sys = LisSystem::new();
        let _ = sys.add_block("A");
        sys.add_channel(BlockId::new(5), BlockId::new(0));
    }
}
