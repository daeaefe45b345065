//! Rendezvous (highest-random-weight) hashing: the routing discipline that
//! keeps repeat analyses landing on warm caches.
//!
//! Every shard gets a stable identity hash; for a request key `k`, each
//! shard `s` scores `mix(id(s) ^ mix(k))` and the request routes to the
//! highest scorer. The pleasant properties, all load-bearing here:
//!
//! * **Stability** — removing a shard remaps *only* the keys that scored
//!   it first; every other key keeps its winner (its score vector is
//!   untouched). Failover follows the same ranking, so the second-ranked
//!   shard for a key is deterministic too.
//! * **Balance** — `mix` is a bijective avalanche (SplitMix64 finalizer),
//!   so for any fixed key the shard scores are i.i.d.-uniform-looking and
//!   each of `n` shards wins about `1/n` of the keyspace.
//! * **No coordination** — the ranking is a pure function of (shard set,
//!   key); gateways never exchange state to agree on placement.

/// SplitMix64 finalizer: a cheap bijective mixer with full avalanche.
/// Shared by scoring and the hedging RNG so one primitive serves both.
pub fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a shard's name: its stable identity in the score function.
/// Names, not addresses, so a shard that respawns on a new ephemeral port
/// keeps its slice of the keyspace (and its warm cache stays relevant).
pub fn name_hash(name: &str) -> u64 {
    lis_core::fnv1a(name.as_bytes())
}

/// The HRW score of one (shard, key) pair.
pub fn score(shard_hash: u64, key: u64) -> u64 {
    mix(shard_hash ^ mix(key))
}

/// Indices of `shard_hashes` in routing-preference order for `key`:
/// descending score, ties broken by hash then index so the order is total
/// and identical on every gateway.
pub fn rank(shard_hashes: &[u64], key: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shard_hashes.len()).collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(score(shard_hashes[i], key)),
            shard_hashes[i],
            i,
        )
    });
    order
}

/// The winning index for `key`, if any shard exists.
pub fn winner(shard_hashes: &[u64], key: u64) -> Option<usize> {
    (0..shard_hashes.len()).max_by_key(|&i| {
        (
            score(shard_hashes[i], key),
            std::cmp::Reverse(shard_hashes[i]),
            std::cmp::Reverse(i),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(n: usize) -> Vec<u64> {
        (0..n).map(|i| name_hash(&format!("shard-{i}"))).collect()
    }

    #[test]
    fn rank_is_a_permutation_and_winner_leads_it() {
        let shards = hashes(5);
        for key in 0..200u64 {
            let order = rank(&shards, mix(key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
            assert_eq!(Some(order[0]), winner(&shards, mix(key)));
        }
    }

    #[test]
    fn removing_a_loser_never_remaps_a_key() {
        let shards = hashes(4);
        for key in 0..500u64 {
            let key = mix(key ^ 0xabcd);
            let full = rank(&shards, key);
            // Drop the last-ranked shard: the winner must be unchanged.
            let dropped = full[3];
            let survivors: Vec<u64> = shards
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, _)| i != dropped)
                .map(|(_, h)| h)
                .collect();
            let new_winner_hash = survivors[winner(&survivors, key).unwrap()];
            assert_eq!(new_winner_hash, shards[full[0]]);
        }
    }

    #[test]
    fn load_spreads_across_shards() {
        let shards = hashes(3);
        let mut counts = [0usize; 3];
        for key in 0..3000u64 {
            counts[winner(&shards, mix(key)).unwrap()] += 1;
        }
        for &c in &counts {
            // Perfect balance is 1000; allow generous statistical slack.
            assert!((600..=1400).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn name_hash_distinguishes_names() {
        assert_ne!(name_hash("shard-0"), name_hash("shard-1"));
        assert_eq!(name_hash("shard-0"), name_hash("shard-0"));
    }

    /// Shard placement follows from these identities: a drift would move
    /// every key to a cold shard.
    #[test]
    fn name_hash_is_pinned() {
        assert_eq!(name_hash("shard-0"), 0x8ae4_8b73_fa64_ed46);
    }
}
