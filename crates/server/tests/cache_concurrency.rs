//! Concurrency hammer for the content-addressed [`ResultCache`], aimed
//! at the eviction boundary: many scoped threads get/insert a
//! working set larger than the capacity, so evictions, re-inserts of
//! just-evicted keys, and lookups race constantly. Invariants checked:
//!
//! * the cache never exceeds its capacity — during the storm or after;
//! * hit/miss accounting is exact: every lookup (an exact-bytes probe,
//!   then `get` if that misses) increments exactly one of the two
//!   counters, so `hits + misses == gets` regardless of interleaving;
//! * values never tear: a hit for key `k` always carries the body that
//!   was inserted under `k`, even if `k` was evicted and re-inserted by
//!   another thread mid-lookup.
//!
//! The exact-bytes index races in the same storm: each lookup probes it
//! first, and a canonical hit aliases the entry with the request's bytes,
//! so an exact hit must carry key `k` and `k`'s body too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lis_server::{CacheKey, CachedResponse, ExactRequest, Metrics, ResultCache, Route};

const CAPACITY: usize = 64;
/// 1.5× capacity: at steady state a third of the working set is always
/// missing, so every round of the storm crosses the eviction boundary.
const KEYS: u64 = 96;
const THREADS: usize = 8;
const ROUNDS: usize = 200;

fn key(k: u64) -> CacheKey {
    CacheKey {
        system: k,
        request: k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

/// The body a correct cache must return for key `k`.
fn body(k: u64) -> Vec<u8> {
    format!("{{\"key\": {k}, \"payload\": \"{}\"}}", "x".repeat(64)).into_bytes()
}

/// The request bytes answered by key `k`: keys `2j` and `2j + 1` share
/// one body on two routes, as `/analyze` and `/qs` of one design do.
fn request(k: u64) -> (Route, Vec<u8>) {
    let route = if k.is_multiple_of(2) {
        Route::Analyze
    } else {
        Route::Qs
    };
    (
        route,
        format!("{{\"netlist\": \"design {}\"}}", k / 2).into_bytes(),
    )
}

#[test]
fn eviction_boundary_survives_a_parallel_storm() {
    let cache = ResultCache::new(CAPACITY);
    let metrics = Metrics::default();
    let gets = AtomicU64::new(0);
    let exact_hits = AtomicU64::new(0);
    let torn = AtomicU64::new(0);
    let over_capacity = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (cache, metrics, gets) = (&cache, &metrics, &gets);
            let (exact_hits, torn, over_capacity) = (&exact_hits, &torn, &over_capacity);
            scope.spawn(move || {
                // Each thread walks the key space with its own stride so the
                // threads are always touching different phases of the FIFO.
                let stride = 2 * t as u64 + 1; // odd => full cycle mod KEYS
                let mut k = t as u64;
                for _ in 0..ROUNDS * KEYS as usize / THREADS {
                    k = (k + stride) % KEYS;
                    gets.fetch_add(1, Ordering::Relaxed);
                    let (route, bytes) = request(k);
                    let exact = ExactRequest::new(route, &bytes);
                    if let Some((hit_key, resp)) = cache.get_exact(&exact, metrics) {
                        exact_hits.fetch_add(1, Ordering::Relaxed);
                        if hit_key != key(k) || resp.status != 200 || resp.body != body(k) {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if let Some(resp) = cache.get(key(k), metrics) {
                        if resp.status != 200 || resp.body != body(k) {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                        cache.alias(key(k), &exact);
                    } else {
                        cache.insert(
                            key(k),
                            Arc::new(CachedResponse {
                                status: 200,
                                body: body(k),
                            }),
                        );
                    }
                    if cache.len() > CAPACITY {
                        over_capacity.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert_eq!(
        torn.load(Ordering::Relaxed),
        0,
        "a hit returned the wrong body"
    );
    assert_eq!(
        over_capacity.load(Ordering::Relaxed),
        0,
        "cache exceeded its capacity mid-storm"
    );
    assert!(
        cache.len() <= CAPACITY,
        "cache over capacity after the storm"
    );
    // The working set exceeds capacity, so the storm must have both hit
    // and missed; and every get must have been counted exactly once.
    let hits = metrics.cache_hits.load(Ordering::Relaxed);
    let misses = metrics.cache_misses.load(Ordering::Relaxed);
    assert!(
        hits > 0,
        "no hits in a {KEYS}-key storm over {CAPACITY} slots"
    );
    assert!(misses > 0, "no misses with a working set over capacity");
    assert!(
        exact_hits.load(Ordering::Relaxed) > 0,
        "no exact-bytes hits in the storm"
    );
    assert_eq!(
        hits + misses,
        gets.load(Ordering::Relaxed),
        "hit/miss accounting lost a get"
    );
}

#[test]
fn reinsert_of_an_evicted_key_is_fresh_not_stale() {
    let cache = ResultCache::new(2);
    let metrics = Metrics::default();
    // Fill, evict key 0, then re-insert it with a different body: the
    // cache must serve the new bytes, not a resurrected stale entry.
    for k in 0..3u64 {
        cache.insert(
            key(k),
            Arc::new(CachedResponse {
                status: 200,
                body: body(k),
            }),
        );
    }
    assert!(
        cache.get(key(0), &metrics).is_none(),
        "key 0 should be evicted"
    );
    cache.insert(
        key(0),
        Arc::new(CachedResponse {
            status: 200,
            body: b"fresh".to_vec(),
        }),
    );
    let resp = cache.get(key(0), &metrics).expect("just inserted");
    assert_eq!(resp.body, b"fresh");
    assert!(cache.len() <= 2);
}
