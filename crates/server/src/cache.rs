//! The result cache: one set of entries behind two indexes.
//!
//! The primary index is by *content*, not request text: the netlist is
//! parsed first and hashed in canonical form ([`lis_core::canonical_hash`]),
//! so two requests whose netlists differ only in comments, whitespace, or
//! quoting share a cache entry. The request kind and its options are
//! hashed alongside (an `analyze` and a `qs --exact` of the same system
//! are distinct entries).
//!
//! The second index is by exact request bytes: each entry may carry one
//! *alias*, the route and body of the request that last hit it through
//! the canonical index. A repeat of those bytes is answered without
//! decoding, parsing or hashing the netlist, which is what lets the event
//! loop answer hot repeat queries at connection scale. An alias is only
//! written on a canonical hit ([`ResultCache::alias`]), that is on the
//! first *repeat* of some bytes, never on a cold miss: most cold bodies
//! never come again, and keeping a copy of each would cost a body-sized
//! allocation per miss and RAM for bytes no one asks for twice. A lookup
//! compares the route and every body byte, so a hash collision is a miss,
//! never a wrong answer.
//!
//! Values are fully rendered response bodies ([`CachedResponse`]), shared
//! by `Arc` — a hit writes the exact bytes of the original computation to
//! the socket, which is what lets the end-to-end tests assert
//! byte-identical repeat responses.
//!
//! Both indexes share one lock, one FIFO and one `capacity`. Eviction is
//! FIFO by insertion order and drops the entry's alias with it. Analysis
//! results never go stale (the key pins the full input), so recency
//! tracking buys little; FIFO keeps the lock hold times tiny.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::metrics::{Metrics, Route};

/// A cache key: canonical system hash plus request-kind hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `lis_core::canonical_hash` of the parsed netlist.
    pub system: u64,
    /// FNV-1a of the request kind and options (see `RequestKind::token`).
    pub request: u64,
}

/// A cached, fully rendered response.
#[derive(Debug, PartialEq, Eq)]
pub struct CachedResponse {
    /// HTTP status of the original computation (200, or a deterministic
    /// failure such as 422).
    pub status: u16,
    /// The exact JSON body bytes originally sent.
    pub body: Vec<u8>,
}

/// One request's exact bytes on one route, hashed once: the probe of the
/// exact-bytes index, reused to [`alias`](ResultCache::alias) the entry a
/// canonical hit finds.
#[derive(Debug, Clone, Copy)]
pub struct ExactRequest<'a> {
    slot: (Route, u64),
    body: &'a [u8],
}

impl<'a> ExactRequest<'a> {
    /// Hashes `body` for the exact-bytes index: eight bytes per step, since
    /// the event loop hashes every analysis body it receives.
    pub fn new(route: Route, body: &'a [u8]) -> ExactRequest<'a> {
        ExactRequest {
            slot: (route, body_hash(body)),
            body,
        }
    }
}

/// The exact-bytes index's hash: eight bytes per rotate-xor-multiply step
/// (the `FxHash` step) and a final fold of the high half into the low.
///
/// The event loop hashes every analysis body with it, so it must be
/// cheap: byte-serial FNV-1a costs one dependent multiply per byte. The
/// value never leaves the process and a hit compares every byte, so a weak
/// or colliding hash can cost a miss, never a wrong answer.
fn body_hash(body: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = body.chunks_exact(8);
    let mut h = step(0, body.len() as u64);
    for word in &mut words {
        h = step(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = step(h, u64::from_le_bytes(tail));
    h ^ (h >> 32)
}

/// The exact request that last hit an entry through the canonical index:
/// its `(route, body_hash(body))` slot in the exact index, and its bytes.
#[derive(Debug)]
struct Alias {
    slot: (Route, u64),
    body: Box<[u8]>,
}

#[derive(Debug)]
struct Entry {
    response: Arc<CachedResponse>,
    alias: Option<Alias>,
}

/// Invariant: `exact[slot] == key` exactly when `map[key]`'s alias has
/// that slot.
#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    order: VecDeque<CacheKey>,
    exact: HashMap<(Route, u64), CacheKey>,
}

/// A bounded, thread-safe response cache indexed by content address and
/// by exact request bytes.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` responses (0 disables
    /// caching entirely).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner::default()),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("cache lock")
    }

    /// Looks up a key, counting the outcome in `metrics`.
    pub fn get(&self, key: CacheKey, metrics: &Metrics) -> Option<Arc<CachedResponse>> {
        let hit = self.peek(key);
        match &hit {
            Some(_) => metrics.cache_hits.fetch_add(1, Ordering::Relaxed),
            None => metrics.cache_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Looks up the entry whose alias is exactly `request`, returning its
    /// content address and response. A hit is counted in `metrics` like a
    /// [`get`](Self::get) hit; a miss is not, since the caller falls
    /// through to `get`, which counts it.
    pub fn get_exact(
        &self,
        request: &ExactRequest<'_>,
        metrics: &Metrics,
    ) -> Option<(CacheKey, Arc<CachedResponse>)> {
        let hit = {
            let inner = self.lock();
            let key = *inner.exact.get(&request.slot)?;
            let entry = inner.map.get(&key)?;
            let alias = entry.alias.as_ref()?;
            (*alias.body == *request.body).then(|| (key, Arc::clone(&entry.response)))
        };
        if hit.is_some() {
            metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Makes `request` the alias of the entry at `key`, replacing the
    /// entry's previous alias and any other entry's alias under the same
    /// route and hash. Nothing happens if `key` is not cached.
    pub fn alias(&self, key: CacheKey, request: &ExactRequest<'_>) {
        let body: Box<[u8]> = request.body.into();
        let mut guard = self.lock();
        let inner = &mut *guard;
        let Some(entry) = inner.map.get_mut(&key) else {
            return;
        };
        if let Some(old) = entry.alias.take() {
            inner.exact.remove(&old.slot);
        }
        entry.alias = Some(Alias {
            slot: request.slot,
            body,
        });
        let displaced = inner.exact.insert(request.slot, key);
        if let Some(other) = displaced.filter(|&other| other != key) {
            if let Some(entry) = inner.map.get_mut(&other) {
                entry.alias = None;
            }
        }
    }

    /// Inserts a response, evicting the oldest entries (and their aliases)
    /// beyond capacity. Re-inserting an existing key refreshes the value
    /// without growing the order queue and keeps its alias.
    pub fn insert(&self, key: CacheKey, response: Arc<CachedResponse>) {
        if self.capacity == 0 {
            return;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.response = response;
            return;
        }
        inner.map.insert(
            key,
            Entry {
                response,
                alias: None,
            },
        );
        inner.order.push_back(key);
        while inner.map.len() > self.capacity {
            let oldest = inner.order.pop_front().expect("order tracks map");
            let evicted = inner.map.remove(&oldest).expect("order tracks map");
            if let Some(alias) = evicted.alias {
                inner.exact.remove(&alias.slot);
            }
        }
    }

    /// Looks up a key without counting a hit or miss — the replication
    /// and store read paths, which must not skew the cache metrics the
    /// chaos gates assert on.
    pub fn peek(&self, key: CacheKey) -> Option<Arc<CachedResponse>> {
        self.lock()
            .map
            .get(&key)
            .map(|entry| Arc::clone(&entry.response))
    }

    /// Cached keys in insertion order (the RAM half of `/store/index`).
    pub fn keys(&self) -> Vec<CacheKey> {
        self.lock().order.iter().copied().collect()
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            system: n,
            request: n ^ 0xdead_beef,
        }
    }

    fn resp(tag: u8) -> Arc<CachedResponse> {
        Arc::new(CachedResponse {
            status: 200,
            body: vec![tag; 3],
        })
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = ResultCache::new(8);
        let metrics = Metrics::new();
        assert!(cache.get(key(1), &metrics).is_none());
        cache.insert(key(1), resp(1));
        let hit = cache.get(key(1), &metrics).expect("hit");
        assert_eq!(hit.body, vec![1, 1, 1]);
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn same_system_different_request_kind_do_not_collide() {
        let cache = ResultCache::new(8);
        let metrics = Metrics::new();
        let a = CacheKey {
            system: 7,
            request: 1,
        };
        let b = CacheKey {
            system: 7,
            request: 2,
        };
        cache.insert(a, resp(1));
        cache.insert(b, resp(2));
        assert_eq!(cache.get(a, &metrics).unwrap().body, vec![1, 1, 1]);
        assert_eq!(cache.get(b, &metrics).unwrap().body, vec![2, 2, 2]);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let cache = ResultCache::new(2);
        let metrics = Metrics::new();
        cache.insert(key(1), resp(1));
        cache.insert(key(2), resp(2));
        cache.insert(key(3), resp(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(key(1), &metrics).is_none(), "oldest evicted");
        assert!(cache.get(key(2), &metrics).is_some());
        assert!(cache.get(key(3), &metrics).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order() {
        let cache = ResultCache::new(2);
        let metrics = Metrics::new();
        cache.insert(key(1), resp(1));
        cache.insert(key(1), resp(9));
        cache.insert(key(2), resp(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(key(1), &metrics).unwrap().body, vec![9, 9, 9]);
    }

    #[test]
    fn peek_does_not_touch_the_hit_counters() {
        let cache = ResultCache::new(8);
        let metrics = Metrics::new();
        cache.insert(key(1), resp(1));
        assert!(cache.peek(key(1)).is_some());
        assert!(cache.peek(key(2)).is_none());
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 0);
        assert_eq!(cache.keys(), vec![key(1)]);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        let metrics = Metrics::new();
        cache.insert(key(1), resp(1));
        let exact = ExactRequest::new(Route::Analyze, b"body");
        cache.alias(key(1), &exact);
        assert!(cache.is_empty());
        assert!(cache.get(key(1), &metrics).is_none());
        assert!(cache.get_exact(&exact, &metrics).is_none());
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn exact_hits_need_an_alias_and_count_only_hits() {
        let cache = ResultCache::new(8);
        let metrics = Metrics::new();
        let exact = ExactRequest::new(Route::Analyze, b"body");
        cache.insert(key(1), resp(1));
        assert!(cache.get_exact(&exact, &metrics).is_none(), "no alias yet");
        cache.alias(key(1), &exact);
        let (hit_key, hit) = cache.get_exact(&exact, &metrics).expect("exact hit");
        assert_eq!((hit_key, hit.body.as_slice()), (key(1), &[1u8, 1, 1][..]));
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn body_hash_sees_every_byte_and_the_length() {
        let body: Vec<u8> = (0..61u8).collect();
        let h = body_hash(&body);
        for i in 0..body.len() {
            let mut flipped = body.clone();
            flipped[i] ^= 1;
            assert_ne!(body_hash(&flipped), h, "byte {i}");
        }
        // A zero tail is not the same body as no tail.
        assert_ne!(body_hash(b"abc"), body_hash(b"abc\0"));
        assert_ne!(body_hash(b""), body_hash(b"\0\0\0\0\0\0\0\0"));
    }

    #[test]
    fn same_hash_different_bytes_is_a_miss() {
        let cache = ResultCache::new(8);
        let metrics = Metrics::new();
        let stored = ExactRequest {
            slot: (Route::Analyze, 42),
            body: b"one",
        };
        let collider = ExactRequest {
            body: b"two",
            ..stored
        };
        cache.insert(key(1), resp(1));
        cache.alias(key(1), &stored);
        assert!(cache.get_exact(&collider, &metrics).is_none());
        assert!(cache.get_exact(&stored, &metrics).is_some());
        // The collider takes the slot over: the first entry loses its
        // alias instead of answering for bytes it never saw.
        cache.insert(key(2), resp(2));
        cache.alias(key(2), &collider);
        assert!(cache.get_exact(&stored, &metrics).is_none());
        assert_eq!(cache.get_exact(&collider, &metrics).unwrap().0, key(2));
    }

    #[test]
    fn an_entry_keeps_only_its_latest_alias() {
        let cache = ResultCache::new(8);
        let metrics = Metrics::new();
        let first = ExactRequest::new(Route::Analyze, b"first");
        let second = ExactRequest::new(Route::Analyze, b"second");
        cache.insert(key(1), resp(1));
        cache.alias(key(1), &first);
        cache.alias(key(1), &second);
        assert!(cache.get_exact(&first, &metrics).is_none());
        assert!(cache.get_exact(&second, &metrics).is_some());
        cache.alias(key(9), &first);
        assert!(
            cache.get_exact(&first, &metrics).is_none(),
            "key 9 is absent"
        );
    }

    #[test]
    fn eviction_drops_the_alias() {
        let cache = ResultCache::new(1);
        let metrics = Metrics::new();
        let exact = ExactRequest::new(Route::Analyze, b"body");
        cache.insert(key(1), resp(1));
        cache.alias(key(1), &exact);
        cache.insert(key(1), resp(9));
        assert_eq!(
            cache.get_exact(&exact, &metrics).unwrap().1.body,
            vec![9; 3]
        );
        cache.insert(key(2), resp(2));
        assert!(cache.get_exact(&exact, &metrics).is_none());
        cache.insert(key(1), resp(1));
        assert!(
            cache.get_exact(&exact, &metrics).is_none(),
            "re-inserts are bare"
        );
        assert!(cache.lock().exact.is_empty());
    }
}
