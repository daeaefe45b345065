//! The shard table: every backend the gateway can route to, with its
//! health state, per-shard counters, and its pool of idle keep-alive
//! streams.
//!
//! A shard's **name** is its routing identity (see [`crate::rendezvous`]);
//! its **address** is mutable state — a supervised child that crashes
//! respawns on a fresh ephemeral port without moving its keyspace slice.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lis_server::net::StreamPool;

use crate::gateway::FORWARD_WORKERS;
use crate::rendezvous;

/// One backend `lis-server`, shared between the router, the health
/// checker, and the supervisor.
pub struct Shard {
    /// Stable routing identity.
    pub name: String,
    id_hash: u64,
    addr: Mutex<SocketAddr>,
    healthy: AtomicBool,
    consecutive_failures: AtomicU32,
    /// Requests attempted against this shard (hedges included).
    pub requests: AtomicU64,
    /// Attempts that ended in a transport error or a failover status.
    pub failures: AtomicU64,
    /// Times this shard's health flipped healthy → ejected.
    pub ejections: AtomicU64,
    /// Idle keep-alive streams, reused by every race that reaches this
    /// shard. It keeps one per forwarding worker: no more forwards than
    /// that can be in flight at once.
    pub pool: StreamPool,
}

impl Shard {
    /// Creates a shard entry, initially healthy.
    pub fn new(name: impl Into<String>, addr: SocketAddr) -> Shard {
        let name = name.into();
        let id_hash = rendezvous::name_hash(&name);
        Shard {
            name,
            id_hash,
            addr: Mutex::new(addr),
            healthy: AtomicBool::new(true),
            consecutive_failures: AtomicU32::new(0),
            requests: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            pool: StreamPool::new(FORWARD_WORKERS),
        }
    }

    /// The shard's identity hash in the rendezvous score function.
    pub fn id_hash(&self) -> u64 {
        self.id_hash
    }

    /// The shard's current address.
    pub fn addr(&self) -> SocketAddr {
        *self.addr.lock().expect("shard addr lock")
    }

    /// Points the shard at a new address (respawned child) and drops every
    /// pooled connection to the old one.
    pub fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock().expect("shard addr lock") = addr;
        self.pool.clear();
    }

    /// Whether the health checker currently considers this shard routable.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Records a successful exchange: the shard is healthy again and its
    /// failure streak resets.
    pub fn mark_success(&self) {
        self.consecutive_failures.store(0, Ordering::Release);
        self.healthy.store(true, Ordering::Release);
    }

    /// Records a failed exchange or probe. After `eject_after` consecutive
    /// failures the shard is ejected from routing; returns `true` on the
    /// transition.
    pub fn mark_failure(&self, eject_after: u32) -> bool {
        let streak = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        if streak >= eject_after && self.healthy.swap(false, Ordering::AcqRel) {
            self.ejections.fetch_add(1, Ordering::Relaxed);
            // Ejected connections are stale by definition.
            self.pool.clear();
            return true;
        }
        false
    }
}

/// The gateway's full view of its backends.
pub struct ShardTable {
    shards: Vec<Arc<Shard>>,
}

impl ShardTable {
    /// Builds the table. Shard names must be unique (routing identity).
    pub fn new(shards: Vec<Arc<Shard>>) -> ShardTable {
        ShardTable { shards }
    }

    /// All shards, in creation order.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Number of currently-routable shards.
    pub fn healthy_count(&self) -> usize {
        self.shards.iter().filter(|s| s.is_healthy()).count()
    }

    /// Shards in failover order for `key`: healthy shards in rendezvous
    /// rank, then ejected shards in rendezvous rank as a last resort (an
    /// ejection is a heuristic; a request has nothing to lose by trying).
    pub fn ranked(&self, key: u64) -> Vec<Arc<Shard>> {
        let hashes: Vec<u64> = self.shards.iter().map(|s| s.id_hash()).collect();
        let order = rendezvous::rank(&hashes, key);
        let (healthy, ejected): (Vec<_>, Vec<_>) = order
            .into_iter()
            .map(|i| Arc::clone(&self.shards[i]))
            .partition(|s| s.is_healthy());
        healthy.into_iter().chain(ejected).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> ShardTable {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        ShardTable::new(
            (0..n)
                .map(|i| Arc::new(Shard::new(format!("shard-{i}"), addr)))
                .collect(),
        )
    }

    #[test]
    fn ranked_prefers_healthy_shards_but_keeps_ejected_as_last_resort() {
        let t = table(3);
        let full = t.ranked(42);
        assert_eq!(full.len(), 3);
        let first = full[0].name.clone();
        // Eject the winner: it must drop to the back, not vanish.
        full[0].mark_failure(1);
        assert!(!full[0].is_healthy());
        let after = t.ranked(42);
        assert_eq!(after.len(), 3);
        assert_ne!(after[0].name, first);
        assert_eq!(after[2].name, first);
        // Recovery restores the original ranking.
        full[0].mark_success();
        assert_eq!(t.ranked(42)[0].name, first);
    }

    #[test]
    fn ejection_requires_a_streak_and_counts_once() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let s = Shard::new("s", addr);
        assert!(!s.mark_failure(3));
        assert!(!s.mark_failure(3));
        assert!(s.mark_failure(3), "third consecutive failure ejects");
        assert!(!s.mark_failure(3), "already ejected: no second transition");
        assert_eq!(s.ejections.load(Ordering::Relaxed), 1);
        s.mark_success();
        assert!(s.is_healthy());
        assert_eq!(s.consecutive_failures.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn set_addr_moves_the_shard_without_changing_identity() {
        let s = Shard::new("s", "127.0.0.1:1".parse().unwrap());
        let id = s.id_hash();
        s.set_addr("127.0.0.1:2".parse().unwrap());
        assert_eq!(s.addr().port(), 2);
        assert_eq!(s.id_hash(), id);
    }
}
