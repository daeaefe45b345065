//! `lis-gateway`: a sharded front tier for the `lis-server` analysis
//! daemon.
//!
//! One gateway owns a set of shard backends — child `lis serve` processes
//! it spawns and supervises, or remote daemons it `--join`s — and serves
//! the daemon's client-facing routes on one port, so existing clients work
//! unchanged against a cluster. It resolves requests through the daemon's
//! own route table ([`lis_server::Route::resolve`]), limited to:
//!
//! * **forwarded** to a shard: `POST /analyze`, `/qs`, `/insert`, `/dot`
//!   and `/sweep` (the sweep's stream relayed with `Content-Length`);
//! * **answered by the gateway itself**: `GET /metrics` (`lis_gateway_*`
//!   series), `GET /healthz` (cluster topology) and `POST /shutdown`;
//! * **404 for every method**: `/batch` and the `/store/*` peer routes,
//!   which are shard-local.
//!
//! A served path under another method answers 405, as on a shard. What
//! the gateway adds:
//!
//! * **Rendezvous routing** ([`rendezvous`]): requests are routed on the
//!   [`lis_core::canonical_hash`] of the parsed netlist by
//!   highest-random-weight hashing, so repeat analyses of one design land
//!   on the same shard's warm content-addressed cache, and adding or
//!   removing a shard remaps only that shard's slice of the keyspace.
//! * **One race per request** ([`Gateway`]): every forward is one
//!   [`lis_server::net::race`] with every shard as a leg, in rendezvous
//!   order, each leg on an idle keep-alive stream from its shard's pool
//!   when there is one. **Failover**: when every started leg has failed —
//!   a transport error or a transient status (500/502/503/504) — the next
//!   shard starts at once. Bodies are forwarded and relayed verbatim, so
//!   a failover answer is byte-identical to a single server's answer.
//! * **Health checking** ([`table`]): every shard is probed on `/healthz`;
//!   a failure streak ejects it from routing until it recovers, and
//!   supervised child shards that die are respawned on fresh ports.
//! * **Hedged tail requests** ([`hedge`]): when the first-choice shard
//!   runs past a latency-percentile deadline, the runner-up's leg starts
//!   alongside it and the first answer wins. Eligibility is a pure
//!   function of a seed and the request sequence number — the same
//!   replayable-decision discipline as [`lis_server::FaultPlan`].
//! * **Read replication & warm handoff** ([`replicate`]): deterministic
//!   answers are written back to the key's runner-up shard
//!   (`POST /store/put`, carrying the shard's `X-LIS-Cache-Key` content
//!   address), so a primary crash leaves a warm byte-identical copy one
//!   failover hop away; respawned or recovered shards are caught up by a
//!   donor-streamed store-index diff before they take traffic cold.
//! * **Observability** ([`metrics`]): `lis_gateway_*` Prometheus series —
//!   failovers (legs started because every earlier leg failed), hedges
//!   launched (legs started by the hedge deadline) and won, ejections,
//!   respawns, per-shard request/failure counters and health gauges —
//!   plus `X-LIS-Request-Id` minting so one request correlates across
//!   tiers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod gateway;
pub mod hedge;
pub mod metrics;
pub mod rendezvous;
pub mod replicate;
pub mod supervise;
pub mod table;

pub use error::GatewayError;
pub use gateway::{Backends, Gateway, GatewayConfig};
pub use hedge::{HedgeConfig, Hedger};
pub use metrics::GatewayMetrics;
pub use replicate::{warm_handoff, ReplicationStats, Replicator};
pub use supervise::{ChildShard, ChildSpec};
pub use table::{Shard, ShardTable};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<Shard>();
        assert_traits::<ShardTable>();
        assert_traits::<Hedger>();
        assert_traits::<GatewayMetrics>();
        assert_traits::<GatewayError>();
        assert_traits::<GatewayConfig>();
        assert_traits::<ChildSpec>();
        assert_traits::<Replicator>();
        assert_traits::<ReplicationStats>();
    }
}
