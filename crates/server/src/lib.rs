//! Analysis-as-a-service for latency-insensitive systems.
//!
//! Every entry point of the workspace used to be a one-shot CLI that
//! re-parses and re-analyzes from scratch. This crate turns the analysis
//! engine into a long-running daemon:
//!
//! * [`Server`] — an HTTP/1.1 + JSON daemon (hand-rolled on `std::net`;
//!   the workspace builds with zero registry access) that dispatches
//!   `analyze` / `qs` / `insert` / `dot` jobs onto a bounded worker pool
//!   and answers repeat queries from a **content-addressed result cache**
//!   keyed by [`lis_core::canonical_hash`] of the parsed netlist plus the
//!   request kind;
//! * typed robustness: per-request timeouts, overload shedding with a 503
//!   (never an unbounded queue), a parse/analysis/timeout/overload error
//!   taxonomy ([`ServerError`]), and graceful drain on `POST /shutdown`;
//! * observability: `GET /metrics` in Prometheus text format — request
//!   counters by route and status, cache hit/miss, queue depth, and a
//!   request-latency histogram ([`metrics`]);
//! * [`Client`] — the blocking keep-alive client behind `lis client` and
//!   the `loadgen` workload driver — and [`RetryingClient`], the same API
//!   under a seeded [`RetryPolicy`] (jittered exponential backoff on
//!   transport failures and transient statuses, never on 400/422);
//! * chaos hardening ([`fault`]): a deterministic, seeded [`FaultPlan`]
//!   (`LIS_FAULTS` / `lis serve --faults`) injects worker panics, slow
//!   reads, truncated and garbled responses; workers isolate jobs with
//!   `catch_unwind` and respawn on panic, slow-loris peers get a typed
//!   408, and a connection cap answers 429.
//!
//! # Wire protocol
//!
//! Analysis routes take `POST` with a JSON envelope and return JSON:
//!
//! ```text
//! POST /analyze {"netlist": "block A\n..."}
//! POST /qs      {"netlist": "...", "options": {"exact": true}}
//! POST /insert  {"netlist": "...", "options": {"budget": 2}}
//! POST /dot     {"netlist": "...", "options": {"doubled": true}}
//! POST /sweep   {"netlist": "...", "options": {"capacities": [...], "budget": 2}}
//!                             design-space exploration; streams NDJSON rows
//!                             (chunked) ending in a Pareto-front trailer
//! POST /batch   NDJSON, one {"route": "qs", "netlist": ...} envelope per line
//!                             ("route" defaults to analyze; analyze, qs,
//!                             insert and dot only); streams one NDJSON row per
//!                             line, each byte-identical to the standalone answer
//! GET  /metrics               Prometheus text exposition
//! GET  /healthz               JSON readiness: role, workers, queue depth,
//!                             cache entries, uptime — the lis-gateway probe
//! GET  /store/index           NDJSON list of cached content addresses
//! POST /store/get             read one cached entry by content address
//! POST /store/put             replicate one finished answer into the cache
//! POST /shutdown              drain in-flight work (flushing pending store
//!                             spills), then exit
//! ```
//!
//! Every request resolves through one table, [`metrics::ROUTES`], with
//! [`Route::resolve`]: a path the table lacks answers 404, and a path it
//! has under another method answers 405.
//!
//! Requests may carry an `X-LIS-Request-Id` header; the server echoes it in
//! the response so one request can be correlated across tiers (client →
//! gateway → shard) in logs and metrics.
//!
//! # Examples
//!
//! An in-process round trip over a real TCP socket:
//!
//! ```
//! use lis_server::{Client, Server, ServerConfig};
//! use lis_server::wire::Json;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let addr = server.local_addr()?;
//! let daemon = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let (status, out) = client.analysis("analyze", "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n", Json::Null)?;
//! assert_eq!(status, 200);
//! assert_eq!(out.get("practical_mst").unwrap().get("den").unwrap().as_u64(), Some(3));
//!
//! client.shutdown()?;
//! daemon.join().unwrap()?;
//! # Ok::<(), std::io::Error>(())
//! ```

// `net::sys` is the one module allowed to opt back in (raw epoll/socket
// syscalls); everything else still refuses unsafe at deny level.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod client;
mod error;
pub mod fault;
pub mod http;
mod jobs;
pub mod metrics;
pub mod net;
pub mod pool;
mod server;
pub mod store;
pub mod wire;

pub use cache::{CacheKey, CachedResponse, ResultCache};
pub use client::{Client, RetryPolicy, RetryingClient};
pub use error::ServerError;
pub use fault::{FaultPlan, WriteFault};
pub use jobs::RequestKind;
pub use metrics::{parse_metric, Metrics, NetStats, Route};
pub use pool::{DrainReport, SubmitError, WorkerPool};
pub use server::{Server, ServerConfig};
pub use store::{EntryMeta, ResultStore, Spiller};
pub use wire::{Json, JsonError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<Json>();
        assert_traits::<ServerError>();
        assert_traits::<RequestKind>();
        assert_traits::<Metrics>();
        assert_traits::<ResultCache>();
        assert_traits::<WorkerPool>();
        assert_traits::<ServerConfig>();
        assert_traits::<FaultPlan>();
        assert_traits::<ResultStore>();
        assert_traits::<Spiller>();
        assert_traits::<RetryPolicy>();
        assert_traits::<RetryingClient>();
    }
}
