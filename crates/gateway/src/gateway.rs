//! The gateway daemon: accept loop, request-id minting, rendezvous
//! routing, shard failover, hedged tail requests, and shard supervision.
//!
//! ```text
//!  client ──▶ gateway event loop ──▶ forwarding pool job
//!                                       │ route on canonical_hash(netlist)
//!                                       ▼
//!                 one race down the rendezvous order (every shard a leg)
//!      1st choice ── starts at once
//!      2nd choice ── starts at the hedge deadline (if this request hedges)
//!      3rd, 4th … ── no deadline
//!      any leg ───── also starts the moment every started leg has failed
//!                    (transport error / 5xx): failover
//!                                       │ first answer outside 5xx wins;
//!                                       ▼ its stream returns to the pool
//!                                relayed verbatim
//! ```
//!
//! Every leg takes an idle keep-alive stream from its shard's pool when
//! there is one. The gateway forwards the client's body **verbatim** and
//! relays the shard's body verbatim, so an answer obtained through any
//! shard — by hedge or by failover — is byte-identical to what a single
//! `lis-server` would have produced for the same request.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lis_core::parse_netlist;
use lis_server::http::{write_request_with, Request, Response, REQUEST_ID_HEADER};
use lis_server::net::{
    probe_many, race, Completion, Completions, EventLoop, FrontConfig, Launch, Outcome,
    RaceAttempt, RaceOutcome, Rendered, SlotKey,
};
use lis_server::wire::{obj, Json};
use lis_server::{Route, ServerError, WorkerPool};

use crate::error::GatewayError;
use crate::hedge::{HedgeConfig, Hedger};
use crate::metrics::GatewayMetrics;
use crate::rendezvous;
use crate::replicate::Replicator;
use crate::supervise::{ChildShard, ChildSpec};
use crate::table::{Shard, ShardTable};

/// Forwarding threads behind the event loop: each runs one shard race at
/// a time.
pub(crate) const FORWARD_WORKERS: usize = 32;

/// Queue slots for forwarded requests awaiting a worker; beyond this the
/// gateway sheds with a typed 503 instead of buffering unboundedly.
const FORWARD_QUEUE: usize = 4096;

/// Overall wall-clock budget for one forward's race (every leg). Generous
/// on purpose: it bounds a wedged shard hop, not normal latency.
const RACE_TIMEOUT: Duration = Duration::from_secs(30);

/// Shard responses that trigger failover to the next shard in rendezvous
/// order: transient server-side states a different shard may not share.
/// Client errors (400/422) relay as-is — every shard would answer the same.
const FAILOVER_STATUSES: [u16; 4] = [500, 502, 503, 504];

/// Where the gateway's shards come from.
pub enum Backends {
    /// Join an existing cluster: addresses of already-running daemons.
    Join(Vec<SocketAddr>),
    /// Own a local cluster: spawn `count` child daemons per `spec` and
    /// supervise them (respawn on death).
    Spawn {
        /// How to launch each shard.
        spec: ChildSpec,
        /// Number of shards.
        count: usize,
    },
}

/// Tuning knobs for [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Health-probe cadence for every shard.
    pub probe_interval: Duration,
    /// Consecutive failures (probe or request transport) before a shard is
    /// ejected from routing.
    pub eject_after: u32,
    /// Hedged-request policy; `None` disables hedging.
    pub hedge: Option<HedgeConfig>,
    /// Concurrent-connection cap, answered with a typed 429 beyond it.
    pub max_connections: usize,
    /// Slow-loris read deadline per request.
    pub read_deadline: Duration,
    /// Replicate deterministic answers to the runner-up shard and warm up
    /// (re)joining shards by handoff. On by default; meaningless with a
    /// single shard.
    pub replicate: bool,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            probe_interval: Duration::from_millis(150),
            eject_after: 2,
            hedge: Some(HedgeConfig::default()),
            max_connections: 1024,
            read_deadline: Duration::from_secs(10),
            replicate: true,
        }
    }
}

/// Supervised children, index-aligned with the shard table.
struct ChildSet {
    spec: ChildSpec,
    children: Vec<Mutex<ChildShard>>,
}

/// State shared by the event loop, forwarding jobs, and the maintenance
/// thread.
struct GwState {
    table: ShardTable,
    children: Option<ChildSet>,
    metrics: GatewayMetrics,
    hedger: Option<Hedger>,
    /// Write-behind replication to runner-up shards; `None` when disabled
    /// or the cluster has a single shard.
    replicator: Option<Replicator>,
    shutdown: AtomicBool,
    config: GatewayConfig,
    started: Instant,
    /// Request sequence number: feeds hedge eligibility and minted ids.
    sequence: AtomicU64,
}

/// The cluster front tier. Bind with [`Gateway::bind`], serve with
/// [`Gateway::run`] (blocks until `POST /shutdown`).
pub struct Gateway {
    listener: TcpListener,
    state: Arc<GwState>,
}

impl Gateway {
    /// Binds the listening socket and materializes the shard table
    /// (spawning child daemons when asked to own the cluster).
    ///
    /// # Errors
    ///
    /// Socket errors, child-spawn failures, or an empty backend list.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: Backends,
        config: GatewayConfig,
    ) -> io::Result<Gateway> {
        let (shards, children) = match backends {
            Backends::Join(addrs) => {
                let shards = addrs
                    .into_iter()
                    .enumerate()
                    .map(|(i, a)| Arc::new(Shard::new(format!("shard-{i}"), a)))
                    .collect();
                (shards, None)
            }
            Backends::Spawn { spec, count } => {
                let mut shards = Vec::with_capacity(count);
                let mut children = Vec::with_capacity(count);
                for i in 0..count {
                    let name = format!("shard-{i}");
                    let child = spec.spawn(&name)?;
                    shards.push(Arc::new(Shard::new(name, child.addr)));
                    children.push(Mutex::new(child));
                }
                (shards, Some(ChildSet { spec, children }))
            }
        };
        if shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway needs at least one shard",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let metrics = GatewayMetrics::new();
        // Replication needs somewhere to replicate *to*.
        let replicator = (config.replicate && shards.len() >= 2)
            .then(|| Replicator::new(Arc::clone(&metrics.replication)));
        let state = Arc::new(GwState {
            table: ShardTable::new(shards),
            children,
            metrics,
            hedger: config.hedge.clone().map(Hedger::new),
            replicator,
            shutdown: AtomicBool::new(false),
            config,
            started: Instant::now(),
            sequence: AtomicU64::new(0),
        });
        Ok(Gateway { listener, state })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `POST /shutdown`, then drains in-flight forwards and
    /// stops any supervised children.
    ///
    /// # Errors
    ///
    /// Returns fatal accept/poll errors; per-connection errors close that
    /// connection only.
    pub fn run(self) -> io::Result<()> {
        let state = Arc::clone(&self.state);
        let maintenance = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || maintenance_loop(&state))
        };
        let result = self.run_event_loop();
        let _ = maintenance.join();
        // Owned cluster: drain every child before returning.
        if let Some(set) = &state.children {
            for child in &set.children {
                child.lock().expect("child lock").stop();
            }
        }
        result
    }

    /// The readiness-event-loop front: one thread holds every connection;
    /// shard round trips run on a bounded forwarding pool.
    fn run_event_loop(self) -> io::Result<()> {
        let _ = lis_server::net::raise_nofile_limit();
        let Gateway { listener, state } = self;
        let config = FrontConfig {
            max_connections: state.config.max_connections,
            read_deadline: state.config.read_deadline,
            faults: None,
            drain_grace: Duration::from_secs(10),
        };
        let stats = Arc::clone(&state.metrics.net);
        let pool = Arc::new(WorkerPool::new(FORWARD_WORKERS, FORWARD_QUEUE));
        let handler = GwHandler {
            state: Arc::clone(&state),
            pool: Arc::clone(&pool),
        };
        EventLoop::new(listener, handler, config, stats)?.run()?;
        pool.drain();
        Ok(())
    }
}

/// Health-probes every shard and respawns dead children, until shutdown.
///
/// Probes ride one poller ([`probe_many`]): every shard's `/healthz` round
/// trip runs concurrently within a single `probe_timeout` window, so a
/// wedged shard no longer delays the probes behind it.
fn maintenance_loop(state: &Arc<GwState>) {
    let probe_timeout = state.config.probe_interval.max(Duration::from_millis(250));
    while !state.shutdown.load(Ordering::Acquire) {
        let shards = state.table.shards();
        let mut to_probe: Vec<usize> = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter().enumerate() {
            // Supervision first: a dead child can never pass its probe.
            if let Some(set) = &state.children {
                let mut child = set.children[i].lock().expect("child lock");
                if child.has_exited() {
                    match set.spec.spawn(&shard.name) {
                        Ok(fresh) => {
                            shard.set_addr(fresh.addr);
                            *child = fresh;
                            state.metrics.respawns.fetch_add(1, Ordering::Relaxed);
                            // The replacement announced its socket; it is
                            // immediately routable — and cold, so refill it
                            // from a warm peer.
                            shard.mark_success();
                            schedule_handoff_to(state, i, shards);
                        }
                        Err(_) => {
                            if shard.mark_failure(state.config.eject_after) {
                                state.metrics.ejections.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    continue;
                }
            }
            to_probe.push(i);
        }
        let addrs: Vec<SocketAddr> = to_probe.iter().map(|&i| shards[i].addr()).collect();
        let healthy = probe_many(&addrs, probe_timeout);
        for (&i, &ok) in to_probe.iter().zip(&healthy) {
            if ok {
                let recovered = !shards[i].is_healthy();
                shards[i].mark_success();
                if recovered {
                    // An ejected shard came back: it may have missed
                    // writes while out of rotation — catch it up.
                    schedule_handoff_to(state, i, shards);
                }
            } else if shards[i].mark_failure(state.config.eject_after) {
                state.metrics.ejections.fetch_add(1, Ordering::Relaxed);
            }
        }
        std::thread::sleep(state.config.probe_interval);
    }
}

/// Queues a warm handoff into `shards[target]` from the first other
/// healthy shard, so a respawned or recovered shard rejoins warm.
fn schedule_handoff_to(state: &Arc<GwState>, target: usize, shards: &[Arc<Shard>]) {
    let Some(replicator) = &state.replicator else {
        return;
    };
    let donor = shards
        .iter()
        .enumerate()
        .find(|(j, s)| *j != target && s.is_healthy())
        .map(|(_, s)| s);
    if let Some(donor) = donor {
        replicator.schedule_handoff(donor.addr(), shards[target].addr());
    }
}

/// The routes the gateway serves: the analysis and sweep routes it
/// forwards and the control plane it answers itself. `/batch` and the
/// `/store/*` peer routes are shard-local, so the gateway answers 404 to
/// them for every method.
fn serves(route: Route) -> bool {
    !matches!(
        route,
        Route::Batch | Route::StoreIndex | Route::StoreGet | Route::StorePut
    )
}

/// The gateway's own readiness document: cluster topology and health.
fn healthz_body(state: &Arc<GwState>) -> String {
    let shards: Vec<Json> = state
        .table
        .shards()
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let mut fields = vec![
                ("name".to_string(), Json::str(&shard.name)),
                ("addr".to_string(), Json::str(shard.addr().to_string())),
                ("healthy".to_string(), Json::Bool(shard.is_healthy())),
                (
                    "requests".to_string(),
                    Json::num(shard.requests.load(Ordering::Relaxed) as f64),
                ),
                (
                    "failures".to_string(),
                    Json::num(shard.failures.load(Ordering::Relaxed) as f64),
                ),
            ];
            if let Some(set) = &state.children {
                let pid = set.children[i].lock().expect("child lock").pid();
                fields.push(("pid".to_string(), Json::num(pid as f64)));
            }
            Json::Obj(fields)
        })
        .collect();
    obj([
        ("ok", Json::Bool(state.table.healthy_count() > 0)),
        ("role", Json::str("gateway")),
        ("shard_count", Json::num(state.table.shards().len() as f64)),
        (
            "healthy_shards",
            Json::num(state.table.healthy_count() as f64),
        ),
        ("supervised", Json::Bool(state.children.is_some())),
        ("hedging", Json::Bool(state.hedger.is_some())),
        ("replication", Json::Bool(state.replicator.is_some())),
        (
            "hedge_decisions_digest",
            state.hedger.as_ref().map_or(Json::Null, |h| {
                Json::str(format!("{:016x}", h.decisions_digest()))
            }),
        ),
        (
            "connections_open",
            Json::num(
                state
                    .metrics
                    .net
                    .connections_open
                    .load(Ordering::Relaxed)
                    .max(0) as f64,
            ),
        ),
        (
            "uptime_ms",
            Json::num(state.started.elapsed().as_millis() as f64),
        ),
        (
            "draining",
            Json::Bool(state.shutdown.load(Ordering::Acquire)),
        ),
        ("shards", Json::Arr(shards)),
    ])
    .to_string()
}

/// The rendezvous routing key for a request body: the canonical hash of
/// the parsed netlist, so every request kind for one design lands on the
/// same warm-cache shard. Unparseable bodies hash raw — any shard will
/// produce the same (typed, cacheable) error for them.
fn routing_key(body: &[u8]) -> u64 {
    if let Ok(text) = std::str::from_utf8(body) {
        if let Ok(envelope) = Json::parse(text) {
            if let Some(netlist) = envelope.get("netlist").and_then(Json::as_str) {
                if let Ok(sys) = parse_netlist(netlist) {
                    return lis_core::canonical_hash(&sys);
                }
            }
        }
    }
    rendezvous::mix(lis_core::fnv1a(body))
}

/// Queues write-back of a winning answer to the runner-up shard: the
/// first healthy shard in rendezvous order for `key` that is not the
/// winner. Only deterministic answers replicate (200, or a cached 422),
/// and only when the shard stamped its content address on the response
/// (`X-LIS-Cache-Key`) — the gateway never has to decode the body.
fn replicate_answer(state: &Arc<GwState>, key: u64, winner: &Shard, response: &Response) {
    let Some(replicator) = &state.replicator else {
        return;
    };
    if !matches!(response.status, 200 | 422) {
        return;
    }
    let Some(cache_key) = response.header("x-lis-cache-key") else {
        return;
    };
    let runner_up = state
        .table
        .ranked(key)
        .into_iter()
        .find(|s| s.name != winner.name && s.is_healthy());
    if let Some(target) = runner_up {
        replicator.push(target.addr(), cache_key, response.status, &response.body);
    }
}

/// Forwards one analysis request with rendezvous routing, hedging, and
/// failover: one race with every shard as a leg, in rendezvous order.
/// Returns the relayed (status, body) — byte-identical to the winning
/// shard's answer — or a gateway-typed error.
fn forward(
    state: &Arc<GwState>,
    path: &str,
    body: &[u8],
    seq: u64,
    request_id: &str,
) -> (u16, Vec<u8>) {
    let key = routing_key(body);
    let shards = state.table.ranked(key);
    if shards.is_empty() {
        let e = GatewayError::NoShards;
        return (e.status(), e.to_json().to_string().into_bytes());
    }
    // The primary starts at once; the runner-up at the hedge deadline when
    // this request may hedge. Without a deadline a leg starts only by
    // failover, the moment every leg before it has failed.
    let hedge_at = state
        .hedger
        .as_ref()
        .filter(|_| shards.len() >= 2)
        .filter(|h| h.decide(seq))
        .map(Hedger::deadline);
    let legs: Vec<RaceAttempt> = shards
        .iter()
        .enumerate()
        .map(|(rank, shard)| RaceAttempt {
            addr: shard.addr(),
            delay: match rank {
                0 => Some(Duration::ZERO),
                1 => hedge_at,
                _ => None,
            },
            pool: Some(&shard.pool),
        })
        .collect();
    // Render the shard hop once; every leg transmits these bytes.
    let mut wire = Vec::with_capacity(body.len() + 128);
    write_request_with(
        &mut wire,
        "POST",
        path,
        &[("X-LIS-Request-Id", request_id)],
        body,
    )
    .expect("rendering to a Vec cannot fail");
    let result = race(&wire, &legs, &FAILOVER_STATUSES, RACE_TIMEOUT);

    let metrics = &state.metrics;
    let mut attempts = 0usize;
    let mut answer: Option<Response> = None;
    let mut last_answer: Option<Response> = None;
    for (rank, (shard, (outcome, launch))) in shards
        .iter()
        .zip(result.outcomes.into_iter().zip(result.launched))
        .enumerate()
    {
        let Some(launch) = launch else {
            continue;
        };
        // A leg past the primary that started at its deadline is a hedge.
        let hedged = launch == Launch::Deadline && rank > 0;
        if hedged {
            metrics.hedges_launched.fetch_add(1, Ordering::Relaxed);
        } else if launch == Launch::Failover {
            metrics.failovers.fetch_add(1, Ordering::Relaxed);
        }
        shard.requests.fetch_add(1, Ordering::Relaxed);
        attempts += 1;
        match outcome {
            RaceOutcome::Response { response, elapsed } if result.winner == Some(rank) => {
                if let Some(hedger) = &state.hedger {
                    hedger.record(elapsed);
                }
                shard.mark_success();
                if hedged {
                    metrics.hedges_won.fetch_add(1, Ordering::Relaxed);
                }
                replicate_answer(state, key, shard, &response);
                answer = Some(response);
            }
            RaceOutcome::Response { response, .. } => {
                // A coherent but transient answer: the shard is up (let the
                // prober keep it routable) and the answer relays as a last
                // resort.
                shard.failures.fetch_add(1, Ordering::Relaxed);
                last_answer = Some(response);
            }
            RaceOutcome::Failed => {
                shard.failures.fetch_add(1, Ordering::Relaxed);
                if shard.mark_failure(state.config.eject_after) {
                    metrics.ejections.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Abandoned in flight once the race was decided: no failure.
            RaceOutcome::NotStarted => {}
        }
    }
    // With no winner, a relayed transient answer beats a synthetic 502 —
    // it is what a single server would have said.
    if let Some(response) = answer.or(last_answer) {
        return (response.status, response.body);
    }
    let e = GatewayError::AllShardsFailed { attempts };
    (e.status(), e.to_json().to_string().into_bytes())
}

/// The gateway's event-loop handler: forwarding runs on a bounded worker
/// pool so the loop never blocks on a shard round trip; control-plane
/// routes answer inline.
struct GwHandler {
    state: Arc<GwState>,
    pool: Arc<WorkerPool>,
}

impl GwHandler {
    /// The request-id echo header every gateway response carries.
    fn id_headers(request_id: &str) -> Vec<(String, String)> {
        vec![("X-LIS-Request-Id".to_string(), request_id.to_string())]
    }

    /// Records and renders one typed-error response answered on the loop.
    fn respond_error(&self, request_id: &str, started: Instant, e: &ServerError) -> Outcome {
        let body = e.to_json().to_string().into_bytes();
        self.respond(request_id, started, e.status(), "application/json", body)
    }

    /// Records and renders one response answered on the loop.
    fn respond(
        &self,
        request_id: &str,
        started: Instant,
        status: u16,
        content_type: &str,
        body: Vec<u8>,
    ) -> Outcome {
        self.state.metrics.record_request(status, started.elapsed());
        Outcome::Respond(Rendered {
            status,
            content_type: content_type.to_string(),
            body,
            extra_headers: GwHandler::id_headers(request_id),
            fault_eligible: false,
            force_close: false,
        })
    }
}

impl lis_server::net::Handler for GwHandler {
    fn dispatch(&self, request: Request, key: SlotKey, completions: &Completions) -> Outcome {
        let started = Instant::now();
        let state = &self.state;
        let seq = state.sequence.fetch_add(1, Ordering::Relaxed);
        let request_id = request
            .header(REQUEST_ID_HEADER)
            .map(str::to_string)
            .unwrap_or_else(|| format!("gw-{seq:08x}"));
        let route = match Route::resolve(&request.method, &request.path, serves) {
            Ok(route) => route,
            Err(e) => return self.respond_error(&request_id, started, &e),
        };
        let (content_type, body) = match route {
            Route::Healthz => ("application/json", healthz_body(state).into_bytes()),
            Route::Metrics => (
                "text/plain; version=0.0.4",
                state.metrics.render(&state.table).into_bytes(),
            ),
            Route::Shutdown => {
                state.shutdown.store(true, Ordering::Release);
                let body = obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))]);
                ("application/json", body.to_string().into_bytes())
            }
            // The analysis and sweep routes go to the forwarding pool. Sweeps
            // ride the same rendezvous-affinity + failover race: the shard
            // streams chunked NDJSON and the race leg reassembles it, so a
            // mid-stream shard death fails over to the next shard
            // from scratch (results are cached server-side, so the replay of
            // an interrupted sweep costs one warm evaluation at most) and
            // relayed to the caller with Content-Length framing.
            _ => {
                let job = {
                    let state = Arc::clone(state);
                    let completions = completions.clone();
                    let request_id = request_id.clone();
                    move || {
                        let (status, body) =
                            forward(&state, &request.path, &request.body, seq, &request_id);
                        let content_type = if route == Route::Sweep && status == 200 {
                            "application/x-ndjson"
                        } else {
                            "application/json"
                        };
                        state.metrics.record_request(status, started.elapsed());
                        completions.send(
                            key,
                            Completion::Full(Rendered {
                                status,
                                content_type: content_type.to_string(),
                                body,
                                extra_headers: GwHandler::id_headers(&request_id),
                                fault_eligible: false,
                                force_close: false,
                            }),
                        );
                    }
                };
                // Forwarding has no loop-side deadline: RACE_TIMEOUT bounds
                // the round trip.
                return match self.pool.submit(job) {
                    Ok(()) => Outcome::Pending { timeout: None },
                    Err(_) => {
                        let e = ServerError::Overloaded {
                            queue_capacity: self.pool.capacity(),
                        };
                        self.respond_error(&request_id, started, &e)
                    }
                };
            }
        };
        self.respond(&request_id, started, 200, content_type, body)
    }

    fn refused(&self, e: &ServerError, elapsed: Duration) {
        self.state.metrics.record_request(e.status(), elapsed);
    }

    fn shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::Acquire)
    }
}
