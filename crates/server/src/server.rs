//! The `lis-server` daemon: the event-loop front, routing, the worker
//! pool handoff, and graceful shutdown.
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//!  event loop (1 thread, every connection)
//!     │  control plane, cache hit, typed error ──▶ answered inline
//!     │  cache miss ─▶ WorkerPool (bounded queue)
//!     │                   │ analysis, /batch and /sweep jobs
//!     ◀── completions ────┘ (full answers or streamed chunks; results cached)
//! ```
//!
//! The loop never runs analysis itself: it parses, consults the
//! content-addressed cache, and otherwise queues a pool job whose answer
//! comes back through the completion channel (with a loop-side deadline for
//! single-shot routes). A full queue is answered with a typed 503
//! immediately — the daemon sheds load instead of queueing unboundedly.
//! `POST /shutdown` flips a flag: the loop stops accepting, connections
//! finish their in-flight requests and close, and the pool drains every
//! queued job before [`Server::run`] returns.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lis_core::{fnv1a, parse_netlist, LisSystem};
use lis_sweep::SweepSpec;

use crate::cache::{CacheKey, CachedResponse, ResultCache};
use crate::error::ServerError;
use crate::fault::{FaultPlan, WriteFault};
use crate::http::{ChunkBatcher, Request, REQUEST_ID_HEADER};
use crate::jobs::{sweep_header_json, sweep_row_json, sweep_trailer_json, RequestKind};
use crate::metrics::{Metrics, Route};
use crate::net::{Completion, Completions, EventLoop, FrontConfig, Outcome, Rendered, SlotKey};
use crate::pool::{DrainReport, SubmitError, WorkerPool};
use crate::store::{key_hex, parse_key_hex, ResultStore, Spiller};
use crate::wire::{obj, Json};

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads running analysis jobs. Defaults to
    /// [`lis_par::max_threads`], which honors the CLI `--threads` flag and
    /// the `LIS_THREADS` environment variable.
    pub workers: usize,
    /// Bounded job-queue capacity; submissions beyond it are shed with a
    /// typed 503.
    pub queue_capacity: usize,
    /// Per-request deadline: a job not finished by then answers 504.
    pub request_timeout: Duration,
    /// Maximum cached responses (content-addressed; 0 disables caching).
    pub cache_capacity: usize,
    /// Concurrent-connection cap; connections beyond it are answered with
    /// a typed 429 and closed.
    pub max_connections: usize,
    /// Wall-clock budget for one request to fully arrive once its first
    /// byte lands (slow-loris defense). Exceeding it answers a typed 408
    /// and closes the connection.
    pub read_deadline: Duration,
    /// Concurrent `/sweep` jobs allowed. Each sweep runs as one worker-pool
    /// job (streaming rows back through the event loop as they are solved)
    /// and holds its worker for the whole grid, so a small cap keeps sweeps
    /// from occupying every pool worker; excess sweeps are shed with a typed
    /// 503 carrying a `Retry-After` hint. `0` sheds every sweep — a kill
    /// switch for operators (and a deterministic shed path for tests).
    pub max_concurrent_sweeps: usize,
    /// Deterministic fault-injection schedule, if chaos-testing. `None`
    /// (production) costs one pointer check per injection site.
    pub faults: Option<Arc<FaultPlan>>,
    /// Test instrumentation: sleep this long inside every analysis job.
    /// `None` in production; the end-to-end tests use it to exercise the
    /// overload-shed and timeout paths deterministically.
    pub job_delay_for_tests: Option<Duration>,
    /// Test instrumentation: cap every event-loop socket write at this many
    /// bytes, forcing the partial-write/re-registration path.
    pub net_write_chunk_for_tests: Option<usize>,
    /// Durable result store directory (`lis serve --store DIR`). `None`
    /// keeps the cache RAM-only. When set, finished answers spill to disk
    /// write-through and the cache is warm-loaded from disk at startup.
    pub store_dir: Option<PathBuf>,
    /// Maximum entries the durable store keeps before FIFO GC (0 =
    /// unbounded).
    pub store_capacity: usize,
    /// Test instrumentation: sleep this long inside every background
    /// store write, so drain tests observe a non-empty spill queue.
    pub spill_delay_for_tests: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: lis_par::max_threads(),
            queue_capacity: 256,
            request_timeout: Duration::from_secs(30),
            cache_capacity: 4096,
            max_connections: 1024,
            read_deadline: Duration::from_secs(10),
            max_concurrent_sweeps: 4,
            faults: None,
            job_delay_for_tests: None,
            net_write_chunk_for_tests: None,
            store_dir: None,
            store_capacity: 65536,
            spill_delay_for_tests: None,
        }
    }
}

/// State shared by the event loop and every worker job.
struct State {
    metrics: Metrics,
    cache: ResultCache,
    /// Durable write-behind spill under the cache (`--store DIR` only).
    store: Option<Spiller>,
    pool: WorkerPool,
    shutdown: AtomicBool,
    sweeps_in_flight: AtomicUsize,
    config: ServerConfig,
    started: Instant,
}

impl State {
    /// Cache probe with durable fall-through: a RAM miss (counted as a
    /// miss) re-checks the on-disk store and, on a disk hit, re-warms the
    /// RAM cache without re-spilling.
    fn lookup(&self, key: CacheKey) -> Option<Arc<CachedResponse>> {
        if let Some(hit) = self.cache.get(key, &self.metrics) {
            return Some(hit);
        }
        let spiller = self.store.as_ref()?;
        let response = Arc::new(spiller.store().get(key)?);
        self.cache.insert(key, Arc::clone(&response));
        Some(response)
    }

    /// Caches a finished answer and (with `--store`) spills it to disk
    /// write-through via the background spill queue.
    fn remember(&self, key: CacheKey, response: Arc<CachedResponse>) {
        if let Some(spiller) = &self.store {
            spiller.spill(key, Arc::clone(&response));
        }
        self.cache.insert(key, response);
    }
}

/// The analysis daemon. Bind with [`Server::bind`], serve with
/// [`Server::run`] (blocks until `POST /shutdown`).
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Binds the listening socket and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission, ...).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        if config.faults.is_some() {
            // Injected panics are expected events during chaos runs; keep
            // them out of the logs (real panics still report normally).
            crate::fault::silence_injected_panics();
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let pool = WorkerPool::new(config.workers.max(1), config.queue_capacity.max(1));
        let cache = ResultCache::new(config.cache_capacity);
        let store = match &config.store_dir {
            Some(dir) => {
                let store = Arc::new(ResultStore::open(dir, config.store_capacity)?);
                // Warm load: every durable answer goes straight into the
                // RAM cache (FIFO keeps the newest `cache_capacity`), so a
                // respawned shard serves its hot set without recomputing.
                for (key, response) in store.warm_entries() {
                    cache.insert(key, response);
                }
                Some(Spiller::new(store, config.spill_delay_for_tests))
            }
            None => None,
        };
        let state = Arc::new(State {
            metrics: Metrics::new(),
            cache,
            store,
            pool,
            shutdown: AtomicBool::new(false),
            sweeps_in_flight: AtomicUsize::new(0),
            config,
            started: Instant::now(),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `POST /shutdown`, then drains (pool jobs first, then
    /// any pending store spills) and returns what the drain observed.
    ///
    /// # Errors
    ///
    /// Returns fatal accept/poll errors; per-connection errors close that
    /// connection only.
    pub fn run(self) -> io::Result<DrainReport> {
        // Best effort: lift the fd soft limit toward the hard limit so the
        // loop's connection cap, not the process rlimit, is the ceiling.
        let _ = crate::net::raise_nofile_limit();
        let Server { listener, state } = self;
        let config = FrontConfig {
            max_connections: state.config.max_connections,
            read_deadline: state.config.read_deadline,
            slow_read: state.config.faults.as_ref().and_then(|p| p.slow_read()),
            drain_grace: state.config.request_timeout + Duration::from_secs(5),
            write_chunk_for_tests: state.config.net_write_chunk_for_tests,
        };
        let stats = Arc::clone(&state.metrics.net);
        let handler = ServerHandler {
            state: Arc::clone(&state),
            pending: Arc::new(Mutex::new(HashMap::new())),
            fast: Arc::new(Mutex::new(FastCache::new(state.config.cache_capacity))),
        };
        EventLoop::new(listener, handler, config, stats)?.run()?;
        // Every queued job runs to completion before the pool stops, and
        // every spill those jobs enqueued lands on disk before exit.
        let mut report = state.pool.drain();
        if let Some(spiller) = &state.store {
            report.spilled = spiller.flush();
        }
        Ok(report)
    }
}

/// Serves `GET /metrics`: mirrors the pool-, plan- and store-owned
/// counters into the registry, then renders it.
fn metrics_body(state: &State) -> Vec<u8> {
    let m = &state.metrics;
    m.queue_depth
        .store(state.pool.queue_depth() as i64, Ordering::Relaxed);
    m.worker_panics
        .store(state.pool.panics(), Ordering::Relaxed);
    m.worker_respawns
        .store(state.pool.respawns(), Ordering::Relaxed);
    if let Some(plan) = &state.config.faults {
        m.faults_injected.store(plan.injected(), Ordering::Relaxed);
    }
    if let Some(spiller) = &state.store {
        let store = spiller.store();
        m.store_spills.store(store.spills(), Ordering::Relaxed);
        m.store_disk_hits
            .store(store.disk_hits(), Ordering::Relaxed);
        m.store_warm_loaded
            .store(store.warm_loaded(), Ordering::Relaxed);
        m.store_quarantined
            .store(store.quarantined(), Ordering::Relaxed);
        m.store_gc_evictions
            .store(store.gc_evictions(), Ordering::Relaxed);
        m.store_entries.store(store.len() as u64, Ordering::Relaxed);
        m.store_bytes.store(store.bytes(), Ordering::Relaxed);
    }
    m.render().into_bytes()
}

/// Serves `GET /healthz`, the gateway's readiness probe and useful
/// standalone: one JSON object summarizing load and configuration. `ok`
/// stays first for humans; machines should key on the named fields.
fn healthz_body(state: &State) -> Vec<u8> {
    let mut body = obj([
        ("ok", Json::Bool(true)),
        ("role", Json::str("server")),
        (
            "engine",
            Json::str(marked_graph::McmEngine::default().as_str()),
        ),
        ("workers", Json::num(state.pool.workers() as f64)),
        ("queue_depth", Json::num(state.pool.queue_depth() as f64)),
        ("queue_capacity", Json::num(state.pool.capacity() as f64)),
        ("cache_entries", Json::num(state.cache.len() as f64)),
        (
            "cache_capacity",
            Json::num(state.config.cache_capacity as f64),
        ),
        (
            "sweeps_in_flight",
            Json::num(state.sweeps_in_flight.load(Ordering::Acquire) as f64),
        ),
        (
            "sweep_rows_streamed",
            Json::num(state.metrics.sweep_rows.load(Ordering::Relaxed) as f64),
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
    ]);
    if let (Json::Obj(fields), Some(spiller)) = (&mut body, &state.store) {
        let store = spiller.store();
        fields.push(("store_entries".to_string(), Json::num(store.len() as f64)));
        fields.push(("store_bytes".to_string(), Json::num(store.bytes() as f64)));
        fields.push(("store_spills".to_string(), Json::num(store.spills() as f64)));
        fields.push((
            "store_warm_loaded".to_string(),
            Json::num(store.warm_loaded() as f64),
        ));
        fields.push((
            "store_quarantined".to_string(),
            Json::num(store.quarantined() as f64),
        ));
        fields.push((
            "store_pending_spills".to_string(),
            Json::num(spiller.pending() as f64),
        ));
    }
    body.to_string().into_bytes()
}

/// Serves `GET /store/index`: NDJSON, one content address per line — the
/// warm-handoff diff document. With a durable store the index is the
/// store's; RAM-only servers expose the cache so handoff still works.
fn store_index_body(state: &State) -> Vec<u8> {
    let keys = match &state.store {
        Some(spiller) => spiller.store().keys(),
        None => state.cache.keys(),
    };
    let mut body = String::with_capacity(keys.len() * 44);
    for key in keys {
        body.push_str("{\"key\":\"");
        body.push_str(&key_hex(key));
        body.push_str("\"}\n");
    }
    body.into_bytes()
}

/// Serves `POST /store/get`: `{"key":"<hex>"}` → the cached entry at that
/// content address (`{"found":true,"status":...,"body":...}`), probing the
/// RAM cache first and the durable store second. The peer-read half of the
/// gateway's top-2 replication and warm handoff.
fn store_get(request: &Request, state: &Arc<State>) -> (u16, Vec<u8>) {
    let key = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|envelope| {
            envelope
                .get("key")
                .and_then(Json::as_str)
                .and_then(parse_key_hex)
        });
    let Some(key) = key else {
        let e = ServerError::BadRequest("store body must be {\"key\":\"<32-hex>\"}".into());
        return (e.status(), e.to_json().to_string().into_bytes());
    };
    let cached = state.cache.peek(key).or_else(|| {
        state
            .store
            .as_ref()
            .and_then(|spiller| spiller.store().get(key).map(Arc::new))
    });
    match cached {
        Some(response) => {
            // Response bodies are JSON text by construction; a non-UTF-8
            // body would be corruption, answered as a miss, never served.
            let Ok(text) = std::str::from_utf8(&response.body) else {
                return (
                    404,
                    obj([("found", Json::Bool(false))]).to_string().into_bytes(),
                );
            };
            let body = obj([
                ("found", Json::Bool(true)),
                ("status", Json::num(f64::from(response.status))),
                ("body", Json::str(text)),
            ]);
            (200, body.to_string().into_bytes())
        }
        None => (
            404,
            obj([("found", Json::Bool(false))]).to_string().into_bytes(),
        ),
    }
}

/// Serves `POST /store/put`: `{"key","status","body"}` → caches (and, with
/// `--store`, durably spills) a finished answer computed elsewhere. The
/// write-back half of replication. First write wins: an address already
/// present is left untouched, so a confused peer can never flip the bytes
/// under an existing content address.
fn store_put(request: &Request, state: &Arc<State>) -> (u16, Vec<u8>) {
    let decoded = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|envelope| {
            let key = envelope
                .get("key")
                .and_then(Json::as_str)
                .and_then(parse_key_hex)?;
            let status = envelope.get("status").and_then(Json::as_u64)?;
            let status = u16::try_from(status).ok()?;
            let body = envelope.get("body").and_then(Json::as_str)?.to_string();
            Some((key, status, body))
        });
    let Some((key, status, body)) = decoded else {
        let e = ServerError::BadRequest(
            "store body must be {\"key\":\"<32-hex>\",\"status\":N,\"body\":\"...\"}".into(),
        );
        return (e.status(), e.to_json().to_string().into_bytes());
    };
    let stored = if state.cache.peek(key).is_none() {
        state.remember(
            key,
            Arc::new(CachedResponse {
                status,
                body: body.into_bytes(),
            }),
        );
        true
    } else {
        false
    };
    let reply = obj([
        ("ok", Json::Bool(true)),
        ("stored", Json::Bool(stored)),
        ("durable", Json::Bool(state.store.is_some())),
    ]);
    (200, reply.to_string().into_bytes())
}

/// One of the `max_concurrent_sweeps` slots, held by a sweep job and
/// released on drop — including when the job unwinds or is never queued.
struct SweepSlot(Arc<State>);

impl SweepSlot {
    /// Takes a slot, or `None` when every slot is busy.
    fn acquire(state: &Arc<State>) -> Option<SweepSlot> {
        let limit = state.config.max_concurrent_sweeps;
        if state.sweeps_in_flight.fetch_add(1, Ordering::AcqRel) >= limit {
            state.sweeps_in_flight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(SweepSlot(Arc::clone(state)))
    }
}

impl Drop for SweepSlot {
    fn drop(&mut self) {
        self.0.sweeps_in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A pool job's end of a chunked response: rows coalesce in a
/// [`ChunkBatcher`] and leave as framed [`Completion::StreamChunk`]s.
struct ChunkSender<'a> {
    batcher: ChunkBatcher,
    framed: Vec<u8>,
    send: &'a dyn Fn(Completion),
}

impl<'a> ChunkSender<'a> {
    /// Coalesces up to `threshold` payload bytes per chunk frame (`0`
    /// sends every row as its own frame).
    fn new(threshold: usize, send: &'a dyn Fn(Completion)) -> ChunkSender<'a> {
        ChunkSender {
            batcher: ChunkBatcher::new(threshold),
            framed: Vec::new(),
            send,
        }
    }

    fn push(&mut self, row: &[u8]) {
        // Framing into a Vec cannot fail.
        let _ = self.batcher.push(&mut self.framed, row);
        self.emit();
    }

    /// Sends the last partial frame, then ends the stream.
    fn finish(mut self) {
        let _ = self.batcher.flush(&mut self.framed);
        self.emit();
        (self.send)(Completion::StreamEnd);
    }

    fn emit(&mut self) {
        if !self.framed.is_empty() {
            (self.send)(Completion::StreamChunk(std::mem::take(&mut self.framed)));
        }
    }
}

/// The per-row pause `LIS_SWEEP_ROW_DELAY_MS` asks for. Test
/// instrumentation: it paces the stream (one chunk frame per row) so
/// end-to-end tests can kill a shard mid-sweep deterministically.
fn sweep_row_delay() -> Option<Duration> {
    std::env::var("LIS_SWEEP_ROW_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
}

/// The `/sweep` pool job. The header line, one NDJSON row per grid point
/// (in dense point order, sent as rows are solved) and the Pareto trailer
/// leave through `send` as one chunked stream. The concatenated lines are
/// cached under the sweep's content address whether or not the client is
/// still connected, so a repeat sweep — or a gateway failover replay — is
/// answered from the cache byte for byte.
///
/// A panic before the stream head answers the typed 500; after it, the
/// stream is aborted without its terminating chunk. The slot is released
/// either way, and before the last completion of a finished sweep.
fn sweep_job(
    slot: SweepSlot,
    sys: LisSystem,
    spec: SweepSpec,
    cache_key: CacheKey,
    started: Instant,
    request_id: &Option<String>,
    send: &dyn Fn(Completion),
) {
    let state = Arc::clone(&slot.0);
    let streaming = Cell::new(false);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // Owned by the closure, so an unwind releases the slot as well.
        let slot = slot;
        if let Some(plan) = &state.config.faults {
            plan.maybe_panic();
        }
        let sweep = match lis_sweep::Sweep::new(sys, spec) {
            Ok(sweep) => sweep,
            Err(e) => {
                drop(slot);
                let e = ServerError::BadRequest(e.to_string());
                state
                    .metrics
                    .record_request(Route::Sweep, e.status(), started.elapsed());
                send(Completion::Full(error_rendered(&e, request_id)));
                return;
            }
        };
        let row_delay = sweep_row_delay();
        send(Completion::StreamHead {
            status: 200,
            content_type: "application/x-ndjson".to_string(),
            extra_headers: id_key_headers(request_id, cache_key),
        });
        streaming.set(true);
        let mut chunks = ChunkSender::new(if row_delay.is_some() { 0 } else { 8192 }, send);
        let mut body = sweep_header_json(&sweep).to_string();
        body.push('\n');
        chunks.push(body.as_bytes());
        let executed = Instant::now();
        let engine = sweep.spec().engine;
        let mut objectives = Vec::with_capacity(sweep.point_count());
        let summary = sweep.run(&mut |row| {
            objectives.push(lis_sweep::objectives(&row));
            let mut line = sweep_row_json(&row, engine).to_string();
            line.push('\n');
            if let Some(delay) = row_delay {
                std::thread::sleep(delay);
            }
            chunks.push(line.as_bytes());
            state.metrics.sweep_rows.fetch_add(1, Ordering::Relaxed);
            body.push_str(&line);
        });
        state
            .metrics
            .record_engine(engine.as_str(), executed.elapsed());
        let pareto = lis_sweep::pareto_front_objectives(&objectives);
        let mut trailer = sweep_trailer_json(&pareto, &summary).to_string();
        trailer.push('\n');
        chunks.push(trailer.as_bytes());
        body.push_str(&trailer);
        // Cache, count and free the slot before the stream ends: a client
        // that has read the last byte finds all three already done.
        state.remember(
            cache_key,
            Arc::new(CachedResponse {
                status: 200,
                body: body.into_bytes(),
            }),
        );
        state.metrics.sweep_jobs.fetch_add(1, Ordering::Relaxed);
        state.metrics.sweep_latency.observe(started.elapsed());
        state
            .metrics
            .record_request(Route::Sweep, 200, started.elapsed());
        drop(slot);
        chunks.finish();
    }));
    if let Err(payload) = outcome {
        let e = ServerError::WorkerCrashed;
        state
            .metrics
            .record_request(Route::Sweep, e.status(), started.elapsed());
        send(if streaming.get() {
            Completion::StreamAbort
        } else {
            Completion::Full(error_rendered(&e, request_id))
        });
        // Re-raise so the pool counts the panic and respawns the worker.
        resume_unwind(payload);
    }
}

/// Request-level validation for `POST /batch`: UTF-8 NDJSON with at least
/// one non-blank line, refused outright while draining.
fn batch_lines(state: &Arc<State>, body: &[u8]) -> Result<Vec<String>, ServerError> {
    if state.shutdown.load(Ordering::Acquire) {
        return Err(ServerError::ShuttingDown);
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| ServerError::BadRequest("body is not UTF-8".into()))?;
    let lines: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    if lines.is_empty() {
        return Err(ServerError::BadRequest(
            "batch body must be NDJSON: one request envelope per line".into(),
        ));
    }
    Ok(lines)
}

/// Serves one batch item. Returns the exact body the item's standalone
/// route would answer, so batch rows are byte-identical to individual
/// responses. Items share the result cache with the standalone routes, and
/// crashes are isolated per item: a poisoned line answers the typed 500 row
/// and the rest of the batch carries on.
fn batch_row(state: &State, line: &str) -> Vec<u8> {
    let result = (|| -> Result<Arc<CachedResponse>, ServerError> {
        let envelope =
            Json::parse(line).map_err(|e| ServerError::BadRequest(format!("batch line: {e}")))?;
        let name = match envelope.get("route") {
            None => Route::Analyze.name(),
            Some(v) => v.as_str().ok_or_else(|| {
                ServerError::BadRequest("batch \"route\" must be a string".into())
            })?,
        };
        let route = Route::resolve("POST", &format!("/{name}"), is_analysis)
            .map_err(|_| ServerError::BadRequest(format!("route {name:?} is not batchable")))?;
        let (sys, kind) = decode_envelope(route, &envelope)?;
        let key = kind.cache_key(&sys);
        if let Some(cached) = state.lookup(key) {
            return Ok(cached);
        }
        run_analysis(state, &sys, &kind, key).map_err(|_| ServerError::WorkerCrashed)
    })();
    match result {
        Ok(response) => response.body.clone(),
        Err(e) => e.to_json().to_string().into_bytes(),
    }
}

/// The single-shot analysis routes, the only ones a `/batch` line may name.
fn is_analysis(route: Route) -> bool {
    matches!(
        route,
        Route::Analyze | Route::Qs | Route::Insert | Route::Dot
    )
}

/// Runs one decoded analysis request on a pool worker — the test delay,
/// then [`RequestKind::execute`] behind the fault hook under
/// `catch_unwind`, then the engine and schedule metrics — and caches the
/// answer under `key`. A panic returns its payload and caches nothing:
/// the fault is not a property of the `(system, kind)` pair.
fn run_analysis(
    state: &State,
    sys: &LisSystem,
    kind: &RequestKind,
    key: CacheKey,
) -> std::thread::Result<Arc<CachedResponse>> {
    if let Some(d) = state.config.job_delay_for_tests {
        std::thread::sleep(d);
    }
    let executed = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = &state.config.faults {
            plan.maybe_panic();
        }
        kind.execute(sys)
    }))?;
    let (status, body) = match result {
        Ok(json) => (200, json.to_string().into_bytes()),
        Err(e) => (e.status(), e.to_json().to_string().into_bytes()),
    };
    if let Some(label) = kind.engine_label() {
        state.metrics.record_engine(label, executed.elapsed());
    }
    if let RequestKind::Analyze {
        schedule, burst, ..
    } = kind
    {
        state.metrics.record_schedule(*schedule, burst.is_some());
    }
    let response = Arc::new(CachedResponse { status, body });
    state.remember(key, Arc::clone(&response));
    Ok(response)
}

struct FastEntry {
    path: String,
    body: Vec<u8>,
    /// Canonical content address of the shadowed cache entry, echoed as
    /// `X-LIS-Cache-Key` so fast-path hits replicate like canonical hits.
    key: CacheKey,
    response: Arc<CachedResponse>,
}

/// Loop-side fast path: exact request bytes → finished response, bounded
/// FIFO. A hit skips UTF-8/JSON/netlist decoding entirely, which is what
/// lets the event loop answer hot repeat queries at connection scale. Only
/// canonical-cache-backed responses are stored, so a fast hit counts in
/// the metrics exactly like the canonical cache hit it shadows — and two
/// textually different requests with the same canonical identity simply
/// fall through to the canonical cache, never diverge.
struct FastCache {
    /// Keyed by the FNV-1a of the body: entries for one body on different
    /// routes share a bucket and are told apart by their path.
    buckets: HashMap<u64, Vec<FastEntry>>,
    order: VecDeque<u64>,
    capacity: usize,
    len: usize,
}

impl FastCache {
    fn new(capacity: usize) -> FastCache {
        FastCache {
            buckets: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            len: 0,
        }
    }

    fn get(&self, path: &str, body: &[u8]) -> Option<(CacheKey, Arc<CachedResponse>)> {
        let entries = self.buckets.get(&fnv1a(body))?;
        entries
            .iter()
            .find(|e| e.path == path && e.body == body)
            .map(|e| (e.key, Arc::clone(&e.response)))
    }

    fn insert(&mut self, path: &str, body: &[u8], key: CacheKey, response: Arc<CachedResponse>) {
        if self.capacity == 0 || self.get(path, body).is_some() {
            return;
        }
        let hash = fnv1a(body);
        self.buckets.entry(hash).or_default().push(FastEntry {
            path: path.to_string(),
            body: body.to_vec(),
            key,
            response,
        });
        self.order.push_back(hash);
        self.len += 1;
        while self.len > self.capacity {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some(bucket) = self.buckets.get_mut(&old) {
                if !bucket.is_empty() {
                    bucket.remove(0);
                }
                if bucket.is_empty() {
                    self.buckets.remove(&old);
                }
            }
            self.len -= 1;
        }
    }
}

/// Bookkeeping for one in-flight event-loop analysis job. Whoever removes
/// the entry — the worker on completion or the loop's 504 timer — records
/// the request, so each request is recorded exactly once.
struct PendingJob {
    route: Route,
    started: Instant,
    request_id: Option<String>,
}

/// `X-LIS-Request-Id` echo headers for a response.
fn id_headers(request_id: &Option<String>) -> Vec<(String, String)> {
    request_id
        .iter()
        .map(|id| ("X-LIS-Request-Id".to_string(), id.clone()))
        .collect()
}

/// `id_headers` plus the answer's `X-LIS-Cache-Key` content address.
fn id_key_headers(request_id: &Option<String>, key: CacheKey) -> Vec<(String, String)> {
    let mut headers = id_headers(request_id);
    headers.push(("X-LIS-Cache-Key".to_string(), key_hex(key)));
    headers
}

/// A typed-error JSON response echoing the request id.
fn error_rendered(e: &ServerError, request_id: &Option<String>) -> Rendered {
    Rendered {
        status: e.status(),
        content_type: "application/json".to_string(),
        body: e.to_json().to_string().into_bytes(),
        extra_headers: id_headers(request_id),
        fault_eligible: false,
        force_close: false,
    }
}

/// Decodes an analysis or sweep request body for `route` into the parsed
/// system and the request kind.
fn decode(route: Route, body: &[u8]) -> Result<(LisSystem, RequestKind), ServerError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServerError::BadRequest("body is not UTF-8".into()))?;
    let envelope = Json::parse(text).map_err(|e| ServerError::BadRequest(format!("body: {e}")))?;
    decode_envelope(route, &envelope)
}

/// Decodes one parsed request envelope for `route`: the request kind, then
/// its netlist. Shared by single requests and `/batch` lines.
fn decode_envelope(route: Route, envelope: &Json) -> Result<(LisSystem, RequestKind), ServerError> {
    let (netlist, kind) = RequestKind::decode(route.name(), envelope)?;
    let sys = parse_netlist(&netlist)?;
    Ok((sys, kind))
}

/// The daemon's event-loop handler: routing and worker handoff. Every
/// route either answers inline or hands one job to the worker pool.
struct ServerHandler {
    state: Arc<State>,
    pending: Arc<Mutex<HashMap<SlotKey, PendingJob>>>,
    fast: Arc<Mutex<FastCache>>,
}

impl ServerHandler {
    /// Records and renders one typed-error response.
    fn respond_error(
        &self,
        route: Route,
        e: &ServerError,
        started: Instant,
        request_id: &Option<String>,
        fault_eligible: bool,
    ) -> Outcome {
        self.state
            .metrics
            .record_request(route, e.status(), started.elapsed());
        Outcome::Respond(Rendered {
            fault_eligible,
            ..error_rendered(e, request_id)
        })
    }

    /// One analysis request on the loop: fast-path probe → decode →
    /// canonical cache probe → worker-pool job with a loop-side deadline.
    fn analysis(
        &self,
        route: Route,
        request: &Request,
        key: SlotKey,
        completions: &Completions,
        started: Instant,
        request_id: Option<String>,
    ) -> Outcome {
        let state = &self.state;
        if state.shutdown.load(Ordering::Acquire) {
            return self.respond_error(
                route,
                &ServerError::ShuttingDown,
                started,
                &request_id,
                true,
            );
        }
        // Fast path: these exact request bytes were answered before.
        if state.config.cache_capacity > 0 {
            let hit = self.fast.lock().unwrap().get(&request.path, &request.body);
            if let Some((fast_key, cached)) = hit {
                state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                state
                    .metrics
                    .record_request(route, cached.status, started.elapsed());
                return Outcome::Respond(Rendered {
                    status: cached.status,
                    content_type: "application/json".to_string(),
                    body: cached.body.clone(),
                    extra_headers: id_key_headers(&request_id, fast_key),
                    fault_eligible: true,
                    force_close: false,
                });
            }
        }
        let (sys, kind) = match decode(route, &request.body) {
            Ok(d) => d,
            Err(e) => return self.respond_error(route, &e, started, &request_id, true),
        };
        let cache_key = kind.cache_key(&sys);
        if let Some(cached) = state.lookup(cache_key) {
            state
                .metrics
                .record_request(route, cached.status, started.elapsed());
            if state.config.cache_capacity > 0 {
                self.fast.lock().unwrap().insert(
                    &request.path,
                    &request.body,
                    cache_key,
                    Arc::clone(&cached),
                );
            }
            return Outcome::Respond(Rendered {
                status: cached.status,
                content_type: "application/json".to_string(),
                body: cached.body.clone(),
                extra_headers: id_key_headers(&request_id, cache_key),
                fault_eligible: true,
                force_close: false,
            });
        }
        // Cache miss: queue the job; the worker answers through the
        // completion channel and the loop re-sequences pipelined replies.
        self.pending.lock().unwrap().insert(
            key,
            PendingJob {
                route,
                started,
                request_id: request_id.clone(),
            },
        );
        let job_state = Arc::clone(state);
        let pending = Arc::clone(&self.pending);
        let fast = Arc::clone(&self.fast);
        let completions = completions.clone();
        let raw_path = request.path.clone();
        let raw_body = request.body.clone();
        let job = move || {
            let answer = |status: u16, body: Vec<u8>| {
                // Whoever removes the pending entry records the request; if
                // the loop's 504 timer won the race this answer is dropped
                // and must not double-count.
                let entry = pending.lock().unwrap().remove(&key);
                if let Some(entry) = entry {
                    job_state
                        .metrics
                        .record_request(entry.route, status, entry.started.elapsed());
                    completions.send(
                        key,
                        Completion::Full(Rendered {
                            status,
                            content_type: "application/json".to_string(),
                            body,
                            extra_headers: id_key_headers(&entry.request_id, cache_key),
                            fault_eligible: true,
                            force_close: false,
                        }),
                    );
                }
            };
            match run_analysis(&job_state, &sys, &kind, cache_key) {
                Ok(response) => {
                    if job_state.config.cache_capacity > 0 {
                        fast.lock().unwrap().insert(
                            &raw_path,
                            &raw_body,
                            cache_key,
                            Arc::clone(&response),
                        );
                    }
                    answer(response.status, response.body.clone());
                }
                Err(payload) => {
                    // Answer the typed 500 *before* re-raising so the pool
                    // can count the panic and respawn the worker.
                    let e = ServerError::WorkerCrashed;
                    answer(e.status(), e.to_json().to_string().into_bytes());
                    resume_unwind(payload);
                }
            }
        };
        match state.pool.submit(job) {
            Ok(()) => Outcome::Pending {
                timeout: Some(state.config.request_timeout),
            },
            Err(SubmitError::Overloaded) => {
                self.pending.lock().unwrap().remove(&key);
                state.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
                let e = ServerError::Overloaded {
                    queue_capacity: state.pool.capacity(),
                };
                self.respond_error(route, &e, started, &request_id, true)
            }
            Err(SubmitError::ShuttingDown) => {
                self.pending.lock().unwrap().remove(&key);
                self.respond_error(
                    route,
                    &ServerError::ShuttingDown,
                    started,
                    &request_id,
                    true,
                )
            }
        }
    }

    /// `POST /batch` on the loop: one pool job streams every row back.
    fn batch(
        &self,
        request: &Request,
        key: SlotKey,
        completions: &Completions,
        started: Instant,
        request_id: Option<String>,
    ) -> Outcome {
        let state = Arc::clone(&self.state);
        let completions = completions.clone();
        let body = request.body.clone();
        let rid = request_id.clone();
        let job = move || {
            let send = |c| completions.send(key, c);
            match batch_lines(&state, &body) {
                Err(e) => {
                    state
                        .metrics
                        .record_request(Route::Batch, e.status(), started.elapsed());
                    send(Completion::Full(error_rendered(&e, &rid)));
                }
                Ok(lines) => {
                    send(Completion::StreamHead {
                        status: 200,
                        content_type: "application/x-ndjson".to_string(),
                        extra_headers: id_headers(&rid),
                    });
                    let mut chunks = ChunkSender::new(8192, &send);
                    for line in &lines {
                        let mut row = batch_row(&state, line);
                        row.push(b'\n');
                        chunks.push(&row);
                    }
                    state
                        .metrics
                        .record_request(Route::Batch, 200, started.elapsed());
                    chunks.finish();
                }
            }
        };
        self.submit(job, Route::Batch, started, &request_id)
    }

    /// `POST /sweep` on the loop. Decode errors, cache replays (framed with
    /// `Content-Length`, the whole body being known) and busy-slot sheds
    /// answer inline; a miss takes a sweep slot and queues one
    /// [`sweep_job`] that streams the table back.
    fn sweep(
        &self,
        request: &Request,
        key: SlotKey,
        completions: &Completions,
        started: Instant,
        request_id: Option<String>,
    ) -> Outcome {
        let state = &self.state;
        let decoded = if state.shutdown.load(Ordering::Acquire) {
            Err(ServerError::ShuttingDown)
        } else {
            decode(Route::Sweep, &request.body)
        };
        let (sys, kind) = match decoded {
            Ok(d) => d,
            Err(e) => return self.respond_error(Route::Sweep, &e, started, &request_id, false),
        };
        let cache_key = kind.cache_key(&sys);
        let RequestKind::Sweep { spec } = kind else {
            unreachable!("the sweep route decodes a sweep kind");
        };
        if let Some(cached) = state.lookup(cache_key) {
            // Replay the whole NDJSON body. Rows = lines minus header/trailer.
            let lines = cached.body.iter().filter(|&&b| b == b'\n').count() as u64;
            state.metrics.sweep_jobs.fetch_add(1, Ordering::Relaxed);
            state
                .metrics
                .sweep_rows
                .fetch_add(lines.saturating_sub(2), Ordering::Relaxed);
            state.metrics.sweep_latency.observe(started.elapsed());
            state
                .metrics
                .record_request(Route::Sweep, cached.status, started.elapsed());
            return Outcome::Respond(Rendered {
                status: cached.status,
                content_type: "application/x-ndjson".to_string(),
                body: cached.body.clone(),
                // Sweeps carry their content address too: a gateway can
                // replicate the finished table like a single-shot answer.
                extra_headers: id_key_headers(&request_id, cache_key),
                fault_eligible: false,
                force_close: false,
            });
        }
        let Some(slot) = SweepSlot::acquire(state) else {
            state.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
            let e = ServerError::SweepsBusy {
                limit: state.config.max_concurrent_sweeps,
            };
            state
                .metrics
                .record_request(Route::Sweep, e.status(), started.elapsed());
            let mut rendered = error_rendered(&e, &request_id);
            rendered
                .extra_headers
                .push(("Retry-After".to_string(), "1".to_string()));
            return Outcome::Respond(rendered);
        };
        let completions = completions.clone();
        let rid = request_id.clone();
        let job = move || {
            sweep_job(slot, sys, spec, cache_key, started, &rid, &|c| {
                completions.send(key, c);
            });
        };
        self.submit(job, Route::Sweep, started, &request_id)
    }

    /// Queues a streaming job (`/batch`, `/sweep`), which answers through
    /// the completion channel with no loop-side deadline; a refused job
    /// answers a typed 503 inline.
    fn submit(
        &self,
        job: impl FnOnce() + Send + 'static,
        route: Route,
        started: Instant,
        request_id: &Option<String>,
    ) -> Outcome {
        let e = match self.state.pool.submit(job) {
            Ok(()) => return Outcome::Pending { timeout: None },
            Err(SubmitError::Overloaded) => {
                self.state
                    .metrics
                    .shed_total
                    .fetch_add(1, Ordering::Relaxed);
                ServerError::Overloaded {
                    queue_capacity: self.state.pool.capacity(),
                }
            }
            Err(SubmitError::ShuttingDown) => ServerError::ShuttingDown,
        };
        self.respond_error(route, &e, started, request_id, false)
    }
}

impl crate::net::Handler for ServerHandler {
    fn dispatch(&self, request: Request, key: SlotKey, completions: &Completions) -> Outcome {
        let started = Instant::now();
        let request_id = request.header(REQUEST_ID_HEADER).map(str::to_string);
        let route = match Route::resolve(&request.method, &request.path, |_| true) {
            Ok(route) => route,
            Err(e) => return self.respond_error(Route::Other, &e, started, &request_id, false),
        };
        let state = &self.state;
        // Analysis, batch and sweep requests go to the pool; the control
        // plane answers inline.
        let (status, content_type, body) = match route {
            Route::Analyze | Route::Qs | Route::Insert | Route::Dot => {
                return self.analysis(route, &request, key, completions, started, request_id)
            }
            Route::Sweep => return self.sweep(&request, key, completions, started, request_id),
            Route::Batch => return self.batch(&request, key, completions, started, request_id),
            Route::Metrics => (200, "text/plain; version=0.0.4", metrics_body(state)),
            Route::Healthz => (200, "application/json", healthz_body(state)),
            Route::Shutdown => {
                state.shutdown.store(true, Ordering::Release);
                let body = obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))]);
                (200, "application/json", body.to_string().into_bytes())
            }
            Route::StoreIndex => (200, "application/x-ndjson", store_index_body(state)),
            Route::StoreGet => {
                let (status, body) = store_get(&request, state);
                (status, "application/json", body)
            }
            Route::StorePut => {
                let (status, body) = store_put(&request, state);
                (status, "application/json", body)
            }
            Route::Other => unreachable!("the route table never resolves to `Other`"),
        };
        state
            .metrics
            .record_request(route, status, started.elapsed());
        Outcome::Respond(Rendered {
            status,
            content_type: content_type.to_string(),
            body,
            extra_headers: id_headers(&request_id),
            fault_eligible: false,
            force_close: false,
        })
    }

    fn bad_request(&self, error: &io::Error) -> Rendered {
        // Protocol-violation 400s close the connection and are
        // deliberately not recorded.
        let e = ServerError::BadRequest(error.to_string());
        Rendered {
            status: 400,
            content_type: "application/json".to_string(),
            body: e.to_json().to_string().into_bytes(),
            extra_headers: Vec::new(),
            fault_eligible: false,
            force_close: true,
        }
    }

    fn slow_client(&self) -> Rendered {
        let e = ServerError::SlowClient {
            deadline_ms: self.state.config.read_deadline.as_millis() as u64,
        };
        self.state.metrics.record_request(
            Route::Other,
            e.status(),
            self.state.config.read_deadline,
        );
        Rendered {
            status: e.status(),
            content_type: "application/json".to_string(),
            body: e.to_json().to_string().into_bytes(),
            extra_headers: Vec::new(),
            fault_eligible: false,
            force_close: true,
        }
    }

    fn reject_connection(&self) -> Rendered {
        self.state
            .metrics
            .connections_rejected
            .fetch_add(1, Ordering::Relaxed);
        let e = ServerError::TooManyConnections {
            limit: self.state.config.max_connections,
        };
        self.state
            .metrics
            .record_request(Route::Other, e.status(), Duration::ZERO);
        Rendered {
            status: e.status(),
            content_type: "application/json".to_string(),
            body: e.to_json().to_string().into_bytes(),
            extra_headers: Vec::new(),
            fault_eligible: false,
            force_close: true,
        }
    }

    fn job_timeout(&self, key: SlotKey) -> Rendered {
        let entry = self.pending.lock().unwrap().remove(&key);
        let e = ServerError::Timeout {
            timeout_ms: self.state.config.request_timeout.as_millis() as u64,
        };
        let mut extra_headers = Vec::new();
        if let Some(entry) = entry {
            self.state
                .metrics
                .timeouts_total
                .fetch_add(1, Ordering::Relaxed);
            self.state
                .metrics
                .record_request(entry.route, e.status(), entry.started.elapsed());
            extra_headers = id_headers(&entry.request_id);
        }
        Rendered {
            status: e.status(),
            content_type: "application/json".to_string(),
            body: e.to_json().to_string().into_bytes(),
            extra_headers,
            fault_eligible: true,
            force_close: false,
        }
    }

    fn write_fault(&self) -> WriteFault {
        match &self.state.config.faults {
            Some(plan) => plan.write_fault(),
            None => WriteFault::None,
        }
    }

    fn shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lis-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// The latent RAM-only drain gap, closed: `POST /shutdown` must flush
    /// spills still sitting in the write-behind queue before `run` returns,
    /// and report how many it saved in `DrainReport::spilled`.
    #[test]
    fn shutdown_drain_flushes_pending_spills_and_reports_them() {
        let dir = scratch("drain");
        let config = ServerConfig {
            store_dir: Some(dir.clone()),
            // Slow spill worker: the queue is observably non-empty when the
            // drain starts, exactly the window the old code lost.
            spill_delay_for_tests: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let daemon = std::thread::spawn(move || server.run());

        let mut client = Client::connect(addr).expect("connect");
        for rs in 1..=3u32 {
            let netlist = format!("block A\nblock B\nchannel A -> B rs={rs}\nchannel A -> B\n");
            let (status, _) = client
                .analysis("analyze", &netlist, Json::Null)
                .expect("analyze");
            assert_eq!(status, 200);
        }
        client.shutdown().expect("shutdown");
        let report = daemon.join().expect("join").expect("run");
        assert!(
            report.spilled >= 1,
            "drain must report the spills it flushed, got {report:?}"
        );

        // Every answer is durable: a reopened store holds all three.
        let reopened = ResultStore::open(&dir, 0).expect("reopen");
        assert_eq!(reopened.len(), 3, "flushed spills survive on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sweep_body() -> String {
        obj([
            (
                "netlist",
                Json::str("block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n"),
            ),
            (
                "options",
                obj([(
                    "capacities",
                    Json::Arr(vec![obj([
                        ("channel", Json::Num(1.0)),
                        ("values", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
                    ])]),
                )]),
            ),
        ])
        .to_string()
    }

    /// A sweep job that dies before its stream head answers the typed 500
    /// and gives its slot back: with a single slot, the next sweep runs.
    #[test]
    fn sweep_panic_before_the_head_answers_500_and_frees_the_slot() {
        let config = ServerConfig {
            max_concurrent_sweeps: 1,
            faults: Some(Arc::new(FaultPlan::parse("burst:1").expect("spec"))),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let daemon = std::thread::spawn(move || server.run());

        let mut client = Client::connect(addr).expect("connect");
        let crashed = client
            .request("POST", "/sweep", sweep_body().as_bytes())
            .expect("crashed sweep");
        assert_eq!(crashed.status, 500);
        assert_eq!(
            crashed.body,
            ServerError::WorkerCrashed
                .to_json()
                .to_string()
                .into_bytes()
        );
        let retried = client
            .request("POST", "/sweep", sweep_body().as_bytes())
            .expect("retried sweep");
        assert_eq!(retried.status, 200, "the crashed job released its slot");
        let exposition = client.metrics().expect("metrics");
        assert_eq!(
            crate::metrics::parse_metric(&exposition, "lis_worker_panics_total"),
            Some(1.0)
        );
        client.shutdown().expect("shutdown");
        daemon.join().expect("join").expect("run");
    }

    /// A sweep job that dies mid-stream aborts the stream (the loop then
    /// closes the connection without the terminating chunk), releases its
    /// slot, and re-raises so the pool can respawn the worker.
    #[test]
    fn sweep_panic_mid_stream_aborts_the_stream_and_frees_the_slot() {
        crate::fault::silence_injected_panics();
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let state = Arc::clone(&server.state);
        let (sys, kind) = decode(Route::Sweep, sweep_body().as_bytes()).expect("decode");
        let key = kind.cache_key(&sys);
        let RequestKind::Sweep { spec } = kind else {
            panic!("a sweep kind");
        };
        let slot = SweepSlot::acquire(&state).expect("a free slot");
        assert_eq!(state.sweeps_in_flight.load(Ordering::Acquire), 1);

        // The first chunk send blows up, as a panic while rows stream.
        let sent = std::cell::RefCell::new(Vec::new());
        let send = |c: Completion| {
            let name = match c {
                Completion::Full(_) => "full",
                Completion::StreamHead { .. } => "head",
                Completion::StreamChunk(_) => "chunk",
                Completion::StreamEnd => "end",
                Completion::StreamAbort => "abort",
            };
            sent.borrow_mut().push(name);
            if name == "chunk" {
                panic!("{} (mid-stream)", crate::fault::INJECTED_PANIC_MARKER);
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            sweep_job(slot, sys, spec, key, Instant::now(), &None, &send);
        }));
        assert!(outcome.is_err(), "the panic is re-raised for the pool");
        assert_eq!(*sent.borrow(), ["head", "chunk", "abort"]);
        assert_eq!(state.sweeps_in_flight.load(Ordering::Acquire), 0);
    }
}
