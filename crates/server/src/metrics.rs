//! Server observability: counters, gauges, and latency histograms rendered
//! in the Prometheus text exposition format.
//!
//! The `/metrics` endpoint exists so the daemon can be measured with the
//! classic bottleneck/Little's-law toolkit: request rate and latency
//! histogram give the arrival and service processes, queue depth the
//! population, and the cache hit ratio the effective service demand. All
//! cells are lock-free atomics, so the hot path pays a handful of relaxed
//! increments per request.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use marked_graph::McmEngine;

use crate::cpu::ThreadCpu;
use crate::error::ServerError;
use crate::fault::FaultPlan;
use crate::pool::WorkerPool;
use crate::store::ResultStore;

/// The request routes. Each known path resolves to one of them through
/// [`ROUTES`]; `Other` counts what resolves to none (404, 405) and the
/// connection-level defenses (408, 429).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// `POST /analyze`.
    Analyze,
    /// `POST /qs`.
    Qs,
    /// `POST /insert`.
    Insert,
    /// `POST /dot`.
    Dot,
    /// `POST /sweep`.
    Sweep,
    /// `POST /batch`.
    Batch,
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Healthz,
    /// `POST /shutdown`.
    Shutdown,
    /// `GET /store/index`.
    StoreIndex,
    /// `POST /store/get`.
    StoreGet,
    /// `POST /store/put`.
    StorePut,
    /// Anything else.
    Other,
}

/// Every `(method, path)` the daemon serves and the route it resolves to.
/// This is the only such list: the daemon, the gateway and `/batch` rows
/// all resolve through it with [`Route::resolve`].
pub const ROUTES: [(&str, &str, Route); 12] = [
    ("POST", "/analyze", Route::Analyze),
    ("POST", "/qs", Route::Qs),
    ("POST", "/insert", Route::Insert),
    ("POST", "/dot", Route::Dot),
    ("POST", "/sweep", Route::Sweep),
    ("POST", "/batch", Route::Batch),
    ("GET", "/metrics", Route::Metrics),
    ("GET", "/healthz", Route::Healthz),
    ("POST", "/shutdown", Route::Shutdown),
    ("GET", "/store/index", Route::StoreIndex),
    ("POST", "/store/get", Route::StoreGet),
    ("POST", "/store/put", Route::StorePut),
];

/// The `route` labels of `lis_requests_total`, indexed by [`Route::slot`].
const LABELS: [&str; 11] = [
    "analyze", "qs", "insert", "dot", "sweep", "batch", "metrics", "healthz", "shutdown", "store",
    "other",
];

impl Route {
    /// Resolves a request line through [`ROUTES`], among the routes for
    /// which `serves` is true. A path no served route has is
    /// [`ServerError::NotFound`]; a served path with another method is
    /// [`ServerError::MethodNotAllowed`].
    ///
    /// # Errors
    ///
    /// The 404 or 405 to answer, as above.
    pub fn resolve(
        method: &str,
        path: &str,
        serves: impl Fn(Route) -> bool,
    ) -> Result<Route, ServerError> {
        let mut known = false;
        for &(m, p, route) in &ROUTES {
            if p == path && serves(route) {
                if m == method {
                    return Ok(route);
                }
                known = true;
            }
        }
        Err(if known {
            ServerError::MethodNotAllowed
        } else {
            ServerError::NotFound(path.to_string())
        })
    }

    /// The route's name: its path without the leading slash, as
    /// [`crate::RequestKind::decode`] takes it. It is also the `route`
    /// label of `lis_requests_total`, where the three `/store/*` routes
    /// share `store`.
    pub fn name(self) -> &'static str {
        LABELS[self.slot()]
    }

    fn slot(self) -> usize {
        match self {
            Route::Analyze => 0,
            Route::Qs => 1,
            Route::Insert => 2,
            Route::Dot => 3,
            Route::Sweep => 4,
            Route::Batch => 5,
            Route::Metrics => 6,
            Route::Healthz => 7,
            Route::Shutdown => 8,
            Route::StoreIndex | Route::StoreGet | Route::StorePut => 9,
            Route::Other => 10,
        }
    }
}

/// The statuses counted one by one, by the daemon and the gateway alike.
pub const STATUSES: [u16; 12] = [200, 400, 404, 405, 408, 413, 422, 429, 500, 502, 503, 504];

/// The index of `status` in [`STATUSES`]; a status the list lacks counts
/// as 500.
pub fn status_slot(status: u16) -> usize {
    STATUSES
        .iter()
        .position(|&s| s == status)
        .unwrap_or_else(|| {
            // Unknown codes count as 500.
            STATUSES
                .iter()
                .position(|&s| s == 500)
                .expect("500 tracked")
        })
}

/// A scalar series as one scrape reads it: exposition name, Prometheus
/// type (`counter` or `gauge`) and value.
pub type Reading = (&'static str, &'static str, u64);

/// Appends a `# TYPE` line and one sample for each reading. Both tiers
/// render their scalar series through it.
pub fn render_readings(out: &mut String, readings: &[Reading]) {
    use std::fmt::Write as _;
    for (name, kind, value) in readings {
        let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {value}");
    }
}

/// The value of the series `name` in `readings`, 0 if it has none.
pub fn reading(readings: &[Reading], name: &str) -> u64 {
    readings
        .iter()
        .find(|r| r.0 == name)
        .map_or(0, |&(_, _, value)| value)
}

/// Upper bounds (seconds) of the latency histogram buckets; an implicit
/// `+Inf` bucket follows.
pub const LATENCY_BUCKETS: [f64; 14] = [
    0.000_05, 0.000_1, 0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0,
];

/// Upper bounds of the pipeline-depth histogram buckets (requests in
/// flight on one connection when a new one is parsed); `+Inf` follows.
pub const DEPTH_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// A cumulative histogram over fixed bucket bounds. Observations are
/// counted in whole units (nanoseconds for latency); the `le` bounds and
/// the `_sum` are rendered in units divided by `per_unit` (seconds).
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    per_unit: f64,
    /// One cell per bound, then `+Inf`.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    /// The latency histogram: [`LATENCY_BUCKETS`] seconds.
    fn default() -> Histogram {
        Histogram::new(&LATENCY_BUCKETS, 1e9)
    }
}

impl Histogram {
    /// A histogram over the ascending `bounds`, observed in units of
    /// `1 / per_unit` of a bound.
    pub fn new(bounds: &'static [f64], per_unit: f64) -> Histogram {
        Histogram {
            bounds,
            per_unit,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one latency observation.
    pub fn observe(&self, elapsed: Duration) {
        self.observe_units(elapsed.as_nanos() as u64);
    }

    /// Records one observation of `units`.
    pub fn observe_units(&self, units: u64) {
        let value = units as f64 / self.per_unit;
        let slot = self
            .bounds
            .iter()
            .position(|&le| value <= le)
            .unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(units, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Renders the full `# TYPE` + bucket/sum/count block for `name`.
    pub fn render(&self, out: &mut String, name: &str) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# TYPE {name} histogram");
        self.render_series(out, name, "");
    }

    /// Renders the bucket/sum/count series with `labels` (e.g.
    /// `engine="howard",`) prepended to each label set. No `# TYPE` line, so
    /// several labeled series can share one metric name.
    pub fn render_series(&self, out: &mut String, name: &str, labels: &str) {
        use std::fmt::Write as _;
        let mut cumulative = 0u64;
        for (cell, le) in self.buckets.iter().zip(self.bounds) {
            cumulative += cell.load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{{labels}le=\"{le}\"}} {cumulative}");
        }
        cumulative += self.buckets[self.bounds.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{{labels}le=\"+Inf\"}} {cumulative}");
        let labels = match labels.trim_end_matches(',') {
            "" => String::new(),
            set => format!("{{{set}}}"),
        };
        let sum = self.sum.load(Ordering::Relaxed) as f64 / self.per_unit;
        let _ = writeln!(out, "{name}_sum{labels} {sum}");
        let _ = writeln!(out, "{name}_count{labels} {}", self.count());
    }
}

/// Counters the readiness event loop maintains. Shared as an `Arc`
/// between the loop and the metrics registry.
#[derive(Debug)]
pub struct NetStats {
    /// Connections currently open on the front tier (accept to close).
    pub connections_open: AtomicI64,
    /// Poller wakeups (one per `epoll_wait`/`poll` return).
    pub wakeups: AtomicU64,
    /// The pipeline depth each dispatched request observed: unanswered
    /// requests on its connection, itself included (1 means plain
    /// request/response alternation). Over [`DEPTH_BUCKETS`].
    pub pipeline_depth: Histogram,
}

impl Default for NetStats {
    fn default() -> NetStats {
        NetStats {
            connections_open: AtomicI64::new(0),
            wakeups: AtomicU64::new(0),
            pipeline_depth: Histogram::new(&DEPTH_BUCKETS, 1.0),
        }
    }
}

impl NetStats {
    /// Creates a zeroed stats block.
    pub fn new() -> NetStats {
        NetStats::default()
    }

    /// Appends the `lis_net_*` exposition block.
    pub fn render_into(&self, out: &mut String) {
        let open = self.connections_open.load(Ordering::Relaxed).max(0) as u64;
        render_readings(
            out,
            &[
                ("lis_net_connections_open", "gauge", open),
                (
                    "lis_net_readiness_wakeups_total",
                    "counter",
                    self.wakeups.load(Ordering::Relaxed),
                ),
            ],
        );
        self.pipeline_depth.render(out, "lis_net_pipeline_depth");
    }
}

/// The counters the daemon increments itself. One instance is shared by
/// every connection handler and worker; what the pool, the fault plan and
/// the store count stays with them and is read per scrape by
/// [`Metrics::readings`].
#[derive(Debug, Default)]
pub struct Metrics {
    /// `requests[route][status]`.
    requests: [[AtomicU64; STATUSES.len()]; LABELS.len()],
    /// Cache lookups that were answered without running analysis.
    pub cache_hits: AtomicU64,
    /// Cache lookups that had to run analysis.
    pub cache_misses: AtomicU64,
    /// Jobs rejected because the queue was full (overload shedding).
    pub shed_total: AtomicU64,
    /// Requests that hit the per-request timeout.
    pub timeouts_total: AtomicU64,
    /// Connections rejected at the concurrent-connection cap.
    pub connections_rejected: AtomicU64,
    /// `/analyze` executions that computed a periodic firing schedule
    /// (cache misses only — replays don't recompute).
    pub schedule_requests: AtomicU64,
    /// `/analyze` executions that ran the bursty-source experiment
    /// (cache misses only).
    pub schedule_burst_requests: AtomicU64,
    /// Sweep jobs started (cache hits included — each `/sweep` answered).
    pub sweep_jobs: AtomicU64,
    /// Sweep result rows streamed to clients (cache replays included).
    pub sweep_rows: AtomicU64,
    /// End-to-end latency of whole sweep jobs (first byte to trailer).
    pub sweep_latency: Histogram,
    /// End-to-end request latency (receipt to response write).
    pub latency: Histogram,
    /// Analysis-execution latency per MCM engine (cache misses on the
    /// throughput routes only), indexed by [`McmEngine`].
    engine_latency: [Histogram; McmEngine::ALL.len()],
    /// Front-tier connection/readiness counters, shared with the event
    /// loop via `Arc` so the loop thread needs no registry reference.
    pub net: std::sync::Arc<NetStats>,
    /// The daemon's threads by role, read at scrape time into
    /// `lis_thread_cpu_seconds_total`.
    pub threads: std::sync::Arc<ThreadCpu>,
}

impl Metrics {
    /// Creates a zeroed metrics registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Counts one finished request.
    pub fn record_request(&self, route: Route, status: u16, elapsed: Duration) {
        self.requests[route.slot()][status_slot(status)].fetch_add(1, Ordering::Relaxed);
        self.latency.observe(elapsed);
    }

    /// Records the analysis-execution time of one request answered by
    /// `engine`.
    pub fn record_engine(&self, engine: McmEngine, elapsed: Duration) {
        self.engine_latency[engine as usize].observe(elapsed);
    }

    /// Counts one executed `/analyze` job's schedule/burst options, so the
    /// new subsystem's load is visible separately from plain analyses.
    pub fn record_schedule(&self, schedule: bool, burst: bool) {
        if schedule {
            self.schedule_requests.fetch_add(1, Ordering::Relaxed);
        }
        if burst {
            self.schedule_burst_requests.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Observations recorded for one engine (test observability).
    pub fn engine_count(&self, engine: McmEngine) -> u64 {
        self.engine_latency[engine as usize].count()
    }

    /// Total requests across all routes and statuses.
    pub fn requests_total(&self) -> u64 {
        self.requests
            .iter()
            .flatten()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Requests counted for one route/status cell (test observability).
    pub fn requests_for(&self, route: Route, status: u16) -> u64 {
        self.requests[route.slot()][status_slot(status)].load(Ordering::Relaxed)
    }

    /// Every scalar series of `/metrics`, in exposition order, each read
    /// from the component that counts it: this registry, the worker pool,
    /// the fault plan or the durable store. Without a plan
    /// `lis_faults_injected_total` reads 0, and without a store so do the
    /// `lis_store_*` series.
    pub fn readings(
        &self,
        pool: &WorkerPool,
        faults: Option<&FaultPlan>,
        store: Option<&ResultStore>,
    ) -> Vec<Reading> {
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        let stored = |read: fn(&ResultStore) -> u64| store.map_or(0, read);
        vec![
            ("lis_cache_hits_total", "counter", load(&self.cache_hits)),
            (
                "lis_cache_misses_total",
                "counter",
                load(&self.cache_misses),
            ),
            ("lis_queue_depth", "gauge", pool.queue_depth() as u64),
            ("lis_shed_total", "counter", load(&self.shed_total)),
            ("lis_timeouts_total", "counter", load(&self.timeouts_total)),
            ("lis_worker_panics_total", "counter", pool.panics()),
            ("lis_worker_respawns_total", "counter", pool.respawns()),
            (
                "lis_faults_injected_total",
                "counter",
                faults.map_or(0, FaultPlan::injected),
            ),
            (
                "lis_connections_rejected_total",
                "counter",
                load(&self.connections_rejected),
            ),
            (
                "lis_store_spills_total",
                "counter",
                stored(ResultStore::spills),
            ),
            (
                "lis_store_disk_hits_total",
                "counter",
                stored(ResultStore::disk_hits),
            ),
            (
                "lis_store_warm_loaded_total",
                "counter",
                stored(ResultStore::warm_loaded),
            ),
            (
                "lis_store_quarantined_total",
                "counter",
                stored(ResultStore::quarantined),
            ),
            (
                "lis_store_gc_evictions_total",
                "counter",
                stored(ResultStore::gc_evictions),
            ),
            ("lis_store_entries", "gauge", stored(|s| s.len() as u64)),
            ("lis_store_bytes", "gauge", stored(ResultStore::bytes)),
            (
                "lis_schedule_requests_total",
                "counter",
                load(&self.schedule_requests),
            ),
            (
                "lis_schedule_burst_requests_total",
                "counter",
                load(&self.schedule_burst_requests),
            ),
            ("lis_sweep_jobs_total", "counter", load(&self.sweep_jobs)),
            ("lis_sweep_rows_total", "counter", load(&self.sweep_rows)),
        ]
    }

    /// Renders the Prometheus text exposition: the per-route request
    /// cells, the scalar `readings` (see [`Metrics::readings`]), then the
    /// histograms, the event loop's series and the per-role CPU seconds.
    pub fn render(&self, readings: &[Reading]) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# TYPE lis_requests_total counter");
        for (r, route) in LABELS.iter().enumerate() {
            for (s, status) in STATUSES.iter().enumerate() {
                let n = self.requests[r][s].load(Ordering::Relaxed);
                if n > 0 {
                    let _ = writeln!(
                        out,
                        "lis_requests_total{{route=\"{route}\",status=\"{status}\"}} {n}"
                    );
                }
            }
        }
        render_readings(&mut out, readings);
        if self.sweep_latency.count() > 0 {
            self.sweep_latency.render(&mut out, "lis_sweep_seconds");
        }
        self.net.render_into(&mut out);
        self.threads.render_into(&mut out);
        self.latency.render(&mut out, "lis_request_seconds");
        if self.engine_latency.iter().any(|h| h.count() > 0) {
            let _ = writeln!(out, "# TYPE lis_engine_request_seconds histogram");
            for engine in McmEngine::ALL {
                let h = &self.engine_latency[engine as usize];
                if h.count() > 0 {
                    h.render_series(
                        &mut out,
                        "lis_engine_request_seconds",
                        &format!("engine=\"{engine}\","),
                    );
                }
            }
        }
        out
    }
}

/// Reads one sample back out of a Prometheus text exposition (exact
/// metric-name match, first occurrence). Used by `loadgen` and the
/// end-to-end tests to assert on `/metrics` output.
pub fn parse_metric(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?; // exact name: no labels, no prefix match
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exposition with an idle pool, no fault plan and no store.
    fn render(m: &Metrics) -> String {
        let pool = WorkerPool::new(1, 1);
        let text = m.render(&m.readings(&pool, None, None));
        pool.drain();
        text
    }

    #[test]
    fn counters_land_in_the_right_cells() {
        let m = Metrics::new();
        m.record_request(Route::Analyze, 200, Duration::from_micros(80));
        m.record_request(Route::Analyze, 200, Duration::from_micros(80));
        m.record_request(Route::Qs, 400, Duration::from_millis(2));
        m.record_request(Route::Other, 404, Duration::from_micros(1));
        assert_eq!(m.requests_for(Route::Analyze, 200), 2);
        assert_eq!(m.requests_for(Route::Qs, 400), 1);
        assert_eq!(m.requests_total(), 4);
        assert_eq!(m.latency.count(), 4);
    }

    #[test]
    fn unknown_status_codes_count_as_500() {
        let m = Metrics::new();
        m.record_request(Route::Dot, 299, Duration::ZERO);
        assert_eq!(m.requests_for(Route::Dot, 500), 1);
    }

    #[test]
    fn chaos_statuses_have_their_own_cells() {
        let m = Metrics::new();
        m.record_request(Route::Analyze, 408, Duration::ZERO);
        m.record_request(Route::Other, 429, Duration::ZERO);
        assert_eq!(m.requests_for(Route::Analyze, 408), 1);
        assert_eq!(m.requests_for(Route::Other, 429), 1);
        // Neither leaked into the 500 fallback cell.
        assert_eq!(m.requests_for(Route::Analyze, 500), 0);
        assert_eq!(m.requests_for(Route::Other, 500), 0);
    }

    #[test]
    fn robustness_counters_render() {
        let m = Metrics::new();
        m.connections_rejected.store(2, Ordering::Relaxed);
        let plan = FaultPlan::parse("truncate:1").expect("plan");
        for _ in 0..7 {
            plan.write_fault();
        }
        let pool = WorkerPool::new(1, 1);
        let text = m.render(&m.readings(&pool, Some(&plan), None));
        pool.drain();
        assert_eq!(parse_metric(&text, "lis_worker_panics_total"), Some(0.0));
        assert_eq!(parse_metric(&text, "lis_worker_respawns_total"), Some(0.0));
        assert_eq!(parse_metric(&text, "lis_faults_injected_total"), Some(7.0));
        assert_eq!(
            parse_metric(&text, "lis_connections_rejected_total"),
            Some(2.0)
        );
    }

    #[test]
    fn render_is_valid_prometheus_text() {
        let m = Metrics::new();
        m.record_request(Route::Analyze, 200, Duration::from_micros(300));
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        let text = render(&m);
        assert!(text.contains("lis_requests_total{route=\"analyze\",status=\"200\"} 1"));
        assert!(text.contains("lis_cache_hits_total 3"));
        assert!(text.contains("lis_cache_misses_total 1"));
        assert!(text.contains("lis_queue_depth 0"));
        assert!(text.contains("lis_request_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lis_request_seconds_count 1"));
        // Every exposition line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line {line:?}"
            );
        }
    }

    #[test]
    fn store_counters_render() {
        let m = Metrics::new();
        let text = render(&m);
        assert_eq!(parse_metric(&text, "lis_store_spills_total"), Some(0.0));
        let dir = std::env::temp_dir().join(format!("lis-metrics-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir, 0).expect("open store");
        for system in 1..=5 {
            let key = crate::CacheKey { system, request: 0 };
            store.insert(key, 200, &[b'x'; 128]).expect("insert");
        }
        store.get(crate::CacheKey {
            system: 1,
            request: 0,
        });
        let pool = WorkerPool::new(1, 1);
        let text = m.render(&m.readings(&pool, None, Some(&store)));
        pool.drain();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(parse_metric(&text, "lis_store_spills_total"), Some(5.0));
        assert_eq!(parse_metric(&text, "lis_store_disk_hits_total"), Some(1.0));
        assert_eq!(
            parse_metric(&text, "lis_store_quarantined_total"),
            Some(0.0)
        );
        assert_eq!(parse_metric(&text, "lis_store_entries"), Some(5.0));
        assert_eq!(parse_metric(&text, "lis_store_bytes"), Some(640.0));
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line {line:?}"
            );
        }
    }

    #[test]
    fn parse_metric_reads_render_back() {
        let m = Metrics::new();
        m.cache_hits.fetch_add(41, Ordering::Relaxed);
        let text = render(&m);
        assert_eq!(parse_metric(&text, "lis_cache_hits_total"), Some(41.0));
        assert_eq!(parse_metric(&text, "lis_cache_misses_total"), Some(0.0));
        // Exact-name match: a prefix must not pick up the labeled series.
        assert_eq!(parse_metric(&text, "lis_cache_hits"), None);
        assert_eq!(parse_metric(&text, "nope"), None);
    }

    #[test]
    fn engine_latency_renders_labeled_series() {
        let m = Metrics::new();
        // Nothing recorded: the engine histogram family is omitted entirely.
        assert!(!render(&m).contains("lis_engine_request_seconds"));
        m.record_engine(McmEngine::Howard, Duration::from_micros(40));
        m.record_engine(McmEngine::Howard, Duration::from_micros(60));
        m.record_engine(McmEngine::Karp, Duration::from_millis(3));
        assert_eq!(m.engine_count(McmEngine::Howard), 2);
        assert_eq!(m.engine_count(McmEngine::Karp), 1);
        assert_eq!(m.engine_count(McmEngine::Lawler), 0);
        let text = render(&m);
        assert!(text.contains("# TYPE lis_engine_request_seconds histogram"));
        assert!(text.contains("lis_engine_request_seconds_count{engine=\"howard\"} 2"));
        assert!(text.contains("lis_engine_request_seconds_count{engine=\"karp\"} 1"));
        assert!(text.contains("lis_engine_request_seconds_bucket{engine=\"howard\",le=\"+Inf\"} 2"));
        // The unlabeled lis_request_seconds series must stay parseable.
        assert!(!text.contains("lis_engine_request_seconds_count{engine=\"lawler\"}"));
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line {line:?}"
            );
        }
    }

    #[test]
    fn sweep_counters_render() {
        let m = Metrics::new();
        let text = render(&m);
        assert_eq!(parse_metric(&text, "lis_sweep_jobs_total"), Some(0.0));
        assert_eq!(parse_metric(&text, "lis_sweep_rows_total"), Some(0.0));
        // An idle server omits the sweep latency histogram entirely.
        assert!(!text.contains("lis_sweep_seconds"));
        m.sweep_jobs.fetch_add(2, Ordering::Relaxed);
        m.sweep_rows.fetch_add(128, Ordering::Relaxed);
        m.sweep_latency.observe(Duration::from_millis(12));
        m.record_request(Route::Sweep, 200, Duration::from_millis(12));
        let text = render(&m);
        assert_eq!(parse_metric(&text, "lis_sweep_jobs_total"), Some(2.0));
        assert_eq!(parse_metric(&text, "lis_sweep_rows_total"), Some(128.0));
        assert!(text.contains("lis_sweep_seconds_count 1"));
        assert!(text.contains("lis_requests_total{route=\"sweep\",status=\"200\"} 1"));
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line {line:?}"
            );
        }
    }

    #[test]
    fn schedule_counters_render() {
        let m = Metrics::new();
        let text = render(&m);
        assert_eq!(
            parse_metric(&text, "lis_schedule_requests_total"),
            Some(0.0)
        );
        assert_eq!(
            parse_metric(&text, "lis_schedule_burst_requests_total"),
            Some(0.0)
        );
        m.record_schedule(true, false);
        m.record_schedule(true, true);
        m.record_schedule(false, false);
        let text = render(&m);
        assert_eq!(
            parse_metric(&text, "lis_schedule_requests_total"),
            Some(2.0)
        );
        assert_eq!(
            parse_metric(&text, "lis_schedule_burst_requests_total"),
            Some(1.0)
        );
    }

    #[test]
    fn net_stats_render_gauge_counter_and_depth_histogram() {
        let m = Metrics::new();
        m.net.connections_open.store(7, Ordering::Relaxed);
        m.net.wakeups.store(100, Ordering::Relaxed);
        m.net.pipeline_depth.observe_units(1);
        m.net.pipeline_depth.observe_units(3);
        m.net.pipeline_depth.observe_units(500); // beyond the last bucket → +Inf only
        let text = render(&m);
        assert_eq!(parse_metric(&text, "lis_net_connections_open"), Some(7.0));
        assert_eq!(
            parse_metric(&text, "lis_net_readiness_wakeups_total"),
            Some(100.0)
        );
        assert!(text.contains("lis_net_pipeline_depth_bucket{le=\"1\"} 1"));
        assert!(text.contains("lis_net_pipeline_depth_bucket{le=\"4\"} 2"));
        assert!(text.contains("lis_net_pipeline_depth_bucket{le=\"+Inf\"} 3"));
        assert_eq!(
            parse_metric(&text, "lis_net_pipeline_depth_count"),
            Some(3.0)
        );
        assert_eq!(
            parse_metric(&text, "lis_net_pipeline_depth_sum"),
            Some(504.0)
        );
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line {line:?}"
            );
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe(Duration::from_nanos(10)); // first bucket
        h.observe(Duration::from_secs(5)); // +Inf bucket
        let mut out = String::new();
        h.render(&mut out, "x");
        assert!(out.contains("x_bucket{le=\"0.00005\"} 1"));
        assert!(out.contains("x_bucket{le=\"1\"} 1"));
        assert!(out.contains("x_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("x_count 2"));
    }
}
