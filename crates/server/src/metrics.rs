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

use crate::cpu::ThreadCpu;
use crate::error::ServerError;

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

/// Upper bounds (seconds) of the latency histogram buckets; an implicit
/// `+Inf` bucket follows.
pub const LATENCY_BUCKETS: [f64; 14] = [
    0.000_05, 0.000_1, 0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0,
];

/// A cumulative latency histogram with fixed buckets.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        let slot = LATENCY_BUCKETS
            .iter()
            .position(|&le| secs <= le)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Renders the full `# TYPE` + bucket/sum/count block for `name`. Public
    /// so other exporters (the gateway) can reuse the histogram wholesale.
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
        for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{{labels}le=\"{le}\"}} {cumulative}");
        }
        cumulative += self.buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{{labels}le=\"+Inf\"}} {cumulative}");
        if labels.is_empty() {
            let _ = writeln!(
                out,
                "{name}_sum {}",
                self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
            );
            let _ = writeln!(out, "{name}_count {}", self.count.load(Ordering::Relaxed));
        } else {
            let labels = labels.trim_end_matches(',');
            let _ = writeln!(
                out,
                "{name}_sum{{{labels}}} {}",
                self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "{name}_count{{{labels}}} {}",
                self.count.load(Ordering::Relaxed)
            );
        }
    }
}

/// Upper bounds of the pipeline-depth histogram buckets (requests in
/// flight on one connection when a new one is parsed); `+Inf` follows.
pub const DEPTH_BUCKETS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Counters the readiness event loop maintains. Shared as an `Arc`
/// between the loop and the metrics registry.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections currently open on the front tier (accept to close).
    pub connections_open: AtomicI64,
    /// Poller wakeups (one per `epoll_wait`/`poll` return).
    pub wakeups: AtomicU64,
    depth_buckets: [AtomicU64; DEPTH_BUCKETS.len() + 1],
    depth_sum: AtomicU64,
    depth_count: AtomicU64,
}

impl NetStats {
    /// Creates a zeroed stats block.
    pub fn new() -> NetStats {
        NetStats::default()
    }

    /// Records the pipeline depth one dispatched request observed
    /// (unanswered requests on its connection, itself included — 1 means
    /// plain request/response alternation).
    pub fn observe_depth(&self, depth: usize) {
        let slot = DEPTH_BUCKETS
            .iter()
            .position(|&le| depth <= le)
            .unwrap_or(DEPTH_BUCKETS.len());
        self.depth_buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.depth_sum.fetch_add(depth as u64, Ordering::Relaxed);
        self.depth_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests whose pipeline depth was recorded.
    pub fn depth_count(&self) -> u64 {
        self.depth_count.load(Ordering::Relaxed)
    }

    /// Appends the `lis_net_*` exposition block.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# TYPE lis_net_connections_open gauge");
        let _ = writeln!(
            out,
            "lis_net_connections_open {}",
            self.connections_open.load(Ordering::Relaxed).max(0)
        );
        let _ = writeln!(out, "# TYPE lis_net_readiness_wakeups_total counter");
        let _ = writeln!(
            out,
            "lis_net_readiness_wakeups_total {}",
            self.wakeups.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE lis_net_pipeline_depth histogram");
        let mut cumulative = 0u64;
        for (i, le) in DEPTH_BUCKETS.iter().enumerate() {
            cumulative += self.depth_buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "lis_net_pipeline_depth_bucket{{le=\"{le}\"}} {cumulative}"
            );
        }
        cumulative += self.depth_buckets[DEPTH_BUCKETS.len()].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "lis_net_pipeline_depth_bucket{{le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(
            out,
            "lis_net_pipeline_depth_sum {}",
            self.depth_sum.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "lis_net_pipeline_depth_count {}",
            self.depth_count.load(Ordering::Relaxed)
        );
    }
}

/// The MCM engine labels tracked by the per-engine latency histograms,
/// matching [`marked_graph::McmEngine::as_str`].
pub const ENGINE_LABELS: [&str; 3] = ["howard", "karp", "lawler"];

/// All metrics the daemon exports. One instance is shared by every
/// connection handler and worker.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `requests[route][status]`.
    requests: [[AtomicU64; STATUSES.len()]; LABELS.len()],
    /// Cache lookups that were answered without running analysis.
    pub cache_hits: AtomicU64,
    /// Cache lookups that had to run analysis.
    pub cache_misses: AtomicU64,
    /// Jobs currently waiting in the worker-pool queue.
    pub queue_depth: AtomicI64,
    /// Jobs rejected because the queue was full (overload shedding).
    pub shed_total: AtomicU64,
    /// Requests that hit the per-request timeout.
    pub timeouts_total: AtomicU64,
    /// Worker jobs that panicked (mirrored from the pool on scrape).
    pub worker_panics: AtomicU64,
    /// Replacement workers spawned after panics (mirrored from the pool).
    pub worker_respawns: AtomicU64,
    /// Faults injected by the active [`crate::fault::FaultPlan`], if any.
    pub faults_injected: AtomicU64,
    /// Connections rejected at the concurrent-connection cap.
    pub connections_rejected: AtomicU64,
    /// Responses spilled to the durable store (mirrored on scrape).
    pub store_spills: AtomicU64,
    /// Lookups served from the durable store after a RAM miss (mirrored).
    pub store_disk_hits: AtomicU64,
    /// Entries warm-loaded into the RAM cache at startup (mirrored).
    pub store_warm_loaded: AtomicU64,
    /// Store entries quarantined after failing validation (mirrored).
    pub store_quarantined: AtomicU64,
    /// Store entries evicted by the bounded-size GC (mirrored).
    pub store_gc_evictions: AtomicU64,
    /// Live entries in the durable store (gauge, mirrored).
    pub store_entries: AtomicU64,
    /// Total body bytes in the durable store (gauge, mirrored).
    pub store_bytes: AtomicU64,
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
    /// throughput routes only), indexed like [`ENGINE_LABELS`].
    pub engine_latency: [Histogram; ENGINE_LABELS.len()],
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

    /// Records the analysis-execution time of one request answered by the
    /// MCM engine `label`. Unknown labels are ignored.
    pub fn record_engine(&self, label: &str, elapsed: Duration) {
        if let Some(slot) = ENGINE_LABELS.iter().position(|&l| l == label) {
            self.engine_latency[slot].observe(elapsed);
        }
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

    /// Observations recorded for one engine label (test observability).
    pub fn engine_count(&self, label: &str) -> u64 {
        ENGINE_LABELS
            .iter()
            .position(|&l| l == label)
            .map_or(0, |slot| self.engine_latency[slot].count())
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

    /// Renders everything in the Prometheus text exposition format.
    pub fn render(&self) -> String {
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
        let _ = writeln!(out, "# TYPE lis_cache_hits_total counter");
        let _ = writeln!(
            out,
            "lis_cache_hits_total {}",
            self.cache_hits.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE lis_cache_misses_total counter");
        let _ = writeln!(
            out,
            "lis_cache_misses_total {}",
            self.cache_misses.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE lis_queue_depth gauge");
        let _ = writeln!(
            out,
            "lis_queue_depth {}",
            self.queue_depth.load(Ordering::Relaxed).max(0)
        );
        let _ = writeln!(out, "# TYPE lis_shed_total counter");
        let _ = writeln!(
            out,
            "lis_shed_total {}",
            self.shed_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE lis_timeouts_total counter");
        let _ = writeln!(
            out,
            "lis_timeouts_total {}",
            self.timeouts_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE lis_worker_panics_total counter");
        let _ = writeln!(
            out,
            "lis_worker_panics_total {}",
            self.worker_panics.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE lis_worker_respawns_total counter");
        let _ = writeln!(
            out,
            "lis_worker_respawns_total {}",
            self.worker_respawns.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE lis_faults_injected_total counter");
        let _ = writeln!(
            out,
            "lis_faults_injected_total {}",
            self.faults_injected.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE lis_connections_rejected_total counter");
        let _ = writeln!(
            out,
            "lis_connections_rejected_total {}",
            self.connections_rejected.load(Ordering::Relaxed)
        );
        for (name, kind, cell) in [
            ("lis_store_spills_total", "counter", &self.store_spills),
            (
                "lis_store_disk_hits_total",
                "counter",
                &self.store_disk_hits,
            ),
            (
                "lis_store_warm_loaded_total",
                "counter",
                &self.store_warm_loaded,
            ),
            (
                "lis_store_quarantined_total",
                "counter",
                &self.store_quarantined,
            ),
            (
                "lis_store_gc_evictions_total",
                "counter",
                &self.store_gc_evictions,
            ),
            ("lis_store_entries", "gauge", &self.store_entries),
            ("lis_store_bytes", "gauge", &self.store_bytes),
        ] {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {}", cell.load(Ordering::Relaxed));
        }
        let _ = writeln!(out, "# TYPE lis_schedule_requests_total counter");
        let _ = writeln!(
            out,
            "lis_schedule_requests_total {}",
            self.schedule_requests.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE lis_schedule_burst_requests_total counter");
        let _ = writeln!(
            out,
            "lis_schedule_burst_requests_total {}",
            self.schedule_burst_requests.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE lis_sweep_jobs_total counter");
        let _ = writeln!(
            out,
            "lis_sweep_jobs_total {}",
            self.sweep_jobs.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE lis_sweep_rows_total counter");
        let _ = writeln!(
            out,
            "lis_sweep_rows_total {}",
            self.sweep_rows.load(Ordering::Relaxed)
        );
        if self.sweep_latency.count() > 0 {
            self.sweep_latency.render(&mut out, "lis_sweep_seconds");
        }
        self.net.render_into(&mut out);
        self.threads.render_into(&mut out);
        self.latency.render(&mut out, "lis_request_seconds");
        if self.engine_latency.iter().any(|h| h.count() > 0) {
            let _ = writeln!(out, "# TYPE lis_engine_request_seconds histogram");
            for (slot, label) in ENGINE_LABELS.iter().enumerate() {
                let h = &self.engine_latency[slot];
                if h.count() > 0 {
                    h.render_series(
                        &mut out,
                        "lis_engine_request_seconds",
                        &format!("engine=\"{label}\","),
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
        m.worker_panics.store(3, Ordering::Relaxed);
        m.worker_respawns.store(3, Ordering::Relaxed);
        m.faults_injected.store(7, Ordering::Relaxed);
        m.connections_rejected.store(2, Ordering::Relaxed);
        let text = m.render();
        assert_eq!(parse_metric(&text, "lis_worker_panics_total"), Some(3.0));
        assert_eq!(parse_metric(&text, "lis_worker_respawns_total"), Some(3.0));
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
        m.queue_depth.store(2, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("lis_requests_total{route=\"analyze\",status=\"200\"} 1"));
        assert!(text.contains("lis_cache_hits_total 3"));
        assert!(text.contains("lis_cache_misses_total 1"));
        assert!(text.contains("lis_queue_depth 2"));
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
        let text = m.render();
        assert_eq!(parse_metric(&text, "lis_store_spills_total"), Some(0.0));
        m.store_spills.store(5, Ordering::Relaxed);
        m.store_disk_hits.store(4, Ordering::Relaxed);
        m.store_quarantined.store(1, Ordering::Relaxed);
        m.store_entries.store(5, Ordering::Relaxed);
        m.store_bytes.store(640, Ordering::Relaxed);
        let text = m.render();
        assert_eq!(parse_metric(&text, "lis_store_spills_total"), Some(5.0));
        assert_eq!(parse_metric(&text, "lis_store_disk_hits_total"), Some(4.0));
        assert_eq!(
            parse_metric(&text, "lis_store_quarantined_total"),
            Some(1.0)
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
        let text = m.render();
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
        assert!(!m.render().contains("lis_engine_request_seconds"));
        m.record_engine("howard", Duration::from_micros(40));
        m.record_engine("howard", Duration::from_micros(60));
        m.record_engine("karp", Duration::from_millis(3));
        m.record_engine("unknown", Duration::from_secs(1)); // ignored
        assert_eq!(m.engine_count("howard"), 2);
        assert_eq!(m.engine_count("karp"), 1);
        assert_eq!(m.engine_count("lawler"), 0);
        assert_eq!(m.engine_count("unknown"), 0);
        let text = m.render();
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
        let text = m.render();
        assert_eq!(parse_metric(&text, "lis_sweep_jobs_total"), Some(0.0));
        assert_eq!(parse_metric(&text, "lis_sweep_rows_total"), Some(0.0));
        // An idle server omits the sweep latency histogram entirely.
        assert!(!text.contains("lis_sweep_seconds"));
        m.sweep_jobs.fetch_add(2, Ordering::Relaxed);
        m.sweep_rows.fetch_add(128, Ordering::Relaxed);
        m.sweep_latency.observe(Duration::from_millis(12));
        m.record_request(Route::Sweep, 200, Duration::from_millis(12));
        let text = m.render();
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
        let text = m.render();
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
        let text = m.render();
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
        m.net.observe_depth(1);
        m.net.observe_depth(3);
        m.net.observe_depth(500); // beyond the last bucket → +Inf only
        let text = m.render();
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
