//! The `/metrics` text, byte for byte, for a registry filled with fixed
//! counts: every scalar series, per-route status cells, the request, sweep
//! and per-engine latency histograms, and the event loop's net stats, with
//! a durable store and without one (its series then read 0). The pool, the
//! fault plan and the store are real ones, driven to fixed counts. On a
//! live daemon, `/healthz`'s store fields are the `lis_store_*` series.

use std::fs;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lis_server::store::key_hex;
use lis_server::wire::{obj, Json};
use lis_server::{
    parse_metric, CacheKey, Client, FaultPlan, Metrics, ResultStore, Route, Server, ServerConfig,
    WorkerPool,
};
use marked_graph::McmEngine;

fn registry() -> Metrics {
    let m = Metrics::new();
    for (route, status, micros) in [
        (Route::Analyze, 200, 300),
        (Route::Analyze, 200, 2_000),
        (Route::Analyze, 504, 600_000),
        (Route::Qs, 400, 80),
        (Route::Sweep, 200, 12_000),
        (Route::StoreGet, 200, 40),
        (Route::Other, 404, 1),
        (Route::Other, 429, 5_000_000),
    ] {
        m.record_request(route, status, Duration::from_micros(micros));
    }
    m.cache_hits.store(11, Ordering::Relaxed);
    m.cache_misses.store(12, Ordering::Relaxed);
    m.shed_total.store(13, Ordering::Relaxed);
    m.timeouts_total.store(14, Ordering::Relaxed);
    m.connections_rejected.store(15, Ordering::Relaxed);
    m.schedule_requests.store(16, Ordering::Relaxed);
    m.schedule_burst_requests.store(17, Ordering::Relaxed);
    m.sweep_jobs.store(18, Ordering::Relaxed);
    m.sweep_rows.store(19, Ordering::Relaxed);
    m.sweep_latency.observe(Duration::from_millis(12));
    m.sweep_latency.observe(Duration::from_millis(40));
    m.record_engine(McmEngine::Howard, Duration::from_micros(40));
    m.record_engine(McmEngine::Howard, Duration::from_micros(60));
    m.record_engine(McmEngine::Karp, Duration::from_millis(3));
    m.net.connections_open.store(7, Ordering::Relaxed);
    m.net.wakeups.store(100, Ordering::Relaxed);
    for depth in [1, 3, 500] {
        m.net.pipeline_depth.observe_units(depth);
    }
    m
}

fn wait_until(done: impl Fn() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(started.elapsed() < Duration::from_secs(10), "timed out");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A fault plan with 5 faults injected, and a one-worker pool that has
/// seen 2 of them panic its jobs (2 panics, 2 respawns) and holds 3
/// queued jobs behind a blocked one. Send on the sender to release it.
fn pool_and_plan() -> (WorkerPool, FaultPlan, mpsc::Sender<()>) {
    lis_server::fault::silence_injected_panics();
    let plan = std::sync::Arc::new(FaultPlan::parse("burst:2,truncate:1").expect("plan"));
    for _ in 0..3 {
        plan.write_fault();
    }
    let pool = WorkerPool::new(1, 8);
    for _ in 0..2 {
        let plan = std::sync::Arc::clone(&plan);
        pool.submit(move || plan.maybe_panic()).expect("submit");
    }
    wait_until(|| pool.panics() == 2 && pool.respawns() == 2);
    let (release, blocked) = mpsc::channel::<()>();
    pool.submit(move || blocked.recv().expect("release"))
        .expect("submit");
    wait_until(|| pool.queue_depth() == 0);
    for _ in 0..3 {
        pool.submit(|| {}).expect("submit");
    }
    let plan = std::sync::Arc::try_unwrap(plan).expect("the jobs are done");
    (pool, plan, release)
}

fn render(store: Option<&ResultStore>) -> String {
    let (pool, plan, release) = pool_and_plan();
    let m = registry();
    let text = m.render(&m.readings(&pool, Some(&plan), store));
    release.send(()).expect("release");
    pool.drain();
    text
}

fn key(system: u64) -> CacheKey {
    CacheKey { system, request: 0 }
}

/// Overwrites the entry file of `key` under `dir`, wherever it shards.
fn tamper(dir: &Path, key: CacheKey) {
    let name = key_hex(key);
    for shard in fs::read_dir(dir.join("entries")).expect("entries") {
        let path = shard.expect("shard").path().join(&name);
        if path.exists() {
            fs::write(path, b"tampered!!").expect("tamper");
            return;
        }
    }
    panic!("no entry file for {name}");
}

#[test]
fn exposition_without_a_store_renders_the_store_series_as_zero() {
    assert_eq!(render(None), EXPECTED);
}

#[test]
fn exposition_with_a_store_renders_its_counts() {
    let dir = std::env::temp_dir().join(format!("lis-metrics-exposition-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    // 7 spills into 5 slots: 2 evictions; one tampered entry quarantined
    // on read leaves 4 entries of 10 bytes; 3 disk hits; two warm loads
    // of the 4 count 8.
    let store = ResultStore::open(&dir, 5).expect("open");
    for system in 1..=7 {
        store
            .insert(key(system), 200, b"0123456789")
            .expect("insert");
    }
    tamper(&dir, key(7));
    assert!(store.get(key(7)).is_none());
    for _ in 0..3 {
        assert!(store.get(key(3)).is_some());
    }
    assert_eq!(store.warm_entries().len() + store.warm_entries().len(), 8);
    let text = render(Some(&store));
    drop(store);
    let _ = fs::remove_dir_all(&dir);
    assert!(EXPECTED.contains(NO_STORE));
    assert_eq!(text, EXPECTED.replace(NO_STORE, STORE));
}

/// Runs a daemon on the store at `dir`, hands `drive` a client, and shuts
/// it down (which lands every pending spill).
fn with_daemon(dir: &Path, drive: impl FnOnce(&mut Client)) {
    let config = ServerConfig {
        workers: 1,
        store_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    drive(&mut client);
    assert_eq!(client.shutdown().expect("shutdown"), 200);
    daemon.join().expect("daemon thread").expect("clean exit");
}

fn analyze(client: &mut Client, netlist: &str) {
    let body = obj([("netlist", Json::str(netlist))]).to_string();
    let response = client
        .request("POST", "/analyze", body.as_bytes())
        .expect("analyze");
    assert_eq!(response.status, 200);
}

#[test]
fn healthz_store_fields_equal_the_store_series_on_a_live_daemon() {
    let dir = std::env::temp_dir().join(format!("lis-metrics-healthz-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let ring = "block A\nblock B\nblock C\nchannel A -> B rs=2\nchannel B -> C\nchannel C -> A\n";
    let fig1 = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";
    let pipe = "block A\nblock B\nchannel A -> B\n";
    // The first daemon spills two answers; the second warm-loads them and
    // spills a third.
    with_daemon(&dir, |client| {
        analyze(client, ring);
        analyze(client, fig1);
    });
    with_daemon(&dir, |client| {
        analyze(client, pipe);
        let mut health = || {
            let response = client.request("GET", "/healthz", b"").expect("healthz");
            Json::parse(std::str::from_utf8(&response.body).expect("utf-8")).expect("json")
        };
        let started = Instant::now();
        while health().get("store_pending_spills").and_then(Json::as_u64) != Some(0)
            || health().get("store_spills").and_then(Json::as_u64) != Some(1)
        {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "spill never landed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let health = health();
        let exposition = client.metrics().expect("metrics");
        for (field, series, want) in [
            ("store_entries", "lis_store_entries", 3),
            ("store_spills", "lis_store_spills_total", 1),
            ("store_warm_loaded", "lis_store_warm_loaded_total", 2),
            ("store_quarantined", "lis_store_quarantined_total", 0),
        ] {
            let field = health.get(field).and_then(Json::as_u64).expect(field);
            assert_eq!(field, want, "{series}");
            assert_eq!(
                parse_metric(&exposition, series),
                Some(want as f64),
                "{series}"
            );
        }
        let bytes = health
            .get("store_bytes")
            .and_then(Json::as_u64)
            .expect("bytes");
        assert!(bytes > 0);
        assert_eq!(
            parse_metric(&exposition, "lis_store_bytes"),
            Some(bytes as f64)
        );
    });
    let _ = fs::remove_dir_all(&dir);
}

const NO_STORE: &str = "\
# TYPE lis_store_spills_total counter
lis_store_spills_total 0
# TYPE lis_store_disk_hits_total counter
lis_store_disk_hits_total 0
# TYPE lis_store_warm_loaded_total counter
lis_store_warm_loaded_total 0
# TYPE lis_store_quarantined_total counter
lis_store_quarantined_total 0
# TYPE lis_store_gc_evictions_total counter
lis_store_gc_evictions_total 0
# TYPE lis_store_entries gauge
lis_store_entries 0
# TYPE lis_store_bytes gauge
lis_store_bytes 0
";

const STORE: &str = "\
# TYPE lis_store_spills_total counter
lis_store_spills_total 7
# TYPE lis_store_disk_hits_total counter
lis_store_disk_hits_total 3
# TYPE lis_store_warm_loaded_total counter
lis_store_warm_loaded_total 8
# TYPE lis_store_quarantined_total counter
lis_store_quarantined_total 1
# TYPE lis_store_gc_evictions_total counter
lis_store_gc_evictions_total 2
# TYPE lis_store_entries gauge
lis_store_entries 4
# TYPE lis_store_bytes gauge
lis_store_bytes 40
";

const EXPECTED: &str = "\
# TYPE lis_requests_total counter
lis_requests_total{route=\"analyze\",status=\"200\"} 2
lis_requests_total{route=\"analyze\",status=\"504\"} 1
lis_requests_total{route=\"qs\",status=\"400\"} 1
lis_requests_total{route=\"sweep\",status=\"200\"} 1
lis_requests_total{route=\"store\",status=\"200\"} 1
lis_requests_total{route=\"other\",status=\"404\"} 1
lis_requests_total{route=\"other\",status=\"429\"} 1
# TYPE lis_cache_hits_total counter
lis_cache_hits_total 11
# TYPE lis_cache_misses_total counter
lis_cache_misses_total 12
# TYPE lis_queue_depth gauge
lis_queue_depth 3
# TYPE lis_shed_total counter
lis_shed_total 13
# TYPE lis_timeouts_total counter
lis_timeouts_total 14
# TYPE lis_worker_panics_total counter
lis_worker_panics_total 2
# TYPE lis_worker_respawns_total counter
lis_worker_respawns_total 2
# TYPE lis_faults_injected_total counter
lis_faults_injected_total 5
# TYPE lis_connections_rejected_total counter
lis_connections_rejected_total 15
# TYPE lis_store_spills_total counter
lis_store_spills_total 0
# TYPE lis_store_disk_hits_total counter
lis_store_disk_hits_total 0
# TYPE lis_store_warm_loaded_total counter
lis_store_warm_loaded_total 0
# TYPE lis_store_quarantined_total counter
lis_store_quarantined_total 0
# TYPE lis_store_gc_evictions_total counter
lis_store_gc_evictions_total 0
# TYPE lis_store_entries gauge
lis_store_entries 0
# TYPE lis_store_bytes gauge
lis_store_bytes 0
# TYPE lis_schedule_requests_total counter
lis_schedule_requests_total 16
# TYPE lis_schedule_burst_requests_total counter
lis_schedule_burst_requests_total 17
# TYPE lis_sweep_jobs_total counter
lis_sweep_jobs_total 18
# TYPE lis_sweep_rows_total counter
lis_sweep_rows_total 19
# TYPE lis_sweep_seconds histogram
lis_sweep_seconds_bucket{le=\"0.00005\"} 0
lis_sweep_seconds_bucket{le=\"0.0001\"} 0
lis_sweep_seconds_bucket{le=\"0.00025\"} 0
lis_sweep_seconds_bucket{le=\"0.0005\"} 0
lis_sweep_seconds_bucket{le=\"0.001\"} 0
lis_sweep_seconds_bucket{le=\"0.0025\"} 0
lis_sweep_seconds_bucket{le=\"0.005\"} 0
lis_sweep_seconds_bucket{le=\"0.01\"} 0
lis_sweep_seconds_bucket{le=\"0.025\"} 1
lis_sweep_seconds_bucket{le=\"0.05\"} 2
lis_sweep_seconds_bucket{le=\"0.1\"} 2
lis_sweep_seconds_bucket{le=\"0.25\"} 2
lis_sweep_seconds_bucket{le=\"0.5\"} 2
lis_sweep_seconds_bucket{le=\"1\"} 2
lis_sweep_seconds_bucket{le=\"+Inf\"} 2
lis_sweep_seconds_sum 0.052
lis_sweep_seconds_count 2
# TYPE lis_net_connections_open gauge
lis_net_connections_open 7
# TYPE lis_net_readiness_wakeups_total counter
lis_net_readiness_wakeups_total 100
# TYPE lis_net_pipeline_depth histogram
lis_net_pipeline_depth_bucket{le=\"1\"} 1
lis_net_pipeline_depth_bucket{le=\"2\"} 1
lis_net_pipeline_depth_bucket{le=\"4\"} 2
lis_net_pipeline_depth_bucket{le=\"8\"} 2
lis_net_pipeline_depth_bucket{le=\"16\"} 2
lis_net_pipeline_depth_bucket{le=\"32\"} 2
lis_net_pipeline_depth_bucket{le=\"64\"} 2
lis_net_pipeline_depth_bucket{le=\"128\"} 2
lis_net_pipeline_depth_bucket{le=\"+Inf\"} 3
lis_net_pipeline_depth_sum 504
lis_net_pipeline_depth_count 3
# TYPE lis_thread_cpu_seconds_total counter
lis_thread_cpu_seconds_total{role=\"loop\"} 0
lis_thread_cpu_seconds_total{role=\"worker\"} 0
lis_thread_cpu_seconds_total{role=\"spiller\"} 0
# TYPE lis_request_seconds histogram
lis_request_seconds_bucket{le=\"0.00005\"} 2
lis_request_seconds_bucket{le=\"0.0001\"} 3
lis_request_seconds_bucket{le=\"0.00025\"} 3
lis_request_seconds_bucket{le=\"0.0005\"} 4
lis_request_seconds_bucket{le=\"0.001\"} 4
lis_request_seconds_bucket{le=\"0.0025\"} 5
lis_request_seconds_bucket{le=\"0.005\"} 5
lis_request_seconds_bucket{le=\"0.01\"} 5
lis_request_seconds_bucket{le=\"0.025\"} 6
lis_request_seconds_bucket{le=\"0.05\"} 6
lis_request_seconds_bucket{le=\"0.1\"} 6
lis_request_seconds_bucket{le=\"0.25\"} 6
lis_request_seconds_bucket{le=\"0.5\"} 6
lis_request_seconds_bucket{le=\"1\"} 7
lis_request_seconds_bucket{le=\"+Inf\"} 8
lis_request_seconds_sum 5.614421
lis_request_seconds_count 8
# TYPE lis_engine_request_seconds histogram
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.00005\"} 1
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.0001\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.00025\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.0005\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.001\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.0025\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.005\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.01\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.025\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.05\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.1\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.25\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"0.5\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"1\"} 2
lis_engine_request_seconds_bucket{engine=\"howard\",le=\"+Inf\"} 2
lis_engine_request_seconds_sum{engine=\"howard\"} 0.0001
lis_engine_request_seconds_count{engine=\"howard\"} 2
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.00005\"} 0
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.0001\"} 0
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.00025\"} 0
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.0005\"} 0
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.001\"} 0
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.0025\"} 0
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.005\"} 1
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.01\"} 1
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.025\"} 1
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.05\"} 1
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.1\"} 1
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.25\"} 1
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"0.5\"} 1
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"1\"} 1
lis_engine_request_seconds_bucket{engine=\"karp\",le=\"+Inf\"} 1
lis_engine_request_seconds_sum{engine=\"karp\"} 0.003
lis_engine_request_seconds_count{engine=\"karp\"} 1
";
