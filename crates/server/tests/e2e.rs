//! End-to-end daemon tests over real TCP sockets on ephemeral ports:
//! analyze/qs round trips, byte-identical cached repeats, the typed
//! overload-shed and timeout paths, and graceful drain on shutdown.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lis_server::wire::{obj, Json};
use lis_server::{parse_metric, Client, FaultPlan, Server, ServerConfig};

const FIG1: &str = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";

fn start(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    JoinHandle<std::io::Result<lis_server::DrainReport>>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn stop(addr: std::net::SocketAddr, daemon: JoinHandle<std::io::Result<lis_server::DrainReport>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    assert_eq!(client.shutdown().expect("shutdown request"), 200);
    daemon.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn analyze_and_qs_round_trip_with_byte_identical_cached_repeats() {
    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // First analyze: a miss that computes the Fig. 1 numbers.
    let first = client
        .request(
            "POST",
            "/analyze",
            obj([("netlist", Json::str(FIG1))]).to_string().as_bytes(),
        )
        .expect("analyze");
    assert_eq!(first.status, 200);
    let parsed = Json::parse(std::str::from_utf8(&first.body).unwrap()).expect("json body");
    assert_eq!(
        parsed
            .get("practical_mst")
            .unwrap()
            .get("num")
            .unwrap()
            .as_u64(),
        Some(2)
    );
    assert_eq!(
        parsed
            .get("practical_mst")
            .unwrap()
            .get("den")
            .unwrap()
            .as_u64(),
        Some(3)
    );

    // Repeat the same query (different textual formatting of the same
    // system, and from a fresh connection): must be a cache hit with a
    // byte-identical body.
    let noisy = "# same Fig. 1 system\nblock \"A\"\nblock B\n\
                 channel A -> B rs=1 q=1\nchannel  A  ->  B\n";
    let mut other = Client::connect(addr).expect("second connection");
    for _ in 0..3 {
        let repeat = other
            .request(
                "POST",
                "/analyze",
                obj([("netlist", Json::str(noisy))]).to_string().as_bytes(),
            )
            .expect("cached analyze");
        assert_eq!(repeat.status, 200);
        assert_eq!(
            repeat.body, first.body,
            "cached body must be byte-identical"
        );
    }

    // qs (exact) round trip, twice: second is a hit, byte-identical.
    let qs_options = obj([("exact", Json::Bool(true))]);
    let (status, qs_first) = client.analysis("qs", FIG1, qs_options.clone()).expect("qs");
    assert_eq!(status, 200);
    assert_eq!(qs_first.get("total_extra").unwrap().as_u64(), Some(1));
    let (_, qs_second) = client.analysis("qs", FIG1, qs_options).expect("qs repeat");
    assert_eq!(qs_first.to_string(), qs_second.to_string());

    // The hit counter must reflect the repeats.
    let exposition = client.metrics().expect("metrics");
    let hits = parse_metric(&exposition, "lis_cache_hits_total").expect("hits metric");
    let misses = parse_metric(&exposition, "lis_cache_misses_total").expect("misses metric");
    assert!(hits >= 4.0, "expected >= 4 cache hits, saw {hits}");
    assert!(misses >= 2.0, "expected >= 2 misses, saw {misses}");
    assert!(exposition.contains("lis_requests_total{route=\"analyze\",status=\"200\"}"));
    assert!(exposition.contains("lis_request_seconds_bucket{le=\"+Inf\"}"));
    assert!(exposition.contains("lis_queue_depth"));
    // Analysis latency is labeled with the (default) engine; cache hits do
    // not add observations, so exactly the two misses are counted.
    assert!(exposition.contains("lis_engine_request_seconds_count{engine=\"howard\"} 2"));

    stop(addr, daemon);
}

#[test]
fn engine_option_selects_the_engine_and_separates_the_cache() {
    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let mut means = Vec::new();
    for engine in ["howard", "karp", "lawler"] {
        let (status, body) = client
            .analysis("analyze", FIG1, obj([("engine", Json::str(engine))]))
            .expect("analyze with engine");
        assert_eq!(status, 200, "engine {engine}");
        assert_eq!(body.get("engine").unwrap().as_str(), Some(engine));
        let practical = body.get("practical_mst").unwrap();
        means.push((
            practical.get("num").unwrap().as_u64(),
            practical.get("den").unwrap().as_u64(),
        ));
    }
    assert!(
        means.iter().all(|&m| m == (Some(2), Some(3))),
        "every engine must report the Fig. 1 practical MST, saw {means:?}"
    );

    // Each engine was a distinct cache entry (no cross-engine hits) and
    // recorded one observation in its own latency series.
    let exposition = client.metrics().expect("metrics");
    let misses = parse_metric(&exposition, "lis_cache_misses_total").expect("misses metric");
    assert!(misses >= 3.0, "expected >= 3 misses, saw {misses}");
    for engine in ["howard", "karp", "lawler"] {
        assert!(
            exposition.contains(&format!(
                "lis_engine_request_seconds_count{{engine=\"{engine}\"}} 1"
            )),
            "missing latency series for {engine}"
        );
    }

    // Unknown engines are a client error, not a crash.
    let (status, body) = client
        .analysis("analyze", FIG1, obj([("engine", Json::str("dijkstra"))]))
        .expect("bad engine request");
    assert_eq!(status, 400);
    assert!(body
        .get("error")
        .unwrap()
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown MCM engine"));

    stop(addr, daemon);
}

#[test]
fn parse_errors_answer_400_with_the_offending_line() {
    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let (status, body) = client
        .analysis("analyze", "block A\nblok B\n", Json::Null)
        .expect("bad netlist request");
    assert_eq!(status, 400);
    let error = body.get("error").expect("error object");
    assert_eq!(error.get("kind").unwrap().as_str(), Some("parse_error"));
    assert_eq!(error.get("line").unwrap().as_u64(), Some(2));
    assert!(error
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("netlist line 2"));
    stop(addr, daemon);
}

#[test]
fn unknown_routes_and_methods_get_typed_errors() {
    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let missing = client.request("POST", "/frobnicate", b"{}").expect("404");
    assert_eq!(missing.status, 404);
    let wrong_method = client.request("GET", "/analyze", b"").expect("405");
    assert_eq!(wrong_method.status, 405);
    let bad_json = client
        .request("POST", "/analyze", b"not json")
        .expect("400");
    assert_eq!(bad_json.status, 400);
    let health = client.request("GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200);
    stop(addr, daemon);
}

#[test]
fn overload_sheds_with_a_typed_503_instead_of_hanging() {
    // One slow worker, one queue slot: concurrent cache-missing requests
    // must shed. The artificial job delay makes the race deterministic.
    let (addr, daemon) = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        request_timeout: Duration::from_secs(30),
        cache_capacity: 1024,
        faults: Some(Arc::new(FaultPlan::parse("job_delay:300ms").expect("spec"))),
        ..ServerConfig::default()
    });

    // Distinct netlists so every request is a cache miss.
    let netlist = |i: usize| {
        format!(
            "block A\nblock B\nchannel A -> B rs={}\nchannel A -> B\n",
            i + 1
        )
    };
    let results: Vec<(u16, Json)> = {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let text = netlist(i);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .analysis("analyze", &text, Json::Null)
                        .expect("request completes")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    };
    let ok = results.iter().filter(|(s, _)| *s == 200).count();
    let shed: Vec<&Json> = results
        .iter()
        .filter(|(s, _)| *s == 503)
        .map(|(_, b)| b)
        .collect();
    assert!(ok >= 1, "at least the in-flight request must succeed");
    assert!(
        !shed.is_empty(),
        "six concurrent jobs on a 1+1 pool must shed"
    );
    for body in shed {
        let error = body.get("error").expect("typed 503 body");
        assert_eq!(error.get("kind").unwrap().as_str(), Some("overloaded"));
        assert_eq!(error.get("queue_capacity").unwrap().as_u64(), Some(1));
    }

    let mut client = Client::connect(addr).expect("connect");
    let exposition = client.metrics().expect("metrics");
    assert!(parse_metric(&exposition, "lis_shed_total").expect("shed metric") >= 1.0);
    stop(addr, daemon);
}

#[test]
fn slow_jobs_hit_the_typed_timeout() {
    let (addr, daemon) = start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        request_timeout: Duration::from_millis(100),
        cache_capacity: 1024,
        faults: Some(Arc::new(FaultPlan::parse("job_delay:600ms").expect("spec"))),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let (status, body) = client
        .analysis("analyze", FIG1, Json::Null)
        .expect("timed-out request still answers");
    assert_eq!(status, 504);
    let error = body.get("error").expect("typed timeout body");
    assert_eq!(error.get("kind").unwrap().as_str(), Some("timeout"));
    assert_eq!(error.get("timeout_ms").unwrap().as_u64(), Some(100));

    // The worker finishes in the background and caches the result: after
    // the delay, the same query is a sub-deadline cache hit.
    std::thread::sleep(Duration::from_millis(800));
    let (status, body) = client
        .analysis("analyze", FIG1, Json::Null)
        .expect("cached retry");
    assert_eq!(status, 200, "timed-out work should still land in the cache");
    assert_eq!(body.get("degraded").unwrap().as_bool(), Some(true));
    stop(addr, daemon);
}

#[test]
fn shutdown_drains_queued_work_before_exit() {
    let (addr, daemon) = start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        request_timeout: Duration::from_secs(30),
        cache_capacity: 1024,
        faults: Some(Arc::new(FaultPlan::parse("job_delay:200ms").expect("spec"))),
        ..ServerConfig::default()
    });

    // Park several jobs on the single worker, then shut down mid-flight.
    let inflight: Vec<_> = (0..3)
        .map(|i| {
            let text = format!("block A\nblock B\nchannel A -> B rs={}\n", i + 1);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .analysis("analyze", &text, Json::Null)
                    .expect("answered")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let mut admin = Client::connect(addr).expect("admin connect");
    assert_eq!(admin.shutdown().expect("shutdown"), 200);

    // Every request that was accepted before the shutdown must still get
    // its real answer: drain, don't drop.
    for h in inflight {
        let (status, _body) = h.join().expect("client thread");
        assert!(
            status == 200 || status == 503,
            "in-flight request got unexpected status {status}"
        );
    }
    daemon.join().expect("daemon thread").expect("clean exit");

    // The daemon is gone: new connections must fail (the listener closed).
    std::thread::sleep(Duration::from_millis(50));
    let refused = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(
        refused.is_err() || {
            // Some OSes accept briefly into a dead backlog; a request on
            // such a socket must then fail.
            let mut c = Client::connect(addr).expect("backlog connect");
            c.request("GET", "/healthz", b"").is_err()
        },
        "daemon still serving after shutdown"
    );
}

#[test]
fn a_batch_queued_before_shutdown_answers_a_typed_503() {
    let (addr, daemon) = start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        request_timeout: Duration::from_secs(30),
        cache_capacity: 1024,
        faults: Some(Arc::new(FaultPlan::parse("job_delay:300ms").expect("spec"))),
        ..ServerConfig::default()
    });

    // A slow analysis holds the only worker, so the batch waits in the
    // queue while `/shutdown` arrives; the batch job then refuses itself.
    let busy = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .analysis("analyze", FIG1, Json::Null)
            .expect("answered")
            .0
    });
    std::thread::sleep(Duration::from_millis(50));
    let queued = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let line = obj([
            ("route", Json::str("analyze")),
            ("netlist", Json::str(FIG1)),
        ]);
        client
            .request("POST", "/batch", format!("{line}\n").as_bytes())
            .expect("answered")
    });
    std::thread::sleep(Duration::from_millis(50));
    let mut admin = Client::connect(addr).expect("admin connect");
    assert_eq!(admin.shutdown().expect("shutdown"), 200);

    assert_eq!(busy.join().expect("client thread"), 200);
    let batch = queued.join().expect("client thread");
    assert_eq!(batch.status, 503);
    let body = Json::parse(std::str::from_utf8(&batch.body).unwrap()).expect("json body");
    let error = body.get("error").expect("typed 503 body");
    assert_eq!(error.get("kind").unwrap().as_str(), Some("shutting_down"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn concurrent_clients_hammering_the_cache_agree_bytewise() {
    let (addr, daemon) = start(ServerConfig::default());
    let bodies: Vec<Vec<u8>> = {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut out = Vec::new();
                    for _ in 0..20 {
                        let resp = client
                            .request(
                                "POST",
                                "/qs",
                                obj([("netlist", Json::str(FIG1))]).to_string().as_bytes(),
                            )
                            .expect("qs");
                        assert_eq!(resp.status, 200);
                        out.push(resp.body);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client"))
            .collect()
    };
    let first = Arc::new(bodies[0].clone());
    for body in &bodies {
        assert_eq!(body, first.as_ref(), "responses diverged across clients");
    }
    let mut client = Client::connect(addr).expect("connect");
    let exposition = client.metrics().expect("metrics");
    let hits = parse_metric(&exposition, "lis_cache_hits_total").expect("hits");
    assert!(hits >= 150.0, "160 repeats should mostly hit, saw {hits}");
    stop(addr, daemon);
}

#[test]
fn healthz_reports_readiness_fields() {
    let (addr, daemon) = start(ServerConfig {
        workers: 2,
        queue_capacity: 17,
        cache_capacity: 99,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    // Populate the cache with one entry, then probe.
    let resp = client
        .request(
            "POST",
            "/analyze",
            obj([("netlist", Json::str(FIG1))]).to_string().as_bytes(),
        )
        .expect("analyze");
    assert_eq!(resp.status, 200);

    let health = client.request("GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200);
    let body = Json::parse(std::str::from_utf8(&health.body).unwrap()).expect("json");
    assert_eq!(body.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(body.get("role").unwrap().as_str(), Some("server"));
    assert_eq!(body.get("engine").unwrap().as_str(), Some("howard"));
    assert_eq!(body.get("workers").unwrap().as_u64(), Some(2));
    assert_eq!(body.get("queue_capacity").unwrap().as_u64(), Some(17));
    assert_eq!(body.get("cache_entries").unwrap().as_u64(), Some(1));
    assert_eq!(body.get("cache_capacity").unwrap().as_u64(), Some(99));
    assert_eq!(body.get("draining").unwrap().as_bool(), Some(false));
    assert!(body.get("queue_depth").unwrap().as_u64().is_some());
    assert!(body.get("uptime_ms").unwrap().as_u64().is_some());
    stop(addr, daemon);
}

/// Splits a `/sweep` NDJSON body into (header, rows, trailer).
fn parse_sweep_body(body: &[u8]) -> (Json, Vec<(String, Json)>, Json) {
    let text = std::str::from_utf8(body).expect("utf-8 ndjson");
    let mut lines = text.lines();
    let header = Json::parse(lines.next().expect("header line")).expect("header json");
    let points = header.get("points").unwrap().as_u64().expect("points") as usize;
    let rows: Vec<(String, Json)> = (0..points)
        .map(|i| {
            let line = lines.next().unwrap_or_else(|| panic!("row line {i}"));
            (line.to_string(), Json::parse(line).expect("row json"))
        })
        .collect();
    let trailer = Json::parse(lines.next().expect("trailer line")).expect("trailer json");
    assert_eq!(trailer.get("done").unwrap().as_bool(), Some(true));
    assert!(lines.next().is_none(), "stream ends after the trailer");
    (header, rows, trailer)
}

/// Rebuilds the netlist a single-shot client would post to reproduce one
/// sweep row: the base system with the row's stations and capacities
/// applied.
fn row_netlist(base: &str, row: &Json) -> String {
    let mut sys = lis_core::parse_netlist(base).expect("base netlist");
    if let Some(Json::Arr(stations)) = row.get("stations") {
        for s in stations {
            let idx = s.get("channel").unwrap().as_u64().expect("channel") as usize;
            let add = s.get("add").unwrap().as_u64().expect("add");
            let c = sys.channel_ids().nth(idx).expect("station channel");
            for _ in 0..add {
                sys.add_relay_station(c);
            }
        }
    }
    if let Some(Json::Arr(caps)) = row.get("capacities") {
        for cap in caps {
            let idx = cap.get("channel").unwrap().as_u64().expect("channel") as usize;
            let q = cap.get("capacity").unwrap().as_u64().expect("capacity");
            let c = sys.channel_ids().nth(idx).expect("capacity channel");
            sys.set_queue_capacity(c, q).expect("set capacity");
        }
    }
    lis_core::to_netlist(&sys)
}

/// The headline property of the sweep subsystem: an N-point `/sweep` is
/// byte-identical to N individual `/analyze` round trips over the
/// reconstructed per-point netlists, and the whole stream is identical at
/// any worker-pool size.
#[test]
fn sweep_grid_matches_individual_round_trips_at_any_thread_count() {
    let grid = obj([
        (
            "capacities",
            Json::Arr(vec![obj([
                ("channel", Json::Num(1.0)),
                (
                    "values",
                    Json::Arr((1..=4).map(|v| Json::Num(v as f64)).collect()),
                ),
            ])]),
        ),
        ("budget", Json::Num(2.0)),
    ]);

    // Each run gets a fresh daemon (fresh cache) with a different
    // worker-pool size.
    let run = |workers: usize| -> Vec<u8> {
        let (addr, daemon) = start(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(addr).expect("connect");
        let (status, body) = client.sweep(FIG1, grid.clone()).expect("sweep");
        assert_eq!(status, 200);

        // Property: every streamed row equals the one-shot answer.
        let (header, rows, trailer) = parse_sweep_body(&body);
        assert_eq!(header.get("mode").unwrap().as_str(), Some("analyze"));
        assert_eq!(
            rows.len(),
            8,
            "4 capacities x 3 station groups minus dominated"
        );
        for (i, (_, row)) in rows.iter().enumerate() {
            assert_eq!(row.get("point").unwrap().as_u64(), Some(i as u64));
            let netlist = row_netlist(FIG1, row);
            let resp = client
                .request(
                    "POST",
                    "/analyze",
                    obj([("netlist", Json::str(netlist))])
                        .to_string()
                        .as_bytes(),
                )
                .expect("individual analyze");
            assert_eq!(resp.status, 200);
            assert_eq!(
                row.get("result").unwrap().to_string(),
                String::from_utf8_lossy(&resp.body),
                "row {i} diverged from its single-shot round trip"
            );
        }
        assert!(
            !matches!(trailer.get("pareto"), Some(Json::Arr(p)) if p.is_empty()),
            "a degraded grid has a non-empty Pareto front"
        );

        stop(addr, daemon);
        body
    };

    let serial = run(1);
    let parallel = run(8);
    assert_eq!(
        serial, parallel,
        "sweep stream must be byte-identical at any --threads"
    );
}

#[test]
fn sweep_repeats_replay_from_cache_and_are_observable() {
    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let grid = obj([(
        "capacities",
        Json::Arr(vec![obj([
            ("channel", Json::Num(1.0)),
            ("values", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
        ])]),
    )]);

    let (status, first) = client.sweep(FIG1, grid.clone()).expect("sweep");
    assert_eq!(status, 200);
    // The repeat is a cache hit replayed with Content-Length framing; the
    // body bytes must not change.
    let (status, second) = client.sweep(FIG1, grid).expect("cached sweep");
    assert_eq!(status, 200);
    assert_eq!(first, second, "cached sweep replay must be byte-identical");
    let (_, rows, _) = parse_sweep_body(&first);
    let points = rows.len() as f64;

    let exposition = client.metrics().expect("metrics");
    let jobs = parse_metric(&exposition, "lis_sweep_jobs_total").expect("jobs metric");
    let streamed = parse_metric(&exposition, "lis_sweep_rows_total").expect("rows metric");
    assert_eq!(jobs, 2.0, "one computed + one replayed sweep");
    assert_eq!(streamed, 2.0 * points);
    assert!(exposition.contains("lis_sweep_seconds_bucket{le=\"+Inf\"}"));

    let health = client.request("GET", "/healthz", b"").expect("healthz");
    let body = Json::parse(std::str::from_utf8(&health.body).unwrap()).expect("json");
    assert_eq!(body.get("sweeps_in_flight").unwrap().as_u64(), Some(0));
    assert_eq!(
        body.get("sweep_rows_streamed").unwrap().as_u64(),
        Some(2 * rows.len() as u64)
    );
    stop(addr, daemon);
}

#[test]
fn request_id_header_is_echoed_and_absent_when_not_sent() {
    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let body = obj([("netlist", Json::str(FIG1))]).to_string();

    let tagged = client
        .request_with(
            "POST",
            "/analyze",
            &[("X-LIS-Request-Id", "corr-7")],
            body.as_bytes(),
        )
        .expect("tagged analyze");
    assert_eq!(tagged.status, 200);
    assert_eq!(tagged.header("x-lis-request-id"), Some("corr-7"));

    // Control-plane routes echo it too.
    let health = client
        .request_with("GET", "/healthz", &[("X-LIS-Request-Id", "corr-8")], b"")
        .expect("tagged healthz");
    assert_eq!(health.header("x-lis-request-id"), Some("corr-8"));

    // No id supplied: no header invented.
    let untagged = client
        .request("POST", "/analyze", body.as_bytes())
        .expect("untagged analyze");
    assert_eq!(untagged.header("x-lis-request-id"), None);

    // Error responses carry the id as well (it is how failures correlate).
    let bad = client
        .request_with(
            "POST",
            "/analyze",
            &[("X-LIS-Request-Id", "corr-9")],
            b"not json",
        )
        .expect("tagged 400");
    assert_eq!(bad.status, 400);
    assert_eq!(bad.header("x-lis-request-id"), Some("corr-9"));
    stop(addr, daemon);
}

#[test]
fn analyze_bodies_are_pinned_for_a_degraded_and_a_non_degraded_design() {
    // Literal bodies: `/analyze` answers from one doubled model and one
    // solve, skipping cycle and bottleneck extraction when nothing is
    // degraded, but the answer bytes must not change under any engine.
    const FIG1_ANALYZE: &str = r#"{"blocks":2,"channels":2,"relay_stations":1,"topology_class":"general","engine":"howard","ideal_mst":{"num":1,"den":1},"practical_mst":{"num":2,"den":3},"degraded":true,"critical_cycle":"A* -> rs1(A->B) -> B","bottleneck_queues":[{"channel":1,"from":"A","to":"B"}]}"#;
    const RING300_ANALYZE: &str = r#"{"blocks":300,"channels":300,"relay_stations":2,"topology_class":"scc_no_reconvergence","engine":"howard","ideal_mst":{"num":150,"den":151},"practical_mst":{"num":150,"den":151},"degraded":false,"critical_cycle":null,"bottleneck_queues":[]}"#;

    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let ring = ring_netlist(300);
    for (netlist, pinned) in [(FIG1, FIG1_ANALYZE), (ring.as_str(), RING300_ANALYZE)] {
        for engine in ["howard", "karp", "lawler"] {
            let body = obj([
                ("netlist", Json::str(netlist)),
                ("options", obj([("engine", Json::str(engine))])),
            ]);
            let resp = client
                .request("POST", "/analyze", body.to_string().as_bytes())
                .expect("analyze");
            assert_eq!(resp.status, 200);
            let expected =
                pinned.replace(r#""engine":"howard""#, &format!(r#""engine":"{engine}""#));
            assert_eq!(
                std::str::from_utf8(&resp.body).unwrap(),
                expected,
                "engine={engine}"
            );
        }
    }
    stop(addr, daemon);
}

/// A ring of `n` blocks with one relay station on each of two channels:
/// non-degraded (a ring has no reconvergent paths), like the `cold-solve`
/// benchmark's ring family.
fn ring_netlist(n: usize) -> String {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!("block r{i}\n"));
    }
    for i in 0..n {
        let rs = if i == 0 || i == n / 2 { " rs=1" } else { "" };
        text.push_str(&format!("channel r{i} -> r{}{rs}\n", (i + 1) % n));
    }
    text
}

#[test]
fn qs_bodies_are_pinned_for_a_degraded_and_a_non_degraded_design() {
    // Literal bodies: queue sizing may take a shortcut on non-degraded
    // designs, but the answer bytes must not change.
    const FIG1_HEURISTIC: &str = r#"{"engine":"howard","target_mst":{"num":1,"den":1},"practical_before":{"num":2,"den":3},"total_extra":1,"optimal":false,"deficient_cycles":1,"extra_tokens":[{"channel":1,"from":"A","to":"B","extra_slots":1,"new_capacity":2}]}"#;
    const FIG1_EXACT: &str = r#"{"engine":"howard","target_mst":{"num":1,"den":1},"practical_before":{"num":2,"den":3},"total_extra":1,"optimal":true,"deficient_cycles":1,"extra_tokens":[{"channel":1,"from":"A","to":"B","extra_slots":1,"new_capacity":2}]}"#;
    const RING300: &str = r#"{"engine":"howard","target_mst":{"num":150,"den":151},"practical_before":{"num":150,"den":151},"total_extra":0,"optimal":true,"deficient_cycles":0,"extra_tokens":[]}"#;

    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let ring = ring_netlist(300);
    let cases = [
        (FIG1, false, FIG1_HEURISTIC),
        (FIG1, true, FIG1_EXACT),
        (ring.as_str(), false, RING300),
        (ring.as_str(), true, RING300),
    ];
    for (netlist, exact, expected) in cases {
        let body = obj([
            ("netlist", Json::str(netlist)),
            ("options", obj([("exact", Json::Bool(exact))])),
        ]);
        let resp = client
            .request("POST", "/qs", body.to_string().as_bytes())
            .expect("qs");
        assert_eq!(resp.status, 200);
        assert_eq!(
            std::str::from_utf8(&resp.body).unwrap(),
            expected,
            "exact={exact}"
        );
    }
    stop(addr, daemon);
}

#[test]
fn sweep_bodies_are_pinned_for_an_analyze_and_a_qs_grid() {
    // Literal bodies. The analyze grid has 20 points in one station group,
    // so it spans two 16-point chunks; each chunk solves on its own fork of
    // the warm solver, and the trailer's `warm_hits`/`warm_misses` pin that
    // memo scope. The qs grid has two station groups.
    const ANALYZE: &str = include_str!("pins/sweep_fig1_analyze.ndjson");
    const QS: &str = include_str!("pins/sweep_fig1_qs.ndjson");

    let axis = |channel: u64, values: std::ops::RangeInclusive<u64>| {
        obj([
            ("channel", Json::Num(channel as f64)),
            (
                "values",
                Json::Arr(values.map(|v| Json::Num(v as f64)).collect()),
            ),
        ])
    };
    let analyze = obj([(
        "capacities",
        Json::Arr(vec![axis(0, 1..=5), axis(1, 1..=4)]),
    )]);
    let qs = obj([
        ("mode", Json::str("qs")),
        ("exact", Json::Bool(true)),
        ("capacities", Json::Arr(vec![axis(1, 1..=3)])),
        ("budget", Json::Num(1.0)),
    ]);

    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    for (grid, expected) in [(analyze, ANALYZE), (qs, QS)] {
        let (status, body) = client.sweep(FIG1, grid).expect("sweep");
        assert_eq!(status, 200);
        assert_eq!(std::str::from_utf8(&body).unwrap(), expected);
    }
    let (_, _, trailer) = parse_sweep_body(ANALYZE.as_bytes());
    assert!(trailer.get("warm_hits").unwrap().as_u64() > Some(0));
    stop(addr, daemon);
}
