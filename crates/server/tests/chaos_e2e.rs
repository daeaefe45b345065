//! End-to-end chaos tests over real TCP sockets: a daemon armed with a
//! deterministic [`FaultPlan`] must never lose a request — every
//! non-faulted outcome is byte-identical to a fault-free run (the
//! content-addressed cache pins the bytes), panicking workers respawn,
//! slow-loris peers get a typed 408, the connection cap answers a typed
//! 429, and a fault-free daemon injects exactly nothing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lis_core::to_netlist;
use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
use lis_server::wire::{obj, Json};
use lis_server::{parse_metric, Client, FaultPlan, RetryPolicy, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// A distinct small system per seed, so every request is a cache miss on
/// first contact and therefore reaches the worker pool (where the
/// injected-panic site draws).
fn netlist(seed: u64) -> String {
    let cfg = GeneratorConfig {
        vertices: 8,
        sccs: 2,
        min_cycles_per_scc: 2,
        relay_stations: 2,
        reconvergent_paths: false,
        policy: InsertionPolicy::Scc,
        extra_inter_edges: None,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    to_netlist(&generate(&cfg, &mut rng).system)
}

fn analyze_body(netlist: &str) -> String {
    obj([("netlist", Json::str(netlist))]).to_string()
}

/// The acceptance run: 5% worker panics over 500 distinct netlists.
/// Every request must end in a 200 whose body is byte-identical to the
/// fault-free daemon's answer, at least one worker must have respawned,
/// and shutdown must still drain cleanly.
#[test]
fn panicking_workers_lose_no_requests_and_respawn() {
    const REQUESTS: u64 = 500;
    let workload: Vec<String> = (0..REQUESTS).map(netlist).collect();

    // Fault-free reference bodies.
    let expected: Vec<Vec<u8>> = {
        let (addr, daemon) = start(ServerConfig::default());
        let mut client = Client::connect(addr).expect("connect");
        let bodies = workload
            .iter()
            .map(|n| {
                let resp = client
                    .request("POST", "/analyze", analyze_body(n).as_bytes())
                    .expect("reference analyze");
                assert_eq!(resp.status, 200);
                resp.body
            })
            .collect();
        stop(addr, daemon);
        bodies
    };

    let (addr, daemon) = start(ServerConfig {
        workers: 2,
        faults: Some(Arc::new(
            FaultPlan::parse("panic:0.05,seed:11").expect("spec"),
        )),
        ..ServerConfig::default()
    });
    let mut client = Client::with_retries(
        addr,
        RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        },
    )
    .expect("connect");
    for (n, expected_body) in workload.iter().zip(&expected) {
        let resp = client
            .request("POST", "/analyze", analyze_body(n).as_bytes())
            .expect("chaos analyze survives retries");
        assert_eq!(resp.status, 200, "request ended faulted after retries");
        assert_eq!(
            resp.body, *expected_body,
            "chaos answer differs from the fault-free run"
        );
    }
    assert!(client.retries_used() > 0, "5% panics must force retries");

    let mut admin = Client::connect(addr).expect("connect");
    let exposition = admin.metrics().expect("metrics");
    let panics = parse_metric(&exposition, "lis_worker_panics_total").expect("panics metric");
    let respawns = parse_metric(&exposition, "lis_worker_respawns_total").expect("respawns metric");
    assert!(panics > 0.0, "the schedule must have fired at 5%");
    assert!(respawns > 0.0, "panicked workers must be replaced");
    assert!(exposition.contains("lis_requests_total{route=\"analyze\",status=\"500\"}"));

    // Shutdown must drain cleanly even though workers died mid-run.
    stop(addr, daemon);
}

/// Truncated and garbled response bytes are transport-level faults; the
/// retrying client must absorb them and land every request.
#[test]
fn truncated_and_garbled_responses_are_retried_to_success() {
    let (addr, daemon) = start(ServerConfig {
        faults: Some(Arc::new(
            FaultPlan::parse("truncate:0.25,garbage:0.15,seed:5").expect("spec"),
        )),
        ..ServerConfig::default()
    });
    let mut client = Client::with_retries(
        addr,
        RetryPolicy {
            max_attempts: 10,
            ..RetryPolicy::io_only()
        },
    )
    .expect("connect");
    for seed in 1000..1060u64 {
        let resp = client
            .request("POST", "/analyze", analyze_body(&netlist(seed)).as_bytes())
            .expect("write faults survive retries");
        assert_eq!(resp.status, 200);
        Json::parse(std::str::from_utf8(&resp.body).expect("utf8"))
            .expect("every accepted body is well-formed JSON");
    }
    assert!(
        client.retries_used() > 0,
        "40% write faults must force transport retries"
    );
    let mut admin = Client::connect(addr).expect("connect");
    let injected = parse_metric(
        &admin.metrics().expect("metrics"),
        "lis_faults_injected_total",
    )
    .expect("injected metric");
    assert!(injected > 0.0);
    stop(addr, daemon);
}

/// A peer that sends one byte and stalls must get a typed 408 within the
/// configured read deadline instead of pinning the handler thread.
#[test]
fn slow_loris_peer_gets_a_typed_408() {
    let (addr, daemon) = start(ServerConfig {
        read_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    });

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /analyze HTTP/1.1\r\nContent-Length: 100\r\n")
        .expect("partial head");
    stream.flush().expect("flush");
    // ... and never finish. The daemon owes us a 408 after ~300 ms.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read 408 response");
    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "expected a 408 status line, got {response:?}"
    );
    assert!(
        response.contains("slow_client"),
        "typed kind missing: {response:?}"
    );
    assert!(response.contains("\"deadline_ms\":300"), "{response:?}");

    // The daemon is still fully alive for well-behaved peers.
    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request("POST", "/analyze", analyze_body(&netlist(77)).as_bytes())
        .expect("analyze after loris");
    assert_eq!(resp.status, 200);
    stop(addr, daemon);
}

/// Once `max_connections` handlers are busy, further peers get a typed
/// 429 on the accept path instead of an unexplained hang or reset.
#[test]
fn connection_cap_answers_a_typed_429() {
    let (addr, daemon) = start(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });

    // Two idle keep-alive connections occupy the only slots. Issue a
    // request on each so the handlers are definitely past accept.
    let mut occupants = Vec::new();
    for _ in 0..2 {
        let mut c = Client::connect(addr).expect("connect occupant");
        let resp = c
            .request("POST", "/analyze", analyze_body(&netlist(99)).as_bytes())
            .expect("occupant analyze");
        assert_eq!(resp.status, 200);
        occupants.push(c);
    }

    let mut stream = TcpStream::connect(addr).expect("third connection");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read 429 response");
    assert!(
        response.starts_with("HTTP/1.1 429 "),
        "expected a 429 status line, got {response:?}"
    );
    assert!(
        response.contains("too_many_connections"),
        "typed kind missing: {response:?}"
    );
    assert!(response.contains("\"limit\":2"), "{response:?}");

    let mut admin_exposition = None;
    // Free a slot, then the metrics endpoint must show the rejection.
    drop(occupants.pop());
    for _ in 0..50 {
        if let Ok(mut admin) = Client::connect(addr) {
            if let Ok(exposition) = admin.metrics() {
                admin_exposition = Some(exposition);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let exposition = admin_exposition.expect("a slot freed up for the admin client");
    let rejected = parse_metric(&exposition, "lis_connections_rejected_total").expect("metric");
    assert!(rejected >= 1.0, "rejection must be counted, saw {rejected}");

    // Slots free up asynchronously (the handlers notice EOF on their
    // next idle poll), so the final shutdown may briefly see 429.
    drop(occupants);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            if c.shutdown().ok() == Some(200) {
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shutdown never got a free connection slot"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// With no `FaultPlan` configured the chaos layer must be invisible:
/// zero injected faults, zero panics, zero respawns.
#[test]
fn fault_free_daemon_injects_nothing() {
    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    for seed in 2000..2040u64 {
        let resp = client
            .request("POST", "/analyze", analyze_body(&netlist(seed)).as_bytes())
            .expect("analyze");
        assert_eq!(resp.status, 200);
    }
    let exposition = client.metrics().expect("metrics");
    for metric in [
        "lis_faults_injected_total",
        "lis_worker_panics_total",
        "lis_worker_respawns_total",
        "lis_connections_rejected_total",
    ] {
        assert_eq!(
            parse_metric(&exposition, metric),
            Some(0.0),
            "{metric} must stay zero without a fault plan"
        );
    }
    stop(addr, daemon);
}
