//! End-to-end replication tests: a gateway fronting real `lis-server`
//! shards with durable stores, checking the PR's replication contract —
//! every primary answer is written back to its rendezvous runner-up, so
//! killing the primary mid-run costs availability nothing: the runner-up
//! serves the same bytes warm, with zero recomputation.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lis_core::to_netlist;
use lis_gateway::{warm_handoff, Backends, Gateway, GatewayConfig};
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

fn analyze_body(netlist: &str) -> String {
    obj([("netlist", Json::str(netlist))]).to_string()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lis-repl-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct TestShard {
    addr: SocketAddr,
    daemon: JoinHandle<std::io::Result<lis_server::DrainReport>>,
}

/// Starts a shard on `store_dir`; `spill_delay` holds every background
/// store write back that long, so answers sit in the spill queue.
fn start_shard(store_dir: PathBuf, spill_delay: Option<Duration>) -> TestShard {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            store_dir: Some(store_dir),
            faults: spill_delay.map(|d| {
                let spec = format!("spill_delay:{}ms", d.as_millis());
                Arc::new(FaultPlan::parse(&spec).expect("spec"))
            }),
            ..ServerConfig::default()
        },
    )
    .expect("bind shard");
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

fn shard_metric(addr: SocketAddr, name: &str) -> f64 {
    let mut client = Client::connect(addr).expect("connect shard");
    let metrics = client.metrics().expect("shard metrics");
    parse_metric(&metrics, name).unwrap_or(0.0)
}

/// Reads one entry from a shard's peer store route; `None` on a 404 miss.
fn store_get(addr: SocketAddr, key: &str) -> Option<(u16, Vec<u8>)> {
    let mut client = Client::connect(addr).expect("connect for store/get");
    let payload = obj([("key", Json::str(key))]).to_string();
    let response = client
        .request("POST", "/store/get", payload.as_bytes())
        .expect("store/get");
    if response.status != 200 {
        return None;
    }
    let doc = Json::parse(std::str::from_utf8(&response.body).ok()?).ok()?;
    let status = doc.get("status")?.as_u64()?;
    let body = doc.get("body")?.as_str()?.as_bytes().to_vec();
    Some((u16::try_from(status).ok()?, body))
}

/// Direct warm-handoff exercise: the donor holds answers the target has
/// never seen; streaming the index diff must move exactly the missing
/// entries, byte-identically, and skip the one the target already has.
#[test]
fn warm_handoff_streams_only_the_missing_entries() {
    // Both stores lag their caches for the whole test: the index must list
    // what `/store/get` answers, spilled to disk or not.
    let spill_delay = Some(Duration::from_millis(500));
    let donor = start_shard(scratch("handoff-donor"), spill_delay);
    let target = start_shard(scratch("handoff-target"), spill_delay);

    // Five answers on the donor; the first is also computed on the
    // target, so the diff must skip it.
    let mut keys: Vec<String> = Vec::new();
    let mut references: Vec<(u16, Vec<u8>)> = Vec::new();
    {
        let mut client = Client::connect(donor.addr).expect("connect donor");
        for seed in 0..5u64 {
            let body = analyze_body(&netlist(seed));
            let response = client
                .request("POST", "/analyze", body.as_bytes())
                .expect("donor analyze");
            assert_eq!(response.status, 200);
            keys.push(
                response
                    .header("x-lis-cache-key")
                    .expect("cache key header")
                    .to_string(),
            );
            references.push((response.status, response.body));
        }
        let mut warm = Client::connect(target.addr).expect("connect target");
        let shared = analyze_body(&netlist(0));
        assert_eq!(
            warm.request("POST", "/analyze", shared.as_bytes())
                .expect("target analyze")
                .status,
            200
        );
    }

    let moved = warm_handoff(donor.addr, target.addr, 4096).expect("handoff");
    assert_eq!(moved, 4, "exactly the four missing entries move");

    for (key, (status, body)) in keys.iter().zip(&references) {
        let (got_status, got_body) =
            store_get(target.addr, key).unwrap_or_else(|| panic!("{key} missing on target"));
        assert_eq!(got_status, *status, "{key} status diverged");
        assert_eq!(&got_body, body, "{key} bytes diverged after handoff");
    }

    stop_shard(donor);
    stop_shard(target);
}

/// The headline contract: answers replicate to the runner-up as they are
/// produced, so killing a shard mid-run leaves every answer reachable
/// warm — byte-identical replays with zero recomputation anywhere.
#[test]
fn killing_a_shard_leaves_every_answer_warm_on_its_runner_up() {
    const DESIGNS: u64 = 8;

    let shards: Vec<TestShard> = (0..3)
        .map(|i| start_shard(scratch(&format!("kill-{i}")), None))
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    let gw = start_gateway(
        &addrs,
        GatewayConfig {
            hedge: None, // hedging would blur the primary/runner-up split
            probe_interval: Duration::from_millis(50),
            ..GatewayConfig::default()
        },
    );
    let mut client = Client::connect(gw.addr).expect("connect gateway");

    // /healthz must advertise the armed replicator.
    let health = client.request("GET", "/healthz", b"").expect("healthz");
    let doc = Json::parse(std::str::from_utf8(&health.body).unwrap()).expect("healthz json");
    assert_eq!(
        doc.get("replication").and_then(|v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        }),
        Some(true),
        "replication should be on by default with >= 2 shards"
    );

    // Cold pass: each design computed once somewhere, answer recorded.
    let requests: Vec<String> = (0..DESIGNS).map(|s| analyze_body(&netlist(s))).collect();
    let reference: Vec<Vec<u8>> = requests
        .iter()
        .map(|body| {
            let response = client
                .request("POST", "/analyze", body.as_bytes())
                .expect("cold analyze");
            assert_eq!(response.status, 200);
            response.body
        })
        .collect();

    // Wait for the write-behind queue to drain: one push per design.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = client.metrics().expect("gateway metrics");
        let pushes = parse_metric(&metrics, "lis_replication_pushes_total").unwrap_or(0.0);
        if pushes >= DESIGNS as f64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replication never drained ({pushes} of {DESIGNS} pushes):\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Snapshot each shard's cold-compute count, then kill shard 0.
    let misses_before: Vec<f64> = addrs
        .iter()
        .map(|a| shard_metric(*a, "lis_cache_misses_total"))
        .collect();
    assert_eq!(
        misses_before.iter().sum::<f64>(),
        DESIGNS as f64,
        "cold pass should compute each design exactly once"
    );
    let mut shards = shards;
    let victim = shards.remove(0);
    let victim_addr = victim.addr;
    stop_shard(victim);

    // Replay: byte-identical answers for every design, including the
    // victim's slice of the keyspace — now served by the runner-ups.
    for (body, expected) in requests.iter().zip(&reference) {
        let response = client
            .request("POST", "/analyze", body.as_bytes())
            .expect("replay during outage");
        assert_eq!(response.status, 200, "replay lost an answer");
        assert_eq!(&response.body, expected, "replay diverged from reference");
    }

    // Warmness: the survivors answered from replicated copies — not one
    // new computation anywhere.
    for (addr, before) in addrs.iter().zip(&misses_before) {
        if *addr == victim_addr {
            continue;
        }
        let after = shard_metric(*addr, "lis_cache_misses_total");
        assert_eq!(
            after, *before,
            "shard {addr} recomputed during the outage instead of serving warm"
        );
    }

    stop_gateway(gw);
    for shard in shards {
        stop_shard(shard);
    }
}
