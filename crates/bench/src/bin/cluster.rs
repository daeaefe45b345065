//! Cluster load generator for `lis-gateway`; records shard-scaling
//! throughput and a kill-a-shard failover run into
//! `results/cluster_loadgen.txt`.
//!
//! Three phases, all against real `lis` shard *processes* spawned and
//! supervised by an in-process gateway:
//!
//! 1. **1-shard baseline** — `--clients` keep-alive connections cycle a
//!    hot working set of `--designs` distinct designs that is *larger than
//!    one shard's result cache*: FIFO eviction under a cyclic scan means
//!    every request is a full recompute;
//! 2. **N-shard scaling** — the same workload against `--shards` shards.
//!    Rendezvous routing pins each design to one shard, so the cluster's
//!    aggregate cache holds the whole working set and the steady state is
//!    all hits. This is the cluster win the gateway is built around —
//!    capacity scales with shard count even on a single-core host, where
//!    duplicating CPU-bound work could never beat one process
//!    (`--min-speedup` turns the measured ratio into a CI gate);
//! 3. **kill-a-shard failover** — a fixed workload with precomputed
//!    fault-free single-server reference answers is replayed against the
//!    cluster while one shard is SIGKILLed mid-run. Every response must be
//!    a 200 byte-identical to the reference (`--max-lost`, default 0), and
//!    `--require-failover` additionally demands the gateway actually
//!    exercised its failover path, not just never routed to the corpse.
//!
//! `--quick` shrinks the workload for CI and leaves the results file
//! untouched. The shard binary is `$LIS_BIN` when set, else
//! `target/release/lis` (build it first: `cargo build --release`).

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lis_core::to_netlist;
use lis_gateway::{Backends, ChildSpec, Gateway, GatewayConfig, HedgeConfig};
use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
use lis_server::wire::{obj, Json};
use lis_server::{parse_metric, Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const OUT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/cluster_loadgen.txt"
);

fn netlist(seed: u64, vertices: usize) -> String {
    let cfg = GeneratorConfig {
        vertices,
        sccs: 3,
        min_cycles_per_scc: 2,
        relay_stations: 3,
        reconvergent_paths: true,
        policy: InsertionPolicy::Scc,
        extra_inter_edges: None,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    to_netlist(&generate(&cfg, &mut rng).system)
}

/// Scaling-phase knobs. A miss must cost far more than a hit, so misses
/// run `/insert` (greedy insertion: `budget x channels` MCM evaluations —
/// the design is large enough that the server never picks the exhaustive
/// search) and the per-shard cache is sized *below* the hot working set:
/// one shard thrashes (FIFO + cyclic scan = zero hits) while the sharded
/// cluster holds every design warm.
const SCALING_VERTICES: usize = 64;
const SCALING_BUDGET: u64 = 4;
const SCALING_CACHE: usize = 40;

fn scaling_body(seed: u64) -> String {
    obj([
        ("netlist", Json::str(netlist(seed, SCALING_VERTICES))),
        (
            "options",
            obj([("budget", Json::num(SCALING_BUDGET as f64))]),
        ),
    ])
    .to_string()
}

fn lis_binary() -> PathBuf {
    if let Ok(path) = std::env::var("LIS_BIN") {
        return PathBuf::from(path);
    }
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/release/lis"
    ))
}

/// An in-process gateway front tier over real child shard processes.
struct Cluster {
    addr: SocketAddr,
    daemon: JoinHandle<std::io::Result<()>>,
}

fn start_cluster(
    shards: usize,
    workers: usize,
    cache_capacity: usize,
    hedge: Option<HedgeConfig>,
) -> Cluster {
    let spec = ChildSpec {
        program: lis_binary(),
        workers,
        queue_capacity: 256,
        cache_capacity,
        store_dir: None,
    };
    let config = GatewayConfig {
        probe_interval: Duration::from_millis(100),
        hedge,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind(
        "127.0.0.1:0",
        Backends::Spawn {
            spec,
            count: shards,
        },
        config,
    )
    .expect("bind gateway (is target/release/lis built?)");
    let addr = gateway.local_addr().expect("gateway addr");
    let daemon = std::thread::spawn(move || gateway.run());
    Cluster { addr, daemon }
}

fn stop_cluster(cluster: Cluster) -> String {
    let mut admin = Client::connect(cluster.addr).expect("connect gateway");
    let exposition = admin.metrics().expect("gateway metrics");
    assert_eq!(admin.shutdown().expect("shutdown"), 200);
    cluster
        .daemon
        .join()
        .expect("gateway thread")
        .expect("clean gateway exit");
    exposition
}

struct PhaseStats {
    requests: u64,
    ok: u64,
    failed: u64,
    rps: f64,
}

/// Cycles the hot working set from `clients` keep-alive connections, after
/// one untimed warmup pass (so the measured window is steady state: a
/// cache regime, not a cold start).
fn measure_throughput(
    addr: SocketAddr,
    clients: u64,
    duration: Duration,
    hot: &Arc<Vec<String>>,
) -> PhaseStats {
    {
        let mut warm = Client::connect(addr).expect("connect gateway");
        for body in hot.iter() {
            let resp = warm
                .request("POST", "/insert", body.as_bytes())
                .expect("warmup request");
            assert_eq!(resp.status, 200, "warmup request failed");
        }
    }
    let started = Instant::now();
    let deadline = started + duration;
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let hot = Arc::clone(hot);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect gateway");
                let (mut requests, mut ok) = (0u64, 0u64);
                // Stagger start offsets so the clients don't scan in
                // lockstep.
                let mut i = (id as usize * hot.len()) / clients.max(1) as usize;
                while Instant::now() < deadline {
                    let body = &hot[i % hot.len()];
                    i += 1;
                    requests += 1;
                    match client.request("POST", "/insert", body.as_bytes()) {
                        Ok(resp) if resp.status == 200 => ok += 1,
                        Ok(_) | Err(_) => {}
                    }
                }
                (requests, ok)
            })
        })
        .collect();
    let mut stats = PhaseStats {
        requests: 0,
        ok: 0,
        failed: 0,
        rps: 0.0,
    };
    for h in handles {
        let (requests, ok) = h.join().expect("client thread");
        stats.requests += requests;
        stats.ok += ok;
    }
    stats.failed = stats.requests - stats.ok;
    stats.rps = stats.ok as f64 / started.elapsed().as_secs_f64();
    stats
}

/// The failover phase's fixed workload: `count` distinct designs, each of
/// which will be requested several times across the outage window.
fn failover_workload(count: u64) -> Vec<String> {
    (0..count)
        .map(|i| obj([("netlist", Json::str(netlist(900_000_000 + i, 64)))]).to_string())
        .collect()
}

/// Fault-free reference answers from a plain single `lis-server`.
fn reference_answers(workload: &[String]) -> Vec<Vec<u8>> {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind reference");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect reference");
    let answers = workload
        .iter()
        .map(|body| {
            let resp = client
                .request("POST", "/analyze", body.as_bytes())
                .expect("reference analyze");
            assert_eq!(resp.status, 200, "reference answer must be clean");
            resp.body
        })
        .collect();
    assert_eq!(client.shutdown().expect("shutdown"), 200);
    daemon.join().expect("daemon thread").expect("clean exit");
    answers
}

/// Picks a victim pid off the gateway's healthz topology document.
fn shard_pid(addr: SocketAddr, index: usize) -> u64 {
    let mut client = Client::connect(addr).expect("connect gateway");
    let health = client.request("GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200);
    let doc = Json::parse(std::str::from_utf8(&health.body).expect("utf-8")).expect("healthz json");
    doc.get("shards")
        .and_then(Json::as_arr)
        .and_then(|shards| shards.get(index))
        .and_then(|s| s.get("pid"))
        .and_then(Json::as_u64)
        .expect("supervised shard pid")
}

struct FailoverStats {
    requests: u64,
    lost: u64,
    mismatched: u64,
    failovers: f64,
    respawns: f64,
    hedges: f64,
}

/// Replays the workload `rounds` times against a fresh cluster, SIGKILLing
/// one shard a third of the way in. "Lost" = any non-200; "mismatched" =
/// a 200 whose body differs from the fault-free reference.
fn measure_failover(
    shards: usize,
    workload: &[String],
    reference: &[Vec<u8>],
    rounds: u64,
) -> FailoverStats {
    let cluster = start_cluster(shards, 1, 4096, Some(HedgeConfig::default()));
    let mut client = Client::connect(cluster.addr).expect("connect gateway");
    let total = rounds * workload.len() as u64;
    let kill_at = total / 3;
    let mut stats = FailoverStats {
        requests: 0,
        lost: 0,
        mismatched: 0,
        failovers: 0.0,
        respawns: 0.0,
        hedges: 0.0,
    };
    let mut done = 0u64;
    for _ in 0..rounds {
        for (body, expected) in workload.iter().zip(reference) {
            if done == kill_at {
                let victim = shard_pid(cluster.addr, 0);
                let killed = Command::new("/bin/kill")
                    .args(["-9", &victim.to_string()])
                    .status()
                    .expect("run kill");
                assert!(killed.success(), "kill -9 {victim} failed");
            }
            done += 1;
            stats.requests += 1;
            match client.request("POST", "/analyze", body.as_bytes()) {
                Ok(resp) if resp.status == 200 => {
                    if resp.body != *expected {
                        stats.mismatched += 1;
                    }
                }
                Ok(_) | Err(_) => stats.lost += 1,
            }
        }
    }
    let exposition = stop_cluster(cluster);
    stats.failovers = parse_metric(&exposition, "lis_gateway_failovers_total").unwrap_or(0.0);
    stats.respawns = parse_metric(&exposition, "lis_gateway_shard_respawns_total").unwrap_or(0.0);
    stats.hedges = parse_metric(&exposition, "lis_gateway_hedges_launched_total").unwrap_or(0.0);
    stats
}

fn arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match args.iter().position(|a| a == name) {
        None => default,
        Some(i) => {
            let v = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("{name} needs a value"));
            v.parse()
                .unwrap_or_else(|e| panic!("{name}: {e} (got {v:?})"))
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let shards: usize = arg(&args, "--shards", 3);
    let clients: u64 = arg(&args, "--clients", if quick { 4 } else { 8 });
    let duration = Duration::from_millis(arg(
        &args,
        "--duration-ms",
        if quick { 1_000 } else { 2_500 },
    ));
    let hot_designs: u64 = arg(&args, "--hot-designs", 60);
    let designs: u64 = arg(&args, "--designs", if quick { 12 } else { 24 });
    let rounds: u64 = arg(&args, "--rounds", if quick { 4 } else { 6 });
    let min_speedup: f64 = arg(&args, "--min-speedup", 0.0);
    let max_lost: u64 = arg(&args, "--max-lost", 0);
    let require_failover = args.iter().any(|a| a == "--require-failover");

    let binary = lis_binary();
    assert!(
        binary.exists(),
        "shard binary {} not found — run `cargo build --release` first \
         or point LIS_BIN at a lis binary",
        binary.display()
    );

    assert!(
        hot_designs as usize > SCALING_CACHE,
        "--hot-designs must exceed the per-shard cache ({SCALING_CACHE}) \
         or the single-shard baseline will not thrash"
    );

    // The hot working set, generated once outside any timed window; both
    // scaling phases replay the exact same bodies against fresh clusters.
    let hot = Arc::new(
        (0..hot_designs)
            .map(|i| scaling_body(100_000_000 + i))
            .collect::<Vec<_>>(),
    );

    // Phase 1 — single-shard baseline. Hedging off for both scaling phases
    // so the numbers measure routing + caching, not duplicated work.
    eprintln!("phase 1: 1-shard baseline ({clients} clients, {duration:?})");
    let single = {
        let cluster = start_cluster(1, 1, SCALING_CACHE, None);
        let stats = measure_throughput(cluster.addr, clients, duration, &hot);
        stop_cluster(cluster);
        stats
    };

    // Phase 2 — the same hot set over `shards` identically-configured
    // shards: rendezvous affinity turns the cluster into one big cache.
    eprintln!("phase 2: {shards}-shard scaling ({clients} clients, {duration:?})");
    let scaled = {
        let cluster = start_cluster(shards, 1, SCALING_CACHE, None);
        let stats = measure_throughput(cluster.addr, clients, duration, &hot);
        stop_cluster(cluster);
        stats
    };
    let speedup = if single.rps > 0.0 {
        scaled.rps / single.rps
    } else {
        0.0
    };

    // Phase 3 — kill a shard mid-run; every answer must match a fault-free
    // single server byte for byte.
    eprintln!("phase 3: kill-a-shard failover ({designs} designs x {rounds} rounds)");
    let workload = failover_workload(designs);
    let reference = reference_answers(&workload);
    let failover = measure_failover(shards, &workload, &reference, rounds);

    let mut report = String::new();
    writeln!(
        report,
        "lis-gateway cluster load generation\n\
         ===================================\n\
         in-process gateway fronting supervised `lis serve` child processes\n\
         (1 worker, {SCALING_CACHE}-entry result cache each). scaling: {hot_designs} hot\n\
         {SCALING_VERTICES}-vertex /insert designs (budget {SCALING_BUDGET}) cycled by every client — the\n\
         set overflows one shard's FIFO cache (every request recomputes)\n\
         but rendezvous affinity keeps it fully warm across the cluster;\n\
         failover: a fixed /analyze workload replayed through a SIGKILL.\n\
         Regenerate with:\n\
         \x20   cargo build --release && cargo run --release -p lis-bench --bin cluster\n",
    )
    .expect("write to String");
    writeln!(
        report,
        "scaling ({clients} clients, {:.1} s window per phase)\n\
         \x20 1 shard:   {:>8} ok / {:>8} sent   ({:>8.1} req/s)\n\
         \x20 {shards} shards:  {:>8} ok / {:>8} sent   ({:>8.1} req/s)\n\
         \x20 speedup:   {speedup:.2}x\n",
        duration.as_secs_f64(),
        single.ok,
        single.requests,
        single.rps,
        scaled.ok,
        scaled.requests,
        scaled.rps,
    )
    .expect("write to String");
    writeln!(
        report,
        "failover ({} requests over {shards} shards, shard-0 SIGKILLed at request {})\n\
         \x20 lost (non-200):        {}\n\
         \x20 mismatched vs ref:     {}\n\
         \x20 gateway failovers:     {:.0}\n\
         \x20 shard respawns:        {:.0}\n\
         \x20 hedges launched:       {:.0}",
        failover.requests,
        failover.requests / 3,
        failover.lost,
        failover.mismatched,
        failover.failovers,
        failover.respawns,
        failover.hedges,
    )
    .expect("write to String");

    print!("{report}");
    if quick {
        // Quick gate runs (CI) must not clobber the committed reference file.
        eprintln!("\n--quick: leaving {OUT_PATH} untouched");
    } else {
        std::fs::write(OUT_PATH, &report).expect("write results/cluster_loadgen.txt");
        eprintln!("\nwrote {OUT_PATH}");
    }

    let mut failed = false;
    if speedup < min_speedup {
        eprintln!("FAIL: cluster speedup {speedup:.2}x below the required {min_speedup:.2}x");
        failed = true;
    }
    if failover.lost > max_lost {
        eprintln!(
            "FAIL: {} lost requests during failover (allowed: {max_lost})",
            failover.lost
        );
        failed = true;
    }
    if failover.mismatched > 0 {
        eprintln!(
            "FAIL: {} answers differed from the fault-free reference",
            failover.mismatched
        );
        failed = true;
    }
    if require_failover && failover.failovers < 1.0 {
        eprintln!("FAIL: the failover path was never exercised");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
