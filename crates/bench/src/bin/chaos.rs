//! Chaos driver for the `lis-server` daemon; records goodput, tail
//! latency, and recovery behavior under deterministic fault injection
//! into `results/chaos.txt`.
//!
//! Three phases, all against in-process daemons on ephemeral ports:
//!
//! 1. **Reference** — a fault-free daemon answers every workload netlist
//!    once; its 200 bodies are the ground truth (analysis is
//!    deterministic and content-addressed, so any later correct answer
//!    must be byte-identical).
//! 2. **Chaos** — a daemon armed with `--spec` (default
//!    `panic:0.05,truncate:0.02,garbage:0.01,slow_read:1ms`) serves the
//!    same workload from `--clients` retrying clients. A request is
//!    **lost** if, after retries, its final outcome is not a 200 with the
//!    reference body. The run also proves schedule determinism: two
//!    plans parsed from the same spec must agree on a decision digest.
//! 3. **Recovery** — `force_panic_burst(2 × workers)` arms a guaranteed
//!    panic streak on the daemon's own plan, then fresh (cache-missing)
//!    requests are driven with a non-retrying prober until one succeeds;
//!    the span from the first post-burst failure to the first success is
//!    the recovery time.
//!
//! Threshold flags (`--max-lost`, `--require-respawns`) turn the binary
//! into a CI gate; `--quick` shrinks the workload and skips the results
//! file.
//!
//! A fourth, opt-in mode (`--store-scenario`, recorded in
//! `results/store_chaos.txt`) SIGKILLs a `lis serve --store` shard
//! *process* and respawns it on the same store directory, gating on the
//! warm-restart hit rate (`--min-warm-hit-rate`, `--max-cold-misses`)
//! and byte identity of the replayed hot set.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lis_core::to_netlist;
use lis_gateway::ChildSpec;
use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
use lis_server::wire::{obj, Json};
use lis_server::{parse_metric, Client, FaultPlan, RetryPolicy, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/chaos.txt");
const STORE_OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/store_chaos.txt");

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

fn start(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || {
        server.run().expect("daemon run");
    });
    (addr, daemon)
}

fn stop(addr: std::net::SocketAddr, daemon: std::thread::JoinHandle<()>) {
    let mut admin = Client::connect(addr).expect("connect for shutdown");
    assert_eq!(admin.shutdown().expect("shutdown"), 200);
    daemon.join().expect("daemon joined cleanly");
}

fn analyze_body(netlist: &str) -> String {
    obj([("netlist", Json::str(netlist))]).to_string()
}

/// One request's final outcome under chaos: `status == 200` with the
/// reference body means the fault layer was fully absorbed. A transport
/// failure after all retries is recorded as status 0.
struct Outcome {
    index: usize,
    status: u16,
    body: Vec<u8>,
    latency: Duration,
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

/// SIGKILL-and-respawn against a durable store (`--store-scenario`): a
/// `lis serve --store` shard process answers a hot set of designs, dies
/// by SIGKILL, and is respawned on the same store directory. The warm
/// restart must replay the hot set byte-identically *without
/// recomputing*: the gate demands a warm hit rate (RAM hits after the
/// startup warm load, plus disk hits) of at least `--min-warm-hit-rate`
/// (default 0.9) and at most `--max-cold-misses` recomputations
/// (default 0). Requires `target/release/lis` (or `$LIS_BIN`).
#[allow(clippy::too_many_lines)]
fn store_scenario(args: &[String], quick: bool) {
    let hot: usize = arg(args, "--store-requests", if quick { 12 } else { 40 });
    let min_rate: f64 = arg(args, "--min-warm-hit-rate", 0.9);
    let max_cold: u64 = arg(args, "--max-cold-misses", 0);

    let binary = std::env::var("LIS_BIN").map_or_else(
        |_| {
            std::path::PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../target/release/lis"
            ))
        },
        std::path::PathBuf::from,
    );
    let root = std::env::temp_dir().join(format!("lis-chaos-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = ChildSpec {
        program: binary,
        workers: 2,
        queue_capacity: 256,
        cache_capacity: hot * 2,
        store_dir: Some(root.clone()),
    };

    let fetch = |addr: std::net::SocketAddr, name: &str| -> f64 {
        let mut client = Client::connect(addr).expect("connect shard");
        let metrics = client.metrics().expect("shard metrics");
        parse_metric(&metrics, name).unwrap_or(0.0)
    };

    // Cold pass: every design computed once, answers recorded as the
    // byte-identity reference, each spilled to the store as it lands.
    eprintln!("store scenario: cold pass ({hot} designs)");
    let workload: Vec<String> = (0..hot as u64)
        .map(|i| analyze_body(&netlist(5_000_000 + i)))
        .collect();
    let mut shard = spec.spawn("store-0").expect(
        "spawn lis shard (build it first: cargo build --release -p lis-cli, or set $LIS_BIN)",
    );
    let reference: Vec<Vec<u8>> = {
        let mut client = Client::connect(shard.addr).expect("connect shard");
        workload
            .iter()
            .map(|body| {
                let resp = client
                    .request("POST", "/analyze", body.as_bytes())
                    .expect("cold request");
                assert_eq!(resp.status, 200, "cold pass must be fault-free");
                resp.body
            })
            .collect()
    };
    // Wait for the write-through spills to catch up with the answers:
    // the counter (and the final fsync) trail the response by a worker
    // hop, and the kill must land *after* durability, not race it.
    let spills = {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let spills = fetch(shard.addr, "lis_store_spills_total");
            if spills >= hot as f64 || Instant::now() > deadline {
                break spills;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    // The crash: SIGKILL, no drain, no warning — then a respawn that
    // reopens the same store directory.
    eprintln!("store scenario: SIGKILL pid {} and respawn", shard.pid());
    shard.kill();
    drop(shard);
    let mut shard = spec.spawn("store-0").expect("respawn lis shard");
    let warm_loaded = fetch(shard.addr, "lis_store_warm_loaded_total");

    // Replay: byte-identical answers, served warm.
    let mismatches = {
        let mut client = Client::connect(shard.addr).expect("connect respawned shard");
        workload
            .iter()
            .zip(&reference)
            .filter(|(body, expected)| {
                let resp = client
                    .request("POST", "/analyze", body.as_bytes())
                    .expect("replay request");
                resp.status != 200 || &resp.body != *expected
            })
            .count()
    };
    let hits = fetch(shard.addr, "lis_cache_hits_total");
    let misses = fetch(shard.addr, "lis_cache_misses_total");
    let disk_hits = fetch(shard.addr, "lis_store_disk_hits_total");
    let warm_rate = (hits + disk_hits) / hot as f64;
    let cold_misses = (misses - disk_hits).max(0.0) as u64;
    shard.stop();

    let mut report = String::new();
    writeln!(
        report,
        "lis-server store chaos run (SIGKILL + warm restart)\n\
         ===================================================\n\
         workload: {hot} distinct designs on /analyze against one `lis serve\n\
         --store` shard process; the shard is SIGKILLed after the cold pass\n\
         and respawned on the same store directory, then the hot set is\n\
         replayed once. Every replayed answer must be byte-identical to the\n\
         cold answer and must come from the warm-loaded store, not a\n\
         recomputation.\n\
         Regenerate with:\n\
         \x20   cargo build --release && \\\n\
         \x20   cargo run --release -p lis-bench --bin chaos -- --store-scenario\n",
    )
    .expect("write to String");
    writeln!(
        report,
        "cold answers spilled:   {spills:>6.0} / {hot}\n\
         warm-loaded on respawn: {warm_loaded:>6.0}\n\
         replay byte mismatches: {mismatches:>6}\n\
         replay cache hits:      {hits:>6.0}\n\
         replay disk hits:       {disk_hits:>6.0}\n\
         replay cold misses:     {cold_misses:>6}\n\
         warm hit rate:          {:>6.1} %  (gate: >= {:.1} %)",
        warm_rate * 100.0,
        min_rate * 100.0,
    )
    .expect("write to String");

    if !quick {
        std::fs::write(STORE_OUT_PATH, &report).expect("write results/store_chaos.txt");
        eprintln!("wrote {STORE_OUT_PATH}");
    }
    print!("{report}");

    let mut failed = false;
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} replayed answer(s) diverged from the cold reference");
        failed = true;
    }
    if warm_rate < min_rate {
        eprintln!(
            "FAIL: warm hit rate {:.3} below the required {min_rate:.3}",
            warm_rate
        );
        failed = true;
    }
    if cold_misses > max_cold {
        eprintln!("FAIL: {cold_misses} cold recomputation(s), more than the allowed {max_cold}");
        failed = true;
    }
    let _ = std::fs::remove_dir_all(&root);
    if failed {
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--store-scenario") {
        store_scenario(&args, quick);
        return;
    }
    let requests: usize = arg(&args, "--requests", if quick { 200 } else { 500 });
    let clients: usize = arg(&args, "--clients", 4);
    let workers: usize = arg(&args, "--workers", 4);
    let seed: u64 = arg(&args, "--seed", 42);
    let spec: String = arg(
        &args,
        "--spec",
        format!("panic:0.05,truncate:0.02,garbage:0.01,slow_read:1ms,seed:{seed}"),
    );
    let max_lost: u64 = arg(&args, "--max-lost", 0);
    let require_respawns = args.iter().any(|a| a == "--require-respawns");

    // Distinct netlists: every request is a cache miss on first contact,
    // so every request reaches the worker pool and draws from the
    // injected-panic site.
    let workload: Arc<Vec<String>> = Arc::new((0..requests as u64).map(netlist).collect());

    // Schedule determinism: two plans parsed from one spec must agree on
    // every decision. The digest also goes into the report so two full
    // runs of the bench can be compared byte-for-byte.
    let digest = FaultPlan::parse(&spec)
        .expect("fault spec")
        .schedule_digest(1 << 16);
    assert_eq!(
        digest,
        FaultPlan::parse(&spec)
            .expect("fault spec")
            .schedule_digest(1 << 16),
        "two plans from one spec must produce identical fault schedules"
    );

    // Phase 1: fault-free reference run records the expected bodies.
    eprintln!("phase 1: fault-free reference run ({requests} requests)");
    let expected: Vec<Vec<u8>> = {
        let (addr, daemon) = start(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(addr).expect("connect");
        let bodies = workload
            .iter()
            .map(|n| {
                let resp = client
                    .request("POST", "/analyze", analyze_body(n).as_bytes())
                    .expect("reference request");
                assert_eq!(resp.status, 200, "reference run must be fault-free");
                resp.body
            })
            .collect();
        stop(addr, daemon);
        bodies
    };

    // Phase 2: the same workload against a fault-injected daemon. The
    // plan Arc is shared with the daemon so phase 3 can arm a burst.
    eprintln!("phase 2: chaos run under spec {spec:?}");
    let plan = Arc::new(FaultPlan::parse(&spec).expect("fault spec"));
    let (addr, daemon) = start(ServerConfig {
        workers,
        faults: Some(Arc::clone(&plan)),
        ..ServerConfig::default()
    });
    let outcomes: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::with_capacity(requests)));
    let chaos_started = Instant::now();
    let retries_spent: u64 = {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|c| {
                let workload = Arc::clone(&workload);
                let outcomes = Arc::clone(&outcomes);
                std::thread::spawn(move || {
                    let policy = RetryPolicy {
                        max_attempts: 6,
                        seed: c as u64,
                        ..RetryPolicy::default()
                    };
                    let mut client = Client::with_retries(addr, policy).expect("connect");
                    // Requests are striped across clients.
                    for i in (c..workload.len()).step_by(clients.max(1)) {
                        let body = analyze_body(&workload[i]);
                        let started = Instant::now();
                        let outcome = match client.request("POST", "/analyze", body.as_bytes()) {
                            Ok(resp) => Outcome {
                                index: i,
                                status: resp.status,
                                body: resp.body,
                                latency: started.elapsed(),
                            },
                            Err(_) => Outcome {
                                index: i,
                                status: 0,
                                body: Vec::new(),
                                latency: started.elapsed(),
                            },
                        };
                        outcomes.lock().expect("outcomes lock").push(outcome);
                    }
                    client.retries_used()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos client"))
            .sum()
    };
    let chaos_elapsed = chaos_started.elapsed();

    let (lost, transport_failures, p50, p99) = {
        let outcomes = outcomes.lock().expect("outcomes lock");
        let mut lost = 0u64;
        let mut transport_failures = 0u64;
        for o in outcomes.iter() {
            if o.status == 0 {
                transport_failures += 1;
                lost += 1;
            } else if o.status != 200 || o.body != expected[o.index] {
                lost += 1;
            }
        }
        let mut latencies: Vec<Duration> = outcomes.iter().map(|o| o.latency).collect();
        latencies.sort_unstable();
        let pick = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
        (lost, transport_failures, pick(0.50), pick(0.99))
    };
    let answered = requests as u64 - lost;
    let goodput = answered as f64 / chaos_elapsed.as_secs_f64().max(1e-9);

    // Phase 3: recovery after a guaranteed panic burst. Fresh netlists
    // (cache misses) ensure the burst is consumed by real jobs; a
    // non-retrying prober observes the raw failure streak.
    eprintln!("phase 3: forced panic burst ({} jobs)", 2 * workers);
    plan.force_panic_burst(2 * workers as u64);
    let recovery_ms = {
        let mut prober = Client::with_retries(addr, RetryPolicy::none()).expect("connect");
        let mut first_failure: Option<Instant> = None;
        let mut recovery = None;
        for i in 0..10_000u64 {
            let fresh = netlist(9_000_000 + i);
            let body = analyze_body(&fresh);
            let ok = matches!(
                prober.request("POST", "/analyze", body.as_bytes()),
                Ok(resp) if resp.status == 200
            );
            match (ok, first_failure) {
                (false, None) => first_failure = Some(Instant::now()),
                (true, Some(at)) => {
                    recovery = Some(at.elapsed());
                    break;
                }
                _ => {}
            }
        }
        recovery.map(|d| d.as_secs_f64() * 1e3)
    };

    let mut admin = Client::connect(addr).expect("connect");
    let exposition = admin.metrics().expect("metrics");
    let panics = parse_metric(&exposition, "lis_worker_panics_total").unwrap_or(0.0);
    let respawns = parse_metric(&exposition, "lis_worker_respawns_total").unwrap_or(0.0);
    let injected = parse_metric(&exposition, "lis_faults_injected_total").unwrap_or(0.0);
    stop(addr, daemon);

    let mut report = String::new();
    writeln!(
        report,
        "lis-server chaos run\n\
         ====================\n\
         fault spec: {spec}\n\
         schedule digest (64k draws): {digest:#018x}  [identical across runs of this seed]\n\
         workload: {requests} distinct netlists on /analyze, {clients} retrying client(s),\n\
         {workers} worker(s). Reference bodies come from a fault-free daemon; a request\n\
         counts as lost only if its final outcome differs from the reference.\n\
         Regenerate with:\n\
         \x20   cargo run --release -p lis-bench --bin chaos\n",
    )
    .expect("write to String");
    writeln!(
        report,
        "answered identically: {answered:>8} / {requests}\n\
         lost requests:        {lost:>8}   (transport-level: {transport_failures})\n\
         retries spent:        {retries_spent:>8}\n\
         goodput:              {goodput:>8.0} req/s under chaos\n\
         latency p50 / p99:    {:>8.2} ms / {:.2} ms\n\
         worker panics:        {panics:>8.0}\n\
         worker respawns:      {respawns:>8.0}\n\
         faults injected:      {injected:>8.0}\n\
         recovery after burst: {}",
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        recovery_ms.map_or(
            "n/a (burst absorbed without a visible failure)".to_string(),
            |ms| format!("{ms:.1} ms (first failure -> next success)"),
        ),
    )
    .expect("write to String");

    if !quick {
        std::fs::write(OUT_PATH, &report).expect("write results/chaos.txt");
        eprintln!("wrote {OUT_PATH}");
    }
    print!("{report}");

    let mut failed = false;
    if lost > max_lost {
        eprintln!("FAIL: {lost} lost request(s), more than the allowed {max_lost}");
        failed = true;
    }
    if require_respawns && respawns < 1.0 {
        eprintln!("FAIL: no worker respawns recorded; fault injection never fired");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
