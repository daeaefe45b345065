//! `lis_thread_cpu_seconds_total` against the kernel's own accounting.
//!
//! The daemon reports the CPU time of its threads by role. Here a burst of
//! sweeps keeps the workers busy: the `worker` counter must rise by half a
//! second while the spiller, which only writes each finished table once,
//! stays flat (within two clock ticks); and
//! each role's counter must agree with an outside read of
//! `/proc/self/task/*/stat` within 5 % (or one clock tick, for the loop's
//! small total). The outside read picks threads by name, which is only
//! unambiguous while the process hosts one daemon, so this binary holds
//! this one test.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use lis_core::to_netlist;
use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
use lis_server::cpu::stat_cpu_ticks;
use lis_server::wire::{obj, Json};
use lis_server::{parse_metric, Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The name the test gives the thread that runs the event loop.
const LOOP_THREAD: &str = "lis-test-loop";

/// `[loop, worker, spiller]` CPU seconds from the daemon's `/metrics`.
fn scrape(client: &mut Client) -> [f64; 3] {
    let exposition = client.metrics().expect("metrics");
    ["loop", "worker", "spiller"].map(|role| {
        let name = format!("lis_thread_cpu_seconds_total{{role=\"{role}\"}}");
        parse_metric(&exposition, &name).unwrap_or_else(|| panic!("{name} missing"))
    })
}

/// The same three sums, read from `/proc/self/task/*/{comm,stat}`.
fn outside() -> [f64; 3] {
    let mut ticks = [0u64; 3];
    for task in std::fs::read_dir("/proc/self/task").expect("task dir") {
        let dir = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // exited meanwhile
        };
        let role = match comm.trim_end() {
            LOOP_THREAD => 0,
            name if name.starts_with("lis-worker-") => 1,
            "lis-spiller" => 2,
            _ => continue,
        };
        if let Ok(stat) = std::fs::read_to_string(dir.join("stat")) {
            ticks[role] += stat_cpu_ticks(&stat).expect("stat fields");
        }
    }
    ticks.map(|t| t as f64 / ticks_per_second())
}

/// The unit of `/proc/*/stat` CPU times (`sysconf(_SC_CLK_TCK)`).
fn ticks_per_second() -> f64 {
    lis_server::net::sys::clock_ticks_per_second() as f64
}

/// A sweep of a seeded 1,500-block random LIS over 256 capacity points:
/// many solves per table, so the one spill of each finished table costs
/// the spiller little next to what the workers spend.
fn sweep_body(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = GeneratorConfig {
        vertices: 1500,
        sccs: 40,
        min_cycles_per_scc: 3,
        relay_stations: 6,
        reconvergent_paths: true,
        policy: InsertionPolicy::Scc,
        extra_inter_edges: None,
    };
    let sys = generate(&cfg, &mut rng).system;
    let axes = (0..4)
        .map(|c| {
            obj([
                ("channel", Json::num(f64::from(c))),
                (
                    "values",
                    Json::Arr((1..=4).map(|v| Json::num(f64::from(v))).collect()),
                ),
            ])
        })
        .collect();
    obj([
        ("netlist", Json::str(to_netlist(&sys))),
        ("options", obj([("capacities", Json::Arr(axes))])),
    ])
    .to_string()
    .into_bytes()
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lis-thread-cpu-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn busy_workers_raise_their_counter_and_every_role_matches_proc() {
    if !std::path::Path::new("/proc/thread-self").exists() {
        return; // No per-thread accounting to compare against.
    }
    let dir = scratch();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::Builder::new()
        .name(LOOP_THREAD.to_string())
        .spawn(move || server.run())
        .expect("spawn daemon");
    let mut client = Client::connect(addr).expect("connect");

    let before = scrape(&mut client);
    let started = Instant::now();
    let mut sweeps = 0;
    let mut now = before;
    while now[1] - before[1] < 0.5 && started.elapsed() < Duration::from_secs(60) {
        let r = client
            .request("POST", "/sweep", &sweep_body(sweeps))
            .expect("sweep");
        assert_eq!(r.status, 200);
        sweeps += 1;
        now = scrape(&mut client);
    }
    let worker = now[1] - before[1];
    let spiller = now[2] - before[2];
    assert!(worker >= 0.5, "workers burned {worker} s");
    // A handful of table writes: at most two clock ticks.
    assert!(
        spiller <= 0.02,
        "the spiller wrote {sweeps} tables and read {spiller} s"
    );

    // Each scrape lies between two outside reads of the same threads.
    let low = outside();
    let reported = scrape(&mut client);
    let high = outside();
    let tick = 1.0 / ticks_per_second();
    for (r, role) in ["loop", "worker", "spiller"].iter().enumerate() {
        let (floor, ceiling) = (low[r] * 0.95 - tick, high[r] * 1.05 + tick);
        assert!(
            (floor..=ceiling).contains(&reported[r]),
            "{role}: reported {} s, /proc read {} to {} s",
            reported[r],
            low[r],
            high[r]
        );
    }
    assert!(reported[1] >= 0.5, "{reported:?}");

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}
