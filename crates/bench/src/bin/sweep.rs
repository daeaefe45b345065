//! Measures the batch advantage of `/sweep` over individual round trips
//! and records it in `results/sweep_speedup.txt`.
//!
//! One design-space grid (four capacity axes x four values = 256 points on
//! a generated netlist), evaluated two ways against fresh daemons:
//!
//! 1. a single `POST /sweep` — one parse, one plan, warm per-component
//!    incremental solvers shared across the grid, rows streamed back;
//! 2. 256 individual `POST /analyze` round trips, one per reconstructed
//!    per-point netlist — each a cold parse + model build + MCM solve.
//!
//! Each daemon gets a few untimed warmup requests first (on a capacity
//! outside the grid's value set, so nothing measured is ever pre-cached).
//!
//! Every streamed row is asserted **byte-identical** to its single-shot
//! answer before any number is recorded, so the speedup is for the exact
//! same payload.
//!
//! Flags: `--quick` (smaller base system, and the results file is left
//! untouched — the CI smoke mode),
//! `--min-speedup X` (gate; exit 1 below it), `--axes N`, `--seed S`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lis_core::to_netlist;
use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
use lis_server::wire::{obj, Json};
use lis_server::{Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const OUT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/sweep_speedup.txt"
);

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

struct Daemon {
    addr: std::net::SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<lis_server::DrainReport>>,
}

fn start() -> Daemon {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind daemon");
    let addr = server.local_addr().expect("daemon addr");
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle }
}

fn stop(daemon: Daemon) {
    let mut client = Client::connect(daemon.addr).expect("connect for shutdown");
    assert_eq!(client.shutdown().expect("shutdown"), 200);
    daemon
        .handle
        .join()
        .expect("daemon thread")
        .expect("clean exit");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let axes_n: usize = arg(&args, "--axes", 4);
    let seed: u64 = arg(&args, "--seed", 11);
    let min_speedup: f64 = arg(&args, "--min-speedup", 0.0);

    // The base system: a generated SoC, large enough that one cold
    // analysis has real work in it.
    let cfg = GeneratorConfig {
        vertices: if quick { 40 } else { 120 },
        sccs: if quick { 3 } else { 6 },
        min_cycles_per_scc: 3,
        relay_stations: 4,
        reconvergent_paths: true,
        policy: InsertionPolicy::Scc,
        extra_inter_edges: None,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let sys = generate(&cfg, &mut rng).system;
    let netlist = to_netlist(&sys);
    assert!(sys.channel_count() >= axes_n, "base system too small");

    // The grid: `axes_n` capacity axes x 4 values — 64 points at the
    // default 3 axes.
    let values = [1u64, 2, 4, 8];
    let axes: Vec<Json> = (0..axes_n)
        .map(|c| {
            obj([
                ("channel", Json::Num(c as f64)),
                (
                    "values",
                    Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect()),
                ),
            ])
        })
        .collect();
    let options = obj([("capacities", Json::Arr(axes))]);
    let expected_points = values.len().pow(axes_n as u32);

    // Warmup body: channel 0 at capacity 3 — a value outside the grid's
    // {1,2,4,8}, so no measured request is ever answered from a cache the
    // warmup populated. A few untimed round trips spin up the CPU clock,
    // allocator, and TCP path on both daemons alike.
    let warmup_body = {
        let mut modified = sys.clone();
        let c = modified.channel_ids().next().expect("channel id");
        modified.set_queue_capacity(c, 3).expect("set capacity");
        obj([("netlist", Json::str(to_netlist(&modified)))]).to_string()
    };
    let warmup = |client: &mut Client| {
        for _ in 0..3 {
            let resp = client
                .request("POST", "/analyze", warmup_body.as_bytes())
                .expect("warmup analyze");
            assert_eq!(resp.status, 200);
        }
    };

    // Phase 1 — one batched /sweep against a fresh daemon.
    eprintln!("phase 1: one /sweep over {expected_points} points");
    let sweep_daemon = start();
    let mut client = Client::connect(sweep_daemon.addr).expect("connect");
    warmup(&mut client);
    let started = Instant::now();
    let (status, body) = client.sweep(&netlist, options).expect("sweep");
    let t_sweep = started.elapsed();
    assert_eq!(
        status,
        200,
        "sweep failed: {}",
        String::from_utf8_lossy(&body)
    );
    drop(client);
    stop(sweep_daemon);

    let text = String::from_utf8(body).expect("utf-8 ndjson");
    let mut lines = text.lines();
    let header = Json::parse(lines.next().expect("header")).expect("header json");
    let points = header.get("points").unwrap().as_u64().expect("points") as usize;
    assert_eq!(points, expected_points);
    let rows: Vec<Json> = (0..points)
        .map(|_| Json::parse(lines.next().expect("row")).expect("row json"))
        .collect();
    let trailer = Json::parse(lines.next().expect("trailer")).expect("trailer json");
    let warm_hits = trailer.get("warm_hits").unwrap().as_u64().unwrap_or(0);

    // Reconstruct each per-point netlist outside any timed window: the
    // individual phase times only what a client would actually send.
    let bodies: Vec<String> = rows
        .iter()
        .map(|row| {
            let mut modified = sys.clone();
            if let Some(Json::Arr(caps)) = row.get("capacities") {
                for cap in caps {
                    let idx = cap.get("channel").unwrap().as_u64().expect("channel") as usize;
                    let q = cap.get("capacity").unwrap().as_u64().expect("capacity");
                    let c = modified.channel_ids().nth(idx).expect("channel id");
                    modified.set_queue_capacity(c, q).expect("set capacity");
                }
            }
            obj([("netlist", Json::str(to_netlist(&modified)))]).to_string()
        })
        .collect();

    // Phase 2 — the same grid as individual round trips against a second
    // fresh daemon (its own cold cache), on one keep-alive connection.
    eprintln!("phase 2: {points} individual /analyze round trips");
    let single_daemon = start();
    let mut client = Client::connect(single_daemon.addr).expect("connect");
    warmup(&mut client);
    let started = Instant::now();
    let singles: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| {
            let resp = client
                .request("POST", "/analyze", b.as_bytes())
                .expect("individual analyze");
            assert_eq!(resp.status, 200);
            resp.body
        })
        .collect();
    let t_single = started.elapsed();
    drop(client);
    stop(single_daemon);

    // Byte identity, point by point, before any number is reported.
    for (i, (row, single)) in rows.iter().zip(&singles).enumerate() {
        assert_eq!(
            row.get("result").unwrap().to_string(),
            String::from_utf8_lossy(single),
            "point {i} diverged from its single-shot round trip"
        );
    }

    let speedup = t_single.as_secs_f64() / t_sweep.as_secs_f64();
    let per_point = |d: Duration| d.as_secs_f64() * 1e3 / points as f64;
    let mut report = String::new();
    writeln!(
        report,
        "Batched /sweep vs individual round trips\n\
         ========================================\n\
         {points}-point design-space grid ({axes_n} capacity axes x {} values) on a\n\
         generated netlist ({} blocks, {} channels, seed {seed}); both phases run\n\
         against fresh single-process daemons over real TCP, and every streamed\n\
         row is asserted byte-identical to its single-shot answer first.\n\
         Regenerate with:\n\
         \x20   cargo run --release -p lis-bench --bin sweep\n",
        values.len(),
        sys.block_count(),
        sys.channel_count(),
    )
    .expect("write to String");
    writeln!(
        report,
        "one POST /sweep:          {:>10.3} ms  ({:>7.3} ms/point, {warm_hits} warm memo hits)\n\
         {points:>3} x POST /analyze:      {:>10.3} ms  ({:>7.3} ms/point, cold each)\n\
         speedup:                  {speedup:>10.2}x",
        t_sweep.as_secs_f64() * 1e3,
        per_point(t_sweep),
        t_single.as_secs_f64() * 1e3,
        per_point(t_single),
    )
    .expect("write to String");

    print!("{report}");
    if quick {
        // Quick gate runs (CI) must not clobber the committed reference file.
        eprintln!("\n--quick: leaving {OUT_PATH} untouched");
    } else {
        std::fs::write(OUT_PATH, &report).expect("write results/sweep_speedup.txt");
        eprintln!("\nwrote {OUT_PATH}");
    }

    if speedup < min_speedup {
        eprintln!("FAIL: sweep speedup {speedup:.2}x below the required {min_speedup:.2}x");
        std::process::exit(1);
    }
}
