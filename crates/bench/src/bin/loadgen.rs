//! Load generator for the `lis-server` analysis daemon.
//!
//! Two modes share the binary:
//!
//! * **Legacy closed-loop** (default): `--clients` worker threads each run
//!   a blocking request loop against an in-process daemon, with a mixed
//!   hot/cold workload. Measures throughput, cache effectiveness, and shed
//!   behavior into `results/server_loadgen.txt` (`--quick` leaves the
//!   file untouched). Gates: `--min-rps`, `--min-hit-rate`,
//!   `--min-success`.
//! * **Connection-scale** (`--connections N [--pipeline D]` or `--scale`):
//!   a single poller drives N concurrent keep-alive connections, each with
//!   a closed pipeline of depth D (D requests in flight per connection,
//!   topped up as responses land). The server runs in a child process
//!   (`--serve-child`, spawned via self-exec) so both sides get their own
//!   fd budget. Rows land in `results/net_loadgen.txt`; `--scale` runs the
//!   matrix at 100/1k/10k connections. Gates: `--min-rps` (best row) and
//!   `--min-connections` (connections held concurrently).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lis_core::to_netlist;
use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
use lis_server::wire::{obj, Json};
use lis_server::{parse_metric, Client, RetryPolicy, RetryingClient, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const OUT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/server_loadgen.txt"
);

const NET_OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/net_loadgen.txt");

/// Hot-set netlists: small enough that a cold analysis is quick, varied
/// enough that cache keys differ.
const HOT_SET: usize = 8;

fn netlist(seed: u64, vertices: usize) -> String {
    let cfg = GeneratorConfig {
        vertices,
        sccs: 2,
        min_cycles_per_scc: 2,
        relay_stations: 3,
        reconvergent_paths: true,
        policy: InsertionPolicy::Scc,
        extra_inter_edges: None,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    to_netlist(&generate(&cfg, &mut rng).system)
}

struct ClientStats {
    requests: u64,
    ok: u64,
    rejected: u64,
    errors: u64,
    retries: u64,
}

fn run_client(
    addr: std::net::SocketAddr,
    hot: Arc<Vec<String>>,
    id: u64,
    deadline: Instant,
    cold_every: u64,
) -> ClientStats {
    let mut stats = ClientStats {
        requests: 0,
        ok: 0,
        rejected: 0,
        errors: 0,
        retries: 0,
    };
    // Transport-only retries: shed 503s / timed-out 504s are part of what
    // this driver measures, so statuses are never retried — but a reset
    // keep-alive stream is re-established under the policy instead of by
    // hand, with a per-client jitter seed.
    let policy = RetryPolicy {
        seed: id,
        ..RetryPolicy::io_only()
    };
    let mut client = RetryingClient::connect(addr, policy).expect("connect to in-process daemon");
    let mut i = 0u64;
    while Instant::now() < deadline {
        i += 1;
        let (route, body);
        if cold_every > 0 && i.is_multiple_of(cold_every) {
            // A netlist no one has ever submitted: unique per client+index,
            // offset past the hot-set seed range.
            route = "/analyze";
            body = obj([(
                "netlist",
                Json::str(netlist(1_000_000 + id * 1_000_000 + i, 12)),
            )])
            .to_string();
        } else {
            let n = (i as usize) % hot.len();
            route = if i.is_multiple_of(2) {
                "/analyze"
            } else {
                "/qs"
            };
            body = obj([("netlist", Json::str(&hot[n]))]).to_string();
        }
        stats.requests += 1;
        match client.request("POST", route, body.as_bytes()) {
            Ok(resp) if resp.status == 200 => stats.ok += 1,
            Ok(resp) if resp.status == 503 || resp.status == 504 => stats.rejected += 1,
            Ok(_) => stats.errors += 1,
            Err(_) => stats.errors += 1,
        }
    }
    stats.retries = client.retries_used();
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
    if args.iter().any(|a| a == "--serve-child") {
        serve_child();
        return;
    }
    if args.iter().any(|a| a == "--connections" || a == "--scale") {
        net_main(&args);
        return;
    }
    legacy_main(&args);
}

fn legacy_main(args: &[String]) {
    let clients: u64 = arg(args, "--clients", 8);
    let duration = Duration::from_millis(arg(args, "--duration-ms", 2_000));
    let cold_every: u64 = arg(args, "--cold-every", 64);
    let min_rps: f64 = arg(args, "--min-rps", 0.0);
    let min_hit_rate: f64 = arg(args, "--min-hit-rate", 0.0);
    let min_success: f64 = arg(args, "--min-success", 0.0);

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run());

    let hot = Arc::new(
        (0..HOT_SET as u64)
            .map(|s| netlist(s, 16))
            .collect::<Vec<_>>(),
    );

    // Warm the cache so the measured window reflects steady state.
    {
        let mut warm = Client::connect(addr).expect("connect");
        for n in hot.iter() {
            let body = obj([("netlist", Json::str(n))]).to_string();
            for route in ["/analyze", "/qs"] {
                let resp = warm
                    .request("POST", route, body.as_bytes())
                    .expect("warmup");
                assert_eq!(resp.status, 200, "warmup request failed");
            }
        }
    }

    let started = Instant::now();
    let deadline = started + duration;
    let stats: Vec<ClientStats> = {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let hot = Arc::clone(&hot);
                std::thread::spawn(move || run_client(addr, hot, id, deadline, cold_every))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    };
    let elapsed = started.elapsed();

    let mut admin = Client::connect(addr).expect("connect");
    let exposition = admin.metrics().expect("metrics");
    assert_eq!(admin.shutdown().expect("shutdown"), 200);
    daemon.join().expect("daemon thread").expect("clean exit");

    let requests: u64 = stats.iter().map(|s| s.requests).sum();
    let ok: u64 = stats.iter().map(|s| s.ok).sum();
    let rejected: u64 = stats.iter().map(|s| s.rejected).sum();
    let errors: u64 = stats.iter().map(|s| s.errors).sum();
    let retries: u64 = stats.iter().map(|s| s.retries).sum();
    let rps = requests as f64 / elapsed.as_secs_f64();
    let success = if requests > 0 {
        ok as f64 / requests as f64
    } else {
        0.0
    };
    let hits = parse_metric(&exposition, "lis_cache_hits_total").unwrap_or(0.0);
    let misses = parse_metric(&exposition, "lis_cache_misses_total").unwrap_or(0.0);
    let hit_rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    let shed = parse_metric(&exposition, "lis_shed_total").unwrap_or(0.0);

    let mut report = String::new();
    writeln!(
        report,
        "lis-server load generation\n\
         ==========================\n\
         in-process daemon on an ephemeral port, {clients} keep-alive client(s),\n\
         {} worker(s), {:.1} s measured window (after a cache warmup pass).\n\
         workload: {HOT_SET} hot netlists alternating /analyze and /qs, plus one\n\
         never-seen-before cold /analyze every {cold_every} requests per client.\n\
         Regenerate with:\n\
         \x20   cargo run --release -p lis-bench --bin loadgen\n",
        ServerConfig::default().workers,
        elapsed.as_secs_f64(),
    )
    .expect("write to String");
    writeln!(
        report,
        "requests:      {requests:>10}   ({rps:>10.0} req/s)\n\
         success (200): {ok:>10}   ({:>9.2}% of requests)\n\
         shed/timeout:  {rejected:>10}   (server-side shed counter: {shed:.0})\n\
         client errors: {errors:>10}   (transport retries spent: {retries})\n\
         cache hits:    {:>10.0}   misses: {:.0}   hit rate: {:.2}%",
        100.0 * success,
        hits,
        misses,
        100.0 * hit_rate,
    )
    .expect("write to String");

    print!("{report}");
    if args.iter().any(|a| a == "--quick") {
        // Gate runs (CI) must not clobber the committed reference file.
        eprintln!("\n--quick: leaving {OUT_PATH} untouched");
    } else {
        std::fs::write(OUT_PATH, &report).expect("write results/server_loadgen.txt");
        eprintln!("\nwrote {OUT_PATH}");
    }

    let mut failed = false;
    for (name, value, floor) in [
        ("req/s", rps, min_rps),
        ("cache hit rate", hit_rate, min_hit_rate),
        ("success rate", success, min_success),
    ] {
        if value < floor {
            eprintln!("FAIL: {name} {value:.3} below the required {floor:.3}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Connection-scale mode: one poller, N keep-alive connections, pipeline D.
// ---------------------------------------------------------------------------

/// Child-process entry (`--serve-child`): bind an ephemeral port, announce
/// it on stdout as `ADDR <addr>`, and serve until `/shutdown`. Running the
/// daemon in its own process gives each side of the benchmark its own
/// file-descriptor budget (the container caps one process at 20k).
fn serve_child() {
    let config = ServerConfig {
        max_connections: 16_000,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind child server");
    let addr = server.local_addr().expect("addr");
    {
        use std::io::Write as _;
        let mut out = std::io::stdout();
        writeln!(out, "ADDR {addr}").expect("announce addr");
        out.flush().expect("flush addr");
    }
    server.run().expect("child server run");
}

/// Spawns the server child and reads its announced address.
fn spawn_server_child() -> (std::process::Child, std::net::SocketAddr) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .arg("--serve-child")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn server child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line)
        .expect("read child addr line");
    let addr = line
        .trim()
        .strip_prefix("ADDR ")
        .unwrap_or_else(|| panic!("unexpected child announcement {line:?}"))
        .parse()
        .expect("child addr");
    (child, addr)
}

/// One measured row of the connection-scale benchmark.
struct NetRow {
    conns: usize,
    pipeline: usize,
    rps: f64,
    p50_us: u64,
    p99_us: u64,
    held: usize,
}

impl NetRow {
    fn render(&self) -> String {
        format!(
            "conns={} pipeline={} rps={:.0} p50_us={} p99_us={} held={}",
            self.conns, self.pipeline, self.rps, self.p50_us, self.p99_us, self.held
        )
    }
}

/// One client connection in the poller-driven load loop.
struct NetConn {
    stream: std::net::TcpStream,
    /// Bytes queued for the socket (whole rendered requests).
    out: Vec<u8>,
    written: usize,
    /// Unparsed response bytes.
    inbuf: Vec<u8>,
    in_flight: usize,
    /// Send timestamps, FIFO: responses come back in request order.
    sent_at: std::collections::VecDeque<Instant>,
    writable_interest: bool,
}

fn connect_retry(addr: std::net::SocketAddr) -> std::net::TcpStream {
    for attempt in 0u32..10 {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) => std::thread::sleep(Duration::from_millis(1 << attempt.min(6))),
        }
    }
    panic!("cannot connect to {addr}");
}

/// Drives `conns` keep-alive connections against `addr`, each holding
/// `depth` pipelined requests in flight, for `duration` (after a short
/// unmeasured ramp); only requests issued inside the window count, in
/// throughput and latency. Every request is the same hot (pre-warmed,
/// cached) `/analyze`, so the number measures the connection tier, not the
/// solver.
fn run_net_row(
    addr: std::net::SocketAddr,
    conns: usize,
    depth: usize,
    duration: Duration,
) -> NetRow {
    use lis_server::net::{read_available, response_progress, Interest, Poller, ResponseProgress};
    use std::io::Write as _;
    use std::os::fd::AsRawFd;

    let hot = netlist(0, 16);
    let body = obj([("netlist", Json::str(&hot))]).to_string();
    {
        let mut warm = Client::connect(addr).expect("warmup connect");
        let resp = warm
            .request("POST", "/analyze", body.as_bytes())
            .expect("warmup request");
        assert_eq!(resp.status, 200, "warmup request failed");
    }
    let mut wire = Vec::new();
    lis_server::http::write_request(&mut wire, "POST", "/analyze", body.as_bytes())
        .expect("render request");

    let mut poller = Poller::new().expect("poller");
    let mut table: Vec<Option<NetConn>> = Vec::with_capacity(conns);
    for i in 0..conns {
        let stream = connect_retry(addr);
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).expect("nonblocking");
        let mut conn = NetConn {
            stream,
            out: Vec::with_capacity(wire.len() * depth),
            written: 0,
            inbuf: Vec::new(),
            in_flight: 0,
            sent_at: std::collections::VecDeque::with_capacity(depth),
            writable_interest: true,
        };
        for _ in 0..depth {
            conn.out.extend_from_slice(&wire);
            conn.sent_at.push_back(Instant::now());
            conn.in_flight += 1;
        }
        poller
            .register(conn.stream.as_raw_fd(), i, Interest::BOTH)
            .expect("register");
        table.push(Some(conn));
        // Pace the connect storm so the listener backlog never overflows.
        if (i + 1) % 256 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let ramp = Duration::from_millis(200);
    let measure_start = Instant::now() + ramp;
    let deadline = measure_start + duration;
    let mut done: u64 = 0;
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut events = Vec::new();
    'outer: loop {
        let now = Instant::now();
        if now >= deadline {
            break 'outer;
        }
        let wait = (deadline - now).min(Duration::from_millis(100));
        if poller.wait(&mut events, Some(wait)).is_err() {
            break 'outer;
        }
        for ev in &events {
            let slot = ev.token;
            let Some(conn) = table.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            let mut dead = false;
            if ev.writable || ev.hangup {
                while conn.written < conn.out.len() {
                    match conn.stream.write(&conn.out[conn.written..]) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(n) => conn.written += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                if conn.written == conn.out.len() {
                    conn.out.clear();
                    conn.written = 0;
                }
            }
            if !dead && (ev.readable || ev.hangup) {
                match read_available(&mut conn.stream, &mut conn.inbuf) {
                    Ok((_, eof)) => {
                        let mut consumed_total = 0usize;
                        loop {
                            match response_progress(&conn.inbuf[consumed_total..]) {
                                ResponseProgress::Complete { response, consumed } => {
                                    assert_eq!(response.status, 200, "load request failed");
                                    consumed_total += consumed;
                                    // Only requests issued inside the window count:
                                    // the first ones are stamped while the connect
                                    // loop still runs, so their wait is the loop's.
                                    if let Some(t) = conn.sent_at.pop_front() {
                                        if t >= measure_start {
                                            done += 1;
                                            latencies_us.push(
                                                t.elapsed().as_micros().min(u64::MAX as u128)
                                                    as u64,
                                            );
                                        }
                                    }
                                    conn.in_flight -= 1;
                                }
                                ResponseProgress::Partial => break,
                                ResponseProgress::Violation(_) => {
                                    dead = true;
                                    break;
                                }
                            }
                        }
                        conn.inbuf.drain(..consumed_total);
                        if eof {
                            dead = true;
                        }
                    }
                    Err(_) => dead = true,
                }
            }
            if dead {
                poller.deregister(conn.stream.as_raw_fd());
                table[slot] = None;
                continue;
            }
            // Top the pipeline back up and track write interest.
            while conn.in_flight < depth {
                conn.out.extend_from_slice(&wire);
                conn.sent_at.push_back(Instant::now());
                conn.in_flight += 1;
            }
            let want_write = conn.written < conn.out.len();
            if want_write != conn.writable_interest {
                let interest = if want_write {
                    Interest::BOTH
                } else {
                    Interest::READ
                };
                let fd = conn.stream.as_raw_fd();
                let _ = poller.modify(fd, slot, interest);
                conn.writable_interest = want_write;
            }
        }
    }
    let held = table.iter().filter(|c| c.is_some()).count();
    drop(table);
    latencies_us.sort_unstable();
    let pick = |q: f64| -> u64 {
        if latencies_us.is_empty() {
            return 0;
        }
        let i = ((latencies_us.len() - 1) as f64 * q) as usize;
        latencies_us[i]
    };
    NetRow {
        conns,
        pipeline: depth,
        rps: done as f64 / duration.as_secs_f64(),
        p50_us: pick(0.50),
        p99_us: pick(0.99),
        held,
    }
}

/// Runs one row end-to-end: child server up, measure, drain, reap.
fn net_row_with_server(conns: usize, depth: usize, duration: Duration) -> NetRow {
    let (mut child, addr) = spawn_server_child();
    let row = run_net_row(addr, conns, depth, duration);
    let mut admin = Client::connect(addr).expect("admin connect");
    assert_eq!(admin.shutdown().expect("shutdown"), 200);
    let _ = child.wait();
    eprintln!("{}", row.render());
    row
}

fn net_main(args: &[String]) {
    let _ = lis_server::net::raise_nofile_limit();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = args.iter().any(|a| a == "--scale");
    let duration =
        Duration::from_millis(arg(args, "--duration-ms", if quick { 700 } else { 2_000 }));
    let min_rps: f64 = arg(args, "--min-rps", 0.0);
    let min_connections: usize = arg(args, "--min-connections", 0);

    let rows: Vec<NetRow> = if scale {
        vec![
            net_row_with_server(100, 1, duration),
            net_row_with_server(1_000, 1, duration),
            net_row_with_server(1_000, 8, duration),
            net_row_with_server(10_000, 1, duration),
        ]
    } else {
        let conns: usize = arg(args, "--connections", 1_000);
        let depth: usize = arg(args, "--pipeline", 1);
        vec![net_row_with_server(conns, depth, duration)]
    };

    let mut report = String::new();
    writeln!(
        report,
        "lis-server connection-scale load generation\n\
         ===========================================\n\
         daemon in a child process on an ephemeral port; one poller drives\n\
         every client connection with a closed pipeline per connection\n\
         (depth requests in flight, topped up as responses land). The\n\
         workload is one pre-warmed cached /analyze, so rows measure the\n\
         connection front, not the solver. {:.1} s window per row after a\n\
         0.2 s ramp; only requests issued inside the window count. Regenerate with:\n\
         \x20   cargo run --release -p lis-bench --bin loadgen -- --scale\n",
        duration.as_secs_f64(),
    )
    .expect("write to String");
    for row in &rows {
        writeln!(report, "{}", row.render()).expect("write to String");
    }
    print!("{report}");
    if quick {
        // Quick gate runs (CI) must not clobber the committed reference file.
        eprintln!("\n--quick: leaving {NET_OUT_PATH} untouched");
    } else {
        std::fs::write(NET_OUT_PATH, &report).expect("write results/net_loadgen.txt");
        eprintln!("\nwrote {NET_OUT_PATH}");
    }

    let best_rps = rows.iter().map(|r| r.rps).fold(0.0f64, f64::max);
    let max_held = rows.iter().map(|r| r.held).max().unwrap_or(0);
    let mut failed = false;
    if best_rps < min_rps {
        eprintln!("FAIL: best req/s {best_rps:.0} below the required {min_rps:.0}");
        failed = true;
    }
    if max_held < min_connections {
        eprintln!("FAIL: held {max_held} connection(s), required {min_connections}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
