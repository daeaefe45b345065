//! The repository benchmark: drives a real `lis serve` daemon with one of
//! three closed-loop workloads, checks every answer, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer ledger from a traced
//! in-process replay of the same seeded inputs (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-variant --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run it from the repository root: it builds the `lis` binary from the
//! root workspace first. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; everything else
//! (build output, Hill's closed-form checks, failure details) goes to
//! standard error.

mod daemon;
mod gate;
mod load;
mod report;
mod stats;
mod trace;
mod workload;

use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use lis_core::parse_netlist;
use lis_server::{Json, Metrics, RequestKind, ResultCache};

use daemon::{Counters, Daemon};
use load::{drive, Phase, Traffic};
use report::Report;
use stats::{median, percentile};
use trace::Tracer;
use workload::{ColdPool, Request, Route, Variants, Workload};

/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// How long answers are awaited after the window closes.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// The seeded inputs of one run, plus the in-process answers the hot
/// workloads are checked against.
struct Plan {
    workload: Workload,
    seed: u64,
    hot: Vec<Request>,
    hot_expected: Vec<Vec<u8>>,
    variants: Option<Variants>,
    cold: Option<ColdPool>,
}

impl Plan {
    fn new(workload: Workload, seed: u64) -> Result<Plan, String> {
        let hot = workload::hot_requests(seed);
        let hot_expected = match workload {
            Workload::HotVariant => hot
                .iter()
                .map(gate::expected_body)
                .collect::<Result<_, _>>()?,
            _ => Vec::new(),
        };
        let variants = (workload == Workload::HotVariant).then(|| Variants::new(seed));
        let cold = (workload == Workload::ColdSolve).then(|| ColdPool::new(seed));
        Ok(Plan {
            workload,
            seed,
            hot,
            hot_expected,
            variants,
            cold,
        })
    }

    /// The `k`-th measured request.
    fn request(&self, k: u64) -> Request {
        match self.workload {
            Workload::HotVariant => self.variants.as_ref().expect("variants").request(k),
            Workload::ColdSolve => self.cold.as_ref().expect("cold pool").request(k),
            Workload::SweepStream => workload::sweep_request(self.seed, k),
        }
    }

    /// The untimed warm-up: hot-variant sends its 64 requests once (filling
    /// the canonical cache); the others send designs outside the window.
    fn warm_up(&self) -> Vec<Request> {
        match self.workload {
            Workload::HotVariant => self.hot.clone(),
            Workload::ColdSolve => (0..32)
                .map(|k| workload::warm_request(self.workload, self.seed, k))
                .collect(),
            Workload::SweepStream => (0..4)
                .map(|k| workload::warm_request(self.workload, self.seed, k))
                .collect(),
        }
    }
}

/// A fixed list of requests (the warm-up); answers must be 200.
struct Fixed<'a> {
    requests: &'a [Request],
    next: usize,
    errors: Vec<String>,
}

impl Traffic for Fixed<'_> {
    fn next(&mut self) -> Option<(u64, Vec<u8>)> {
        let req = self.requests.get(self.next)?;
        self.next += 1;
        Some((self.next as u64 - 1, req.http_bytes()))
    }

    fn answered(&mut self, tag: u64, status: u16, _body: Vec<u8>) {
        if status != 200 {
            self.errors
                .push(format!("warm-up request {tag} answered {status}"));
        }
    }
}

/// The measured traffic: hot answers are compared on arrival against the
/// in-process replay; cold and sweep answers are kept for the gate.
struct Measured<'a> {
    plan: &'a Plan,
    next: u64,
    kept: Vec<(u64, Vec<u8>)>,
    errors: Vec<String>,
    /// The daemon, whose peak RSS is read after `rss_after` answers.
    pid: u32,
    answers: u64,
    rss_mb: Option<f64>,
}

impl Traffic for Measured<'_> {
    fn next(&mut self) -> Option<(u64, Vec<u8>)> {
        let k = self.next;
        self.next += 1;
        Some((k, self.plan.request(k).http_bytes()))
    }

    fn answered(&mut self, tag: u64, status: u16, body: Vec<u8>) {
        self.answers += 1;
        if self.answers == self.plan.workload.rss_after() {
            self.rss_mb = daemon::peak_rss_mb(self.pid).ok();
        }
        if status != 200 {
            return;
        }
        match self.plan.workload {
            Workload::HotVariant => {
                let want = &self.plan.hot_expected[(tag % self.plan.hot.len() as u64) as usize];
                if &body != want && self.errors.len() < 8 {
                    self.errors.push(format!(
                        "request {tag}: answer differs from the in-process replay"
                    ));
                }
            }
            Workload::ColdSolve | Workload::SweepStream => self.kept.push((tag, body)),
        }
    }
}

/// Starts a daemon, opens the workload's connections and warms it up.
fn set_up(
    bin: &PathBuf,
    plan: &Plan,
) -> Result<(Daemon, Vec<std::net::TcpStream>, f64), Box<dyn Error>> {
    let started = Instant::now();
    let daemon = Daemon::spawn(bin)?;
    let mut conns = daemon.connect(workload::CONNECTIONS)?;
    let requests = plan.warm_up();
    let mut warm = Fixed {
        requests: &requests,
        next: 0,
        errors: Vec::new(),
    };
    let phase = drive(
        &mut conns,
        plan.workload.depth(),
        Duration::from_secs(120),
        DRAIN_GRACE,
        &mut warm,
    )?;
    let took = started.elapsed().as_secs_f64();
    if phase.failed() > 0 || !warm.errors.is_empty() {
        return Err(format!(
            "warm-up failed: {} of {} requests not answered 200 ({:?})",
            phase.failed(),
            phase.sent,
            warm.errors.first()
        )
        .into());
    }
    Ok((daemon, conns, took))
}

/// Everything the e2e phase produced.
struct Run {
    phase: Phase,
    setups: Vec<f64>,
    rss_mb: f64,
    counters: Counters,
    queue_samples: Vec<f64>,
    rtt_us: Vec<f64>,
    errors: Vec<String>,
}

fn run_e2e(bin: &PathBuf, plan: &Plan, seconds: u64, traced: bool) -> Result<Run, Box<dyn Error>> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        let (daemon, conns, took) = set_up(bin, plan)?;
        setups.push(took);
        if i + 1 < SETUPS {
            drop(conns);
            daemon.shutdown()?;
        } else {
            live = Some((daemon, conns));
        }
    }
    let (daemon, mut conns) = live.expect("at least one set-up");
    let before = daemon.metrics()?;
    let mut measured = Measured {
        plan,
        next: 0,
        kept: Vec::new(),
        errors: Vec::new(),
        pid: daemon.pid(),
        answers: 0,
        rss_mb: None,
    };
    // In the traced run a side thread samples the pool's queue depth over
    // a third connection; the measured run has no such observer.
    let sampling = AtomicBool::new(true);
    let (phase, queue_samples) = std::thread::scope(|s| {
        let sampler = traced.then(|| {
            s.spawn(|| {
                let mut samples = Vec::new();
                while sampling.load(Ordering::Relaxed) {
                    if let Ok(c) = daemon.metrics() {
                        samples.push(c.queue_depth);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                samples
            })
        });
        let pinned = load::pin_to_last_cpu();
        let phase = drive(
            &mut conns,
            plan.workload.depth(),
            Duration::from_secs(seconds),
            DRAIN_GRACE,
            &mut measured,
        );
        if let Some(old) = &pinned {
            load::unpin(old);
        }
        sampling.store(false, Ordering::Relaxed);
        let samples = sampler.map_or_else(Vec::new, |h| h.join().expect("sampler thread"));
        (phase, samples)
    });
    let phase = phase?;
    let counters = daemon.metrics()?.since(&before);
    let rss_mb = match measured.rss_mb {
        Some(mb) => mb,
        None => {
            eprintln!(
                "warning: fewer than {} answers; peak RSS read at the end",
                plan.workload.rss_after()
            );
            daemon::peak_rss_mb(daemon.pid())?
        }
    };
    let rtt_us = if traced {
        round_trips(&daemon, &plan.hot[0], 200)?
    } else {
        Vec::new()
    };
    drop(conns);
    daemon.shutdown()?;
    let mut errors = measured.errors;
    errors.extend(check_kept(plan, &measured.kept));
    Ok(Run {
        phase,
        setups,
        rss_mb,
        counters,
        queue_samples,
        rtt_us,
        errors,
    })
}

/// Depth-one round trips of one request on one `Client` connection,
/// after one untimed send that caches it.
fn round_trips(daemon: &Daemon, req: &Request, n: usize) -> Result<Vec<f64>, Box<dyn Error>> {
    let mut client = lis_server::Client::connect(daemon.addr)?;
    let path = format!("/{}", req.route.name());
    client.request("POST", &path, &req.body)?;
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let resp = client.request("POST", &path, &req.body)?;
            if resp.status != 200 {
                return Err(format!("round trip answered {}", resp.status).into());
            }
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

/// The off-the-clock half of the correctness gate.
fn check_kept(plan: &Plan, kept: &[(u64, Vec<u8>)]) -> Vec<String> {
    let threads = daemon::WORKERS;
    match plan.workload {
        Workload::ColdSolve => {
            let pool = plan.cold.as_ref().expect("cold pool");
            gate::check_all(kept, threads, |(tag, body)| {
                gate::check_cold(pool, *tag, body)
            })
        }
        Workload::SweepStream => gate::check_all(kept, threads, |(tag, body)| {
            let sample =
                (tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize % workload::SWEEP_POINTS;
            gate::check_sweep(plan.seed, *tag, body, sample)
        }),
        _ => Vec::new(),
    }
}

fn ms(us: f64) -> f64 {
    us / 1000.0
}

fn end_to_end(run: &Run) -> Result<Report, String> {
    let phase = &run.phase;
    let tail = stats::TAIL_PERCENTILE;
    let slice_s = phase.window.as_secs_f64() / stats::SLICES as f64;
    let (mut rate, mut p50, mut p_tail, mut first) = (vec![], vec![], vec![], vec![]);
    for slice in stats::slices(&phase.done_s, slice_s, stats::SLICES) {
        if slice.is_empty() {
            return Err("a slice of the window completed no request".into());
        }
        let mut lat: Vec<f64> = slice.iter().map(|&i| phase.latency_us[i]).collect();
        lat.sort_by(f64::total_cmp);
        if !stats::tail_supported(lat.len(), tail) {
            eprintln!(
                "warning: a slice has {} samples, too few for p{tail} to have {} beyond it",
                lat.len(),
                stats::MIN_BEYOND
            );
        }
        let firsts: Vec<f64> = slice.iter().map(|&i| phase.first_row_us[i]).collect();
        rate.push(lat.len() as f64 / slice_s);
        p50.push(ms(median(&lat).expect("non-empty")));
        p_tail.push(ms(percentile(&lat, tail)));
        first.push(ms(median(&firsts).expect("non-empty")));
    }
    let mid = |xs: &[f64]| median(xs).expect("slices exist");
    let mut r = Report::new();
    r.add("throughput_rps", mid(&rate));
    r.add("latency_p50_ms", mid(&p50));
    r.add("latency_tail_ms", mid(&p_tail));
    r.add("first_row_ms", mid(&first));
    r.add("setup_s", mid(&run.setups));
    r.add("server_rss_mb", run.rss_mb);
    Ok(r)
}

/// Hill's closed-form checks that need only the e2e run (reported, not
/// gating): Little's law on the closed loop.
fn little(plan: &Plan, phase: &Phase) {
    let mean_latency_s =
        phase.latency_us.iter().sum::<f64>() / phase.latency_us.len().max(1) as f64 / 1e6;
    let predicted = phase.throughput() * mean_latency_s;
    eprintln!(
        "hill: little {}: measured in-flight {:.3}, throughput x mean latency {:.3} (ratio {:.3})",
        plan.workload.name(),
        phase.mean_in_flight,
        predicted,
        predicted / phase.mean_in_flight
    );
}

/// Requests replayed per layer in the traced run.
fn replay_set(plan: &Plan) -> Vec<Request> {
    match plan.workload {
        Workload::HotVariant => (0..256).map(|k| plan.request(k)).collect(),
        Workload::ColdSolve => (0..64).map(|k| plan.request(k)).collect(),
        Workload::SweepStream => (0..4).map(|k| plan.request(k)).collect(),
    }
}

/// The workload's distinct designs with the route each is solved on.
fn solve_set(plan: &Plan) -> Vec<(Route, lis_core::LisSystem)> {
    let both = |sys: lis_core::LisSystem| [(Route::Analyze, sys.clone()), (Route::Qs, sys)];
    match plan.workload {
        Workload::HotVariant => workload::hot_designs(plan.seed)
            .into_iter()
            .flat_map(both)
            .collect(),
        Workload::ColdSolve => {
            let pool = plan.cold.as_ref().expect("cold pool");
            (0..64)
                .map(|k| (ColdPool::route(k), pool.design(k)))
                .collect()
        }
        Workload::SweepStream => (0..8)
            .flat_map(|k| both(workload::sweep_design(plan.seed, k).0))
            .collect(),
    }
}

/// Replays `requests` through the loop-side path; hot-variant's cache
/// is filled first, so the traced pass sees the hits the daemon sees.
fn replay_path(plan: &Plan, requests: &[Request], tr: &mut Tracer) -> Duration {
    let cache = ResultCache::new(4096);
    let metrics = Metrics::new();
    if plan.workload == Workload::HotVariant {
        let mut off = Tracer::new(false);
        for (i, req) in plan.hot.iter().enumerate() {
            trace::replay_request(&mut off, i as u64, req, &cache, &metrics);
        }
    }
    let started = Instant::now();
    for (i, req) in requests.iter().enumerate() {
        std::hint::black_box(trace::replay_request(tr, i as u64, req, &cache, &metrics));
    }
    started.elapsed()
}

fn spans_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench")
}

fn per_layer(plan: &Plan, run: &Run) -> Result<Report, Box<dyn Error>> {
    let phase = &run.phase;
    let requests = replay_set(plan);

    // Loop-side path, and the cost of tracing it.
    let mut path = Tracer::new(true);
    replay_path(plan, &requests, &mut path);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..3 {
        plain.push(replay_path(plan, &requests, &mut Tracer::new(false)).as_secs_f64());
        traced.push(replay_path(plan, &requests, &mut Tracer::new(true)).as_secs_f64());
    }

    // Solver side on the workload's designs.
    let designs = solve_set(plan);
    let mut solve = Tracer::new(true);
    let solve_cache = ResultCache::new(4096);
    for (i, (route, sys)) in designs.iter().enumerate() {
        trace::replay_solve(&mut solve, i as u64, *route, sys, &solve_cache);
    }
    let execute = solve.durations_us("jobs.execute");
    let render = render_times(&solve);

    // MCM engines on the workload's random designs and the ring family.
    let mut mcm = Tracer::new(true);
    for (i, (_, sys)) in designs.iter().step_by(2).take(16).enumerate() {
        trace::replay_mcm(&mut mcm, i as u64, sys, false, 3);
    }
    for r in (0..workload::RINGS).step_by(8) {
        trace::replay_mcm(&mut mcm, r, &workload::ring_design(plan.seed, r), true, 3);
    }

    // Sweep planning, warm evaluation and chunking.
    let mut sweep = Tracer::new(true);
    let (mut hits, mut misses, mut points) = (0, 0, 0);
    for k in 0..4 {
        let req = workload::sweep_request(plan.seed, k);
        let json = Json::parse(std::str::from_utf8(&req.body)?)?;
        let (netlist, kind) = RequestKind::decode("sweep", &json)?;
        let RequestKind::Sweep { spec } = kind else {
            return Err("sweep request decoded to another kind".into());
        };
        let times = trace::replay_sweep(&mut sweep, k, &parse_netlist(&netlist)?, &spec);
        hits += times.warm_hits;
        misses += times.warm_misses;
        points += times.points;
    }
    let sweep_run_us: f64 = sweep.durations_us("sweep.run").iter().sum();

    // Queue wait at the workload's in-flight depth.
    let in_flight = workload::CONNECTIONS * plan.workload.depth();
    let waits = trace::replay_pool(
        daemon::WORKERS,
        in_flight,
        &designs,
        (4 * in_flight).max(64),
    );

    let dir = spans_dir();
    std::fs::create_dir_all(&dir)?;
    for (group, tr) in [
        ("path", &path),
        ("solve", &solve),
        ("mcm", &mcm),
        ("sweep", &sweep),
    ] {
        tr.write(&dir.join(format!(
            "spans-{}-{}-{group}.tsv",
            plan.workload.name(),
            plan.seed
        )))?;
    }

    let c = &run.counters;
    let answered = (phase.sent - phase.failed()).max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let mut r = Report::new();
    r.add("net.rtt_us", med(&run.rtt_us));
    r.add("http.read_request_us", path.median_us("http.read_request"));
    r.add(
        "http.render_response_us",
        path.median_us("http.render_response"),
    );
    r.add("net.wakeups_per_req", c.wakeups / answered);
    r.add("net.pipeline_depth_mean", ratio(c.depth_sum, c.depth_count));
    r.add("wire.json_parse_us", path.median_us("wire.json_parse"));
    r.add("jobs.decode_us", path.median_us("jobs.decode"));
    r.add(
        "core.parse_netlist_us",
        path.median_us("core.parse_netlist"),
    );
    r.add(
        "core.canonical_hash_us",
        path.median_us("core.canonical_hash"),
    );
    r.add("core.explain_us", solve.median_us("core.explain"));
    r.add("cache.get_us", path.median_us("cache.get"));
    r.add("cache.insert_us", solve.median_us("cache.insert"));
    r.add(
        "cache.hit_ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
    );
    r.add("pool.queue_wait_us", med(&waits));
    r.add(
        "pool.queue_depth_mean",
        run.queue_samples.iter().sum::<f64>() / run.queue_samples.len().max(1) as f64,
    );
    r.add("pool.shed_total", c.shed);
    r.add("mcm.howard_random_us", mcm.median_us("mcm.howard.random"));
    r.add("mcm.karp_random_us", mcm.median_us("mcm.karp.random"));
    r.add("mcm.howard_ring_us", mcm.median_us("mcm.howard.ring"));
    r.add("mcm.karp_ring_us", mcm.median_us("mcm.karp.ring"));
    r.add(
        "mcm.warm_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    r.add("qs.solve_us", solve.median_us("qs.solve"));
    r.add("jobs.execute_us", med(&execute));
    r.add("jobs.render_us", med(&render));
    r.add("wire.serialize_us", solve.median_us("wire.serialize"));
    r.add("sweep.plan_us", sweep.median_us("sweep.plan"));
    r.add("sweep.us_per_point", ratio(sweep_run_us, points as f64));
    r.add("sweep.first_row_us", sweep.median_us("sweep.first_row"));
    r.add("http.chunk_push_us", sweep.median_us("http.chunk_push"));

    // The ledger: the e2e cost of one request on the workload's busy
    // threads, minus the in-process spans of the path it takes. Costs add,
    // so the ledger sums means, not medians.
    let path_mean = |names: &[&str]| names.iter().map(|n| path.mean_us(n)).sum::<f64>();
    let decode = [
        "http.read_request",
        "wire.json_parse",
        "jobs.decode",
        "core.parse_netlist",
        "core.canonical_hash",
        "cache.get",
        "http.render_response",
    ];
    let (busy, attributed) = match plan.workload {
        Workload::HotVariant => (1.0, path_mean(&decode)),
        Workload::ColdSolve => (
            daemon::WORKERS as f64,
            path_mean(&decode) + path_mean(&["jobs.execute", "wire.serialize", "cache.insert"]),
        ),
        Workload::SweepStream => (
            daemon::WORKERS as f64,
            path_mean(&decode)
                + sweep.mean_us("sweep.plan")
                + sweep.mean_us("sweep.run")
                + sweep.mean_us("http.chunk_push") * workload::SWEEP_POINTS as f64,
        ),
    };
    let demand_us = busy / phase.throughput() * 1e6;
    r.add("ledger.unattributed_us", demand_us - attributed);
    r.add("trace.overhead_ratio", ratio(med(&traced), med(&plain)));

    // Hill's checks that need the replay (reported, not gating).
    let lambda = phase.throughput();
    match plan.workload {
        Workload::HotVariant => eprintln!(
            "hill: bottleneck hot-variant: throughput {lambda:.0}/s vs 1/loop-span {:.0}/s (ratio {:.3}, must be <= 1)",
            1e6 / path_mean(&decode),
            lambda * path_mean(&decode) / 1e6
        ),
        Workload::ColdSolve => {
            let depth = r.get("pool.queue_depth_mean");
            let mean_wait = waits.iter().sum::<f64>() / waits.len().max(1) as f64;
            eprintln!(
                "hill: little cold-solve queue: sampled depth {depth:.3} vs throughput x replayed mean wait {:.3}",
                lambda * mean_wait / 1e6
            );
        }
        _ => {}
    }
    let (howard, karp) = (r.get("mcm.howard_ring_us"), r.get("mcm.karp_ring_us"));
    eprintln!(
        "ledger: ring d[G] n~300: howard {howard:.1} us, karp {karp:.1} us, karp/howard {:.2}x",
        karp / howard
    );
    eprintln!(
        "ledger: {}: demand {demand_us:.1} us/request on {busy} busy thread(s), attributed {attributed:.1} us",
        plan.workload.name()
    );
    Ok(r)
}

/// Per-request `jobs.execute` minus its analysis or queue-sizing core.
fn render_times(solve: &Tracer) -> Vec<f64> {
    let mut out = Vec::new();
    let execute = solve.spans_named("jobs.execute");
    for (request, exec) in execute {
        let core = solve
            .spans_named("core.explain")
            .chain(solve.spans_named("qs.solve"))
            .find(|(r, _)| *r == request)
            .map_or(0.0, |(_, d)| d);
        out.push((exec - core).max(0.0));
    }
    out
}

fn run() -> Result<(), Box<dyn Error>> {
    let args = parse_args()?;
    let bin = daemon::build()?;
    let plan = Plan::new(args.workload, args.seed)?;
    let run = run_e2e(&bin, &plan, args.seconds, args.trace)?;
    little(&plan, &run.phase);
    let phase = &run.phase;
    eprintln!(
        "{}: sent {}, ok {}, shed {}, timed out {}, other {}, transport {}, unanswered {}, failed_ratio {}",
        plan.workload.name(),
        phase.sent,
        phase.ok,
        phase.shed,
        phase.timed_out,
        phase.other_status,
        phase.transport,
        phase.unanswered,
        phase.failed() as f64 / phase.sent.max(1) as f64
    );
    for e in &run.errors {
        eprintln!("gate: {e}");
    }
    let (report, catalogue) = if args.trace {
        (per_layer(&plan, &run)?, &report::PER_LAYER[..])
    } else {
        (end_to_end(&run)?, &report::END_TO_END[..])
    };
    let expected: Vec<&str> = catalogue.iter().map(|&(n, _)| n).collect();
    if report.names() != expected {
        return Err(format!("report lists {:?}, catalogue {expected:?}", report.names()).into());
    }
    println!(
        "{}",
        report.to_json(run.errors.is_empty(), phase.sent, phase.failed())
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
