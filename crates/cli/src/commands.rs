//! Command implementations for the `lis` binary.

use std::error::Error;
use std::fs;

use lis_core::{parse_netlist, practical_mst, to_netlist, LisModel, LisSystem, McmEngine};
use lis_qs::{solve, verify_solution, Algorithm, QsConfig};
use lis_rsopt::{equalize_dag, exhaustive_insertion, greedy_insertion};
use lis_schedule::{burst_report, BurstParams, BurstReport, Schedule};
use lis_sim::{
    CompiledProgram, CompiledSim, CoreModel, LisSimulator, McKernel, Passthrough, QueueMode,
    StallSpec,
};
use lis_sweep::{
    pareto_front, BurstAxis, CapacityAxis, PointReport, StallAxis, StationGoal, Sweep, SweepMode,
    SweepSpec,
};

type CliResult = Result<(), Box<dyn Error>>;

const USAGE: &str = "\
usage: lis [--threads N] <command> ...

analysis commands (local, netlist from a file):
  analyze  <netlist> [--schedule] [--burst OFF,ON [--burst-trials N]
                     [--burst-cycles N] [--burst-seed S]]
                                         throughput analysis + topology class;
                                         --schedule derives the explicit
                                         periodic firing schedule (balanced
                                         binary words) and per-channel queue
                                         occupancy bounds; --burst runs the
                                         Monte-Carlo kernel under Markov
                                         on/off sources (OFF,ON per-mille
                                         switch probabilities) and checks the
                                         observed occupancy against the
                                         schedule caps
  qs       <netlist> [--exact] [--apply OUT]
  insert   <netlist> [--budget N] [--apply OUT]
  repair   <netlist> [--slot-cost X] [--station-cost Y] [--apply OUT]
  simulate <netlist> [--steps N] [--kernel reference|compiled]
                     [--trials N] [--seed S] [--stall P]
                                         cycle-accurate simulation; the
                                         compiled kernel adds Monte-Carlo
                                         mode: --trials N seeded trials
                                         (--seed S, default 0) under uniform
                                         stall probability P (--stall,
                                         default 0), 64 trials per machine
                                         word, reported against the θ bound
  sweep    <netlist> [--cap CH=V1,V2,..]... [--budget N] [--qs [--exact]]
                     [--stalls P1,P2,.. [--trials N] [--cycles N] [--seed S]]
                     [--bursts P1,P2,.. [--burst-on P]]
                                         design-space exploration: expand the
                                         capacity x station grid, evaluate
                                         every point on warm incremental
                                         solvers, and print the result table
                                         plus the Pareto front (throughput
                                         vs. total capacity vs. stations).
                                         --cap repeats per channel axis;
                                         --stalls adds seeded Monte-Carlo
                                         stall points (probability per mille);
                                         --bursts adds Markov on/off source
                                         points (OFF per-mille list, shared
                                         --burst-on / --trials / --cycles /
                                         --seed)
  vcd      <netlist> [--steps N]         waveform dump to stdout (GTKWave)
  dot      <netlist> [--doubled]

server commands (analysis as a service):
  serve  <addr> [--queue N] [--cache N] [--timeout-ms N] [--max-conns N]
                [--faults SPEC] [--store DIR [--store-cap N]]
                                         run the analysis daemon on addr
                                         (e.g. 127.0.0.1:7171): one readiness
                                         event loop holds every connection
                                         and hands work to the worker pool;
                                         --cache N bounds the result cache
                                         at N answers (default 4096, 0 turns
                                         caching off), each holding at most
                                         one copy of a request that repeated
                                         it, for exact-bytes replays;
                                         --faults (or
                                         the LIS_FAULTS env var) arms
                                         deterministic fault injection, e.g.
                                         panic:0.01,slow_read:5ms,truncate:0.02;
                                         --store spills answers to a durable
                                         content-addressed store in DIR and
                                         warm-loads it on startup (--store-cap
                                         bounds on-disk entries, default 65536)
  gateway <addr> [--shards N] [--join a,b,...] [--shard-threads T]
                 [--queue N] [--cache N] [--probe-ms N] [--no-hedge]
                 [--hedge-rate R] [--hedge-seed S] [--store DIR]
                 [--no-replicate]
                                         front a sharded cluster on addr:
                                         spawn and supervise N local shard
                                         daemons (default), or --join
                                         already-running daemons; requests
                                         route by rendezvous hashing with
                                         failover and (seeded) hedging;
                                         --store gives each spawned shard a
                                         durable result store under DIR (one
                                         subdirectory per shard name);
                                         answers replicate to the runner-up
                                         shard for warm failover reads unless
                                         --no-replicate
  client <addr> analyze|qs|insert|dot <netlist> [--exact] [--budget N] [--doubled]
                [--schedule] [--burst OFF,ON ...]
                                         run one request against a daemon or
                                         gateway (transient failures are
                                         retried; --retries N caps them,
                                         default 3); exits 2 on a 4xx
                                         answer, 3 on a 5xx answer
  client <addr> sweep <netlist> [sweep flags]
                                         run one design-space sweep against a
                                         daemon or gateway and print the
                                         streamed NDJSON rows; a shed sweep
                                         (503 with a retry hint) prints the
                                         Retry-After delay and exits 4
  client <addr> metrics                  print the Prometheus exposition
  client <addr> health                   print the /healthz readiness JSON
  client <addr> shutdown                 drain the daemon and stop it

global options:
  --threads N    worker threads for `serve` (its pool size) and the
                 default `--shard-threads` of `gateway`
                 (default: LIS_THREADS env var, then available parallelism)
  --engine E     MCM algorithm for throughput analysis: howard (default),
                 karp, or lawler; all three give identical answers.
                 `client` forwards the choice to the daemon
";

/// Parses the command line and runs the selected command.
pub fn dispatch(args: &[String]) -> CliResult {
    let args = apply_threads_flag(args)?;
    let (args, engine) = apply_engine_flag(&args)?;
    let Some(command) = args.first() else {
        return Err(USAGE.into());
    };
    match command.as_str() {
        "serve" => return serve(&args[1..]),
        "gateway" => return gateway_cmd(&args[1..]),
        "client" => return client_cmd(&args[1..], engine),
        _ => {}
    }
    let Some(path) = args.get(1) else {
        return Err(format!("missing netlist path\n{USAGE}").into());
    };
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let sys = parse_netlist(&text)?;
    let rest = &args[2..];
    match command.as_str() {
        "analyze" => analyze(&sys, rest, engine),
        "qs" => qs(&sys, rest, engine),
        "insert" => insert(&sys, rest),
        "repair" => repair_cmd(&sys, rest),
        "simulate" => simulate(&sys, rest),
        "sweep" => sweep_cmd(&sys, rest, engine),
        "vcd" => vcd(&sys, rest),
        "dot" => dot(&sys, rest),
        other => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    }
}

/// Strips a global `--threads N` flag (anywhere on the line) and applies it
/// process-wide via [`lis_par::set_max_threads`].
fn apply_threads_flag(args: &[String]) -> Result<Vec<String>, Box<dyn Error>> {
    let mut out = Vec::with_capacity(args.len());
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--threads" {
            let v = iter.next().ok_or("--threads needs a value")?;
            let n: usize = v
                .parse()
                .map_err(|e| format!("--threads: {e} (got {v:?})"))?;
            if n == 0 {
                return Err("--threads must be at least 1".into());
            }
            lis_par::set_max_threads(n);
        } else {
            out.push(a.clone());
        }
    }
    Ok(out)
}

/// Strips a global `--engine NAME` flag (anywhere on the line) and returns
/// the selected MCM engine, defaulting to [`McmEngine::Howard`].
fn apply_engine_flag(args: &[String]) -> Result<(Vec<String>, McmEngine), Box<dyn Error>> {
    let mut out = Vec::with_capacity(args.len());
    let mut engine = McmEngine::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--engine" {
            let v = iter.next().ok_or("--engine needs a value")?;
            engine = v.parse().map_err(|e| format!("--engine: {e}"))?;
        } else {
            out.push(a.clone());
        }
    }
    Ok((out, engine))
}

fn serve(rest: &[String]) -> CliResult {
    let Some(addr) = rest.first() else {
        return Err(format!("serve needs a listen address\n{USAGE}").into());
    };
    let rest = &rest[1..];
    // --faults wins over the LIS_FAULTS environment variable.
    let fault_spec = Some(option(rest, "--faults", String::new())?)
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("LIS_FAULTS").ok().filter(|s| !s.is_empty()));
    let faults = fault_spec
        .as_deref()
        .map(|spec| lis_server::FaultPlan::parse(spec).map(std::sync::Arc::new))
        .transpose()
        .map_err(|e| format!("--faults: {e}"))?;
    let store_dir = Some(option(rest, "--store", String::new())?)
        .filter(|s| !s.is_empty())
        .map(std::path::PathBuf::from);
    let config = lis_server::ServerConfig {
        workers: lis_par::max_threads(),
        queue_capacity: option(rest, "--queue", 256usize)?,
        cache_capacity: option(rest, "--cache", 4096usize)?,
        request_timeout: std::time::Duration::from_millis(option(rest, "--timeout-ms", 30_000u64)?),
        max_connections: option(rest, "--max-conns", 1024usize)?,
        faults,
        store_dir,
        store_capacity: option(rest, "--store-cap", 65_536usize)?,
        ..lis_server::ServerConfig::default()
    };
    let workers = config.workers;
    let chaos = config.faults.is_some();
    let durable = config.store_dir.is_some();
    let server = lis_server::Server::bind(addr.as_str(), config)?;
    println!(
        "lis-server listening on {} ({} worker(s){}{}; POST /shutdown to stop)",
        server.local_addr()?,
        workers,
        if durable { "; durable store armed" } else { "" },
        if chaos { "; FAULT INJECTION ARMED" } else { "" }
    );
    server.run()?;
    println!("lis-server drained and stopped");
    Ok(())
}

/// A daemon answered with a non-200 status. Carried as its own error type
/// so `main` can map the status class to a distinct exit code (2 for 4xx,
/// 3 for 5xx) — shell scripts and CI gate on it.
#[derive(Debug)]
pub struct StatusError {
    /// The HTTP status the daemon answered with.
    pub status: u16,
    /// Set when a sweep was shed (503 with a retry hint in the body):
    /// `main` maps it to exit code 4 so callers back off and retry
    /// instead of treating the service as down.
    pub retry_after_ms: Option<u64>,
}

impl std::fmt::Display for StatusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server answered {}", self.status)
    }
}

impl Error for StatusError {}

fn gateway_cmd(rest: &[String]) -> CliResult {
    use lis_gateway::{Backends, ChildSpec, Gateway, GatewayConfig, HedgeConfig};
    let Some(addr) = rest.first() else {
        return Err(format!("gateway needs a listen address\n{USAGE}").into());
    };
    let rest = &rest[1..];
    let join = option(rest, "--join", String::new())?;
    let (backends, shard_count) = if join.is_empty() {
        let count: usize = option(rest, "--shards", 3usize)?;
        let spec = ChildSpec {
            program: std::env::current_exe()?,
            workers: option(rest, "--shard-threads", lis_par::max_threads())?,
            queue_capacity: option(rest, "--queue", 256usize)?,
            cache_capacity: option(rest, "--cache", 4096usize)?,
            store_dir: Some(option(rest, "--store", String::new())?)
                .filter(|s| !s.is_empty())
                .map(std::path::PathBuf::from),
        };
        (Backends::Spawn { spec, count }, count)
    } else {
        let addrs = join
            .split(',')
            .map(|a| a.trim().parse())
            .collect::<Result<Vec<std::net::SocketAddr>, _>>()
            .map_err(|e| format!("--join: {e}"))?;
        let count = addrs.len();
        (Backends::Join(addrs), count)
    };
    let hedge = if flag(rest, "--no-hedge") {
        None
    } else {
        let defaults = HedgeConfig::default();
        Some(HedgeConfig {
            rate: option(rest, "--hedge-rate", defaults.rate)?,
            seed: option(rest, "--hedge-seed", defaults.seed)?,
            ..defaults
        })
    };
    let hedging = hedge.is_some();
    let config = GatewayConfig {
        probe_interval: std::time::Duration::from_millis(option(rest, "--probe-ms", 150u64)?),
        hedge,
        replicate: !flag(rest, "--no-replicate"),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind(addr.as_str(), backends, config)?;
    println!(
        "lis-gateway listening on {} ({} shard(s){}; POST /shutdown to stop)",
        gateway.local_addr()?,
        shard_count,
        if hedging { "; hedging armed" } else { "" }
    );
    gateway.run()?;
    println!("lis-gateway drained and stopped");
    Ok(())
}

fn client_cmd(rest: &[String], engine: McmEngine) -> CliResult {
    use lis_server::{Json, RetryPolicy, RetryingClient};
    let (Some(addr), Some(cmd)) = (rest.first(), rest.get(1)) else {
        return Err(format!("client needs an address and a command\n{USAGE}").into());
    };
    let retries: u32 = option(rest, "--retries", 3u32)?;
    let policy = RetryPolicy {
        max_attempts: retries.saturating_add(1),
        ..RetryPolicy::default()
    };
    let mut client = RetryingClient::connect(addr.as_str(), policy)?;
    match cmd.as_str() {
        "metrics" => {
            print!("{}", client.metrics()?);
            Ok(())
        }
        "health" => {
            let response = client.request("GET", "/healthz", b"")?;
            println!("{}", String::from_utf8_lossy(&response.body));
            if response.status != 200 {
                return Err(Box::new(StatusError {
                    status: response.status,
                    retry_after_ms: None,
                }));
            }
            Ok(())
        }
        "shutdown" => {
            let status = client.shutdown()?;
            if status != 200 {
                return Err(Box::new(StatusError {
                    status,
                    retry_after_ms: None,
                }));
            }
            println!("server is draining");
            Ok(())
        }
        route @ ("analyze" | "qs" | "insert" | "dot") => {
            let Some(path) = rest.get(2) else {
                return Err(format!("client {route} needs a netlist path\n{USAGE}").into());
            };
            let netlist =
                fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let flags = &rest[3..];
            let mut options: Vec<(String, Json)> = Vec::new();
            if matches!(route, "analyze" | "qs") && engine != McmEngine::default() {
                options.push(("engine".into(), Json::Str(engine.to_string())));
            }
            if flag(flags, "--exact") {
                options.push(("exact".into(), Json::Bool(true)));
            }
            if flag(flags, "--doubled") {
                options.push(("doubled".into(), Json::Bool(true)));
            }
            if let Some(i) = flags.iter().position(|a| a == "--budget") {
                let v = flags.get(i + 1).ok_or("--budget needs a value")?;
                let n: u64 = v.parse().map_err(|e| format!("--budget: {e}"))?;
                options.push(("budget".into(), Json::Num(n as f64)));
            }
            if route == "analyze" {
                if flag(flags, "--schedule") {
                    options.push(("schedule".into(), Json::Bool(true)));
                }
                if let Some(p) = parse_burst_params(flags)? {
                    options.push((
                        "burst".into(),
                        Json::Obj(vec![
                            (
                                "off_per_mille".into(),
                                Json::Num(f64::from(p.off_per_mille)),
                            ),
                            ("on_per_mille".into(), Json::Num(f64::from(p.on_per_mille))),
                            ("trials".into(), Json::Num(f64::from(p.trials))),
                            ("cycles".into(), Json::Num(p.cycles as f64)),
                            ("seed".into(), Json::Num(p.seed as f64)),
                        ]),
                    ));
                }
            }
            let options = if options.is_empty() {
                Json::Null
            } else {
                Json::Obj(options)
            };
            let (status, body) = client.analysis(route, &netlist, options)?;
            println!("{body}");
            if status != 200 {
                return Err(Box::new(StatusError {
                    status,
                    retry_after_ms: None,
                }));
            }
            Ok(())
        }
        "sweep" => {
            let Some(path) = rest.get(2) else {
                return Err(format!("client sweep needs a netlist path\n{USAGE}").into());
            };
            let netlist =
                fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let flags = parse_sweep_flags(&rest[3..])?;
            let (status, body) = client.sweep(&netlist, sweep_options(&flags, engine))?;
            let text = String::from_utf8_lossy(&body);
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
            if status != 200 {
                // The retry hint rides in the JSON body (intermediaries
                // relay status + body but may drop the Retry-After header).
                let parsed = Json::parse(text.trim()).ok();
                let retry_after_ms = parsed.as_ref().and_then(|j| {
                    j.get("error")
                        .unwrap_or(j)
                        .get("retry_after_ms")
                        .and_then(Json::as_u64)
                });
                if let Some(ms) = retry_after_ms {
                    eprintln!("sweep shed: all sweep slots are busy; retry after {ms} ms");
                }
                return Err(Box::new(StatusError {
                    status,
                    retry_after_ms,
                }));
            }
            Ok(())
        }
        other => Err(format!("unknown client command {other:?}\n{USAGE}").into()),
    }
}

fn flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

fn option<T: std::str::FromStr>(rest: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match rest.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => {
            let v = rest
                .get(i + 1)
                .ok_or_else(|| format!("{name} needs a value"))?;
            v.parse().map_err(|e| format!("{name}: {e}"))
        }
    }
}

/// Sweep grid parameters shared by the local `sweep` command and
/// `client sweep` — parsed once, then lowered to a [`SweepSpec`] (local)
/// or the `/sweep` options JSON (remote).
struct SweepFlags {
    qs: bool,
    exact: bool,
    caps: Vec<(usize, Vec<u64>)>,
    budget: Option<u32>,
    stalls: Option<StallFlags>,
    bursts: Option<BurstAxis>,
}

struct StallFlags {
    per_mille: Vec<u32>,
    trials: u32,
    cycles: u64,
    seed: u64,
}

/// Collects every value of a repeatable `NAME VALUE` flag.
fn option_all<'a>(rest: &'a [String], name: &str) -> Result<Vec<&'a str>, String> {
    let mut out = Vec::new();
    let mut iter = rest.iter();
    while let Some(a) = iter.next() {
        if a == name {
            out.push(
                iter.next()
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .as_str(),
            );
        }
    }
    Ok(out)
}

/// Parses one `--cap CHANNEL=V1,V2,...` axis.
fn parse_cap_axis(s: &str) -> Result<(usize, Vec<u64>), String> {
    let (ch, vals) = s
        .split_once('=')
        .ok_or_else(|| format!("--cap wants CHANNEL=V1,V2,... (got {s:?})"))?;
    let channel = ch
        .trim()
        .parse()
        .map_err(|e| format!("--cap channel: {e}"))?;
    let values = vals
        .split(',')
        .map(|v| v.trim().parse().map_err(|e| format!("--cap value: {e}")))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok((channel, values))
}

fn parse_sweep_flags(rest: &[String]) -> Result<SweepFlags, Box<dyn Error>> {
    let caps = option_all(rest, "--cap")?
        .into_iter()
        .map(parse_cap_axis)
        .collect::<Result<Vec<_>, _>>()?;
    let budget = if flag(rest, "--budget") {
        Some(option(rest, "--budget", 0u32)?)
    } else {
        None
    };
    let stalls = match rest.iter().position(|a| a == "--stalls") {
        None => None,
        Some(i) => {
            let list = rest.get(i + 1).ok_or("--stalls needs a value")?;
            let per_mille = list
                .split(',')
                .map(|v| v.trim().parse().map_err(|e| format!("--stalls: {e}")))
                .collect::<Result<Vec<u32>, String>>()?;
            Some(StallFlags {
                per_mille,
                trials: option(rest, "--trials", 64u32)?,
                cycles: option(rest, "--cycles", 10_000u64)?,
                seed: option(rest, "--seed", 0u64)?,
            })
        }
    };
    let bursts = match rest.iter().position(|a| a == "--bursts") {
        None => None,
        Some(i) => {
            let list = rest.get(i + 1).ok_or("--bursts needs a value")?;
            let off_per_mille = list
                .split(',')
                .map(|v| v.trim().parse().map_err(|e| format!("--bursts: {e}")))
                .collect::<Result<Vec<u32>, String>>()?;
            Some(BurstAxis {
                off_per_mille,
                on_per_mille: option(rest, "--burst-on", 300u32)?,
                trials: option(rest, "--trials", 64u32)?,
                cycles: option(rest, "--cycles", 10_000u64)?,
                seed: option(rest, "--seed", 0u64)?,
            })
        }
    };
    Ok(SweepFlags {
        qs: flag(rest, "--qs"),
        exact: flag(rest, "--exact"),
        caps,
        budget,
        stalls,
        bursts,
    })
}

impl SweepFlags {
    fn to_spec(&self, engine: McmEngine) -> SweepSpec {
        let mut spec = SweepSpec::analyze();
        spec.engine = engine;
        if self.qs {
            spec.mode = SweepMode::Qs { exact: self.exact };
        }
        spec.capacities = self
            .caps
            .iter()
            .map(|(channel, values)| CapacityAxis {
                channel: *channel,
                values: values.clone(),
            })
            .collect();
        if let Some(b) = self.budget {
            spec.stations = StationGoal::Budget(b);
        }
        spec.stalls = self.stalls.as_ref().map(|s| StallAxis {
            per_mille: s.per_mille.clone(),
            trials: s.trials,
            cycles: s.cycles,
            seed: s.seed,
        });
        spec.bursts = self.bursts.clone();
        spec
    }
}

/// Lowers the parsed flags to the `/sweep` options envelope the daemon's
/// decoder expects (`crates/server/src/jobs.rs`).
fn sweep_options(flags: &SweepFlags, engine: McmEngine) -> lis_server::Json {
    use lis_server::Json;
    let mut o: Vec<(String, Json)> = Vec::new();
    if engine != McmEngine::default() {
        o.push(("engine".into(), Json::Str(engine.to_string())));
    }
    if flags.qs {
        o.push(("mode".into(), Json::str("qs")));
        if flags.exact {
            o.push(("exact".into(), Json::Bool(true)));
        }
    }
    if !flags.caps.is_empty() {
        let axes = flags
            .caps
            .iter()
            .map(|(c, vs)| {
                Json::Obj(vec![
                    ("channel".into(), Json::Num(*c as f64)),
                    (
                        "values".into(),
                        Json::Arr(vs.iter().map(|v| Json::Num(*v as f64)).collect()),
                    ),
                ])
            })
            .collect();
        o.push(("capacities".into(), Json::Arr(axes)));
    }
    if let Some(b) = flags.budget {
        o.push(("budget".into(), Json::Num(f64::from(b))));
    }
    if let Some(s) = &flags.stalls {
        o.push((
            "stalls".into(),
            Json::Obj(vec![
                (
                    "per_mille".into(),
                    Json::Arr(
                        s.per_mille
                            .iter()
                            .map(|p| Json::Num(f64::from(*p)))
                            .collect(),
                    ),
                ),
                ("trials".into(), Json::Num(f64::from(s.trials))),
                ("cycles".into(), Json::Num(s.cycles as f64)),
                ("seed".into(), Json::Num(s.seed as f64)),
            ]),
        ));
    }
    if let Some(b) = &flags.bursts {
        o.push((
            "bursts".into(),
            Json::Obj(vec![
                (
                    "off_per_mille".into(),
                    Json::Arr(
                        b.off_per_mille
                            .iter()
                            .map(|p| Json::Num(f64::from(*p)))
                            .collect(),
                    ),
                ),
                ("on_per_mille".into(), Json::Num(f64::from(b.on_per_mille))),
                ("trials".into(), Json::Num(f64::from(b.trials))),
                ("cycles".into(), Json::Num(b.cycles as f64)),
                ("seed".into(), Json::Num(b.seed as f64)),
            ]),
        ));
    }
    if o.is_empty() {
        lis_server::Json::Null
    } else {
        Json::Obj(o)
    }
}

fn sweep_cmd(sys: &LisSystem, rest: &[String], engine: McmEngine) -> CliResult {
    let spec = parse_sweep_flags(rest)?.to_spec(engine);
    let sweep = Sweep::new(sys.clone(), spec)?;
    let (rows, summary) = sweep.evaluate();
    println!(
        "sweep: {} point(s) in {} station group(s), engine {engine}",
        summary.points, summary.groups
    );
    for row in &rows {
        let mut line = format!(
            "  point {:>3} | stations {} | capacity {:>4} | ",
            row.point, row.inserted, row.total_capacity
        );
        match &row.outcome {
            Ok(PointReport::Analyze(r)) => {
                line.push_str(&format!(
                    "practical MST {}{}",
                    r.practical,
                    if r.is_degraded() { " (degraded)" } else { "" }
                ));
            }
            Ok(PointReport::Qs(r)) => {
                line.push_str(&format!(
                    "qs target {} (+{} slot(s){})",
                    r.target,
                    r.total_extra,
                    if r.optimal { ", optimal" } else { "" }
                ));
            }
            Err(e) => line.push_str(&format!("error: {e}")),
        }
        for p in &row.sim {
            line.push_str(&format!(
                " | stall {:.3}: mean rate {:.4}",
                f64::from(p.per_mille) / 1000.0,
                p.mean_rate
            ));
        }
        for p in &row.burst {
            line.push_str(&format!(
                " | burst off {:.3}: mean rate {:.4}, peak occupancy {}",
                f64::from(p.off_per_mille) / 1000.0,
                p.mean_rate,
                p.peak_occupancy
            ));
        }
        println!("{line}");
    }
    let front = pareto_front(&rows);
    println!(
        "Pareto front (throughput vs. total capacity vs. stations), {} of {} point(s):",
        front.len(),
        rows.len()
    );
    for &i in &front {
        let row = &rows[i];
        let theta = row
            .throughput()
            .map_or_else(|| "-".to_string(), |r| r.to_string());
        println!(
            "  point {:>3}: throughput {theta}, total capacity {}, stations {}",
            row.point,
            row.capacity_cost(),
            row.inserted
        );
    }
    println!(
        "warm solver: {} memo hit(s), {} miss(es)",
        summary.warm_hits, summary.warm_misses
    );
    Ok(())
}

fn analyze(sys: &LisSystem, rest: &[String], engine: McmEngine) -> CliResult {
    print!("{sys}");
    let report = lis_core::explain_with(sys, engine);
    print!("{report}");
    if report.is_degraded() {
        for c in &report.bottleneck_queues {
            println!(
                "  bottleneck queue: channel {} -> {}",
                sys.block_name(sys.channel_from(*c)),
                sys.block_name(sys.channel_to(*c))
            );
        }
        println!("hint: run `lis qs` to size the queues or `lis insert` to place relay stations");
    } else {
        println!("no throughput degradation from backpressure");
    }
    if flag(rest, "--schedule") {
        print_schedule(sys, &Schedule::compute(sys, engine)?);
    }
    if let Some(params) = parse_burst_params(rest)? {
        print_burst(sys, &burst_report(sys, &params));
    }
    Ok(())
}

/// Parses the `--burst OFF,ON` Markov-source flag (probabilities per
/// mille) and its `--burst-trials/--burst-cycles/--burst-seed` companions.
fn parse_burst_params(rest: &[String]) -> Result<Option<BurstParams>, Box<dyn Error>> {
    let Some(i) = rest.iter().position(|a| a == "--burst") else {
        return Ok(None);
    };
    let v = rest.get(i + 1).ok_or("--burst needs a value")?;
    let (off, on) = v
        .split_once(',')
        .ok_or_else(|| format!("--burst wants OFF,ON per-mille probabilities (got {v:?})"))?;
    let defaults = BurstParams::default();
    let params = BurstParams {
        off_per_mille: off
            .trim()
            .parse()
            .map_err(|e| format!("--burst off: {e}"))?,
        on_per_mille: on.trim().parse().map_err(|e| format!("--burst on: {e}"))?,
        trials: option(rest, "--burst-trials", defaults.trials)?,
        cycles: option(rest, "--burst-cycles", defaults.cycles)?,
        seed: option(rest, "--burst-seed", defaults.seed)?,
    };
    if params.off_per_mille > 1000 || params.on_per_mille == 0 || params.on_per_mille > 1000 {
        return Err("--burst probabilities are per mille: OFF <= 1000, 1 <= ON <= 1000".into());
    }
    if params.trials == 0 || params.cycles == 0 {
        return Err("--burst-trials and --burst-cycles must be positive".into());
    }
    Ok(Some(params))
}

/// Prints a periodic firing schedule: the system throughput, one balanced
/// binary word per transition, and the per-channel occupancy bounds.
fn print_schedule(sys: &LisSystem, s: &Schedule) {
    println!(
        "schedule ({} engine): throughput {}, transient {} step(s), period {} step(s)",
        s.engine, s.throughput, s.transient, s.period
    );
    for t in &s.transitions {
        let word: String = t.word.iter().map(|&f| if f { '1' } else { '0' }).collect();
        let phase = t.phase.map_or_else(|| "-".to_string(), |p| p.to_string());
        println!(
            "  {:<12} rate {} ({} firing(s)/period)  word {word}  phase {phase}",
            t.name, t.rate, t.firings_per_period
        );
    }
    for b in &s.bounds {
        println!(
            "  queue {} -> {}: peak occupancy {} (cap {})",
            sys.block_name(sys.channel_from(b.channel)),
            sys.block_name(sys.channel_to(b.channel)),
            b.peak,
            b.cap
        );
    }
}

/// Prints a bursty-source Monte-Carlo report against the schedule caps.
fn print_burst(sys: &LisSystem, r: &BurstReport) {
    println!(
        "burst (off {}‰, on {}‰, {} trial(s) x {} cycle(s), seed {}): \
         mean rate {:.4} [{:.4}, {:.4}]",
        r.params.off_per_mille,
        r.params.on_per_mille,
        r.params.trials,
        r.params.cycles,
        r.params.seed,
        r.mean_rate,
        r.min_rate,
        r.max_rate
    );
    for o in &r.occupancy {
        println!(
            "  queue {} -> {}: max occupancy {} of cap {}",
            sys.block_name(sys.channel_from(o.channel)),
            sys.block_name(sys.channel_to(o.channel)),
            o.max,
            o.cap
        );
    }
    println!(
        "occupancy {} the schedule caps",
        if r.within_caps() {
            "stayed within"
        } else {
            "EXCEEDED"
        }
    );
}

fn qs(sys: &LisSystem, rest: &[String], engine: McmEngine) -> CliResult {
    let algo = if flag(rest, "--exact") {
        Algorithm::Exact
    } else {
        Algorithm::Heuristic
    };
    let cfg = QsConfig {
        engine,
        ..QsConfig::default()
    };
    let report = solve(sys, algo, &cfg)?;
    println!(
        "target MST {} | before {} | deficient cycles {}",
        report.target, report.practical_before, report.deficient_cycles
    );
    if report.total_extra == 0 {
        println!("queues are already large enough");
        return Ok(());
    }
    println!(
        "{:?} solution: {} extra slot(s){}",
        algo,
        report.total_extra,
        if report.optimal { " (optimal)" } else { "" }
    );
    for (c, w) in &report.extra_tokens {
        println!(
            "  channel {} -> {}: queue {} -> {}",
            sys.block_name(sys.channel_from(*c)),
            sys.block_name(sys.channel_to(*c)),
            sys.queue_capacity(*c),
            sys.queue_capacity(*c) + w
        );
    }
    if !verify_solution(sys, &report) {
        return Err("internal error: solution failed verification".into());
    }
    println!("verified: resized system reaches MST {}", report.target);
    if let Some(out) = rest
        .iter()
        .position(|a| a == "--apply")
        .and_then(|i| rest.get(i + 1))
    {
        let mut resized = sys.clone();
        lis_qs::apply_solution(&mut resized, &report);
        fs::write(out, to_netlist(&resized))?;
        println!("resized netlist written to {out}");
    }
    Ok(())
}

fn insert(sys: &LisSystem, rest: &[String]) -> CliResult {
    let budget: u32 = option(rest, "--budget", 2)?;
    // Exhaustive search is exponential in the budget; fall back to greedy
    // plus DAG equalization on larger systems.
    let exhaustive_feasible = (sys.channel_count() as u64).pow(budget.min(6)) <= 2_000_000;
    let result = if exhaustive_feasible {
        println!("exhaustive search over {budget} insertion(s):");
        exhaustive_insertion(sys, budget)
    } else {
        println!("greedy search over {budget} insertion(s):");
        greedy_insertion(sys, budget)
    };
    println!(
        "best practical MST {} (ideal after insertion {}) with {} station(s)",
        result.practical, result.ideal, result.inserted
    );
    for (c, n) in &result.placements {
        println!(
            "  +{n} on channel {} -> {}",
            sys.block_name(sys.channel_from(*c)),
            sys.block_name(sys.channel_to(*c))
        );
    }
    if let Some(balanced) = equalize_dag(sys) {
        println!(
            "DAG equalization alternative: {} extra station(s), practical MST {}",
            balanced.relay_station_count() - sys.relay_station_count(),
            practical_mst(&balanced)
        );
    }
    if let Some(out) = rest
        .iter()
        .position(|a| a == "--apply")
        .and_then(|i| rest.get(i + 1))
    {
        let mut modified = sys.clone();
        lis_rsopt::apply_insertion(&mut modified, &result);
        fs::write(out, to_netlist(&modified))?;
        println!("modified netlist written to {out}");
    }
    Ok(())
}

fn repair_cmd(sys: &LisSystem, rest: &[String]) -> CliResult {
    use lis_rsopt::{repair, CostModel, RepairOptions, RepairPlan};
    let options = RepairOptions {
        costs: CostModel {
            per_queue_slot: option(rest, "--slot-cost", 1.0)?,
            per_relay_station: option(rest, "--station-cost", 2.0)?,
        },
        ..RepairOptions::default()
    };
    let plan = repair(sys, &options)?;
    match &plan {
        RepairPlan::NothingToDo => println!("system already runs at its ideal MST"),
        RepairPlan::QueueSizing { extra_slots, cost } => {
            println!("cheapest repair: queue sizing (cost {cost})");
            for (c, w) in extra_slots {
                println!(
                    "  +{w} slot(s) on channel {} -> {}",
                    sys.block_name(sys.channel_from(*c)),
                    sys.block_name(sys.channel_to(*c))
                );
            }
        }
        RepairPlan::Insertion { stations, cost } => {
            println!("cheapest repair: relay-station insertion (cost {cost})");
            for (c, n) in stations {
                println!(
                    "  +{n} station(s) on channel {} -> {}",
                    sys.block_name(sys.channel_from(*c)),
                    sys.block_name(sys.channel_to(*c))
                );
            }
        }
    }
    if let Some(out) = rest
        .iter()
        .position(|a| a == "--apply")
        .and_then(|i| rest.get(i + 1))
    {
        let mut fixed = sys.clone();
        plan.apply(&mut fixed);
        fs::write(out, to_netlist(&fixed))?;
        println!("repaired netlist written to {out}");
    }
    Ok(())
}

fn simulate(sys: &LisSystem, rest: &[String]) -> CliResult {
    let steps: u64 = option(rest, "--steps", 10_000)?;
    let kernel: String = option(rest, "--kernel", "reference".to_string())?;
    let trials: usize = option(rest, "--trials", 1)?;
    let seed: u64 = option(rest, "--seed", 0)?;
    let stall: f64 = option(rest, "--stall", 0.0)?;
    if steps == 0 {
        return Err("--steps must be at least 1".into());
    }
    if trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&stall) {
        return Err("--stall must be a probability in [0, 1]".into());
    }
    match kernel.as_str() {
        "reference" => {
            if trials > 1 || stall > 0.0 {
                return Err("--trials/--stall require --kernel compiled".into());
            }
            simulate_reference(sys, steps)
        }
        "compiled" => simulate_compiled(sys, steps, trials, seed, stall),
        other => Err(format!("unknown kernel {other:?}; known: reference, compiled").into()),
    }
}

fn simulate_reference(sys: &LisSystem, steps: u64) -> CliResult {
    let cores: Vec<Box<dyn CoreModel>> = sys
        .block_ids()
        .map(|b| {
            let outs = sys
                .channel_ids()
                .filter(|&c| sys.channel_from(c) == b)
                .count();
            Box::new(Passthrough::new(outs, 0)) as Box<dyn CoreModel>
        })
        .collect();
    let mut sim = LisSimulator::new(sys, cores, QueueMode::Finite);
    let stats = lis_sim::collect_stats(sys, &mut sim, steps);
    println!("simulated {steps} clock periods (pass-through cores, finite queues)");
    println!("analytic practical MST: {}", practical_mst(sys));
    for b in sys.block_ids() {
        println!(
            "  {:<16} fired {:>8} times, rate {:.4}, stalled {:>5.1}%",
            sys.block_name(b),
            sim.firings(b),
            sim.throughput(b).to_f64(),
            100.0 * stats.stall_ratio(b)
        );
    }
    // Channels whose buffering actually filled up.
    let mut saturated = false;
    for c in sys.channel_ids() {
        let hw = stats.queue_high_water(c);
        if hw > sys.queue_capacity(c) {
            if !saturated {
                println!("saturated channels (queue + in-flight item full):");
                saturated = true;
            }
            println!(
                "  {} -> {} reached {hw} buffered item(s)",
                sys.block_name(sys.channel_from(c)),
                sys.block_name(sys.channel_to(c))
            );
        }
    }
    Ok(())
}

/// The compiled-kernel paths: scalar (one trial, no stalls) or the packed
/// 64-lane Monte-Carlo kernel (seeded trials under uniform stalls).
fn simulate_compiled(
    sys: &LisSystem,
    steps: u64,
    trials: usize,
    seed: u64,
    stall: f64,
) -> CliResult {
    let theta = practical_mst(sys);
    if trials == 1 && stall == 0.0 {
        let mut sim = CompiledSim::new(sys, QueueMode::Finite);
        sim.run(steps);
        println!("simulated {steps} clock periods (compiled kernel, finite queues)");
        println!("analytic practical MST: {theta}");
        for b in sys.block_ids() {
            println!(
                "  {:<16} fired {:>8} times, rate {:.4}",
                sys.block_name(b),
                sim.firings(b),
                sim.throughput(b).to_f64()
            );
        }
        return Ok(());
    }
    let prog = CompiledProgram::compile(sys, QueueMode::Finite);
    let spec = StallSpec::uniform(&prog, stall);
    let report = McKernel::new(prog, spec, seed).run(trials, steps);
    println!(
        "simulated {trials} Monte-Carlo trial(s) x {steps} periods \
         (compiled 64-lane kernel, stall p={stall}, seed {seed})"
    );
    println!("analytic practical MST (θ bound): {theta}");
    println!(
        "system rate over trials: mean {:.4}  min {:.4}  max {:.4}",
        report.mean_system_rate(),
        report.min_system_rate(),
        report.max_system_rate()
    );
    for b in sys.block_ids() {
        let mean = (0..trials).map(|i| report.block_rate(b, i)).sum::<f64>() / trials as f64;
        println!("  {:<16} mean rate {mean:.4}", sys.block_name(b));
    }
    Ok(())
}

fn vcd(sys: &LisSystem, rest: &[String]) -> CliResult {
    let steps: u64 = option(rest, "--steps", 200)?;
    let cores: Vec<Box<dyn CoreModel>> = sys
        .block_ids()
        .map(|b| {
            let outs = sys
                .channel_ids()
                .filter(|&c| sys.channel_from(c) == b)
                .count();
            Box::new(Passthrough::new(outs, 0)) as Box<dyn CoreModel>
        })
        .collect();
    let mut sim = LisSimulator::new(sys, cores, QueueMode::Finite);
    sim.run(steps);
    print!("{}", lis_sim::to_vcd(sys, &sim));
    Ok(())
}

fn dot(sys: &LisSystem, rest: &[String]) -> CliResult {
    let model = if flag(rest, "--doubled") {
        LisModel::doubled(sys)
    } else {
        LisModel::ideal(sys)
    };
    print!("{}", marked_graph::dot::to_dot(model.graph()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_fig1() -> tempfile::TempPath {
        let text = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";
        let mut f = tempfile::NamedTempFile::new().expect("tempfile");
        use std::io::Write;
        f.write_all(text.as_bytes()).expect("write");
        f.into_temp_path()
    }

    // tempfile is not among the approved dependencies; use a plain helper
    // instead of the crate.
    mod tempfile {
        use std::path::PathBuf;

        pub struct NamedTempFile {
            path: PathBuf,
            file: std::fs::File,
        }

        pub struct TempPath(PathBuf);

        impl TempPath {
            pub fn to_str(&self) -> &str {
                self.0.to_str().expect("utf-8 path")
            }
        }

        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        impl NamedTempFile {
            pub fn new() -> std::io::Result<NamedTempFile> {
                let path = std::env::temp_dir().join(format!(
                    "lis-cli-test-{}-{:?}",
                    std::process::id(),
                    std::thread::current().id()
                ));
                let file = std::fs::File::create(&path)?;
                Ok(NamedTempFile { path, file })
            }

            pub fn into_temp_path(self) -> TempPath {
                TempPath(self.path)
            }
        }

        impl std::io::Write for NamedTempFile {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                std::io::Write::write(&mut self.file, buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                std::io::Write::flush(&mut self.file)
            }
        }
    }

    #[test]
    fn dispatch_rejects_bad_usage() {
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&["analyze".into()]).is_err());
        assert!(dispatch(&["analyze".into(), "/no/such/file".into()]).is_err());
        let path = write_fig1();
        assert!(dispatch(&["frobnicate".into(), path.to_str().into()]).is_err());
    }

    #[test]
    fn all_commands_run_on_fig1() {
        let path = write_fig1();
        for cmd in ["analyze", "qs", "insert", "dot", "vcd", "repair"] {
            dispatch(&[cmd.into(), path.to_str().into()]).unwrap_or_else(|e| {
                panic!("{cmd} failed: {e}");
            });
        }
        dispatch(&[
            "simulate".into(),
            path.to_str().into(),
            "--steps".into(),
            "500".into(),
        ])
        .expect("simulate");
        dispatch(&["qs".into(), path.to_str().into(), "--exact".into()]).expect("qs --exact");
        dispatch(&["dot".into(), path.to_str().into(), "--doubled".into()]).expect("dot");
    }

    #[test]
    fn analyze_schedule_and_burst_flags_run_on_fig1() {
        let path = write_fig1();
        dispatch(&["analyze".into(), path.to_str().into(), "--schedule".into()])
            .expect("analyze --schedule");
        dispatch(&[
            "analyze".into(),
            path.to_str().into(),
            "--schedule".into(),
            "--burst".into(),
            "100,300".into(),
            "--burst-trials".into(),
            "16".into(),
            "--burst-cycles".into(),
            "200".into(),
            "--burst-seed".into(),
            "3".into(),
        ])
        .expect("analyze --schedule --burst");
        // Malformed burst flags are rejected before any kernel run.
        assert!(dispatch(&["analyze".into(), path.to_str().into(), "--burst".into()]).is_err());
        assert!(dispatch(&[
            "analyze".into(),
            path.to_str().into(),
            "--burst".into(),
            "moose".into(),
        ])
        .is_err());
    }

    #[test]
    fn qs_apply_writes_resized_netlist() {
        let path = write_fig1();
        let out = std::env::temp_dir().join(format!("lis-cli-out-{}", std::process::id()));
        dispatch(&[
            "qs".into(),
            path.to_str().into(),
            "--exact".into(),
            "--apply".into(),
            out.to_str().expect("utf-8").into(),
        ])
        .expect("qs --apply");
        let resized =
            lis_core::parse_netlist(&std::fs::read_to_string(&out).expect("read")).expect("parse");
        assert_eq!(lis_core::practical_mst(&resized), marked_graph::Ratio::ONE);
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn threads_flag_is_stripped_and_applied() {
        // Restore whatever the process-wide budget was before the test.
        let previous = lis_par::set_max_threads(0);
        lis_par::set_max_threads(previous);

        let args: Vec<String> = ["--threads", "3", "analyze", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let stripped = apply_threads_flag(&args).expect("valid flag");
        assert_eq!(stripped, vec!["analyze".to_string(), "x".to_string()]);
        assert_eq!(lis_par::max_threads(), 3);
        lis_par::set_max_threads(previous);

        assert!(apply_threads_flag(&["--threads".to_string()]).is_err());
        assert!(apply_threads_flag(&["--threads".to_string(), "0".to_string()]).is_err());
        assert!(apply_threads_flag(&["--threads".to_string(), "moose".to_string()]).is_err());
    }

    #[test]
    fn engine_flag_is_stripped_and_parsed() {
        let args: Vec<String> = ["analyze", "x", "--engine", "karp"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (stripped, engine) = apply_engine_flag(&args).expect("valid flag");
        assert_eq!(stripped, vec!["analyze".to_string(), "x".to_string()]);
        assert_eq!(engine, McmEngine::Karp);

        let (_, default) = apply_engine_flag(&["analyze".to_string()]).expect("no flag");
        assert_eq!(default, McmEngine::Howard);

        assert!(apply_engine_flag(&["--engine".to_string()]).is_err());
        assert!(apply_engine_flag(&["--engine".to_string(), "dijkstra".to_string()]).is_err());
    }

    #[test]
    fn analysis_commands_accept_every_engine() {
        let path = write_fig1();
        for engine in ["howard", "karp", "lawler"] {
            for cmd in ["analyze", "qs"] {
                dispatch(&[
                    cmd.into(),
                    path.to_str().into(),
                    "--engine".into(),
                    engine.into(),
                ])
                .unwrap_or_else(|e| panic!("{cmd} --engine {engine} failed: {e}"));
            }
        }
    }

    #[test]
    fn serve_and_client_round_trip() {
        // Drive `client` against an in-process daemon; `serve` itself is
        // exercised via its building blocks (Server::bind + run) because it
        // blocks until shutdown.
        let server = lis_server::Server::bind("127.0.0.1:0", lis_server::ServerConfig::default())
            .expect("bind");
        let addr = server.local_addr().expect("addr");
        let daemon = std::thread::spawn(move || server.run());

        let path = write_fig1();
        dispatch(&[
            "client".into(),
            addr.to_string(),
            "analyze".into(),
            path.to_str().into(),
        ])
        .expect("client analyze");
        dispatch(&[
            "client".into(),
            addr.to_string(),
            "qs".into(),
            path.to_str().into(),
            "--exact".into(),
        ])
        .expect("client qs --exact");
        dispatch(&["client".into(), addr.to_string(), "metrics".into()]).expect("client metrics");
        dispatch(&[
            "client".into(),
            addr.to_string(),
            "analyze".into(),
            path.to_str().into(),
            "--retries".into(),
            "0".into(),
        ])
        .expect("client analyze --retries 0");
        dispatch(&[
            "client".into(),
            addr.to_string(),
            "analyze".into(),
            path.to_str().into(),
            "--schedule".into(),
            "--burst".into(),
            "100,300".into(),
            "--burst-trials".into(),
            "16".into(),
            "--burst-cycles".into(),
            "200".into(),
        ])
        .expect("client analyze --schedule --burst");

        // Bad usage surfaces as errors, not panics.
        assert!(dispatch(&["client".into()]).is_err());
        assert!(dispatch(&["client".into(), addr.to_string(), "frobnicate".into()]).is_err());
        assert!(dispatch(&["client".into(), addr.to_string(), "analyze".into()]).is_err());
        assert!(dispatch(&["serve".into()]).is_err());
        // A malformed fault spec is rejected before the daemon binds.
        assert!(dispatch(&[
            "serve".into(),
            "127.0.0.1:0".into(),
            "--faults".into(),
            "panic:moose".into(),
        ])
        .is_err());

        dispatch(&["client".into(), addr.to_string(), "shutdown".into()]).expect("client shutdown");
        daemon.join().expect("daemon").expect("clean exit");
    }

    #[test]
    fn sweep_runs_on_fig1() {
        let path = write_fig1();
        dispatch(&[
            "sweep".into(),
            path.to_str().into(),
            "--cap".into(),
            "1=1,2,3".into(),
            "--budget".into(),
            "1".into(),
        ])
        .expect("sweep");
        dispatch(&[
            "sweep".into(),
            path.to_str().into(),
            "--cap".into(),
            "1=1,2".into(),
            "--qs".into(),
            "--exact".into(),
        ])
        .expect("sweep --qs");
        dispatch(&[
            "sweep".into(),
            path.to_str().into(),
            "--stalls".into(),
            "0,100".into(),
            "--trials".into(),
            "64".into(),
            "--cycles".into(),
            "200".into(),
        ])
        .expect("sweep --stalls");
        dispatch(&[
            "sweep".into(),
            path.to_str().into(),
            "--cap".into(),
            "1=1,2".into(),
            "--bursts".into(),
            "0,150".into(),
            "--burst-on".into(),
            "300".into(),
            "--trials".into(),
            "64".into(),
            "--cycles".into(),
            "200".into(),
        ])
        .expect("sweep --bursts");
        // Malformed axes are rejected before any evaluation.
        assert!(dispatch(&[
            "sweep".into(),
            path.to_str().into(),
            "--cap".into(),
            "moose".into(),
        ])
        .is_err());
        assert!(dispatch(&[
            "sweep".into(),
            path.to_str().into(),
            "--cap".into(),
            "99=1,2".into(),
        ])
        .is_err());
    }

    #[test]
    fn client_sweep_round_trips_and_sheds_with_a_hint() {
        let server = lis_server::Server::bind(
            "127.0.0.1:0",
            lis_server::ServerConfig {
                max_concurrent_sweeps: 0, // every sweep is shed
                ..lis_server::ServerConfig::default()
            },
        )
        .expect("bind");
        let shed_addr = server.local_addr().expect("addr");
        let shed_daemon = std::thread::spawn(move || server.run());

        let server = lis_server::Server::bind("127.0.0.1:0", lis_server::ServerConfig::default())
            .expect("bind");
        let addr = server.local_addr().expect("addr");
        let daemon = std::thread::spawn(move || server.run());

        let path = write_fig1();
        dispatch(&[
            "client".into(),
            addr.to_string(),
            "sweep".into(),
            path.to_str().into(),
            "--cap".into(),
            "1=1,2".into(),
        ])
        .expect("client sweep");

        // A shed sweep surfaces as a StatusError carrying the body's retry
        // hint — the signal `main` maps to exit code 4.
        let err = dispatch(&[
            "client".into(),
            shed_addr.to_string(),
            "sweep".into(),
            path.to_str().into(),
            "--retries".into(),
            "0".into(),
        ])
        .expect_err("shed sweep fails");
        let status = err.downcast_ref::<StatusError>().expect("status error");
        assert_eq!(status.status, 503);
        assert_eq!(status.retry_after_ms, Some(1000));

        assert!(dispatch(&["client".into(), addr.to_string(), "sweep".into()]).is_err());

        for a in [addr, shed_addr] {
            dispatch(&["client".into(), a.to_string(), "shutdown".into()]).expect("shutdown");
        }
        daemon.join().expect("daemon").expect("clean exit");
        shed_daemon.join().expect("daemon").expect("clean exit");
    }

    #[test]
    fn sweep_flag_parsing() {
        assert_eq!(
            parse_cap_axis("1=1,2,3").expect("parses"),
            (1, vec![1, 2, 3])
        );
        assert!(parse_cap_axis("nope").is_err());
        assert!(parse_cap_axis("x=1").is_err());
        assert!(parse_cap_axis("1=x").is_err());

        let args: Vec<String> = ["--cap", "0=1,2", "--cap", "1=4", "--budget", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_sweep_flags(&args).expect("parses");
        assert_eq!(flags.caps, vec![(0, vec![1, 2]), (1, vec![4])]);
        assert_eq!(flags.budget, Some(2));
        assert!(flags.stalls.is_none());
        assert!(flags.bursts.is_none());
        let spec = flags.to_spec(McmEngine::Karp);
        assert_eq!(spec.engine, McmEngine::Karp);
        assert_eq!(spec.stations, StationGoal::Budget(2));
        // The remote lowering round-trips through the wire decoder shape.
        let json = sweep_options(&flags, McmEngine::Karp).to_string();
        assert!(json.contains("\"capacities\""), "{json}");
        assert!(json.contains("\"budget\""), "{json}");
        assert!(json.contains("\"engine\""), "{json}");

        // The burst axis parses its list plus the shared knobs, lands in
        // the spec, and lowers to the daemon's "bursts" envelope.
        let args: Vec<String> = [
            "--bursts",
            "0,100,250",
            "--burst-on",
            "500",
            "--trials",
            "32",
            "--cycles",
            "400",
            "--seed",
            "9",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let flags = parse_sweep_flags(&args).expect("parses");
        let bursts = flags.bursts.clone().expect("burst axis");
        assert_eq!(bursts.off_per_mille, vec![0, 100, 250]);
        assert_eq!(bursts.on_per_mille, 500);
        assert_eq!(bursts.trials, 32);
        assert_eq!(bursts.cycles, 400);
        assert_eq!(bursts.seed, 9);
        assert_eq!(flags.to_spec(McmEngine::Howard).bursts, Some(bursts));
        let json = sweep_options(&flags, McmEngine::Howard).to_string();
        assert!(json.contains("\"bursts\""), "{json}");
        assert!(json.contains("\"off_per_mille\""), "{json}");
        assert!(json.contains("\"on_per_mille\":500"), "{json}");
        assert!(parse_sweep_flags(&["--bursts".to_string()]).is_err());
        assert!(parse_sweep_flags(&["--bursts".to_string(), "moose".to_string()]).is_err());
    }

    #[test]
    fn option_parsing() {
        let rest = vec!["--budget".to_string(), "3".to_string()];
        assert_eq!(option(&rest, "--budget", 2u32).expect("parses"), 3);
        assert_eq!(option(&rest, "--steps", 7u64).expect("default"), 7);
        assert!(option::<u32>(&["--budget".to_string()], "--budget", 2).is_err());
        assert!(flag(&rest, "--budget"));
        assert!(!flag(&rest, "--exact"));
    }
}
