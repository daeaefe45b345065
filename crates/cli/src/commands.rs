//! Command implementations for the `lis` binary.

use std::error::Error;
use std::fs;
use std::io::Write;

use lis_core::{
    parse_netlist, practical_mst, to_netlist, ChannelId, LisModel, LisSystem, McmEngine,
};
use lis_server::options::{self, Flag, Kind};
use lis_server::wire::{obj, Json};
use lis_server::Route;
use lis_sim::{
    CompiledProgram, CompiledSim, CoreModel, LisSimulator, McKernel, Passthrough, QueueMode,
    StallSpec,
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
                                         queue sizing (heuristic by default)
  insert   <netlist> [--budget N] [--apply OUT]
                                         relay-station insertion search
  sweep    <netlist> [--cap CH=V1,V2,..]... [--budget N] [--qs [--exact]]
                     [--stalls P1,P2,.. [--trials N] [--cycles N] [--seed S]]
                     [--bursts P1,P2,.. [--burst-on P]]
                                         design-space exploration: expand the
                                         capacity x station grid, evaluate
                                         every point on warm incremental
                                         solvers, and print one NDJSON row per
                                         point plus the Pareto front
                                         (throughput vs. total capacity vs.
                                         stations). --cap repeats per channel
                                         axis; --stalls adds seeded
                                         Monte-Carlo stall points (probability
                                         per mille); --bursts adds Markov
                                         on/off source points (OFF per-mille
                                         list, shared --burst-on / --trials /
                                         --cycles / --seed)
                                         analyze, qs, insert and sweep print
                                         the daemon's JSON answer byte for
                                         byte, as `lis client` would, and
                                         exit like it: 2 on a 4xx answer, 3
                                         on a 5xx answer; --apply writes the
                                         netlist with the answer's extra
                                         queue slots or relay stations
  repair   <netlist> [--slot-cost X] [--station-cost Y] [--apply OUT]
                                         cheapest repair (queue sizing or
                                         relay-station insertion), plus the
                                         DAG equalization alternative
  simulate <netlist> [--steps N] [--kernel reference|compiled]
                     [--trials N] [--seed S] [--stall P]
                                         cycle-accurate simulation; the
                                         compiled kernel adds Monte-Carlo
                                         mode: --trials N seeded trials
                                         (--seed S, default 0) under uniform
                                         stall probability P (--stall,
                                         default 0), 64 trials per machine
                                         word, reported against the θ bound
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
  client <addr> analyze|qs|insert|sweep <netlist> [the command's flags]
                                         run one request against a daemon or
                                         gateway and print its answer
                                         (transient failures are retried;
                                         --retries N caps them, default 3);
                                         exits 2 on a 4xx answer, 3 on a 5xx
                                         answer; a shed sweep (503 with a
                                         retry hint) prints the Retry-After
                                         delay and exits 4
  client <addr> dot <netlist> [--doubled]
                                         the Graphviz export as JSON
  client <addr> metrics                  print the Prometheus exposition
  client <addr> health                   print the /healthz readiness JSON
  client <addr> shutdown                 drain the daemon and stop it

global options:
  --threads N    worker threads for `serve` (its pool size) and the
                 default `--shard-threads` of `gateway`
                 (default: available parallelism)
  --engine E     MCM algorithm for throughput analysis: howard (default),
                 karp, or lawler; all three give identical answers.
                 analyze, qs and sweep (local or through `client`) send
                 the choice with the request
";

/// Parses the command line and runs the selected command, printing to
/// `out`.
pub fn dispatch(args: &[String], out: &mut dyn Write) -> CliResult {
    let (args, threads) = apply_threads_flag(args)?;
    let (args, engine) = apply_engine_flag(&args)?;
    let Some(command) = args.first() else {
        return Err(USAGE.into());
    };
    match command.as_str() {
        "serve" => return serve(&args[1..], threads, out),
        "gateway" => return gateway_cmd(&args[1..], threads, out),
        "client" => return client_cmd(&args[1..], engine, out),
        _ => {}
    }
    let Some(path) = args.get(1) else {
        return Err(format!("missing netlist path\n{USAGE}").into());
    };
    let text = read_netlist(path)?;
    let rest = &args[2..];
    // Every envelope route but `dot`, which prints the DOT text itself.
    let local = |r| options::ROUTES.contains(&r) && r != Route::Dot;
    if let Ok(route) = Route::resolve("POST", &format!("/{command}"), local) {
        return local_answer(route, &text, rest, engine, out);
    }
    let sys = parse_netlist(&text)?;
    match command.as_str() {
        "repair" => repair_cmd(&sys, rest, out),
        "simulate" => simulate(&sys, rest, out),
        "vcd" => vcd(&sys, rest, out),
        "dot" => dot(&sys, rest, out),
        other => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    }
}

/// Strips a global `NAME VALUE` flag (anywhere on the line), returning the
/// other words and the value.
fn strip_global(args: &[String], name: &str) -> Result<(Vec<String>, Option<String>), String> {
    let (mut out, mut value) = (Vec::with_capacity(args.len()), None);
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a != name {
            out.push(a.clone());
        } else {
            value = Some(iter.next().ok_or(format!("{name} needs a value"))?.clone());
        }
    }
    Ok((out, value))
}

/// Strips a global `--threads N` flag and returns the worker count it
/// selects, defaulting to the daemon's (`ServerConfig::default().workers`,
/// the available parallelism).
fn apply_threads_flag(args: &[String]) -> Result<(Vec<String>, usize), Box<dyn Error>> {
    let (args, value) = strip_global(args, "--threads")?;
    let threads = match value {
        None => lis_server::ServerConfig::default().workers,
        Some(v) => v
            .parse()
            .map_err(|e| format!("--threads: {e} (got {v:?})"))?,
    };
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok((args, threads))
}

/// Strips a global `--engine NAME` flag and returns the selected MCM
/// engine, defaulting to [`McmEngine::Howard`].
fn apply_engine_flag(args: &[String]) -> Result<(Vec<String>, McmEngine), Box<dyn Error>> {
    let (args, value) = strip_global(args, "--engine")?;
    let engine = value.map_or(Ok(McmEngine::default()), |v| v.parse());
    Ok((args, engine.map_err(|e| format!("--engine: {e}"))?))
}

fn read_netlist(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn serve(rest: &[String], threads: usize, out: &mut dyn Write) -> CliResult {
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
        workers: threads,
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
    writeln!(
        out,
        "lis-server listening on {} ({} worker(s){}{}; POST /shutdown to stop)",
        server.local_addr()?,
        workers,
        if durable { "; durable store armed" } else { "" },
        if chaos { "; FAULT INJECTION ARMED" } else { "" }
    )?;
    out.flush()?;
    server.run()?;
    writeln!(out, "lis-server drained and stopped")?;
    Ok(())
}

/// An answer, from a daemon or computed in process, had a non-200 status.
/// Carried as its own error type so `main` can map the status class to a
/// distinct exit code (2 for 4xx, 3 for 5xx) — shell scripts and CI gate
/// on it.
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
        write!(f, "answer status {}", self.status)
    }
}

impl Error for StatusError {}

fn gateway_cmd(rest: &[String], threads: usize, out: &mut dyn Write) -> CliResult {
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
            workers: option(rest, "--shard-threads", threads)?,
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
    writeln!(
        out,
        "lis-gateway listening on {} ({} shard(s){}; POST /shutdown to stop)",
        gateway.local_addr()?,
        shard_count,
        if hedging { "; hedging armed" } else { "" }
    )?;
    out.flush()?;
    gateway.run()?;
    writeln!(out, "lis-gateway drained and stopped")?;
    Ok(())
}

fn client_cmd(rest: &[String], engine: McmEngine, out: &mut dyn Write) -> CliResult {
    use lis_server::{RetryPolicy, RetryingClient};
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
            write!(out, "{}", client.metrics()?)?;
            Ok(())
        }
        "health" => {
            let response = client.request("GET", "/healthz", b"")?;
            print_answer(out, response.status, &response.body)
        }
        "shutdown" => {
            let status = client.shutdown()?;
            if status != 200 {
                return Err(Box::new(StatusError {
                    status,
                    retry_after_ms: None,
                }));
            }
            writeln!(out, "server is draining")?;
            Ok(())
        }
        name @ ("analyze" | "qs" | "insert" | "dot" | "sweep") => {
            let Some(path) = rest.get(2) else {
                return Err(format!("client {name} needs a netlist path\n{USAGE}").into());
            };
            let target = format!("/{name}");
            let route = Route::resolve("POST", &target, |_| true)?;
            let envelope = request_envelope(route, &read_netlist(path)?, &rest[3..], engine)?;
            let response = client.request("POST", &target, envelope.to_string().as_bytes())?;
            print_answer(out, response.status, &response.body)
        }
        other => Err(format!("unknown client command {other:?}\n{USAGE}").into()),
    }
}

/// `lis analyze|qs|insert|sweep` on a local netlist: the daemon's answer,
/// computed in process by [`lis_server::answer`] from the envelope
/// `lis client` would send, then `--apply OUT` for `qs` and `insert`.
fn local_answer(
    route: Route,
    netlist: &str,
    rest: &[String],
    engine: McmEngine,
    out: &mut dyn Write,
) -> CliResult {
    let envelope = request_envelope(route, netlist, rest, engine)?;
    let (status, body) = lis_server::answer(route, &envelope);
    print_answer(out, status, &body)?;
    match value(rest, "--apply")? {
        Some(target) if matches!(route, Route::Qs | Route::Insert) => {
            apply_answer(route, netlist, &body, target)
        }
        _ => Ok(()),
    }
}

/// Prints a daemon answer as it came (a JSON body, or a sweep's NDJSON
/// lines) and turns a non-200 status into a [`StatusError`]. The one
/// printer behind `lis client` and the local analysis commands.
fn print_answer(out: &mut dyn Write, status: u16, body: &[u8]) -> CliResult {
    out.write_all(body)?;
    if !body.ends_with(b"\n") {
        out.write_all(b"\n")?;
    }
    if status == 200 {
        return Ok(());
    }
    // The retry hint rides in the JSON body (intermediaries relay status +
    // body but may drop the Retry-After header).
    let parsed = std::str::from_utf8(body)
        .ok()
        .and_then(|text| Json::parse(text.trim()).ok());
    let retry_after_ms = parsed.as_ref().and_then(|j| {
        j.get("error")
            .unwrap_or(j)
            .get("retry_after_ms")
            .and_then(Json::as_u64)
    });
    if let Some(ms) = retry_after_ms {
        eprintln!("sweep shed: all sweep slots are busy; retry after {ms} ms");
    }
    Err(Box::new(StatusError {
        status,
        retry_after_ms,
    }))
}

/// `--apply OUT`: writes `netlist` with the answer's changes made: the
/// `extra_tokens[].extra_slots` of a `qs` answer, the
/// `placements[].stations` of an `insert` answer.
fn apply_answer(route: Route, netlist: &str, body: &[u8], target: &str) -> CliResult {
    let mut sys = parse_netlist(netlist)?;
    let answer = Json::parse(std::str::from_utf8(body)?)?;
    let (list, count) = match route {
        Route::Qs => ("extra_tokens", "extra_slots"),
        _ => ("placements", "stations"),
    };
    for entry in answer.get(list).and_then(Json::as_arr).unwrap_or(&[]) {
        let field = |name: &str| {
            entry
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("answer entry lacks {name:?}: {entry}"))
        };
        let (c, n) = (ChannelId::new(field("channel")? as usize), field(count)?);
        if route == Route::Qs {
            sys.grow_queue(c, n);
        } else {
            (0..n).for_each(|_| sys.add_relay_station(c));
        }
    }
    fs::write(target, to_netlist(&sys))?;
    eprintln!("modified netlist written to {target}");
    Ok(())
}

/// Lowers a command's flags to the request envelope the daemon decodes,
/// `{"netlist": ..., "options": {...}}`, through the route's rows of
/// [`options::OPTIONS`]. `lis client` sends it and the local commands
/// answer it in process, so a flag means the same on both sides and the
/// daemon's decoder is its only validator. Parsing errors here are the
/// command line's own (a missing value, a malformed list).
fn request_envelope(
    route: Route,
    netlist: &str,
    flags: &[String],
    engine: McmEngine,
) -> Result<Json, Box<dyn Error>> {
    let mut o: Vec<(String, Json)> = Vec::new();
    for row in options::rows(route) {
        let lowered = match (row.flag, row.kind) {
            (Flag::Global(_), _) if engine != McmEngine::default() => Json::str(engine.as_str()),
            (Flag::Switch(name), Kind::Choice(c)) if flag(flags, name) => Json::str(c[c.len() - 1]),
            (Flag::Switch(name), _) if flag(flags, name) => Json::Bool(true),
            (Flag::Repeat(name), _) if flag(flags, name) => {
                let axes = option_all(flags, name)?.into_iter().map(cap_axis);
                Json::Arr(axes.collect::<Result<_, _>>()?)
            }
            (Flag::Value(name) | Flag::Pair(name, _), kind) => {
                let Some(v) = value(flags, name)? else {
                    continue;
                };
                match (row.flag, kind) {
                    (Flag::Pair(_, i), _) => {
                        let pair = v.split_once(',');
                        let (a, b) = pair.ok_or_else(|| format!("{name} wants A,B (got {v:?})"))?;
                        number(name, [a, b][i])?
                    }
                    (_, Kind::Ints(_)) => number_list(name, v)?,
                    _ => number(name, v)?,
                }
            }
            _ => continue,
        };
        let Some((group, key)) = row.path.split_once('.') else {
            o.push((row.path.into(), lowered));
            continue;
        };
        // A group opens with its first row's flag; its other flags tune it.
        let opens = options::rows(route).find(|r| r.path.starts_with(&format!("{group}.")));
        match o.iter_mut().find(|(k, _)| k == group) {
            Some((_, Json::Obj(fields))) => fields.push((key.into(), lowered)),
            _ if opens == Some(row) => {
                o.push((group.into(), Json::Obj(vec![(key.into(), lowered)])))
            }
            _ => {}
        }
    }
    Ok(obj([
        ("netlist", Json::str(netlist)),
        ("options", Json::Obj(o)),
    ]))
}

/// One `--cap CHANNEL=V1,V2,...` axis as the daemon's
/// `{"channel": N, "values": [...]}`.
fn cap_axis(s: &str) -> Result<Json, String> {
    let (channel, values) = s
        .split_once('=')
        .ok_or_else(|| format!("--cap wants CHANNEL=V1,V2,... (got {s:?})"))?;
    Ok(obj([
        ("channel", number("--cap channel", channel)?),
        ("values", number_list("--cap value", values)?),
    ]))
}

/// A non-negative integer flag value as a JSON number.
fn number(what: &str, v: &str) -> Result<Json, String> {
    let n: u64 = v.trim().parse().map_err(|e| format!("{what}: {e}"))?;
    Ok(Json::num(n as f64))
}

/// A comma-separated list of non-negative integers as a JSON array.
fn number_list(what: &str, list: &str) -> Result<Json, String> {
    list.split(',')
        .map(|v| number(what, v))
        .collect::<Result<_, _>>()
        .map(Json::Arr)
}

fn flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

/// The value after `name`, if the flag is present.
fn value<'a>(rest: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    Ok(option_all(rest, name)?.first().copied())
}

fn option<T: std::str::FromStr>(rest: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match value(rest, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("{name}: {e}")),
    }
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

fn repair_cmd(sys: &LisSystem, rest: &[String], out: &mut dyn Write) -> CliResult {
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
        RepairPlan::NothingToDo => writeln!(out, "system already runs at its ideal MST")?,
        RepairPlan::QueueSizing { extra_slots, cost } => {
            writeln!(out, "cheapest repair: queue sizing (cost {cost})")?;
            for (c, w) in extra_slots {
                writeln!(
                    out,
                    "  +{w} slot(s) on channel {} -> {}",
                    sys.block_name(sys.channel_from(*c)),
                    sys.block_name(sys.channel_to(*c))
                )?;
            }
        }
        RepairPlan::Insertion { stations, cost } => {
            writeln!(
                out,
                "cheapest repair: relay-station insertion (cost {cost})"
            )?;
            for (c, n) in stations {
                writeln!(
                    out,
                    "  +{n} station(s) on channel {} -> {}",
                    sys.block_name(sys.channel_from(*c)),
                    sys.block_name(sys.channel_to(*c))
                )?;
            }
        }
    }
    if let Some(balanced) = lis_rsopt::equalize_dag(sys) {
        writeln!(
            out,
            "DAG equalization alternative: {} extra station(s), practical MST {}",
            balanced.relay_station_count() - sys.relay_station_count(),
            practical_mst(&balanced)
        )?;
    }
    if let Some(target) = value(rest, "--apply")? {
        let mut fixed = sys.clone();
        plan.apply(&mut fixed);
        fs::write(target, to_netlist(&fixed))?;
        writeln!(out, "repaired netlist written to {target}")?;
    }
    Ok(())
}

fn simulate(sys: &LisSystem, rest: &[String], out: &mut dyn Write) -> CliResult {
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
            simulate_reference(sys, steps, out)
        }
        "compiled" => simulate_compiled(sys, steps, trials, seed, stall, out),
        other => Err(format!("unknown kernel {other:?}; known: reference, compiled").into()),
    }
}

/// A simulator of `sys` with pass-through cores and finite queues.
fn passthrough_sim(sys: &LisSystem) -> LisSimulator {
    let cores = sys.block_ids().map(|b| {
        let outs = sys.channel_ids().filter(|&c| sys.channel_from(c) == b);
        Box::new(Passthrough::new(outs.count(), 0)) as Box<dyn CoreModel>
    });
    LisSimulator::new(sys, cores.collect(), QueueMode::Finite)
}

fn simulate_reference(sys: &LisSystem, steps: u64, out: &mut dyn Write) -> CliResult {
    let mut sim = passthrough_sim(sys);
    let stats = lis_sim::collect_stats(sys, &mut sim, steps);
    writeln!(
        out,
        "simulated {steps} clock periods (pass-through cores, finite queues)"
    )?;
    writeln!(out, "analytic practical MST: {}", practical_mst(sys))?;
    for b in sys.block_ids() {
        writeln!(
            out,
            "  {:<16} fired {:>8} times, rate {:.4}, stalled {:>5.1}%",
            sys.block_name(b),
            sim.firings(b),
            sim.throughput(b).to_f64(),
            100.0 * stats.stall_ratio(b)
        )?;
    }
    // Channels whose buffering actually filled up.
    let mut saturated = false;
    for c in sys.channel_ids() {
        let hw = stats.queue_high_water(c);
        if hw > sys.queue_capacity(c) {
            if !saturated {
                writeln!(out, "saturated channels (queue + in-flight item full):")?;
                saturated = true;
            }
            writeln!(
                out,
                "  {} -> {} reached {hw} buffered item(s)",
                sys.block_name(sys.channel_from(c)),
                sys.block_name(sys.channel_to(c))
            )?;
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
    out: &mut dyn Write,
) -> CliResult {
    let theta = practical_mst(sys);
    if trials == 1 && stall == 0.0 {
        let mut sim = CompiledSim::new(sys, QueueMode::Finite);
        sim.run(steps);
        writeln!(
            out,
            "simulated {steps} clock periods (compiled kernel, finite queues)"
        )?;
        writeln!(out, "analytic practical MST: {theta}")?;
        for b in sys.block_ids() {
            writeln!(
                out,
                "  {:<16} fired {:>8} times, rate {:.4}",
                sys.block_name(b),
                sim.firings(b),
                sim.throughput(b).to_f64()
            )?;
        }
        return Ok(());
    }
    let prog = CompiledProgram::compile(sys, QueueMode::Finite);
    let spec = StallSpec::uniform(&prog, stall);
    let report = McKernel::new(prog, spec, seed).run(trials, steps);
    writeln!(
        out,
        "simulated {trials} Monte-Carlo trial(s) x {steps} periods \
         (compiled 64-lane kernel, stall p={stall}, seed {seed})"
    )?;
    writeln!(out, "analytic practical MST (θ bound): {theta}")?;
    writeln!(
        out,
        "system rate over trials: mean {:.4}  min {:.4}  max {:.4}",
        report.mean_system_rate(),
        report.min_system_rate(),
        report.max_system_rate()
    )?;
    for b in sys.block_ids() {
        let mean = (0..trials).map(|i| report.block_rate(b, i)).sum::<f64>() / trials as f64;
        writeln!(out, "  {:<16} mean rate {mean:.4}", sys.block_name(b))?;
    }
    Ok(())
}

fn vcd(sys: &LisSystem, rest: &[String], out: &mut dyn Write) -> CliResult {
    let steps: u64 = option(rest, "--steps", 200)?;
    let mut sim = passthrough_sim(sys);
    sim.run(steps);
    write!(out, "{}", lis_sim::to_vcd(sys, &sim))?;
    Ok(())
}

fn dot(sys: &LisSystem, rest: &[String], out: &mut dyn Write) -> CliResult {
    let model = if flag(rest, "--doubled") {
        LisModel::doubled(sys)
    } else {
        LisModel::ideal(sys)
    };
    write!(out, "{}", marked_graph::dot::to_dot(model.graph()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_fig1() -> tempfile::TempPath {
        let text = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";
        let mut f = tempfile::NamedTempFile::new().expect("tempfile");
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

    /// Runs one command line, returning what it printed.
    fn run(args: &[&str]) -> Result<String, Box<dyn Error>> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        dispatch(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf-8 output"))
    }

    fn parse_answer(out: &str) -> Json {
        Json::parse(out.trim()).unwrap_or_else(|e| panic!("{e}: {out:?}"))
    }

    fn status_of(err: &(dyn Error + 'static)) -> u16 {
        err.downcast_ref::<StatusError>()
            .unwrap_or_else(|| panic!("not a daemon answer: {err}"))
            .status
    }

    #[test]
    fn dispatch_rejects_bad_usage() {
        assert!(run(&[]).is_err());
        assert!(run(&["analyze"]).is_err());
        assert!(run(&["analyze", "/no/such/file"]).is_err());
        let path = write_fig1();
        assert!(run(&["frobnicate", path.to_str()]).is_err());
    }

    #[test]
    fn all_commands_run_on_fig1() {
        let path = write_fig1();
        for cmd in ["analyze", "qs", "insert", "sweep", "dot", "vcd", "repair"] {
            let out = run(&[cmd, path.to_str()]).unwrap_or_else(|e| panic!("{cmd} failed: {e}"));
            assert!(!out.is_empty(), "{cmd} printed nothing");
        }
        run(&["simulate", path.to_str(), "--steps", "500"]).expect("simulate");
        run(&["dot", path.to_str(), "--doubled"]).expect("dot --doubled");
        let qs = parse_answer(&run(&["qs", path.to_str(), "--exact"]).expect("qs --exact"));
        assert_eq!(qs.get("optimal").and_then(Json::as_bool), Some(true));
        assert_eq!(qs.get("total_extra").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn analyze_prints_the_daemon_answer() {
        let path = write_fig1();
        let out = run(&["analyze", path.to_str()]).expect("analyze");
        assert!(
            out.ends_with("}\n") && out.matches('\n').count() == 1,
            "{out:?}"
        );
        let answer = parse_answer(&out);
        let practical = answer.get("practical_mst").expect("practical_mst");
        assert_eq!(practical.get("num").and_then(Json::as_u64), Some(2));
        assert_eq!(practical.get("den").and_then(Json::as_u64), Some(3));
        assert_eq!(answer.get("degraded").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn analyze_schedule_and_burst_flags_run_on_fig1() {
        let path = write_fig1();
        let answer = parse_answer(
            &run(&[
                "analyze",
                path.to_str(),
                "--schedule",
                "--burst",
                "100,300",
                "--burst-trials",
                "16",
                "--burst-cycles",
                "200",
                "--burst-seed",
                "3",
            ])
            .expect("analyze --schedule --burst"),
        );
        assert!(answer.get("schedule").is_some());
        let burst = answer.get("burst").expect("burst");
        assert_eq!(burst.get("trials").and_then(Json::as_u64), Some(16));
        assert_eq!(burst.get("seed").and_then(Json::as_u64), Some(3));
        // Malformed flags are the command line's own errors.
        for bad in [&["--burst"][..], &["--burst", "moose"]] {
            let mut args = vec!["analyze", path.to_str()];
            args.extend(bad);
            let err = run(&args).expect_err("malformed --burst");
            assert!(err.downcast_ref::<StatusError>().is_none(), "{err}");
        }
        // Out-of-range values are the daemon decoder's: a 400 answer.
        let err = run(&[
            "analyze",
            path.to_str(),
            "--burst",
            "100,300",
            "--burst-trials",
            "5000",
        ])
        .expect_err("trials out of range");
        assert_eq!(status_of(err.as_ref()), 400);
    }

    #[test]
    fn qs_and_insert_apply_write_the_modified_netlist() {
        let path = write_fig1();
        let out = std::env::temp_dir().join(format!("lis-cli-out-{}", std::process::id()));
        let target = out.to_str().expect("utf-8");
        run(&["qs", path.to_str(), "--exact", "--apply", target]).expect("qs --apply");
        let resized = parse_netlist(&fs::read_to_string(&out).expect("read")).expect("parse");
        assert_eq!(resized.total_queue_capacity(), 3);
        assert_eq!(practical_mst(&resized), marked_graph::Ratio::ONE);

        let answer = parse_answer(
            &run(&["insert", path.to_str(), "--budget", "1", "--apply", target])
                .expect("insert --apply"),
        );
        let modified = parse_netlist(&fs::read_to_string(&out).expect("read")).expect("parse");
        assert_eq!(
            u64::from(modified.relay_station_count()),
            1 + answer
                .get("inserted")
                .and_then(Json::as_u64)
                .expect("inserted")
        );
        let _ = fs::remove_file(out);
    }

    #[test]
    fn insert_budget_out_of_range_is_a_400() {
        let path = write_fig1();
        let err = run(&["insert", path.to_str(), "--budget", "20"]).expect_err("budget 20");
        assert_eq!(status_of(err.as_ref()), 400);
    }

    #[test]
    fn repair_prints_the_dag_equalization_alternative() {
        let path = write_fig1();
        let out = run(&["repair", path.to_str()]).expect("repair");
        assert!(out.contains("cheapest repair"), "{out}");
        assert!(out.contains("DAG equalization alternative"), "{out}");
    }

    #[test]
    fn threads_flag_is_stripped_and_applied() {
        let args: Vec<String> = ["--threads", "3", "analyze", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (stripped, threads) = apply_threads_flag(&args).expect("valid flag");
        assert_eq!(stripped, vec!["analyze".to_string(), "x".to_string()]);
        assert_eq!(threads, 3);
        let (_, default) = apply_threads_flag(&stripped).expect("no flag");
        assert_eq!(default, lis_server::ServerConfig::default().workers);

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
                let out = run(&[cmd, path.to_str(), "--engine", engine])
                    .unwrap_or_else(|e| panic!("{cmd} --engine {engine} failed: {e}"));
                let answer = parse_answer(&out);
                assert_eq!(answer.get("engine").and_then(Json::as_str), Some(engine));
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
        let addr = server.local_addr().expect("addr").to_string();
        let daemon = std::thread::spawn(move || server.run());

        let path = write_fig1();
        let p = path.to_str();
        for args in [
            &["analyze", p][..],
            &["qs", p, "--exact"],
            &["analyze", p, "--retries", "0"],
            &[
                "analyze",
                p,
                "--schedule",
                "--burst",
                "100,300",
                "--burst-trials",
                "16",
            ],
        ] {
            let mut remote = vec!["client", &addr];
            remote.extend(args);
            // The local command ignores the client-only --retries.
            assert_eq!(
                run(&remote).unwrap_or_else(|e| panic!("client {args:?}: {e}")),
                run(args).unwrap_or_else(|e| panic!("{args:?}: {e}")),
                "{args:?}"
            );
        }
        run(&["client", &addr, "metrics"]).expect("client metrics");
        assert!(run(&["client", &addr, "health"])
            .expect("health")
            .contains("\"ok\":true"));

        // Bad usage surfaces as errors, not panics.
        assert!(run(&["client"]).is_err());
        assert!(run(&["client", &addr, "frobnicate"]).is_err());
        assert!(run(&["client", &addr, "analyze"]).is_err());
        assert!(run(&["serve"]).is_err());
        // A malformed fault spec is rejected before the daemon binds.
        assert!(run(&["serve", "127.0.0.1:0", "--faults", "panic:moose"]).is_err());

        run(&["client", &addr, "shutdown"]).expect("client shutdown");
        daemon.join().expect("daemon").expect("clean exit");
    }

    #[test]
    fn sweep_prints_the_ndjson_lines() {
        let path = write_fig1();
        let p = path.to_str();
        let out = run(&["sweep", p, "--cap", "1=1,2,3", "--budget", "1"]).expect("sweep");
        let lines: Vec<Json> = out.lines().map(parse_answer).collect();
        // Header, 2 station groups × 3 capacities, trailer.
        assert_eq!(lines[0].get("points").and_then(Json::as_u64), Some(6));
        assert_eq!(lines.len(), 8);
        assert_eq!(lines[7].get("done").and_then(Json::as_bool), Some(true));
        run(&["sweep", p, "--cap", "1=1,2", "--qs", "--exact"]).expect("sweep --qs");
        let stalls = run(&[
            "sweep", p, "--stalls", "0,100", "--trials", "64", "--cycles", "200",
        ])
        .expect("sweep --stalls");
        assert!(stalls.contains("\"sim\""), "{stalls}");
        let bursts = run(&[
            "sweep",
            p,
            "--cap",
            "1=1,2",
            "--bursts",
            "0,150",
            "--burst-on",
            "300",
            "--trials",
            "64",
            "--cycles",
            "200",
        ])
        .expect("sweep --bursts");
        assert!(bursts.contains("\"burst\""), "{bursts}");
        // A malformed axis is the command line's error; an unknown channel
        // is the daemon's 400.
        let err = run(&["sweep", p, "--cap", "moose"]).expect_err("malformed axis");
        assert!(err.downcast_ref::<StatusError>().is_none(), "{err}");
        let err = run(&["sweep", p, "--cap", "99=1,2"]).expect_err("unknown channel");
        assert_eq!(status_of(err.as_ref()), 400);
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
        let shed_addr = server.local_addr().expect("addr").to_string();
        let shed_daemon = std::thread::spawn(move || server.run());

        let server = lis_server::Server::bind("127.0.0.1:0", lis_server::ServerConfig::default())
            .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let daemon = std::thread::spawn(move || server.run());

        let path = write_fig1();
        let p = path.to_str();
        assert_eq!(
            run(&["client", &addr, "sweep", p, "--cap", "1=1,2"]).expect("client sweep"),
            run(&["sweep", p, "--cap", "1=1,2"]).expect("sweep")
        );

        // A shed sweep surfaces as a StatusError carrying the body's retry
        // hint — the signal `main` maps to exit code 4.
        let err = run(&["client", &shed_addr, "sweep", p, "--retries", "0"])
            .expect_err("shed sweep fails");
        let status = err.downcast_ref::<StatusError>().expect("status error");
        assert_eq!(status.status, 503);
        assert_eq!(status.retry_after_ms, Some(1000));

        assert!(run(&["client", &addr, "sweep"]).is_err());

        for a in [&addr, &shed_addr] {
            run(&["client", a, "shutdown"]).expect("shutdown");
        }
        daemon.join().expect("daemon").expect("clean exit");
        shed_daemon.join().expect("daemon").expect("clean exit");
    }

    /// The lowering is checked against the daemon's own decoder: what the
    /// flags mean is what `RequestKind::decode` makes of the envelope.
    #[test]
    fn sweep_flags_lower_to_the_decoded_spec() {
        use lis_server::RequestKind;
        let decode = |args: &[&str], engine: McmEngine| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let envelope =
                request_envelope(Route::Sweep, "block A\n", &args, engine).expect("lowers");
            match RequestKind::decode("sweep", &envelope).expect("decodes").1 {
                RequestKind::Sweep { spec } => spec,
                other => panic!("{other:?}"),
            }
        };
        let spec = decode(
            &[
                "--cap", "0=1,2", "--cap", "1=4", "--budget", "2", "--qs", "--exact",
            ],
            McmEngine::Karp,
        );
        assert_eq!(spec.engine, McmEngine::Karp);
        assert_eq!(spec.mode, lis_sweep::SweepMode::Qs { exact: true });
        let axes: Vec<_> = spec
            .capacities
            .iter()
            .map(|a| (a.channel, a.values.clone()))
            .collect();
        assert_eq!(axes, vec![(0, vec![1, 2]), (1, vec![4])]);
        assert_eq!(spec.stations, lis_sweep::StationGoal::Budget(2));
        assert!(spec.stalls.is_none() && spec.bursts.is_none());

        // The burst axis takes its list plus the shared knobs; unset knobs
        // take the decoder's defaults.
        let spec = decode(
            &[
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
            ],
            McmEngine::Howard,
        );
        let bursts = spec.bursts.expect("burst axis");
        assert_eq!(bursts.off_per_mille, vec![0, 100, 250]);
        assert_eq!(
            (
                bursts.on_per_mille,
                bursts.trials,
                bursts.cycles,
                bursts.seed
            ),
            (500, 32, 400, 9)
        );
        let stalls = decode(&["--stalls", "0,50"], McmEngine::Howard)
            .stalls
            .expect("stall axis");
        assert_eq!(stalls.per_mille, vec![0, 50]);
        assert_eq!((stalls.trials, stalls.cycles, stalls.seed), (64, 10_000, 0));

        for bad in [
            &["--bursts"][..],
            &["--bursts", "moose"],
            &["--cap", "x=1"],
            &["--cap", "1=x"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                request_envelope(Route::Sweep, "", &args, McmEngine::Howard).is_err(),
                "{bad:?}"
            );
        }
    }

    /// A table row's flag, `--name`.
    fn flag_name(flag: Flag) -> Option<&'static str> {
        match flag {
            Flag::None => None,
            Flag::Switch(n) | Flag::Value(n) | Flag::Pair(n, _) => Some(n),
            Flag::Repeat(n) | Flag::Global(n) => Some(n),
        }
    }

    /// Every flag of the option table lowers onto its own row and decodes:
    /// given alone (after the flag that opens its group), it puts the value
    /// it names at the row's path, and the decoded request's token differs
    /// from the one without it.
    #[test]
    fn every_table_flag_lowers_to_its_row_and_decodes() {
        use lis_server::RequestKind;
        // The words that set `row` to a value other than its default, and
        // the JSON value they stand for.
        fn words(row: &options::Opt) -> (Vec<String>, Json) {
            let n = |n: &str| n.to_string();
            match (row.flag, row.kind) {
                (Flag::Global(_), _) => (vec![], Json::str("karp")),
                (Flag::Switch(f), Kind::Choice(c)) => (vec![n(f)], Json::str(c[c.len() - 1])),
                (Flag::Switch(f), _) => (vec![n(f)], Json::Bool(true)),
                (Flag::Value(f), Kind::Ints(max)) => (
                    vec![n(f), format!("0,{max}")],
                    Json::Arr(vec![Json::num(0), Json::num(max as f64)]),
                ),
                (Flag::Value(f), Kind::Int(min, max, default)) => {
                    let v = if default == min {
                        max.min((1 << 53) - 1)
                    } else {
                        min
                    };
                    (vec![n(f), v.to_string()], Json::num(v as f64))
                }
                (Flag::Pair(f, i), _) => (vec![n(f), "7,9".into()], Json::num([7, 9][i])),
                (Flag::Repeat(f), _) => (
                    vec![n(f), "0=1,2".into()],
                    obj([
                        ("channel", Json::num(0)),
                        ("values", Json::Arr(vec![Json::num(1), Json::num(2)])),
                    ]),
                ),
                other => panic!("no words for {other:?}"),
            }
        }
        let token = |route: Route, args: &[String], engine: McmEngine| {
            let envelope = request_envelope(route, "block A\n", args, engine).expect("lowers");
            let kind = RequestKind::decode(route.name(), &envelope)
                .unwrap_or_else(|e| panic!("{args:?}: {e}"))
                .1;
            (envelope, kind.token())
        };
        let mut lowered = 0;
        for route in [
            Route::Analyze,
            Route::Qs,
            Route::Insert,
            Route::Dot,
            Route::Sweep,
        ] {
            for row in options::rows(route).filter(|r| flag_name(r.flag).is_some()) {
                let (mut args, want) = words(row);
                // The context every other row is set in: a sweep's `exact`
                // counts in qs mode only, and a group's knobs need the flag
                // that opens the group.
                let mut base: Vec<String> = Vec::new();
                if route == Route::Sweep && row.path != "mode" {
                    base.push("--qs".into());
                }
                if let Some((group, _)) = row.path.split_once('.') {
                    let first = options::rows(route)
                        .find(|r| r.path.starts_with(&format!("{group}.")))
                        .expect("a group has rows");
                    if flag_name(first.flag) != flag_name(row.flag) {
                        base.extend(words(first).0);
                    }
                }
                args.extend(base.iter().cloned());
                let engine = match row.flag {
                    Flag::Global(_) => McmEngine::Karp,
                    _ => McmEngine::Howard,
                };
                let (envelope, with) = token(route, &args, engine);
                let (_, without) = token(route, &base, McmEngine::Howard);
                let options = envelope.get("options").expect("options");
                let got = match row.path.split_once('.') {
                    Some((group, key)) => options.get(group).and_then(|g| g.get(key)),
                    None => options.get(row.path),
                };
                let got = got.map(|v| match row.kind {
                    Kind::Axes => v.as_arr().expect("axes")[0].clone(),
                    _ => v.clone(),
                });
                assert_eq!(got, Some(want), "{route:?} {}: {args:?}", row.path);
                assert_ne!(with, without, "{route:?} {}: {args:?}", row.path);
                lowered += 1;
            }
        }
        assert_eq!(
            lowered,
            options::OPTIONS
                .iter()
                .map(|o| o.routes.len() * usize::from(flag_name(o.flag).is_some()))
                .sum::<usize>()
        );
    }

    /// USAGE is written by hand. It names every flag of the option table,
    /// and the synopses of the analysis commands name no flag the table
    /// lacks, `--apply` (a local write of the answer) aside.
    #[test]
    fn usage_names_exactly_the_table_flags() {
        for o in options::OPTIONS {
            let flag = flag_name(o.flag).unwrap_or("--");
            assert!(USAGE.contains(flag), "USAGE lacks {flag}");
        }
        let section = &USAGE[USAGE.find("analysis commands").expect("section")
            ..USAGE.find("server commands").expect("section")];
        let mut route = None;
        let mut seen = 0;
        for line in section.lines().filter(|l| !l.starts_with(&" ".repeat(41))) {
            if line.starts_with("  ") && !line.starts_with("   ") {
                let name = line.split_whitespace().next().expect("a command");
                route = Route::resolve("POST", &format!("/{name}"), |_| true).ok();
            }
            let Some(route) = route else { continue };
            for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if word.starts_with("--") && word != "--apply" {
                    assert!(
                        options::rows(route).any(|o| flag_name(o.flag) == Some(word)),
                        "USAGE gives {} a flag {word} outside the option table",
                        route.name()
                    );
                    seen += 1;
                }
            }
        }
        assert!(seen >= 17, "read {seen} synopsis flags");
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
