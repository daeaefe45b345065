//! Analysis request kinds: parsing from the wire, cache identity, and
//! execution against the analysis engine.
//!
//! Every `POST` analysis route carries the same envelope:
//!
//! ```json
//! {"netlist": "<lis-core netlist text>", "options": { ... }}
//! ```
//!
//! The route selects the job, `options` its knobs. Execution is pure: the
//! same parsed system and kind always produce the same JSON (the solvers
//! underneath are deterministic), which is what makes the responses safe
//! to cache by content hash.
//!
//! Every answer has one renderer: [`render`] maps a job's result to the
//! status and body bytes the daemon sends, and [`sweep_lines`] produces the
//! NDJSON lines of a sweep. The daemon's routes and [`answer`], the
//! in-process entry point behind the local `lis` commands, share both.

use lis_core::{
    canonical_hash, explain_with, fnv1a, parse_netlist, AnalysisReport, LisModel, LisSystem,
    TopologyClass,
};
use lis_qs::{solve_with_engine, QsReport};
use lis_rsopt::{exhaustive_insertion, greedy_insertion};
use lis_schedule::{burst_report, BurstParams, Schedule};
use lis_sweep::{
    BurstAxis, PointReport, StallAxis, Sweep, SweepMode, SweepRow, SweepSpec, SweepSummary,
};
use marked_graph::{McmEngine, Ratio};

use crate::cache::CacheKey;
use crate::error::ServerError;
use crate::metrics::Route;
use crate::options::{self, Options};
use crate::wire::{obj, Json};

/// A decoded analysis request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestKind {
    /// Throughput analysis + topology classification (`POST /analyze`).
    Analyze {
        /// The MCM engine backing the throughput solves.
        engine: McmEngine,
        /// Also compute the explicit periodic firing schedule and the
        /// per-channel queue-occupancy bounds.
        schedule: bool,
        /// Also run the bursty-source Monte-Carlo experiment.
        burst: Option<BurstParams>,
    },
    /// Queue sizing (`POST /qs`), heuristic or exact.
    Qs {
        /// Run the exact branch-and-bound instead of the heuristic.
        exact: bool,
        /// The MCM engine backing the throughput solves.
        engine: McmEngine,
    },
    /// Relay-station insertion search (`POST /insert`).
    Insert {
        /// Maximum stations to insert.
        budget: u32,
    },
    /// Graphviz export of the marked-graph model (`POST /dot`).
    Dot {
        /// Export the doubled model `d[G]` instead of the ideal `G`.
        doubled: bool,
    },
    /// Design-space exploration (`POST /sweep`): one netlist, a grid of
    /// capacities/stations/stall probabilities, streamed row by row.
    Sweep {
        /// The full sweep specification (grid axes, mode, engine).
        spec: SweepSpec,
    },
}

impl RequestKind {
    /// Decodes a request body for the route `route` (`"analyze"`, `"qs"`,
    /// `"insert"`, `"dot"` or `"sweep"`), returning the netlist text and
    /// the decoded kind.
    ///
    /// # Errors
    ///
    /// [`ServerError::BadRequest`] on a missing netlist or on options the
    /// route's rows of [`crate::options::OPTIONS`] refuse;
    /// [`ServerError::NotFound`] for any other route.
    pub fn decode(route: &str, body: &Json) -> Result<(String, RequestKind), ServerError> {
        let netlist = body
            .get("netlist")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                ServerError::BadRequest("body must be {\"netlist\": \"...\", ...}".into())
            })?
            .to_string();
        let route = (options::ROUTES.into_iter().find(|r| r.name() == route))
            .ok_or_else(|| ServerError::NotFound(format!("/{route}")))?;
        let o = Options::new(route, body.get("options"))?;
        let kind = match route {
            Route::Analyze => RequestKind::Analyze {
                engine: o.engine(),
                schedule: o.bool("schedule"),
                burst: o.get("burst").is_some().then(|| BurstParams {
                    off_per_mille: o.int("burst.off_per_mille") as u32,
                    on_per_mille: o.int("burst.on_per_mille") as u32,
                    trials: o.int("burst.trials") as u32,
                    cycles: o.int("burst.cycles"),
                    seed: o.int("burst.seed"),
                }),
            },
            Route::Qs => RequestKind::Qs {
                exact: o.bool("exact"),
                engine: o.engine(),
            },
            Route::Insert => RequestKind::Insert {
                budget: o.int("budget") as u32,
            },
            Route::Dot => RequestKind::Dot {
                doubled: o.bool("doubled"),
            },
            _ => RequestKind::Sweep {
                spec: sweep_spec(&o)?,
            },
        };
        Ok((netlist, kind))
    }

    /// A stable token naming the kind *and* every option that affects the
    /// result — the request half of the cache key.
    pub fn token(&self) -> String {
        match self {
            // The bare form stays exactly `analyze:engine=...` so existing
            // cache entries and replicas keep their identity; options
            // append only when set.
            RequestKind::Analyze {
                engine,
                schedule,
                burst,
            } => {
                let mut t = format!("analyze:engine={engine}");
                if *schedule {
                    t.push_str(":schedule=true");
                }
                if let Some(b) = burst {
                    use std::fmt::Write;
                    let _ = write!(
                        t,
                        ":burst=off{}:on{}:trials{}:cycles{}:seed{}",
                        b.off_per_mille, b.on_per_mille, b.trials, b.cycles, b.seed
                    );
                }
                t
            }
            RequestKind::Qs { exact, engine } => format!("qs:exact={exact}:engine={engine}"),
            RequestKind::Insert { budget } => format!("insert:budget={budget}"),
            RequestKind::Dot { doubled } => format!("dot:doubled={doubled}"),
            RequestKind::Sweep { spec } => spec.token(),
        }
    }

    /// The MCM engine the per-engine latency metrics count this kind
    /// under, for the kinds whose runtime is dominated by throughput solves.
    pub fn engine(&self) -> Option<McmEngine> {
        match self {
            RequestKind::Analyze { engine, .. } | RequestKind::Qs { engine, .. } => Some(*engine),
            RequestKind::Sweep { spec } => Some(spec.engine),
            RequestKind::Insert { .. } | RequestKind::Dot { .. } => None,
        }
    }

    /// The content-addressed cache key for this kind applied to `sys`.
    pub fn cache_key(&self, sys: &LisSystem) -> CacheKey {
        CacheKey {
            system: canonical_hash(sys),
            request: fnv1a(self.token().as_bytes()),
        }
    }

    /// Runs the job. Deterministic in `(sys, self)`.
    ///
    /// # Errors
    ///
    /// [`ServerError::Analysis`] when the underlying solver fails (e.g.
    /// cycle-enumeration limits).
    pub fn execute(&self, sys: &LisSystem) -> Result<Json, ServerError> {
        match self {
            RequestKind::Analyze {
                engine,
                schedule,
                burst,
            } => analyze(sys, *engine, *schedule, burst.as_ref()),
            RequestKind::Qs { exact, engine } => qs(sys, *exact, *engine),
            RequestKind::Insert { budget } => Ok(insert(sys, *budget)),
            RequestKind::Dot { doubled } => Ok(dot(sys, *doubled)),
            RequestKind::Sweep { spec } => sweep_table(sys, spec),
        }
    }
}

/// The `/sweep` job its checked options describe. Which channels exist
/// and how large the grid may grow are checked when the plan is expanded
/// against the parsed netlist.
fn sweep_spec(o: &Options) -> Result<SweepSpec, ServerError> {
    let exact = o.bool("exact");
    Ok(SweepSpec {
        engine: o.engine(),
        mode: match o.choice("mode") {
            "qs" => SweepMode::Qs { exact },
            _ => SweepMode::Analyze,
        },
        capacities: o.axes()?,
        stations: o.stations()?,
        stalls: o.get("stalls").is_some().then(|| StallAxis {
            per_mille: o.ints("stalls.per_mille"),
            trials: o.int("stalls.trials") as u32,
            cycles: o.int("stalls.cycles"),
            seed: o.int("stalls.seed"),
        }),
        bursts: o.get("bursts").is_some().then(|| BurstAxis {
            off_per_mille: o.ints("bursts.off_per_mille"),
            on_per_mille: o.int("bursts.on_per_mille") as u32,
            trials: o.int("bursts.trials") as u32,
            cycles: o.int("bursts.cycles"),
            seed: o.int("bursts.seed"),
        }),
    })
}

fn ratio_json(r: Ratio) -> Json {
    obj([
        ("num", Json::num(r.numer() as f64)),
        ("den", Json::num(r.denom() as f64)),
    ])
}

fn class_label(class: TopologyClass) -> &'static str {
    match class {
        TopologyClass::Tree => "tree",
        TopologyClass::SccNoReconvergence => "scc_no_reconvergence",
        TopologyClass::NetworkNoReconvergence => "network_no_reconvergence",
        TopologyClass::General => "general",
    }
}

/// A channel's index and endpoint names, then the `extra` fields.
fn channel_json<const N: usize>(
    sys: &LisSystem,
    c: lis_core::ChannelId,
    extra: [(&str, Json); N],
) -> Json {
    let name = |b| Json::str(sys.block_name(b));
    let mut fields = Vec::with_capacity(3 + N);
    fields.push(("channel".to_string(), Json::num(c.index() as f64)));
    fields.push(("from".into(), name(sys.channel_from(c))));
    fields.push(("to".into(), name(sys.channel_to(c))));
    fields.extend(extra.map(|(k, v)| (k.to_string(), v)));
    Json::Obj(fields)
}

fn analyze(
    sys: &LisSystem,
    engine: McmEngine,
    schedule: bool,
    burst: Option<&BurstParams>,
) -> Result<Json, ServerError> {
    let base = analyze_report_json(sys, &explain_with(sys, engine));
    if !schedule && burst.is_none() {
        return Ok(base);
    }
    let mut fields = match base {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("analyze_report_json returns an object"),
    };
    if schedule {
        let s = Schedule::compute(sys, engine).map_err(|e| ServerError::Analysis(e.to_string()))?;
        fields.push(("schedule".into(), schedule_json(sys, &s)));
    }
    if let Some(params) = burst {
        fields.push(("burst".into(), burst_json(sys, &burst_report(sys, params))));
    }
    Ok(Json::Obj(fields))
}

/// Renders a computed [`Schedule`]: the exact throughput, the regime shape,
/// one word per transition, and one `{peak, cap}` bound per channel.
fn schedule_json(sys: &LisSystem, s: &Schedule) -> Json {
    let transitions: Vec<Json> = s
        .transitions
        .iter()
        .map(|t| {
            let word: String = t.word.iter().map(|&b| if b { '1' } else { '0' }).collect();
            obj([
                ("name", Json::str(&t.name)),
                ("rate", ratio_json(t.rate)),
                ("firings_per_period", Json::num(t.firings_per_period as f64)),
                ("phase", t.phase.map_or(Json::Null, |p| Json::num(p as f64))),
                ("word", Json::str(&word)),
            ])
        })
        .collect();
    let bounds: Vec<Json> = s
        .bounds
        .iter()
        .map(|b| {
            let extra = [
                ("peak", Json::num(b.peak as f64)),
                ("cap", Json::num(b.cap as f64)),
            ];
            channel_json(sys, b.channel, extra)
        })
        .collect();
    obj([
        ("throughput", ratio_json(s.throughput)),
        ("transient", Json::num(s.transient as f64)),
        ("period", Json::num(s.period as f64)),
        ("transitions", Json::Arr(transitions)),
        ("bounds", Json::Arr(bounds)),
    ])
}

/// Renders a [`lis_schedule::BurstReport`]: the experiment's parameters,
/// observed rates, and per-channel occupancy maxima against the caps.
fn burst_json(sys: &LisSystem, report: &lis_schedule::BurstReport) -> Json {
    let occupancy: Vec<Json> = report
        .occupancy
        .iter()
        .map(|o| {
            let extra = [
                ("max", Json::num(o.max as f64)),
                ("cap", Json::num(o.cap as f64)),
            ];
            channel_json(sys, o.channel, extra)
        })
        .collect();
    let p = &report.params;
    obj([
        ("off_per_mille", Json::num(f64::from(p.off_per_mille))),
        ("on_per_mille", Json::num(f64::from(p.on_per_mille))),
        ("trials", Json::num(f64::from(p.trials))),
        ("cycles", Json::num(p.cycles as f64)),
        ("seed", Json::num(p.seed as f64)),
        ("mean_rate", Json::Num(report.mean_rate)),
        ("min_rate", Json::Num(report.min_rate)),
        ("max_rate", Json::Num(report.max_rate)),
        ("occupancy", Json::Arr(occupancy)),
    ])
}

/// Renders an [`AnalysisReport`] exactly as the `/analyze` route does — the
/// single source of the body layout, shared by the sweep row renderer so a
/// sweep point is byte-identical to an individual round trip. It reads only
/// names and counts from `sys`, none of which depend on queue capacities,
/// so a sweep row passes its group's system.
pub(crate) fn analyze_report_json(sys: &LisSystem, report: &AnalysisReport) -> Json {
    let bottlenecks: Vec<Json> = report
        .bottleneck_queues
        .iter()
        .map(|&c| channel_json(sys, c, []))
        .collect();
    obj([
        ("blocks", Json::num(sys.block_count() as f64)),
        ("channels", Json::num(sys.channel_count() as f64)),
        (
            "relay_stations",
            Json::num(f64::from(sys.relay_station_count())),
        ),
        // The report's own class, not a fresh classify(sys): the value is
        // identical (explain_with stores classify's answer) and a sweep
        // renders thousands of rows — re-deriving it per row would cost
        // more than the row's entire warm solve.
        ("topology_class", Json::str(class_label(report.class))),
        ("engine", Json::str(report.engine.as_str())),
        ("ideal_mst", ratio_json(report.ideal)),
        ("practical_mst", ratio_json(report.practical)),
        ("degraded", Json::Bool(report.is_degraded())),
        (
            "critical_cycle",
            report
                .critical_cycle
                .as_deref()
                .map_or(Json::Null, Json::str),
        ),
        ("bottleneck_queues", Json::Arr(bottlenecks)),
    ])
}

fn qs(sys: &LisSystem, exact: bool, engine: McmEngine) -> Result<Json, ServerError> {
    // `solve_with_engine` checks its own answer; a rejection reads
    // "queue-sizing solution failed verification".
    let report =
        solve_with_engine(sys, exact, engine).map_err(|e| ServerError::Analysis(e.to_string()))?;
    let capacity = |c| sys.queue_capacity(c);
    Ok(qs_report_json(sys, capacity, engine, &report))
}

/// Renders a [`QsReport`] exactly as the `/qs` route does (see
/// [`analyze_report_json`] for why this is shared). Names come from `sys`,
/// queue capacities from `capacity`: a sweep row shares its group's system
/// and carries only its capacity overrides.
pub(crate) fn qs_report_json(
    sys: &LisSystem,
    capacity: impl Fn(lis_core::ChannelId) -> u64,
    engine: McmEngine,
    report: &QsReport,
) -> Json {
    let extra: Vec<Json> = report
        .extra_tokens
        .iter()
        .map(|&(c, w)| {
            let extra = [
                ("extra_slots", Json::num(w as f64)),
                ("new_capacity", Json::num((capacity(c) + w) as f64)),
            ];
            channel_json(sys, c, extra)
        })
        .collect();
    obj([
        ("engine", Json::str(engine.as_str())),
        ("target_mst", ratio_json(report.target)),
        ("practical_before", ratio_json(report.practical_before)),
        ("total_extra", Json::num(report.total_extra as f64)),
        ("optimal", Json::Bool(report.optimal)),
        (
            "deficient_cycles",
            Json::num(report.deficient_cycles as f64),
        ),
        ("extra_tokens", Json::Arr(extra)),
    ])
}

fn insert(sys: &LisSystem, budget: u32) -> Json {
    // Exhaustive search is exponential in the budget: above this cutoff the
    // greedy search answers instead.
    let exhaustive_feasible = (sys.channel_count() as u64).pow(budget.min(6)) <= 2_000_000;
    let result = if exhaustive_feasible {
        exhaustive_insertion(sys, budget)
    } else {
        greedy_insertion(sys, budget)
    };
    let placements: Vec<Json> = result
        .placements
        .iter()
        .map(|&(c, n)| channel_json(sys, c, [("stations", Json::num(f64::from(n)))]))
        .collect();
    let search = if exhaustive_feasible {
        "exhaustive"
    } else {
        "greedy"
    };
    obj([
        ("search", Json::str(search)),
        ("practical_mst", ratio_json(result.practical)),
        ("ideal_mst", ratio_json(result.ideal)),
        ("inserted", Json::num(f64::from(result.inserted))),
        ("placements", Json::Arr(placements)),
    ])
}

fn dot(sys: &LisSystem, doubled: bool) -> Json {
    let (model, name) = if doubled {
        (LisModel::doubled(sys), "doubled")
    } else {
        (LisModel::ideal(sys), "ideal")
    };
    obj([
        ("model", Json::str(name)),
        ("dot", Json::str(marked_graph::dot::to_dot(model.graph()))),
    ])
}

/// The first NDJSON line of a streamed sweep: grid shape and knobs.
fn sweep_header_json(sweep: &Sweep) -> Json {
    let spec = sweep.spec();
    let mode = match spec.mode {
        SweepMode::Analyze => "analyze",
        SweepMode::Qs { .. } => "qs",
    };
    obj([
        ("points", Json::num(sweep.point_count() as f64)),
        ("groups", Json::num(sweep.plan().groups.len() as f64)),
        ("mode", Json::str(mode)),
        ("engine", Json::str(spec.engine.as_str())),
    ])
}

/// One streamed sweep row. The `result` field is rendered by the same
/// functions as the single-shot `/analyze` and `/qs` routes, with names
/// from the row's group system and capacities from the row, so it is
/// byte-identical to the body an individual round trip on that design
/// point would return.
fn sweep_row_json(row: &SweepRow, engine: McmEngine) -> Json {
    let stations: Vec<Json> = row
        .placements
        .iter()
        .map(|&(c, n)| channel_json(&row.group_sys, c, [("add", Json::num(f64::from(n)))]))
        .collect();
    let capacities: Vec<Json> = row
        .capacities
        .iter()
        .map(|&(c, q)| {
            obj([
                ("channel", Json::num(c.index() as f64)),
                ("capacity", Json::num(q as f64)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("point".to_string(), Json::num(row.point as f64)),
        ("group".to_string(), Json::num(row.group as f64)),
        ("stations".to_string(), Json::Arr(stations)),
        ("capacities".to_string(), Json::Arr(capacities)),
        (
            "total_capacity".to_string(),
            Json::num(row.total_capacity as f64),
        ),
    ];
    match &row.outcome {
        Ok(PointReport::Analyze(report)) => {
            fields.push(("result".into(), analyze_report_json(&row.group_sys, report)))
        }
        Ok(PointReport::Qs(report)) => {
            let capacity = |c| row.capacity(c);
            fields.push((
                "result".into(),
                qs_report_json(&row.group_sys, capacity, engine, report),
            ))
        }
        Err(msg) => fields.push(("error".into(), Json::str(msg))),
    }
    if !row.sim.is_empty() {
        let sim: Vec<Json> = row
            .sim
            .iter()
            .map(|p| {
                obj([
                    ("per_mille", Json::num(f64::from(p.per_mille))),
                    ("mean_rate", Json::Num(p.mean_rate)),
                    ("min_rate", Json::Num(p.min_rate)),
                    ("max_rate", Json::Num(p.max_rate)),
                ])
            })
            .collect();
        fields.push(("sim".into(), Json::Arr(sim)));
    }
    if !row.burst.is_empty() {
        let burst: Vec<Json> = row
            .burst
            .iter()
            .map(|p| {
                obj([
                    ("off_per_mille", Json::num(f64::from(p.off_per_mille))),
                    ("mean_rate", Json::Num(p.mean_rate)),
                    ("min_rate", Json::Num(p.min_rate)),
                    ("max_rate", Json::Num(p.max_rate)),
                    ("peak_occupancy", Json::num(p.peak_occupancy as f64)),
                ])
            })
            .collect();
        fields.push(("burst".into(), Json::Arr(burst)));
    }
    Json::Obj(fields)
}

/// The last NDJSON line of a streamed sweep: row count, Pareto front (by
/// point index), and warm-cache statistics.
fn sweep_trailer_json(pareto: &[usize], summary: &SweepSummary) -> Json {
    obj([
        ("done", Json::Bool(true)),
        ("rows", Json::num(summary.points as f64)),
        (
            "pareto",
            Json::Arr(pareto.iter().map(|&i| Json::num(i as f64)).collect()),
        ),
        ("warm_hits", Json::num(summary.warm_hits as f64)),
        ("warm_misses", Json::num(summary.warm_misses as f64)),
    ])
}

/// Which line of a sweep answer [`sweep_lines`] hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepLine {
    /// The first line: grid shape and knobs.
    Header,
    /// One grid point's row.
    Row,
    /// The last line: row count, Pareto front and warm-cache statistics.
    Trailer,
}

/// Plans a sweep; a spec the netlist cannot carry (an unknown channel, a
/// grid over the size cap) is a bad request.
pub(crate) fn plan_sweep(sys: LisSystem, spec: SweepSpec) -> Result<Sweep, ServerError> {
    Sweep::new(sys, spec).map_err(|e| ServerError::BadRequest(e.to_string()))
}

/// Evaluates `sweep` and hands every line of its answer to `emit` in stream
/// order: the header, one row per grid point as the point is solved, then
/// the Pareto trailer. The one producer of sweep lines: the streamed
/// `/sweep`, the buffered table of [`RequestKind::execute`] and [`answer`]
/// all render through it.
pub(crate) fn sweep_lines(sweep: &Sweep, emit: &mut impl FnMut(SweepLine, Json)) {
    emit(SweepLine::Header, sweep_header_json(sweep));
    let engine = sweep.spec().engine;
    let mut objectives = Vec::with_capacity(sweep.point_count());
    let summary = sweep.run(&mut |row| {
        objectives.push(lis_sweep::objectives(&row));
        emit(SweepLine::Row, sweep_row_json(&row, engine));
    });
    let pareto = lis_sweep::pareto_front_objectives(&objectives);
    emit(SweepLine::Trailer, sweep_trailer_json(&pareto, &summary));
}

/// The buffered (non-streaming) sweep result: the header's fields, the
/// rows as one `"rows"` array, then the trailer's Pareto front and warm
/// statistics, from the same lines a streamed `/sweep` emits. This is what
/// [`RequestKind::execute`] returns.
fn sweep_table(sys: &LisSystem, spec: &SweepSpec) -> Result<Json, ServerError> {
    let sweep = plan_sweep(sys.clone(), spec.clone())?;
    let mut fields = Vec::new();
    let mut rows = Vec::new();
    sweep_lines(&sweep, &mut |line, json| match (line, json) {
        (SweepLine::Row, row) => rows.push(row),
        (SweepLine::Header, Json::Obj(header)) => fields = header,
        (SweepLine::Trailer, Json::Obj(trailer)) => {
            fields.push(("rows".into(), Json::Arr(std::mem::take(&mut rows))));
            // The trailer's "rows" is the row count, which the array
            // already carries.
            fields.extend(
                trailer
                    .into_iter()
                    .filter(|(k, _)| k != "done" && k != "rows"),
            );
        }
        _ => unreachable!("sweep headers and trailers are objects"),
    });
    Ok(Json::Obj(fields))
}

/// The daemon's status and body for one job result: the answer under 200,
/// or the typed error body under its status.
pub(crate) fn render(result: Result<Json, ServerError>) -> (u16, Vec<u8>) {
    match result {
        Ok(json) => (200, json.to_string().into_bytes()),
        Err(e) => (e.status(), e.to_json().to_string().into_bytes()),
    }
}

/// Decodes one parsed request envelope for `route`: the request kind, then
/// its netlist.
pub(crate) fn decode_envelope(
    route: Route,
    envelope: &Json,
) -> Result<(LisSystem, RequestKind), ServerError> {
    let (netlist, kind) = RequestKind::decode(route.name(), envelope)?;
    let sys = parse_netlist(&netlist)?;
    Ok((sys, kind))
}

/// Answers one request envelope for `route` in process: the status and
/// body bytes the daemon answers on `/analyze`, `/qs`, `/insert` and
/// `/dot`, and for `/sweep` its NDJSON lines, error answers included. No
/// cache, worker pool or metrics are involved; the local `lis analyze`,
/// `qs`, `insert` and `sweep` commands answer through it.
///
/// ```
/// use lis_server::wire::{obj, Json};
/// use lis_server::{answer, Route};
///
/// let fig1 = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";
/// let (status, body) = answer(Route::Qs, &obj([("netlist", Json::str(fig1))]));
/// assert_eq!(status, 200);
/// let body = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
/// assert_eq!(body.get("total_extra").and_then(Json::as_u64), Some(1));
/// ```
pub fn answer(route: Route, envelope: &Json) -> (u16, Vec<u8>) {
    let (sys, kind) = match decode_envelope(route, envelope) {
        Ok(decoded) => decoded,
        Err(e) => return render(Err(e)),
    };
    let RequestKind::Sweep { spec } = kind else {
        return render(kind.execute(&sys));
    };
    let sweep = match plan_sweep(sys, spec) {
        Ok(sweep) => sweep,
        Err(e) => return render(Err(e)),
    };
    let mut body = Vec::new();
    sweep_lines(&sweep, &mut |_, json| {
        body.extend_from_slice(json.to_string().as_bytes());
        body.push(b'\n');
    });
    (200, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::parse_netlist;
    use lis_sweep::StationGoal;

    const FIG1: &str = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";

    fn fig1() -> LisSystem {
        parse_netlist(FIG1).expect("fig1 parses")
    }

    #[test]
    fn decode_accepts_every_route_and_option() {
        let body = |options: &str| {
            Json::parse(&format!(
                r#"{{"netlist": {}, "options": {options}}}"#,
                Json::str(FIG1)
            ))
            .unwrap()
        };
        let (text, kind) = RequestKind::decode("analyze", &body("{}")).unwrap();
        assert_eq!(text, FIG1);
        assert_eq!(
            kind,
            RequestKind::Analyze {
                engine: McmEngine::Howard,
                schedule: false,
                burst: None,
            }
        );
        assert_eq!(
            RequestKind::decode("qs", &body(r#"{"exact": true}"#))
                .unwrap()
                .1,
            RequestKind::Qs {
                exact: true,
                engine: McmEngine::Howard
            }
        );
        assert_eq!(
            RequestKind::decode("insert", &body(r#"{"budget": 3}"#))
                .unwrap()
                .1,
            RequestKind::Insert { budget: 3 }
        );
        assert_eq!(
            RequestKind::decode("dot", &body(r#"{"doubled": true}"#))
                .unwrap()
                .1,
            RequestKind::Dot { doubled: true }
        );
    }

    /// The option list is closed: a key outside the route's rows, or an
    /// `options` or group that is not an object, is a 400 naming it. Each
    /// of these envelopes used to answer 200 with the option ignored.
    #[test]
    fn options_outside_the_routes_rows_are_refused_by_path() {
        for (route, options, message) in [
            (
                "qs",
                r#"{"exat": true}"#,
                r#"unknown option "exat" for /qs"#,
            ),
            ("qs", "5", r#""options" must be null or an object"#),
            ("qs", "[]", r#""options" must be null or an object"#),
            (
                "analyze",
                r#""x""#,
                r#""options" must be null or an object"#,
            ),
            (
                "analyze",
                r#"{"burst": {"trails": 5000}}"#,
                r#"unknown option "burst.trails" for /analyze"#,
            ),
            (
                "analyze",
                r#"{"exact": true}"#,
                r#"unknown option "exact" for /analyze"#,
            ),
            (
                "dot",
                r#"{"engine": "karp"}"#,
                r#"unknown option "engine" for /dot"#,
            ),
            (
                "sweep",
                r#"{"stalls": {"per_mille": [1], "p": 2}}"#,
                r#"unknown option "stalls.p" for /sweep"#,
            ),
            (
                "analyze",
                r#"{"burst": null}"#,
                r#"option "burst" must be an object"#,
            ),
            (
                "sweep",
                r#"{"bursts": [1]}"#,
                r#"option "bursts" must be an object"#,
            ),
        ] {
            let body = Json::parse(&format!(
                r#"{{"netlist": {}, "options": {options}}}"#,
                Json::str(FIG1)
            ))
            .unwrap();
            let err = RequestKind::decode(route, &body).expect_err(options);
            assert_eq!(err.status(), 400, "{route} {options}");
            assert_eq!(err.to_string(), format!("bad request: {message}"));
        }
        // Absent and null options take every default.
        for options in ["null", "{}"] {
            let body = Json::parse(&format!(
                r#"{{"netlist": {}, "options": {options}}}"#,
                Json::str(FIG1)
            ))
            .unwrap();
            assert_eq!(
                RequestKind::decode("insert", &body).unwrap().1,
                RequestKind::Insert { budget: 2 }
            );
        }
    }

    #[test]
    fn decode_defaults_options() {
        let body = Json::parse(&format!(r#"{{"netlist": {}}}"#, Json::str(FIG1))).unwrap();
        assert_eq!(
            RequestKind::decode("qs", &body).unwrap().1,
            RequestKind::Qs {
                exact: false,
                engine: McmEngine::Howard
            }
        );
        assert_eq!(
            RequestKind::decode("insert", &body).unwrap().1,
            RequestKind::Insert { budget: 2 }
        );
    }

    #[test]
    fn decode_selects_and_validates_the_engine() {
        for (name, engine) in [
            ("howard", McmEngine::Howard),
            ("karp", McmEngine::Karp),
            ("lawler", McmEngine::Lawler),
        ] {
            let body = Json::parse(&format!(
                r#"{{"netlist": {}, "options": {{"engine": "{name}"}}}}"#,
                Json::str(FIG1)
            ))
            .unwrap();
            assert_eq!(
                RequestKind::decode("analyze", &body).unwrap().1,
                RequestKind::Analyze {
                    engine,
                    schedule: false,
                    burst: None,
                }
            );
            assert_eq!(
                RequestKind::decode("qs", &body).unwrap().1,
                RequestKind::Qs {
                    exact: false,
                    engine
                }
            );
        }
        let bad = Json::parse(&format!(
            r#"{{"netlist": {}, "options": {{"engine": "dijkstra"}}}}"#,
            Json::str(FIG1)
        ))
        .unwrap();
        assert!(matches!(
            RequestKind::decode("analyze", &bad),
            Err(ServerError::BadRequest(_))
        ));
        let ill_typed = Json::parse(&format!(
            r#"{{"netlist": {}, "options": {{"engine": 7}}}}"#,
            Json::str(FIG1)
        ))
        .unwrap();
        assert!(matches!(
            RequestKind::decode("qs", &ill_typed),
            Err(ServerError::BadRequest(_))
        ));
    }

    #[test]
    fn decode_rejects_bad_envelopes() {
        let no_netlist = Json::parse(r#"{"options": {}}"#).unwrap();
        assert!(matches!(
            RequestKind::decode("analyze", &no_netlist),
            Err(ServerError::BadRequest(_))
        ));
        let bad_opt = Json::parse(&format!(
            r#"{{"netlist": {}, "options": {{"exact": 1}}}}"#,
            Json::str(FIG1)
        ))
        .unwrap();
        assert!(matches!(
            RequestKind::decode("qs", &bad_opt),
            Err(ServerError::BadRequest(_))
        ));
        let big_budget = Json::parse(&format!(
            r#"{{"netlist": {}, "options": {{"budget": 999}}}}"#,
            Json::str(FIG1)
        ))
        .unwrap();
        assert!(matches!(
            RequestKind::decode("insert", &big_budget),
            Err(ServerError::BadRequest(_))
        ));
        let ok = Json::parse(&format!(r#"{{"netlist": {}}}"#, Json::str(FIG1))).unwrap();
        assert!(matches!(
            RequestKind::decode("nonsense", &ok),
            Err(ServerError::NotFound(_))
        ));
    }

    #[test]
    fn cache_keys_separate_kinds_and_share_equivalent_netlists() {
        let sys = fig1();
        let noisy = parse_netlist(
            "# same system\nblock \"A\"\nblock B\nchannel A -> B rs=1 q=1\nchannel A -> B\n",
        )
        .unwrap();
        let analyze = RequestKind::Analyze {
            engine: McmEngine::Howard,
            schedule: false,
            burst: None,
        };
        let analyze_karp = RequestKind::Analyze {
            engine: McmEngine::Karp,
            schedule: false,
            burst: None,
        };
        let qs_h = RequestKind::Qs {
            exact: false,
            engine: McmEngine::Howard,
        };
        let qs_x = RequestKind::Qs {
            exact: true,
            engine: McmEngine::Howard,
        };
        assert_eq!(analyze.cache_key(&sys), analyze.cache_key(&noisy));
        assert_ne!(analyze.cache_key(&sys), qs_h.cache_key(&sys));
        assert_ne!(qs_h.cache_key(&sys), qs_x.cache_key(&sys));
        // Different engines must not share cache entries.
        assert_ne!(analyze.cache_key(&sys), analyze_karp.cache_key(&sys));
    }

    /// Cache keys are durable: store entries and replicas on disk are
    /// addressed by them, so the FNV-1a request hash must never drift.
    #[test]
    fn fig1_cache_keys_are_pinned() {
        let envelope = Json::parse(&format!(r#"{{"netlist": {}}}"#, Json::str(FIG1))).unwrap();
        for (route, request) in [
            ("analyze", 0x8704_a6f6_04a1_7c5b),
            ("qs", 0xf672_2c62_d91d_84ba),
        ] {
            let (_, kind) = RequestKind::decode(route, &envelope).unwrap();
            let key = kind.cache_key(&fig1());
            assert_eq!(
                (key.system, key.request),
                (0xeaf1_b589_bf00_fbb7, request),
                "{route}"
            );
        }
    }

    #[test]
    fn engines_cover_the_throughput_routes() {
        assert_eq!(
            RequestKind::Analyze {
                engine: McmEngine::Karp,
                schedule: false,
                burst: None,
            }
            .engine(),
            Some(McmEngine::Karp)
        );
        assert_eq!(
            RequestKind::Qs {
                exact: true,
                engine: McmEngine::Lawler
            }
            .engine(),
            Some(McmEngine::Lawler)
        );
        assert_eq!(RequestKind::Insert { budget: 1 }.engine(), None);
        assert_eq!(RequestKind::Dot { doubled: false }.engine(), None);
    }

    #[test]
    fn analyze_reports_the_fig1_numbers() {
        let out = RequestKind::Analyze {
            engine: McmEngine::Howard,
            schedule: false,
            burst: None,
        }
        .execute(&fig1())
        .unwrap();
        assert_eq!(out.get("blocks").unwrap().as_u64(), Some(2));
        assert_eq!(out.get("topology_class").unwrap().as_str(), Some("general"));
        assert_eq!(out.get("engine").unwrap().as_str(), Some("howard"));
        let practical = out.get("practical_mst").unwrap();
        assert_eq!(practical.get("num").unwrap().as_u64(), Some(2));
        assert_eq!(practical.get("den").unwrap().as_u64(), Some(3));
        assert_eq!(out.get("degraded").unwrap().as_bool(), Some(true));
        assert!(!out
            .get("bottleneck_queues")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn qs_exact_fixes_fig1_with_one_slot() {
        let out = RequestKind::Qs {
            exact: true,
            engine: McmEngine::Howard,
        }
        .execute(&fig1())
        .unwrap();
        assert_eq!(out.get("total_extra").unwrap().as_u64(), Some(1));
        assert_eq!(out.get("optimal").unwrap().as_bool(), Some(true));
        let extra = out.get("extra_tokens").unwrap().as_arr().unwrap();
        assert_eq!(extra.len(), 1);
        assert_eq!(extra[0].get("extra_slots").unwrap().as_u64(), Some(1));
        assert_eq!(extra[0].get("new_capacity").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn insert_and_dot_run_on_fig1() {
        let out = RequestKind::Insert { budget: 1 }.execute(&fig1()).unwrap();
        assert_eq!(out.get("search").unwrap().as_str(), Some("exhaustive"));
        assert!(out.get("practical_mst").unwrap().get("num").is_some());
        let ideal = RequestKind::Dot { doubled: false }
            .execute(&fig1())
            .unwrap();
        assert!(ideal
            .get("dot")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("digraph"));
        let doubled = RequestKind::Dot { doubled: true }.execute(&fig1()).unwrap();
        assert!(
            doubled.get("dot").unwrap().as_str().unwrap().len()
                > ideal.get("dot").unwrap().as_str().unwrap().len()
        );
    }

    #[test]
    fn decode_analyze_schedule_and_burst_options() {
        let body = Json::parse(&format!(
            concat!(
                r#"{{"netlist": {}, "options": {{"schedule": true, "#,
                r#""burst": {{"off_per_mille": 150, "on_per_mille": 400, "#,
                r#""trials": 96, "cycles": 2048, "seed": 11}}}}}}"#
            ),
            Json::str(FIG1)
        ))
        .unwrap();
        let (_, kind) = RequestKind::decode("analyze", &body).unwrap();
        assert_eq!(
            kind,
            RequestKind::Analyze {
                engine: McmEngine::Howard,
                schedule: true,
                burst: Some(BurstParams {
                    off_per_mille: 150,
                    on_per_mille: 400,
                    trials: 96,
                    cycles: 2048,
                    seed: 11,
                }),
            }
        );

        // Burst fields default; absent burst stays None.
        let body = Json::parse(&format!(
            r#"{{"netlist": {}, "options": {{"burst": {{}}}}}}"#,
            Json::str(FIG1)
        ))
        .unwrap();
        let (_, kind) = RequestKind::decode("analyze", &body).unwrap();
        assert_eq!(
            kind,
            RequestKind::Analyze {
                engine: McmEngine::Howard,
                schedule: false,
                burst: Some(BurstParams::default()),
            }
        );

        // Out-of-range probabilities and zero workloads are rejected.
        for bad in [
            r#"{"off_per_mille": 1500}"#,
            r#"{"on_per_mille": 0}"#,
            r#"{"trials": 0}"#,
            r#"{"trials": 100000}"#,
            r#"{"cycles": 0}"#,
        ] {
            let body = Json::parse(&format!(
                r#"{{"netlist": {}, "options": {{"burst": {bad}}}}}"#,
                Json::str(FIG1)
            ))
            .unwrap();
            assert!(
                matches!(
                    RequestKind::decode("analyze", &body),
                    Err(ServerError::BadRequest(_))
                ),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn schedule_tokens_preserve_the_legacy_identity_and_separate_options() {
        let bare = RequestKind::Analyze {
            engine: McmEngine::Howard,
            schedule: false,
            burst: None,
        };
        // The bare token is byte-identical to the pre-schedule format, so
        // existing cache entries and store replicas keep their identity.
        assert_eq!(bare.token(), "analyze:engine=howard");
        let with_schedule = RequestKind::Analyze {
            engine: McmEngine::Howard,
            schedule: true,
            burst: None,
        };
        let with_burst = RequestKind::Analyze {
            engine: McmEngine::Howard,
            schedule: false,
            burst: Some(BurstParams::default()),
        };
        let sys = fig1();
        assert_ne!(bare.cache_key(&sys), with_schedule.cache_key(&sys));
        assert_ne!(bare.cache_key(&sys), with_burst.cache_key(&sys));
        assert_ne!(with_schedule.cache_key(&sys), with_burst.cache_key(&sys));
        let other_seed = RequestKind::Analyze {
            engine: McmEngine::Howard,
            schedule: false,
            burst: Some(BurstParams {
                seed: 1,
                ..BurstParams::default()
            }),
        };
        assert_ne!(with_burst.cache_key(&sys), other_seed.cache_key(&sys));
    }

    #[test]
    fn analyze_with_schedule_reports_the_fig1_regime() {
        let out = RequestKind::Analyze {
            engine: McmEngine::Howard,
            schedule: true,
            burst: Some(BurstParams {
                trials: 64,
                cycles: 512,
                ..BurstParams::default()
            }),
        }
        .execute(&fig1())
        .unwrap();
        // The plain analyze fields are untouched by the extras.
        assert_eq!(out.get("blocks").unwrap().as_u64(), Some(2));
        let schedule = out.get("schedule").unwrap();
        let theta = schedule.get("throughput").unwrap();
        assert_eq!(theta.get("num").unwrap().as_u64(), Some(2));
        assert_eq!(theta.get("den").unwrap().as_u64(), Some(3));
        for t in schedule.get("transitions").unwrap().as_arr().unwrap() {
            let rate = t.get("rate").unwrap();
            assert_eq!(rate.get("num").unwrap().as_u64(), Some(2));
            assert_eq!(rate.get("den").unwrap().as_u64(), Some(3));
            let word = t.get("word").unwrap().as_str().unwrap();
            assert_eq!(
                word.len() as u64,
                schedule.get("period").unwrap().as_u64().unwrap()
            );
        }
        for b in schedule.get("bounds").unwrap().as_arr().unwrap() {
            assert!(b.get("peak").unwrap().as_u64() <= b.get("cap").unwrap().as_u64());
        }
        let burst = out.get("burst").unwrap();
        assert!(burst.get("mean_rate").unwrap().as_f64().unwrap() <= 2.0 / 3.0 + 1e-9);
        for occ in burst.get("occupancy").unwrap().as_arr().unwrap() {
            assert!(occ.get("max").unwrap().as_u64() <= occ.get("cap").unwrap().as_u64());
        }
    }

    #[test]
    fn decode_sweep_options() {
        let body = Json::parse(&format!(
            concat!(
                r#"{{"netlist": {}, "options": {{"mode": "qs", "exact": true, "#,
                r#""engine": "karp", "capacities": [{{"channel": 1, "values": [1, 2, 4]}}], "#,
                r#""budget": 2, "stalls": {{"per_mille": [0, 250], "trials": 32, "#,
                r#""cycles": 500, "seed": 7}}}}}}"#
            ),
            Json::str(FIG1)
        ))
        .unwrap();
        let (_, kind) = RequestKind::decode("sweep", &body).unwrap();
        let RequestKind::Sweep { spec } = &kind else {
            panic!("sweep kind");
        };
        assert_eq!(spec.mode, SweepMode::Qs { exact: true });
        assert_eq!(spec.engine, McmEngine::Karp);
        assert_eq!(spec.capacities.len(), 1);
        assert_eq!(spec.capacities[0].values, vec![1, 2, 4]);
        assert_eq!(spec.stations, StationGoal::Budget(2));
        let stalls = spec.stalls.as_ref().unwrap();
        assert_eq!(stalls.per_mille, vec![0, 250]);
        assert_eq!(stalls.trials, 32);
        assert_eq!(stalls.cycles, 500);
        assert_eq!(stalls.seed, 7);
        assert_eq!(kind.engine(), Some(McmEngine::Karp));
        assert_eq!(kind.token(), spec.token());

        // Defaults: analyze mode, base stations, no stalls.
        let bare = Json::parse(&format!(r#"{{"netlist": {}}}"#, Json::str(FIG1))).unwrap();
        let (_, kind) = RequestKind::decode("sweep", &bare).unwrap();
        assert_eq!(
            kind,
            RequestKind::Sweep {
                spec: SweepSpec::analyze()
            }
        );

        // Budget and explicit stations are mutually exclusive.
        let both = Json::parse(&format!(
            r#"{{"netlist": {}, "options": {{"budget": 1, "stations": [[]]}}}}"#,
            Json::str(FIG1)
        ))
        .unwrap();
        assert!(matches!(
            RequestKind::decode("sweep", &both),
            Err(ServerError::BadRequest(_))
        ));
    }

    #[test]
    fn sweep_rows_match_individual_round_trip_bodies() {
        let body = Json::parse(&format!(
            concat!(
                r#"{{"netlist": {}, "options": {{"capacities": "#,
                r#"[{{"channel": 1, "values": [1, 2, 3]}}], "budget": 2}}}}"#
            ),
            Json::str(FIG1)
        ))
        .unwrap();
        let (_, kind) = RequestKind::decode("sweep", &body).unwrap();
        let table = kind.execute(&fig1()).unwrap();
        // Each key once, in stream order: header, rows, trailer.
        let Json::Obj(fields) = &table else {
            panic!("the sweep table is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "points",
                "groups",
                "mode",
                "engine",
                "rows",
                "pareto",
                "warm_hits",
                "warm_misses"
            ]
        );
        let rows = table.get("rows").unwrap().as_arr().unwrap();
        // Fig. 1 greedy frontier has two groups (bare, one station) × 3 caps.
        assert_eq!(table.get("points").unwrap().as_u64(), Some(6));
        assert_eq!(rows.len(), 6);
        for row in rows {
            // Rebuild the row's design point from scratch and run the
            // single-shot analyze job on it: byte-identical bodies.
            let mut sys = fig1();
            for s in row.get("stations").unwrap().as_arr().unwrap() {
                let c =
                    lis_core::ChannelId::new(s.get("channel").unwrap().as_u64().unwrap() as usize);
                for _ in 0..s.get("add").unwrap().as_u64().unwrap() {
                    sys.add_relay_station(c);
                }
            }
            for cap in row.get("capacities").unwrap().as_arr().unwrap() {
                let c = lis_core::ChannelId::new(
                    cap.get("channel").unwrap().as_u64().unwrap() as usize
                );
                sys.set_queue_capacity(c, cap.get("capacity").unwrap().as_u64().unwrap())
                    .unwrap();
            }
            let single = RequestKind::Analyze {
                engine: McmEngine::Howard,
                schedule: false,
                burst: None,
            }
            .execute(&sys)
            .unwrap();
            assert_eq!(
                row.get("result").unwrap().to_string(),
                single.to_string(),
                "point {:?}",
                row.get("point")
            );
        }
        // The trailer data rides on the table: Pareto indices and warm stats.
        assert!(!table.get("pareto").unwrap().as_arr().unwrap().is_empty());
        assert!(table.get("warm_hits").unwrap().as_u64().is_some());
    }

    #[test]
    fn execution_is_deterministic() {
        let sys = fig1();
        for kind in [
            RequestKind::Analyze {
                engine: McmEngine::Howard,
                schedule: true,
                burst: Some(BurstParams {
                    trials: 64,
                    cycles: 256,
                    ..BurstParams::default()
                }),
            },
            RequestKind::Qs {
                exact: false,
                engine: McmEngine::Lawler,
            },
            RequestKind::Insert { budget: 2 },
            RequestKind::Dot { doubled: true },
        ] {
            let a = kind.execute(&sys).unwrap().to_string();
            let b = kind.execute(&sys).unwrap().to_string();
            assert_eq!(a, b, "{kind:?} was not deterministic");
        }
    }
}
