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

use lis_core::{
    canonical_hash, explain_with, fnv1a, AnalysisReport, LisModel, LisSystem, TopologyClass,
};
use lis_qs::{solve, verify_solution, Algorithm, QsConfig, QsReport};
use lis_rsopt::{exhaustive_insertion, greedy_insertion};
use lis_schedule::{burst_report, BurstParams, Schedule};
use lis_sweep::{
    BurstAxis, CapacityAxis, PointReport, StallAxis, StationGoal, Sweep, SweepMode, SweepRow,
    SweepSpec, SweepSummary,
};
use marked_graph::{McmEngine, Ratio};

use crate::cache::CacheKey;
use crate::error::ServerError;
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
    /// Decodes a request body for the analysis route `route`
    /// (`"analyze"`, `"qs"`, `"insert"`, or `"dot"`), returning the
    /// netlist text and the decoded kind.
    ///
    /// # Errors
    ///
    /// [`ServerError::BadRequest`] on missing/ill-typed fields.
    pub fn decode(route: &str, body: &Json) -> Result<(String, RequestKind), ServerError> {
        let netlist = body
            .get("netlist")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                ServerError::BadRequest("body must be {\"netlist\": \"...\", ...}".into())
            })?
            .to_string();
        let options = body.get("options").unwrap_or(&Json::Null);
        let opt_bool = |name: &str| -> Result<bool, ServerError> {
            match options.get(name) {
                None => Ok(false),
                Some(v) => v.as_bool().ok_or_else(|| {
                    ServerError::BadRequest(format!("option {name:?} must be a boolean"))
                }),
            }
        };
        let opt_engine = || -> Result<McmEngine, ServerError> {
            match options.get("engine") {
                None => Ok(McmEngine::default()),
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| {
                        ServerError::BadRequest("option \"engine\" must be a string".into())
                    })?
                    .parse()
                    .map_err(ServerError::BadRequest),
            }
        };
        let kind = match route {
            "analyze" => RequestKind::Analyze {
                engine: opt_engine()?,
                schedule: opt_bool("schedule")?,
                burst: decode_burst_params(options)?,
            },
            "qs" => RequestKind::Qs {
                exact: opt_bool("exact")?,
                engine: opt_engine()?,
            },
            "insert" => {
                let budget = match options.get("budget") {
                    None => 2,
                    Some(v) => v.as_u64().filter(|&b| b <= 16).ok_or_else(|| {
                        ServerError::BadRequest(
                            "option \"budget\" must be an integer in 0..=16".into(),
                        )
                    })? as u32,
                };
                RequestKind::Insert { budget }
            }
            "dot" => RequestKind::Dot {
                doubled: opt_bool("doubled")?,
            },
            "sweep" => RequestKind::Sweep {
                spec: decode_sweep_spec(options, opt_bool("exact")?, opt_engine()?)?,
            },
            other => return Err(ServerError::NotFound(format!("/{other}"))),
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

    /// The MCM engine label for the per-engine latency metrics, for the
    /// kinds whose runtime is dominated by throughput solves.
    pub fn engine_label(&self) -> Option<&'static str> {
        match self {
            RequestKind::Analyze { engine, .. } | RequestKind::Qs { engine, .. } => {
                Some(engine.as_str())
            }
            RequestKind::Sweep { spec } => Some(spec.engine.as_str()),
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

/// Decodes the optional `"burst"` object of `/analyze` options into
/// [`BurstParams`] (missing fields take the [`BurstParams::default`]
/// values). `None` when the option is absent.
fn decode_burst_params(options: &Json) -> Result<Option<BurstParams>, ServerError> {
    let Some(b) = options.get("burst") else {
        return Ok(None);
    };
    let bad = |msg: &str| ServerError::BadRequest(msg.into());
    let field_u64 = |name: &str, default: u64| -> Result<u64, ServerError> {
        match b.get(name) {
            None => Ok(default),
            Some(v) => v.as_u64().ok_or_else(|| {
                ServerError::BadRequest(format!("burst {name:?} must be a non-negative integer"))
            }),
        }
    };
    let defaults = BurstParams::default();
    let per_mille = |name: &str, default: u32| -> Result<u32, ServerError> {
        let v = field_u64(name, u64::from(default))?;
        u32::try_from(v)
            .ok()
            .filter(|&p| p <= 1000)
            .ok_or_else(|| ServerError::BadRequest(format!("burst {name:?} must be ≤ 1000‰")))
    };
    let off_per_mille = per_mille("off_per_mille", defaults.off_per_mille)?;
    let on_per_mille = per_mille("on_per_mille", defaults.on_per_mille)?;
    if on_per_mille == 0 {
        return Err(bad("burst \"on_per_mille\" must be positive"));
    }
    let trials = u32::try_from(field_u64("trials", u64::from(defaults.trials))?)
        .ok()
        .filter(|&t| (1..=4096).contains(&t))
        .ok_or_else(|| bad("burst \"trials\" must be in 1..=4096"))?;
    let cycles = field_u64("cycles", defaults.cycles)?;
    if cycles == 0 || cycles > 1_000_000 {
        return Err(bad("burst \"cycles\" must be in 1..=1000000"));
    }
    Ok(Some(BurstParams {
        off_per_mille,
        on_per_mille,
        trials,
        cycles,
        seed: field_u64("seed", defaults.seed)?,
    }))
}

/// Decodes the `/sweep` options object into a [`SweepSpec`]. Type errors
/// are caught here; semantic validation (unknown channels, grid-size caps)
/// happens when the plan is expanded against the parsed netlist.
fn decode_sweep_spec(
    options: &Json,
    exact: bool,
    engine: McmEngine,
) -> Result<SweepSpec, ServerError> {
    let bad = |msg: &str| ServerError::BadRequest(msg.into());
    let as_u64 = |v: &Json, what: &str| {
        v.as_u64().ok_or_else(|| {
            ServerError::BadRequest(format!("{what} must be a non-negative integer"))
        })
    };
    let mode = match options.get("mode") {
        None => SweepMode::Analyze,
        Some(v) => match v.as_str() {
            Some("analyze") => SweepMode::Analyze,
            Some("qs") => SweepMode::Qs { exact },
            _ => return Err(bad("option \"mode\" must be \"analyze\" or \"qs\"")),
        },
    };
    let mut capacities = Vec::new();
    if let Some(axes) = options.get("capacities") {
        let axes = axes
            .as_arr()
            .ok_or_else(|| bad("option \"capacities\" must be an array of axes"))?;
        for axis in axes {
            let channel = as_u64(
                axis.get("channel").ok_or_else(|| {
                    bad("each capacity axis must be {\"channel\": N, \"values\": [...]}")
                })?,
                "axis \"channel\"",
            )? as usize;
            let values = axis
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("axis \"values\" must be an array"))?
                .iter()
                .map(|v| as_u64(v, "axis value"))
                .collect::<Result<Vec<u64>, _>>()?;
            capacities.push(CapacityAxis { channel, values });
        }
    }
    let stations = match (options.get("budget"), options.get("stations")) {
        (Some(_), Some(_)) => {
            return Err(bad(
                "options \"budget\" and \"stations\" are mutually exclusive",
            ))
        }
        (Some(b), None) => {
            let b = as_u64(b, "option \"budget\"")?;
            let b = u32::try_from(b).map_err(|_| bad("option \"budget\" is out of range"))?;
            StationGoal::Budget(b)
        }
        (None, Some(configs)) => {
            let configs = configs
                .as_arr()
                .ok_or_else(|| bad("option \"stations\" must be an array of configurations"))?;
            let mut out = Vec::with_capacity(configs.len());
            for cfg in configs {
                let cfg = cfg
                    .as_arr()
                    .ok_or_else(|| bad("each station configuration must be an array"))?;
                let mut placements = Vec::with_capacity(cfg.len());
                for entry in cfg {
                    let channel = as_u64(
                        entry.get("channel").ok_or_else(|| {
                            bad("each station entry must be {\"channel\": N, \"add\": N}")
                        })?,
                        "station \"channel\"",
                    )? as usize;
                    let add = as_u64(
                        entry
                            .get("add")
                            .ok_or_else(|| bad("station entry is missing \"add\""))?,
                        "station \"add\"",
                    )?;
                    let add =
                        u32::try_from(add).map_err(|_| bad("station \"add\" is out of range"))?;
                    placements.push((channel, add));
                }
                out.push(placements);
            }
            StationGoal::Configs(out)
        }
        (None, None) => StationGoal::Base,
    };
    let stalls = match options.get("stalls") {
        None => None,
        Some(s) => {
            let per_mille = s
                .get("per_mille")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("stalls \"per_mille\" must be an array"))?
                .iter()
                .map(|v| {
                    as_u64(v, "stall probability").and_then(|p| {
                        u32::try_from(p).map_err(|_| bad("stall probability is out of range"))
                    })
                })
                .collect::<Result<Vec<u32>, _>>()?;
            let trials = match s.get("trials") {
                None => 64,
                Some(v) => u32::try_from(as_u64(v, "stalls \"trials\"")?)
                    .map_err(|_| bad("stalls \"trials\" is out of range"))?,
            };
            let cycles = match s.get("cycles") {
                None => 10_000,
                Some(v) => as_u64(v, "stalls \"cycles\"")?,
            };
            let seed = match s.get("seed") {
                None => 0,
                Some(v) => as_u64(v, "stalls \"seed\"")?,
            };
            Some(StallAxis {
                per_mille,
                trials,
                cycles,
                seed,
            })
        }
    };
    let bursts = match options.get("bursts") {
        None => None,
        Some(s) => {
            let off_per_mille = s
                .get("off_per_mille")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("bursts \"off_per_mille\" must be an array"))?
                .iter()
                .map(|v| {
                    as_u64(v, "burst probability").and_then(|p| {
                        u32::try_from(p).map_err(|_| bad("burst probability is out of range"))
                    })
                })
                .collect::<Result<Vec<u32>, _>>()?;
            let on_per_mille = match s.get("on_per_mille") {
                None => 300,
                Some(v) => u32::try_from(as_u64(v, "bursts \"on_per_mille\"")?)
                    .map_err(|_| bad("bursts \"on_per_mille\" is out of range"))?,
            };
            let trials = match s.get("trials") {
                None => 64,
                Some(v) => u32::try_from(as_u64(v, "bursts \"trials\"")?)
                    .map_err(|_| bad("bursts \"trials\" is out of range"))?,
            };
            let cycles = match s.get("cycles") {
                None => 10_000,
                Some(v) => as_u64(v, "bursts \"cycles\"")?,
            };
            let seed = match s.get("seed") {
                None => 0,
                Some(v) => as_u64(v, "bursts \"seed\"")?,
            };
            Some(BurstAxis {
                off_per_mille,
                on_per_mille,
                trials,
                cycles,
                seed,
            })
        }
    };
    Ok(SweepSpec {
        mode,
        engine,
        capacities,
        stations,
        stalls,
        bursts,
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

fn channel_json(sys: &LisSystem, c: lis_core::ChannelId) -> Json {
    obj([
        ("channel", Json::num(c.index() as f64)),
        ("from", Json::str(sys.block_name(sys.channel_from(c)))),
        ("to", Json::str(sys.block_name(sys.channel_to(c)))),
    ])
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
            let mut entry = match channel_json(sys, b.channel) {
                Json::Obj(pairs) => pairs,
                _ => unreachable!("channel_json returns an object"),
            };
            entry.push(("peak".into(), Json::num(b.peak as f64)));
            entry.push(("cap".into(), Json::num(b.cap as f64)));
            Json::Obj(entry)
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
            let mut entry = match channel_json(sys, o.channel) {
                Json::Obj(pairs) => pairs,
                _ => unreachable!("channel_json returns an object"),
            };
            entry.push(("max".into(), Json::num(o.max as f64)));
            entry.push(("cap".into(), Json::num(o.cap as f64)));
            Json::Obj(entry)
        })
        .collect();
    obj([
        (
            "off_per_mille",
            Json::num(f64::from(report.params.off_per_mille)),
        ),
        (
            "on_per_mille",
            Json::num(f64::from(report.params.on_per_mille)),
        ),
        ("trials", Json::num(f64::from(report.params.trials))),
        ("cycles", Json::num(report.params.cycles as f64)),
        ("seed", Json::num(report.params.seed as f64)),
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
        .map(|&c| channel_json(sys, c))
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
    let algo = if exact {
        Algorithm::Exact
    } else {
        Algorithm::Heuristic
    };
    let cfg = QsConfig {
        engine,
        ..QsConfig::default()
    };
    let report = solve(sys, algo, &cfg).map_err(|e| ServerError::Analysis(e.to_string()))?;
    if !verify_solution(sys, &report) {
        return Err(ServerError::Analysis(
            "queue-sizing solution failed verification".into(),
        ));
    }
    Ok(qs_report_json(
        sys,
        |c| sys.queue_capacity(c),
        engine,
        &report,
    ))
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
            let mut entry = match channel_json(sys, c) {
                Json::Obj(pairs) => pairs,
                _ => unreachable!("channel_json returns an object"),
            };
            entry.push(("extra_slots".into(), Json::num(w as f64)));
            entry.push(("new_capacity".into(), Json::num((capacity(c) + w) as f64)));
            Json::Obj(entry)
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
    // Exhaustive search is exponential in the budget; same feasibility
    // cutoff the CLI uses.
    let exhaustive_feasible = (sys.channel_count() as u64).pow(budget.min(6)) <= 2_000_000;
    let result = if exhaustive_feasible {
        exhaustive_insertion(sys, budget)
    } else {
        greedy_insertion(sys, budget)
    };
    let placements: Vec<Json> = result
        .placements
        .iter()
        .map(|&(c, n)| {
            let mut entry = match channel_json(sys, c) {
                Json::Obj(pairs) => pairs,
                _ => unreachable!("channel_json returns an object"),
            };
            entry.push(("stations".into(), Json::num(f64::from(n))));
            Json::Obj(entry)
        })
        .collect();
    obj([
        (
            "search",
            Json::str(if exhaustive_feasible {
                "exhaustive"
            } else {
                "greedy"
            }),
        ),
        ("practical_mst", ratio_json(result.practical)),
        ("ideal_mst", ratio_json(result.ideal)),
        ("inserted", Json::num(f64::from(result.inserted))),
        ("placements", Json::Arr(placements)),
    ])
}

fn dot(sys: &LisSystem, doubled: bool) -> Json {
    let model = if doubled {
        LisModel::doubled(sys)
    } else {
        LisModel::ideal(sys)
    };
    obj([
        (
            "model",
            Json::str(if doubled { "doubled" } else { "ideal" }),
        ),
        ("dot", Json::str(marked_graph::dot::to_dot(model.graph()))),
    ])
}

/// The first NDJSON line of a streamed sweep: grid shape and knobs.
pub(crate) fn sweep_header_json(sweep: &Sweep) -> Json {
    let spec = sweep.spec();
    obj([
        ("points", Json::num(sweep.point_count() as f64)),
        ("groups", Json::num(sweep.plan().groups.len() as f64)),
        (
            "mode",
            Json::str(match spec.mode {
                SweepMode::Analyze => "analyze",
                SweepMode::Qs { .. } => "qs",
            }),
        ),
        ("engine", Json::str(spec.engine.as_str())),
    ])
}

/// One streamed sweep row. The `result` field is rendered by the same
/// functions as the single-shot `/analyze` and `/qs` routes, with names
/// from the row's group system and capacities from the row, so it is
/// byte-identical to the body an individual round trip on that design
/// point would return.
pub(crate) fn sweep_row_json(row: &SweepRow, engine: McmEngine) -> Json {
    let stations: Vec<Json> = row
        .placements
        .iter()
        .map(|&(c, n)| {
            let mut entry = match channel_json(&row.group_sys, c) {
                Json::Obj(pairs) => pairs,
                _ => unreachable!("channel_json returns an object"),
            };
            entry.push(("add".into(), Json::num(f64::from(n))));
            Json::Obj(entry)
        })
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
pub(crate) fn sweep_trailer_json(pareto: &[usize], summary: &SweepSummary) -> Json {
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

/// The buffered (non-streaming) sweep result: the same header, rows, and
/// trailer a streamed `/sweep` emits, as one JSON object. This is what
/// [`RequestKind::execute`] returns; the server's streaming path emits the
/// pieces incrementally instead.
fn sweep_table(sys: &LisSystem, spec: &SweepSpec) -> Result<Json, ServerError> {
    let sweep = Sweep::new(sys.clone(), spec.clone())
        .map_err(|e| ServerError::BadRequest(e.to_string()))?;
    let (rows, summary) = sweep.evaluate();
    let pareto = lis_sweep::pareto_front(&rows);
    let header = sweep_header_json(&sweep);
    let row_json: Vec<Json> = rows
        .iter()
        .map(|row| sweep_row_json(row, spec.engine))
        .collect();
    let mut fields = match header {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("sweep_header_json returns an object"),
    };
    fields.push(("rows".into(), Json::Arr(row_json)));
    let trailer = match sweep_trailer_json(&pareto, &summary) {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("sweep_trailer_json returns an object"),
    };
    fields.extend(trailer.into_iter().filter(|(k, _)| k != "done"));
    Ok(Json::Obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::parse_netlist;

    const FIG1: &str = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";

    fn fig1() -> LisSystem {
        parse_netlist(FIG1).expect("fig1 parses")
    }

    #[test]
    fn decode_accepts_every_route_and_option() {
        let body = Json::parse(&format!(
            r#"{{"netlist": {}, "options": {{"exact": true, "budget": 3, "doubled": true}}}}"#,
            Json::str(FIG1)
        ))
        .unwrap();
        let (text, kind) = RequestKind::decode("analyze", &body).unwrap();
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
            RequestKind::decode("qs", &body).unwrap().1,
            RequestKind::Qs {
                exact: true,
                engine: McmEngine::Howard
            }
        );
        assert_eq!(
            RequestKind::decode("insert", &body).unwrap().1,
            RequestKind::Insert { budget: 3 }
        );
        assert_eq!(
            RequestKind::decode("dot", &body).unwrap().1,
            RequestKind::Dot { doubled: true }
        );
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
    fn engine_labels_cover_the_throughput_routes() {
        assert_eq!(
            RequestKind::Analyze {
                engine: McmEngine::Karp,
                schedule: false,
                burst: None,
            }
            .engine_label(),
            Some("karp")
        );
        assert_eq!(
            RequestKind::Qs {
                exact: true,
                engine: McmEngine::Lawler
            }
            .engine_label(),
            Some("lawler")
        );
        assert_eq!(RequestKind::Insert { budget: 1 }.engine_label(), None);
        assert_eq!(RequestKind::Dot { doubled: false }.engine_label(), None);
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
        assert_eq!(kind.engine_label(), Some("karp"));
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
