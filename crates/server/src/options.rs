//! The request options: one table declares each option of each analysis
//! route once, with its JSON path, `lis` flag, type, default and limit.
//!
//! [`crate::RequestKind::decode`] reads a request's `options` through
//! [`Options`], which refuses any key outside the route's rows and checks
//! every value against its row with one wording; `lis` lowers its flags
//! through the same rows. The limits are the `lis_core` constants the
//! solvers' own checks read. A sweep's `capacities` and `stations` lists
//! keep small readers of their own.

use lis_core::{MAX_CYCLES, MAX_PER_MILLE, MAX_STATIONS, MAX_TRIALS};
use lis_schedule::BurstParams;
use lis_sweep::{CapacityAxis, StationGoal};
use marked_graph::McmEngine;

use crate::error::ServerError;
use crate::metrics::Route;
use crate::wire::Json;
use Flag::{Global, Pair, Repeat, Switch, Value};
use Kind::{Axes, Bool, Choice, Configs, Engine, Group, Int, Ints};
use Route::{Analyze, Dot, Insert, Qs, Sweep};

/// What an option's value is, with its default and its limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `true` or `false`; absent is `false`.
    Bool,
    /// `Int(min, max, default)`: an integer in `min..=max`, or `default`.
    Int(u64, u64, u64),
    /// One of these strings; absent is the first.
    Choice(&'static [&'static str]),
    /// An MCM engine's name; absent is [`McmEngine::default`].
    Engine,
    /// An array of integers, each at most this; required in its group.
    Ints(u64),
    /// An object holding the rows under this path; absent leaves the
    /// experiment out.
    Group,
    /// A sweep's capacity axes: `[{"channel": N, "values": [N, ...]}, ...]`.
    Axes,
    /// A sweep's station configurations:
    /// `[[{"channel": N, "add": N}, ...], ...]`.
    Configs,
}

/// How `lis` spells an option on its command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// No flag: the option is reached through JSON only.
    None,
    /// `--flag` alone: `true` for a boolean, the last choice for a choice.
    Switch(&'static str),
    /// `--flag VALUE`: an integer, or a comma-separated list of them.
    Value(&'static str),
    /// The integer at this position (0 or 1) of `--flag A,B`.
    Pair(&'static str, usize),
    /// `--flag CHANNEL=V1,V2,...`, once per capacity axis.
    Repeat(&'static str),
    /// One of `lis`'s global flags, valid on any command line.
    Global(&'static str),
}

/// One request option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opt {
    /// The routes that take it.
    pub routes: &'static [Route],
    /// Its key in `options`; `group.key` inside a [`Kind::Group`].
    pub path: &'static str,
    /// Its `lis` flag.
    pub flag: Flag,
    /// Its type, default and limit.
    pub kind: Kind,
}

#[rustfmt::skip]
const fn opt(routes: &'static [Route], path: &'static str, flag: Flag, kind: Kind) -> Opt {
    Opt { routes, path, flag, kind }
}

const PER_MILLE: u64 = MAX_PER_MILLE as u64;
const TRIALS: u64 = MAX_TRIALS as u64;
const STATIONS: u64 = MAX_STATIONS as u64;
const BURST: BurstParams = BurstParams::DEFAULT;

/// The routes that take a request envelope.
pub const ROUTES: [Route; 5] = [Analyze, Qs, Insert, Dot, Sweep];

/// Every request option, in the order `lis` lowers them. A nested row's
/// flag lowers only into a group its first row's flag opened, so the
/// shared `--trials`, `--cycles` and `--seed` tune whichever sweep axes
/// are asked for.
#[rustfmt::skip]
pub const OPTIONS: &[Opt] = &[
    opt(&[Analyze, Qs, Sweep], "engine", Global("--engine"), Engine),
    opt(&[Analyze], "schedule", Switch("--schedule"), Bool),
    opt(&[Analyze], "burst", Flag::None, Group),
    opt(&[Analyze], "burst.off_per_mille", Pair("--burst", 0), Int(0, PER_MILLE, BURST.off_per_mille as u64)),
    opt(&[Analyze], "burst.on_per_mille", Pair("--burst", 1), Int(1, PER_MILLE, BURST.on_per_mille as u64)),
    opt(&[Analyze], "burst.trials", Value("--burst-trials"), Int(1, TRIALS, BURST.trials as u64)),
    opt(&[Analyze], "burst.cycles", Value("--burst-cycles"), Int(1, MAX_CYCLES, BURST.cycles)),
    opt(&[Analyze], "burst.seed", Value("--burst-seed"), Int(0, u64::MAX, BURST.seed)),
    opt(&[Qs, Sweep], "exact", Switch("--exact"), Bool),
    opt(&[Insert], "budget", Value("--budget"), Int(0, STATIONS, 2)),
    opt(&[Dot], "doubled", Switch("--doubled"), Bool),
    opt(&[Sweep], "mode", Switch("--qs"), Choice(&["analyze", "qs"])),
    opt(&[Sweep], "capacities", Repeat("--cap"), Axes),
    opt(&[Sweep], "budget", Value("--budget"), Int(0, STATIONS, 0)),
    opt(&[Sweep], "stations", Flag::None, Configs),
    opt(&[Sweep], "stalls", Flag::None, Group),
    opt(&[Sweep], "stalls.per_mille", Value("--stalls"), Ints(PER_MILLE)),
    opt(&[Sweep], "stalls.trials", Value("--trials"), Int(1, TRIALS, 64)),
    opt(&[Sweep], "stalls.cycles", Value("--cycles"), Int(1, MAX_CYCLES, 10_000)),
    opt(&[Sweep], "stalls.seed", Value("--seed"), Int(0, u64::MAX, 0)),
    opt(&[Sweep], "bursts", Flag::None, Group),
    opt(&[Sweep], "bursts.off_per_mille", Value("--bursts"), Ints(PER_MILLE)),
    opt(&[Sweep], "bursts.on_per_mille", Value("--burst-on"), Int(1, PER_MILLE, 300)),
    opt(&[Sweep], "bursts.trials", Value("--trials"), Int(1, TRIALS, 64)),
    opt(&[Sweep], "bursts.cycles", Value("--cycles"), Int(1, MAX_CYCLES, 10_000)),
    opt(&[Sweep], "bursts.seed", Value("--seed"), Int(0, u64::MAX, 0)),
];

/// The rows of `route`, in table order.
pub fn rows(route: Route) -> impl Iterator<Item = &'static Opt> + Clone {
    OPTIONS.iter().filter(move |o| o.routes.contains(&route))
}

/// The row of `route` at `path`.
fn row(route: Route, path: &str) -> Option<&'static Opt> {
    rows(route).find(|o| o.path == path)
}

fn bad(message: impl Into<String>) -> ServerError {
    ServerError::BadRequest(message.into())
}

/// The one wording of a value its row refuses.
fn refused(row: &Opt) -> ServerError {
    let name = match row.path.split_once('.') {
        Some((group, key)) => format!("{group} {key:?}"),
        None => format!("option {:?}", row.path),
    };
    let want = match row.kind {
        Bool => "a boolean".into(),
        Int(_, u64::MAX, _) => "a non-negative integer".into(),
        Int(min, max, _) => format!("an integer in {min}..={max}"),
        Choice(choices) => format!("one of {choices:?}"),
        Engine => "a string".into(),
        Ints(max) => format!("an array of integers in 0..={max}"),
        Group => "an object".into(),
        Axes => r#"an array of {"channel": N, "values": [N, ...]}"#.into(),
        Configs => r#"an array of arrays of {"channel": N, "add": N}"#.into(),
    };
    bad(format!("{name} must be {want}"))
}

/// Checks one value against its row; the nested lists are checked by their
/// readers.
fn check(row: &Opt, v: &Json) -> Result<(), ServerError> {
    let int = |v: &Json, min, max| v.as_u64().is_some_and(|n| (min..=max).contains(&n));
    let fits = match (row.kind, v) {
        (Engine, Json::Str(name)) => return name.parse::<McmEngine>().map(drop).map_err(bad),
        (Bool, Json::Bool(_)) | (Group, Json::Obj(_)) | (Axes | Configs, _) => true,
        (Int(min, max, _), _) => int(v, min, max),
        (Choice(choices), Json::Str(s)) => choices.contains(&s.as_str()),
        (Ints(max), Json::Arr(vs)) => vs.iter().all(|v| int(v, 0, max)),
        _ => false,
    };
    fits.then_some(()).ok_or_else(|| refused(row))
}

/// A request's `options`, checked against its route's rows.
pub struct Options<'a> {
    route: Route,
    json: &'a Json,
}

impl<'a> Options<'a> {
    /// Checks `options` (absent, `null` or an object) against `route`'s
    /// rows: every key, and every key inside a group, must be a row, every
    /// value must fit its row, and a group must hold its list.
    ///
    /// # Errors
    ///
    /// [`ServerError::BadRequest`] naming the first key the route does not
    /// take, or the first value its row refuses.
    pub fn new(route: Route, options: Option<&'a Json>) -> Result<Options<'a>, ServerError> {
        let json = options.unwrap_or(&Json::Null);
        let keys = match json {
            Json::Null => &[][..],
            Json::Obj(keys) => keys.as_slice(),
            _ => return Err(bad("\"options\" must be null or an object")),
        };
        let unknown = |path: &str| bad(format!("unknown option {path:?} for /{}", route.name()));
        for (key, value) in keys {
            let row = row(route, key).ok_or_else(|| unknown(key))?;
            check(row, value)?;
            let (Group, Json::Obj(inner)) = (row.kind, value) else {
                continue;
            };
            // The group's rows, with their keys inside it.
            let group =
                rows(route).filter_map(|r| Some((r, r.path.strip_prefix(key)?.strip_prefix('.')?)));
            for (k, v) in inner {
                let row = group.clone().find(|&(_, rk)| rk == k);
                check(row.ok_or_else(|| unknown(&format!("{key}.{k}")))?.0, v)?;
            }
            // A group's list is what it runs over: it is required.
            let mut lists = group.filter(|(r, _)| matches!(r.kind, Ints(_)));
            if let Some((list, _)) = lists.find(|&(_, k)| value.get(k).is_none()) {
                return Err(refused(list));
            }
        }
        Ok(Options { route, json })
    }

    /// The request's value at `path`, if any.
    pub fn get(&self, path: &str) -> Option<&'a Json> {
        match path.split_once('.') {
            Some((group, key)) => self.json.get(group)?.get(key),
            None => self.json.get(path),
        }
    }

    fn row(&self, path: &str) -> &'static Opt {
        row(self.route, path).expect("a row of the route")
    }

    /// A [`Kind::Bool`] option.
    pub fn bool(&self, path: &str) -> bool {
        self.get(path).and_then(Json::as_bool).unwrap_or(false)
    }

    /// A [`Kind::Int`] option.
    pub fn int(&self, path: &str) -> u64 {
        let Int(_, _, default) = self.row(path).kind else {
            unreachable!("{path} is not an integer option");
        };
        self.get(path).and_then(Json::as_u64).unwrap_or(default)
    }

    /// A [`Kind::Choice`] option.
    pub fn choice(&self, path: &str) -> &'a str {
        let Choice(choices) = self.row(path).kind else {
            unreachable!("{path} is not a choice option");
        };
        self.get(path).and_then(Json::as_str).unwrap_or(choices[0])
    }

    /// The `engine` option.
    pub fn engine(&self) -> McmEngine {
        let name = self.get("engine").and_then(Json::as_str);
        name.and_then(|name| name.parse().ok()).unwrap_or_default()
    }

    /// A [`Kind::Ints`] option of a group the request sets.
    pub fn ints(&self, path: &str) -> Vec<u32> {
        let values = self.get(path).and_then(Json::as_arr).unwrap_or(&[]);
        let values = values.iter().filter_map(Json::as_u64);
        values.map(|n| n as u32).collect()
    }

    /// A sweep's `capacities`; none when absent.
    pub fn axes(&self) -> Result<Vec<CapacityAxis>, ServerError> {
        let Some(axes) = self.get("capacities") else {
            return Ok(Vec::new());
        };
        let axis = |a: &Json| {
            let values = a.get("values")?.as_arr()?.iter().map(Json::as_u64);
            Some(CapacityAxis {
                channel: usize::try_from(a.get("channel")?.as_u64()?).ok()?,
                values: values.collect::<Option<_>>()?,
            })
        };
        let axes = axes.as_arr().and_then(|a| a.iter().map(axis).collect());
        axes.ok_or_else(|| refused(self.row("capacities")))
    }

    /// A sweep's station dimension: its `budget` or its `stations`, which
    /// exclude each other; the base system's stations when neither is set.
    pub fn stations(&self) -> Result<StationGoal, ServerError> {
        let entry = |e: &Json| {
            let add = u32::try_from(e.get("add")?.as_u64()?).ok()?;
            Some((usize::try_from(e.get("channel")?.as_u64()?).ok()?, add))
        };
        let config = |c: &Json| c.as_arr()?.iter().map(entry).collect::<Option<_>>();
        match (self.get("budget").is_some(), self.get("stations")) {
            (true, Some(_)) => Err(bad(
                "options \"budget\" and \"stations\" are mutually exclusive",
            )),
            (true, None) => Ok(StationGoal::Budget(self.int("budget") as u32)),
            (false, None) => Ok(StationGoal::Base),
            (false, Some(configs)) => (configs.as_arr())
                .and_then(|cs| cs.iter().map(config).collect())
                .map(StationGoal::Configs)
                .ok_or_else(|| refused(self.row("stations"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestKind;

    /// The fields a group cannot go without: its list, as `[0]`.
    fn required(route: Route, group: &str) -> Vec<(String, Json)> {
        rows(route)
            .filter(|r| matches!(r.kind, Ints(_)))
            .filter_map(|r| r.path.strip_prefix(group)?.strip_prefix('.'))
            .map(|key| (key.to_string(), Json::Arr(vec![Json::num(0)])))
            .collect()
    }

    /// An envelope with `value` at `row`'s path (none: left out), set where
    /// it counts: a sweep in qs mode, so `exact` matters, and inside its
    /// group, which holds its list.
    fn envelope(route: Route, row: &Opt, value: Option<Json>) -> Json {
        let mut options: Vec<(String, Json)> = Vec::new();
        if route == Sweep && row.path != "mode" {
            options.push(("mode".into(), Json::str("qs")));
        }
        match row.path.split_once('.') {
            Some((group, key)) => {
                let mut fields = required(route, group);
                fields.retain(|(k, _)| k != key);
                fields.extend(value.map(|v| (key.to_string(), v)));
                options.push((group.into(), Json::Obj(fields)));
            }
            None => options.extend(value.map(|v| (row.path.to_string(), v))),
        }
        let options = Json::Obj(options);
        Json::Obj(vec![
            (
                "netlist".into(),
                Json::str("block A\nblock B\nchannel A -> B\n"),
            ),
            ("options".into(), options),
        ])
    }

    /// Two values of `row` that ask for different answers.
    fn two_values(route: Route, row: &Opt) -> [Option<Json>; 2] {
        let n = |n: u64| Json::num(n as f64);
        let parse = |text: &str| Some(Json::parse(text).expect("JSON"));
        match row.kind {
            Bool => [Some(Json::Bool(false)), Some(Json::Bool(true))],
            Int(min, max, _) => [Some(n(min)), Some(n(max.min((1 << 53) - 1)))],
            Choice(c) => [Some(Json::str(c[0])), Some(Json::str(c[c.len() - 1]))],
            Engine => [Some(Json::str("howard")), Some(Json::str("karp"))],
            Ints(max) => [Some(Json::Arr(vec![n(0)])), Some(Json::Arr(vec![n(max)]))],
            Group => [None, Some(Json::Obj(required(route, row.path)))],
            Axes => [None, parse(r#"[{"channel": 0, "values": [1, 2]}]"#)],
            Configs => [parse("[[]]"), parse(r#"[[{"channel": 0, "add": 1}]]"#)],
        }
    }

    fn decode(route: Route, envelope: &Json) -> Result<RequestKind, ServerError> {
        RequestKind::decode(route.name(), envelope).map(|(_, kind)| kind)
    }

    /// Every row is part of the request's identity: two envelopes that
    /// differ only in that option decode to different tokens.
    #[test]
    fn every_row_separates_the_token() {
        for row in OPTIONS {
            for &route in row.routes {
                let token = |value| match decode(route, &envelope(route, row, value)) {
                    Ok(kind) => kind.token(),
                    Err(e) => panic!("{route:?} {}: {e}", row.path),
                };
                let [a, b] = two_values(route, row);
                assert_ne!(token(a), token(b), "{route:?} {}", row.path);
            }
        }
    }

    /// A value its row refuses is a 400 in the row's one wording, and the
    /// table's limits are the solvers' constants.
    #[test]
    fn every_row_refuses_in_one_wording() {
        for row in OPTIONS {
            for &route in row.routes {
                let bad = match row.kind {
                    Bool | Engine => Json::num(7.0),
                    Int(_, max, _) if max < 1 << 53 => Json::num((max + 1) as f64),
                    Int(..) => Json::num(-1.0),
                    Choice(_) => Json::str("moose"),
                    Ints(max) => Json::Arr(vec![Json::num((max + 1) as f64)]),
                    Group | Axes | Configs => Json::str("moose"),
                };
                let err = decode(route, &envelope(route, row, Some(bad))).expect_err(row.path);
                assert_eq!(err.to_string(), refused(row).to_string(), "{route:?}");
            }
        }
        let wording = |route, path| refused(row(route, path).expect("a row")).to_string();
        for (route, path, message) in [
            (
                Insert,
                "budget",
                r#"option "budget" must be an integer in 0..=16"#,
            ),
            (
                Sweep,
                "budget",
                r#"option "budget" must be an integer in 0..=16"#,
            ),
            (
                Analyze,
                "burst.off_per_mille",
                r#"burst "off_per_mille" must be an integer in 0..=1000"#,
            ),
            (
                Analyze,
                "burst.on_per_mille",
                r#"burst "on_per_mille" must be an integer in 1..=1000"#,
            ),
            (
                Analyze,
                "burst.trials",
                r#"burst "trials" must be an integer in 1..=4096"#,
            ),
            (
                Analyze,
                "burst.cycles",
                r#"burst "cycles" must be an integer in 1..=1000000"#,
            ),
            (
                Analyze,
                "burst.seed",
                r#"burst "seed" must be a non-negative integer"#,
            ),
            (
                Analyze,
                "schedule",
                r#"option "schedule" must be a boolean"#,
            ),
            (Qs, "engine", r#"option "engine" must be a string"#),
            (
                Sweep,
                "mode",
                r#"option "mode" must be one of ["analyze", "qs"]"#,
            ),
            (Sweep, "stalls", r#"option "stalls" must be an object"#),
            (
                Sweep,
                "stalls.per_mille",
                r#"stalls "per_mille" must be an array of integers in 0..=1000"#,
            ),
            (
                Sweep,
                "stalls.trials",
                r#"stalls "trials" must be an integer in 1..=4096"#,
            ),
            (
                Sweep,
                "bursts.cycles",
                r#"bursts "cycles" must be an integer in 1..=1000000"#,
            ),
            (
                Sweep,
                "capacities",
                r#"option "capacities" must be an array of {"channel": N, "values": [N, ...]}"#,
            ),
            (
                Sweep,
                "stations",
                r#"option "stations" must be an array of arrays of {"channel": N, "add": N}"#,
            ),
        ] {
            assert_eq!(wording(route, path), format!("bad request: {message}"));
        }
    }

    /// A group without its list names the list; an unknown engine keeps the
    /// engine parser's wording.
    #[test]
    fn a_group_needs_its_list_and_an_engine_a_known_name() {
        let sweep = |options: &str| {
            let envelope = Json::parse(&format!(
                r#"{{"netlist": "block A\n", "options": {options}}}"#
            ))
            .expect("JSON");
            decode(Sweep, &envelope).map(|kind| kind.token())
        };
        for (options, message) in [
            (
                r#"{"stalls": {}}"#,
                r#"stalls "per_mille" must be an array"#,
            ),
            (
                r#"{"bursts": {"trials": 8}}"#,
                r#"bursts "off_per_mille" must be an array"#,
            ),
            (
                r#"{"engine": "dijkstra"}"#,
                r#"unknown MCM engine "dijkstra""#,
            ),
        ] {
            let err = sweep(options).expect_err(options).to_string();
            assert!(err.contains(message), "{options}: {err}");
        }
        assert!(sweep(r#"{"stalls": {"per_mille": []}}"#).is_ok());
    }
}
