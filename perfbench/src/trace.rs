//! The traced in-process replay: each workload's seeded inputs go through
//! the layers' public functions, one span per call (name, start, end,
//! parent, request id). Spans stay in memory until the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lis_core::{explain_with, parse_netlist, LisModel, LisSystem};
use lis_qs::{solve, Algorithm, QsConfig};
use lis_server::http::{read_request, render_response, ChunkBatcher};
use lis_server::{CachedResponse, Json, Metrics, RequestKind, ResultCache, WorkerPool};
use lis_sweep::Sweep;
use marked_graph::mcm::{minimum_cycle_mean_with, McmEngine};

use crate::stats::median;
use crate::workload::{Request, Route};

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer function name.
    pub name: &'static str,
    /// Start, since the tracer's origin.
    pub start: Duration,
    /// End, since the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The replayed request this call served.
    pub request: u64,
}

/// An in-memory span recorder; a disabled one records nothing.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes calls through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        let out = f(self);
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start: start.saturating_duration_since(self.origin),
                end: end.saturating_duration_since(self.origin),
                parent,
                request,
            });
        }
    }

    /// Index the next span will get (the parent id for children of it).
    pub fn next_id(&self) -> Option<usize> {
        self.enabled.then_some(self.spans.len())
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans_named(name).map(|(_, d)| d).collect()
    }

    /// `(request, duration in microseconds)` of every span named `name`.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (u64, f64)> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| (s.request, (s.end - s.start).as_secs_f64() * 1e6))
    }

    /// Median duration of spans named `name`, in microseconds (0 if none).
    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name)).unwrap_or(0.0)
    }

    /// Mean duration of spans named `name`, in microseconds (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let d = self.durations_us(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    }

    /// Writes every span as one tab-separated line.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request
            )?;
        }
        out.flush()
    }
}

/// One request through the daemon's loop-side path: read, decode, parse,
/// hash, cache probe, then (on a miss) execute, serialize and cache the
/// answer, and render the response. Returns the response length.
pub fn replay_request(
    tr: &mut Tracer,
    request: u64,
    req: &Request,
    cache: &ResultCache,
    metrics: &Metrics,
) -> usize {
    let wire = req.http_bytes();
    let root = tr.next_id();
    tr.span("request", None, request, |tr| {
        let parsed = tr.span("http.read_request", root, request, |_| {
            read_request(&mut &wire[..])
                .expect("replayed request reads")
                .expect("one request")
        });
        let text = std::str::from_utf8(&parsed.body).expect("utf-8 body");
        let json = tr.span("wire.json_parse", root, request, |_| {
            Json::parse(text).expect("json")
        });
        let (netlist, kind) = tr.span("jobs.decode", root, request, |_| {
            RequestKind::decode(req.route.name(), &json).expect("decodes")
        });
        let sys = tr.span("core.parse_netlist", root, request, |_| {
            parse_netlist(&netlist).expect("netlist")
        });
        let key = tr.span("core.canonical_hash", root, request, |_| {
            kind.cache_key(&sys)
        });
        let hit = tr.span("cache.get", root, request, |_| cache.get(key, metrics));
        let body = match hit {
            Some(hit) => hit.body.clone(),
            None => {
                let answer = tr.span("jobs.execute", root, request, |_| {
                    kind.execute(&sys).expect("executes")
                });
                let body = tr.span("wire.serialize", root, request, |_| {
                    answer.to_string().into_bytes()
                });
                tr.span("cache.insert", root, request, |_| {
                    cache.insert(
                        key,
                        Arc::new(CachedResponse {
                            status: 200,
                            body: body.clone(),
                        }),
                    )
                });
                body
            }
        };
        tr.span("http.render_response", root, request, |_| {
            render_response(200, "application/json", &body, true).len()
        })
    })
}

/// The solver-side spans of one `/analyze` or `/qs` request: the whole
/// job, its analysis or queue-sizing core, serialization and cache insert.
pub fn replay_solve(
    tr: &mut Tracer,
    request: u64,
    route: Route,
    sys: &LisSystem,
    cache: &ResultCache,
) {
    let root = tr.next_id();
    tr.span("solve", None, request, |tr| {
        let kind = route.kind();
        let answer = tr.span("jobs.execute", root, request, |_| {
            kind.execute(sys).expect("executes")
        });
        match route {
            Route::Qs => tr.span("qs.solve", root, request, |_| {
                solve(sys, Algorithm::Heuristic, &QsConfig::default())
                    .expect("qs")
                    .total_extra
            }),
            _ => tr.span("core.explain", root, request, |_| {
                explain_with(sys, McmEngine::default()).practical.numer() as u64
            }),
        };
        let body = tr.span("wire.serialize", root, request, |_| {
            answer.to_string().into_bytes()
        });
        let key = kind.cache_key(sys);
        tr.span("cache.insert", root, request, |_| {
            cache.insert(key, Arc::new(CachedResponse { status: 200, body }))
        });
    });
}

/// Howard and Karp on the doubled model of `sys`, `reps` times each,
/// alternating; spans `mcm.howard.<family>` / `mcm.karp.<family>`.
pub fn replay_mcm(tr: &mut Tracer, request: u64, sys: &LisSystem, ring: bool, reps: usize) {
    let model = LisModel::doubled(sys);
    let (howard, karp) = if ring {
        ("mcm.howard.ring", "mcm.karp.ring")
    } else {
        ("mcm.howard.random", "mcm.karp.random")
    };
    for _ in 0..reps {
        let h = tr.span(howard, None, request, |_| {
            minimum_cycle_mean_with(model.graph(), McmEngine::Howard)
                .expect("cyclic")
                .mean
        });
        let k = tr.span(karp, None, request, |_| {
            minimum_cycle_mean_with(model.graph(), McmEngine::Karp)
                .expect("cyclic")
                .mean
        });
        assert_eq!(
            h, k,
            "Howard and Karp disagree on replayed design {request}"
        );
    }
}

/// What the sweep replay measured for one design.
#[derive(Debug, Default, Clone, Copy)]
pub struct SweepTimes {
    /// Incremental-solver memo hits.
    pub warm_hits: u64,
    /// Incremental-solver memo misses.
    pub warm_misses: u64,
    /// Grid points evaluated.
    pub points: usize,
}

/// Plans and runs one sweep the way the streaming route does, pushing the
/// rendered rows through a [`ChunkBatcher`]. Spans: `sweep.plan`,
/// `sweep.run`, `sweep.first_row` (run start to the first row) and one
/// `http.chunk_push` per row.
pub fn replay_sweep(
    tr: &mut Tracer,
    request: u64,
    sys: &LisSystem,
    spec: &lis_sweep::SweepSpec,
) -> SweepTimes {
    // Rendered rows come from the buffered table, which the daemon renders
    // with the same row function it streams with.
    let table = RequestKind::Sweep { spec: spec.clone() }
        .execute(sys)
        .expect("sweep executes");
    let lines: Vec<String> = table
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|r| format!("{r}\n"))
        .collect();
    let sweep = tr.span("sweep.plan", None, request, |_| {
        Sweep::new(sys.clone(), spec.clone()).expect("sweep plans")
    });
    let root = tr.next_id();
    let started = Instant::now();
    let mut first_row = None;
    let summary = tr.span("sweep.run", None, request, |_| {
        sweep.run(&mut |row| {
            first_row.get_or_insert_with(Instant::now);
            std::hint::black_box(row);
        })
    });
    if let Some(first) = first_row {
        tr.record("sweep.first_row", root, request, started, first);
    }
    let mut batcher = ChunkBatcher::new(8192);
    let mut sink: Vec<u8> = Vec::with_capacity(1 << 20);
    for line in &lines {
        tr.span("http.chunk_push", None, request, |_| {
            batcher
                .push(&mut sink, line.as_bytes())
                .expect("in-memory write")
        });
    }
    SweepTimes {
        warm_hits: summary.warm_hits,
        warm_misses: summary.warm_misses,
        points: summary.points,
    }
}

/// Closed-loop replay through a [`WorkerPool`] of `workers` threads holding
/// `depth` jobs in flight: each job runs one of `jobs` (cycled) and reports
/// how long it waited in the queue. Returns the waits in microseconds.
pub fn replay_pool(
    workers: usize,
    depth: usize,
    jobs: &[(Route, LisSystem)],
    total: usize,
) -> Vec<f64> {
    let pool = WorkerPool::new(workers, 256);
    let (tx, rx) = mpsc::channel::<f64>();
    let shared: Arc<Vec<(Route, LisSystem)>> = Arc::new(jobs.to_vec());
    let submit = |i: usize| {
        let tx = tx.clone();
        let shared = Arc::clone(&shared);
        let submitted = Instant::now();
        pool.submit(move || {
            let waited = submitted.elapsed().as_secs_f64() * 1e6;
            let (route, sys) = &shared[i % shared.len()];
            std::hint::black_box(route.kind().execute(sys).expect("executes"));
            let _ = tx.send(waited);
        })
        .expect("the replay pool never fills");
    };
    let mut next = 0;
    while next < depth.min(total) {
        submit(next);
        next += 1;
    }
    let mut waits = Vec::with_capacity(total);
    while waits.len() < total {
        waits.push(rx.recv().expect("pool job answers"));
        if next < total {
            submit(next);
            next += 1;
        }
    }
    pool.drain();
    waits
}
