//! Seeded workload generation. The daemon sees only the bodies built here;
//! the same seed always yields the same bodies.

use lis_core::{to_netlist, LisSystem};
use lis_gen::{generate, ring, GeneratorConfig, InsertionPolicy};
use lis_server::wire::{obj, Json};
use lis_server::RequestKind;
use marked_graph::mcm::McmEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keep-alive connections the load generator drives (at most one per CPU
/// of a two-core host).
pub const CONNECTIONS: usize = 2;

/// The benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 hot requests, every body textually unique: the loop's
    /// exact-bytes cache misses, the canonical cache hits.
    HotVariant,
    /// Never-seen designs solved by the worker pool.
    ColdSolve,
    /// Back-to-back streamed `/sweep`s over fresh base designs.
    SweepStream,
}

impl Workload {
    /// Every workload the harness runs. `BENCHMARK.json` lists
    /// `cold-solve` and `sweep-stream`; `hot-variant` runs by hand only
    /// (see the README).
    pub const ALL: [Workload; 3] = [
        Workload::HotVariant,
        Workload::ColdSolve,
        Workload::SweepStream,
    ];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotVariant => "hot-variant",
            Workload::ColdSolve => "cold-solve",
            Workload::SweepStream => "sweep-stream",
        }
    }

    /// Requests kept in flight on each connection (closed loop).
    pub fn depth(self) -> usize {
        match self {
            Workload::HotVariant => 8,
            Workload::ColdSolve => 4,
            Workload::SweepStream => 1,
        }
    }

    /// A floor on completions per second on a two-core host (about half of
    /// what one measures), so the tail percentile stays supported on a
    /// slower machine.
    pub fn min_rate(self) -> f64 {
        match self {
            Workload::HotVariant => 3_000.0,
            Workload::ColdSolve => 300.0,
            Workload::SweepStream => 70.0,
        }
    }

    /// Answers after which the daemon's peak RSS is read: five seconds'
    /// worth at [`Workload::min_rate`]. Reading it after a fixed amount of
    /// work, not at the end of the window, keeps cache growth from tying
    /// the figure to throughput.
    pub fn rss_after(self) -> u64 {
        (self.min_rate() * 5.0) as u64
    }
}

/// An analysis route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /analyze`.
    Analyze,
    /// `POST /qs`.
    Qs,
    /// `POST /sweep`.
    Sweep,
}

impl Route {
    /// The default-options job an `/analyze` or `/qs` body decodes to.
    ///
    /// # Panics
    ///
    /// On [`Route::Sweep`], whose job carries a grid.
    pub fn kind(self) -> RequestKind {
        match self {
            Route::Analyze => RequestKind::Analyze {
                engine: McmEngine::default(),
                schedule: false,
                burst: None,
            },
            Route::Qs => RequestKind::Qs {
                exact: false,
                engine: McmEngine::default(),
            },
            Route::Sweep => panic!("a sweep job needs its grid"),
        }
    }

    /// The route name as `RequestKind::decode` takes it.
    pub fn name(self) -> &'static str {
        match self {
            Route::Analyze => "analyze",
            Route::Qs => "qs",
            Route::Sweep => "sweep",
        }
    }
}

/// One generated request: its route and JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Which route it is posted to.
    pub route: Route,
    /// The JSON envelope.
    pub body: Vec<u8>,
}

impl Request {
    /// The request as it goes on the wire (`Content-Length` framing).
    pub fn http_bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "POST /{} HTTP/1.1\r\nHost: lis\r\nContent-Length: {}\r\n\r\n",
            self.route.name(),
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Designs in the hot set (each posted to `/analyze` and `/qs`).
pub const HOT_DESIGNS: usize = 32;
/// Blocks per hot design.
pub const HOT_BLOCKS: usize = 64;
/// Whitespace layouts a hot-variant body cycles through.
const LAYOUTS: usize = 4;

/// Independent random streams, one per use, so adding draws to one never
/// shifts another.
const STREAM_HOT: u64 = 1;
const STREAM_COLD: u64 = 2;
const STREAM_SWEEP: u64 = 3;
const STREAM_WARM: u64 = 4;

/// SplitMix64 finalizer: a well-mixed 64-bit seed from `(seed, stream, index)`.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(index.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream, index))
}

/// The paper's random LIS generator at `vertices` blocks.
fn random_lis(vertices: usize, relay_stations: usize, rng: &mut StdRng) -> LisSystem {
    let cfg = GeneratorConfig {
        vertices,
        sccs: (vertices / 16).max(2),
        min_cycles_per_scc: 3,
        relay_stations,
        reconvergent_paths: true,
        policy: InsertionPolicy::Scc,
        extra_inter_edges: None,
    };
    generate(&cfg, rng).system
}

/// A JSON string literal's contents (without the quotes).
fn json_escaped(text: &str) -> String {
    let quoted = Json::str(text).to_string();
    quoted[1..quoted.len() - 1].to_string()
}

/// `{"netlist": ...}` with optional options.
fn envelope(netlist: &str, options: Option<Json>) -> Vec<u8> {
    match options {
        None => obj([("netlist", Json::str(netlist))]),
        Some(o) => obj([("netlist", Json::str(netlist)), ("options", o)]),
    }
    .to_string()
    .into_bytes()
}

/// The hot set: [`HOT_DESIGNS`] designs of [`HOT_BLOCKS`] blocks.
pub fn hot_designs(seed: u64) -> Vec<LisSystem> {
    (0..HOT_DESIGNS as u64)
        .map(|i| random_lis(HOT_BLOCKS, 4, &mut rng(seed, STREAM_HOT, i)))
        .collect()
}

/// The 64 hot requests: every hot design on `/analyze` and on `/qs`.
pub fn hot_requests(seed: u64) -> Vec<Request> {
    hot_designs(seed)
        .iter()
        .flat_map(|sys| {
            let text = to_netlist(sys);
            [Route::Analyze, Route::Qs].map(|route| Request {
                route,
                body: envelope(&text, None),
            })
        })
        .collect()
}

/// Re-lays out a netlist's whitespace without changing its tokens.
fn relayout(text: &str, layout: usize) -> String {
    match layout {
        0 => text.to_string(),
        1 => text.replace(' ', "  "),
        2 => text.replace(' ', "\t"),
        _ => text
            .lines()
            .map(|l| format!("  {l} \n\n"))
            .collect::<String>(),
    }
}

/// Hot-variant bodies: request `k` targets hot request `k % 64` with a
/// unique comment line and one of [`LAYOUTS`] whitespace layouts, so its
/// bytes are never repeated while its canonical identity is.
pub struct Variants {
    /// Per hot request and layout: the route and the escaped netlist.
    escaped: Vec<(Route, [String; LAYOUTS])>,
}

impl Variants {
    /// Pre-renders the layouts of every hot request.
    pub fn new(seed: u64) -> Variants {
        let escaped = hot_designs(seed)
            .iter()
            .flat_map(|sys| {
                let text = to_netlist(sys);
                let layouts: [String; LAYOUTS] =
                    std::array::from_fn(|l| json_escaped(&relayout(&text, l)));
                [Route::Analyze, Route::Qs].map(|route| (route, layouts.clone()))
            })
            .collect();
        Variants { escaped }
    }

    /// The `k`-th variant request; it targets hot request `k % base_count`.
    pub fn request(&self, k: u64) -> Request {
        let base = (k % self.escaped.len() as u64) as usize;
        let layout = ((k / self.escaped.len() as u64) % LAYOUTS as u64) as usize;
        let (route, layouts) = &self.escaped[base];
        let body = format!("{{\"netlist\":\"# variant {k}\\n{}\"}}", layouts[layout]);
        Request {
            route: *route,
            body: body.into_bytes(),
        }
    }
}

/// Rings in the cold family.
pub const RINGS: u64 = COLD_BASES as u64 / 4;
/// Shortest ring of the cold family.
const RING_MIN: usize = 250;

/// The `r`-th ring of the cold family (`r < RINGS`): a single-cycle ring
/// with two relay stations (the shape where Howard trails Karp). The
/// lengths are the same for every seed, spread evenly over 250–350 blocks,
/// so a run's mix of work does not drift with the seed; the seed places
/// the second station. Distinct `r` give distinct lengths, hence distinct
/// canonical designs.
pub fn ring_design(seed: u64, r: u64) -> LisSystem {
    let n = RING_MIN + (r % RINGS * 100 / (RINGS - 1)) as usize;
    let gap = 1 + (mix(seed, STREAM_COLD, u64::MAX - r) % (n as u64 / 2)) as usize;
    let ring = ring(n);
    let mut sys = ring.system;
    sys.add_relay_station(ring.channels[0]);
    sys.add_relay_station(ring.channels[gap]);
    sys
}

/// Base designs in the cold pool.
pub const COLD_BASES: usize = 256;

struct ColdBase {
    sys: LisSystem,
    /// The JSON-escaped netlist.
    escaped: String,
}

/// Name prefix of the blocks a cold tail adds.
const TAIL: &str = "tail";

/// Never-seen cold designs. The pool holds [`COLD_BASES`] base designs:
/// one in four from the ring family, the rest random systems of 64–200
/// blocks. Request `k` takes base `k % COLD_BASES` and hangs a short
/// pipeline tail off one of its blocks, a different (block, length) pair
/// for every pass over the pool, so no two requests of a run share a
/// canonical design and every one is a cold solve. A tail adds no cycle
/// to the system and none below rate one to its doubled model, so it
/// leaves θ and the queue-sizing problem as hard as the base's. Building a
/// body is one copy of the pre-escaped base plus the tail's lines, so the
/// load generator stays cheap.
pub struct ColdPool {
    bases: Vec<ColdBase>,
}

impl ColdPool {
    /// Generates the pool for `seed`.
    pub fn new(seed: u64) -> ColdPool {
        let bases = (0..COLD_BASES as u64)
            .map(|b| {
                let sys = if b % 4 == 3 {
                    ring_design(seed, b / 4)
                } else {
                    let mut rng = rng(seed, STREAM_COLD, b);
                    let vertices = rng.gen_range(64..=200usize);
                    let stations = rng.gen_range(4..=10usize);
                    random_lis(vertices, stations, &mut rng)
                };
                let escaped = json_escaped(&to_netlist(&sys));
                ColdBase { sys, escaped }
            })
            .collect();
        ColdPool { bases }
    }

    /// Base, attachment block and tail length of request `k`.
    fn variant(&self, k: u64) -> (usize, usize, usize) {
        let base = (k % COLD_BASES as u64) as usize;
        let pass = k / COLD_BASES as u64;
        let blocks = self.bases[base].sys.block_count() as u64;
        (base, (pass % blocks) as usize, 1 + (pass / blocks) as usize)
    }

    /// The route of request `k`: half `/analyze`, half `/qs`. Runs of four
    /// requests (one ring each) alternate, so rings alternate too, and
    /// every base alternates from one pass over the pool to the next.
    pub fn route(k: u64) -> Route {
        if (k / 4 + k / COLD_BASES as u64).is_multiple_of(2) {
            Route::Analyze
        } else {
            Route::Qs
        }
    }

    /// The netlist lines of request `k`'s tail.
    fn tail(&self, k: u64) -> String {
        let (base, block, len) = self.variant(k);
        let sys = &self.bases[base].sys;
        let from = sys.block_name(sys.block_ids().nth(block).expect("block in range"));
        let mut lines = String::new();
        let mut prev = from.to_string();
        for i in 0..len {
            let name = format!("{TAIL}{i}");
            lines.push_str(&format!("block {name}\nchannel {prev} -> {name}\n"));
            prev = name;
        }
        lines
    }

    /// The design of request `k`.
    pub fn design(&self, k: u64) -> LisSystem {
        let base = &self.bases[(k % COLD_BASES as u64) as usize];
        let text = format!("{}{}", to_netlist(&base.sys), self.tail(k));
        lis_core::parse_netlist(&text).expect("cold design parses")
    }

    /// Request `k`.
    pub fn request(&self, k: u64) -> Request {
        let base = &self.bases[(k % COLD_BASES as u64) as usize];
        let body = format!(
            "{{\"netlist\":\"{}{}\"}}",
            base.escaped,
            json_escaped(&self.tail(k))
        );
        Request {
            route: ColdPool::route(k),
            body: body.into_bytes(),
        }
    }
}

/// Capacity values on every sweep axis.
pub const SWEEP_VALUES: [u64; 4] = [1, 2, 4, 8];
/// Capacity axes per sweep (a 4×4×4×4 grid).
pub const SWEEP_AXES: usize = 4;
/// Grid points per sweep.
pub const SWEEP_POINTS: usize = 256;

/// The `k`-th sweep: a fresh base design of about 120 blocks and its
/// capacity axes (channel indices, in axis order).
pub fn sweep_design(seed: u64, k: u64) -> (LisSystem, Vec<usize>) {
    let mut rng = rng(seed, STREAM_SWEEP, k);
    let vertices = rng.gen_range(112..=128usize);
    let sys = random_lis(vertices, 4, &mut rng);
    let mut channels: Vec<usize> = Vec::with_capacity(SWEEP_AXES);
    while channels.len() < SWEEP_AXES {
        let c = rng.gen_range(0..sys.channel_count());
        if !channels.contains(&c) {
            channels.push(c);
        }
    }
    (sys, channels)
}

/// The `k`-th sweep request.
pub fn sweep_request(seed: u64, k: u64) -> Request {
    let (sys, channels) = sweep_design(seed, k);
    let axes = channels
        .iter()
        .map(|&c| {
            obj([
                ("channel", Json::num(c as f64)),
                (
                    "values",
                    Json::Arr(SWEEP_VALUES.iter().map(|&v| Json::num(v as f64)).collect()),
                ),
            ])
        })
        .collect();
    Request {
        route: Route::Sweep,
        body: envelope(
            &to_netlist(&sys),
            Some(obj([("capacities", Json::Arr(axes))])),
        ),
    }
}

/// Untimed warm-up requests for the workloads that have no pre-warmed set:
/// designs from their own random stream, never part of a measured window.
/// Cold warm-up designs all have 128 blocks, so the set-up's work does not
/// swing with the seed.
pub fn warm_request(workload: Workload, seed: u64, k: u64) -> Request {
    match workload {
        Workload::SweepStream => sweep_request(mix(seed, STREAM_WARM, k), 0),
        _ => {
            let sys = random_lis(128, 6, &mut rng(seed, STREAM_WARM, k));
            Request {
                route: ColdPool::route(k),
                body: envelope(&to_netlist(&sys), None),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::{canonical_hash, parse_netlist};

    fn kind_and_hash(req: &Request) -> (RequestKind, u64) {
        let text = std::str::from_utf8(&req.body).expect("utf-8 body");
        let json = Json::parse(text).expect("body parses");
        let (netlist, kind) = RequestKind::decode(req.route.name(), &json).expect("decodes");
        let sys = parse_netlist(&netlist).expect("netlist parses");
        (kind, canonical_hash(&sys))
    }

    #[test]
    fn the_tail_percentile_is_supported_by_one_slice_at_the_floor_rate() {
        // A 15 s run (BENCHMARK.json's run_seconds) cut into slices.
        let slice_s = 15.0 / crate::stats::SLICES as f64;
        for w in Workload::ALL {
            let samples = (w.min_rate() * slice_s) as usize;
            assert!(
                crate::stats::tail_supported(samples, crate::stats::TAIL_PERCENTILE),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn same_seed_gives_the_same_bodies() {
        assert_eq!(hot_requests(7), hot_requests(7));
        assert_ne!(hot_requests(7), hot_requests(8));
        let a = Variants::new(7);
        let b = Variants::new(7);
        for k in [0, 1, 63, 64, 1000] {
            assert_eq!(a.request(k), b.request(k));
        }
        let (a, b) = (ColdPool::new(7), ColdPool::new(7));
        for k in [0, 1, 3, 255, 256, 5000] {
            assert_eq!(a.request(k), b.request(k));
        }
        assert_ne!(a.request(0), ColdPool::new(8).request(0));
        assert_eq!(sweep_request(7, 3), sweep_request(7, 3));
    }

    #[test]
    fn hot_variants_share_identity_but_never_bytes() {
        let hot = hot_requests(3);
        let variants = Variants::new(3);
        let mut seen = std::collections::HashSet::new();
        for k in 0..(4 * hot.len() as u64 + 5) {
            let v = variants.request(k);
            let base = &hot[(k % hot.len() as u64) as usize];
            assert_ne!(v.body, base.body, "variant {k} repeats the hot bytes");
            assert!(seen.insert(v.body.clone()), "variant {k} repeats bytes");
            assert_eq!(v.route, base.route);
            assert_eq!(kind_and_hash(&v), kind_and_hash(base), "variant {k}");
        }
    }

    #[test]
    fn cold_requests_are_distinct_designs_and_match_their_bodies() {
        let pool = ColdPool::new(11);
        let mut hashes = std::collections::HashSet::new();
        let mut rings = 0;
        let mut routes = [0, 0];
        for k in (0..COLD_BASES as u64 * 3).chain([50_000, 50_001]) {
            let sys = pool.design(k);
            if k % 4 == 3 {
                rings += 1;
                assert!(sys.block_count() >= RING_MIN);
            }
            if k < 50_000 {
                routes[usize::from(ColdPool::route(k) == Route::Qs)] += 1;
            }
            assert!(hashes.insert(canonical_hash(&sys)), "design {k} repeats");
            if k % 97 == 0 || k >= 50_000 {
                let (_, hash) = kind_and_hash(&pool.request(k));
                assert_eq!(hash, canonical_hash(&sys), "body {k} is not its design");
            }
        }
        assert_eq!(rings, 3 * COLD_BASES / 4);
        assert_eq!(routes[0], routes[1]);
    }

    #[test]
    fn sweep_requests_span_the_full_grid() {
        let req = sweep_request(5, 0);
        let (_, kind) = {
            let json = Json::parse(std::str::from_utf8(&req.body).unwrap()).unwrap();
            RequestKind::decode("sweep", &json).expect("sweep decodes")
        };
        let RequestKind::Sweep { spec } = kind else {
            panic!("not a sweep");
        };
        assert_eq!(spec.capacities.len(), SWEEP_AXES);
        let (sys, _) = sweep_design(5, 0);
        let sweep = lis_sweep::Sweep::new(sys, spec).expect("plans");
        assert_eq!(sweep.point_count(), SWEEP_POINTS);
    }
}
