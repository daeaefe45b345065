//! Deterministic fault injection for chaos-testing the daemon.
//!
//! A [`FaultPlan`] is a seeded schedule of failures threaded through the
//! server's worker pool and connection I/O. Each injection *site* (worker
//! panic, response truncation, response garbling) consumes draws from its
//! own counter; whether draw `n` fires is a **pure function of the seed,
//! the site, and `n`** — so two runs of the same plan produce identical
//! fault schedules regardless of thread interleaving, and a chaos failure
//! reproduces under the seed it was found with.
//!
//! The plan is parsed from a compact spec (CLI `--faults`, or the
//! `LIS_FAULTS` environment variable):
//!
//! ```text
//! panic:0.05,slow_read:5ms,truncate:0.02,garbage:0.01,burst:8,seed:42
//! ```
//!
//! | key         | value        | effect                                           |
//! |-------------|--------------|--------------------------------------------------|
//! | `panic`     | probability  | worker panics mid-job (typed 500, then respawn)  |
//! | `slow_read` | duration     | every request read is delayed by this much       |
//! | `truncate`  | probability  | response cut off mid-body, connection dropped    |
//! | `garbage`   | probability  | response replaced with non-HTTP bytes, dropped   |
//! | `burst`     | count        | the first `count` jobs all panic (recovery test) |
//! | `seed`      | u64          | schedule seed (default [`DEFAULT_SEED`])         |
//! | `job_delay` | duration     | every analysis job sleeps this long first        |
//! | `row_delay` | duration     | a sweep sends each row as its own chunk, pausing this long after it |
//! | `spill_delay` | duration   | every durable-store write sleeps this long first |
//! | `write_chunk` | bytes      | each socket write sends at most this many bytes  |
//!
//! The last four pace the daemon rather than break it: tests use them to
//! reach the overload, timeout, mid-stream-kill, drain and partial-write
//! paths deterministically.
//!
//! Injection is **zero-cost when disabled**: a server built without a plan
//! performs one `Option` check per site and allocates nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::Duration;

/// Seed used when the spec does not name one.
pub const DEFAULT_SEED: u64 = 0x11a7_c0ff_ee5e_ed00;

/// Marker embedded in every injected panic payload, so the quiet panic
/// hook (and log scrapers) can tell injected crashes from real bugs.
pub const INJECTED_PANIC_MARKER: &str = "lis-fault: injected worker panic";

/// The non-HTTP bytes a [`WriteFault::Garbage`] injection sends instead of
/// the response (a TLS-looking record, so clients fail fast).
pub const GARBAGE_BYTES: &[u8] = b"\x16\x03\x01LIS GARBAGE\r\n\r\n";

/// What [`FaultPlan::write_fault`] asks the connection handler to do with
/// the response it was about to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Send the response normally.
    None,
    /// Send only a prefix of the response bytes, then drop the connection.
    Truncate,
    /// Send non-HTTP garbage instead of the response, then drop it.
    Garbage,
}

/// A seeded, deterministic fault-injection schedule. Cheap to share via
/// `Arc`; every decision method is lock-free.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    panic_p: f64,
    truncate_p: f64,
    garbage_p: f64,
    slow_read: Option<Duration>,
    job_delay: Option<Duration>,
    row_delay: Option<Duration>,
    spill_delay: Option<Duration>,
    write_chunk: Option<usize>,
    /// Jobs remaining in a forced panic burst (spec `burst:N`, or armed at
    /// runtime with [`FaultPlan::force_panic_burst`]).
    burst_remaining: AtomicU64,
    /// Draws consumed by the worker-panic site.
    panic_draws: AtomicU64,
    /// Draws consumed by the response-write site.
    write_draws: AtomicU64,
    /// Total faults actually injected (all sites).
    injected: AtomicU64,
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The uniform `[0, 1)` variate for draw `n` at `site` under `seed`.
/// Pure: this is what makes the schedule reproducible.
fn unit(seed: u64, site: u64, n: u64) -> f64 {
    let h = mix(mix(seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ n);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const PANIC_SITE: u64 = 1;
const WRITE_SITE: u64 = 2;

/// The uniform `[0, 1)` variate for draw `n` at caller-chosen `site` under
/// `seed` — the same pure generator the in-process fault sites use, exposed
/// so external harnesses (the store crash-consistency loop) can derive
/// replayable kill schedules from a printed seed.
pub fn seeded_unit(seed: u64, site: u64, n: u64) -> f64 {
    unit(seed, site, n)
}

impl FaultPlan {
    /// Parses a fault spec (see the module docs for the grammar). An empty
    /// spec is valid and injects nothing.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            seed: DEFAULT_SEED,
            panic_p: 0.0,
            truncate_p: 0.0,
            garbage_p: 0.0,
            slow_read: None,
            job_delay: None,
            row_delay: None,
            spill_delay: None,
            write_chunk: None,
            burst_remaining: AtomicU64::new(0),
            panic_draws: AtomicU64::new(0),
            write_draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        };
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault entry {entry:?} is not key:value"))?;
            match key.trim() {
                "panic" => plan.panic_p = parse_probability(key, value)?,
                "truncate" => plan.truncate_p = parse_probability(key, value)?,
                "garbage" => plan.garbage_p = parse_probability(key, value)?,
                "slow_read" => plan.slow_read = Some(parse_duration(key, value)?),
                "job_delay" => plan.job_delay = Some(parse_duration(key, value)?),
                "row_delay" => plan.row_delay = Some(parse_duration(key, value)?),
                "spill_delay" => plan.spill_delay = Some(parse_duration(key, value)?),
                "write_chunk" => {
                    let n = value.trim().parse::<usize>().ok().filter(|&n| n > 0);
                    let n = n.ok_or_else(|| {
                        format!("write_chunk: {value:?} is not a positive byte count")
                    })?;
                    plan.write_chunk = Some(n);
                }
                "burst" => {
                    let n: u64 = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("burst: {e} (got {value:?})"))?;
                    plan.burst_remaining = AtomicU64::new(n);
                }
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("seed: {e} (got {value:?})"))?;
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        if plan.truncate_p + plan.garbage_p > 1.0 {
            return Err("truncate + garbage probabilities exceed 1".into());
        }
        Ok(plan)
    }

    /// The schedule seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total faults injected so far (all sites).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Arms a panic burst: the next `jobs` worker jobs all panic,
    /// regardless of the `panic` probability. Used by the chaos bench to
    /// measure recovery time after a crash storm.
    pub fn force_panic_burst(&self, jobs: u64) {
        self.burst_remaining.fetch_add(jobs, Ordering::Relaxed);
    }

    /// Worker-panic site: called once per analysis job, `/batch` row and
    /// `/sweep` job. Panics (with
    /// [`INJECTED_PANIC_MARKER`] in the payload) when this job's draw
    /// fires or a burst is armed.
    pub fn maybe_panic(&self) {
        let burst = self
            .burst_remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok();
        if burst {
            self.injected.fetch_add(1, Ordering::Relaxed);
            panic!("{INJECTED_PANIC_MARKER} (burst)");
        }
        if self.panic_p <= 0.0 {
            return;
        }
        let n = self.panic_draws.fetch_add(1, Ordering::Relaxed);
        if unit(self.seed, PANIC_SITE, n) < self.panic_p {
            self.injected.fetch_add(1, Ordering::Relaxed);
            panic!("{INJECTED_PANIC_MARKER} (draw {n})");
        }
    }

    /// Response-write site: called once per analysis response. A single
    /// draw is partitioned between truncation and garbling so the two
    /// cannot fire together.
    pub fn write_fault(&self) -> WriteFault {
        if self.truncate_p <= 0.0 && self.garbage_p <= 0.0 {
            return WriteFault::None;
        }
        let n = self.write_draws.fetch_add(1, Ordering::Relaxed);
        let u = unit(self.seed, WRITE_SITE, n);
        if u < self.truncate_p {
            self.injected.fetch_add(1, Ordering::Relaxed);
            WriteFault::Truncate
        } else if u < self.truncate_p + self.garbage_p {
            self.injected.fetch_add(1, Ordering::Relaxed);
            WriteFault::Garbage
        } else {
            WriteFault::None
        }
    }

    /// The configured per-read delay, if any.
    pub fn slow_read(&self) -> Option<Duration> {
        self.slow_read
    }

    /// The pause before every analysis job, if any.
    pub fn job_delay(&self) -> Option<Duration> {
        self.job_delay
    }

    /// The pause after every streamed sweep row, if any.
    pub fn row_delay(&self) -> Option<Duration> {
        self.row_delay
    }

    /// The pause before every durable-store write, if any.
    pub fn spill_delay(&self) -> Option<Duration> {
        self.spill_delay
    }

    /// The most bytes one socket write may send, if capped.
    pub fn write_chunk(&self) -> Option<usize> {
        self.write_chunk
    }

    /// A digest of the first `draws` decisions of every probability site.
    /// Pure in `(seed, probabilities, draws)` — two plans with the same
    /// spec produce the same digest, which is how the chaos bench proves
    /// schedule determinism without replaying a run.
    pub fn schedule_digest(&self, draws: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bit: bool| {
            h = (h ^ u64::from(bit)).wrapping_mul(0x0000_0100_0000_01b3);
        };
        for n in 0..draws {
            fold(unit(self.seed, PANIC_SITE, n) < self.panic_p);
            let u = unit(self.seed, WRITE_SITE, n);
            fold(u < self.truncate_p);
            fold(u >= self.truncate_p && u < self.truncate_p + self.garbage_p);
        }
        h
    }
}

fn parse_probability(key: &str, value: &str) -> Result<f64, String> {
    let p: f64 = value
        .trim()
        .parse()
        .map_err(|e| format!("{key}: {e} (got {value:?})"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{key}: probability {p} outside [0, 1]"));
    }
    Ok(p)
}

fn parse_duration(key: &str, value: &str) -> Result<Duration, String> {
    let v = value.trim();
    let (digits, unit): (&str, &str) = v
        .find(|c: char| !c.is_ascii_digit())
        .map_or((v, "ms"), |i| (&v[..i], &v[i..]));
    let n: u64 = digits
        .parse()
        .map_err(|e| format!("{key}: {e} (got {value:?})"))?;
    match unit {
        "us" | "µs" => Ok(Duration::from_micros(n)),
        "ms" => Ok(Duration::from_millis(n)),
        "s" => Ok(Duration::from_secs(n)),
        other => Err(format!("{key}: unknown unit {other:?} (us/ms/s)")),
    }
}

/// Installs a process-wide panic hook that stays silent for *injected*
/// panics (payloads carrying [`INJECTED_PANIC_MARKER`]) and forwards
/// everything else to the previous hook. Idempotent; called automatically
/// when a server is built with a fault plan, so chaos runs don't spray
/// hundreds of expected backtraces into the logs.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.contains(INJECTED_PANIC_MARKER));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_full_grammar() {
        let plan = FaultPlan::parse(
            "panic:0.05, slow_read:5ms ,truncate:0.02,garbage:0.01,burst:3,seed:9",
        )
        .expect("full spec parses");
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.slow_read(), Some(Duration::from_millis(5)));
        assert_eq!(plan.burst_remaining.load(Ordering::Relaxed), 3);
        let empty = FaultPlan::parse("").expect("empty spec is a no-op plan");
        assert_eq!(empty.seed(), DEFAULT_SEED);
        assert_eq!(empty.write_fault(), WriteFault::None);
        assert_eq!(empty.injected(), 0);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "panic",
            "panic:1.5",
            "panic:-0.1",
            "panic:moose",
            "slow_read:5fortnights",
            "slow_read:ms",
            "frobnicate:0.5",
            "seed:notanumber",
            "burst:-1",
            "truncate:0.7,garbage:0.7",
            "job_delay:5fortnights",
            "row_delay:",
            "write_chunk:0",
            "write_chunk:-7",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn pacing_keys_parse_and_default_to_off() {
        let plan = FaultPlan::parse("job_delay:300ms,row_delay:40ms,spill_delay:2s,write_chunk:7")
            .expect("pacing spec parses");
        assert_eq!(plan.job_delay(), Some(Duration::from_millis(300)));
        assert_eq!(plan.row_delay(), Some(Duration::from_millis(40)));
        assert_eq!(plan.spill_delay(), Some(Duration::from_secs(2)));
        assert_eq!(plan.write_chunk(), Some(7));
        // Pacing injects no fault: the schedule is the empty plan's.
        let empty = FaultPlan::parse("").expect("empty");
        assert_eq!(plan.schedule_digest(64), empty.schedule_digest(64));
        assert_eq!(
            (
                empty.job_delay(),
                empty.row_delay(),
                empty.spill_delay(),
                empty.write_chunk()
            ),
            (None, None, None, None)
        );
    }

    #[test]
    fn durations_parse_in_every_unit() {
        let parse = |v| parse_duration("slow_read", v).unwrap();
        assert_eq!(parse("250us"), Duration::from_micros(250));
        assert_eq!(parse("5ms"), Duration::from_millis(5));
        assert_eq!(parse("2s"), Duration::from_secs(2));
        assert_eq!(parse("7"), Duration::from_millis(7));
    }

    #[test]
    fn schedule_is_deterministic_under_a_fixed_seed() {
        let a = FaultPlan::parse("panic:0.1,truncate:0.05,garbage:0.05,seed:1234").unwrap();
        let b = FaultPlan::parse("panic:0.1,truncate:0.05,garbage:0.05,seed:1234").unwrap();
        assert_eq!(a.schedule_digest(16_384), b.schedule_digest(16_384));
        let c = FaultPlan::parse("panic:0.1,truncate:0.05,garbage:0.05,seed:1235").unwrap();
        assert_ne!(a.schedule_digest(16_384), c.schedule_digest(16_384));
        // Decisions are per-draw pure functions: interleaving cannot
        // reorder them, only which draw index a thread gets.
        for n in 0..64 {
            assert_eq!(
                unit(1234, PANIC_SITE, n) < 0.1,
                unit(1234, PANIC_SITE, n) < 0.1
            );
        }
    }

    #[test]
    fn probabilities_land_near_their_targets() {
        let plan = FaultPlan::parse("panic:0.05,seed:7").unwrap();
        let fired = (0..100_000)
            .filter(|&n| unit(plan.seed, PANIC_SITE, n) < plan.panic_p)
            .count();
        assert!(
            (4_000..6_000).contains(&fired),
            "5% of 100k draws should fire ~5k times, saw {fired}"
        );
    }

    #[test]
    fn maybe_panic_panics_on_burst_and_counts_injections() {
        let plan = FaultPlan::parse("burst:2").unwrap();
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(|| plan.maybe_panic());
            let payload = caught.expect_err("burst must panic");
            let message = payload
                .downcast_ref::<String>()
                .expect("panic payload is a String");
            assert!(message.contains(INJECTED_PANIC_MARKER));
        }
        // Burst exhausted and panic probability is zero: no more panics.
        plan.maybe_panic();
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn write_fault_partitions_one_draw() {
        let plan = FaultPlan::parse("truncate:0.5,garbage:0.5,seed:3").unwrap();
        // truncate + garbage == 1: every draw fires exactly one of the two.
        let mut truncated = 0;
        let mut garbled = 0;
        for _ in 0..1000 {
            match plan.write_fault() {
                WriteFault::Truncate => truncated += 1,
                WriteFault::Garbage => garbled += 1,
                WriteFault::None => panic!("p=1 draw produced no fault"),
            }
        }
        assert!(truncated > 300 && garbled > 300, "{truncated}/{garbled}");
        assert_eq!(plan.injected(), 1000);
    }

    #[test]
    fn quiet_hook_is_idempotent() {
        silence_injected_panics();
        silence_injected_panics();
        // Injected panics still unwind (the hook only silences reporting).
        let plan = FaultPlan::parse("burst:1").unwrap();
        assert!(std::panic::catch_unwind(|| plan.maybe_panic()).is_err());
    }
}
