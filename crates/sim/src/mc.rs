//! The bit-parallel Monte-Carlo simulation kernel.
//!
//! One pass over the compiled schedule advances **64 independent trials**:
//! every per-place token count is bit-sliced into binary planes (plane `b`
//! holds bit `b` of all 64 lanes' counts — the doubled model's edge/backedge
//! pair invariant bounds each count, so the plane count is fixed at compile
//! time), the AND-firing rule becomes word-wide boolean algebra, and the
//! marking update is a ripple-carry increment/decrement by the fired mask.
//!
//! Stochastic behavior — bursty sources, jittery channel latencies — enters
//! as per-trial *stall masks*: a stalled transition holds its tokens for a
//! period, exactly the τ the latency-insensitive protocol absorbs. Every
//! stall decision is a pure function of `(seed, trial word, transition,
//! cycle)` drawn through the vendored [`rand`] generator, so a packed run is
//! bit-identical to 64 single-trial runs with the same derived seeds
//! ([`single_trial`] *is* that reference path, and a proptest holds the two
//! together).
//!
//! Stalls only ever *remove* firings, so measured throughput can never
//! exceed the analytical MCM bound `θ` — the cross-check the analysis side
//! (`tests/analysis_vs_simulation.rs`) asserts on every stochastic sweep.

use lis_core::{BlockId, ChannelId, LisSystem};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::compile::CompiledProgram;
use crate::kernel::CompiledSim;
use crate::simulator::QueueMode;

/// Number of trials packed into one machine word.
pub const LANES: usize = 64;

/// Stall-probability resolution: probabilities are quantized to multiples
/// of `1 / 65536` (16 random bit-planes per Bernoulli draw).
const PROB_BITS: u32 = 16;
const PROB_ONE: u32 = 1 << PROB_BITS;

/// Per-transition stall probabilities for a stochastic scenario.
///
/// A stall suppresses a transition for one period even if it is enabled:
/// a stalled *shell* models a bursty source or a core that skips a beat, a
/// stalled *relay station* models a channel whose latency jitters upward.
/// Probabilities are quantized to 16 bits (resolution `1/65536`).
///
/// # Examples
///
/// ```
/// use lis_core::figures;
/// use lis_sim::{CompiledProgram, QueueMode, StallSpec};
///
/// let (sys, upper, _) = figures::fig1();
/// let prog = CompiledProgram::compile(&sys, QueueMode::Finite);
/// let a = sys.block_by_name("A").expect("exists");
/// let spec = StallSpec::none(&prog)
///     .with_block(&prog, a, 0.10)
///     .with_relay_jitter(&prog, upper, 0.05);
/// assert!(spec.is_stochastic());
/// ```
#[derive(Debug, Clone)]
pub struct StallSpec {
    /// Per transition: quantized stall probability in `[0, 65536]`.
    thresh: Vec<u32>,
}

impl StallSpec {
    /// No stalls anywhere — the deterministic protocol schedule.
    pub fn none(prog: &CompiledProgram) -> StallSpec {
        StallSpec {
            thresh: vec![0; prog.transition_count()],
        }
    }

    /// The same stall probability on every transition (shells and relay
    /// stations alike).
    pub fn uniform(prog: &CompiledProgram, p: f64) -> StallSpec {
        StallSpec {
            thresh: vec![quantize(p); prog.transition_count()],
        }
    }

    /// Sets the stall probability of a block's shell.
    pub fn with_block(mut self, prog: &CompiledProgram, b: BlockId, p: f64) -> StallSpec {
        self.thresh[prog.block_transition(b)] = quantize(p);
        self
    }

    /// Sets the stall probability of every relay station on a channel
    /// (stochastic channel latency).
    pub fn with_relay_jitter(mut self, prog: &CompiledProgram, c: ChannelId, p: f64) -> StallSpec {
        for &rs in prog.relay_transitions(c) {
            self.thresh[rs as usize] = quantize(p);
        }
        self
    }

    /// Whether any transition has a nonzero stall probability.
    pub fn is_stochastic(&self) -> bool {
        self.thresh.iter().any(|&t| t > 0)
    }
}

/// Quantizes a probability to the 16-bit threshold grid.
///
/// # Panics
///
/// Panics unless `0 <= p <= 1`.
fn quantize(p: f64) -> u32 {
    assert!(
        (0.0..=1.0).contains(&p),
        "stall probability {p} not in [0,1]"
    );
    (p * f64::from(PROB_ONE)).round() as u32
}

/// The derived generator for one `(seed, trial word, transition, cycle)`
/// site. Pure: any caller — packed kernel, single-trial reference, another
/// process — reconstructs the identical stream.
fn site_rng(seed: u64, word: u64, t: u32, cycle: u64) -> StdRng {
    let mut z = seed;
    z ^= word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= (u64::from(t) + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= (cycle + 1).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z)
}

/// 64 independent Bernoulli(thresh / 65536) draws as one mask, consumed
/// from the caller's generator.
///
/// The comparison `rand < thresh` runs bit-sliced MSB-first over 16 random
/// planes, so all 64 lanes cost 16 generator draws instead of 64. The
/// degenerate thresholds consume no draws — every caller (packed kernel,
/// single-trial reference) shares this function, so the streams stay
/// aligned by construction.
fn bernoulli_mask(rng: &mut StdRng, thresh: u32) -> u64 {
    if thresh == 0 {
        return 0;
    }
    if thresh >= PROB_ONE {
        return !0;
    }
    let mut lt = 0u64;
    let mut eq = !0u64;
    for b in (0..PROB_BITS).rev() {
        let plane = rng.next_u64();
        if thresh >> b & 1 == 1 {
            lt |= eq & !plane;
            eq &= plane;
        } else {
            eq &= !plane;
        }
    }
    lt
}

/// 64 independent Bernoulli(thresh / 65536) draws as one mask: lane `l` is
/// set iff trial `word * 64 + l` stalls transition `t` at `cycle`.
fn stall_mask(seed: u64, word: u64, t: u32, cycle: u64, thresh: u32) -> u64 {
    if thresh == 0 {
        return 0;
    }
    if thresh >= PROB_ONE {
        return !0;
    }
    let mut rng = site_rng(seed, word, t, cycle);
    bernoulli_mask(&mut rng, thresh)
}

/// Salt separating the burst chains' random stream from the stall stream:
/// a burst draw at `(seed, word, t, cycle)` must not correlate with the
/// stall draw at the same site.
const BURST_STREAM: u64 = 0xD6E8_FEB8_6659_FD93;

/// A Markov-modulated on/off burst source specification.
///
/// Each transition carries a two-state chain: while ON it fires normally
/// and enters OFF with probability `p_off` per cycle; while OFF it stalls
/// (holds its tokens, emitting the protocol's τ) and returns to ON with
/// probability `p_on` per cycle. Small `p_off` with small `p_on` yields
/// long smooth stretches broken by long silences — the bursty-source
/// regime whose backlog the schedule-derived occupancy bounds must cap.
/// Chains start ON; probabilities are quantized to 16 bits like
/// [`StallSpec`], and every chain step is a pure function of
/// `(seed, trial word, transition, cycle)`, so packed runs stay
/// bit-identical to their single-trial references.
///
/// # Examples
///
/// ```
/// use lis_core::figures;
/// use lis_sim::{BurstSpec, CompiledProgram, QueueMode};
///
/// let (sys, _, _) = figures::fig1();
/// let prog = CompiledProgram::compile(&sys, QueueMode::Finite);
/// let burst = BurstSpec::sources(&prog, 0.2, 0.5);
/// assert!(burst.is_bursty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstSpec {
    /// Per transition: quantized P(ON → OFF) per cycle.
    enter_off: Vec<u32>,
    /// Per transition: quantized P(OFF → ON) per cycle.
    exit_off: Vec<u32>,
}

impl BurstSpec {
    /// No bursts anywhere: every chain is pinned ON.
    pub fn none(prog: &CompiledProgram) -> BurstSpec {
        let nt = prog.transition_count();
        BurstSpec {
            enter_off: vec![0; nt],
            exit_off: vec![0; nt],
        }
    }

    /// The same on/off chain on every transition.
    pub fn uniform(prog: &CompiledProgram, p_off: f64, p_on: f64) -> BurstSpec {
        let nt = prog.transition_count();
        BurstSpec {
            enter_off: vec![quantize(p_off); nt],
            exit_off: vec![quantize(p_on); nt],
        }
    }

    /// Bursty *sources*: every block's shell carries the chain while relay
    /// stations stay smooth — the NoC scenario where traffic injectors
    /// burst but the fabric itself is reliable.
    pub fn sources(prog: &CompiledProgram, p_off: f64, p_on: f64) -> BurstSpec {
        let mut spec = BurstSpec::none(prog);
        let (off, on) = (quantize(p_off), quantize(p_on));
        for b in 0..prog.block_count() {
            let t = prog.block_transition(BlockId::new(b));
            spec.enter_off[t] = off;
            spec.exit_off[t] = on;
        }
        spec
    }

    /// Sets the chain of one block's shell.
    pub fn with_block(
        mut self,
        prog: &CompiledProgram,
        b: BlockId,
        p_off: f64,
        p_on: f64,
    ) -> BurstSpec {
        let t = prog.block_transition(b);
        self.enter_off[t] = quantize(p_off);
        self.exit_off[t] = quantize(p_on);
        self
    }

    /// Whether any transition can ever leave the ON state.
    pub fn is_bursty(&self) -> bool {
        self.enter_off.iter().any(|&t| t > 0)
    }
}

/// Per-lane ON/OFF state of every transition's burst chain (bit `l` of
/// `on[t]` = lane `l`'s chain is ON). Stepped identically by the packed
/// kernel and the single-trial reference, so the two stay bit-identical.
struct BurstState {
    on: Vec<u64>,
}

impl BurstState {
    fn new(transitions: usize) -> BurstState {
        BurstState {
            on: vec![!0; transitions],
        }
    }

    /// Advances every chain by one cycle. Both Bernoulli draws of a
    /// transition come sequentially from one salted site generator, so the
    /// chain stream never collides with the stall stream.
    fn step(&mut self, spec: &BurstSpec, seed: u64, word: u64, cycle: u64) {
        for (t, on) in self.on.iter_mut().enumerate() {
            let enter = spec.enter_off[t];
            if enter == 0 {
                // A chain that cannot leave ON stays all-ON forever; skip
                // the generator entirely (site streams are independent, so
                // skipping draws here shifts nothing elsewhere).
                continue;
            }
            let mut rng = site_rng(seed ^ BURST_STREAM, word, t as u32, cycle);
            let to_off = bernoulli_mask(&mut rng, enter);
            let to_on = bernoulli_mask(&mut rng, spec.exit_off[t]);
            *on = (*on & !to_off) | (!*on & to_on);
        }
    }

    /// Lanes whose chain is OFF for transition `t` (those lanes stall).
    fn off(&self, t: usize) -> u64 {
        !self.on[t]
    }
}

/// Ripple-carry increment of bit-sliced counts by `carry` (one per lane).
#[inline]
fn add_mask(planes: &mut [u64], mut carry: u64) {
    for plane in planes.iter_mut() {
        if carry == 0 {
            return;
        }
        let old = *plane;
        *plane = old ^ carry;
        carry &= old;
    }
    debug_assert_eq!(carry, 0, "bit-sliced counter overflow");
}

/// Ripple-borrow decrement of bit-sliced counts by `borrow` (one per lane).
#[inline]
fn sub_mask(planes: &mut [u64], mut borrow: u64) {
    for plane in planes.iter_mut() {
        if borrow == 0 {
            return;
        }
        let old = *plane;
        *plane = old ^ borrow;
        borrow &= !old;
    }
    debug_assert_eq!(borrow, 0, "bit-sliced counter underflow");
}

/// A bit-sliced per-lane counter: plane `b` holds bit `b` of all 64 lanes'
/// counts. Incrementing by a mask is amortized O(1) planes touched.
#[derive(Debug, Clone, Default)]
struct BitCounter {
    planes: Vec<u64>,
}

impl BitCounter {
    fn add(&mut self, mut carry: u64) {
        let mut i = 0;
        while carry != 0 {
            if i == self.planes.len() {
                self.planes.push(0);
            }
            let old = self.planes[i];
            self.planes[i] = old ^ carry;
            carry &= old;
            i += 1;
        }
    }

    fn get(&self, lane: usize) -> u64 {
        self.planes
            .iter()
            .enumerate()
            .map(|(b, plane)| (plane >> lane & 1) << b)
            .sum()
    }
}

/// The packed 64-lane Monte-Carlo simulator.
///
/// Built from a finite-queue [`CompiledProgram`] and a [`StallSpec`];
/// [`run`](McKernel::run) advances `trials` independent seeded trials for
/// `cycles` periods each, 64 trials per schedule pass.
///
/// # Examples
///
/// ```
/// use lis_core::figures;
/// use lis_sim::{CompiledProgram, McKernel, QueueMode, StallSpec};
///
/// let (sys, _, _) = figures::fig1();
/// let prog = CompiledProgram::compile(&sys, QueueMode::Finite);
/// let spec = StallSpec::uniform(&prog, 0.05);
/// let report = McKernel::new(prog, spec, 42).run(128, 2000);
/// // Stalls only remove firings: no trial can beat the analytic 2/3.
/// assert!(report.max_system_rate() <= 2.0 / 3.0 + 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct McKernel {
    prog: CompiledProgram,
    spec: StallSpec,
    burst: Option<BurstSpec>,
    seed: u64,
    /// Plane offsets per place (`plane_off[p]..plane_off[p+1]` slices the
    /// planes of place `p`); width = bits of the place's token cap.
    plane_off: Vec<u32>,
}

impl McKernel {
    /// Builds the kernel.
    ///
    /// # Panics
    ///
    /// Panics unless `prog` was compiled for `QueueMode::Finite` (only the
    /// doubled model bounds markings, which the bit-sliced state requires)
    /// or if `spec` was built for a different program shape.
    pub fn new(prog: CompiledProgram, spec: StallSpec, seed: u64) -> McKernel {
        assert_eq!(
            prog.mode(),
            QueueMode::Finite,
            "the packed kernel requires the finite-queue (doubled) model"
        );
        assert_eq!(
            spec.thresh.len(),
            prog.transition_count(),
            "stall spec does not match the program"
        );
        let mut plane_off = Vec::with_capacity(prog.place_count() + 1);
        plane_off.push(0u32);
        for p in 0..prog.place_count() {
            let cap = prog.cap[p].max(1);
            let bits = 64 - cap.leading_zeros();
            plane_off.push(plane_off[p] + bits);
        }
        McKernel {
            prog,
            spec,
            burst: None,
            seed,
            plane_off,
        }
    }

    /// Attaches a Markov-modulated burst specification: OFF lanes stall in
    /// addition to any Bernoulli stalls from the [`StallSpec`].
    ///
    /// # Panics
    ///
    /// Panics if `burst` was built for a different program shape.
    pub fn with_burst(mut self, burst: BurstSpec) -> McKernel {
        assert_eq!(
            burst.enter_off.len(),
            self.prog.transition_count(),
            "burst spec does not match the program"
        );
        self.burst = burst.is_bursty().then_some(burst);
        self
    }

    /// The compiled program the kernel executes.
    pub fn program(&self) -> &CompiledProgram {
        &self.prog
    }

    /// Runs `trials` independent trials for `cycles` periods each and
    /// aggregates per-trial block firing counts.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn run(&self, trials: usize, cycles: u64) -> McReport {
        assert!(trials > 0, "at least one trial required");
        let words = trials.div_ceil(LANES);
        let per_word: Vec<Vec<BitCounter>> = (0..words)
            .map(|w| self.run_word(w as u64, cycles, &mut |_, _| {}, None))
            .collect();
        self.collect_report(trials, cycles, &per_word)
    }

    /// [`run`](McKernel::run), additionally tracking every channel queue's
    /// maximum occupancy: returns the report plus, per channel, the highest
    /// token count its consumer-side queue place reached over **any** cycle
    /// of **any** trial (the initial marking counts).
    ///
    /// This is the empirical side of the schedule-derived occupancy bounds:
    /// under any stall/burst plan the observed maximum must stay within the
    /// pair-invariant cap, and with no stalls it attains the periodic peak.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn run_occupancy(&self, trials: usize, cycles: u64) -> (McReport, Vec<u64>) {
        assert!(trials > 0, "at least one trial required");
        let words = trials.div_ceil(LANES);
        let nc = self.prog.channel_count();
        let (counters, occ): (Vec<Vec<BitCounter>>, Vec<Vec<u64>>) = (0..words)
            .map(|w| {
                let mut occ = vec![0u64; nc * LANES];
                let counters = self.run_word(w as u64, cycles, &mut |_, _| {}, Some(&mut occ));
                (counters, occ)
            })
            .unzip();
        let report = self.collect_report(trials, cycles, &counters);
        let mut occupancy = vec![0u64; nc];
        for trial in 0..trials {
            let (w, lane) = (trial / LANES, trial % LANES);
            for (c, max) in occupancy.iter_mut().enumerate() {
                *max = (*max).max(occ[w][c * LANES + lane]);
            }
        }
        (report, occupancy)
    }

    fn collect_report(&self, trials: usize, cycles: u64, per_word: &[Vec<BitCounter>]) -> McReport {
        let nb = self.prog.block_count();
        let mut block_firings = vec![Vec::with_capacity(trials); nb];
        for trial in 0..trials {
            let (w, lane) = (trial / LANES, trial % LANES);
            for (b, firings) in block_firings.iter_mut().enumerate() {
                firings.push(per_word[w][b].get(lane));
            }
        }
        McReport {
            cycles,
            trials,
            block_firings,
        }
    }

    /// Runs one 64-lane trial word, recording every per-cycle fired mask:
    /// entry `k * transition_count + t` is transition `t`'s fired mask at
    /// cycle `k`. The differential proptest compares this against 64
    /// [`single_trial`] runs bit for bit.
    pub fn run_word_traced(&self, word: u64, cycles: u64) -> Vec<u64> {
        let nt = self.prog.transition_count();
        let mut trace = Vec::with_capacity(cycles as usize * nt);
        self.run_word(
            word,
            cycles,
            &mut |_, fired| trace.extend_from_slice(fired),
            None,
        );
        trace
    }

    /// The shared stepping loop: runs lanes `word*64 .. word*64+63` for
    /// `cycles`, invoking `observe(cycle, fired_masks)` after each cycle,
    /// and returns the per-block bit-sliced firing counters. When `occ` is
    /// given it receives, per `(channel, lane)` at `c * 64 + lane`, the
    /// maximum queue occupancy that lane observed.
    fn run_word(
        &self,
        word: u64,
        cycles: u64,
        observe: &mut dyn FnMut(u64, &[u64]),
        occ: Option<&mut [u64]>,
    ) -> Vec<BitCounter> {
        let prog = &self.prog;
        let nt = prog.transition_count();
        let np = prog.place_count();

        // Initial marking, bit-sliced: every lane starts identical.
        let mut planes = vec![0u64; self.plane_off[np] as usize];
        for p in 0..np {
            let off = self.plane_off[p] as usize;
            let width = (self.plane_off[p + 1] - self.plane_off[p]) as usize;
            for b in 0..width {
                if prog.init_tokens[p] >> b & 1 == 1 {
                    planes[off + b] = !0;
                }
            }
        }
        let mut fired = vec![0u64; nt];
        let mut counters = vec![BitCounter::default(); prog.block_count()];
        let mut burst_state = self.burst.as_ref().map(|_| BurstState::new(nt));

        // Occupancy tracking: a compact max-plane buffer holding one slice
        // per channel queue place, updated by a bit-sliced MSB-first
        // greater-than compare each cycle.
        let nc = prog.channel_count();
        let queue_places: Vec<usize> = (0..nc)
            .map(|c| prog.queue_place(ChannelId::new(c)))
            .collect();
        let mut occ_track = occ.map(|o| {
            let mut qoff = Vec::with_capacity(nc + 1);
            qoff.push(0usize);
            for (c, &p) in queue_places.iter().enumerate() {
                let width = (self.plane_off[p + 1] - self.plane_off[p]) as usize;
                qoff.push(qoff[c] + width);
            }
            let mut maxp = vec![0u64; qoff[nc]];
            for (c, &p) in queue_places.iter().enumerate() {
                let off = self.plane_off[p] as usize;
                let width = qoff[c + 1] - qoff[c];
                maxp[qoff[c]..qoff[c + 1]].copy_from_slice(&planes[off..off + width]);
            }
            (o, qoff, maxp)
        });

        for cycle in 0..cycles {
            if let (Some(state), Some(spec)) = (burst_state.as_mut(), self.burst.as_ref()) {
                state.step(spec, self.seed, word, cycle);
            }
            // Phase 1 — pure read of the old marking region: fired masks.
            for &t in &prog.schedule {
                let ti = t as usize;
                let lo = prog.in_off[ti] as usize;
                let hi = prog.in_off[ti + 1] as usize;
                let mut mask = !0u64;
                for &p in &prog.in_places[lo..hi] {
                    let off = self.plane_off[p as usize] as usize;
                    let end = self.plane_off[p as usize + 1] as usize;
                    let mut nonzero = 0u64;
                    for &plane in &planes[off..end] {
                        nonzero |= plane;
                    }
                    mask &= nonzero;
                    if mask == 0 {
                        break;
                    }
                }
                let thresh = self.spec.thresh[ti];
                if mask != 0 && thresh > 0 {
                    mask &= !stall_mask(self.seed, word, t, cycle, thresh);
                }
                if mask != 0 {
                    if let Some(state) = burst_state.as_ref() {
                        mask &= !state.off(ti);
                    }
                }
                fired[ti] = mask;
            }
            // Phase 2 — commit: one token across every place per fired
            // endpoint lane (the pair invariant keeps every lane in cap).
            for p in 0..np {
                let off = self.plane_off[p] as usize;
                let end = self.plane_off[p + 1] as usize;
                let consumed = fired[prog.place_dst[p] as usize];
                let produced = fired[prog.place_src[p] as usize];
                if consumed != 0 {
                    sub_mask(&mut planes[off..end], consumed);
                }
                if produced != 0 {
                    add_mask(&mut planes[off..end], produced);
                }
            }
            if let Some((_, qoff, maxp)) = occ_track.as_mut() {
                for (c, &p) in queue_places.iter().enumerate() {
                    let off = self.plane_off[p] as usize;
                    let width = qoff[c + 1] - qoff[c];
                    let cur = &planes[off..off + width];
                    let maxs = &mut maxp[qoff[c]..qoff[c + 1]];
                    let mut gt = 0u64;
                    let mut eq = !0u64;
                    for b in (0..width).rev() {
                        gt |= eq & cur[b] & !maxs[b];
                        eq &= !(cur[b] ^ maxs[b]);
                    }
                    if gt != 0 {
                        for b in 0..width {
                            maxs[b] = (cur[b] & gt) | (maxs[b] & !gt);
                        }
                    }
                }
            }
            for (b, counter) in counters.iter_mut().enumerate() {
                counter.add(fired[prog.block_transition[b] as usize]);
            }
            observe(cycle, &fired);
        }
        if let Some((o, qoff, maxp)) = occ_track {
            for c in 0..nc {
                let width = qoff[c + 1] - qoff[c];
                for lane in 0..LANES {
                    let mut value = 0u64;
                    for b in 0..width {
                        value |= (maxp[qoff[c] + b] >> lane & 1) << b;
                    }
                    o[c * LANES + lane] = value;
                }
            }
        }
        counters
    }
}

/// Aggregated results of a Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Periods simulated per trial.
    pub cycles: u64,
    /// Number of trials.
    pub trials: usize,
    /// `block_firings[b][trial]`: firing count of block `b` in `trial`.
    block_firings: Vec<Vec<u64>>,
}

impl McReport {
    /// Firing count of block `b` in `trial`.
    pub fn block_firings(&self, b: BlockId, trial: usize) -> u64 {
        self.block_firings[b.index()][trial]
    }

    /// Firing rate of block `b` in `trial`.
    pub fn block_rate(&self, b: BlockId, trial: usize) -> f64 {
        self.block_firings[b.index()][trial] as f64 / self.cycles.max(1) as f64
    }

    /// The system rate of one trial: the smallest per-block firing rate.
    pub fn system_rate(&self, trial: usize) -> f64 {
        self.block_firings
            .iter()
            .map(|per_trial| per_trial[trial] as f64 / self.cycles.max(1) as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// Smallest system rate across trials.
    pub fn min_system_rate(&self) -> f64 {
        (0..self.trials)
            .map(|i| self.system_rate(i))
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest system rate across trials — the one to hold against the
    /// analytical bound `θ`.
    pub fn max_system_rate(&self) -> f64 {
        (0..self.trials)
            .map(|i| self.system_rate(i))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean system rate across trials.
    pub fn mean_system_rate(&self) -> f64 {
        (0..self.trials).map(|i| self.system_rate(i)).sum::<f64>() / self.trials as f64
    }
}

/// The single-trial reference path: runs trial `trial` of the same seeded
/// experiment on the scalar [`CompiledSim`], deriving each cycle's stall
/// mask from the identical `(seed, word, transition, cycle)` sites the
/// packed kernel uses. Returns the simulator with per-cycle traces
/// recorded, so callers can compare firing schedules bit for bit.
pub fn single_trial(
    sys: &LisSystem,
    spec: &StallSpec,
    seed: u64,
    trial: usize,
    cycles: u64,
) -> CompiledSim {
    let prog = CompiledProgram::compile(sys, QueueMode::Finite);
    single_trial_on(prog, spec, seed, trial, cycles)
}

/// [`single_trial`] over an already-compiled program.
pub fn single_trial_on(
    prog: CompiledProgram,
    spec: &StallSpec,
    seed: u64,
    trial: usize,
    cycles: u64,
) -> CompiledSim {
    let burst = BurstSpec {
        enter_off: vec![0; prog.transition_count()],
        exit_off: vec![0; prog.transition_count()],
    };
    single_trial_burst_on(prog, spec, &burst, seed, trial, cycles)
}

/// The single-trial reference for a stall **and** burst scenario: lane
/// `trial % 64` of trial word `trial / 64`, reconstructing the identical
/// stall masks and burst-chain steps the packed kernel draws, on the
/// scalar [`CompiledSim`] with traces recorded.
pub fn single_trial_burst(
    sys: &LisSystem,
    spec: &StallSpec,
    burst: &BurstSpec,
    seed: u64,
    trial: usize,
    cycles: u64,
) -> CompiledSim {
    let prog = CompiledProgram::compile(sys, QueueMode::Finite);
    single_trial_burst_on(prog, spec, burst, seed, trial, cycles)
}

/// [`single_trial_burst`] over an already-compiled program.
pub fn single_trial_burst_on(
    prog: CompiledProgram,
    spec: &StallSpec,
    burst: &BurstSpec,
    seed: u64,
    trial: usize,
    cycles: u64,
) -> CompiledSim {
    let (word, lane) = ((trial / LANES) as u64, trial % LANES);
    let nt = prog.transition_count();
    let words = prog.words();
    let mut sim = CompiledSim::from_program(prog);
    sim.record_traces();
    sim.track_occupancy();
    let mut state = burst.is_bursty().then(|| BurstState::new(nt));
    let mut stalled = vec![0u64; words];
    for cycle in 0..cycles {
        if let Some(state) = state.as_mut() {
            state.step(burst, seed, word, cycle);
        }
        for w in stalled.iter_mut() {
            *w = 0;
        }
        for t in 0..nt {
            let thresh = spec.thresh[t];
            let mut stall =
                thresh > 0 && stall_mask(seed, word, t as u32, cycle, thresh) >> lane & 1 == 1;
            if let Some(state) = state.as_ref() {
                stall |= state.off(t) >> lane & 1 == 1;
            }
            if stall {
                stalled[t / 64] |= 1u64 << (t % 64);
            }
        }
        sim.step_masked(&stalled);
    }
    sim
}

/// Runs the packed kernel once per stall probability over **one** compiled
/// program: compile once, clone per point. Point `i` draws its masks from
/// `seed + i·φ` (the splitmix increment), so every point is an independent
/// Bernoulli stream while the whole sweep stays deterministic in `seed`.
/// This is the simulation axis of a design-space sweep: the expensive
/// flatten/schedule step is paid once per design, not once per stall value.
pub fn stall_sweep(
    prog: &CompiledProgram,
    probs: &[f64],
    trials: usize,
    cycles: u64,
    seed: u64,
) -> Vec<McReport> {
    probs
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let spec = StallSpec::uniform(prog, p);
            let point_seed = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            McKernel::new(prog.clone(), spec, point_seed).run(trials, cycles)
        })
        .collect()
}

/// The burst counterpart of [`stall_sweep`]: one packed run per
/// `P(ON → OFF)` value with a fixed recovery probability `p_on`, bursty
/// sources only (relay stations stay smooth). Each point also reports the
/// per-channel maximum queue occupancy, the quantity the schedule-derived
/// bounds cap. Point `i` derives its seed as `seed + i·φ`, exactly like the
/// stall sweep, so the whole axis is deterministic in `seed`.
pub fn burst_sweep(
    prog: &CompiledProgram,
    offs: &[f64],
    p_on: f64,
    trials: usize,
    cycles: u64,
    seed: u64,
) -> Vec<(McReport, Vec<u64>)> {
    offs.iter()
        .enumerate()
        .map(|(i, &p_off)| {
            let burst = BurstSpec::sources(prog, p_off, p_on);
            let point_seed = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            McKernel::new(prog.clone(), StallSpec::none(prog), point_seed)
                .with_burst(burst)
                .run_occupancy(trials, cycles)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::figures;

    #[test]
    fn bit_counter_counts() {
        let mut c = BitCounter::default();
        for _ in 0..5 {
            c.add(0b11);
        }
        c.add(0b10);
        assert_eq!(c.get(0), 5);
        assert_eq!(c.get(1), 6);
        assert_eq!(c.get(2), 0);
    }

    #[test]
    fn add_sub_round_trip() {
        let mut planes = [0u64, 0, 0];
        add_mask(&mut planes, !0);
        add_mask(&mut planes, 0b1010);
        sub_mask(&mut planes, !0);
        assert_eq!(planes, [0b1010, 0, 0]);
        sub_mask(&mut planes, 0b1010);
        assert_eq!(planes, [0, 0, 0]);
    }

    #[test]
    fn stall_mask_is_deterministic_and_calibrated() {
        let mut ones = 0u32;
        let trials = 2000;
        for cycle in 0..trials {
            let m = stall_mask(7, 0, 3, cycle, PROB_ONE / 4);
            assert_eq!(m, stall_mask(7, 0, 3, cycle, PROB_ONE / 4));
            ones += (m & 1) as u32;
        }
        let p = f64::from(ones) / trials as f64;
        assert!((p - 0.25).abs() < 0.05, "measured {p}, expected 0.25");
        assert_eq!(stall_mask(7, 0, 3, 0, 0), 0);
        assert_eq!(stall_mask(7, 0, 3, 0, PROB_ONE), !0);
    }

    #[test]
    fn deterministic_lanes_agree_with_compiled_sim() {
        // With no stalls, every lane is the deterministic schedule.
        let (sys, _, _) = figures::fig1();
        let prog = CompiledProgram::compile(&sys, QueueMode::Finite);
        let spec = StallSpec::none(&prog);
        let report = McKernel::new(prog, spec, 1).run(130, 300);
        let mut reference = CompiledSim::new(&sys, QueueMode::Finite);
        reference.run(300);
        for b in sys.block_ids() {
            for trial in 0..report.trials {
                assert_eq!(report.block_firings(b, trial), reference.firings(b));
            }
        }
    }

    #[test]
    fn stochastic_rates_stay_below_theta() {
        let (sys, _, _) = figures::fig1();
        let theta = lis_core::practical_mst(&sys).to_f64();
        let prog = CompiledProgram::compile(&sys, QueueMode::Finite);
        let spec = StallSpec::uniform(&prog, 0.1);
        let report = McKernel::new(prog, spec, 99).run(256, 4000);
        assert!(report.max_system_rate() <= theta + 1e-9);
        assert!(report.min_system_rate() > 0.0, "system must not deadlock");
        assert!(report.mean_system_rate() < theta, "stalls must cost rate");
    }

    #[test]
    fn stall_sweep_is_deterministic_and_monotone_at_the_ends() {
        let (sys, _, _) = figures::fig1();
        let theta = lis_core::practical_mst(&sys).to_f64();
        let prog = CompiledProgram::compile(&sys, QueueMode::Finite);
        let probs = [0.0, 0.05, 0.3];
        let a = stall_sweep(&prog, &probs, 64, 1500, 42);
        let b = stall_sweep(&prog, &probs, 64, 1500, 42);
        assert_eq!(a.len(), 3);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.mean_system_rate(), rb.mean_system_rate());
            assert!(ra.max_system_rate() <= theta + 1e-9);
        }
        // Zero stalls attain θ; heavy stalls cost strictly more than light.
        assert!((a[0].mean_system_rate() - theta).abs() < 1e-3);
        assert!(a[2].mean_system_rate() < a[1].mean_system_rate());
    }

    #[test]
    fn burst_lanes_match_the_single_trial_reference() {
        let (sys, _, _) = figures::fig1();
        let prog = CompiledProgram::compile(&sys, QueueMode::Finite);
        let spec = StallSpec::uniform(&prog, 0.03);
        let burst = BurstSpec::sources(&prog, 0.15, 0.4);
        let kernel = McKernel::new(prog.clone(), spec.clone(), 11).with_burst(burst.clone());
        let cycles = 400;
        let trace = kernel.run_word_traced(1, cycles); // lanes 64..127
        let nt = prog.transition_count();
        for lane in [0usize, 7, 63] {
            let trial = 64 + lane;
            let reference = single_trial_burst_on(prog.clone(), &spec, &burst, 11, trial, cycles);
            for t in 0..nt {
                let bits: Vec<bool> = (0..cycles)
                    .map(|k| trace[k as usize * nt + t] >> lane & 1 == 1)
                    .collect();
                assert_eq!(
                    bits,
                    reference.transition_fired_trace(t),
                    "lane {lane} transition {t}"
                );
            }
        }
    }

    #[test]
    fn burst_costs_rate_and_respects_theta() {
        let (sys, _, _) = figures::fig1();
        let theta = lis_core::practical_mst(&sys).to_f64();
        let prog = CompiledProgram::compile(&sys, QueueMode::Finite);
        let smooth = McKernel::new(prog.clone(), StallSpec::none(&prog), 3).run(64, 3000);
        let bursty = McKernel::new(prog.clone(), StallSpec::none(&prog), 3)
            .with_burst(BurstSpec::sources(&prog, 0.1, 0.3))
            .run(64, 3000);
        assert!(bursty.max_system_rate() <= theta + 1e-9);
        assert!(
            bursty.mean_system_rate() < smooth.mean_system_rate(),
            "bursts must cost rate: {} vs {}",
            bursty.mean_system_rate(),
            smooth.mean_system_rate()
        );
    }

    #[test]
    fn occupancy_matches_the_scalar_tracker_and_the_cap() {
        let (sys, _, _) = figures::fig1();
        let prog = CompiledProgram::compile(&sys, QueueMode::Finite);
        let spec = StallSpec::uniform(&prog, 0.08);
        let kernel = McKernel::new(prog.clone(), spec.clone(), 21);
        let trials = 130; // 3 words, last one partial
        let cycles = 500;
        let (_, occupancy) = kernel.run_occupancy(trials, cycles);
        assert_eq!(occupancy.len(), sys.channel_count());
        // Packed maxima equal the max over per-trial scalar trackers.
        let mut reference = vec![0u64; sys.channel_count()];
        for trial in 0..trials {
            let sim = single_trial_on(prog.clone(), &spec, 21, trial, cycles);
            for c in sys.channel_ids() {
                reference[c.index()] = reference[c.index()].max(sim.max_queue_occupancy(c));
            }
        }
        assert_eq!(occupancy, reference);
        // And never exceed the pair-invariant cap q (+1 for an initialized
        // producer-side token).
        for c in sys.channel_ids() {
            assert!(occupancy[c.index()] <= sys.queue_capacity(c) + 1);
        }
    }

    #[test]
    #[should_panic(expected = "finite-queue")]
    fn ideal_mode_is_rejected() {
        let (sys, _, _) = figures::fig1();
        let prog = CompiledProgram::compile(&sys, QueueMode::Infinite);
        let spec = StallSpec::none(&prog);
        let _ = McKernel::new(prog, spec, 0);
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn bad_probability_is_rejected() {
        let (sys, _, _) = figures::fig1();
        let prog = CompiledProgram::compile(&sys, QueueMode::Finite);
        let _ = StallSpec::uniform(&prog, 1.5);
    }
}
