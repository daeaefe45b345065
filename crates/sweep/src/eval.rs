//! The warm sweep evaluator.
//!
//! One sweep touches many systems that differ only in queue capacities and
//! relay stations. Rebuilding the doubled marked graph and re-running a
//! cold MCM solve per point throws that structure away. Instead the
//! evaluator builds **one** doubled model per station group, warms an
//! [`IncrementalMcm`] on it, and evaluates every capacity point of the
//! group as a token-override query: capacities map one-to-one onto
//! backedge token counts (`tokens(queue_backedge(c)) == capacity(c)`), so
//! a point solve reuses the group's SCC decomposition, Howard policy
//! vectors, and memo cache. Results are **byte-identical** to the cold
//! path ([`lis_core::explain_with`] on a per-point modified system) — the
//! solvers are exact, so warmth changes only wall-clock time.
//!
//! Each group's points are evaluated in fixed chunks on the calling thread;
//! each chunk runs on its own [`IncrementalMcm::fork`] of the group's warm
//! solver, so the chunk is the memo scope behind the reported
//! `warm_hits`/`warm_misses`. Chunk boundaries are fixed by the plan.

use std::sync::Arc;

use lis_core::{
    analysis_report, classify, ideal_mst_of, AnalysisReport, ChannelId, LisModel, LisSystem,
    TopologyClass, MAX_PER_MILLE,
};
use lis_qs::{solve_with_engine, QsReport};
use lis_sim::{burst_sweep, stall_sweep, CompiledProgram, QueueMode};
use marked_graph::incremental::IncrementalMcm;
use marked_graph::{PlaceId, Ratio};

use crate::plan::{plan, GroupPlan, SweepError, SweepPlan};
use crate::spec::{SweepMode, SweepSpec};

/// Points per evaluation chunk. Each chunk gets one fork of the group's
/// warm solver; the constant is part of the deterministic plan.
pub const CHUNK: usize = 16;

/// What one grid point computed, by [`SweepMode`].
#[derive(Debug, Clone)]
pub enum PointReport {
    /// Full throughput analysis (the `/analyze` body).
    Analyze(AnalysisReport),
    /// Queue sizing (the `/qs` body).
    Qs(QsReport),
}

/// One Monte-Carlo measurement from the optional stall axis.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoint {
    /// Stall probability in per-mille.
    pub per_mille: u32,
    /// Mean sustained system rate across trials.
    pub mean_rate: f64,
    /// Worst trial.
    pub min_rate: f64,
    /// Best trial.
    pub max_rate: f64,
}

/// One Monte-Carlo measurement from the optional burst axis.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstPoint {
    /// ON→OFF probability in per-mille.
    pub off_per_mille: u32,
    /// Mean sustained system rate across trials.
    pub mean_rate: f64,
    /// Worst trial.
    pub min_rate: f64,
    /// Best trial.
    pub max_rate: f64,
    /// Highest queue occupancy observed on any channel in any trial — the
    /// empirical number to hold against the schedule-derived caps.
    pub peak_occupancy: u64,
}

/// One evaluated grid point.
///
/// A row does not carry its own system: every row of a station group
/// shares the group's [`LisSystem`] and keeps only its capacity overrides.
/// Block and channel names and counts do not depend on capacities, so
/// renderers read them from [`SweepRow::group_sys`] and capacities from
/// [`SweepRow::capacity`].
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Global point index (dense, `0..plan.points`).
    pub point: usize,
    /// Station-group index.
    pub group: usize,
    /// Stations added relative to the base system.
    pub inserted: u32,
    /// Per-channel station additions of this point's group.
    pub placements: Vec<(ChannelId, u32)>,
    /// This point's capacity assignment, in axis order: the overrides
    /// that turn [`SweepRow::group_sys`] into the point system.
    pub capacities: Vec<(ChannelId, u64)>,
    /// The station group's system (the base plus this group's stations, at
    /// the base capacities), shared by every row of the group.
    pub group_sys: Arc<LisSystem>,
    /// Total queue capacity of the point system (a Pareto objective).
    pub total_capacity: u64,
    /// The computed report, or the error string the equivalent single-shot
    /// request would have produced.
    pub outcome: Result<PointReport, String>,
    /// Monte-Carlo measurements (empty without a stall axis).
    pub sim: Vec<SimPoint>,
    /// Bursty-source measurements (empty without a burst axis).
    pub burst: Vec<BurstPoint>,
}

impl SweepRow {
    /// Queue capacity of channel `c` at this point: its override, else the
    /// group system's capacity.
    pub fn capacity(&self, c: ChannelId) -> u64 {
        self.capacities
            .iter()
            .find(|&&(ch, _)| ch == c)
            .map_or_else(|| self.group_sys.queue_capacity(c), |&(_, q)| q)
    }

    /// The throughput objective: the practical MST for analyze rows, the
    /// restored target for queue-sizing rows. `None` for error rows.
    pub fn throughput(&self) -> Option<Ratio> {
        match &self.outcome {
            Ok(PointReport::Analyze(r)) => Some(r.practical),
            Ok(PointReport::Qs(r)) => Some(r.target),
            Err(_) => None,
        }
    }

    /// The capacity objective: total queue slots, including any extra
    /// slots a queue-sizing solution spends.
    pub fn capacity_cost(&self) -> u64 {
        match &self.outcome {
            Ok(PointReport::Qs(r)) => self.total_capacity + r.total_extra,
            _ => self.total_capacity,
        }
    }
}

/// Aggregate statistics of one sweep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSummary {
    /// Rows produced (== plan points).
    pub points: usize,
    /// Station groups evaluated.
    pub groups: usize,
    /// Incremental-solver memo hits across all forks.
    pub warm_hits: u64,
    /// Incremental-solver memo misses across all forks.
    pub warm_misses: u64,
}

/// A planned sweep, ready to evaluate.
#[derive(Debug, Clone)]
pub struct Sweep {
    base: LisSystem,
    spec: SweepSpec,
    plan: SweepPlan,
}

/// Per-group evaluation context: everything capacity-independent is
/// computed once here and shared by every point of the group.
struct GroupCtx<'a> {
    group: &'a GroupPlan,
    sys: Arc<LisSystem>,
    /// Only built in analyze mode.
    warm: Option<WarmGroup>,
}

/// The analyze-mode state of one station group.
struct WarmGroup {
    model: LisModel,
    inc: IncrementalMcm,
    /// Topology class and ideal MST ignore queue capacities, so they are
    /// constants of the group, not of the point.
    class: TopologyClass,
    ideal: Ratio,
}

impl Sweep {
    /// Validates and plans a sweep of `base` according to `spec`.
    ///
    /// # Errors
    ///
    /// See [`SweepError`].
    pub fn new(base: LisSystem, spec: SweepSpec) -> Result<Sweep, SweepError> {
        let plan = plan(&base, &spec)?;
        Ok(Sweep { base, spec, plan })
    }

    /// The expanded job plan.
    pub fn plan(&self) -> &SweepPlan {
        &self.plan
    }

    /// The spec this sweep was planned from.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The base system.
    pub fn base(&self) -> &LisSystem {
        &self.base
    }

    /// Total grid points.
    pub fn point_count(&self) -> usize {
        self.plan.points
    }

    /// Evaluates the whole grid, delivering rows **in point order** to
    /// `sink` as chunks complete. Memory stays bounded by one chunk
    /// ([`CHUNK`] points), so arbitrarily large grids can stream without
    /// buffering the full table.
    pub fn run(&self, sink: &mut dyn FnMut(SweepRow)) -> SweepSummary {
        let mut summary = SweepSummary {
            points: 0,
            groups: self.plan.groups.len(),
            warm_hits: 0,
            warm_misses: 0,
        };
        let per_group = self.plan.points_per_group.max(1);
        for group in &self.plan.groups {
            let ctx = self.group_ctx(group);
            for start in (0..per_group).step_by(CHUNK) {
                let end = (start + CHUNK).min(per_group);
                let (rows, hits, misses) = self.eval_chunk(&ctx, start, end);
                summary.warm_hits += hits;
                summary.warm_misses += misses;
                for row in rows {
                    summary.points += 1;
                    sink(row);
                }
            }
        }
        summary
    }

    /// [`Sweep::run`] collecting every row into a table.
    pub fn evaluate(&self) -> (Vec<SweepRow>, SweepSummary) {
        let mut rows = Vec::with_capacity(self.plan.points);
        let summary = self.run(&mut |row| rows.push(row));
        (rows, summary)
    }

    fn group_ctx<'a>(&self, group: &'a GroupPlan) -> GroupCtx<'a> {
        let mut sys = self.base.clone();
        for &(c, n) in &group.placements {
            for _ in 0..n {
                sys.add_relay_station(c);
            }
        }
        let warm = match self.spec.mode {
            SweepMode::Analyze => {
                let model = LisModel::doubled(&sys);
                let inc = IncrementalMcm::with_engine(model.graph(), self.spec.engine);
                Some(WarmGroup {
                    class: classify(&sys),
                    ideal: ideal_mst_of(&model, self.spec.engine),
                    model,
                    inc,
                })
            }
            SweepMode::Qs { .. } => None,
        };
        GroupCtx {
            group,
            sys: Arc::new(sys),
            warm,
        }
    }

    fn eval_chunk(
        &self,
        ctx: &GroupCtx<'_>,
        start: usize,
        end: usize,
    ) -> (Vec<SweepRow>, u64, u64) {
        let mut fork = ctx.warm.as_ref().map(|warm| (warm, warm.inc.fork()));
        let mut rows = Vec::with_capacity(end - start);
        let group_total = ctx.sys.total_queue_capacity();
        // The point system is built only for the paths that compute on it.
        let simulates = self.spec.stalls.is_some() || self.spec.bursts.is_some();
        let needs_sys = matches!(self.spec.mode, SweepMode::Qs { .. }) || simulates;
        for local in start..end {
            let caps = self.plan.capacities_at(local);
            let sys = needs_sys.then(|| point_system(&ctx.sys, &caps));
            let outcome = match self.spec.mode {
                SweepMode::Analyze => {
                    let (warm, inc) = fork.as_mut().expect("analyze mode builds a warm solver");
                    Ok(PointReport::Analyze(warm_analyze(warm, inc, &caps)))
                }
                SweepMode::Qs { exact } => {
                    let sys = sys.as_ref().expect("qs mode builds the point system");
                    qs_point(sys, exact, &self.spec).map(PointReport::Qs)
                }
            };
            let point = ctx.group.first_point + local;
            // One compiled program serves both simulation axes.
            let (sim, burst) = match sys.as_ref().filter(|_| simulates) {
                Some(sys) => {
                    let prog = CompiledProgram::compile(sys, QueueMode::Finite);
                    (self.sim_axis(&prog, point), self.burst_axis(&prog, point))
                }
                None => (Vec::new(), Vec::new()),
            };
            // Axis channels are distinct (the plan rejects duplicates).
            let total_capacity = caps.iter().fold(group_total, |total, &(c, q)| {
                total - ctx.sys.queue_capacity(c) + q
            });
            rows.push(SweepRow {
                point,
                group: ctx.group.group,
                inserted: ctx.group.inserted,
                placements: ctx.group.placements.clone(),
                capacities: caps,
                group_sys: Arc::clone(&ctx.sys),
                total_capacity,
                outcome,
                sim,
                burst,
            });
        }
        let (hits, misses) = fork.as_ref().map_or((0, 0), |(_, inc)| {
            let stats = inc.cache_stats();
            (stats.hits, stats.misses)
        });
        (rows, hits, misses)
    }

    fn sim_axis(&self, prog: &CompiledProgram, point: usize) -> Vec<SimPoint> {
        let Some(stalls) = &self.spec.stalls else {
            return Vec::new();
        };
        let probs: Vec<f64> = stalls
            .per_mille
            .iter()
            .map(|&m| f64::from(m) / f64::from(MAX_PER_MILLE))
            .collect();
        // Each point gets its own seed stream so rows are independent and
        // reproducible regardless of evaluation order.
        let seed = stalls
            .seed
            .wrapping_add((point as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let reports = stall_sweep(prog, &probs, stalls.trials as usize, stalls.cycles, seed);
        stalls
            .per_mille
            .iter()
            .zip(&reports)
            .map(|(&per_mille, r)| SimPoint {
                per_mille,
                mean_rate: r.mean_system_rate(),
                min_rate: r.min_system_rate(),
                max_rate: r.max_system_rate(),
            })
            .collect()
    }

    fn burst_axis(&self, prog: &CompiledProgram, point: usize) -> Vec<BurstPoint> {
        let Some(bursts) = &self.spec.bursts else {
            return Vec::new();
        };
        let offs: Vec<f64> = bursts
            .off_per_mille
            .iter()
            .map(|&m| f64::from(m) / f64::from(MAX_PER_MILLE))
            .collect();
        let p_on = f64::from(bursts.on_per_mille) / f64::from(MAX_PER_MILLE);
        // Same per-point stream derivation as the stall axis, with a
        // different multiplier so a shared base seed still yields
        // independent stall and burst streams.
        let seed = bursts
            .seed
            .wrapping_add((point as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let reports = burst_sweep(
            prog,
            &offs,
            p_on,
            bursts.trials as usize,
            bursts.cycles,
            seed,
        );
        bursts
            .off_per_mille
            .iter()
            .zip(&reports)
            .map(|(&off_per_mille, (r, occupancy))| BurstPoint {
                off_per_mille,
                mean_rate: r.mean_system_rate(),
                min_rate: r.min_system_rate(),
                max_rate: r.max_system_rate(),
                peak_occupancy: occupancy.iter().copied().max().unwrap_or(0),
            })
            .collect()
    }
}

/// [`lis_core::explain_with`] of the point system *without* building it:
/// the point differs from the group base only in queue capacities, and
/// each capacity is exactly the token count of that channel's queue
/// backedge in the doubled graph. Both paths run [`analysis_report`], so
/// the report is byte-identical.
fn warm_analyze(
    warm: &WarmGroup,
    inc: &mut IncrementalMcm,
    caps: &[(ChannelId, u64)],
) -> AnalysisReport {
    let overrides: Vec<(PlaceId, u64)> = caps
        .iter()
        .map(|&(c, q)| {
            let p = warm
                .model
                .queue_backedge(c)
                .expect("every channel has a queue backedge in the doubled model");
            (p, q)
        })
        .collect();
    analysis_report(&warm.model, inc, &overrides, warm.ideal, warm.class)
}

/// `group` with the capacity overrides `caps` applied.
fn point_system(group: &LisSystem, caps: &[(ChannelId, u64)]) -> LisSystem {
    let mut sys = group.clone();
    for &(c, q) in caps {
        sys.set_queue_capacity(c, q)
            .expect("capacities are validated at plan time");
    }
    sys
}

/// The server's `/qs` job on one point system: the same call, so error
/// rows carry the same strings as single-shot responses.
fn qs_point(sys: &LisSystem, exact: bool, spec: &SweepSpec) -> Result<QsReport, String> {
    solve_with_engine(sys, exact, spec.engine).map_err(|e| e.to_string())
}
