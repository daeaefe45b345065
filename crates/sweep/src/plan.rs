//! Deterministic expansion of a [`SweepSpec`] into a job plan.
//!
//! The plan fixes, up front, the exact set of grid points and their order:
//! groups (relay-station configurations) in specification order, and within
//! each group the cartesian product of the capacity axes with the **last
//! axis varying fastest** (odometer order). Point numbering is global and
//! dense, so a plan of `P` points always yields rows `0..P` in that order.

use lis_core::{ChannelId, LisSystem, MAX_CYCLES, MAX_PER_MILLE, MAX_TRIALS};
use lis_rsopt::greedy_frontier;

use crate::spec::{StationGoal, SweepSpec};

/// Hard ceiling on grid points per sweep, so one request cannot pin a
/// worker forever. Validation rejects larger grids up front.
pub const MAX_POINTS: usize = 65_536;

/// Ceiling on per-channel station additions and on the total greedy
/// budget: the request limit `/insert`'s budget shares.
pub use lis_core::MAX_STATIONS;

/// Ceiling on any swept queue capacity: the netlist's own bound, so every
/// grid point is a design a netlist could declare.
pub use lis_core::MAX_CAPACITY;

/// Why a spec cannot be planned against a given base system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// An axis or configuration names a channel the netlist does not have.
    UnknownChannel(usize),
    /// Two capacity axes name the same channel.
    DuplicateAxis(usize),
    /// An axis has no values.
    EmptyAxis(usize),
    /// A capacity value is zero or above [`MAX_CAPACITY`].
    BadCapacity(u64),
    /// A station budget or per-channel count exceeds [`MAX_STATIONS`].
    TooManyStations(u32),
    /// No station configurations were given.
    NoConfigs,
    /// The grid would exceed [`MAX_POINTS`].
    TooManyPoints(usize),
    /// The stall axis is malformed (empty, p > 1000, zero trials/cycles,
    /// or an oversized workload).
    BadStallAxis(String),
    /// The burst axis is malformed (same rules as the stall axis, plus the
    /// OFF→ON probability must be in 1..=1000).
    BadBurstAxis(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownChannel(c) => write!(f, "unknown channel index {c}"),
            SweepError::DuplicateAxis(c) => {
                write!(f, "channel {c} appears in more than one capacity axis")
            }
            SweepError::EmptyAxis(c) => write!(f, "capacity axis for channel {c} has no values"),
            SweepError::BadCapacity(v) => {
                write!(f, "queue capacity {v} out of range 1..={MAX_CAPACITY}")
            }
            SweepError::TooManyStations(n) => {
                write!(f, "station count {n} exceeds the cap of {MAX_STATIONS}")
            }
            SweepError::NoConfigs => write!(f, "station configuration list is empty"),
            SweepError::TooManyPoints(n) => {
                write!(f, "grid has {n} points, more than the cap of {MAX_POINTS}")
            }
            SweepError::BadStallAxis(msg) => write!(f, "bad stall axis: {msg}"),
            SweepError::BadBurstAxis(msg) => write!(f, "bad burst axis: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// One relay-station configuration with its slice of the point space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    /// Group index (specification order).
    pub group: usize,
    /// Stations added per channel, relative to the base system.
    pub placements: Vec<(ChannelId, u32)>,
    /// Total stations added.
    pub inserted: u32,
    /// Global index of this group's first point.
    pub first_point: usize,
}

/// The expanded, validated job plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPlan {
    /// Station groups in order.
    pub groups: Vec<GroupPlan>,
    /// Validated capacity axes as `(channel, values)`.
    pub axes: Vec<(ChannelId, Vec<u64>)>,
    /// Points per group (product of axis lengths; 1 when no axes).
    pub points_per_group: usize,
    /// Total grid points.
    pub points: usize,
}

impl SweepPlan {
    /// The capacity assignment of point `local` within its group, in axis
    /// order (odometer: last axis fastest).
    pub fn capacities_at(&self, local: usize) -> Vec<(ChannelId, u64)> {
        debug_assert!(local < self.points_per_group.max(1));
        let mut rem = local;
        let mut out = Vec::with_capacity(self.axes.len());
        // Walk axes right-to-left so the last axis is the fastest digit,
        // then restore axis order.
        for (c, values) in self.axes.iter().rev() {
            let i = rem % values.len();
            rem /= values.len();
            out.push((*c, values[i]));
        }
        out.reverse();
        out
    }
}

/// Validates `spec` against `base` and expands the deterministic plan.
///
/// # Errors
///
/// See [`SweepError`].
pub fn plan(base: &LisSystem, spec: &SweepSpec) -> Result<SweepPlan, SweepError> {
    let n_channels = base.channel_count();
    let channel = |idx: usize| -> Result<ChannelId, SweepError> {
        if idx < n_channels {
            Ok(ChannelId::new(idx))
        } else {
            Err(SweepError::UnknownChannel(idx))
        }
    };

    let mut axes = Vec::with_capacity(spec.capacities.len());
    let mut seen = std::collections::HashSet::new();
    for axis in &spec.capacities {
        let c = channel(axis.channel)?;
        if !seen.insert(axis.channel) {
            return Err(SweepError::DuplicateAxis(axis.channel));
        }
        if axis.values.is_empty() {
            return Err(SweepError::EmptyAxis(axis.channel));
        }
        for &v in &axis.values {
            if v == 0 || v > MAX_CAPACITY {
                return Err(SweepError::BadCapacity(v));
            }
        }
        axes.push((c, axis.values.clone()));
    }
    let points_per_group = axes
        .iter()
        .map(|(_, v)| v.len())
        .try_fold(1usize, |acc, n| {
            acc.checked_mul(n).filter(|&p| p <= MAX_POINTS)
        })
        .ok_or(SweepError::TooManyPoints(usize::MAX))?;

    let configs: Vec<Vec<(ChannelId, u32)>> = match &spec.stations {
        StationGoal::Base => vec![Vec::new()],
        StationGoal::Budget(b) => {
            if *b > MAX_STATIONS {
                return Err(SweepError::TooManyStations(*b));
            }
            greedy_frontier(base, *b)
                .into_iter()
                .map(|r| r.placements)
                .collect()
        }
        StationGoal::Configs(configs) => {
            if configs.is_empty() {
                return Err(SweepError::NoConfigs);
            }
            let mut out = Vec::with_capacity(configs.len());
            for cfg in configs {
                let mut placements = Vec::with_capacity(cfg.len());
                for &(idx, n) in cfg {
                    if n > MAX_STATIONS {
                        return Err(SweepError::TooManyStations(n));
                    }
                    placements.push((channel(idx)?, n));
                }
                out.push(placements);
            }
            out
        }
    };

    if let Some(stalls) = &spec.stalls {
        check_points(&stalls.per_mille, stalls.trials, stalls.cycles)
            .map_err(SweepError::BadStallAxis)?;
    }
    if let Some(bursts) = &spec.bursts {
        check_points(&bursts.off_per_mille, bursts.trials, bursts.cycles)
            .map_err(SweepError::BadBurstAxis)?;
        if !(1..=MAX_PER_MILLE).contains(&bursts.on_per_mille) {
            return Err(SweepError::BadBurstAxis(format!(
                "OFF→ON probability must be in 1..={MAX_PER_MILLE} per-mille"
            )));
        }
    }

    let points = points_per_group
        .checked_mul(configs.len())
        .filter(|&p| p <= MAX_POINTS)
        .ok_or_else(|| SweepError::TooManyPoints(points_per_group.saturating_mul(configs.len())))?;

    let groups = configs
        .into_iter()
        .enumerate()
        .map(|(group, placements)| GroupPlan {
            group,
            inserted: placements.iter().map(|&(_, n)| n).sum(),
            placements,
            first_point: group * points_per_group,
        })
        .collect();

    Ok(SweepPlan {
        groups,
        axes,
        points_per_group,
        points,
    })
}

/// Checks one Monte-Carlo axis: some probabilities, none above
/// [`MAX_PER_MILLE`], and 1..=[`MAX_TRIALS`] trials of 1..=[`MAX_CYCLES`]
/// cycles per point.
fn check_points(per_mille: &[u32], trials: u32, cycles: u64) -> Result<(), String> {
    match per_mille.iter().find(|&&p| p > MAX_PER_MILLE) {
        _ if per_mille.is_empty() => Err("no probabilities".into()),
        Some(p) => Err(format!("probability {p}‰ exceeds {MAX_PER_MILLE}‰")),
        None if !(1..=MAX_TRIALS).contains(&trials) || !(1..=MAX_CYCLES).contains(&cycles) => Err(
            format!("each point takes 1..={MAX_TRIALS} trials of 1..={MAX_CYCLES} cycles"),
        ),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CapacityAxis, StallAxis, SweepMode};
    use lis_core::figures;

    fn axis(channel: usize, values: &[u64]) -> CapacityAxis {
        CapacityAxis {
            channel,
            values: values.to_vec(),
        }
    }

    #[test]
    fn odometer_orders_points_last_axis_fastest() {
        let (sys, _, _) = figures::fig1();
        let mut spec = SweepSpec::analyze();
        spec.capacities = vec![axis(0, &[1, 2]), axis(1, &[1, 2, 3])];
        let p = plan(&sys, &spec).unwrap();
        assert_eq!(p.points, 6);
        assert_eq!(p.points_per_group, 6);
        assert_eq!(p.groups.len(), 1);
        let caps: Vec<Vec<u64>> = (0..6)
            .map(|i| p.capacities_at(i).iter().map(|&(_, v)| v).collect())
            .collect();
        assert_eq!(
            caps,
            vec![
                vec![1, 1],
                vec![1, 2],
                vec![1, 3],
                vec![2, 1],
                vec![2, 2],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn budget_goal_expands_the_greedy_frontier() {
        let (sys, _, lower) = figures::fig1();
        let mut spec = SweepSpec::analyze();
        spec.stations = StationGoal::Budget(3);
        spec.capacities = vec![axis(1, &[1, 2])];
        let p = plan(&sys, &spec).unwrap();
        // Fig. 1: the frontier is [0 stations, 1 station] (nothing helps
        // after the first), so 2 groups × 2 capacities = 4 points.
        assert_eq!(p.groups.len(), 2);
        assert_eq!(p.points, 4);
        assert!(p.groups[0].placements.is_empty());
        assert_eq!(p.groups[1].placements, vec![(lower, 1)]);
        assert_eq!(p.groups[1].first_point, 2);
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        let (sys, _, _) = figures::fig1();
        let mut spec = SweepSpec::analyze();
        spec.capacities = vec![axis(9, &[1])];
        assert_eq!(
            plan(&sys, &spec).unwrap_err(),
            SweepError::UnknownChannel(9)
        );

        spec.capacities = vec![axis(0, &[1]), axis(0, &[2])];
        assert_eq!(plan(&sys, &spec).unwrap_err(), SweepError::DuplicateAxis(0));

        spec.capacities = vec![axis(0, &[])];
        assert_eq!(plan(&sys, &spec).unwrap_err(), SweepError::EmptyAxis(0));

        spec.capacities = vec![axis(0, &[0])];
        assert_eq!(plan(&sys, &spec).unwrap_err(), SweepError::BadCapacity(0));

        spec.capacities = vec![axis(0, &(1..=600u64).collect::<Vec<_>>()), {
            axis(1, &(1..=600u64).collect::<Vec<_>>())
        }];
        assert!(matches!(
            plan(&sys, &spec).unwrap_err(),
            SweepError::TooManyPoints(_)
        ));

        spec.capacities = Vec::new();
        spec.stations = StationGoal::Budget(99);
        assert_eq!(
            plan(&sys, &spec).unwrap_err(),
            SweepError::TooManyStations(99)
        );

        spec.stations = StationGoal::Configs(Vec::new());
        assert_eq!(plan(&sys, &spec).unwrap_err(), SweepError::NoConfigs);

        spec.stations = StationGoal::Base;
        spec.stalls = Some(StallAxis {
            per_mille: vec![1500],
            trials: 64,
            cycles: 100,
            seed: 0,
        });
        assert!(matches!(
            plan(&sys, &spec).unwrap_err(),
            SweepError::BadStallAxis(_)
        ));
        assert_eq!(spec.mode, SweepMode::Analyze);
    }

    #[test]
    fn empty_axes_give_one_point_per_group() {
        let (sys, _, _) = figures::fig1();
        let spec = SweepSpec::analyze();
        let p = plan(&sys, &spec).unwrap();
        assert_eq!(p.points, 1);
        assert!(p.capacities_at(0).is_empty());
    }
}
