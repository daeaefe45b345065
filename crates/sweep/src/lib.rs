//! Design-space exploration for latency-insensitive systems.
//!
//! A **sweep** evaluates one base netlist across a deterministic grid of
//! design parameters — queue capacities per channel, relay-station
//! configurations (explicit or a greedy-frontier budget), and optionally a
//! stochastic stall axis on the packed Monte-Carlo kernel — and reduces
//! the result table to a Pareto front over *throughput*, *total queue
//! capacity*, and *stations inserted*. This is the batch counterpart of
//! the single-shot `explain`/queue-sizing entry points: instead of N
//! independent cold solves, each station group shares one doubled marked
//! graph and one warm [`marked_graph::incremental::IncrementalMcm`], so a grid point
//! costs a token-override query rather than a model rebuild, while
//! producing **byte-identical** per-point reports.
//!
//! The pipeline: [`SweepSpec`] (pure data, hashable — see
//! [`SweepSpec::token`]) → [`plan::plan`] (validation + deterministic
//! point enumeration) → [`Sweep::run`] (warm chunked evaluation,
//! streaming rows in point order) → [`pareto_front`].
//!
//! # Examples
//!
//! ```
//! use lis_core::figures;
//! use lis_sweep::{pareto_front, CapacityAxis, Sweep, SweepSpec};
//!
//! let (sys, _, lower) = figures::fig1();
//! let mut spec = SweepSpec::analyze();
//! spec.capacities.push(CapacityAxis {
//!     channel: lower.index(),
//!     values: vec![1, 2, 3],
//! });
//! let sweep = Sweep::new(sys, spec).unwrap();
//! let (rows, summary) = sweep.evaluate();
//! assert_eq!(summary.points, 3);
//! // Capacity 2 restores full throughput (the Fig. 6 fix); capacity 3
//! // buys nothing more, so the front is {capacity 1, capacity 2}.
//! assert_eq!(pareto_front(&rows), vec![0, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod pareto;
pub mod plan;
pub mod spec;

pub use eval::{BurstPoint, PointReport, SimPoint, Sweep, SweepRow, SweepSummary, CHUNK};
pub use pareto::{objectives, pareto_front, pareto_front_objectives};
pub use plan::{GroupPlan, SweepError, SweepPlan, MAX_CAPACITY, MAX_POINTS, MAX_STATIONS};
pub use spec::{BurstAxis, CapacityAxis, StallAxis, StationGoal, SweepMode, SweepSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::{explain_with, figures, to_netlist};
    use lis_qs::{solve, Algorithm, QsConfig};
    use lis_sim::{stall_sweep, CompiledProgram, QueueMode};
    use marked_graph::McmEngine;

    /// Applies a row's placements and capacities to the base from scratch —
    /// the cold path a single-shot request would take.
    fn cold_system(base: &lis_core::LisSystem, row: &SweepRow) -> lis_core::LisSystem {
        let mut sys = base.clone();
        for &(c, n) in &row.placements {
            for _ in 0..n {
                sys.add_relay_station(c);
            }
        }
        for &(c, q) in &row.capacities {
            sys.set_queue_capacity(c, q).unwrap();
        }
        sys
    }

    fn rich_spec() -> (lis_core::LisSystem, SweepSpec) {
        let (sys, chs) = figures::fig15();
        let mut spec = SweepSpec::analyze();
        spec.capacities = vec![
            CapacityAxis {
                channel: chs[2].index(),
                values: vec![1, 2, 4],
            },
            CapacityAxis {
                channel: chs[5].index(),
                values: vec![1, 3],
            },
        ];
        spec.stations = StationGoal::Budget(2);
        (sys, spec)
    }

    fn assert_rows_match_cold_path(base: &lis_core::LisSystem, spec: SweepSpec) -> usize {
        let sweep = Sweep::new(base.clone(), spec).unwrap();
        let (rows, summary) = sweep.evaluate();
        assert_eq!(summary.points, sweep.point_count());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.point, i, "rows arrive in dense point order");
            let cold = cold_system(base, row);
            // The shared group system carries the stations; the row's
            // capacities complete the point system.
            let mut shared = (*row.group_sys).clone();
            for &(c, q) in &row.capacities {
                shared.set_queue_capacity(c, q).unwrap();
            }
            assert_eq!(to_netlist(&cold), to_netlist(&shared));
            assert_eq!(row.total_capacity, cold.total_queue_capacity());
            for c in cold.channel_ids() {
                assert_eq!(row.capacity(c), cold.queue_capacity(c), "point {i}");
            }
            let expected = explain_with(&cold, McmEngine::default());
            let PointReport::Analyze(got) = row.outcome.as_ref().unwrap() else {
                panic!("analyze mode row");
            };
            // AnalysisReport has no PartialEq; Debug shows every field.
            assert_eq!(format!("{got:?}"), format!("{expected:?}"), "point {i}");
        }
        sweep.plan().groups.len()
    }

    #[test]
    fn warm_rows_equal_the_cold_explain_path_exactly() {
        let (base, spec) = rich_spec();
        assert_rows_match_cold_path(&base, spec);

        // Fig. 1 with a station budget: the greedy frontier yields two
        // groups (bare system + one station), exercising multi-group
        // identity as well.
        let (fig1, _, lower) = figures::fig1();
        let mut spec = SweepSpec::analyze();
        spec.capacities = vec![CapacityAxis {
            channel: lower.index(),
            values: vec![1, 2, 3],
        }];
        spec.stations = StationGoal::Budget(2);
        let groups = assert_rows_match_cold_path(&fig1, spec);
        assert_eq!(groups, 2);
    }

    #[test]
    fn warm_evaluation_actually_hits_the_memo() {
        let (base, spec) = rich_spec();
        let sweep = Sweep::new(base, spec).unwrap();
        let (_, summary) = sweep.evaluate();
        assert!(
            summary.warm_hits > 0,
            "a multi-axis grid must reuse warm component solves: {summary:?}"
        );
    }

    #[test]
    fn qs_rows_match_the_cold_solver() {
        let (base, _, lower) = figures::fig1();
        let mut spec = SweepSpec::analyze();
        spec.mode = SweepMode::Qs { exact: true };
        spec.capacities = vec![CapacityAxis {
            channel: lower.index(),
            values: vec![1, 2],
        }];
        let sweep = Sweep::new(base.clone(), spec).unwrap();
        let (rows, _) = sweep.evaluate();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let cold = cold_system(&base, row);
            let expected = solve(&cold, Algorithm::Exact, &QsConfig::default()).unwrap();
            let PointReport::Qs(got) = row.outcome.as_ref().unwrap() else {
                panic!("qs mode row");
            };
            assert_eq!(got, &expected);
        }
        // Capacity 1 is degraded and needs one extra slot; capacity 2
        // already meets the target.
        let PointReport::Qs(r0) = rows[0].outcome.as_ref().unwrap() else {
            unreachable!()
        };
        let PointReport::Qs(r1) = rows[1].outcome.as_ref().unwrap() else {
            unreachable!()
        };
        assert_eq!(r0.total_extra, 1);
        assert_eq!(r1.total_extra, 0);
        assert_eq!(rows[0].capacity_cost(), rows[1].capacity_cost());
    }

    #[test]
    fn stall_axis_rows_match_a_direct_kernel_run() {
        let (base, _, lower) = figures::fig1();
        let mut spec = SweepSpec::analyze();
        spec.capacities = vec![CapacityAxis {
            channel: lower.index(),
            values: vec![1, 2],
        }];
        spec.stalls = Some(StallAxis {
            per_mille: vec![0, 200],
            trials: 64,
            cycles: 500,
            seed: 7,
        });
        let sweep = Sweep::new(base.clone(), spec.clone()).unwrap();
        let (rows, _) = sweep.evaluate();
        for row in &rows {
            assert_eq!(row.sim.len(), 2);
            let prog = CompiledProgram::compile(&cold_system(&base, row), QueueMode::Finite);
            let seed = 7u64.wrapping_add((row.point as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            let reports = stall_sweep(&prog, &[0.0, 0.2], 64, 500, seed);
            for (got, want) in row.sim.iter().zip(&reports) {
                assert_eq!(got.mean_rate, want.mean_system_rate());
                assert_eq!(got.min_rate, want.min_system_rate());
                assert_eq!(got.max_rate, want.max_system_rate());
            }
        }
    }

    #[test]
    fn burst_axis_rows_match_a_direct_kernel_run() {
        let (base, _, lower) = figures::fig1();
        let mut spec = SweepSpec::analyze();
        spec.capacities = vec![CapacityAxis {
            channel: lower.index(),
            values: vec![1, 2],
        }];
        spec.bursts = Some(BurstAxis {
            off_per_mille: vec![0, 150],
            on_per_mille: 300,
            trials: 64,
            cycles: 500,
            seed: 7,
        });
        let sweep = Sweep::new(base.clone(), spec).unwrap();
        let (rows, _) = sweep.evaluate();
        for row in &rows {
            assert_eq!(row.burst.len(), 2);
            let prog = CompiledProgram::compile(&cold_system(&base, row), QueueMode::Finite);
            let seed = 7u64.wrapping_add((row.point as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let reports = lis_sim::burst_sweep(&prog, &[0.0, 0.15], 0.3, 64, 500, seed);
            for (got, (want, occ)) in row.burst.iter().zip(&reports) {
                assert_eq!(got.mean_rate, want.mean_system_rate());
                assert_eq!(got.min_rate, want.min_system_rate());
                assert_eq!(got.max_rate, want.max_system_rate());
                assert_eq!(got.peak_occupancy, occ.iter().copied().max().unwrap_or(0));
            }
            // The un-bursty point keeps full throughput; bursts cost rate.
            assert!(row.burst[0].mean_rate >= row.burst[1].mean_rate);
        }
    }
}
