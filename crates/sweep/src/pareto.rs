//! Pareto reduction of a sweep table.
//!
//! Three objectives: **maximize** throughput (exact rational comparison),
//! **minimize** total queue capacity (including extra slots spent by a
//! queue-sizing solution), **minimize** relay stations inserted. Error
//! rows carry no throughput and are never on the front; rows with equal
//! objective vectors are all kept (neither dominates the other).

use crate::eval::SweepRow;

/// The objective vector of one row — `(throughput, total capacity,
/// stations inserted)` — or `None` for error rows. Streaming consumers can
/// collect these per row and reduce with [`pareto_front_objectives`]
/// without buffering whole rows.
pub fn objectives(row: &SweepRow) -> Option<(marked_graph::Ratio, u64, u32)> {
    row.throughput()
        .map(|thr| (thr, row.capacity_cost(), row.inserted))
}

/// Whether objective vector `a` dominates `b`: at least as good on every
/// axis, strictly better on one.
fn dominates(a: (marked_graph::Ratio, u64, u32), b: (marked_graph::Ratio, u64, u32)) -> bool {
    a.0 >= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 > b.0 || a.1 < b.1 || a.2 < b.2)
}

/// Indices (into `rows`) of the Pareto-optimal rows, in point order.
///
/// Quadratic in the table size — sweeps are capped at
/// [`crate::plan::MAX_POINTS`] points and the comparison is three scalar
/// compares, so the reduction is never the bottleneck next to the solves
/// that produced the table.
pub fn pareto_front(rows: &[SweepRow]) -> Vec<usize> {
    let objs: Vec<Option<(marked_graph::Ratio, u64, u32)>> = rows.iter().map(objectives).collect();
    pareto_front_objectives(&objs)
}

/// [`pareto_front`] over pre-extracted objective vectors (index `i` is the
/// point number; `None` marks an error row, never on the front).
pub fn pareto_front_objectives(objs: &[Option<(marked_graph::Ratio, u64, u32)>]) -> Vec<usize> {
    (0..objs.len())
        .filter(|&i| {
            let Some(oi) = objs[i] else {
                return false;
            };
            !objs.iter().any(|oj| oj.is_some_and(|oj| dominates(oj, oi)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{PointReport, SweepRow};
    use lis_core::{explain, figures, LisSystem};
    use marked_graph::Ratio;

    fn row(point: usize, sys: &LisSystem, inserted: u32, practical: Ratio) -> SweepRow {
        let mut report = explain(sys);
        report.practical = practical;
        SweepRow {
            point,
            group: 0,
            inserted,
            placements: Vec::new(),
            capacities: Vec::new(),
            total_capacity: point as u64 + 1,
            group_sys: std::sync::Arc::new(sys.clone()),
            outcome: Ok(PointReport::Analyze(report)),
            sim: Vec::new(),
            burst: Vec::new(),
        }
    }

    #[test]
    fn dominated_and_error_rows_are_dropped_ties_are_kept() {
        let (sys, _, _) = figures::fig1();
        let mut rows = vec![
            // capacity 1, throughput 2/3 — kept (cheapest).
            row(0, &sys, 0, Ratio::new(2, 3)),
            // capacity 2, throughput 2/3 — dominated by row 0.
            row(1, &sys, 0, Ratio::new(2, 3)),
            // capacity 3, throughput 1 — kept (fastest).
            row(2, &sys, 0, Ratio::ONE),
            // capacity 4, throughput 1 but one station — dominated.
            row(3, &sys, 1, Ratio::ONE),
        ];
        assert_eq!(pareto_front(&rows), vec![0, 2]);

        // An exact tie with row 0 on every axis: both survive.
        let mut tie = row(4, &sys, 0, Ratio::new(2, 3));
        tie.total_capacity = 1;
        rows.push(tie);
        assert_eq!(pareto_front(&rows), vec![0, 2, 4]);

        // Error rows never reach the front.
        rows[0].outcome = Err("boom".into());
        assert_eq!(pareto_front(&rows), vec![2, 4]);
    }
}
