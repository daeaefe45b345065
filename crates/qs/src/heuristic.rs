//! The paper's heuristic algorithm for the Token Deficit problem
//! (Section VII-B).
//!
//! Start from the trivially feasible assignment `w(s_i) = max deficit among
//! the cycles of s_i`, then repeatedly sweep the unfixed sets, decrementing
//! each weight while the assignment stays feasible; a set whose decrement
//! breaks feasibility is restored and *fixed*. The sweep repeats until every
//! set is fixed. The paper bounds this at `O(|S|² |V| |C|)`; the
//! implementation below tracks per-cycle slack incrementally, so each
//! decrement attempt costs only the size of the touched set.

use crate::td::{TdInstance, TdSolution};

/// Runs the heuristic on a TD instance.
///
/// The result is always feasible; it is optimal on many practical topologies
/// but not in general (the problem is NP-complete).
///
/// # Examples
///
/// ```
/// use lis_qs::{heuristic_solve, TdInstance};
///
/// // Trimming the two singleton sets leaves one token on the shared set,
/// // which covers both unit-deficit cycles.
/// let td = TdInstance::new(vec![1, 1], vec![vec![0], vec![1], vec![0, 1]]);
/// let sol = heuristic_solve(&td);
/// assert!(td.is_feasible(&sol.weights));
/// assert_eq!(sol.total(), 1);
/// ```
pub fn heuristic_solve(td: &TdInstance) -> TdSolution {
    let n_sets = td.set_count();
    let n_cycles = td.cycle_count();

    // Initial assignment: per-set maximum deficit. Feasible by construction
    // (every cycle's own set already covers it in full).
    let mut weights: Vec<u64> = (0..n_sets)
        .map(|i| td.set(i).iter().map(|&c| td.deficit(c)).max().unwrap_or(0))
        .collect();

    // slack[c] = coverage(c) - deficit(c), maintained incrementally.
    let mut slack: Vec<i64> = Vec::with_capacity(n_cycles);
    for c in 0..n_cycles {
        let cov: u64 = td.covering_sets(c).iter().map(|&s| weights[s]).sum();
        let s = cov as i64 - td.deficit(c) as i64;
        debug_assert!(s >= 0, "initial assignment must be feasible");
        slack.push(s);
    }

    let mut fixed = vec![false; n_sets];
    loop {
        let mut any_unfixed = false;
        for i in 0..n_sets {
            if fixed[i] {
                continue;
            }
            if weights[i] == 0 {
                fixed[i] = true;
                continue;
            }
            // Decrement is feasible iff every covered cycle keeps slack >= 0.
            if td.set(i).iter().all(|&c| slack[c] >= 1) {
                weights[i] -= 1;
                for &c in td.set(i) {
                    slack[c] -= 1;
                }
                any_unfixed = true; // may be decrementable again next sweep
            } else {
                fixed[i] = true;
            }
        }
        if !any_unfixed {
            break;
        }
    }

    debug_assert!(td.is_feasible(&weights));
    TdSolution { weights }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_instance() {
        let td = TdInstance::new(vec![], vec![]);
        let sol = heuristic_solve(&td);
        assert_eq!(sol.total(), 0);
    }

    #[test]
    fn single_cycle_single_set() {
        let td = TdInstance::new(vec![3], vec![vec![0]]);
        let sol = heuristic_solve(&td);
        assert_eq!(sol.weights, vec![3]);
    }

    #[test]
    fn sweep_order_decides_which_local_optimum() {
        // Singleton sets first: the shared set survives, total 1 (optimal).
        let td = TdInstance::new(vec![1, 1], vec![vec![0], vec![1], vec![0, 1]]);
        let sol = heuristic_solve(&td);
        assert!(td.is_feasible(&sol.weights));
        assert_eq!(sol.weights, vec![0, 0, 1]);
        // Shared set first: it gets trimmed, the singletons become load-
        // bearing, total 2. Greedy is feasible but order-dependent — the
        // suboptimality the paper quantifies in Table IV.
        let td2 = TdInstance::new(vec![1, 1], vec![vec![0, 1], vec![0], vec![1]]);
        let sol2 = heuristic_solve(&td2);
        assert!(td2.is_feasible(&sol2.weights));
        assert_eq!(sol2.weights, vec![0, 1, 1]);
    }

    #[test]
    fn respects_larger_deficits() {
        let td = TdInstance::new(vec![2, 3], vec![vec![0, 1], vec![1]]);
        let sol = heuristic_solve(&td);
        assert!(td.is_feasible(&sol.weights));
        // Optimal: 3 on set 0. The heuristic starts at (3, 3) and trims.
        assert_eq!(sol.total(), 3);
    }

    #[test]
    fn heuristic_can_be_suboptimal_but_feasible() {
        // A case engineered so greedy sweep order can matter; whatever it
        // returns must be feasible and no worse than the initial assignment.
        let td = TdInstance::new(
            vec![1, 1, 1, 1],
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]],
        );
        let sol = heuristic_solve(&td);
        assert!(td.is_feasible(&sol.weights));
        assert!(sol.total() <= 4);
        assert!(sol.total() >= 2); // 4 cycles, each set covers 2
    }

    #[test]
    fn zero_deficit_cycles_cost_nothing() {
        let td = TdInstance::new(vec![0, 0], vec![vec![0, 1]]);
        let sol = heuristic_solve(&td);
        assert_eq!(sol.total(), 0);
    }

    #[test]
    fn set_with_no_cycles_gets_zero() {
        let td = TdInstance::new(vec![1], vec![vec![0], vec![]]);
        let sol = heuristic_solve(&td);
        assert_eq!(sol.weights[1], 0);
        assert!(td.is_feasible(&sol.weights));
    }
}
