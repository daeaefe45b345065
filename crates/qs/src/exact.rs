//! The paper's exact algorithm for the Token Deficit problem
//! (Section VII-B).
//!
//! The instance is first conceptually expanded so that every weight is 0/1
//! (a set with maximum deficit `D` behaves like `D` unit copies); the solver
//! then binary-searches the budget `K` between an admissible lower bound and
//! the heuristic solution, answering each probe with a depth-`K` search tree
//! that places one token at a time on a set of the first uncovered cycle.
//! Tokens destined for the same cycle are placed in non-decreasing set order
//! to kill permutation symmetry. A wall-clock budget aborts long probes —
//! the paper did the same ("the exact program was halted after running for
//! more than an hour").
//!
//! A further sound acceleration (see [`ExactOptions`]): refuted search
//! states are memoized and reused *across* the binary search's probes (the
//! probes revisit the same residual states with different budgets).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::heuristic::heuristic_solve;
use crate::td::{TdInstance, TdSolution};

/// Cap on memoized refuted states, bounding the table's memory.
const MEMO_CAP: usize = 1 << 20;

/// Tuning knobs of the exact solver, exposed for the ablation experiments.
///
/// All optimizations are sound (they never change the optimum); disabling
/// them only inflates the search tree, which the `ablation` binary
/// quantifies.
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Wall-clock budget (`None` = run to completion).
    pub budget: Option<Duration>,
    /// Prune nodes where the disjoint-cycle admissible bound exceeds the
    /// remaining token budget.
    pub disjoint_bound: bool,
    /// Place consecutive tokens for the same cycle in non-decreasing set
    /// order (kills permutation symmetry).
    pub symmetry_breaking: bool,
    /// Memoize refuted search states — `(residual vector, symmetry floor)`
    /// mapped to the largest budget proven insufficient — and reuse them
    /// within a probe and across the binary search's probes. Subtrees whose
    /// outcome is already known are skipped; subtrees that timed out are
    /// never recorded.
    pub memo: bool,
}

impl Default for ExactOptions {
    fn default() -> ExactOptions {
        ExactOptions {
            budget: None,
            disjoint_bound: true,
            symmetry_breaking: true,
            memo: true,
        }
    }
}

/// Outcome of the exact solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactOutcome {
    /// The best solution found. Feasible in all cases.
    pub solution: TdSolution,
    /// Whether `solution` is proven optimal (false if the time budget ran
    /// out before the search completed).
    pub optimal: bool,
    /// Search-tree nodes explored, for reporting.
    pub nodes: u64,
}

/// Solves a TD instance exactly, or as well as the time budget allows.
///
/// With `budget = None` the search runs to completion (exponential worst
/// case — the problem is NP-complete).
///
/// # Examples
///
/// ```
/// use lis_qs::{exact_solve, TdInstance};
///
/// let td = TdInstance::new(vec![1, 1], vec![vec![0, 1], vec![0], vec![1]]);
/// let out = exact_solve(&td, None);
/// assert!(out.optimal);
/// assert_eq!(out.solution.total(), 1);
/// ```
pub fn exact_solve(td: &TdInstance, budget: Option<Duration>) -> ExactOutcome {
    exact_solve_with(
        td,
        &ExactOptions {
            budget,
            ..ExactOptions::default()
        },
    )
}

/// [`exact_solve`] with explicit [`ExactOptions`] (used by the ablation
/// experiments to switch individual optimizations off).
pub fn exact_solve_with(td: &TdInstance, options: &ExactOptions) -> ExactOutcome {
    let budget = options.budget;
    let heuristic = heuristic_solve(td);
    let upper = heuristic.total();
    let lower = td.disjoint_cycles_bound();
    let deadline = budget.map(|b| Instant::now() + b);

    if upper == 0 {
        return ExactOutcome {
            solution: heuristic,
            optimal: true,
            nodes: 0,
        };
    }

    let mut search = Search {
        td,
        deadline,
        nodes: 0,
        timed_out: false,
        weights: vec![0; td.set_count()],
        residual: (0..td.cycle_count()).map(|c| td.deficit(c)).collect(),
        found: None,
        disjoint_bound: options.disjoint_bound,
        symmetry_breaking: options.symmetry_breaking,
        memo: options.memo.then(HashMap::new),
    };

    // Binary search on K: feasible(K) is monotone. Invariants:
    // lo - 1 < optimum <= hi, with `best` holding a solution of size <= hi.
    let mut best = heuristic.clone();
    let mut proven = true;
    let (mut lo, mut hi) = (lower.max(1), upper);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match search.probe(mid) {
            Probe::Feasible(sol) => {
                debug_assert!(sol.total() <= mid);
                hi = sol.total();
                best = sol;
            }
            Probe::Infeasible => {
                lo = mid + 1;
            }
            Probe::TimedOut => {
                proven = false;
                break;
            }
        }
    }

    ExactOutcome {
        solution: best,
        optimal: proven,
        nodes: search.nodes,
    }
}

enum Probe {
    Feasible(TdSolution),
    Infeasible,
    TimedOut,
}

struct Search<'a> {
    td: &'a TdInstance,
    deadline: Option<Instant>,
    nodes: u64,
    timed_out: bool,
    weights: Vec<u64>,
    residual: Vec<u64>,
    found: Option<TdSolution>,
    disjoint_bound: bool,
    symmetry_breaking: bool,
    /// `(residual, min_set)` → largest budget proven insufficient.
    memo: Option<HashMap<(Vec<u64>, usize), u64>>,
}

impl Search<'_> {
    fn probe(&mut self, k: u64) -> Probe {
        self.weights.iter_mut().for_each(|w| *w = 0);
        for c in 0..self.td.cycle_count() {
            self.residual[c] = self.td.deficit(c);
        }
        self.found = None;
        self.timed_out = false;
        self.dfs(k, 0);
        if self.timed_out {
            Probe::TimedOut
        } else if let Some(sol) = self.found.take() {
            Probe::Feasible(sol)
        } else {
            Probe::Infeasible
        }
    }

    /// Places one token at a time; `min_set` enforces non-decreasing set
    /// order while the same cycle stays first-uncovered.
    fn dfs(&mut self, k: u64, min_set: usize) -> bool {
        self.nodes += 1;
        if self.nodes.is_multiple_of(4096) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.timed_out = true;
                    return true; // unwind
                }
            }
        }

        // First uncovered cycle, preferring the original order (stable, so
        // the symmetry-breaking min_set survives across recursion levels).
        let Some(c) = (0..self.residual.len()).find(|&c| self.residual[c] > 0) else {
            self.found = Some(TdSolution {
                weights: self.weights.clone(),
            });
            return true;
        };
        if k == 0 {
            return false;
        }
        // Admissible pruning: remaining disjoint deficits must fit in k.
        if self.disjoint_bound && self.remaining_bound() > k {
            return false;
        }
        // Transposition pruning: this residual state (under this symmetry
        // floor) was already refuted with at least as many tokens. The
        // memo only ever holds *fully explored* refutations, so skipping
        // the subtree cannot hide a solution — and since refuted subtrees
        // contain no solutions, the first solution found in DFS order is
        // unchanged.
        if let Some(memo) = &self.memo {
            if let Some(&refuted_k) = memo.get(&(self.residual.clone(), min_set)) {
                if refuted_k >= k {
                    return false;
                }
            }
        }

        let covering: Vec<usize> = self.td.covering_sets(c).to_vec();
        for &s in covering.iter().filter(|&&s| s >= min_set) {
            self.weights[s] += 1;
            for &cc in self.td.set(s) {
                self.residual[cc] = self.residual[cc].saturating_sub(1);
            }
            // If cycle c still needs tokens, the next token must also serve
            // c: keep the non-decreasing order. Otherwise reset the floor.
            let next_min = if self.symmetry_breaking && self.residual[c] > 0 {
                s
            } else {
                0
            };
            let done = self.dfs(k - 1, next_min);
            self.weights[s] -= 1;
            for &cc in self.td.set(s) {
                // Restore residual, but never above the true deficit.
                let cap = self.td.deficit(cc);
                let cov: u64 = self
                    .td
                    .covering_sets(cc)
                    .iter()
                    .map(|&x| self.weights[x])
                    .sum();
                self.residual[cc] = cap.saturating_sub(cov);
            }
            if done {
                return true;
            }
        }
        // Every branch below this state was explored and refuted (a timeout
        // unwinds through `done == true`, so it cannot reach this point):
        // record the refutation for later probes.
        if let Some(memo) = &mut self.memo {
            if memo.len() < MEMO_CAP {
                let entry = memo.entry((self.residual.clone(), min_set)).or_insert(0);
                *entry = (*entry).max(k);
            }
        }
        false
    }

    /// Disjoint-cycle bound restricted to the still-uncovered residuals.
    fn remaining_bound(&self) -> u64 {
        let mut used = vec![false; self.td.set_count()];
        let mut bound = 0u64;
        for c in 0..self.residual.len() {
            if self.residual[c] == 0 {
                continue;
            }
            if self.td.covering_sets(c).iter().any(|&s| used[s]) {
                continue;
            }
            for &s in self.td.covering_sets(c) {
                used[s] = true;
            }
            bound += self.residual[c];
        }
        bound
    }
}

/// Brute-force optimal solver for cross-validation in tests: tries every
/// weight vector with totals `0..=max_total` (exponential; tiny instances
/// only).
pub fn brute_force_optimum(td: &TdInstance, max_total: u64) -> Option<TdSolution> {
    fn rec(
        td: &TdInstance,
        weights: &mut Vec<u64>,
        i: usize,
        left: u64,
        best: &mut Option<TdSolution>,
    ) {
        if let Some(b) = best {
            let spent: u64 = weights.iter().take(i).sum();
            if spent >= b.total() {
                return;
            }
        }
        if i == weights.len() {
            if td.is_feasible(weights) {
                let total: u64 = weights.iter().sum();
                if best.as_ref().is_none_or(|b| total < b.total()) {
                    *best = Some(TdSolution {
                        weights: weights.clone(),
                    });
                }
            }
            return;
        }
        for w in 0..=left {
            weights[i] = w;
            rec(td, weights, i + 1, left - w, best);
        }
        weights[i] = 0;
    }
    let mut best = None;
    let mut weights = vec![0u64; td.set_count()];
    rec(td, &mut weights, 0, max_total, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_cases() {
        let empty = TdInstance::new(vec![], vec![]);
        let out = exact_solve(&empty, None);
        assert!(out.optimal);
        assert_eq!(out.solution.total(), 0);

        let one = TdInstance::new(vec![2], vec![vec![0]]);
        let out = exact_solve(&one, None);
        assert!(out.optimal);
        assert_eq!(out.solution.total(), 2);
    }

    #[test]
    fn shared_set_optimal() {
        let td = TdInstance::new(vec![1, 1], vec![vec![0, 1], vec![0], vec![1]]);
        let out = exact_solve(&td, None);
        assert!(out.optimal);
        assert_eq!(out.solution.total(), 1);
        assert!(td.is_feasible(&out.solution.weights));
    }

    #[test]
    fn ring_of_cycles() {
        // 4 unit-deficit cycles in a ring of pairwise-overlapping sets:
        // optimal is 2 tokens (opposite sets).
        let td = TdInstance::new(
            vec![1, 1, 1, 1],
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]],
        );
        let out = exact_solve(&td, None);
        assert!(out.optimal);
        assert_eq!(out.solution.total(), 2);
    }

    #[test]
    fn exact_beats_or_matches_heuristic() {
        let td = TdInstance::new(
            vec![1, 2, 1, 1, 2],
            vec![
                vec![0, 1],
                vec![1, 2],
                vec![2, 3],
                vec![3, 4],
                vec![4, 0],
                vec![0, 2, 4],
            ],
        );
        let h = heuristic_solve(&td);
        let e = exact_solve(&td, None);
        assert!(e.optimal);
        assert!(e.solution.total() <= h.total());
        assert!(td.is_feasible(&e.solution.weights));
    }

    #[test]
    fn agrees_with_brute_force_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..40 {
            let n_cycles = rng.gen_range(1..5);
            let n_sets = rng.gen_range(1..5);
            let deficits: Vec<u64> = (0..n_cycles).map(|_| rng.gen_range(0..3)).collect();
            let mut sets: Vec<Vec<usize>> = (0..n_sets)
                .map(|_| {
                    (0..n_cycles)
                        .filter(|_| rng.gen_bool(0.6))
                        .collect::<Vec<_>>()
                })
                .collect();
            // Ensure every positive-deficit cycle is coverable.
            for (c, &d) in deficits.iter().enumerate() {
                if d > 0 && !sets.iter().any(|s| s.contains(&c)) {
                    sets[0].push(c);
                }
            }
            let td = TdInstance::new(deficits, sets);
            let e = exact_solve(&td, None);
            assert!(e.optimal, "trial {trial}");
            let bf = brute_force_optimum(&td, e.solution.total().max(6)).expect("feasible");
            assert_eq!(
                e.solution.total(),
                bf.total(),
                "trial {trial}: exact {:?} vs brute {:?} on {td:?}",
                e.solution,
                bf
            );
        }
    }

    #[test]
    fn timeout_returns_feasible_upper_bound() {
        // A hard-ish instance with an immediate deadline: must fall back to
        // the heuristic solution without claiming optimality... unless the
        // binary search finished before the first deadline check, which the
        // zero budget makes effectively impossible for this size.
        let n = 14;
        let deficits = vec![1u64; n];
        let sets: Vec<Vec<usize>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
        let td = TdInstance::new(deficits, sets);
        let out = exact_solve(&td, Some(Duration::from_nanos(1)));
        assert!(td.is_feasible(&out.solution.weights));
    }

    #[test]
    fn brute_force_none_when_budget_too_small() {
        let td = TdInstance::new(vec![3], vec![vec![0]]);
        assert!(brute_force_optimum(&td, 2).is_none());
        assert_eq!(brute_force_optimum(&td, 3).unwrap().total(), 3);
    }

    /// Random coverable instances for the memo test.
    /// Dense enough that the disjoint-cycle bound stays loose — the regime
    /// where the transposition memo earns its keep.
    fn random_instances(seed: u64, count: usize) -> Vec<TdInstance> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let n_cycles = rng.gen_range(6..12);
                let n_sets = rng.gen_range(5..10);
                let deficits: Vec<u64> = (0..n_cycles).map(|_| rng.gen_range(1..4)).collect();
                let mut sets: Vec<Vec<usize>> = (0..n_sets)
                    .map(|_| (0..n_cycles).filter(|_| rng.gen_bool(0.4)).collect())
                    .collect();
                for (c, &d) in deficits.iter().enumerate() {
                    if d > 0 && !sets.iter().any(|s| s.contains(&c)) {
                        sets[0].push(c);
                    }
                }
                TdInstance::new(deficits, sets)
            })
            .collect()
    }

    #[test]
    fn memo_preserves_the_solution_and_shrinks_the_tree() {
        let mut memo_ever_smaller = false;
        for (trial, td) in random_instances(5, 30).iter().enumerate() {
            let with = exact_solve_with(td, &ExactOptions::default());
            let without = exact_solve_with(
                td,
                &ExactOptions {
                    memo: false,
                    ..ExactOptions::default()
                },
            );
            assert!(with.optimal && without.optimal, "trial {trial}");
            // The memo prunes refuted subtrees only, so the first solution
            // in DFS order — the reported one — is unchanged, not just its
            // total.
            assert_eq!(
                with.solution.weights, without.solution.weights,
                "trial {trial}"
            );
            assert!(with.nodes <= without.nodes, "trial {trial}");
            memo_ever_smaller |= with.nodes < without.nodes;
        }
        assert!(memo_ever_smaller, "memo never pruned anything");
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    fn ring_instance(n: usize) -> TdInstance {
        let deficits = vec![1u64; n];
        let sets: Vec<Vec<usize>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
        TdInstance::new(deficits, sets)
    }

    #[test]
    fn disabling_optimizations_preserves_the_optimum() {
        for n in [4usize, 6, 8] {
            let td = ring_instance(n);
            let reference = exact_solve(&td, None);
            assert!(reference.optimal);
            for (bound, sym) in [(false, true), (true, false), (false, false)] {
                let out = exact_solve_with(
                    &td,
                    &ExactOptions {
                        budget: None,
                        disjoint_bound: bound,
                        symmetry_breaking: sym,
                        ..ExactOptions::default()
                    },
                );
                assert!(out.optimal, "n={n} bound={bound} sym={sym}");
                assert_eq!(
                    out.solution.total(),
                    reference.solution.total(),
                    "n={n} bound={bound} sym={sym}"
                );
            }
        }
    }

    #[test]
    fn optimizations_shrink_the_search_tree() {
        // An odd ring: the disjoint bound is one below the optimum, so the
        // binary search must run an infeasibility probe — the part of the
        // search the optimizations accelerate. (Even rings solve at the
        // bound with zero explored nodes.)
        let td = ring_instance(11);
        let with = exact_solve(&td, None);
        let without = exact_solve_with(
            &td,
            &ExactOptions {
                budget: None,
                disjoint_bound: false,
                symmetry_breaking: false,
                ..ExactOptions::default()
            },
        );
        assert!(with.optimal && without.optimal);
        assert!(
            with.nodes < without.nodes,
            "optimized {} vs unoptimized {}",
            with.nodes,
            without.nodes
        );
    }
}
