//! Sweep specifications: what to vary, what to compute per point.
//!
//! A [`SweepSpec`] is pure data — no wire format, no solver state — so it
//! can be decoded once by the server, hashed into a cache identity
//! ([`SweepSpec::token`]), and expanded into a deterministic job plan by
//! [`crate::plan`]. Every field is integral (stall probabilities are stored
//! in per-mille) so specs are `Eq + Hash` and two textually different
//! requests describing the same sweep share one identity.

use marked_graph::McmEngine;

/// What each grid point computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepMode {
    /// Full throughput analysis per point — the `/analyze` body.
    Analyze,
    /// Queue sizing per point — the `/qs` body.
    Qs {
        /// Exact branch-and-bound instead of the heuristic.
        exact: bool,
    },
}

/// One capacity axis: the queue capacities to try on one channel. Axes
/// combine by cartesian product, the **last** axis varying fastest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CapacityAxis {
    /// Channel index (into the base netlist's channel order).
    pub channel: usize,
    /// Absolute capacities to try (each ≥ 1), in the given order.
    pub values: Vec<u64>,
}

/// The relay-station dimension of the grid. Each resulting configuration is
/// a **group**: one modified system whose queue capacities are then swept.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StationGoal {
    /// Only the base system's stations (one group).
    Base,
    /// Goal mode: the greedy insertion frontier up to this budget — group
    /// `k` carries the best-known placement of exactly `k` stations (the
    /// frontier stops early when no insertion helps).
    Budget(u32),
    /// Explicit configurations: each entry lists `(channel, stations)`
    /// additions relative to the base system.
    Configs(Vec<Vec<(usize, u32)>>),
}

/// The optional stochastic-simulation axis: per grid point, run the packed
/// Monte-Carlo kernel once per stall probability.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StallAxis {
    /// Stall probabilities in per-mille (`250` = 25%), each ≤ 1000.
    pub per_mille: Vec<u32>,
    /// Trials per kernel run.
    pub trials: u32,
    /// Clock periods per trial.
    pub cycles: u64,
    /// Base seed; each point derives its own stream deterministically.
    pub seed: u64,
}

/// The optional bursty-source axis: per grid point, run the packed
/// Monte-Carlo kernel once per OFF probability, driving every source block
/// with a Markov-modulated on/off chain and recording rates plus the peak
/// queue occupancy observed anywhere in the system.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BurstAxis {
    /// Per-cycle ON→OFF probabilities in per-mille (`100` = 10%), each
    /// ≤ 1000; one kernel run per value.
    pub off_per_mille: Vec<u32>,
    /// Per-cycle OFF→ON probability in per-mille, ≤ 1000.
    pub on_per_mille: u32,
    /// Trials per kernel run.
    pub trials: u32,
    /// Clock periods per trial.
    pub cycles: u64,
    /// Base seed; each point derives its own stream deterministically.
    pub seed: u64,
}

/// A complete design-space sweep over one base netlist.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SweepSpec {
    /// What to compute per point.
    pub mode: SweepMode,
    /// The MCM engine backing every throughput solve.
    pub engine: McmEngine,
    /// Queue-capacity axes (cartesian product; empty = base capacities).
    pub capacities: Vec<CapacityAxis>,
    /// The relay-station dimension.
    pub stations: StationGoal,
    /// Optional stochastic-simulation axis.
    pub stalls: Option<StallAxis>,
    /// Optional bursty-source axis.
    pub bursts: Option<BurstAxis>,
}

impl SweepSpec {
    /// An analyze-mode sweep with no axes: one point on the base system.
    pub fn analyze() -> SweepSpec {
        SweepSpec {
            mode: SweepMode::Analyze,
            engine: McmEngine::default(),
            capacities: Vec::new(),
            stations: StationGoal::Base,
            stalls: None,
            bursts: None,
        }
    }

    /// A stable token naming every field that affects the result — the
    /// request half of the server's content-addressed cache key.
    pub fn token(&self) -> String {
        use std::fmt::Write;
        // Appends a comma-separated list.
        fn list<T: std::fmt::Display>(t: &mut String, items: impl IntoIterator<Item = T>) {
            for (i, v) in items.into_iter().enumerate() {
                let _ = write!(t, "{}{v}", if i > 0 { "," } else { "" });
            }
        }
        let mut t = match self.mode {
            SweepMode::Analyze => String::from("sweep:mode=analyze"),
            SweepMode::Qs { exact } => format!("sweep:mode=qs:exact={exact}"),
        };
        let _ = write!(t, ":engine={}", self.engine);
        for axis in &self.capacities {
            let _ = write!(t, ":cap[{}]=", axis.channel);
            list(&mut t, &axis.values);
        }
        match &self.stations {
            StationGoal::Base => {}
            StationGoal::Budget(b) => t.push_str(&format!(":budget={b}")),
            StationGoal::Configs(configs) => {
                for (i, cfg) in configs.iter().enumerate() {
                    let _ = write!(t, ":rs[{i}]=");
                    list(&mut t, cfg.iter().map(|(c, n)| format!("{c}x{n}")));
                }
            }
        }
        if let Some(s) = &self.stalls {
            let _ = write!(
                t,
                ":stalls=trials={}:cycles={}:seed={}:p=",
                s.trials, s.cycles, s.seed
            );
            list(&mut t, &s.per_mille);
        }
        if let Some(b) = &self.bursts {
            let _ = write!(
                t,
                ":bursts=on={}:trials={}:cycles={}:seed={}:off=",
                b.on_per_mille, b.trials, b.cycles, b.seed
            );
            list(&mut t, &b.off_per_mille);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_separate_every_field() {
        let base = SweepSpec::analyze();
        let mut qs = base.clone();
        qs.mode = SweepMode::Qs { exact: true };
        let mut karp = base.clone();
        karp.engine = McmEngine::Karp;
        let mut caps = base.clone();
        caps.capacities.push(CapacityAxis {
            channel: 1,
            values: vec![1, 2, 3],
        });
        let mut budget = base.clone();
        budget.stations = StationGoal::Budget(2);
        let mut stalls = base.clone();
        stalls.stalls = Some(StallAxis {
            per_mille: vec![0, 100],
            trials: 64,
            cycles: 1000,
            seed: 1,
        });
        let mut bursts = base.clone();
        bursts.bursts = Some(BurstAxis {
            off_per_mille: vec![0, 100],
            on_per_mille: 250,
            trials: 64,
            cycles: 1000,
            seed: 1,
        });
        let tokens: Vec<String> = [&base, &qs, &karp, &caps, &budget, &stalls, &bursts]
            .iter()
            .map(|s| s.token())
            .collect();
        for i in 0..tokens.len() {
            for j in i + 1..tokens.len() {
                assert_ne!(tokens[i], tokens[j], "{i} vs {j}");
            }
        }
        assert_eq!(base.token(), SweepSpec::analyze().token());
    }
}
