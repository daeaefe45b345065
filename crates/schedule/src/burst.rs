//! Bursty-source scenario analysis on the packed Monte-Carlo kernel.

use lis_core::{ChannelId, LisSystem, MAX_CYCLES, MAX_PER_MILLE, MAX_TRIALS};
use lis_sim::{BurstSpec, CompiledProgram, McKernel, QueueMode, StallSpec};

/// Parameters of a bursty-source experiment. All fields are integral so the
/// parameters can key caches (probabilities are in per-mille, matching the
/// stall-sweep convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BurstParams {
    /// Per-cycle probability (‰) that an ON source turns OFF.
    pub off_per_mille: u32,
    /// Per-cycle probability (‰) that an OFF source turns back ON.
    pub on_per_mille: u32,
    /// Number of Monte-Carlo trials.
    pub trials: u32,
    /// Cycles per trial.
    pub cycles: u64,
    /// Base seed of the deterministic site-RNG streams.
    pub seed: u64,
}

impl BurstParams {
    /// The parameters of an experiment that names none of its own.
    pub const DEFAULT: BurstParams = BurstParams {
        off_per_mille: 100,
        on_per_mille: 300,
        trials: 256,
        cycles: 4096,
        seed: 0,
    };

    /// Checks the experiment against the request limits: probabilities up
    /// to [`MAX_PER_MILLE`] with a positive ON probability, and
    /// 1..=[`MAX_TRIALS`] trials of 1..=[`MAX_CYCLES`] cycles.
    ///
    /// # Errors
    ///
    /// The limits, in words, when the parameters break one.
    pub fn check(&self) -> Result<(), String> {
        let fits = self.off_per_mille <= MAX_PER_MILLE
            && (1..=MAX_PER_MILLE).contains(&self.on_per_mille)
            && (1..=MAX_TRIALS).contains(&self.trials)
            && (1..=MAX_CYCLES).contains(&self.cycles);
        fits.then_some(()).ok_or_else(|| {
            format!(
                "a burst run takes probabilities in 0..={MAX_PER_MILLE}‰ (ON from 1‰) \
                 and 1..={MAX_TRIALS} trials of 1..={MAX_CYCLES} cycles"
            )
        })
    }
}

impl Default for BurstParams {
    fn default() -> BurstParams {
        BurstParams::DEFAULT
    }
}

/// Observed maximum occupancy of one channel's input queue under the
/// burst plan, next to the hard cap it must respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelOccupancy {
    /// The channel.
    pub channel: ChannelId,
    /// Highest token count of the channel's consumer-side queue place over
    /// any cycle of any trial (initial marking included).
    pub max: u64,
    /// The pair-invariant cap: occupancy can never exceed this, burst plan
    /// or not.
    pub cap: u64,
}

/// Result of [`burst_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct BurstReport {
    /// The parameters the experiment ran with.
    pub params: BurstParams,
    /// Mean system rate across trials.
    pub mean_rate: f64,
    /// Smallest system rate across trials.
    pub min_rate: f64,
    /// Largest system rate across trials.
    pub max_rate: f64,
    /// Per-channel observed maxima and caps, in channel order.
    pub occupancy: Vec<ChannelOccupancy>,
}

impl BurstReport {
    /// `true` iff every channel's observed maximum respects its cap (it
    /// always should — an excess means a kernel bug, and the differential
    /// tests assert this).
    pub fn within_caps(&self) -> bool {
        self.occupancy.iter().all(|o| o.max <= o.cap)
    }
}

/// Runs the seeded bursty-source experiment: every source block is driven
/// by an independent Markov-modulated on/off chain (chains start ON; relay
/// stations stay smooth) and the packed kernel reports firing rates and
/// per-channel maximum queue occupancy. Byte-deterministic in
/// `(sys, params)` at any thread count.
///
/// # Panics
///
/// Panics if `params` fail [`BurstParams::check`].
pub fn burst_report(sys: &LisSystem, params: &BurstParams) -> BurstReport {
    if let Err(e) = params.check() {
        panic!("burst_report: {e}");
    }
    let prog = CompiledProgram::compile(sys, QueueMode::Finite);
    let burst = BurstSpec::sources(
        &prog,
        f64::from(params.off_per_mille) / f64::from(MAX_PER_MILLE),
        f64::from(params.on_per_mille) / f64::from(MAX_PER_MILLE),
    );
    let caps: Vec<u64> = sys
        .channel_ids()
        .map(|c| {
            prog.place_cap(prog.queue_place(c))
                .expect("finite-mode programs cap every place")
        })
        .collect();
    let stall = StallSpec::none(&prog);
    let kernel = McKernel::new(prog, stall, params.seed).with_burst(burst);
    let (report, occupancy) = kernel.run_occupancy(params.trials as usize, params.cycles);
    BurstReport {
        params: *params,
        mean_rate: report.mean_system_rate(),
        min_rate: report.min_system_rate(),
        max_rate: report.max_system_rate(),
        occupancy: sys
            .channel_ids()
            .zip(occupancy)
            .zip(caps)
            .map(|((channel, max), cap)| ChannelOccupancy { channel, max, cap })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schedule;
    use lis_core::{figures, practical_mst_with};
    use marked_graph::McmEngine;

    #[test]
    fn burst_report_is_deterministic_and_capped() {
        let (sys, _, _) = figures::fig1();
        let params = BurstParams {
            trials: 96,
            cycles: 512,
            ..BurstParams::default()
        };
        let a = burst_report(&sys, &params);
        let b = burst_report(&sys, &params);
        assert_eq!(a, b, "byte-identical reruns");
        assert!(a.within_caps());
        let theta = practical_mst_with(&sys, McmEngine::default()).to_f64();
        assert!(a.max_rate <= theta + 1e-9, "bursts cannot beat θ");
        assert!(a.mean_rate < theta, "bursts cost throughput");
    }

    #[test]
    fn burst_occupancy_respects_the_schedule_caps() {
        let (sys, _, _) = figures::fig6();
        let schedule = Schedule::compute(&sys, McmEngine::default()).unwrap();
        let report = burst_report(
            &sys,
            &BurstParams {
                trials: 64,
                cycles: 256,
                ..BurstParams::default()
            },
        );
        for occ in &report.occupancy {
            assert_eq!(occ.cap, schedule.bound(occ.channel).cap);
            assert!(occ.max <= occ.cap);
        }
    }

    #[test]
    fn check_reads_the_request_limits() {
        assert_eq!(BurstParams::default().check(), Ok(()));
        let edge = BurstParams {
            off_per_mille: MAX_PER_MILLE,
            on_per_mille: MAX_PER_MILLE,
            trials: MAX_TRIALS,
            cycles: MAX_CYCLES,
            seed: u64::MAX,
        };
        assert_eq!(edge.check(), Ok(()));
        for bad in [
            BurstParams {
                off_per_mille: MAX_PER_MILLE + 1,
                ..edge
            },
            BurstParams {
                on_per_mille: 0,
                ..edge
            },
            BurstParams {
                on_per_mille: MAX_PER_MILLE + 1,
                ..edge
            },
            BurstParams { trials: 0, ..edge },
            BurstParams {
                trials: MAX_TRIALS + 1,
                ..edge
            },
            BurstParams { cycles: 0, ..edge },
            BurstParams {
                cycles: MAX_CYCLES + 1,
                ..edge
            },
        ] {
            assert!(bad.check().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn zero_burst_attains_the_schedule_peak() {
        let (sys, _, _) = figures::fig1();
        let schedule = Schedule::compute(&sys, McmEngine::default()).unwrap();
        let report = burst_report(
            &sys,
            &BurstParams {
                off_per_mille: 0,
                on_per_mille: 1000,
                trials: 1,
                cycles: 256,
                seed: 7,
            },
        );
        for occ in &report.occupancy {
            assert_eq!(
                occ.max,
                schedule.bound(occ.channel).peak,
                "zero-stall run attains the periodic peak on {:?}",
                occ.channel
            );
        }
    }
}
