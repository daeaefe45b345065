//! Differential test of `LisModel::ideal` / `LisModel::doubled` against
//! the build loop they replaced, kept below as `oracle_build`: one `String`
//! name per transition and per-transition input and output lists pushed in
//! place order, exactly as the graph was laid out before it became flat.
//!
//! On the figures, 200 seeded `lis-gen` designs and the ring family, both
//! models must agree with the oracle on every transition name and delay,
//! every place's endpoints and tokens, the order of every transition's
//! inputs and outputs, the forward/backward role of every place, the queue
//! backedges, the DOT bytes and the `Debug` text.

use lis_core::{expand_block_latency, figures, BlockId, ChannelId, LisModel, LisSystem, ModelKind};
use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
use marked_graph::dot::to_dot;
use marked_graph::{MarkedGraph, PlaceId, TransitionId};
use rand::{Rng, SeedableRng};

mod oracle {
    use super::*;

    /// Mirrors `lis_core::LisModel`'s name and fields in order, so its
    /// derived `Debug` must print byte for byte what the real one prints.
    #[derive(Debug)]
    pub struct LisModel {
        pub graph: MarkedGraph,
        pub kind: ModelKind,
        pub block_transition: Vec<TransitionId>,
        pub forward: Vec<PlaceId>,
        pub backward: Vec<PlaceId>,
        pub hop_start: Vec<u32>,
        pub relay: Vec<TransitionId>,
        pub queue_backedge: Vec<Option<PlaceId>>,
        pub place_role: Vec<u8>,
        pub queue_channel: Vec<Option<ChannelId>>,
    }
}

/// What the oracle built: the model, plus the adjacency lists the graph
/// kept per transition before it became flat.
struct Oracle {
    model: oracle::LisModel,
    names: Vec<String>,
    inputs: Vec<Vec<PlaceId>>,
    outputs: Vec<Vec<PlaceId>>,
}

const ROLE_FORWARD: u8 = 1;
const ROLE_BACKWARD: u8 = 2;

/// The previous `LisModel::build`, with every `add_transition` and
/// `add_place` also recorded in the oracle's own lists.
fn oracle_build(sys: &LisSystem, kind: ModelKind) -> Oracle {
    let doubled = kind == ModelKind::Doubled;
    let n_channels = sys.channel_count();
    let n_relays = sys.relay_station_count() as usize;
    let n_hops = n_channels + n_relays;
    let n_places = if doubled { 2 * n_hops } else { n_hops };

    let mut graph = MarkedGraph::with_capacity(sys.block_count() + n_relays, n_places);
    let mut names: Vec<String> = Vec::new();
    let mut inputs: Vec<Vec<PlaceId>> = Vec::new();
    let mut outputs: Vec<Vec<PlaceId>> = Vec::new();
    let mut add_transition = |graph: &mut MarkedGraph, name: String| {
        names.push(name.clone());
        inputs.push(Vec::new());
        outputs.push(Vec::new());
        graph.add_transition(name)
    };
    let mut places: Vec<(TransitionId, TransitionId)> = Vec::new();
    let mut add_place = |graph: &mut MarkedGraph, src: TransitionId, dst: TransitionId, t: u64| {
        places.push((src, dst));
        graph.add_place(src, dst, t)
    };

    let block_transition: Vec<TransitionId> = sys
        .block_ids()
        .map(|b| add_transition(&mut graph, sys.block_name(b).to_string()))
        .collect();

    let mut forward = Vec::with_capacity(n_hops);
    let mut backward = Vec::with_capacity(if doubled { n_hops } else { 0 });
    let mut hop_start = Vec::with_capacity(n_channels + 1);
    let mut relay = Vec::with_capacity(n_relays);
    let mut queue_backedge = vec![None; n_channels];
    let mut place_role = Vec::with_capacity(n_places);
    let mut queue_channel = vec![None; n_places];
    hop_start.push(0);

    for c in sys.channel_ids() {
        let from = sys.channel_from(c);
        let to = sys.channel_to(c);
        let q = sys.queue_capacity(c);
        let first_relay = relay.len();
        for i in 0..sys.relay_stations_on(c) {
            relay.push(add_transition(
                &mut graph,
                format!(
                    "rs{}({}->{})",
                    i + 1,
                    sys.block_name(from),
                    sys.block_name(to)
                ),
            ));
        }

        // Chain of hops: from -> rs_1 -> ... -> rs_k -> to.
        let mut src = block_transition[from.index()];
        for w in first_relay..=relay.len() {
            let dst_is_shell = w == relay.len();
            let dst = if dst_is_shell {
                block_transition[to.index()]
            } else {
                relay[w]
            };
            let fwd_tokens = u64::from(dst_is_shell && sys.is_initialized(to));
            forward.push(add_place(&mut graph, src, dst, fwd_tokens));
            place_role.push(ROLE_FORWARD);
            if doubled {
                let back_tokens = if dst_is_shell { q } else { 2 };
                let back = add_place(&mut graph, dst, src, back_tokens);
                backward.push(back);
                place_role.push(ROLE_BACKWARD);
                if dst_is_shell {
                    queue_backedge[c.index()] = Some(back);
                    queue_channel[back.index()] = Some(c);
                }
            }
            src = dst;
        }
        hop_start.push(forward.len() as u32);
    }

    for (i, &(src, dst)) in places.iter().enumerate() {
        outputs[src.index()].push(PlaceId::new(i));
        inputs[dst.index()].push(PlaceId::new(i));
    }
    Oracle {
        model: oracle::LisModel {
            graph,
            kind,
            block_transition,
            forward,
            backward,
            hop_start,
            relay,
            queue_backedge,
            place_role,
            queue_channel,
        },
        names,
        inputs,
        outputs,
    }
}

/// Asserts that `LisModel` of `kind` over `sys` is the oracle's model.
fn check(label: &str, sys: &LisSystem, kind: ModelKind) {
    let expected = oracle_build(sys, kind);
    let want = &expected.model;
    let model = match kind {
        ModelKind::Ideal => LisModel::ideal(sys),
        ModelKind::Doubled => LisModel::doubled(sys),
    };
    let g = model.graph();
    let label = format!("{label} ({kind:?})");
    assert_eq!(model.kind(), want.kind, "{label}");

    assert_eq!(g.transition_count(), expected.names.len(), "{label}");
    for t in g.transition_ids() {
        assert_eq!(
            g.transition_name(t),
            expected.names[t.index()],
            "{label}: {t:?}"
        );
        assert_eq!(g.delay(t), 1, "{label}: {t:?}");
        assert_eq!(
            g.inputs(t),
            expected.inputs[t.index()],
            "{label}: inputs of {t:?}"
        );
        assert_eq!(
            g.outputs(t),
            expected.outputs[t.index()],
            "{label}: outputs of {t:?}"
        );
    }
    assert_eq!(g.place_count(), want.graph.place_count(), "{label}");
    for p in g.place_ids() {
        let endpoints = |g: &MarkedGraph| (g.source(p), g.target(p), g.tokens(p));
        assert_eq!(endpoints(g), endpoints(&want.graph), "{label}: {p:?}");
        let role = want.place_role[p.index()];
        assert_eq!(
            model.is_forward(p),
            role & ROLE_FORWARD != 0,
            "{label}: {p:?}"
        );
        assert_eq!(
            model.is_backedge(p),
            role & ROLE_BACKWARD != 0,
            "{label}: {p:?}"
        );
        assert_eq!(
            model.channel_of_queue_backedge(p),
            want.queue_channel[p.index()],
            "{label}: {p:?}"
        );
    }
    for b in sys.block_ids() {
        assert_eq!(model.block_transition(b), want.block_transition[b.index()]);
    }
    for c in sys.channel_ids() {
        let hops = want.hop_start[c.index()] as usize..want.hop_start[c.index() + 1] as usize;
        assert_eq!(
            model.forward_places(c),
            &want.forward[hops.clone()],
            "{label}: {c:?}"
        );
        let backward = match kind {
            ModelKind::Ideal => &[][..],
            ModelKind::Doubled => &want.backward[hops.clone()],
        };
        assert_eq!(model.backward_places(c), backward, "{label}: {c:?}");
        let relays = hops.start - c.index()..hops.end - (c.index() + 1);
        assert_eq!(
            model.relay_transitions(c),
            &want.relay[relays],
            "{label}: {c:?}"
        );
        assert_eq!(
            model.queue_backedge(c),
            want.queue_backedge[c.index()],
            "{label}: {c:?}"
        );
    }
    let adjustable: Vec<(ChannelId, PlaceId)> = want
        .queue_backedge
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.map(|p| (ChannelId::new(i), p)))
        .collect();
    assert_eq!(model.adjustable_backedges(), adjustable, "{label}");
    assert_eq!(to_dot(g), to_dot(&want.graph), "{label}: DOT");
    assert_eq!(format!("{model:?}"), format!("{want:?}"), "{label}: Debug");
}

/// A ring of `n` blocks with `relays` relay stations spread over it.
fn ring_with_relays(n: usize, relays: usize) -> LisSystem {
    let r = lis_gen::ring(n);
    let mut sys = r.system;
    for i in 0..relays {
        sys.add_relay_station(r.channels[(i * n / relays.max(1)) % n]);
    }
    sys
}

/// Hand-made edge cases: uninitialized shells, a channel with two-digit
/// relay numbers, a self-loop, parallel channels and non-unit queues.
fn edge_cases() -> Vec<LisSystem> {
    let mut sys = LisSystem::new();
    let a = sys.add_block("A");
    let b = sys.add_uninitialized_block("B \"quoted\"");
    let c = sys.add_block("Ä");
    let long = sys.add_channel(a, b);
    for _ in 0..12 {
        sys.add_relay_station(long);
    }
    let back = sys.add_channel(b, a);
    sys.set_queue_capacity(back, 3).expect("positive");
    let self_loop = sys.add_channel(c, c);
    sys.add_relay_station(self_loop);
    sys.add_channel(a, c);
    sys.add_channel(a, c);
    vec![sys, LisSystem::new()]
}

fn corpus() -> Vec<(String, LisSystem)> {
    let mut systems: Vec<(String, LisSystem)> = vec![
        ("fig1".into(), figures::fig1().0),
        ("fig2_right".into(), figures::fig2_right().0),
        ("fig6".into(), figures::fig6().0),
        ("fig15".into(), figures::fig15().0),
        ("uplink_downlink".into(), figures::uplink_downlink().0),
        (
            "fig1 latency 3".into(),
            expand_block_latency(&figures::fig1().0, BlockId::new(1), 3).system,
        ),
        ("reconvergent".into(), lis_gen::reconvergent(3).system),
    ];
    for extra in 0..4 {
        systems.push((format!("fig2_family({extra})"), figures::fig2_family(extra)));
    }
    for (i, sys) in edge_cases().into_iter().enumerate() {
        systems.push((format!("edge case {i}"), sys));
    }
    for (n, relays) in [(2, 0), (3, 1), (10, 2), (250, 2), (1000, 2), (1000, 40)] {
        systems.push((
            format!("ring {n} + {relays} rs"),
            ring_with_relays(n, relays),
        ));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(27);
    for i in 0..200 {
        let vertices = rng.gen_range(4..=200usize);
        let cfg = GeneratorConfig {
            vertices,
            sccs: rng.gen_range(1..=(vertices / 4).max(1)),
            min_cycles_per_scc: rng.gen_range(1..=4),
            relay_stations: rng.gen_range(0..=12),
            reconvergent_paths: rng.gen_bool(0.5),
            policy: if rng.gen_bool(0.5) {
                InsertionPolicy::Any
            } else {
                InsertionPolicy::Scc
            },
            extra_inter_edges: None,
        };
        systems.push((format!("lis-gen {i}"), generate(&cfg, &mut rng).system));
    }
    systems
}

#[test]
fn both_models_match_the_oracle_build() {
    for (label, sys) in corpus() {
        check(&label, &sys, ModelKind::Ideal);
        check(&label, &sys, ModelKind::Doubled);
    }
}
