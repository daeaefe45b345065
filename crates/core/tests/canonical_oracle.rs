//! Differential test of `canonical_hash` against the byte serialization it
//! is defined by: FNV-1a over the block count, each block's length-prefixed
//! name and initialization byte, the channel count, and per channel its
//! endpoints, relay stations and queue capacity, every integer as 8
//! little-endian bytes. The hasher folds runs of zero bytes into one
//! multiply; the value must not move, because cache keys, store file names
//! and gateway routing are all derived from it.
//!
//! The corpus is the paper's figure systems, 200 seeded `lis-gen` designs, rings of 2 to
//! 1,000 blocks, and hand-built systems whose counts, relay stations and
//! queue capacities sit on the byte boundaries of the serialization (0,
//! 255, 256, 2^56, `u64::MAX`).

use lis_core::{canonical_hash, figures, fnv1a, LisSystem};
use lis_gen::{generate, GeneratorConfig, InsertionPolicy};
use rand::{Rng, SeedableRng};

/// The serialization `canonical_hash` hashes, written out byte by byte.
fn serialize(sys: &LisSystem) -> Vec<u8> {
    let mut out = Vec::new();
    let int = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
    int(&mut out, sys.block_count() as u64);
    for b in sys.block_ids() {
        let name = sys.block_name(b);
        int(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        out.push(u8::from(sys.is_initialized(b)));
    }
    int(&mut out, sys.channel_count() as u64);
    for c in sys.channel_ids() {
        int(&mut out, sys.channel_from(c).index() as u64);
        int(&mut out, sys.channel_to(c).index() as u64);
        int(&mut out, u64::from(sys.relay_stations_on(c)));
        int(&mut out, sys.queue_capacity(c));
    }
    out
}

fn ring(n: usize, relays: u32) -> LisSystem {
    let mut sys = LisSystem::new();
    let blocks: Vec<_> = (0..n).map(|i| sys.add_block(format!("r{i}"))).collect();
    for i in 0..n {
        let c = sys.add_channel(blocks[i], blocks[(i + 1) % n]);
        if (i as u32) < relays {
            sys.add_relay_station(c);
        }
    }
    sys
}

/// Systems whose integers land on the serialization's byte boundaries.
fn edge_cases() -> Vec<LisSystem> {
    let mut systems = vec![LisSystem::new()];
    for capacity in [
        1,
        255,
        256,
        65_535,
        65_536,
        1 << 56,
        (1 << 56) - 1,
        u64::MAX - 1,
        u64::MAX,
    ] {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_uninitialized_block("");
        let c = sys.add_channel(a, b);
        sys.set_queue_capacity(c, capacity)
            .expect("nonzero capacity");
        sys.add_channel(b, a);
        systems.push(sys);
    }
    for relays in [255, 256, 257] {
        let mut sys = ring(2, 0);
        let c = sys.channel_ids().next().expect("a channel");
        for _ in 0..relays {
            sys.add_relay_station(c);
        }
        systems.push(sys);
    }
    // 256 blocks, and a block whose name is 256 bytes long.
    systems.push(ring(256, 3));
    let mut sys = LisSystem::new();
    let long = sys.add_block("x".repeat(256));
    let short = sys.add_block("y");
    sys.add_channel(long, short);
    systems.push(sys);
    systems
}

fn corpus() -> Vec<(String, LisSystem)> {
    let mut systems = vec![
        ("fig1".to_string(), figures::fig1().0),
        ("fig15".to_string(), figures::fig15().0),
    ];
    for extra in [0, 3] {
        systems.push((format!("fig2_family({extra})"), figures::fig2_family(extra)));
    }
    for (i, sys) in edge_cases().into_iter().enumerate() {
        systems.push((format!("edge case {i}"), sys));
    }
    for (n, relays) in [(2, 0), (3, 1), (250, 2), (1000, 2)] {
        systems.push((format!("ring {n} + {relays} rs"), ring(n, relays)));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
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
        let mut sys = generate(&cfg, &mut rng).system;
        // Vary the queue capacities too: the generator leaves them at 1.
        let channels: Vec<_> = sys.channel_ids().collect();
        for c in channels {
            if rng.gen_bool(0.3) {
                let bits = rng.gen_range(1..64);
                let capacity = rng.gen_range(1..=1u64 << bits);
                sys.set_queue_capacity(c, capacity).expect("nonzero");
            }
        }
        systems.push((format!("lis-gen {i}"), sys));
    }
    systems
}

#[test]
fn canonical_hash_equals_fnv1a_of_the_byte_serialization() {
    for (label, sys) in corpus() {
        assert_eq!(
            canonical_hash(&sys),
            fnv1a(&serialize(&sys)),
            "{label}: canonical_hash moved off the byte-serial value"
        );
    }
}
