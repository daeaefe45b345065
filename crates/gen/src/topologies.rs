//! Deterministic topology families.
//!
//! Besides the paper's random generator, downstream users (and our
//! benchmarks) want the standard on-chip communication shapes: linear
//! pipelines, 2-D meshes and tori (the NoC substrates of the related work
//! the paper cites), butterflies, and rings. Each builder returns the
//! [`LisSystem`] plus enough structure to address blocks afterwards.

use lis_core::{BlockId, ChannelId, LisSystem};

/// A linear pipeline: `stages` blocks in a chain, one channel per hop.
///
/// # Examples
///
/// ```
/// use lis_gen::pipeline;
/// use lis_core::{classify, TopologyClass};
///
/// let p = pipeline(5);
/// assert_eq!(p.system.block_count(), 5);
/// assert_eq!(classify(&p.system), TopologyClass::Tree);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// The system.
    pub system: LisSystem,
    /// Stage blocks, upstream first.
    pub stages: Vec<BlockId>,
    /// Hop channels, `channels[i]` from stage `i` to `i + 1`.
    pub channels: Vec<ChannelId>,
}

/// Builds a linear pipeline with `stages` blocks.
///
/// # Panics
///
/// Panics if `stages` is zero.
pub fn pipeline(stages: usize) -> Pipeline {
    assert!(stages > 0, "a pipeline needs at least one stage");
    let mut sys = LisSystem::new();
    let blocks: Vec<BlockId> = (0..stages)
        .map(|i| sys.add_block(format!("stage{i}")))
        .collect();
    let channels = blocks
        .windows(2)
        .map(|w| sys.add_channel(w[0], w[1]))
        .collect();
    Pipeline {
        system: sys,
        stages: blocks,
        channels,
    }
}

/// A 2-D grid of blocks with nearest-neighbor channels.
#[derive(Debug, Clone)]
pub struct Mesh {
    /// The system.
    pub system: LisSystem,
    /// `blocks[row][col]`.
    pub blocks: Vec<Vec<BlockId>>,
    /// Whether wrap-around (torus) links are present.
    pub torus: bool,
}

impl Mesh {
    /// The block at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn at(&self, row: usize, col: usize) -> BlockId {
        self.blocks[row][col]
    }
}

/// Builds a `rows × cols` mesh with bidirectional nearest-neighbor
/// channels (east/west and north/south pairs), the canonical NoC substrate.
///
/// # Panics
///
/// Panics if either dimension is zero.
///
/// # Examples
///
/// ```
/// use lis_gen::mesh;
/// use lis_core::practical_mst;
/// use marked_graph::Ratio;
///
/// let m = mesh(3, 3);
/// assert_eq!(m.system.block_count(), 9);
/// // 2 directions * (rows*(cols-1) + cols*(rows-1)) channels.
/// assert_eq!(m.system.channel_count(), 24);
/// // Without relay stations a mesh suffers no degradation.
/// assert_eq!(practical_mst(&m.system), Ratio::ONE);
/// ```
pub fn mesh(rows: usize, cols: usize) -> Mesh {
    build_grid(rows, cols, false)
}

/// Builds a `rows × cols` torus: a mesh plus wrap-around links in both
/// dimensions (only where they are not duplicates of existing links).
pub fn torus(rows: usize, cols: usize) -> Mesh {
    build_grid(rows, cols, true)
}

fn build_grid(rows: usize, cols: usize, torus: bool) -> Mesh {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut sys = LisSystem::new();
    let blocks: Vec<Vec<BlockId>> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| sys.add_block(format!("n{r}_{c}")))
                .collect()
        })
        .collect();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                sys.add_channel(blocks[r][c], blocks[r][c + 1]);
                sys.add_channel(blocks[r][c + 1], blocks[r][c]);
            }
            if r + 1 < rows {
                sys.add_channel(blocks[r][c], blocks[r + 1][c]);
                sys.add_channel(blocks[r + 1][c], blocks[r][c]);
            }
        }
    }
    if torus {
        if cols > 2 {
            for row in &blocks {
                sys.add_channel(row[cols - 1], row[0]);
                sys.add_channel(row[0], row[cols - 1]);
            }
        }
        if rows > 2 {
            let (first, last) = (
                blocks.first().expect("rows > 0"),
                blocks.last().expect("rows > 0"),
            );
            for (&top, &bottom) in first.iter().zip(last.iter()) {
                sys.add_channel(bottom, top);
                sys.add_channel(top, bottom);
            }
        }
    }
    Mesh {
        system: sys,
        blocks,
        torus,
    }
}

/// A butterfly (FFT-style) network: `2^k` inputs routed through `k`
/// levels; every path from an input to an output has the same length, so
/// relay stations added uniformly per level never unbalance it.
#[derive(Debug, Clone)]
pub struct Butterfly {
    /// The system.
    pub system: LisSystem,
    /// `nodes[level][index]`, level 0 = inputs.
    pub nodes: Vec<Vec<BlockId>>,
}

/// Builds a butterfly with `2^log2_size` rows and `log2_size` levels of
/// 2×2 exchanges.
///
/// # Panics
///
/// Panics if `log2_size` is zero.
///
/// # Examples
///
/// ```
/// use lis_gen::butterfly;
/// use lis_core::{classify, TopologyClass};
///
/// let b = butterfly(3); // 8 rows, 3 exchange levels
/// assert_eq!(b.system.block_count(), 8 * 4);
/// // Diamonds everywhere: reconvergent paths.
/// assert_eq!(classify(&b.system), TopologyClass::General);
/// ```
pub fn butterfly(log2_size: usize) -> Butterfly {
    assert!(log2_size > 0, "butterfly needs at least one level");
    let n = 1usize << log2_size;
    let mut sys = LisSystem::new();
    let nodes: Vec<Vec<BlockId>> = (0..=log2_size)
        .map(|l| (0..n).map(|i| sys.add_block(format!("l{l}_{i}"))).collect())
        .collect();
    for l in 0..log2_size {
        let stride = 1usize << (log2_size - 1 - l);
        for i in 0..n {
            sys.add_channel(nodes[l][i], nodes[l + 1][i]);
            sys.add_channel(nodes[l][i], nodes[l + 1][i ^ stride]);
        }
    }
    Butterfly { system: sys, nodes }
}

/// A unidirectional ring of `len` blocks — the paper's "SCC with no
/// reconvergent paths" archetype.
///
/// # Examples
///
/// ```
/// use lis_gen::ring;
/// use lis_core::{classify, TopologyClass};
///
/// let r = ring(6);
/// assert_eq!(classify(&r.system), TopologyClass::SccNoReconvergence);
/// ```
#[derive(Debug, Clone)]
pub struct Ring {
    /// The system.
    pub system: LisSystem,
    /// Blocks in ring order.
    pub blocks: Vec<BlockId>,
    /// `channels[i]` from block `i` to block `(i + 1) % len`.
    pub channels: Vec<ChannelId>,
}

/// Builds a unidirectional ring.
///
/// # Panics
///
/// Panics if `len < 2`.
pub fn ring(len: usize) -> Ring {
    assert!(len >= 2, "a ring needs at least two blocks");
    let mut sys = LisSystem::new();
    let blocks: Vec<BlockId> = (0..len).map(|i| sys.add_block(format!("r{i}"))).collect();
    let channels = (0..len)
        .map(|i| sys.add_channel(blocks[i], blocks[(i + 1) % len]))
        .collect();
    Ring {
        system: sys,
        blocks,
        channels,
    }
}

/// Two reconvergent paths between the same pair of blocks.
#[derive(Debug, Clone)]
pub struct Reconvergent {
    /// The system.
    pub system: LisSystem,
    /// Source block `A`.
    pub source: BlockId,
    /// Sink block `B`.
    pub sink: BlockId,
    /// `paths[j][i]`: hop `i` of path `j` (`k + 1` hops each, from `A`).
    pub paths: [Vec<ChannelId>; 2],
}

/// Builds `A → x0 → … → x(k−1) → B` and `A → y0 → … → y(k−1) → B`, with
/// one relay station on the second path's first hop.
///
/// The station unbalances the two paths, so the design is degraded and
/// the critical cycle of its doubled graph runs forward along one path and
/// back along the other: about `2k` places, long enough to expose any
/// per-edge cost in critical-cycle analyses.
///
/// # Examples
///
/// ```
/// use lis_gen::reconvergent;
/// use lis_core::explain;
///
/// let r = reconvergent(10);
/// assert_eq!(r.system.block_count(), 22);
/// assert!(explain(&r.system).is_degraded());
/// ```
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn reconvergent(k: usize) -> Reconvergent {
    assert!(k > 0, "each path needs at least one block");
    let mut sys = LisSystem::new();
    let source = sys.add_block("A");
    let sink = sys.add_block("B");
    let paths = ["x", "y"].map(|prefix| {
        let mut hops = Vec::with_capacity(k + 1);
        let mut prev = source;
        for i in 0..k {
            let block = sys.add_block(format!("{prefix}{i}"));
            hops.push(sys.add_channel(prev, block));
            prev = block;
        }
        hops.push(sys.add_channel(prev, sink));
        hops
    });
    sys.add_relay_station(paths[1][0]);
    Reconvergent {
        system: sys,
        source,
        sink,
        paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::{classify, ideal_mst, practical_mst, TopologyClass};
    use marked_graph::Ratio;

    #[test]
    fn pipeline_shape_and_throughput() {
        let p = pipeline(6);
        assert_eq!(p.stages.len(), 6);
        assert_eq!(p.channels.len(), 5);
        assert_eq!(classify(&p.system), TopologyClass::Tree);
        // Pipelining any channel never hurts a pure pipeline.
        let mut sys = p.system.clone();
        sys.add_relay_station(p.channels[2]);
        sys.add_relay_station(p.channels[2]);
        assert_eq!(practical_mst(&sys), Ratio::ONE);
    }

    /// The structural bottleneck pass against the definition — every place
    /// probed with one extra token — on long degraded critical cycles.
    #[test]
    fn reconvergent_bottlenecks_match_exhaustive_probing() {
        use lis_core::{explain, LisModel};
        use marked_graph::incremental::IncrementalMcm;
        for k in [2, 10, 150] {
            let r = reconvergent(k);
            let model = LisModel::doubled(&r.system);
            let g = model.graph();
            let mut inc = IncrementalMcm::new(g);
            let mean = inc.mcm_with_tokens(&[]).expect("cyclic");
            let analysis = inc.analysis_with_tokens(&[]).expect("cyclic");
            assert_eq!(analysis.mean, mean);
            assert!(analysis.critical_cycle.len() >= 2 * k, "k = {k}");
            let probed: Vec<_> = g
                .place_ids()
                .filter(|&p| inc.mcm_with_tokens(&[(p, g.tokens(p) + 1)]) > Some(mean))
                .collect();
            assert!(!probed.is_empty(), "k = {k}");
            assert_eq!(analysis.bottlenecks, probed, "k = {k}");
            assert_eq!(inc.bottlenecks_with_tokens(&[]), probed, "k = {k}");
            let report = explain(&r.system);
            assert!(report.is_degraded(), "k = {k}");
            let mut queues: Vec<_> = probed
                .iter()
                .filter_map(|&p| model.channel_of_queue_backedge(p))
                .collect();
            queues.sort();
            queues.dedup();
            assert_eq!(report.bottleneck_queues, queues, "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_panics() {
        let _ = pipeline(0);
    }

    #[test]
    fn mesh_counts() {
        let m = mesh(2, 3);
        assert_eq!(m.system.block_count(), 6);
        // 2*(2*2) horizontal + 2*(3*1) vertical = 8 + 6 = 14.
        assert_eq!(m.system.channel_count(), 14);
        assert!(!m.torus);
        assert_ne!(m.at(0, 0), m.at(1, 2));
        // Bidirectional mesh is one SCC with reconvergent paths.
        assert_eq!(classify(&m.system), TopologyClass::General);
    }

    #[test]
    fn torus_adds_wraparound() {
        let t = torus(3, 3);
        // mesh(3,3) has 24; + 3 rows * 2 + 3 cols * 2 = 36.
        assert_eq!(t.system.channel_count(), 36);
        assert!(t.torus);
        // 2x2 torus adds no duplicate wrap links.
        let t2 = torus(2, 2);
        assert_eq!(t2.system.channel_count(), mesh(2, 2).system.channel_count());
    }

    #[test]
    fn mesh_tolerates_one_station_with_q2() {
        // The paper's closing remark, on a NoC-shaped instance.
        let m = mesh(3, 3);
        for c in m.system.channel_ids() {
            let mut sys = m.system.clone();
            sys.add_relay_station(c);
            sys.set_uniform_queue_capacity(2);
            assert_eq!(practical_mst(&sys), ideal_mst(&sys), "channel {c:?}");
        }
    }

    #[test]
    fn butterfly_is_balanced_by_construction() {
        let b = butterfly(2);
        assert_eq!(b.nodes.len(), 3);
        assert_eq!(b.system.channel_count(), 2 * 2 * 4);
        // Equal-length reconvergent paths: no degradation without stations.
        assert_eq!(practical_mst(&b.system), Ratio::ONE);
        // One station on a single level-0 edge unbalances a diamond.
        let mut sys = b.system.clone();
        sys.add_relay_station(lis_core::ChannelId::new(0));
        assert!(practical_mst(&sys) < Ratio::ONE);
        // Station-count equalization repairs it (the DAG theorem).
        let fixed = lis_rsopt::equalize_dag(&sys).expect("butterfly is a DAG");
        assert_eq!(practical_mst(&fixed), Ratio::ONE);
    }

    #[test]
    fn ring_properties() {
        let r = ring(5);
        assert_eq!(r.system.channel_count(), 5);
        assert_eq!(ideal_mst(&r.system), Ratio::ONE);
        // One relay station in the loop costs throughput that queues CANNOT
        // recover (it is an ideal-MST limit, not a backpressure artifact).
        let mut sys = r.system.clone();
        sys.add_relay_station(r.channels[0]);
        assert_eq!(ideal_mst(&sys), Ratio::new(5, 6));
        assert_eq!(practical_mst(&sys), Ratio::new(5, 6));
        sys.set_uniform_queue_capacity(9);
        assert_eq!(practical_mst(&sys), Ratio::new(5, 6));
    }
}
