//! Property-based tests for the tile and chip simulator invariants.

use proptest::prelude::*;
use tensordash_core::PeGeometry;
use tensordash_sim::{ChipConfig, Simulator, Tile, TileConfig};
use tensordash_trace::{
    ClusteredSparsity, ConvDims, SampleSpec, SparsityGen, TrainingOp, UniformSparsity,
};

fn tile(rows: usize) -> Tile {
    Tile::new(TileConfig {
        rows,
        cols: 4,
        pe: PeGeometry::paper(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tile invariant: cycles are bounded by the dense stream length below
    /// and by the depth-limited minimum above, and every effectual slot is
    /// processed exactly once.
    #[test]
    fn tile_group_bounds(
        seed in any::<u64>(),
        density in 0.0f64..1.0,
        rows in 1usize..=16,
        len in 1usize..300,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // `rows` streams of `len` masks, back to back in one arena.
        let arena: Vec<u64> = (0..rows * len)
            .map(|_| {
                let mut m = 0u64;
                for lane in 0..16 {
                    if rng.gen_bool(density) {
                        m |= 1 << lane;
                    }
                }
                m
            })
            .collect();
        let run = tile(rows).run_group_arena(&arena, rows, len);
        prop_assert!(run.cycles <= len as u64, "slower than dense");
        prop_assert!(run.cycles >= (len as u64).div_ceil(3), "beat the depth limit");
        let effectual: u64 = arena.iter().map(|m| u64::from(m.count_ones())).sum();
        prop_assert_eq!(run.macs_per_column, effectual);
        prop_assert_eq!(run.scheduler_steps, run.cycles * rows as u64);
    }

    /// Chip invariant: TensorDash never needs more compute cycles than the
    /// baseline, for any op, geometry, and sparsity.
    #[test]
    fn chip_never_slower(
        sparsity in 0.0f64..1.0,
        clustering in 0.0f64..0.8,
        op_idx in 0usize..3,
    ) {
        let chip = ChipConfig::paper();
        let dims = ConvDims::conv_square(2, 48, 10, 32, 3, 1, 1);
        let op = TrainingOp::ALL[op_idx];
        let trace = ClusteredSparsity::new(sparsity, clustering).op_trace(
            dims, op, 16, &SampleSpec::new(16, 128), 3);
        let (td, base) = Simulator::new(chip).simulate_pair(&trace);
        prop_assert!(td.compute_cycles <= base.compute_cycles);
        prop_assert!(td.compute_cycles * 3 >= base.compute_cycles,
            "speedup beyond the staging ceiling");
    }

    /// DRAM traffic shrinks monotonically with sparsity and is identical
    /// across machines.
    #[test]
    fn dram_monotone_in_sparsity(s1 in 0.0f64..0.5, delta in 0.1f64..0.5) {
        let chip = ChipConfig::paper();
        let dims = ConvDims::conv_square(2, 32, 8, 32, 3, 1, 1);
        let sparse = UniformSparsity::new((s1 + delta).min(1.0)).op_trace(
            dims, TrainingOp::Forward, 16, &SampleSpec::new(8, 64), 1);
        let dense = UniformSparsity::new(s1).op_trace(
            dims, TrainingOp::Forward, 16, &SampleSpec::new(8, 64), 1);
        let sim = Simulator::new(chip);
        let (td_s, base_s) = sim.simulate_pair(&sparse);
        let (td_d, _) = sim.simulate_pair(&dense);
        prop_assert!(td_s.counters.dram_read_bits <= td_d.counters.dram_read_bits);
        prop_assert_eq!(td_s.counters.dram_read_bits, base_s.counters.dram_read_bits);
    }

    /// The work-stealing batch is invisible in the results: any layer mix
    /// and worker count produces the sequential path's reports bit for
    /// bit, in input order.
    #[test]
    fn work_stealing_batch_equals_sequential(
        seed in any::<u64>(),
        sparsity in 0.1f64..0.9,
        n_groups in 1usize..5,
        threads in 1usize..9,
    ) {
        use tensordash_sim::LayerReport;
        use tensordash_trace::OpTrace;
        let dims = ConvDims::conv_square(2, 32, 8, 32, 3, 1, 1);
        // Ragged group sizes (0..=2 ops per layer) stress the stealing.
        let ops: Vec<Vec<OpTrace>> = (0..n_groups)
            .map(|g| {
                (0..(seed as usize + g) % 3)
                    .map(|o| {
                        UniformSparsity::new(sparsity).op_trace(
                            dims,
                            TrainingOp::ALL[o % 3],
                            16,
                            &SampleSpec::new(8, 48),
                            seed ^ (g as u64) << 4 ^ o as u64,
                        )
                    })
                    .collect()
            })
            .collect();
        let labels: Vec<String> = (0..n_groups).map(|g| format!("layer{g}")).collect();
        let groups: Vec<(&str, &[OpTrace])> = labels
            .iter()
            .zip(&ops)
            .map(|(l, o)| (l.as_str(), o.as_slice()))
            .collect();
        let sim = Simulator::paper().with_threads(threads);
        let stolen = sim.simulate_batch(&groups);
        let sequential: Vec<LayerReport> = groups
            .iter()
            .map(|(label, ops)| LayerReport {
                label: (*label).to_string(),
                ops: ops.iter().map(|t| sim.aggregate(t)).collect(),
            })
            .collect();
        prop_assert_eq!(stolen, sequential);
    }

    /// Doubling the tiles halves compute cycles (work is tile-parallel).
    #[test]
    fn tiles_scale_compute(sparsity in 0.1f64..0.9) {
        let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
        let trace = UniformSparsity::new(sparsity).op_trace(
            dims, TrainingOp::Forward, 16, &SampleSpec::new(16, 128), 2);
        let c8 = ChipConfig { tiles: 8, ..ChipConfig::paper() };
        let c16 = ChipConfig::paper();
        let (a, _) = Simulator::new(c8).simulate_pair(&trace);
        let (b, _) = Simulator::new(c16).simulate_pair(&trace);
        let ratio = a.compute_cycles as f64 / b.compute_cycles as f64;
        prop_assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }
}
