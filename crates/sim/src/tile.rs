//! The tile cycle model: lockstep rows sharing a dense-side window.
//!
//! Each tile row owns a scheduled-side staging window and nominally its own
//! scheduler; all rows read the dense-side staging buffers through the
//! *same* `depth`-row window, so the tile can only drop dense-schedule rows
//! that **every** row has finished with: the per-cycle advance is the
//! minimum drain across rows (§3.3, Fig 11). A single dense row among the
//! scheduled streams therefore throttles the whole tile — which is exactly
//! why the paper's Fig 17 shows speedup degrading as rows are added, and
//! why clustered sparsity hurts more than uniform.
//!
//! The whole lockstep loop executes inside
//! [`SparsityScheduler::run_masks_arena`]: one call per window group —
//! for the default TensorDash member, bit-exact with (and much faster
//! than) driving one [`RowEngine`](tensordash_core::RowEngine) per row
//! step by step. [`Tile::with_scheduler`] swaps in any other member of
//! the scheduler family over the same mask windows.

use crate::config::TileConfig;
use tensordash_core::{BatchRun, DenseScheduler, SchedulerKind, SparsityScheduler};

/// Result of streaming one window group through a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRun {
    /// Cycles the tile's scheduler needed.
    pub cycles: u64,
    /// Cycles the dense baseline needs (= stream rows).
    pub dense_cycles: u64,
    /// Effectual MACs issued per PE column (multiply by active columns for
    /// tile-wide MACs).
    pub macs_per_column: u64,
    /// Scheduler invocations (one per row per cycle).
    pub scheduler_steps: u64,
}

impl GroupRun {
    /// Speedup of this group over the dense baseline.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.cycles == 0 {
            1.0
        } else {
            self.dense_cycles as f64 / self.cycles as f64
        }
    }
}

/// A tile simulator instance (reusable across groups; holds the scheduler).
#[derive(Debug, Clone)]
pub struct Tile {
    config: TileConfig,
    scheduler: SparsityScheduler,
    /// The dense sibling of whatever scheduler the tile runs: every
    /// speedup denominator is priced through this one machine instead of
    /// ad-hoc `rows`-is-cycles arithmetic.
    baseline: DenseScheduler,
}

impl Tile {
    /// Builds a TensorDash tile (the paper interconnect for its PE
    /// geometry) — the family default.
    #[must_use]
    pub fn new(config: TileConfig) -> Self {
        Tile::with_scheduler(config, SchedulerKind::TensorDash)
    }

    /// Builds a tile running the given member of the scheduler family.
    #[must_use]
    pub fn with_scheduler(config: TileConfig, kind: SchedulerKind) -> Self {
        Tile {
            config,
            scheduler: SparsityScheduler::new(kind, config.pe),
            baseline: DenseScheduler::new(config.pe),
        }
    }

    /// The tile configuration.
    #[must_use]
    pub fn config(&self) -> &TileConfig {
        &self.config
    }

    /// Which member of the scheduler family this tile runs.
    #[must_use]
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.scheduler.kind()
    }

    /// The scheduler driving this tile's rows.
    #[must_use]
    pub fn scheduler(&self) -> &SparsityScheduler {
        &self.scheduler
    }

    /// Streams one group of scheduled-side mask streams (one per row, at
    /// most `rows`) through the tile in lockstep: `windows` equal-length
    /// streams of `rows` masks each, straight out of a flat mask arena (a
    /// contiguous span group of an
    /// [`OpTrace`](tensordash_trace::OpTrace)). No per-group slice vector
    /// is built, and the kernel walks one contiguous allocation.
    ///
    /// The streams are windows of the same operation and cover the same
    /// reduction extent. Every row schedules independently; the tile
    /// advances by the minimum drain because the dense-side window is
    /// shared. The whole lockstep loop runs inside the batched scheduler
    /// kernel — one call per group, no per-step engine dispatch. A group
    /// of zero-row streams costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero or exceeds the row count, or if
    /// `arena.len() != windows * rows`.
    #[must_use]
    pub fn run_group_arena(&self, arena: &[u64], windows: usize, rows: usize) -> GroupRun {
        assert!(windows > 0, "a window group needs at least one stream");
        assert!(
            windows <= self.config.rows,
            "group of {windows} streams exceeds {} tile rows",
            self.config.rows
        );
        assert_eq!(
            arena.len(),
            windows * rows,
            "arena slice does not hold {windows} streams of {rows} rows"
        );
        let run = if rows == 0 {
            BatchRun::default()
        } else {
            self.scheduler.run_masks_arena(arena, rows)
        };
        GroupRun {
            cycles: run.cycles,
            dense_cycles: run.dense_cycles,
            macs_per_column: run.macs,
            scheduler_steps: run.scheduler_steps,
        }
    }

    /// Dense-baseline cycles for a stream of `rows` reduction rows, priced
    /// through the family's [`DenseScheduler`] so every speedup
    /// denominator comes from the same code path.
    #[must_use]
    pub fn baseline_cycles(&self, rows: u64) -> u64 {
        self.baseline.cycles_for_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tensordash_core::{PeGeometry, Scheduler};

    fn tile(rows: usize) -> Tile {
        Tile::new(TileConfig {
            rows,
            cols: 4,
            pe: PeGeometry::paper(),
        })
    }

    fn random_stream(seed: u64, rows: usize, density: f64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows)
            .map(|_| {
                let mut m = 0u64;
                for lane in 0..16 {
                    if rng.gen_bool(density) {
                        m |= 1 << lane;
                    }
                }
                m
            })
            .collect()
    }

    /// Runs equal-length `streams` through `t` as one flattened arena.
    fn run(t: &Tile, streams: &[Vec<u64>]) -> GroupRun {
        t.run_group_arena(&streams.concat(), streams.len(), streams[0].len())
    }

    #[test]
    fn single_row_matches_stream_run() {
        let t = tile(1);
        let stream = random_stream(1, 500, 0.4);
        let group = t.run_group_arena(&stream, 1, stream.len());
        let solo = Scheduler::paper(PeGeometry::paper()).run_masks(stream.iter().copied());
        assert_eq!(group.cycles, solo.cycles);
        assert_eq!(group.macs_per_column, solo.macs);
    }

    #[test]
    fn more_rows_never_run_faster() {
        // min-sync: a larger group is at best as fast as its slowest member.
        let streams: Vec<Vec<u64>> = (0..16).map(|i| random_stream(i, 400, 0.35)).collect();
        let mut previous = 0u64;
        for rows in [1usize, 2, 4, 8, 16] {
            let run = run(&tile(rows), &streams[..rows]);
            assert!(
                run.cycles >= previous,
                "rows {rows} ran faster than a subset"
            );
            previous = run.cycles;
        }
    }

    #[test]
    fn group_cycles_bounded_by_slowest_row() {
        let t = tile(4);
        let streams: Vec<Vec<u64>> = (0..4).map(|i| random_stream(10 + i, 300, 0.5)).collect();
        let group = run(&t, &streams);
        let solo_max = streams
            .iter()
            .map(|s| {
                Scheduler::paper(PeGeometry::paper())
                    .run_masks(s.iter().copied())
                    .cycles
            })
            .max()
            .unwrap();
        assert!(
            group.cycles >= solo_max,
            "group cannot beat its slowest row"
        );
        assert!(group.cycles <= 300, "group cannot be slower than dense");
    }

    #[test]
    fn all_empty_streams_drain_at_depth_rate() {
        let t = tile(4);
        let run = t.run_group_arena(&[0u64; 4 * 99], 4, 99);
        assert_eq!(run.cycles, 33);
        assert_eq!(run.macs_per_column, 0);
    }

    #[test]
    fn zero_row_streams_yield_zero_run() {
        let run = tile(2).run_group_arena(&[], 2, 0);
        assert_eq!(run, tile(2).run_group_arena(&[], 1, 0));
        assert_eq!(
            run,
            GroupRun {
                cycles: 0,
                dense_cycles: 0,
                macs_per_column: 0,
                scheduler_steps: 0,
            }
        );
    }

    #[test]
    fn one_dense_row_throttles_the_group() {
        let t = tile(4);
        let dense = vec![0xFFFFu64; 120];
        let empty = vec![0u64; 120];
        let run = run(&t, &[dense, empty.clone(), empty.clone(), empty]);
        assert_eq!(run.cycles, 120, "the dense row forces one row per cycle");
    }

    #[test]
    fn macs_count_every_effectual_slot() {
        let t = tile(4);
        let streams: Vec<Vec<u64>> = (0..4).map(|i| random_stream(20 + i, 200, 0.3)).collect();
        let expected: u64 = streams
            .iter()
            .flat_map(|s| s.iter())
            .map(|m| u64::from(m.count_ones()))
            .sum();
        assert_eq!(run(&t, &streams).macs_per_column, expected);
    }

    #[test]
    fn scheduler_steps_count_rows_times_cycles() {
        let t = tile(3);
        let streams: Vec<Vec<u64>> = (0..3).map(|i| random_stream(30 + i, 150, 0.5)).collect();
        let run = run(&t, &streams);
        assert_eq!(run.scheduler_steps, run.cycles * 3);
    }

    #[test]
    fn arena_groups_match_the_reference_engine_loop() {
        // The golden model: the engine-per-stream reference loop with the
        // scalar kernel (the exact pre-batching tile group behaviour).
        for rows in [1usize, 2, 3, 4] {
            let t = tile(rows);
            for (seed, density) in [(40, 0.15), (41, 0.5), (42, 0.95)] {
                let streams: Vec<Vec<u64>> = (0..rows)
                    .map(|i| random_stream(seed + i as u64, 331, density))
                    .collect();
                let refs: Vec<&[u64]> = streams.iter().map(Vec::as_slice).collect();
                let reference = t.scheduler.run_masks_batched_reference(&refs);
                let group = run(&t, &streams);
                assert_eq!(group.cycles, reference.cycles, "rows {rows} d {density}");
                assert_eq!(group.dense_cycles, reference.dense_cycles);
                assert_eq!(group.macs_per_column, reference.macs);
                assert_eq!(group.scheduler_steps, reference.scheduler_steps);
            }
        }
    }

    #[test]
    fn with_scheduler_swaps_the_family_member() {
        let config = TileConfig {
            rows: 4,
            cols: 4,
            pe: PeGeometry::paper(),
        };
        let streams: Vec<Vec<u64>> = (0..4).map(|i| random_stream(60 + i, 240, 0.35)).collect();
        assert_eq!(
            Tile::new(config).scheduler_kind(),
            SchedulerKind::TensorDash
        );
        let dense = run(
            &Tile::with_scheduler(config, SchedulerKind::Dense),
            &streams,
        );
        assert_eq!(dense.cycles, 240, "the dense member prices every row");
        let tensordash = run(
            &Tile::with_scheduler(config, SchedulerKind::TensorDash),
            &streams,
        );
        assert_eq!(tensordash, run(&Tile::new(config), &streams));
        for kind in [SchedulerKind::TwoToFour, SchedulerKind::Tstd] {
            let run = run(&Tile::with_scheduler(config, kind), &streams);
            assert!(
                run.cycles <= 240 && run.cycles >= 120,
                "{kind}: {}",
                run.cycles
            );
        }
    }

    #[test]
    fn baseline_cycles_come_from_the_dense_scheduler() {
        let t = tile(4);
        let dense_tile = Tile::with_scheduler(*t.config(), SchedulerKind::Dense);
        for rows in [1u64, 17, 4096] {
            assert_eq!(t.baseline_cycles(rows), rows);
            assert_eq!(
                t.baseline_cycles(rows),
                dense_tile.baseline_cycles(rows),
                "one code path for every denominator"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn arena_group_size_mismatch_is_rejected() {
        let t = tile(2);
        let _ = t.run_group_arena(&[0u64; 7], 2, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_group_is_rejected() {
        let t = tile(2);
        let _ = t.run_group_arena(&[0u64; 30], 3, 10);
    }
}
