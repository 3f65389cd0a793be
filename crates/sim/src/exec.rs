//! Chip-level execution: partition one operation across tiles, run the
//! sampled streams bit-exactly, and scale to the full layer.
//!
//! Partitioning follows §3.3: tile rows take distinct scheduled-side
//! streams, tile columns take distinct dense-side outputs, tiles take
//! distinct stream groups. The dense-side outputs are covered in
//! `ceil(outputs / cols)` *passes*; the scheduled stream (and therefore the
//! schedule) repeats identically across passes, so sampled group cycles
//! multiply by the pass count.
//!
//! Each sampled window group is handed to the tile as one
//! [`Tile::run_group_arena`] call, which executes the whole lockstep loop
//! inside the batched scheduler kernel
//! ([`Scheduler::run_masks_arena`](tensordash_core::Scheduler::run_masks_arena))
//! — the dominant cost of every simulation, with no per-cycle dispatch.
//!
//! The sampled region of one operation is additionally exposed as a
//! `SampledPlan`: a list of per-tile-row-group chunks the batch
//! simulator shards across its work-stealing pool, so a single big
//! (transformer-shaped) operation parallelizes *within* one model run.
//! Chunk aggregates are exact `u64` sums, so the input-ordered reduction
//! is byte-identical to this module's serial loop at any thread count.

use crate::config::ChipConfig;
use crate::counters::SimCounters;
use crate::dram::dram_traffic_bits;
use crate::tile::Tile;
use tensordash_trace::{OpTrace, TrainingOp};

/// Which machine to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// The dense data-parallel baseline of Table 2.
    Baseline,
    /// The TensorDash machine (B-side extraction, per-row schedulers).
    TensorDash,
}

tensordash_serde::impl_serde_enum!(ExecMode {
    Baseline,
    TensorDash
});

/// Result of simulating one operation of one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSim {
    /// Simulated machine.
    pub mode: ExecMode,
    /// Full-operation chip compute cycles.
    pub compute_cycles: u64,
    /// Full-operation event counters.
    pub counters: SimCounters,
    /// Measured speedup of the sampled region (TensorDash only; 1.0 for
    /// the baseline).
    pub sampled_speedup: f64,
}

tensordash_serde::impl_serde_struct!(OpSim {
    mode,
    compute_cycles,
    counters,
    sampled_speedup
});

/// Simulates one operation on both machines at once, sharing the
/// (dominant) bit-exact tile simulation between them.
pub(crate) fn simulate_pair(chip: &ChipConfig, tile: &Tile, trace: &OpTrace) -> (OpSim, OpSim) {
    let sampled = run_sampled(chip, tile, trace);
    finish_pair(chip, tile, trace, &sampled)
}

/// Simulates one operation end to end on one machine.
pub(crate) fn simulate_op(
    chip: &ChipConfig,
    tile: &Tile,
    trace: &OpTrace,
    mode: ExecMode,
) -> OpSim {
    let sampled = run_sampled(chip, tile, trace);
    finish(chip, tile, trace, mode, &sampled)
}

/// Scales a fully-merged [`Sampled`] to both machines' full-operation
/// results — the per-op epilogue the batch path runs once after its
/// chunk partials are reduced.
pub(crate) fn finish_pair(
    chip: &ChipConfig,
    tile: &Tile,
    trace: &OpTrace,
    sampled: &Sampled,
) -> (OpSim, OpSim) {
    (
        finish(chip, tile, trace, ExecMode::TensorDash, sampled),
        finish(chip, tile, trace, ExecMode::Baseline, sampled),
    )
}

/// Aggregates of the bit-exact sampled tile runs. Every field is an exact
/// `u64` sum over tile row-groups, so partial aggregates from disjoint
/// chunks merge associatively — the intra-run parallel path reduces chunk
/// partials in input order and the result is byte-identical to the serial
/// loop at any thread count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sampled {
    td_cycles: u64,
    dense_cycles: u64,
    macs_per_column: u64,
    scheduler_steps: u64,
    groups: u64,
}

impl Sampled {
    /// Folds another chunk's aggregates into this one.
    pub(crate) fn absorb(&mut self, other: &Sampled) {
        self.td_cycles += other.td_cycles;
        self.dense_cycles += other.dense_cycles;
        self.macs_per_column += other.macs_per_column;
        self.scheduler_steps += other.scheduler_steps;
        self.groups += other.groups;
    }
}

/// The validated sampled region of one operation, split into per-tile-
/// row-group work items: chunk `c` is the `c`-th `tile.rows`-window group
/// of the trace arena, exactly the slices the serial loop feeds
/// [`Tile::run_group_arena`]. The batch simulator shards one *(layer,
/// op)*'s chunks across its work-stealing pool; running every chunk in
/// order and merging with [`Sampled::absorb`] reproduces the serial run
/// bit for bit.
pub(crate) struct SampledPlan<'a> {
    arena: &'a [u64],
    windows: usize,
    rows: usize,
    /// Windows per tile row-group (the chip's tile row count).
    group_windows: usize,
}

impl<'a> SampledPlan<'a> {
    /// Validates the trace against the chip once, up front.
    ///
    /// # Panics
    ///
    /// Panics if the trace's lane count differs from the chip's PE width,
    /// or if the trace has no sampled windows.
    pub(crate) fn new(chip: &ChipConfig, trace: &'a OpTrace) -> Self {
        assert_eq!(
            trace.lanes,
            chip.tile.pe.lanes(),
            "trace was packed for a different PE width"
        );
        assert!(!trace.is_empty(), "trace has no sampled windows");
        let rows = trace
            .uniform_rows()
            .expect("all sampled streams of one operation cover the same reduction extent");
        SampledPlan {
            arena: trace.arena_masks(),
            windows: trace.num_windows(),
            rows,
            group_windows: chip.tile.rows,
        }
    }

    /// Number of tile row-group chunks (work items) this operation splits
    /// into — at least one.
    pub(crate) fn chunks(&self) -> usize {
        self.windows.div_ceil(self.group_windows)
    }

    /// Runs chunk `chunk` — one tile row-group, consumed straight out of
    /// the trace's flat mask arena with no per-group slice vector.
    pub(crate) fn run_chunk(&self, tile: &Tile, chunk: usize) -> Sampled {
        let start = chunk * self.group_windows;
        let count = self.group_windows.min(self.windows - start);
        let run = tile.run_group_arena(
            &self.arena[start * self.rows..(start + count) * self.rows],
            count,
            self.rows,
        );
        Sampled {
            td_cycles: run.cycles,
            dense_cycles: run.dense_cycles,
            macs_per_column: run.macs_per_column,
            scheduler_steps: run.scheduler_steps,
            groups: 1,
        }
    }
}

fn run_sampled(chip: &ChipConfig, tile: &Tile, trace: &OpTrace) -> Sampled {
    let plan = SampledPlan::new(chip, trace);
    let mut sampled = Sampled::default();
    for chunk in 0..plan.chunks() {
        sampled.absorb(&plan.run_chunk(tile, chunk));
    }
    sampled
}

fn finish(
    chip: &ChipConfig,
    tile: &Tile,
    trace: &OpTrace,
    mode: ExecMode,
    sampled: &Sampled,
) -> OpSim {
    let rows = chip.tile.rows;
    let cols = chip.tile.cols as u64;
    let tiles = chip.tiles as u64;
    let lanes = chip.tile.pe.lanes() as u64;

    // Work decomposition of the full operation.
    let full_groups = trace.total_windows.div_ceil(rows as u64);
    let passes = trace.dims.dense_side_outputs(trace.op).div_ceil(cols);
    let row_scale = trace.row_scale();
    let window_scale = trace.window_scale();

    let Sampled {
        td_cycles: sampled_td_cycles,
        dense_cycles: sampled_dense_cycles,
        macs_per_column: sampled_macs_per_column,
        scheduler_steps: sampled_scheduler_steps,
        groups: sampled_groups,
    } = *sampled;

    // Scale to the full operation: average group cycles × group count ×
    // passes, spread across tiles.
    let scale_groups = full_groups as f64 / sampled_groups as f64;
    let full_tile_cycles_td = sampled_td_cycles as f64 * row_scale * scale_groups * passes as f64;
    // The dense denominator is priced through the tile's dense scheduler —
    // the same code path every speedup in the repo divides by.
    let full_tile_cycles_base = tile.baseline_cycles(trace.total_rows_per_window) as f64
        * full_groups as f64
        * passes as f64;

    let compute_cycles = match mode {
        ExecMode::TensorDash => (full_tile_cycles_td / tiles as f64).ceil() as u64,
        ExecMode::Baseline => (full_tile_cycles_base / tiles as f64).ceil() as u64,
    };

    // Effectual MACs in the full op (each effectual slot is processed once
    // per active column per pass; the final pass may have idle columns,
    // counted via dense_side_outputs exactly).
    let effectual_slots = sampled_macs_per_column as f64 * window_scale * row_scale;
    let active_columns = trace.dims.dense_side_outputs(trace.op) as f64;
    let macs_issued = match mode {
        ExecMode::TensorDash => effectual_slots * active_columns,
        ExecMode::Baseline => trace.dense_rows_total() as f64 * lanes as f64 * active_columns,
    };

    // Memory traffic (identical structure for both machines; both compress
    // zeros off-chip, §4).
    let v = &trace.volumes;
    let dram = dram_traffic_bits(chip, v);
    let dram_cycles = dram.cycles(&chip.dram, chip.frequency_mhz);
    let sram_read_elems = v.sched_elems * passes + v.dense_elems;
    let sram_write_elems = v.out_elems;
    // Every dense-schedule operand row streams through the scratchpads once
    // per pass, both sides, regardless of skipping.
    let rows_streamed = trace.dense_rows_total() * passes;
    let sp_accesses = rows_streamed * lanes * 2 + v.out_elems;
    let transposer_elems = match trace.op {
        TrainingOp::Forward => 0,
        // Backward passes consume reconstructed/transposed tensors (§3.4).
        TrainingOp::InputGrad | TrainingOp::WeightGrad => v.dense_elems + v.sched_elems,
    };

    let scheduler_steps = match mode {
        ExecMode::TensorDash => {
            (sampled_scheduler_steps as f64 * row_scale * scale_groups * passes as f64) as u64
        }
        ExecMode::Baseline => 0,
    };

    let counters = SimCounters {
        compute_cycles,
        dram_cycles,
        macs_issued: macs_issued as u64,
        mac_slots: compute_cycles * chip.macs_per_cycle(),
        sram_read_elems,
        sram_write_elems,
        sp_accesses,
        transposer_elems,
        scheduler_steps,
        dram_read_bits: dram.read_bits,
        dram_write_bits: dram.write_bits,
    };

    let sampled_speedup = match mode {
        ExecMode::TensorDash => {
            if sampled_td_cycles == 0 {
                1.0
            } else {
                sampled_dense_cycles as f64 / sampled_td_cycles as f64
            }
        }
        ExecMode::Baseline => 1.0,
    };

    OpSim {
        mode,
        compute_cycles,
        counters,
        sampled_speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Simulator;
    use tensordash_trace::{ConvDims, SampleSpec, SparsityGen, UniformSparsity};

    /// The session API drives all exec tests.
    fn simulate_op(chip: &ChipConfig, trace: &OpTrace, mode: ExecMode) -> OpSim {
        Simulator::new(*chip).simulate(trace, mode)
    }

    fn trace(sparsity: f64) -> OpTrace {
        let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
        UniformSparsity::new(sparsity).op_trace(
            dims,
            TrainingOp::Forward,
            16,
            &SampleSpec::default(),
            42,
        )
    }

    #[test]
    fn dense_trace_gives_no_speedup() {
        let chip = ChipConfig::paper();
        let t = trace(0.0);
        let td = simulate_op(&chip, &t, ExecMode::TensorDash);
        let base = simulate_op(&chip, &t, ExecMode::Baseline);
        assert_eq!(td.compute_cycles, base.compute_cycles);
        assert!((td.sampled_speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_sparse_trace_speeds_up_but_below_two() {
        let chip = ChipConfig::paper();
        let t = trace(0.5);
        let td = simulate_op(&chip, &t, ExecMode::TensorDash);
        let base = simulate_op(&chip, &t, ExecMode::Baseline);
        let speedup = base.compute_cycles as f64 / td.compute_cycles as f64;
        assert!(speedup > 1.2, "speedup {speedup}");
        assert!(speedup < 2.0, "speedup {speedup} exceeds the work bound");
    }

    #[test]
    fn ninety_percent_sparse_approaches_depth_limit() {
        let chip = ChipConfig::paper();
        let t = trace(0.9);
        let td = simulate_op(&chip, &t, ExecMode::TensorDash);
        let base = simulate_op(&chip, &t, ExecMode::Baseline);
        let speedup = base.compute_cycles as f64 / td.compute_cycles as f64;
        assert!(speedup > 2.4, "speedup {speedup}");
        assert!(
            speedup <= 3.0 + 1e-9,
            "speedup {speedup} beats the depth limit"
        );
    }

    #[test]
    fn baseline_issues_every_mac_slot() {
        let chip = ChipConfig::paper();
        let t = trace(0.5);
        let base = simulate_op(&chip, &t, ExecMode::Baseline);
        let expected = t.dense_rows_total() * 16 * t.dims.dense_side_outputs(t.op);
        assert_eq!(base.counters.macs_issued, expected);
        // TensorDash issues roughly half at 50% sparsity.
        let td = simulate_op(&chip, &t, ExecMode::TensorDash);
        let ratio = td.counters.macs_issued as f64 / expected as f64;
        assert!((ratio - 0.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn dram_traffic_is_mode_independent() {
        let chip = ChipConfig::paper();
        let t = trace(0.7);
        let td = simulate_op(&chip, &t, ExecMode::TensorDash);
        let base = simulate_op(&chip, &t, ExecMode::Baseline);
        assert_eq!(td.counters.dram_read_bits, base.counters.dram_read_bits);
        assert_eq!(td.counters.dram_write_bits, base.counters.dram_write_bits);
    }

    #[test]
    fn scheduler_steps_zero_for_baseline() {
        let chip = ChipConfig::paper();
        let t = trace(0.5);
        assert_eq!(
            simulate_op(&chip, &t, ExecMode::Baseline)
                .counters
                .scheduler_steps,
            0
        );
        assert!(
            simulate_op(&chip, &t, ExecMode::TensorDash)
                .counters
                .scheduler_steps
                > 0
        );
    }

    #[test]
    fn more_tiles_cut_compute_cycles() {
        let t = trace(0.5);
        let chip16 = ChipConfig::paper();
        let chip4 = ChipConfig {
            tiles: 4,
            ..ChipConfig::paper()
        };
        let c16 = simulate_op(&chip16, &t, ExecMode::TensorDash).compute_cycles;
        let c4 = simulate_op(&chip4, &t, ExecMode::TensorDash).compute_cycles;
        assert!((c4 as f64 / c16 as f64 - 4.0).abs() < 0.05);
    }

    #[test]
    fn fully_connected_layers_simulate() {
        let chip = ChipConfig::paper();
        let dims = ConvDims::fully_connected(64, 4096, 1000);
        let t = UniformSparsity::new(0.4).op_trace(
            dims,
            TrainingOp::Forward,
            16,
            &SampleSpec::default(),
            7,
        );
        let td = simulate_op(&chip, &t, ExecMode::TensorDash);
        let base = simulate_op(&chip, &t, ExecMode::Baseline);
        assert!(td.compute_cycles < base.compute_cycles);
    }

    #[test]
    fn mac_slots_track_chip_width() {
        let chip = ChipConfig::paper();
        let t = trace(0.3);
        let td = simulate_op(&chip, &t, ExecMode::TensorDash);
        assert_eq!(td.counters.mac_slots, td.compute_cycles * 4096);
    }
}
