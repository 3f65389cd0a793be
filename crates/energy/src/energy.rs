//! Event-driven energy: counters × per-event energies.

use crate::constants::EnergyConstants;
use tensordash_sim::{ChipConfig, SimCounters};

/// Energy of one run, broken down the way the paper's Fig 16 plots it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Compute-core energy in joules (MACs + schedulers + muxes).
    pub core_j: f64,
    /// On-chip SRAM energy in joules (AM/BM/CM + scratchpads + transposers).
    pub sram_j: f64,
    /// Off-chip DRAM energy in joules.
    pub dram_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.core_j + self.sram_j + self.dram_j
    }

    /// Percentage shares `(core, sram, dram)` — the Fig 16 bars.
    #[must_use]
    pub fn shares(&self) -> (f64, f64, f64) {
        let t = self.total_j();
        if t == 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                self.core_j / t * 100.0,
                self.sram_j / t * 100.0,
                self.dram_j / t * 100.0,
            )
        }
    }
}

/// The event-driven energy model.
///
/// Per-event energies derive from the paper's Table 3 power figures (see
/// [`EnergyConstants`]); SRAM and DRAM energies are CACTI/Micron-class
/// constants. The TensorDash-specific components (schedulers, muxes) charge
/// only when `scheduler_steps`/`macs_issued` are non-zero, so a power-gated
/// TensorDash (§3.5) converges to the baseline's energy.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    chip: ChipConfig,
    k: EnergyConstants,
}

impl EnergyModel {
    /// Builds a model for `chip` with the paper constants.
    #[must_use]
    pub fn new(chip: ChipConfig) -> Self {
        EnergyModel {
            chip,
            k: EnergyConstants::paper(),
        }
    }

    /// The chip this model was built for.
    #[must_use]
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// The constants in use.
    #[must_use]
    pub fn constants(&self) -> &EnergyConstants {
        &self.k
    }

    /// Evaluates a counter set into a Fig 16-style breakdown.
    #[must_use]
    pub fn evaluate(&self, counters: &SimCounters) -> EnergyBreakdown {
        let k = &self.k;
        let (mult_scale, datapath_scale, sched_scale) = match self.chip.value_bits {
            16 => (
                k.bf16_multiplier_scale,
                k.bf16_datapath_scale,
                k.bf16_scheduler_scale,
            ),
            _ => (1.0, 1.0, 1.0),
        };
        let pj = 1e-12;

        let mac_pj = k.mac_energy_pj() * mult_scale;
        let active = counters.macs_issued as f64 * mac_pj;
        let idle_slots = counters.mac_slots.saturating_sub(counters.macs_issued) as f64;
        let idle = idle_slots * mac_pj * k.idle_mac_fraction;
        let scheduler = counters.scheduler_steps as f64 * k.scheduler_step_pj() * sched_scale;
        let amux = if counters.scheduler_steps > 0 {
            counters.macs_issued as f64 * k.amux_mac_pj() * datapath_scale
        } else {
            0.0
        };
        let core_j = (active + idle + scheduler + amux) * pj;

        // SRAM accesses move value_bits per element; the constant is per
        // 32-bit access.
        let width_scale = f64::from(self.chip.value_bits) / 32.0;
        let sram = (counters.sram_read_elems + counters.sram_write_elems) as f64
            * k.sram_access_pj
            * width_scale;
        let sp = counters.sp_accesses as f64 * k.scratchpad_access_pj * width_scale;
        let transpose = counters.transposer_elems as f64 * k.transposer_elem_pj * width_scale;
        let sram_j = (sram + sp + transpose) * pj;

        let dram_j =
            (counters.dram_read_bits + counters.dram_write_bits) as f64 * k.dram_pj_per_bit * pj;

        EnergyBreakdown {
            core_j,
            sram_j,
            dram_j,
        }
    }

    /// Core-only energy efficiency of TensorDash over the baseline
    /// (the Fig 15 "Core Energy Effic." bars).
    #[must_use]
    pub fn core_efficiency(&self, baseline: &SimCounters, tensordash: &SimCounters) -> f64 {
        let b = self.evaluate(baseline).core_j;
        let t = self.evaluate(tensordash).core_j;
        if t == 0.0 {
            1.0
        } else {
            b / t
        }
    }

    /// Whole-system energy efficiency (the Fig 15 "Overall" bars).
    #[must_use]
    pub fn overall_efficiency(&self, baseline: &SimCounters, tensordash: &SimCounters) -> f64 {
        let b = self.evaluate(baseline).total_j();
        let t = self.evaluate(tensordash).total_j();
        if t == 0.0 {
            1.0
        } else {
            b / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counters shaped like a 50%-sparse conv running at ~1.9x speedup.
    fn pair() -> (SimCounters, SimCounters) {
        let baseline = SimCounters {
            compute_cycles: 1000,
            dram_cycles: 100,
            macs_issued: 4_096_000,
            mac_slots: 4_096_000,
            sram_read_elems: 100_000,
            sram_write_elems: 20_000,
            sp_accesses: 2_000_000,
            transposer_elems: 50_000,
            scheduler_steps: 0,
            // Conv layers reuse each fetched element hundreds of times, so
            // DRAM bits are far below MAC counts.
            dram_read_bits: 600_000,
            dram_write_bits: 200_000,
        };
        let tensordash = SimCounters {
            compute_cycles: 520,
            macs_issued: 2_048_000,
            mac_slots: 520 * 4096,
            scheduler_steps: 520 * 64,
            ..baseline
        };
        (baseline, tensordash)
    }

    #[test]
    fn core_efficiency_near_two_for_half_sparsity() {
        let m = EnergyModel::new(ChipConfig::paper());
        let (b, t) = pair();
        let eff = m.core_efficiency(&b, &t);
        assert!(eff > 1.6 && eff < 2.1, "core efficiency {eff}");
    }

    #[test]
    fn overall_efficiency_lower_than_core() {
        // Memory energy is mode-independent, diluting the core win
        // (1.89x core vs 1.6x overall in the paper).
        let m = EnergyModel::new(ChipConfig::paper());
        let (b, t) = pair();
        let overall = m.overall_efficiency(&b, &t);
        let core = m.core_efficiency(&b, &t);
        assert!(overall < core);
        assert!(overall > 1.0);
    }

    #[test]
    fn breakdown_shares_sum_to_hundred() {
        let m = EnergyModel::new(ChipConfig::paper());
        let (b, _) = pair();
        let e = m.evaluate(&b);
        let (core, sram, dram) = e.shares();
        assert!((core + sram + dram - 100.0).abs() < 1e-9);
        assert!(core > 50.0, "core should dominate: {core}%");
    }

    #[test]
    fn power_gated_tensordash_matches_baseline() {
        // §3.5: with scheduler_steps = 0 (power-gated) and dense issue,
        // TensorDash's energy equals the baseline's.
        let m = EnergyModel::new(ChipConfig::paper());
        let (b, _) = pair();
        let gated = SimCounters {
            scheduler_steps: 0,
            ..b
        };
        assert!((m.evaluate(&b).total_j() - m.evaluate(&gated).total_j()).abs() < 1e-18);
    }

    #[test]
    fn bf16_cuts_core_energy() {
        let (b, _) = pair();
        let fp32 = EnergyModel::new(ChipConfig::paper()).evaluate(&b);
        let bf16 = EnergyModel::new(ChipConfig::paper_bf16()).evaluate(&b);
        assert!(bf16.core_j < fp32.core_j);
        assert!(bf16.sram_j < fp32.sram_j);
    }

    #[test]
    fn unused_scheduler_draws_nothing() {
        // The amux term must not charge when TensorDash is bypassed.
        let m = EnergyModel::new(ChipConfig::paper());
        let c = SimCounters {
            macs_issued: 1000,
            mac_slots: 1000,
            scheduler_steps: 0,
            ..Default::default()
        };
        let with_sched = SimCounters {
            scheduler_steps: 10,
            ..c
        };
        assert!(m.evaluate(&with_sched).core_j > m.evaluate(&c).core_j);
    }
}
