//! Paper-reported reference values, for side-by-side printing.
//!
//! Values stated in the paper's text are exact; per-model bar heights are
//! approximate reads of the figures (the paper does not tabulate them) and
//! are used only for shape comparison, never for calibration claims beyond
//! the calibrated sparsity profiles that `docs/ARCHITECTURE.md` ("The
//! workload stack", `tensordash-models`) describes.

/// Fig 13 total-speedup anchors. The text states the 1.95x mean explicitly;
/// per-model values are approximate figure reads.
pub const FIG13_TOTAL: &[(&str, f64)] = &[
    ("AlexNet", 2.3),
    ("DenseNet121", 1.45),
    ("SqueezeNet", 1.8),
    ("VGG16", 2.2),
    ("img2txt", 2.1),
    ("resnet50_DS90", 1.8),
    ("resnet50_SM90", 1.5),
    ("SNLI", 2.5),
];

/// Fig 13: the stated average speedup.
pub const FIG13_MEAN: f64 = 1.95;

/// Fig 14 anchors stated in the text: DS90 starts at 1.95x settling to
/// ~1.8x; SM90 starts at 1.75x settling to ~1.5x.
pub const FIG14_DS90: (f64, f64) = (1.95, 1.8);
/// See [`FIG14_DS90`].
pub const FIG14_SM90: (f64, f64) = (1.75, 1.5);

/// Table 3 (FP32): compute-area overhead, power overhead, core energy
/// efficiency.
pub const TABLE3_AREA_OVERHEAD: f64 = 1.09;
/// See [`TABLE3_AREA_OVERHEAD`].
pub const TABLE3_POWER_OVERHEAD: f64 = 1.02;
/// See [`TABLE3_AREA_OVERHEAD`].
pub const TABLE3_CORE_EFFICIENCY: f64 = 1.89;

/// Fig 15: overall (chip + DRAM) energy efficiency.
pub const FIG15_OVERALL_EFFICIENCY: f64 = 1.6;

/// Fig 17: average speedup at 1 row and at 16 rows (columns fixed at 4).
pub const FIG17_ROWS: (f64, f64) = (2.1, 1.72);

/// §4.4 bf16: compute area overhead, compute power overhead, core energy
/// efficiency, overall energy efficiency.
pub const BF16: (f64, f64, f64, f64) = (1.13, 1.05, 1.84, 1.43);

/// §4.4 GCN: performance gain and energy-efficiency loss without
/// power-gating.
pub const GCN: (f64, f64) = (1.01, 0.995);

/// Fig 20: at 90% uniform sparsity TensorDash reaches 2.95x of the 3x
/// staging-depth ceiling.
pub const FIG20_AT_90: f64 = 2.95;

/// Formats a measured-vs-paper pair for table printing.
#[must_use]
pub fn compare(measured: f64, paper: f64) -> String {
    format!("{measured:>6.2} (paper ~{paper:.2})")
}
