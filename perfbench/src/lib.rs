//! # tensordash-perfbench
//!
//! The repository's benchmark: four workloads driven through the public
//! entry points production uses — `ExperimentSpec::run_in` with a
//! `TraceCache` and `Simulator` (`zoo_cold`, `chip_sweep`), `Service`
//! over real HTTP (`serve_open`), and `capture_training` with
//! `train_report_document` (`train_live`). Every run checks its reports
//! against an independent reference before it reports a number. With
//! `--trace 1` the same calls are made one layer at a time under spans,
//! giving per-layer self times. See `README.md` beside this crate.

#![forbid(unsafe_code)]

pub mod calls;
pub mod catalog;
pub mod chip_sweep;
pub mod gate;
pub mod inproc;
pub mod report;
pub mod serve_open;
pub mod spans;
pub mod stats;
pub mod train_live;
pub mod zoo_cold;

use report::Outcome;
use spans::Recorder;
use std::path::PathBuf;

/// How one run goes.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (see [`catalog::WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether to run the traced breakdown.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Where spans and scratch files go.
    pub out_dir: PathBuf,
}

impl Options {
    /// Defaults for `workload`: seed 1, the catalog's run length,
    /// untraced, full scale, output under this crate's `out/`.
    #[must_use]
    pub fn new(workload: &str) -> Self {
        Options {
            workload: workload.to_string(),
            seed: 1,
            seconds: catalog::RUN_SECONDS as f64,
            trace: false,
            tiny: false,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        }
    }
}

/// Runs one workload and fills in `failed_share`.
///
/// # Errors
///
/// An unknown workload, or a workload that could not run at all.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = match opts.workload.as_str() {
        "zoo_cold" => zoo_cold::run(opts),
        "chip_sweep" => chip_sweep::run(opts),
        "serve_open" => serve_open::run(opts),
        "train_live" => train_live::run(opts),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    out.set("failed_share", share);
    Ok(out)
}

/// Writes the run's spans to `<out_dir>/spans-<workload>-<seed>.json`.
///
/// # Errors
///
/// The I/O error, as text.
pub fn write_spans(opts: &Options, workload: &str, rec: &Recorder) -> Result<(), String> {
    let path = opts
        .out_dir
        .join(format!("spans-{workload}-{}.json", opts.seed));
    rec.write_json(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
