//! What one run measured, and how it is printed.

use crate::catalog::{self, Def};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: &'static str,
    /// Operations attempted (model evaluations, requests, training runs).
    pub attempted: u64,
    /// Operations that failed, plus report mismatches found by the gates.
    pub failed: u64,
    /// One line per correctness-gate mismatch.
    pub mismatches: Vec<String>,
    /// End-to-end metrics: value and the number of samples behind it.
    pub e2e: BTreeMap<&'static str, (f64, usize)>,
    /// Per-layer metrics of the traced run (every catalog name, 0 when
    /// the workload never calls the layer).
    pub layer: BTreeMap<String, f64>,
    /// Extra human-readable lines (phase tallies, the r20 split).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome with every per-layer metric at 0.
    #[must_use]
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            e2e: BTreeMap::new(),
            layer: catalog::per_layer(&catalog::model_names())
                .into_iter()
                .map(|d| (d.name, 0.0))
                .collect(),
            notes: Vec::new(),
        }
    }

    /// Records a gate mismatch, which counts as a failed operation.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Sets an end-to-end metric.
    pub fn set_e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.e2e.insert(name, (value, samples));
    }

    /// Sets a per-layer metric (the name must be in the catalog).
    ///
    /// # Panics
    ///
    /// Panics on a name the catalog does not list — a benchmark bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .layer
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a catalog metric"));
        *slot = value;
    }

    /// Adds to a per-layer metric.
    ///
    /// # Panics
    ///
    /// As [`set`](Outcome::set).
    pub fn add(&mut self, name: &str, value: f64) {
        let current = self.layer.get(name).copied().unwrap_or_else(|| {
            panic!("`{name}` is not a catalog metric");
        });
        self.set(name, current + value);
    }

    /// Whether every gate held and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// The human-readable report: every end-to-end metric, every
    /// per-layer metric with its unit, the notes and any mismatch.
    #[must_use]
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {}: attempted {}, failed {}, correct {}",
            self.workload,
            self.attempted,
            self.failed,
            self.correct()
        );
        for d in catalog::end_to_end() {
            if let Some((value, n)) = self.e2e.get(d.name.as_str()) {
                let _ = writeln!(out, "e2e   {:<28} {value:>16.6} {} (n={n})", d.name, d.unit);
            }
        }
        for d in catalog::per_layer(&catalog::model_names()) {
            let _ = writeln!(
                out,
                "layer {:<28} {:>16.6} {}",
                d.name, self.layer[&d.name], d.unit
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note  {note}");
        }
        for m in &self.mismatches {
            let _ = writeln!(out, "MISMATCH {m}");
        }
        out
    }

    /// The one-line JSON result: the end-to-end metrics untraced, the
    /// per-layer metrics traced.
    #[must_use]
    pub fn json_line(&self, traced: bool) -> String {
        let defs: Vec<Def> = if traced {
            catalog::per_layer(&catalog::model_names())
        } else {
            catalog::end_to_end()
        };
        let metrics = defs
            .iter()
            .map(|d| {
                let value = if traced {
                    self.layer[&d.name]
                } else {
                    self.e2e.get(d.name.as_str()).map_or(0.0, |v| v.0)
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`), or 0
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
