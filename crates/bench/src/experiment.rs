//! Declarative experiments: a serializable [`ExperimentSpec`] describing
//! *what* to evaluate (models × chip × evaluation spec), the registry of
//! the paper's named experiments, and the unified JSON output path — the
//! machinery behind the `tensordash` CLI.
//!
//! An experiment is data. The same description round-trips through TOML
//! (the CLI's `--config` input) and produces the same JSON report as the
//! in-code builder path:
//!
//! ```
//! use tensordash_bench::experiment::ExperimentSpec;
//! use tensordash_sim::{ChipConfig, EvalSpec};
//!
//! let spec = ExperimentSpec::new("smoke")
//!     .with_models(["AlexNet"])
//!     .with_chip(ChipConfig::builder().tiles(2).build().unwrap())
//!     .with_eval(EvalSpec::builder().streams(4, 32).build().unwrap());
//! let toml = tensordash_serde::to_toml_string(&spec).unwrap();
//! let back: ExperimentSpec = tensordash_serde::from_toml_str(&toml).unwrap();
//! assert_eq!(back, spec);
//! ```

use crate::csvout::results_path;
use crate::experiments;
use crate::harness::{EvalAbort, ModelEval, TraceCache};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tensordash_models::{gcn, paper_models, vit_l_mlp, ModelSpec};
use tensordash_serde::{Deserialize, Error as SerdeError, Serialize, Value};
use tensordash_sim::{CancelToken, ChipConfig, EvalSpec, ModelReport, Simulator, TraceSourceSpec};
use tensordash_store::TraceStore;
use tensordash_trace::{RecordedSource, TraceSource};

/// How a run resolves its trace sources. The local CLI trusts bare
/// filesystem paths ([`SourceContext::local`]); the resident service
/// confines `recorded` paths to its `--trace-dir` and resolves `stored`
/// digests against the shared [`TraceStore`]
/// ([`SourceContext::service`]) — a request can never read a file the
/// operator did not place (or a client did not upload) under that root.
#[derive(Debug, Clone, Copy)]
pub struct SourceContext<'a> {
    /// The content-addressed store `stored` digests resolve against.
    pub store: Option<&'a TraceStore>,
    /// When set, `recorded` paths resolve relative to this root and must
    /// not escape it (the service jail).
    pub trace_root: Option<&'a Path>,
    /// Whether bare filesystem paths are trusted as-is (the local CLI).
    /// Without a `trace_root`, untrusted contexts reject `recorded`
    /// specs outright.
    pub direct_paths: bool,
}

impl<'a> SourceContext<'a> {
    /// The local CLI context: direct paths allowed, no store.
    #[must_use]
    pub fn local() -> Self {
        SourceContext {
            store: None,
            trace_root: None,
            direct_paths: true,
        }
    }

    /// A service context: `recorded` paths are jailed under the store's
    /// root, `stored` digests resolve in the store, nothing else is
    /// readable. Pass `None` for a service started without
    /// `--trace-dir`, which rejects both source kinds.
    #[must_use]
    pub fn service(store: Option<&'a TraceStore>) -> Self {
        SourceContext {
            store,
            trace_root: store.map(TraceStore::root),
            direct_paths: false,
        }
    }

    /// Attaches a store (the CLI's `--trace-dir`, resolving `stored`
    /// digests without jailing `recorded` paths).
    #[must_use]
    pub fn with_store(mut self, store: &'a TraceStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Resolves a `recorded` path under this context's trust rules.
    fn resolve_recorded(&self, path: &str) -> Result<PathBuf, ExperimentError> {
        let Some(root) = self.trace_root else {
            if self.direct_paths {
                return Ok(PathBuf::from(path));
            }
            return Err(ExperimentError::Source(
                "this service has no --trace-dir; `recorded` paths are not served \
                 (upload the artifact and submit a `stored` digest instead)"
                    .to_string(),
            ));
        };
        let root = root.canonicalize().map_err(|e| {
            ExperimentError::Source(format!(
                "trace directory `{}` is not readable: {e}",
                root.display()
            ))
        })?;
        let resolved = root.join(path).canonicalize().map_err(|_| {
            ExperimentError::Source(format!(
                "recorded artifact `{path}` not found under the trace directory"
            ))
        })?;
        if !resolved.starts_with(&root) {
            return Err(ExperimentError::Source(format!(
                "recorded artifact `{path}` escapes the trace directory"
            )));
        }
        Ok(resolved)
    }

    /// Resolves a `stored` digest to the store that will serve it.
    fn resolve_stored(&self, digest: &str) -> Result<(&'a TraceStore, u64), ExperimentError> {
        let store = self.store.ok_or_else(|| {
            ExperimentError::Source(
                "`stored` sources need a content-addressed trace store; pass --trace-dir"
                    .to_string(),
            )
        })?;
        let parsed = tensordash_store::parse_digest(digest)
            .ok_or_else(|| ExperimentError::Source(format!("invalid stored digest `{digest}`")))?;
        Ok((store, parsed))
    }
}

/// A declarative model-evaluation experiment: which models, on which chip,
/// under which evaluation spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment label (names the report and output files).
    pub name: String,
    /// Zoo models to evaluate, by name; empty means the paper's full
    /// eight-model sweep.
    pub models: Vec<String>,
    /// The machine.
    pub chip: ChipConfig,
    /// The methodology.
    pub eval: EvalSpec,
}

impl ExperimentSpec {
    /// A spec evaluating the full zoo on the paper chip at sweep effort.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ExperimentSpec {
            name: name.into(),
            models: Vec::new(),
            chip: ChipConfig::paper(),
            eval: EvalSpec::sweep(),
        }
    }

    /// Restricts the evaluation to the given zoo model names.
    #[must_use]
    pub fn with_models<S: Into<String>>(mut self, models: impl IntoIterator<Item = S>) -> Self {
        self.models = models.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the machine.
    #[must_use]
    pub fn with_chip(mut self, chip: ChipConfig) -> Self {
        self.chip = chip;
        self
    }

    /// Sets the methodology.
    #[must_use]
    pub fn with_eval(mut self, eval: EvalSpec) -> Self {
        self.eval = eval;
        self
    }

    /// Swaps which member of the scheduler family the spec's chip runs
    /// (everything else — models, traces, methodology — unchanged, which
    /// is what makes scheduler comparisons apples-to-apples).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: tensordash_sim::SchedulerKind) -> Self {
        self.chip.scheduler = scheduler;
        self
    }

    /// The models this spec resolves to.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::UnknownModel`] when a requested name is
    /// not in the zoo, and [`ExperimentError::DuplicateModel`] when the
    /// same model is requested twice — reports are keyed by model name, so
    /// duplicates would silently collapse in the JSON summary.
    pub fn resolve_models(&self) -> Result<Vec<ModelSpec>, ExperimentError> {
        if self.models.is_empty() {
            return Ok(paper_models());
        }
        let mut resolved: Vec<ModelSpec> = Vec::with_capacity(self.models.len());
        for name in &self.models {
            let model = zoo_models()
                .into_iter()
                .find(|m| m.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| ExperimentError::UnknownModel(name.clone()))?;
            if resolved.iter().any(|m| m.name == model.name) {
                return Err(ExperimentError::DuplicateModel(model.name));
            }
            resolved.push(model);
        }
        Ok(resolved)
    }

    /// Validates the spec without running it, under the local CLI's
    /// trust rules. See [`validate_in`](ExperimentSpec::validate_in).
    ///
    /// # Errors
    ///
    /// As [`validate_in`](ExperimentSpec::validate_in).
    pub fn validate(&self) -> Result<(), ExperimentError> {
        self.validate_in(&SourceContext::local())
    }

    /// Validates the spec without running it — what the service checks
    /// at submit time so a client mistake fails fast instead of consuming
    /// a queue slot: model names must resolve (calibrated source), a
    /// recorded source must name an existing artifact inside the
    /// context's jail and no models, and a stored source must name an
    /// object present in the context's store.
    ///
    /// # Errors
    ///
    /// As [`run_in`](ExperimentSpec::run_in), minus artifact parsing
    /// (a corrupt file still fails at run time).
    pub fn validate_in(&self, ctx: &SourceContext<'_>) -> Result<(), ExperimentError> {
        match &self.eval.source {
            TraceSourceSpec::Calibrated => self.resolve_models().map(|_| ()),
            TraceSourceSpec::Recorded { path } => {
                if !self.models.is_empty() {
                    return Err(ExperimentError::RecordedWithModels);
                }
                let resolved = ctx.resolve_recorded(path)?;
                if !resolved.is_file() {
                    return Err(ExperimentError::Source(format!(
                        "recorded artifact `{path}` not found"
                    )));
                }
                Ok(())
            }
            TraceSourceSpec::Stored { digest } => {
                if !self.models.is_empty() {
                    return Err(ExperimentError::RecordedWithModels);
                }
                let (store, parsed) = ctx.resolve_stored(digest)?;
                if !store.contains(parsed) {
                    return Err(ExperimentError::Source(format!(
                        "no stored trace with digest {parsed:016x}"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Runs the experiment: one [`ModelReport`] per resolved model
    /// (calibrated source), or one report for the replayed recording.
    ///
    /// # Errors
    ///
    /// As [`run_in`](ExperimentSpec::run_in).
    pub fn run(&self) -> Result<Vec<ModelReport>, ExperimentError> {
        self.run_cached(&TraceCache::new())
    }

    /// As [`run`](ExperimentSpec::run), building traces through `cache`,
    /// under the local CLI's trust rules (direct filesystem paths, no
    /// store).
    ///
    /// # Errors
    ///
    /// As [`run_in`](ExperimentSpec::run_in).
    pub fn run_cached(&self, cache: &TraceCache) -> Result<Vec<ModelReport>, ExperimentError> {
        self.run_in(cache, &SourceContext::local(), &mut |_, _| {})
    }

    /// The one execution path every consumer shares — the one-shot CLI,
    /// the resident service, and tests all produce their reports here, so
    /// `serve` == `--config` == direct [`Simulator`] byte-for-byte.
    /// `ctx` decides how trace sources resolve (direct paths locally, the
    /// `--trace-dir` jail and content-addressed store in the service);
    /// `observe(label, wall_seconds)` is called once per evaluated
    /// workload (the service's `/metrics` hook). A `stored` trace is
    /// pinned against concurrent GC for the duration of its replay.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::UnknownModel`]/[`DuplicateModel`](ExperimentError::DuplicateModel)
    /// as [`resolve_models`](ExperimentSpec::resolve_models);
    /// [`ExperimentError::RecordedWithModels`] when a recorded or stored
    /// source is combined with a model list (a recording *is* the
    /// workload); and [`ExperimentError::Source`] for unreadable/corrupt/
    /// escaping artifacts, missing store objects, or a replay mismatch
    /// (e.g. lane width).
    pub fn run_in(
        &self,
        cache: &TraceCache,
        ctx: &SourceContext<'_>,
        observe: &mut dyn FnMut(&str, f64),
    ) -> Result<Vec<ModelReport>, ExperimentError> {
        self.run_in_cancellable(cache, ctx, observe, &CancelToken::unbounded())
    }

    /// As [`run_in`](ExperimentSpec::run_in) under a cancel token — the
    /// service's job-deadline path. The token is checked at every
    /// (layer, op) simulation boundary; a fired token aborts the run with
    /// [`ExperimentError::DeadlineExceeded`]. Cancellation cannot poison
    /// the shared [`TraceCache`]: trace builds always run to completion,
    /// only simulation work is abandoned.
    ///
    /// # Errors
    ///
    /// As [`run_in`](ExperimentSpec::run_in), plus
    /// [`ExperimentError::DeadlineExceeded`] when `cancel` fires before
    /// the reports are complete.
    pub fn run_in_cancellable(
        &self,
        cache: &TraceCache,
        ctx: &SourceContext<'_>,
        observe: &mut dyn FnMut(&str, f64),
        cancel: &CancelToken,
    ) -> Result<Vec<ModelReport>, ExperimentError> {
        let sim = Simulator::new(self.chip);
        match &self.eval.source {
            TraceSourceSpec::Calibrated => {
                let models = self.resolve_models()?;
                let mut reports = Vec::with_capacity(models.len());
                for model in &models {
                    let t0 = Instant::now();
                    let report = sim
                        .eval_model_cached_cancellable(
                            model,
                            &self.eval,
                            cache,
                            &model.name,
                            cancel,
                        )
                        .map_err(|_| ExperimentError::DeadlineExceeded)?;
                    observe(&model.name, t0.elapsed().as_secs_f64());
                    reports.push(report);
                }
                Ok(reports)
            }
            TraceSourceSpec::Recorded { path } => {
                if !self.models.is_empty() {
                    return Err(ExperimentError::RecordedWithModels);
                }
                let resolved = ctx.resolve_recorded(path)?;
                let bytes = std::fs::read(&resolved).map_err(|e| {
                    ExperimentError::Source(format!("cannot read recorded artifact `{path}`: {e}"))
                })?;
                let source = RecordedSource::from_bytes(&bytes).map_err(|e| {
                    ExperimentError::Source(format!("invalid recorded artifact `{path}`: {e}"))
                })?;
                self.replay(&sim, &source, cache, observe, cancel)
            }
            TraceSourceSpec::Stored { digest } => {
                if !self.models.is_empty() {
                    return Err(ExperimentError::RecordedWithModels);
                }
                let (store, parsed) = ctx.resolve_stored(digest)?;
                let _pin = store.pin(parsed);
                let source = store
                    .load(parsed)
                    .map_err(|e| ExperimentError::Source(e.to_string()))?;
                self.replay(&sim, &source, cache, observe, cancel)
            }
        }
    }

    /// The shared tail of both replay arms: recorded files and stored
    /// objects produce their reports through the exact same calls, so a
    /// trace gives byte-identical results however it arrived.
    fn replay(
        &self,
        sim: &Simulator,
        source: &RecordedSource,
        cache: &TraceCache,
        observe: &mut dyn FnMut(&str, f64),
        cancel: &CancelToken,
    ) -> Result<Vec<ModelReport>, ExperimentError> {
        let label = source.label().to_string();
        let t0 = Instant::now();
        let report = sim
            .eval_source_cached_cancellable(source, &self.eval, cache, &label, cancel)
            .map_err(|e| match e {
                EvalAbort::Source(e) => ExperimentError::Source(e.to_string()),
                EvalAbort::Cancelled => ExperimentError::DeadlineExceeded,
            })?;
        observe(&label, t0.elapsed().as_secs_f64());
        Ok(vec![report])
    }

    /// Packages the spec and its reports as one self-describing document —
    /// what the CLI writes as JSON.
    #[must_use]
    pub fn report_document(&self, reports: &[ModelReport]) -> Value {
        let summary = Value::Table(
            reports
                .iter()
                .map(|r| (r.name.clone(), Value::Float(r.total_speedup())))
                .collect(),
        );
        Value::Table(vec![
            ("experiment".to_string(), self.serialize()),
            ("total_speedup".to_string(), summary),
            (
                "reports".to_string(),
                Value::Array(reports.iter().map(Serialize::serialize).collect()),
            ),
        ])
    }
}

/// Every model name the zoo can resolve: the eight paper models, the
/// GCN guard-rail case, and the transformer-scale ViT-L MLP block.
#[must_use]
pub fn zoo_models() -> Vec<ModelSpec> {
    let mut models = paper_models();
    models.push(gcn());
    models.push(vit_l_mlp());
    models
}

/// Why an experiment could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// A requested model name is not in the zoo.
    UnknownModel(String),
    /// The same model was requested more than once.
    DuplicateModel(String),
    /// A recorded source was combined with an explicit model list.
    RecordedWithModels,
    /// A recorded artifact could not be loaded or replayed.
    Source(String),
    /// The run's cancel token (a job deadline) fired before the reports
    /// were complete.
    DeadlineExceeded,
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownModel(name) => {
                let known: Vec<String> = zoo_models().into_iter().map(|m| m.name).collect();
                write!(f, "unknown model `{name}` (known: {})", known.join(", "))
            }
            ExperimentError::DuplicateModel(name) => {
                write!(f, "model `{name}` requested more than once")
            }
            ExperimentError::RecordedWithModels => write!(
                f,
                "a recorded source replays its own workload; drop the `models` list"
            ),
            ExperimentError::Source(message) => f.write_str(message),
            ExperimentError::DeadlineExceeded => {
                f.write_str("job deadline exceeded before the evaluation finished")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

impl Serialize for ExperimentSpec {
    fn serialize(&self) -> Value {
        Value::Table(vec![
            ("name".to_string(), self.name.serialize()),
            ("models".to_string(), self.models.serialize()),
            ("chip".to_string(), self.chip.serialize()),
            ("eval".to_string(), self.eval.serialize()),
        ])
    }
}

impl Deserialize for ExperimentSpec {
    /// Every key is optional: an empty document is the full paper sweep on
    /// the Table 2 chip. Unknown keys are rejected — with every field
    /// defaulted, a misspelled section would otherwise silently run the
    /// wrong experiment. `chip` and `eval` inherit their own defaults (see
    /// their `Deserialize` impls) and pass the same validation as the
    /// builders.
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        value.expect_keys(&["name", "models", "chip", "eval"])?;
        let mut spec = ExperimentSpec::new("custom");
        if let Some(v) = value.get("name") {
            spec.name = String::deserialize(v).map_err(|e| e.at("name"))?;
        }
        if let Some(v) = value.get("models") {
            spec.models = Vec::<String>::deserialize(v).map_err(|e| e.at("models"))?;
        }
        if let Some(v) = value.get("chip") {
            spec.chip = ChipConfig::deserialize(v).map_err(|e| e.at("chip"))?;
        }
        if let Some(v) = value.get("eval") {
            spec.eval = EvalSpec::deserialize(v).map_err(|e| e.at("eval"))?;
        }
        Ok(spec)
    }
}

/// Writes a JSON document under the results directory — the one output
/// path every experiment (named or declarative) shares with the CSVs.
/// `file_name` is sanitized to a flat file name (path separators and other
/// non-portable characters become `-`), since it is often derived from a
/// user-chosen experiment name.
///
/// # Errors
///
/// Returns the underlying I/O error on write failure.
pub fn write_json_report(file_name: &str, document: &Value) -> std::io::Result<PathBuf> {
    let safe: String = file_name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    let path = results_path(&safe);
    std::fs::write(&path, tensordash_serde::json::write(document))?;
    println!("  -> wrote {}", path.display());
    Ok(path)
}

/// One named, runnable regeneration of a paper table/figure.
pub struct NamedExperiment {
    /// CLI name (e.g. `fig13`).
    pub name: &'static str,
    /// One-line description shown by `tensordash list`.
    pub summary: &'static str,
    runner: fn(),
}

impl NamedExperiment {
    /// Runs the experiment (prints its table and writes its CSV).
    pub fn run(&self) {
        (self.runner)();
    }
}

/// The registry of named experiments, in the paper's presentation order.
#[must_use]
pub fn registry() -> &'static [NamedExperiment] {
    &[
        NamedExperiment {
            name: "table2",
            summary: "Table 2: the modelled accelerator configuration",
            runner: || {
                experiments::table2::run();
            },
        },
        NamedExperiment {
            name: "fig01",
            summary: "Fig 1: potential speedup from targeted-operand sparsity",
            runner: || experiments::fig01::run(),
        },
        NamedExperiment {
            name: "fig13",
            summary: "Fig 13: speedup per model and training convolution",
            runner: || {
                experiments::fig13::run();
            },
        },
        NamedExperiment {
            name: "fig14",
            summary: "Fig 14: speedup as training progresses",
            runner: || {
                experiments::fig14::run();
            },
        },
        NamedExperiment {
            name: "table3",
            summary: "Table 3: area and power breakdown, core energy efficiency",
            runner: || {
                experiments::table3::run();
            },
        },
        NamedExperiment {
            name: "fig15",
            summary: "Fig 15: core and overall energy efficiency per model",
            runner: || {
                experiments::fig15::run();
            },
        },
        NamedExperiment {
            name: "fig16",
            summary: "Fig 16: energy breakdown vs the baseline",
            runner: || experiments::fig16::run(),
        },
        NamedExperiment {
            name: "fig17",
            summary: "Fig 17: speedup vs PE rows per tile",
            runner: || {
                experiments::fig17::run();
            },
        },
        NamedExperiment {
            name: "fig18",
            summary: "Fig 18: speedup vs PE columns per tile",
            runner: || experiments::fig18::run(),
        },
        NamedExperiment {
            name: "fig19",
            summary: "Fig 19: speedup with 2-deep vs 3-deep staging",
            runner: || {
                experiments::fig19::run();
            },
        },
        NamedExperiment {
            name: "fig20",
            summary: "Fig 20: speedup on uniformly random sparse tensors",
            runner: || {
                experiments::fig20::run();
            },
        },
        NamedExperiment {
            name: "bf16",
            summary: "§4.4: the bfloat16 configuration",
            runner: || {
                experiments::bf16::run();
            },
        },
        NamedExperiment {
            name: "gcn",
            summary: "§4.4: the no-sparsity GCN guard-rail case",
            runner: || {
                experiments::gcn::run();
            },
        },
    ]
}

/// Looks up a named experiment, case-insensitively.
#[must_use]
pub fn find(name: &str) -> Option<&'static NamedExperiment> {
    registry()
        .iter()
        .find(|e| e.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensordash_serde::{from_toml_str, to_toml_string};

    #[test]
    fn spec_roundtrips_through_toml() {
        let spec = ExperimentSpec::new("sweep")
            .with_models(["AlexNet", "GCN"])
            .with_chip(ChipConfig::builder().tiles(4).rows(8).build().unwrap())
            .with_eval(
                EvalSpec::builder()
                    .streams(8, 64)
                    .progress(0.3)
                    .seed(7)
                    .build()
                    .unwrap(),
            );
        let text = to_toml_string(&spec).unwrap();
        assert_eq!(from_toml_str::<ExperimentSpec>(&text).unwrap(), spec);
    }

    #[test]
    fn empty_document_is_the_full_paper_sweep() {
        let spec: ExperimentSpec = from_toml_str("").unwrap();
        assert_eq!(spec.chip, ChipConfig::paper());
        assert_eq!(spec.eval, EvalSpec::sweep());
        assert_eq!(spec.resolve_models().unwrap().len(), paper_models().len());
    }

    #[test]
    fn misspelled_sections_are_rejected() {
        let err = from_toml_str::<ExperimentSpec>("[evaluation]\nseed = 1").unwrap_err();
        assert!(
            err.to_string().contains("unknown key `evaluation`"),
            "{err}"
        );
    }

    #[test]
    fn unknown_models_are_reported_with_the_zoo() {
        let spec = ExperimentSpec::new("x").with_models(["NoSuchNet"]);
        let err = spec.run().unwrap_err();
        assert!(err.to_string().contains("NoSuchNet"), "{err}");
        assert!(err.to_string().contains("AlexNet"), "{err}");
    }

    #[test]
    fn duplicate_model_selections_are_rejected() {
        let spec = ExperimentSpec::new("x").with_models(["AlexNet", "alexnet"]);
        assert_eq!(
            spec.resolve_models().unwrap_err(),
            ExperimentError::DuplicateModel("AlexNet".into())
        );
    }

    #[test]
    fn model_names_resolve_case_insensitively() {
        let spec = ExperimentSpec::new("x").with_models(["alexnet", "GCN"]);
        let models = spec.resolve_models().unwrap();
        assert_eq!(models[0].name, "AlexNet");
        assert_eq!(models[1].name, "GCN");
    }

    #[test]
    fn registry_covers_every_experiment_module_once() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped);
        assert_eq!(names.len(), 13);
        assert!(find("FIG13").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn recorded_sources_reject_model_lists_and_missing_files() {
        let spec = ExperimentSpec::new("x").with_models(["AlexNet"]).with_eval(
            EvalSpec::builder()
                .recorded("a.trace.json")
                .build()
                .unwrap(),
        );
        assert_eq!(spec.validate(), Err(ExperimentError::RecordedWithModels));
        assert_eq!(spec.run().unwrap_err(), ExperimentError::RecordedWithModels);

        let missing = ExperimentSpec::new("x").with_eval(
            EvalSpec::builder()
                .recorded("/definitely/not/here.trace.json")
                .build()
                .unwrap(),
        );
        assert!(matches!(
            missing.validate(),
            Err(ExperimentError::Source(_))
        ));
        let err = missing.run().unwrap_err();
        assert!(err.to_string().contains("here.trace.json"), "{err}");
    }

    #[test]
    fn recorded_specs_roundtrip_through_toml() {
        let spec = ExperimentSpec::new("replay").with_eval(
            EvalSpec::builder()
                .recorded("run.trace.json")
                .build()
                .unwrap(),
        );
        let text = to_toml_string(&spec).unwrap();
        assert!(text.contains("recorded"), "{text}");
        assert_eq!(from_toml_str::<ExperimentSpec>(&text).unwrap(), spec);
    }

    #[test]
    fn report_document_embeds_spec_and_summaries() {
        let spec = ExperimentSpec::new("doc")
            .with_models(["AlexNet"])
            .with_eval(EvalSpec::builder().streams(4, 32).build().unwrap());
        let reports = spec.run().unwrap();
        let doc = spec.report_document(&reports);
        assert!(doc.get("experiment").is_some());
        assert_eq!(doc.get("reports").unwrap().as_array().unwrap().len(), 1);
        let speedup = doc.get("total_speedup").unwrap().get("AlexNet").unwrap();
        assert!(speedup.as_float().unwrap() > 1.0);
    }
}
