//! The shared model-evaluation pipeline, as an extension of the
//! [`Simulator`] session.
//!
//! [`EvalSpec`] itself lives in `tensordash-sim` (re-exported here for
//! compatibility) so that one serializable pair — chip + spec — describes
//! an experiment. This module contributes the evaluation glue: resolve a
//! workload's traces through any [`TraceSource`] — the calibrated zoo
//! profiles, a recorded training artifact, or an in-memory provider —
//! and drive the whole batch through [`Simulator::simulate_batch`]. The
//! [`TraceCache`] lets multi-chip sweeps (and the resident service) build
//! each source's traces **once** and simulate them on every chip
//! geometry; since the `TraceSource` refactor its keys carry the *source
//! identity*, so calibrated and recorded builds can never collide.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tensordash_models::ModelSpec;
use tensordash_sim::{CancelToken, Cancelled, ModelReport, Simulator};
use tensordash_trace::{LayerOps, OpTrace, SourceError, TraceRequest, TraceSource};

pub use tensordash_sim::{EvalSpec, EvalSpecBuilder, EvalSpecError};

/// One workload's traced layers:
/// `(layer name, [Forward, InputGrad, WeightGrad])` — exactly what a
/// [`TraceSource`] yields.
pub type ModelTraces = Vec<LayerOps>;

/// The key a trace build is cached under — the source identity plus
/// everything mask generation depends on. Chip geometry is deliberately
/// absent except for the lane count: traces are packed per PE width, but
/// tiles/rows/columns only affect *simulation*, which is exactly why
/// geometry sweeps (figs 17–19) can reuse one build across every swept
/// chip.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TraceKey {
    /// [`TraceSource::identity`]: `calibrated:<model>` for zoo builds,
    /// `recorded:<content digest>` for artifacts — the field that keeps
    /// different sources with coincidentally equal labels apart.
    source: String,
    lanes: usize,
    /// `f64` progress, bit-exact (generation branches on exact values).
    progress_bits: u64,
    max_windows: usize,
    max_rows: usize,
    block: usize,
    seed: u64,
}

impl TraceKey {
    fn new(source: String, request: &TraceRequest) -> Self {
        TraceKey {
            source,
            lanes: request.lanes,
            progress_bits: request.progress.to_bits(),
            max_windows: request.sample.max_windows,
            max_rows: request.sample.max_rows,
            block: request.sample.block,
            seed: request.seed,
        }
    }
}

/// One cached build plus the recency stamp eviction orders by.
#[derive(Debug)]
struct CacheEntry {
    traces: Arc<ModelTraces>,
    last_used: u64,
}

/// Hit/miss/eviction counters, as surfaced by the service's `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCacheStats {
    /// Requests served from a cached build.
    pub hits: u64,
    /// Requests that had to build.
    pub misses: u64,
    /// Builds evicted to respect the capacity cap.
    pub evictions: u64,
}

/// A keyed, capacity-capped cache of built model traces.
///
/// The caching contract: an entry is keyed by `(source identity, lanes,
/// progress, sample caps, seed)` — every input mask generation reads —
/// and holds the complete, immutable [`ModelTraces`] behind an [`Arc`].
/// Identities are content identities ([`TraceSource::identity`]): zoo
/// model names are assumed to identify their layer geometry and sparsity
/// profile (true of the zoo; hand-built specs reusing a name against one
/// cache would collide), and recorded artifacts key by a digest of their
/// canonical text, so editing an artifact invalidates its entries.
///
/// **Eviction contract:** the cache holds at most
/// [`capacity`](TraceCache::capacity) builds; inserting beyond that
/// evicts the least-recently-*used* build (hits refresh recency). A
/// resident service therefore holds bounded memory no matter how many
/// distinct `(model, lanes, progress, seed)` mixes traffic throws at it,
/// while the geometry sweeps (figs 17–19) — one key per model — stay
/// strictly below [`DEFAULT_CACHE_CAPACITY`] and keep their
/// one-build-per-model guarantee. Evicted builds still complete in-flight
/// evaluations through their `Arc`; only future requests rebuild.
///
/// The cache is thread-safe; concurrent misses on the same key may build
/// twice, last write wins (both builds are bit-identical).
#[derive(Debug)]
pub struct TraceCache {
    entries: Mutex<HashMap<TraceKey, CacheEntry>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Default build cap: comfortably above any one sweep's working set (the
/// zoo has 9 models; figs 17–19 reuse one key per model across every
/// geometry), small enough that a resident server's trace memory stays
/// bounded.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl TraceCache {
    /// An empty cache with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// An empty cache holding at most `capacity` builds.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a cache that can hold nothing would
    /// silently rebuild on every request.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace cache needs capacity for at least 1");
        TraceCache {
            entries: Mutex::new(HashMap::new()),
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured build cap.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The traces of `source` under `spec` at `lanes` lanes — built on
    /// the first request, shared thereafter (until evicted). Every
    /// source kind flows through this one lookup: entries are keyed by
    /// the source's content [`identity`](TraceSource::identity).
    ///
    /// # Errors
    ///
    /// Propagates the source's build error (cache state is untouched on
    /// failure).
    pub fn source_traces(
        &self,
        source: &dyn TraceSource,
        spec: &EvalSpec,
        lanes: usize,
    ) -> Result<Arc<ModelTraces>, SourceError> {
        let request = TraceRequest {
            progress: spec.progress,
            lanes,
            sample: spec.sample,
            seed: spec.seed,
        };
        // The key carries the source's *canonicalized* request: fields a
        // source ignores (a recording replays stored masks whatever the
        // seed) collapse, so equivalent requests share one build.
        let key = TraceKey::new(source.identity(), &source.cache_request(&request));
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = self
            .entries
            .lock()
            .expect("trace cache poisoned")
            .get_mut(&key)
        {
            hit.last_used = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&hit.traces));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(source.layer_ops(&request)?);
        let mut entries = self.entries.lock().expect("trace cache poisoned");
        entries.insert(
            key,
            CacheEntry {
                traces: Arc::clone(&built),
                last_used: self.tick.fetch_add(1, Ordering::Relaxed),
            },
        );
        while entries.len() > self.capacity {
            let oldest = entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
                .expect("non-empty over-capacity cache");
            entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(built)
    }

    /// The traces of zoo `model` under `spec` at `lanes` lanes — the
    /// calibrated special case of
    /// [`source_traces`](TraceCache::source_traces).
    #[must_use]
    pub fn layer_traces(
        &self,
        model: &ModelSpec,
        spec: &EvalSpec,
        lanes: usize,
    ) -> Arc<ModelTraces> {
        // `ModelSpec` implements `TraceSource` directly, so the borrowed
        // model is the source — no per-lookup clone of its layer list.
        self.source_traces(model, spec, lanes)
            .unwrap_or_else(|e| unreachable!("calibrated sources are infallible: {e}"))
    }

    /// Hit/miss/eviction counters.
    #[must_use]
    pub fn counters(&self) -> TraceCacheStats {
        TraceCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of cached builds.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("trace cache poisoned").len()
    }

    /// Whether nothing is cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why a cancellable evaluation produced no report.
#[derive(Debug)]
pub enum EvalAbort {
    /// The trace source failed to build.
    Source(SourceError),
    /// The cancel token (a job deadline, a shutdown) fired before the
    /// simulation finished.
    Cancelled,
}

impl fmt::Display for EvalAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalAbort::Source(e) => e.fmt(f),
            EvalAbort::Cancelled => f.write_str("evaluation cancelled"),
        }
    }
}

impl std::error::Error for EvalAbort {}

impl From<SourceError> for EvalAbort {
    fn from(e: SourceError) -> Self {
        EvalAbort::Source(e)
    }
}

impl From<Cancelled> for EvalAbort {
    fn from(_: Cancelled) -> Self {
        EvalAbort::Cancelled
    }
}

/// Workload evaluation on a [`Simulator`] session: zoo models and
/// arbitrary [`TraceSource`]s, cached or not, all landing in the same
/// [`Simulator::simulate_batch`] path.
pub trait ModelEval {
    /// Evaluates one model: every layer, all three operations, TensorDash
    /// and baseline, (layer, op) work items stolen across the available
    /// cores.
    fn eval_model(&self, model: &ModelSpec, spec: &EvalSpec) -> ModelReport;

    /// As [`eval_model`](ModelEval::eval_model) with an explicit report
    /// label (used by sweeps that evaluate one model on several chip
    /// geometries).
    fn eval_model_labeled(&self, model: &ModelSpec, spec: &EvalSpec, label: &str) -> ModelReport;

    /// As [`eval_model_labeled`](ModelEval::eval_model_labeled), building
    /// the traces through `cache` — chip-geometry sweeps hit the cache for
    /// every chip after the first and only pay for simulation.
    fn eval_model_cached(
        &self,
        model: &ModelSpec,
        spec: &EvalSpec,
        cache: &TraceCache,
        label: &str,
    ) -> ModelReport;

    /// Evaluates any [`TraceSource`] through `cache`, labelling the
    /// report with `label` (pass [`TraceSource::label`] for the default).
    ///
    /// # Errors
    ///
    /// Propagates the source's build error.
    fn eval_source_cached(
        &self,
        source: &dyn TraceSource,
        spec: &EvalSpec,
        cache: &TraceCache,
        label: &str,
    ) -> Result<ModelReport, SourceError>;

    /// As [`eval_source_cached`](ModelEval::eval_source_cached), checking
    /// `cancel` at every (layer, op) work-item boundary — the service's
    /// job-deadline path. The trace build itself is not cancellable (a
    /// complete build is what keeps the shared cache poison-free), only
    /// the simulation is.
    ///
    /// # Errors
    ///
    /// [`EvalAbort::Source`] when the source fails to build,
    /// [`EvalAbort::Cancelled`] when the token fires mid-simulation.
    fn eval_source_cached_cancellable(
        &self,
        source: &dyn TraceSource,
        spec: &EvalSpec,
        cache: &TraceCache,
        label: &str,
        cancel: &CancelToken,
    ) -> Result<ModelReport, EvalAbort>;

    /// As [`eval_model_cached`](ModelEval::eval_model_cached) under a
    /// cancel token — the calibrated arm of the deadline path.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fires mid-simulation.
    fn eval_model_cached_cancellable(
        &self,
        model: &ModelSpec,
        spec: &EvalSpec,
        cache: &TraceCache,
        label: &str,
        cancel: &CancelToken,
    ) -> Result<ModelReport, Cancelled>;
}

fn simulate_traces(sim: &Simulator, traces: &ModelTraces, label: &str) -> ModelReport {
    let groups: Vec<(&str, &[OpTrace])> = traces
        .iter()
        .map(|(name, ops)| (name.as_str(), ops.as_slice()))
        .collect();
    sim.simulate_model(label, &groups)
}

fn simulate_traces_cancellable(
    sim: &Simulator,
    traces: &ModelTraces,
    label: &str,
    cancel: &CancelToken,
) -> Result<ModelReport, Cancelled> {
    let groups: Vec<(&str, &[OpTrace])> = traces
        .iter()
        .map(|(name, ops)| (name.as_str(), ops.as_slice()))
        .collect();
    sim.simulate_model_cancellable(label, &groups, cancel)
}

impl ModelEval for Simulator {
    fn eval_model(&self, model: &ModelSpec, spec: &EvalSpec) -> ModelReport {
        self.eval_model_labeled(model, spec, &model.name)
    }

    fn eval_model_labeled(&self, model: &ModelSpec, spec: &EvalSpec, label: &str) -> ModelReport {
        let request = TraceRequest {
            progress: spec.progress,
            lanes: self.chip().tile.pe.lanes(),
            sample: spec.sample,
            seed: spec.seed,
        };
        // `ModelSpec` is its own `TraceSource` — borrowed, clone-free.
        let traces = model
            .layer_ops(&request)
            .unwrap_or_else(|e| unreachable!("calibrated sources are infallible: {e}"));
        simulate_traces(self, &traces, label)
    }

    fn eval_model_cached(
        &self,
        model: &ModelSpec,
        spec: &EvalSpec,
        cache: &TraceCache,
        label: &str,
    ) -> ModelReport {
        let lanes = self.chip().tile.pe.lanes();
        let traces = cache.layer_traces(model, spec, lanes);
        simulate_traces(self, &traces, label)
    }

    fn eval_source_cached(
        &self,
        source: &dyn TraceSource,
        spec: &EvalSpec,
        cache: &TraceCache,
        label: &str,
    ) -> Result<ModelReport, SourceError> {
        let lanes = self.chip().tile.pe.lanes();
        let traces = cache.source_traces(source, spec, lanes)?;
        Ok(simulate_traces(self, &traces, label))
    }

    fn eval_source_cached_cancellable(
        &self,
        source: &dyn TraceSource,
        spec: &EvalSpec,
        cache: &TraceCache,
        label: &str,
        cancel: &CancelToken,
    ) -> Result<ModelReport, EvalAbort> {
        let lanes = self.chip().tile.pe.lanes();
        let traces = cache.source_traces(source, spec, lanes)?;
        Ok(simulate_traces_cancellable(self, &traces, label, cancel)?)
    }

    fn eval_model_cached_cancellable(
        &self,
        model: &ModelSpec,
        spec: &EvalSpec,
        cache: &TraceCache,
        label: &str,
        cancel: &CancelToken,
    ) -> Result<ModelReport, Cancelled> {
        let lanes = self.chip().tile.pe.lanes();
        let traces = cache.layer_traces(model, spec, lanes);
        simulate_traces_cancellable(self, &traces, label, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensordash_models::paper_models;
    use tensordash_sim::ChipConfig;
    use tensordash_trace::{SampleSpec, TrainingOp};

    #[test]
    fn alexnet_evaluates_with_positive_speedup() {
        let sim = Simulator::paper();
        let model = &paper_models()[0];
        let spec = EvalSpec::builder()
            .streams(16, 128)
            .progress(0.45)
            .seed(1)
            .build()
            .unwrap();
        let report = sim.eval_model(model, &spec);
        assert_eq!(report.layers.len(), model.layers.len());
        let total = report.total_speedup();
        assert!(total > 1.5 && total < 3.0, "AlexNet total {total}");
        for op in TrainingOp::ALL {
            assert!(report.op_speedup(op) >= 1.0);
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let sim = Simulator::paper();
        let model = &paper_models()[2]; // SqueezeNet
        let spec = EvalSpec {
            sample: SampleSpec::new(8, 64),
            progress: 0.3,
            seed: 9,
            ..EvalSpec::sweep()
        };
        let a = sim.eval_model(model, &spec);
        let b = sim.eval_model(model, &spec);
        assert_eq!(a.total_speedup(), b.total_speedup());
        assert_eq!(
            a.tensordash_counters().compute_cycles,
            b.tensordash_counters().compute_cycles
        );
    }

    /// The acceptance gate for the session API: the work-stealing
    /// `simulate_batch` path produces bit-identical `ModelReport`s to the
    /// sequential per-layer loop the pre-session `eval_model` ran.
    #[test]
    fn session_reports_are_bit_identical_to_the_sequential_path() {
        use tensordash_models::layer_traces;
        use tensordash_sim::LayerReport;

        let chip = ChipConfig::paper();
        let spec = EvalSpec {
            sample: SampleSpec::new(8, 64),
            progress: 0.45,
            seed: 0xDA5A,
            ..EvalSpec::sweep()
        };
        let sim = Simulator::new(chip);
        for model in &paper_models()[..3] {
            // The old free-function pipeline, sans threading: trace every
            // layer, simulate each op pair in order, aggregate.
            let traces = layer_traces(model, spec.progress, 16, &spec.sample, spec.seed);
            let sequential = ModelReport {
                name: model.name.clone(),
                layers: traces
                    .iter()
                    .map(|(layer, ops)| LayerReport {
                        label: layer.name.clone(),
                        ops: ops.iter().map(|t| sim.aggregate(t)).collect(),
                    })
                    .collect(),
            };
            let new = sim.eval_model(model, &spec);
            assert_eq!(sequential, new, "{} diverged", model.name);
        }
    }

    /// The trace cache must be invisible in the results: cached evaluation
    /// across different chip geometries (same lanes) equals the uncached
    /// path, and the second chip's evaluation is a pure cache hit.
    #[test]
    fn cached_sweeps_reuse_traces_and_match_uncached_results() {
        let model = &paper_models()[0];
        let spec = EvalSpec {
            sample: SampleSpec::new(8, 64),
            progress: 0.45,
            seed: 7,
            ..EvalSpec::sweep()
        };
        let cache = TraceCache::new();
        for rows in [4usize, 8, 16] {
            let chip = ChipConfig::builder().rows(rows).build().unwrap();
            let sim = Simulator::new(chip);
            let cached = sim.eval_model_cached(model, &spec, &cache, &model.name);
            let uncached = sim.eval_model(model, &spec);
            assert_eq!(cached, uncached, "rows {rows} diverged under caching");
        }
        assert_eq!(cache.len(), 1, "one build serves every geometry");
        let counters = cache.counters();
        assert_eq!(
            (counters.hits, counters.misses),
            (2, 1),
            "two hits after the first build"
        );

        // A different seed is a different key — no false sharing.
        let other = EvalSpec {
            seed: 8,
            ..spec.clone()
        };
        let sim = Simulator::paper();
        let _ = sim.eval_model_cached(model, &other, &cache, &model.name);
        assert_eq!(cache.len(), 2);
    }

    /// Regression test for the unbounded-growth bug: before the capacity
    /// cap, every distinct `(model, lanes, progress, seed)` key stayed
    /// resident forever, so a long-running server leaked trace memory.
    /// The cache must never exceed its capacity, must evict in LRU order,
    /// and must count what it did.
    #[test]
    fn cache_respects_capacity_with_lru_eviction() {
        let model = &paper_models()[0];
        let spec_for = |seed: u64| EvalSpec {
            sample: SampleSpec::new(1, 8),
            progress: 0.45,
            seed,
            ..EvalSpec::sweep()
        };
        let cache = TraceCache::with_capacity(3);
        assert_eq!(cache.capacity(), 3);
        for seed in 0..5 {
            let _ = cache.layer_traces(model, &spec_for(seed), 16);
            assert!(
                cache.len() <= 3,
                "cache grew to {} past its capacity",
                cache.len()
            );
        }
        // 5 distinct keys through a 3-deep cache: 2 evictions, 0 hits.
        assert_eq!(
            cache.counters(),
            TraceCacheStats {
                hits: 0,
                misses: 5,
                evictions: 2
            }
        );
        // Seeds 2..5 are resident. Touch 2 (making 3 the LRU), insert a
        // fresh key: 3 must be the one evicted.
        let _ = cache.layer_traces(model, &spec_for(2), 16);
        let _ = cache.layer_traces(model, &spec_for(5), 16);
        let _ = cache.layer_traces(model, &spec_for(2), 16);
        let _ = cache.layer_traces(model, &spec_for(4), 16);
        assert_eq!(cache.counters().hits, 3, "2, 2 again, and 4 were hits");
        let _ = cache.layer_traces(model, &spec_for(3), 16);
        assert_eq!(cache.counters().misses, 7, "3 was evicted as LRU");

        // An evicted build already handed out stays usable (Arc contract).
        let held = cache.layer_traces(model, &spec_for(10), 16);
        for seed in 20..24 {
            let _ = cache.layer_traces(model, &spec_for(seed), 16);
        }
        assert!(!held.is_empty(), "evicted-but-held traces stay alive");
    }

    /// The sweep guarantee under the default capacity: one build per
    /// model, every geometry a hit — the fig 17/18/19 shape.
    #[test]
    fn default_capacity_keeps_one_build_per_model_across_geometry_sweeps() {
        let spec = EvalSpec {
            sample: SampleSpec::new(1, 8),
            progress: 0.45,
            seed: 7,
            ..EvalSpec::sweep()
        };
        let cache = TraceCache::new();
        assert_eq!(cache.capacity(), DEFAULT_CACHE_CAPACITY);
        let models = paper_models();
        for model in &models {
            for _geometry in 0..3 {
                let _ = cache.layer_traces(model, &spec, 16);
            }
        }
        let counters = cache.counters();
        assert_eq!(counters.misses, models.len() as u64, "one build per model");
        assert_eq!(counters.evictions, 0, "sweeps must never thrash");
        assert_eq!(counters.hits, 2 * models.len() as u64);
    }
}
