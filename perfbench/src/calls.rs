//! The traced form of the calibrated evaluation path.
//!
//! [`ExperimentSpec::run_in`] evaluates a calibrated spec as one cache
//! lookup and one [`Simulator`] batch per model. [`traced_run`] makes the
//! same public calls from the benchmark's side — `TraceCache::layer_traces`,
//! then `Simulator::simulate_batch_cancellable` once per training operation
//! — with a span around each, and reassembles reports that are equal to
//! `run_in`'s (the gates compare their bytes). [`replay_kernel`] then feeds
//! each (layer, op) arena through `Tile::run_group_arena` in `tile.rows`
//! window groups, the entry point `sim` drives, to time the `core` kernel
//! on its own.

use crate::spans::Recorder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tensordash_bench::harness::ModelTraces;
use tensordash_bench::{ExperimentError, ExperimentSpec, TraceCache};
use tensordash_sim::{
    CancelToken, ChipConfig, LayerReport, ModelReport, OpAggregate, Simulator, Tile,
};
use tensordash_trace::{OpTrace, TrainingOp};

/// The worker count `Simulator::new` picks on this host.
#[must_use]
pub fn sim_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(8)
}

/// Mask rows held by one model's traces.
#[must_use]
pub fn trace_rows(traces: &ModelTraces) -> u64 {
    traces
        .iter()
        .flat_map(|(_, ops)| ops.iter())
        .map(|t| t.arena_masks().len() as u64)
        .sum()
}

/// `span detail` for a simulated or replayed (model, op, member).
#[must_use]
pub fn detail(model: &str, op: TrainingOp, chip: &ChipConfig) -> String {
    format!("{model}/{}/{}", op.label(), chip.scheduler.name())
}

/// [`ExperimentSpec::run_in`] on a calibrated spec, one span per layer
/// call. Returns the reports and each model's traces (for the replay).
///
/// # Errors
///
/// As `ExperimentSpec::resolve_models`.
pub fn traced_run(
    spec: &ExperimentSpec,
    cache: &TraceCache,
    rec: &Recorder,
    request: u64,
    parent: u64,
) -> Result<(Vec<ModelReport>, Vec<Arc<ModelTraces>>), ExperimentError> {
    let sim = Simulator::new(spec.chip);
    let lanes = spec.chip.tile.pe.lanes();
    let models = spec.resolve_models()?;
    let mut reports = Vec::with_capacity(models.len());
    let mut all_traces = Vec::with_capacity(models.len());
    for model in &models {
        let misses = cache.counters().misses;
        let id = rec.reserve();
        let start = std::time::Instant::now();
        let traces = cache.layer_traces(model, &spec.eval, lanes);
        let end = std::time::Instant::now();
        let name = if cache.counters().misses > misses {
            "models.build"
        } else {
            "trace.lookup"
        };
        rec.record(
            id,
            name,
            model.name.as_str(),
            request,
            Some(parent),
            (start, end),
        );

        let mut per_op: Vec<Vec<LayerReport>> = Vec::with_capacity(3);
        for (k, op) in TrainingOp::ALL.iter().enumerate() {
            let groups: Vec<(&str, &[OpTrace])> = traces
                .iter()
                .map(|(name, ops)| (name.as_str(), &ops[k..=k]))
                .collect();
            let layers = rec.time(
                "sim.simulate",
                detail(&model.name, *op, &spec.chip),
                request,
                Some(parent),
                |_| sim.simulate_batch_cancellable(&groups, &CancelToken::unbounded()),
            );
            per_op.push(layers.expect("an unbounded token never cancels"));
        }
        let layers = traces
            .iter()
            .enumerate()
            .map(|(i, (label, _))| LayerReport {
                label: label.clone(),
                ops: per_op
                    .iter()
                    .map(|layers| layers[i].ops[0])
                    .collect::<Vec<OpAggregate>>(),
            })
            .collect();
        reports.push(ModelReport {
            name: model.name.clone(),
            layers,
        });
        all_traces.push(traces);
    }
    Ok((reports, all_traces))
}

/// What a kernel replay stepped through.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTally {
    /// Mask rows fed to the kernel.
    pub rows: u64,
    /// Simulated tile cycles of the replayed groups.
    pub cycles: u64,
    /// `tile.rows`-window groups run (the simulator's work items).
    pub items: u64,
}

impl KernelTally {
    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: KernelTally) {
        self.rows += other.rows;
        self.cycles += other.cycles;
        self.items += other.items;
    }
}

/// Replays every (layer, op) arena of one model's traces through
/// `Tile::run_group_arena` on `chip`'s tile and scheduler as one span,
/// with the simulator's thread count and its (layer, op, chunk) item
/// order.
#[must_use]
pub fn replay_kernel(
    chip: &ChipConfig,
    model: &str,
    traces: &ModelTraces,
    rec: &Recorder,
    request: u64,
    parent: u64,
) -> KernelTally {
    let tile = Tile::with_scheduler(chip.tile, chip.scheduler);
    let ops: Vec<&OpTrace> = traces.iter().flat_map(|(_, ops)| ops.iter()).collect();
    rec.time(
        "core.kernel",
        format!("{model}/all/{}", chip.scheduler.name()),
        request,
        Some(parent),
        |_| run_groups(&tile, chip.tile.rows, &ops),
    )
}

/// Runs every `group_windows`-window group of `ops` through the tile,
/// shared across [`sim_threads`] workers the way the simulator shares
/// its (layer, op, chunk) items.
fn run_groups(tile: &Tile, group_windows: usize, ops: &[&OpTrace]) -> KernelTally {
    let items: Vec<(usize, usize)> = ops
        .iter()
        .enumerate()
        .flat_map(|(t, op)| (0..op.num_windows().div_ceil(group_windows)).map(move |c| (t, c)))
        .collect();
    let run_item = |&(t, c): &(usize, usize)| {
        let op = ops[t];
        let rows = op
            .uniform_rows()
            .expect("sampled streams of one operation share a length");
        let start = c * group_windows;
        let count = group_windows.min(op.num_windows() - start);
        let run = tile.run_group_arena(
            &op.arena_masks()[start * rows..(start + count) * rows],
            count,
            rows,
        );
        KernelTally {
            rows: (count * rows) as u64,
            cycles: run.cycles,
            items: 1,
        }
    };
    let total = Mutex::new(KernelTally::default());
    let next = AtomicUsize::new(0);
    let work = || {
        let mut mine = KernelTally::default();
        while let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
            mine.absorb(run_item(item));
        }
        total.lock().expect("tally poisoned").absorb(mine);
    };
    let workers = sim_threads().min(items.len());
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }
    total.into_inner().expect("tally poisoned")
}
