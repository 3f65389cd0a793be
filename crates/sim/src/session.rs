//! The owning simulation session: one [`Simulator`] per chip
//! configuration, with single-op, paired, and thread-pooled batch entry
//! points.
//!
//! This is the public API experiments are written against.

use crate::config::ChipConfig;
use crate::exec::{self, ExecMode, OpSim};
use crate::report::{LayerReport, ModelReport, OpAggregate};
use crate::tile::Tile;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensordash_trace::{default_threads, par_map, OpTrace};

/// A cooperative cancellation signal for long simulations: an explicit
/// flag, an optional wall-clock deadline, or both. Workers consult it at
/// *(layer, op, tile row-group chunk)* work-item boundaries — a fired
/// token stops a batch before its next item, never mid-item, so partial
/// results are simply discarded and nothing half-built escapes.
///
/// Clones share the flag: cancelling any clone cancels them all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires on its own (only [`cancel`](Self::cancel)
    /// trips it).
    #[must_use]
    pub fn unbounded() -> Self {
        CancelToken::default()
    }

    /// A token that fires once `deadline` passes.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// A token that fires `timeout` from now.
    #[must_use]
    pub fn after(timeout: Duration) -> Self {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Trips the token explicitly; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token has fired (explicitly or past its deadline).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
            || self
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// The batch was cancelled at a work-item boundary before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation cancelled at a work-item boundary")
    }
}

impl std::error::Error for Cancelled {}

/// A simulation session owning the chip being modelled (and the tile
/// simulator built for it — the scheduler's lookup tables are compiled
/// once per session, not once per operation).
///
/// Construction is infallible from an existing [`ChipConfig`]; pair it
/// with [`ChipConfig::builder`] for validated custom machines.
///
/// # Examples
///
/// ```
/// use tensordash_sim::{ExecMode, Simulator};
/// use tensordash_trace::{ConvDims, SampleSpec, SparsityGen, TrainingOp, UniformSparsity};
///
/// let sim = Simulator::paper();
/// let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
/// let trace = UniformSparsity::new(0.6).op_trace(
///     dims, TrainingOp::Forward, sim.chip().tile.pe.lanes(), &SampleSpec::default(), 1);
/// let (td, base) = sim.simulate_pair(&trace);
/// let speedup = base.compute_cycles as f64 / td.compute_cycles as f64;
/// assert!(speedup > 1.5 && speedup <= 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    chip: ChipConfig,
    threads: usize,
    tile: Tile,
}

impl PartialEq for Simulator {
    /// Sessions are equal when they simulate the same chip with the same
    /// thread budget (the cached tile is derived state).
    fn eq(&self, other: &Self) -> bool {
        self.chip == other.chip && self.threads == other.threads
    }
}

impl Simulator {
    /// A session for the given chip.
    #[must_use]
    pub fn new(chip: ChipConfig) -> Self {
        Simulator {
            chip,
            threads: default_threads(),
            tile: Tile::with_scheduler(chip.tile, chip.scheduler),
        }
    }

    /// A session on the paper's Table 2 chip.
    #[must_use]
    pub fn paper() -> Self {
        Simulator::new(ChipConfig::paper())
    }

    /// Overrides the worker-thread count used by
    /// [`simulate_batch`](Simulator::simulate_batch) (defaults to
    /// [`default_threads`]). Results are identical at any
    /// thread count; this only changes wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "simulator needs at least one thread");
        self.threads = threads;
        self
    }

    /// The chip this session simulates.
    #[must_use]
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// Simulates one operation on one machine.
    ///
    /// # Panics
    ///
    /// Panics if the trace's lane count differs from the chip's PE width,
    /// or if the trace has no sampled windows.
    #[must_use]
    pub fn simulate(&self, trace: &OpTrace, mode: ExecMode) -> OpSim {
        exec::simulate_op(&self.chip, &self.tile, trace, mode)
    }

    /// Simulates one operation on both machines at once, sharing the
    /// (dominant) bit-exact tile simulation between them.
    ///
    /// # Panics
    ///
    /// As [`simulate`](Simulator::simulate).
    #[must_use]
    pub fn simulate_pair(&self, trace: &OpTrace) -> (OpSim, OpSim) {
        exec::simulate_pair(&self.chip, &self.tile, trace)
    }

    /// Simulates one operation on both machines and packages the result as
    /// a report row.
    ///
    /// # Panics
    ///
    /// As [`simulate`](Simulator::simulate).
    #[must_use]
    pub fn aggregate(&self, trace: &OpTrace) -> OpAggregate {
        let (tensordash, baseline) = self.simulate_pair(trace);
        OpAggregate {
            op: trace.op,
            tensordash,
            baseline,
        }
    }

    /// Simulates labelled groups of operations — typically one group per
    /// layer — across a scoped thread pool, returning one [`LayerReport`]
    /// per group in input order.
    ///
    /// Scheduling is **work-stealing with intra-run sharding**: every
    /// *(group, operation, tile row-group chunk)* triple is one work item,
    /// and workers claim items off a shared atomic index as they finish
    /// (the workspace's one loop, [`tensordash_trace::par_map`]).
    /// A batch of many small layers balances exactly as before, and a
    /// *single* big operation (one transformer-MLP matmul) also shards
    /// across every thread instead of pinning one worker — the chunks are
    /// the same contiguous arena row-groups the serial loop feeds
    /// [`Tile::run_group_arena`](crate::Tile::run_group_arena).
    ///
    /// The reduction-order contract: each chunk's aggregates land in their
    /// own slot, and after the workers join they are merged
    /// per operation in input (chunk) order before the full-op scaling
    /// runs once. Every merged field is an exact `u64` sum, so reports
    /// are bit-identical to a sequential run and always in input order,
    /// whatever the thread count (see
    /// [`with_threads`](Simulator::with_threads)).
    ///
    /// # Panics
    ///
    /// As [`simulate`](Simulator::simulate), or if a worker thread panics.
    #[must_use]
    pub fn simulate_batch(&self, groups: &[(&str, &[OpTrace])]) -> Vec<LayerReport> {
        self.simulate_batch_cancellable(groups, &CancelToken::unbounded())
            .unwrap_or_else(|_| unreachable!("an unbounded token never cancels"))
    }

    /// As [`simulate_batch`](Simulator::simulate_batch), consulting
    /// `cancel` before each *(group, op, chunk)* work item is claimed. A fired
    /// token stops every worker at its next boundary and the whole batch
    /// returns [`Cancelled`]; a batch whose items all completed before
    /// the token fired still returns its (complete, bit-identical)
    /// reports. This is the deadline hook the resident service uses to
    /// bound job runtimes without poisoning shared caches: nothing
    /// partial is ever returned.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the token fired before every work item
    /// completed.
    ///
    /// # Panics
    ///
    /// As [`simulate`](Simulator::simulate), or if a worker thread panics.
    pub fn simulate_batch_cancellable(
        &self,
        groups: &[(&str, &[OpTrace])],
        cancel: &CancelToken,
    ) -> Result<Vec<LayerReport>, Cancelled> {
        self.batch_until(groups, || cancel.is_cancelled())
    }

    /// The batch body behind
    /// [`simulate_batch_cancellable`](Simulator::simulate_batch_cancellable),
    /// with the stop check as a plain predicate.
    fn batch_until(
        &self,
        groups: &[(&str, &[OpTrace])],
        stop: impl Fn() -> bool + Sync,
    ) -> Result<Vec<LayerReport>, Cancelled> {
        // One validated plan per (group, op) and one work item per
        // (group, op, chunk); the shared loop hands the partials back in
        // item order, which the reduction below walks.
        let plans: Vec<Vec<exec::SampledPlan>> = groups
            .iter()
            .map(|(_, ops)| {
                ops.iter()
                    .map(|trace| exec::SampledPlan::new(&self.chip, trace))
                    .collect()
            })
            .collect();
        let items: Vec<(usize, usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(g, ops)| {
                ops.iter()
                    .enumerate()
                    .flat_map(move |(o, plan)| (0..plan.chunks()).map(move |c| (g, o, c)))
            })
            .collect();
        let mut partials = par_map(items, self.threads, stop, |(g, o, c)| {
            plans[g][o].run_chunk(&self.tile, c)
        })
        .into_iter();

        // The deterministic reduction: per (group, op), merge chunk
        // partials in input order (exact u64 sums), then run the full-op
        // scaling once over the merged aggregates — byte-identical to the
        // serial loop at any thread count.
        let mut layers = Vec::with_capacity(groups.len());
        for ((label, traces), ops_plans) in groups.iter().zip(&plans) {
            let mut ops = Vec::with_capacity(traces.len());
            for (trace, plan) in traces.iter().zip(ops_plans) {
                let mut merged = exec::Sampled::default();
                for partial in partials.by_ref().take(plan.chunks()) {
                    // An unfilled slot means the stop fired before the
                    // item was claimed: the batch is incomplete and must
                    // not pretend otherwise.
                    merged.absorb(&partial.ok_or(Cancelled)?);
                }
                let (tensordash, baseline) =
                    exec::finish_pair(&self.chip, &self.tile, trace, &merged);
                ops.push(OpAggregate {
                    op: trace.op,
                    tensordash,
                    baseline,
                });
            }
            layers.push(LayerReport {
                label: (*label).to_string(),
                ops,
            });
        }
        Ok(layers)
    }

    /// As [`simulate_batch`](Simulator::simulate_batch), wrapping the
    /// layers into a named [`ModelReport`].
    #[must_use]
    pub fn simulate_model(&self, name: &str, groups: &[(&str, &[OpTrace])]) -> ModelReport {
        ModelReport {
            name: name.to_string(),
            layers: self.simulate_batch(groups),
        }
    }

    /// As [`simulate_model`](Simulator::simulate_model) over the
    /// cancellable batch path.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the token fired before every work item
    /// completed.
    pub fn simulate_model_cancellable(
        &self,
        name: &str,
        groups: &[(&str, &[OpTrace])],
        cancel: &CancelToken,
    ) -> Result<ModelReport, Cancelled> {
        Ok(ModelReport {
            name: name.to_string(),
            layers: self.simulate_batch_cancellable(groups, cancel)?,
        })
    }
}

impl From<ChipConfig> for Simulator {
    fn from(chip: ChipConfig) -> Self {
        Simulator::new(chip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use tensordash_trace::{ConvDims, SampleSpec, SparsityGen, TrainingOp, UniformSparsity};

    fn traces(sparsity: f64, n: u64) -> Vec<OpTrace> {
        let dims = ConvDims::conv_square(2, 32, 8, 32, 3, 1, 1);
        (0..n)
            .map(|seed| {
                UniformSparsity::new(sparsity).op_trace(
                    dims,
                    TrainingOp::Forward,
                    16,
                    &SampleSpec::new(8, 64),
                    seed,
                )
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit() {
        let sim = Simulator::paper();
        let ops = traces(0.55, 12);
        let groups: Vec<(&str, &[OpTrace])> = ops.chunks(3).map(|c| ("layer", c)).collect();
        let parallel = sim.simulate_batch(&groups);
        let sequential: Vec<LayerReport> = groups
            .iter()
            .map(|(label, ops)| LayerReport {
                label: (*label).to_string(),
                ops: ops.iter().map(|t| sim.aggregate(t)).collect(),
            })
            .collect();
        assert_eq!(parallel, sequential);
        let single_thread = sim.clone().with_threads(1).simulate_batch(&groups);
        assert_eq!(parallel, single_thread);
    }

    /// The work-stealing queue must behave identically at every worker
    /// count, including counts far above the item count and ragged group
    /// shapes (heavy-tail layers are the point of stealing).
    #[test]
    fn work_stealing_is_thread_count_invariant() {
        let sim = Simulator::paper();
        let ops = traces(0.7, 7);
        let groups: Vec<(&str, &[OpTrace])> = vec![
            ("a", &ops[0..4]),
            ("b", &ops[4..4]),
            ("c", &ops[4..5]),
            ("d", &ops[5..7]),
        ];
        let reference = sim.clone().with_threads(1).simulate_batch(&groups);
        for threads in [2, 3, 8, 64] {
            let got = sim.clone().with_threads(threads).simulate_batch(&groups);
            assert_eq!(got, reference, "{threads} workers diverged");
        }
        assert_eq!(reference[1].ops.len(), 0, "empty group keeps its slot");
    }

    /// One big operation must shard into several tile row-group chunks
    /// (the intra-run parallelism path) and still reduce to the same
    /// bytes as the fully sequential per-op entry point at every thread
    /// count — the chunked reduction is exact `u64` sums, not floats.
    #[test]
    fn intra_run_sharding_is_thread_count_invariant() {
        let sim = Simulator::paper();
        let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
        let op = UniformSparsity::new(0.6).op_trace(
            dims,
            TrainingOp::Forward,
            16,
            &SampleSpec::new(64, 128),
            0x51AB,
        );
        let plan = exec::SampledPlan::new(sim.chip(), &op);
        assert!(
            plan.chunks() >= 4,
            "the single op must split into multiple work items ({} chunks)",
            plan.chunks()
        );
        let ops = [op];
        let groups: Vec<(&str, &[OpTrace])> = vec![("mlp", &ops)];
        let sequential = vec![LayerReport {
            label: "mlp".to_string(),
            ops: vec![sim.aggregate(&ops[0])],
        }];
        for threads in [1, 2, 8] {
            let got = sim.clone().with_threads(threads).simulate_batch(&groups);
            assert_eq!(got, sequential, "{threads} workers diverged");
        }
    }

    #[test]
    fn batch_preserves_group_order_and_labels() {
        let sim = Simulator::paper();
        let ops = traces(0.4, 4);
        let labels = ["a", "b", "c", "d"];
        let groups: Vec<(&str, &[OpTrace])> = labels
            .iter()
            .zip(ops.chunks(1))
            .map(|(l, c)| (*l, c))
            .collect();
        let layers = sim.simulate_batch(&groups);
        let got: Vec<&str> = layers.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(got, labels);
    }

    #[test]
    fn empty_batch_is_empty_report() {
        let sim = Simulator::paper();
        assert!(sim.simulate_batch(&[]).is_empty());
        assert_eq!(sim.simulate_model("empty", &[]).layers.len(), 0);
    }

    /// The cancellation contract: an already-fired token stops the batch
    /// at the first boundary on every path (single- and multi-threaded),
    /// an unbounded token is invisible, and an explicitly expired
    /// deadline behaves like an explicit cancel.
    #[test]
    fn cancelled_batches_stop_at_work_item_boundaries() {
        let sim = Simulator::paper();
        let ops = traces(0.5, 6);
        let groups: Vec<(&str, &[OpTrace])> = ops.chunks(2).map(|c| ("layer", c)).collect();

        let fired = CancelToken::unbounded();
        fired.cancel();
        assert_eq!(
            sim.simulate_batch_cancellable(&groups, &fired),
            Err(Cancelled)
        );
        assert_eq!(
            sim.clone()
                .with_threads(1)
                .simulate_batch_cancellable(&groups, &fired),
            Err(Cancelled)
        );

        // An already-passed deadline fires without an explicit cancel.
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_cancelled());
        assert_eq!(
            sim.simulate_model_cancellable("m", &groups, &expired),
            Err(Cancelled)
        );

        // Clones share the flag.
        let shared = CancelToken::unbounded();
        let observer = shared.clone();
        assert!(!observer.is_cancelled());
        shared.cancel();
        assert!(observer.is_cancelled());

        // An unbounded token changes nothing: bit-identical to the plain path.
        let unbounded = CancelToken::unbounded();
        let cancellable = sim.simulate_batch_cancellable(&groups, &unbounded).unwrap();
        assert_eq!(cancellable, sim.simulate_batch(&groups));
    }

    /// A stop that fires mid-run, after the third finished work item,
    /// leaves the rest unclaimed: the batch still returns `Cancelled`
    /// rather than a report built from part of the items.
    #[test]
    fn a_stop_mid_run_returns_cancelled() {
        let sim = Simulator::paper();
        let ops = traces(0.5, 12);
        let groups: Vec<(&str, &[OpTrace])> = ops.chunks(3).map(|c| ("layer", c)).collect();
        for threads in [1, 2, 8] {
            let sim = sim.clone().with_threads(threads);
            let claims = AtomicUsize::new(0);
            let stop = || claims.fetch_add(1, Ordering::SeqCst) >= 3;
            assert_eq!(sim.batch_until(&groups, stop), Err(Cancelled));
            assert!(claims.load(Ordering::SeqCst) > 3, "the stop fired mid-run");
        }
    }

    /// The service contract: one `Simulator` session and its report types
    /// must be shareable across worker threads (`Arc<Simulator>` serving
    /// concurrent HTTP requests). A compile-time guarantee — if a field
    /// ever grows interior mutability without synchronization, this stops
    /// building.
    #[test]
    fn sessions_and_reports_are_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Simulator>();
        shareable::<ChipConfig>();
        shareable::<ModelReport>();
        shareable::<LayerReport>();
        shareable::<OpAggregate>();
        shareable::<OpSim>();
    }
}
