//! The training loop with sparsity instrumentation.

use crate::data::Dataset;
use crate::network::{ConvSnapshot, Network};
use crate::optim::Sgd;
use crate::prune::Pruner;
use rand::Rng;
use tensordash_trace::{extract_op_trace, OpTrace, SampleSpec, TrainingOp};

/// Per-layer traces of one batch: `(layer name, [Forward, InputGrad,
/// WeightGrad])` for every weighted layer, in network order.
pub type LayerTraces = Vec<(String, [OpTrace; 3])>;

/// Metrics of one training epoch.
///
/// # The sparsity convention
///
/// The three sparsity fields are **plain means across weighted layers**
/// — every layer contributes equally, regardless of its element count —
/// and the activation/gradient values are measured on the **last batch
/// of the epoch only** (the snapshots a training step caches), mirroring
/// the paper's trace-one-random-batch-per-epoch methodology (§4
/// "Collecting Traces"). They are *summary statistics* for progress
/// reporting; the simulator never consumes them — it reads the exact
/// per-element masks of the extracted traces, which carry each layer's
/// true element counts. An element-weighted mean would track the traffic
/// mix more closely but would no longer be comparable across layers of
/// very different sizes, so the plain-mean convention is kept and
/// documented here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Training accuracy.
    pub accuracy: f64,
    /// Mean input-activation sparsity across weighted layers (plain mean,
    /// last batch only — see the struct docs).
    pub act_sparsity: f64,
    /// Mean output-gradient sparsity across weighted layers (plain mean,
    /// last batch only — see the struct docs).
    pub grad_sparsity: f64,
    /// Mean weight sparsity across weighted layers (plain mean; weights
    /// are not batch-dependent).
    pub weight_sparsity: f64,
}

/// Drives training of a [`Network`] on a [`Dataset`], optionally with
/// pruning-during-training, and exposes per-layer traces of the last batch
/// — mirroring the paper's methodology of tracing one random batch per
/// epoch (§4 "Collecting Traces").
pub struct Trainer {
    network: Network,
    optimizer: Sgd,
    dataset: Dataset,
    pruner: Option<Pruner>,
}

impl Trainer {
    /// Creates a trainer without pruning.
    #[must_use]
    pub fn new(network: Network, optimizer: Sgd, dataset: Dataset) -> Self {
        Trainer {
            network,
            optimizer,
            dataset,
            pruner: None,
        }
    }

    /// Attaches a pruning method (rebalanced once per epoch).
    #[must_use]
    pub fn with_pruner(mut self, pruner: Pruner) -> Self {
        self.pruner = Some(pruner);
        self
    }

    /// The network (e.g. for evaluation).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The dataset.
    #[must_use]
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Runs one epoch of mini-batch SGD; returns the epoch metrics.
    ///
    /// # Errors
    ///
    /// Returns an error string if the dataset is empty.
    pub fn run_epoch(
        &mut self,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> Result<EpochStats, String> {
        self.epoch_loop(batch_size, rng, None)
            .map(|(stats, _)| stats)
    }

    /// The shared epoch loop behind [`Trainer::run_epoch`] and the
    /// epoch iterator: mini-batch SGD, with trace extraction happening
    /// **inside the batch loop** when `trace` is `Some((lanes, sample))`.
    ///
    /// The last batch's traces are gathered right after that batch's
    /// optimizer (and prune-mask) step, while its cached activations and
    /// ReLU bitmaps are still hot — no second post-epoch sweep over the
    /// layer tensors. For unpruned runs this is bit-identical to calling
    /// [`Trainer::traces`] after the epoch returns (nothing mutates the
    /// caches in between). For pruned runs the traces see the weights
    /// *before* the end-of-epoch `rebalance` — i.e. exactly the tensors
    /// the last batch trained with, which is what a trace of that batch
    /// should contain.
    fn epoch_loop(
        &mut self,
        batch_size: usize,
        rng: &mut impl Rng,
        trace: Option<(usize, SampleSpec)>,
    ) -> Result<(EpochStats, Option<LayerTraces>), String> {
        if self.dataset.is_empty() {
            return Err("cannot train on an empty dataset".to_string());
        }
        let batches = self.dataset.epoch_batches(batch_size, rng);
        let last = batches.len() - 1;
        let mut loss_sum = 0.0;
        let mut correct = 0usize;
        let mut seen = 0usize;
        let mut layers = None;
        for (bi, indices) in batches.iter().enumerate() {
            let (x, labels) = self.dataset.batch(indices);
            let (loss, batch_correct) = self.network.train_step(&x, &labels);
            self.optimizer.step(&mut self.network);
            if let Some(pruner) = &mut self.pruner {
                pruner.apply(&mut self.network);
            }
            loss_sum += loss * labels.len() as f64;
            correct += batch_correct;
            seen += labels.len();
            if bi == last {
                if let Some((lanes, sample)) = &trace {
                    layers = Some(self.traces(*lanes, sample));
                }
            }
        }
        if let Some(pruner) = &mut self.pruner {
            pruner.rebalance(&mut self.network, &self.optimizer, rng);
        }
        let stats = EpochStats {
            loss: loss_sum / seen as f64,
            accuracy: correct as f64 / seen as f64,
            act_sparsity: self.network.activation_sparsity(),
            grad_sparsity: self.network.gradient_sparsity(),
            weight_sparsity: self.network.weight_sparsity(),
        };
        Ok((stats, layers))
    }

    /// Snapshots of the last trained batch's weighted layers.
    #[must_use]
    pub fn snapshots(&self) -> Vec<ConvSnapshot> {
        self.network.snapshots()
    }

    /// Runs `epochs` epochs as an iterator of [`EpochTrace`]s: each step
    /// trains one epoch and extracts the last batch's per-layer traces —
    /// the **epoch-iterator API** every consumer of live sparsity drives
    /// (the `tensordash train` subcommand, the examples) instead of
    /// hand-rolling a train-then-extract loop. Extraction happens inside
    /// the batch loop, straight off the layer caches of the last batch
    /// (see [`Trainer::traces`]) — not as a second post-epoch sweep.
    ///
    /// `lanes`/`sample` configure trace extraction; the yielded progress
    /// runs linearly from 0 (first epoch) to 1 (last epoch). Training
    /// errors (an empty dataset) surface as one `Err` item and end the
    /// iteration.
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use tensordash_nn::{Dataset, Network, Sgd, Trainer};
    /// use tensordash_trace::SampleSpec;
    ///
    /// let mut rng = StdRng::seed_from_u64(7);
    /// let dataset = Dataset::synthetic_shapes(4, 120, 12, &mut rng);
    /// let network = Network::small_cnn(1, 12, 4, &mut rng);
    /// let mut trainer = Trainer::new(network, Sgd::new(0.05, 0.9), dataset);
    /// for epoch in trainer.epochs(2, 32, 16, SampleSpec::new(2, 16), &mut rng) {
    ///     let epoch = epoch.unwrap();
    ///     assert_eq!(epoch.layers.len(), 3); // conv1, conv2, fc
    /// }
    /// ```
    pub fn epochs<'a, R: Rng>(
        &'a mut self,
        epochs: usize,
        batch_size: usize,
        lanes: usize,
        sample: SampleSpec,
        rng: &'a mut R,
    ) -> TrainingRun<'a, R> {
        TrainingRun {
            trainer: self,
            rng,
            epochs,
            batch_size,
            lanes,
            sample,
            next: 0,
            failed: false,
        }
    }

    /// Extracts the three per-layer operation traces of the last batch —
    /// authentic dynamic sparsity, straight from training.
    ///
    /// Convolution tensors are borrowed straight out of the layer caches
    /// (no snapshot clones), and convolutions directly followed by a ReLU
    /// carry the post-activation non-zero count the activation's forward
    /// bitmap already paid for — it drives the forward op's
    /// output-compression traffic.
    #[must_use]
    pub fn traces(&self, lanes: usize, sample: &SampleSpec) -> LayerTraces {
        let mut out = Vec::new();
        self.network.visit_layer_tensors(&mut |name, tensors| {
            let traces = [
                extract_op_trace(&tensors, TrainingOp::Forward, lanes, sample),
                extract_op_trace(&tensors, TrainingOp::InputGrad, lanes, sample),
                extract_op_trace(&tensors, TrainingOp::WeightGrad, lanes, sample),
            ];
            out.push((name.to_string(), traces));
        });
        out
    }
}

/// One trained epoch with its extracted traces: what the live leg of the
/// `TraceSource` pipeline feeds straight into the simulator.
#[derive(Debug, Clone)]
pub struct EpochTrace {
    /// Epoch index, from 0.
    pub epoch: usize,
    /// Training progress in `[0, 1]`: 0 at the first epoch, 1 at the
    /// last (0.0 for a single-epoch run).
    pub progress: f64,
    /// The epoch's metrics.
    pub stats: EpochStats,
    /// `(layer name, [Forward, InputGrad, WeightGrad])` traces of the
    /// epoch's last batch, per weighted layer.
    pub layers: LayerTraces,
}

/// The iterator behind [`Trainer::epochs`]. Each `next()` trains one
/// epoch and extracts its traces; iteration ends after the configured
/// epoch count or the first training error.
pub struct TrainingRun<'a, R: Rng> {
    trainer: &'a mut Trainer,
    rng: &'a mut R,
    epochs: usize,
    batch_size: usize,
    lanes: usize,
    sample: SampleSpec,
    next: usize,
    failed: bool,
}

impl<R: Rng> Iterator for TrainingRun<'_, R> {
    type Item = Result<EpochTrace, String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.next >= self.epochs {
            return None;
        }
        let epoch = self.next;
        self.next += 1;
        let (stats, layers) = match self.trainer.epoch_loop(
            self.batch_size,
            self.rng,
            Some((self.lanes, self.sample)),
        ) {
            Ok(result) => result,
            Err(message) => {
                self.failed = true;
                return Some(Err(message));
            }
        };
        let progress = if self.epochs <= 1 {
            0.0
        } else {
            epoch as f64 / (self.epochs - 1) as f64
        };
        Some(Ok(EpochTrace {
            epoch,
            progress,
            stats,
            layers: layers.unwrap_or_default(),
        }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = if self.failed {
            0
        } else {
            self.epochs - self.next
        };
        (0, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::PruneMethod;
    use rand::{rngs::StdRng, SeedableRng};

    fn trainer(rng: &mut StdRng) -> Trainer {
        let dataset = Dataset::synthetic_shapes(4, 240, 12, rng);
        let network = Network::small_cnn(1, 12, 4, rng);
        Trainer::new(network, Sgd::new(0.05, 0.9), dataset)
    }

    #[test]
    fn training_learns_the_synthetic_task() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut t = trainer(&mut rng);
        let first = t.run_epoch(32, &mut rng).unwrap();
        let mut last = first;
        for _ in 0..7 {
            last = t.run_epoch(32, &mut rng).unwrap();
        }
        assert!(last.loss < first.loss, "{} -> {}", first.loss, last.loss);
        assert!(last.accuracy > 0.8, "accuracy {}", last.accuracy);
    }

    #[test]
    fn activation_sparsity_emerges_from_relu() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut t = trainer(&mut rng);
        let mut stats = t.run_epoch(32, &mut rng).unwrap();
        for _ in 0..4 {
            stats = t.run_epoch(32, &mut rng).unwrap();
        }
        assert!(
            stats.act_sparsity > 0.1,
            "act sparsity {}",
            stats.act_sparsity
        );
        assert!(
            stats.grad_sparsity > 0.1,
            "grad sparsity {}",
            stats.grad_sparsity
        );
        // No pruning: weights stay dense.
        assert!(stats.weight_sparsity < 0.01);
    }

    #[test]
    fn pruned_training_keeps_learning_at_high_weight_sparsity() {
        let mut rng = StdRng::seed_from_u64(42);
        let dataset = Dataset::synthetic_shapes(4, 240, 12, &mut rng);
        let network = Network::small_cnn(1, 12, 4, &mut rng);
        let mut t = Trainer::new(network, Sgd::new(0.05, 0.9), dataset).with_pruner(Pruner::new(
            PruneMethod::DynamicSparse,
            0.8,
            0.1,
        ));
        let mut stats = t.run_epoch(32, &mut rng).unwrap();
        for _ in 0..9 {
            stats = t.run_epoch(32, &mut rng).unwrap();
        }
        assert!(
            stats.weight_sparsity > 0.75,
            "weight sparsity {}",
            stats.weight_sparsity
        );
        assert!(stats.accuracy > 0.6, "accuracy {}", stats.accuracy);
    }

    /// Same seed ⇒ bit-identical training: the determinism the recorded
    /// artifact pipeline (and every cache key) relies on. `EpochStats` is
    /// compared with exact `f64` equality and every extracted trace mask
    /// for mask.
    #[test]
    fn same_seed_training_is_bit_identical() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(44);
            let mut t = trainer(&mut rng);
            let sample = SampleSpec::new(4, 32);
            let mut out = Vec::new();
            for epoch in t.epochs(3, 32, 16, sample, &mut rng) {
                out.push(epoch.unwrap());
            }
            out
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for (ea, eb) in a.iter().zip(&b) {
            assert_eq!(ea.epoch, eb.epoch);
            assert_eq!(ea.progress.to_bits(), eb.progress.to_bits());
            // Exact equality, not approximate: EpochStats is Copy+PartialEq
            // over f64s and the two runs must take identical FP paths.
            assert_eq!(ea.stats, eb.stats);
            assert_eq!(ea.layers, eb.layers, "epoch {} traces diverged", ea.epoch);
        }
    }

    #[test]
    fn epoch_iterator_matches_the_manual_loop() {
        let mut rng_a = StdRng::seed_from_u64(45);
        let mut manual = trainer(&mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(45);
        let mut iterated = trainer(&mut rng_b);

        let sample = SampleSpec::new(4, 32);
        let epochs: Vec<EpochTrace> = iterated
            .epochs(2, 32, 16, sample, &mut rng_b)
            .map(Result::unwrap)
            .collect();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].progress, 0.0);
        assert_eq!(epochs[1].progress, 1.0);
        for (i, epoch) in epochs.iter().enumerate() {
            let stats = manual.run_epoch(32, &mut rng_a).unwrap();
            assert_eq!(epoch.stats, stats, "epoch {i} stats diverged");
            assert_eq!(epoch.layers, manual.traces(16, &sample));
        }
    }

    #[test]
    fn epoch_iterator_surfaces_training_errors_once() {
        let mut rng = StdRng::seed_from_u64(46);
        let dataset = Dataset::synthetic_shapes(4, 1, 12, &mut rng);
        let network = Network::small_cnn(1, 12, 4, &mut rng);
        let mut t = Trainer::new(network, Sgd::new(0.05, 0.9), dataset);
        // Drain the dataset to empty is not possible through the API;
        // instead check the single-epoch progress convention and that a
        // healthy run yields exactly `epochs` items.
        let items: Vec<_> = t
            .epochs(1, 8, 16, SampleSpec::new(2, 16), &mut rng)
            .collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].as_ref().unwrap().progress, 0.0);
    }

    #[test]
    fn traces_extract_for_every_weighted_layer() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut t = trainer(&mut rng);
        let _ = t.run_epoch(32, &mut rng).unwrap();
        let traces = t.traces(16, &SampleSpec::new(8, 64));
        assert_eq!(traces.len(), 3);
        for (name, ops) in &traces {
            assert!(!name.is_empty());
            for trace in ops {
                assert!(!trace.is_empty());
            }
        }
    }
}
