//! # tensordash-trace
//!
//! Operand-stream traces for the three convolutions a layer performs per
//! training step (paper §2, Table 1):
//!
//! | op | computation | scheduled (sparse) side | paper name |
//! |----|-------------|--------------------------|------------|
//! | [`TrainingOp::Forward`]    | `O  = W ⋆ A`  | activations `A`        | `A×W` |
//! | [`TrainingOp::InputGrad`]  | `GA = GO ⋆ W` | output gradients `GO`  | `A×G` |
//! | [`TrainingOp::WeightGrad`] | `GW = GO ⋆ A` | `GO` or `A`, whichever is sparser | `W×G` |
//!
//! A trace ([`OpTrace`]) is what the cycle simulator consumes: per
//! *scheduled-side stream* (one per tile row — a spatial window of `A`, an
//! input position of `GO`, or a filter's gradient map), the sequence of
//! `lanes`-wide effectuality masks in PE reduction order, plus the element
//! volumes the memory system moves. Traces come from two sources:
//!
//! * [`extract`]: bit-exact extraction from real tensors produced by the
//!   `tensordash-nn` trainer — authentic dynamic sparsity. The default
//!   path gathers lane masks from per-tensor non-zero **bitmaps** (one
//!   pass over each tensor, then word gathers per window); the original
//!   per-element walk survives as
//!   [`extract_op_trace_reference`], its golden model;
//! * [`sparsity`]: seeded synthetic generators (uniform and clustered) that
//!   reproduce target sparsity statistics for the paper's full-size models,
//!   whose ImageNet training runs are outside this environment (see
//!   DESIGN.md §3 "Substitutions").
//!
//! Both flow to consumers through one provider abstraction, the
//! [`TraceSource`] trait ([`source`]): calibrated profiles
//! (`tensordash-models`), live training (`tensordash-nn`), and recorded
//! artifacts ([`record`] — versioned, lossless captures of a training
//! run's traces, replayable bit-exactly). Recordings serialize to two
//! interchangeable encodings with one content identity: readable v1 JSON
//! ([`record`]) and the compact binary `tensordash-trace/2` ([`binfmt`])
//! whose load path is a near-memcpy walk over the mask arena.
//!
//! [`par`] holds the one order-preserving work-stealing loop
//! ([`par_map`]) and default thread count ([`default_threads`]) that the
//! simulator's batches and the model zoo's trace builds both run on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binfmt;
pub mod dims;
pub mod extract;
pub mod par;
pub mod record;
pub mod source;
pub mod sparsity;
pub mod stats;
pub mod stream;

pub use binfmt::{canonical_digest, is_v2, BINARY_SCHEMA};
pub use dims::{ConvDims, TrainingOp};
pub use extract::{
    extract_op_trace, extract_op_trace_reference, sampled_window_indices, LayerTensors,
};
pub use par::{default_threads, par_map};
pub use record::{
    content_digest, EpochRecord, RecordedSource, RecordingMeta, TraceRecording, TrainMetrics,
    RECORDING_SCHEMA,
};
pub use source::{LayerOps, SourceError, TraceRequest, TraceSource};
pub use sparsity::{ClusteredSparsity, SparsityGen, UniformSparsity};
pub use stats::{potential_speedup, OpStats};
pub use stream::{
    lane_mask, OpTrace, SampleSpec, TraceArena, TrafficVolumes, WindowSpan, WindowTrace,
};
