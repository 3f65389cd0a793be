//! The calibrated [`TraceSource`]: the model zoo's sparsity profiles and
//! synthetic generators behind the unified provider abstraction.

use crate::build::layer_traces;
use crate::zoo::ModelSpec;
use tensordash_trace::{LayerOps, SourceError, TraceRequest, TraceSource};

/// A [`TraceSource`] generating traces from a zoo model's calibrated
/// sparsity profile — the path every CLI experiment, sweep, and service
/// request historically ran, now one provider among three.
///
/// `layer_ops` delegates to [`layer_traces`] unchanged, so reports built
/// through this source are **bit-identical** to the pre-`TraceSource`
/// pipeline (enforced by `crates/bench/tests/sources.rs`). That build runs
/// the model's (layer, op) traces in parallel and stays byte-identical to
/// a serial build, since each draws from its own seed and results return
/// in input order. The arenas are allocated on the calling thread and
/// only filled by the workers, so freed trace memory goes back to one heap
/// rather than staying in the allocator's per-thread heaps.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedSource {
    model: ModelSpec,
}

impl CalibratedSource {
    /// A source over `model`.
    #[must_use]
    pub fn new(model: ModelSpec) -> Self {
        CalibratedSource { model }
    }

    /// The wrapped model spec.
    #[must_use]
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }
}

impl From<ModelSpec> for CalibratedSource {
    fn from(model: ModelSpec) -> Self {
        CalibratedSource::new(model)
    }
}

/// A [`ModelSpec`] *is* a calibrated trace source: borrowed call sites
/// (the evaluation harness, the trace cache) pass `&ModelSpec` straight
/// as `&dyn TraceSource` without cloning the spec;
/// [`CalibratedSource`] wraps the same behaviour for owned use.
impl TraceSource for ModelSpec {
    fn label(&self) -> &str {
        &self.name
    }

    /// Zoo model names identify their layer geometry and sparsity
    /// profile (the long-standing trace-cache assumption), so the name is
    /// the content identity.
    fn identity(&self) -> String {
        format!("calibrated:{}", self.name)
    }

    fn layer_ops(&self, request: &TraceRequest) -> Result<Vec<LayerOps>, SourceError> {
        Ok(layer_traces(
            self,
            request.progress,
            request.lanes,
            &request.sample,
            request.seed,
        )
        .into_iter()
        .map(|(layer, ops)| (layer.name, ops))
        .collect())
    }
}

impl TraceSource for CalibratedSource {
    fn label(&self) -> &str {
        self.model.label()
    }

    fn identity(&self) -> String {
        self.model.identity()
    }

    fn layer_ops(&self, request: &TraceRequest) -> Result<Vec<LayerOps>, SourceError> {
        self.model.layer_ops(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::paper_models;
    use tensordash_trace::SampleSpec;

    #[test]
    fn calibrated_traces_match_the_direct_build_path() {
        let model = paper_models().remove(0);
        let request = TraceRequest {
            progress: 0.45,
            lanes: 16,
            sample: SampleSpec::new(4, 32),
            seed: 9,
        };
        let direct = layer_traces(&model, 0.45, 16, &request.sample, 9);
        let source = CalibratedSource::new(model);
        let via_source = source.layer_ops(&request).unwrap();
        assert_eq!(via_source.len(), direct.len());
        for ((name, ops), (layer, direct_ops)) in via_source.iter().zip(&direct) {
            assert_eq!(*name, layer.name);
            assert_eq!(ops, direct_ops, "{name} traces diverged");
        }
        assert_eq!(source.identity(), "calibrated:AlexNet");
        assert_eq!(source.label(), "AlexNet");
    }
}
