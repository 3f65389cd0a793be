//! Correctness gates: every report the benchmark times is compared
//! byte for byte with an independently produced reference before any
//! number is reported.

use tensordash_bench::experiment::SourceContext;
use tensordash_bench::{ExperimentSpec, TraceCache};
use tensordash_serde::json;

/// Whether two report documents are byte-identical.
#[must_use]
pub fn same_bytes(expected: &str, got: &str) -> bool {
    expected.as_bytes() == got.as_bytes()
}

/// A 64-bit digest of report bytes, for comparing many large reports
/// across iterations without holding every copy in memory (which would
/// inflate the measured peak RSS).
#[must_use]
pub fn digest(bytes: &str) -> u64 {
    use std::hash::{DefaultHasher, Hasher};
    let mut h = DefaultHasher::new();
    h.write(bytes.as_bytes());
    h.finish()
}

/// The report bytes `ExperimentSpec::run_in` produces in-process — what
/// `--config` writes and what the service must serve for `spec`.
///
/// # Errors
///
/// The run's error, as text.
pub fn in_process_report(
    spec: &ExperimentSpec,
    cache: &TraceCache,
    ctx: &SourceContext<'_>,
) -> Result<String, String> {
    let reports = spec
        .run_in(cache, ctx, &mut |_, _| {})
        .map_err(|e| e.to_string())?;
    Ok(json::write(&spec.report_document(&reports)))
}
