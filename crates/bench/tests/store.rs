//! Acceptance tests of the content-addressed trace store pipeline
//! (pack → upload → run by digest):
//!
//! * a trace replayed from the binary store is **byte-identical** to a
//!   JSON `recorded` replay of the same recording, through both the
//!   declarative `--config` path and the live `tensordash serve`
//!   request path;
//! * v1-JSON and v2-binary encodings of one trace share one content
//!   digest, one store object, and one `TraceCache` entry;
//! * N concurrent identical uploads dedupe to one store object and
//!   yield byte-identical reports;
//! * served `recorded` paths are jailed to `--trace-dir` — traversal
//!   out of it is a `400`, and a service without a store rejects both
//!   recorded and stored sources.

use std::path::PathBuf;
use std::time::Duration;
use tensordash_bench::experiment::{ExperimentSpec, SourceContext};
use tensordash_bench::harness::TraceCache;
use tensordash_bench::loadtest::await_report;
use tensordash_bench::service::{Service, ServiceConfig};
use tensordash_serde::json;
use tensordash_serde::Serialize;
use tensordash_server::http::{client_request, client_request_bytes};
use tensordash_server::retry::RetryPolicy;
use tensordash_sim::EvalSpec;
use tensordash_store::TraceStore;
use tensordash_trace::{
    ConvDims, EpochRecord, RecordingMeta, SampleSpec, SparsityGen, TraceRecording, TrainMetrics,
    TrainingOp, UniformSparsity,
};

const TIMEOUT: Duration = Duration::from_secs(30);

/// A unique, self-cleaning test directory (no tempfile crate in the
/// offline workspace).
struct TestDir(PathBuf);

impl TestDir {
    fn new(label: &str) -> Self {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tensordash-bench-store-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small deterministic recording whose 16 lanes match the paper chip,
/// so it replays through the default spec in milliseconds.
fn tiny_recording(seed: u64) -> TraceRecording {
    let dims = ConvDims::conv_square(1, 16, 6, 8, 3, 1, 1);
    let sample = SampleSpec::new(4, 16);
    let mut recording = TraceRecording::new(RecordingMeta {
        name: format!("store-accept-{seed}"),
        epochs: 1,
        batch_size: 8,
        seed,
        lanes: 16,
        sample,
    });
    let mk = |op, s| UniformSparsity::new(0.5).op_trace(dims, op, 16, &sample, s);
    recording.epochs.push(EpochRecord {
        epoch: 0,
        progress: 0.0,
        metrics: TrainMetrics {
            loss: 1.0,
            accuracy: 0.5,
            act_sparsity: 0.4,
            grad_sparsity: 0.6,
            weight_sparsity: 0.0,
        },
        layers: vec![(
            "conv1".to_string(),
            [
                mk(TrainingOp::Forward, seed + 1),
                mk(TrainingOp::InputGrad, seed + 2),
                mk(TrainingOp::WeightGrad, seed + 3),
            ],
        )],
    });
    recording
}

fn poll_report(addr: std::net::SocketAddr, submit_body: &str) -> (u16, String) {
    let (status, response) =
        client_request(addr, "POST", "/v1/experiments", Some(submit_body), TIMEOUT).unwrap();
    if status != 202 {
        return (status, response);
    }
    let id = json::parse(&response)
        .unwrap()
        .get("job")
        .unwrap()
        .as_int()
        .unwrap();
    let report_url = format!("/v1/jobs/{id}/report");
    let polled = await_report(addr, &report_url, TIMEOUT, &RetryPolicy::none(), &mut 0).unwrap();
    (polled.status, polled.body_utf8_lossy())
}

/// The tentpole acceptance gate: a binary-store replay is byte-identical
/// to a JSON `recorded` replay of the same recording — through the
/// declarative `--config` path (ExperimentSpec::run) and through
/// `tensordash serve`.
#[test]
fn stored_replay_is_byte_identical_to_json_replay_through_config_and_serve() {
    let dir = TestDir::new("identity");
    let recording = tiny_recording(7);

    // The JSON `recorded` leg, exactly what `--config` runs.
    let json_path = dir.0.join("accept.trace.json");
    std::fs::write(&json_path, recording.to_json()).unwrap();
    let recorded_spec = ExperimentSpec::new("accept").with_eval(
        EvalSpec::builder()
            .recorded(json_path.to_string_lossy())
            .build()
            .unwrap(),
    );
    let expected_reports = recorded_spec.run().unwrap();
    let expected = json::write(&recorded_spec.report_document(&expected_reports));

    // The binary-store leg through the same `--config` machinery: insert
    // the v2 encoding, run a `stored` spec against the store.
    let store = TraceStore::open(dir.0.join("store")).unwrap();
    let outcome = store.insert_bytes(&recording.to_bytes(), None).unwrap();
    let digest_hex = format!("{:016x}", outcome.digest);
    let stored_spec = ExperimentSpec::new("accept").with_eval(
        EvalSpec::builder()
            .stored(digest_hex.as_str())
            .build()
            .unwrap(),
    );
    let ctx = SourceContext::local().with_store(&store);
    let cache = TraceCache::new();
    let stored_reports = stored_spec.run_in(&cache, &ctx, &mut |_, _| {}).unwrap();
    assert_eq!(
        json::write(&expected_reports[0].serialize()),
        json::write(&stored_reports[0].serialize()),
        "store replay diverged from JSON replay"
    );

    // The serve leg: upload the binary, submit the stored spec, and the
    // report document matches the direct JSON-replay document (modulo
    // the spec's own `source` echo, so compare the reports array).
    let service = Service::bind(&ServiceConfig {
        trace_dir: Some(dir.0.join("store")),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let running = service.spawn();

    let (status, body) = client_request_bytes(
        addr,
        "POST",
        &format!("/v1/traces?digest={digest_hex}"),
        &recording.to_bytes(),
        "application/octet-stream",
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 201, "{body}");
    let uploaded = json::parse(&body).unwrap();
    assert_eq!(
        uploaded.get("digest").unwrap().as_str().unwrap(),
        digest_hex
    );
    assert!(
        uploaded.get("deduplicated").unwrap().as_bool().unwrap(),
        "the object was pre-inserted; the upload must dedupe: {body}"
    );

    let (status, served) = poll_report(addr, &json::write_compact(&stored_spec.serialize()));
    assert_eq!(status, 200, "{served}");
    let served_doc = json::parse(&served).unwrap();
    let expected_doc = json::parse(&expected).unwrap();
    assert_eq!(
        json::write(served_doc.get("reports").unwrap()),
        json::write(expected_doc.get("reports").unwrap()),
        "serve store replay diverged from the direct JSON replay"
    );
    running.shutdown_and_join().unwrap();
}

/// Satellites (b) + (c): concurrent identical uploads (one per client
/// thread, mixed v1/v2 encodings) collapse onto one store object and —
/// together with a `recorded` replay of the JSON twin — one TraceCache
/// entry; every report comes back byte-identical.
#[test]
fn concurrent_uploads_dedupe_to_one_object_and_one_cache_entry() {
    let dir = TestDir::new("dedup");
    let recording = tiny_recording(21);
    let v2 = recording.to_bytes();
    let v1 = recording.to_json().into_bytes();

    // The JSON twin also lives inside the trace dir for the `recorded`
    // cross-format leg.
    let trace_dir = dir.0.join("store");
    std::fs::create_dir_all(&trace_dir).unwrap();
    std::fs::write(trace_dir.join("twin.trace.json"), &v1).unwrap();

    let service = Service::bind(&ServiceConfig {
        trace_dir: Some(trace_dir),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let running = service.spawn();

    // Six concurrent uploaders, alternating wire encodings.
    let digests: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let body: &[u8] = if i % 2 == 0 { &v2 } else { &v1 };
                scope.spawn(move || {
                    let (status, response) = client_request_bytes(
                        addr,
                        "POST",
                        "/v1/traces",
                        body,
                        "application/octet-stream",
                        TIMEOUT,
                    )
                    .unwrap();
                    assert_eq!(status, 201, "{response}");
                    json::parse(&response)
                        .unwrap()
                        .get("digest")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "v1 and v2 uploads must share one content digest: {digests:?}"
    );

    let (_, body) = client_request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
    let metrics = json::parse(&body).unwrap();
    let store_stats = metrics.get("store").unwrap();
    assert_eq!(store_stats.get("objects").unwrap().as_u64().unwrap(), 1);
    assert_eq!(store_stats.get("uploads").unwrap().as_u64().unwrap(), 6);

    // Replaying by digest twice and by the recorded JSON twin once all
    // collapse onto ONE cache entry and byte-identical reports.
    let stored_spec = ExperimentSpec::new("dedup").with_eval(
        EvalSpec::builder()
            .stored(digests[0].as_str())
            .build()
            .unwrap(),
    );
    let recorded_spec = ExperimentSpec::new("dedup").with_eval(
        EvalSpec::builder()
            .recorded("twin.trace.json")
            .build()
            .unwrap(),
    );
    let stored_body = json::write_compact(&stored_spec.serialize());
    let mut reports = Vec::new();
    for body in [
        &stored_body,
        &stored_body,
        &json::write_compact(&recorded_spec.serialize()),
    ] {
        let (status, report) = poll_report(addr, body);
        assert_eq!(status, 200, "{report}");
        reports.push(json::write(
            json::parse(&report).unwrap().get("reports").unwrap(),
        ));
    }
    assert_eq!(reports[0], reports[1], "repeat stored replays diverged");
    assert_eq!(
        reports[0], reports[2],
        "stored and recorded replays of one trace diverged"
    );

    let (_, body) = client_request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
    let metrics = json::parse(&body).unwrap();
    let cache = metrics.get("cache").unwrap();
    assert_eq!(
        cache.get("entries").unwrap().as_u64().unwrap(),
        1,
        "cross-format replays must share one cache entry: {body}"
    );
    assert_eq!(cache.get("misses").unwrap().as_u64().unwrap(), 1, "{body}");
    assert_eq!(cache.get("hits").unwrap().as_u64().unwrap(), 2, "{body}");

    running.shutdown_and_join().unwrap();
}

/// Satellite (a): the service jail. `recorded` paths resolve inside
/// `--trace-dir` only; escapes and absolute paths are a `400`, and a
/// service without a store rejects uploads and both source kinds.
#[test]
fn served_recorded_paths_are_jailed_and_storeless_services_reject() {
    let dir = TestDir::new("jail");
    let trace_dir = dir.0.join("store");
    std::fs::create_dir_all(&trace_dir).unwrap();
    let recording = tiny_recording(5);
    std::fs::write(trace_dir.join("inner.trace.json"), recording.to_json()).unwrap();
    // A perfectly valid artifact OUTSIDE the jail: reachable on disk,
    // but the service must refuse to read it.
    let outside = dir.0.join("outside.trace.json");
    std::fs::write(&outside, recording.to_json()).unwrap();

    let service = Service::bind(&ServiceConfig {
        trace_dir: Some(trace_dir),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let running = service.spawn();

    // Inside the jail: a relative path serves normally.
    let inner = r#"{"eval": {"source": {"recorded": "inner.trace.json"}}}"#;
    let (status, report) = poll_report(addr, inner);
    assert_eq!(status, 200, "{report}");

    // `../` traversal to a real file: rejected without reading it.
    let escape = r#"{"eval": {"source": {"recorded": "../outside.trace.json"}}}"#;
    let (status, body) =
        client_request(addr, "POST", "/v1/experiments", Some(escape), TIMEOUT).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("escapes the trace directory"), "{body}");

    // Absolute path to the same file: also rejected.
    let absolute = format!(
        r#"{{"eval": {{"source": {{"recorded": "{}"}}}}}}"#,
        outside.to_string_lossy()
    );
    let (status, body) =
        client_request(addr, "POST", "/v1/experiments", Some(&absolute), TIMEOUT).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("escapes the trace directory"), "{body}");

    // A missing in-jail path fails with not-found, not an escape.
    let missing = r#"{"eval": {"source": {"recorded": "nope.trace.json"}}}"#;
    let (status, body) =
        client_request(addr, "POST", "/v1/experiments", Some(missing), TIMEOUT).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("not found under the trace directory"),
        "{body}"
    );

    // Digest mismatch on upload: 409, nothing committed under that name.
    let (status, body) = client_request_bytes(
        addr,
        "POST",
        "/v1/traces?digest=00000000000000aa",
        &recording.to_bytes(),
        "application/octet-stream",
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("digest mismatch"), "{body}");

    // Corrupt upload: 400.
    let (status, body) = client_request_bytes(
        addr,
        "POST",
        "/v1/traces",
        b"definitely not a trace",
        "application/octet-stream",
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");

    // A stored digest that is not present: 400 at submission.
    let absent = r#"{"eval": {"source": {"stored": "00000000000000aa"}}}"#;
    let (status, body) =
        client_request(addr, "POST", "/v1/experiments", Some(absent), TIMEOUT).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("no stored trace"), "{body}");
    running.shutdown_and_join().unwrap();

    // Without --trace-dir: uploads 503, recorded and stored specs 400.
    let bare = Service::bind(&ServiceConfig::default()).unwrap();
    let addr = bare.local_addr();
    let running = bare.spawn();
    let (status, body) = client_request_bytes(
        addr,
        "POST",
        "/v1/traces",
        &recording.to_bytes(),
        "application/octet-stream",
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("--trace-dir"), "{body}");
    let (status, body) =
        client_request(addr, "POST", "/v1/experiments", Some(inner), TIMEOUT).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("--trace-dir"), "{body}");
    let (status, body) =
        client_request(addr, "POST", "/v1/experiments", Some(absent), TIMEOUT).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("--trace-dir"), "{body}");
    running.shutdown_and_join().unwrap();
}
