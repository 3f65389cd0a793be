//! The traffic generator: `tensordash loadtest <url>`.
//!
//! Fires a randomized-but-deterministic mix of small experiment specs at
//! a running `tensordash serve` instance from N concurrent clients, polls
//! every job to completion, and reports end-to-end throughput and latency
//! percentiles.
//!
//! Each request's spec is derived from `(seed, request index)` alone, so
//! two runs against the same server are the same traffic, and the mix
//! exercises the trace cache the way real sweep traffic would: a few
//! models × a few seeds × varying chip geometry, with repeats.
//!
//! With `--upload-every N`, every Nth request instead uploads one
//! deterministic trace artifact to `POST /v1/traces` and replays it by
//! digest (`stored` source) — identical uploads from different clients
//! dedupe in the server's content-addressed store, so this leg measures
//! the upload + stored-replay path under the same contention as the
//! calibrated mix.
//!
//! With `--chaos <seed>` ([`run_chaos`]) the generator turns adversarial:
//! alongside byte-verified submits it fires connection resets, slow-loris
//! drips, oversized bodies, corrupt uploads, and microscopic-deadline
//! probes, then grades every leg against the failure model — the server
//! must survive, every failure must be typed, and every surviving report
//! must be byte-identical to a fault-free run.

use crate::experiment::ExperimentSpec;
use crate::harness::TraceCache;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tensordash_serde::{json, Serialize, Value};
use tensordash_server::fault::splitmix64;
use tensordash_server::http::{client_exchange, client_request_bytes, ClientResponse};
use tensordash_server::retry::{client_request_with_retry, retryable_status, Attempt, RetryPolicy};
use tensordash_sim::{ChipConfig, EvalSpec};
use tensordash_trace::{
    ConvDims, EpochRecord, RecordingMeta, SampleSpec, SparsityGen, TraceRecording, TrainMetrics,
    TrainingOp, UniformSparsity,
};

/// How the load generator should run.
#[derive(Debug, Clone)]
pub struct LoadtestOptions {
    /// The service address.
    pub addr: SocketAddr,
    /// Total experiments to submit.
    pub requests: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Mix seed: same seed, same traffic.
    pub seed: u64,
    /// Per-exchange socket timeout.
    pub timeout: Duration,
    /// Every Nth request uploads the run's trace artifact and replays it
    /// by digest; `0` (the default) keeps the pure calibrated mix. The
    /// server needs `--trace-dir` for this leg.
    pub upload_every: usize,
}

impl LoadtestOptions {
    /// The default full mix against `addr`: 64 requests from 8 clients.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        LoadtestOptions {
            addr,
            requests: 64,
            concurrency: 8,
            seed: 0xDA5A,
            timeout: Duration::from_secs(60),
            upload_every: 0,
        }
    }

    /// The seconds-scale CI variant: 12 requests from 4 clients. The
    /// per-request workload is identical to the full mix, so throughput
    /// stays commensurable between variants.
    #[must_use]
    pub fn smoke(addr: SocketAddr) -> Self {
        LoadtestOptions {
            requests: 12,
            concurrency: 4,
            ..LoadtestOptions::new(addr)
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Experiments submitted.
    pub requests: usize,
    /// Concurrent clients.
    pub concurrency: usize,
    /// Requests that errored (non-2xx, I/O failure, or a failed job).
    pub failures: usize,
    /// Requests that took the upload + stored-replay leg.
    pub uploads: usize,
    /// Extra attempts the retry policy made (transient transport errors
    /// and back-pressure statuses that later succeeded).
    pub retries: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
    /// Completed experiments per second.
    pub requests_per_sec: f64,
    /// Median submit→report latency, milliseconds.
    pub latency_ms_p50: f64,
    /// 90th-percentile latency, milliseconds.
    pub latency_ms_p90: f64,
    /// 99th-percentile latency, milliseconds.
    pub latency_ms_p99: f64,
}

impl LoadtestReport {
    /// The JSON document `tensordash loadtest` prints / `bench` embeds.
    #[must_use]
    pub fn document(&self) -> Value {
        Value::Table(vec![
            ("requests".into(), self.requests.serialize()),
            ("concurrency".into(), self.concurrency.serialize()),
            ("failures".into(), self.failures.serialize()),
            ("uploads".into(), self.uploads.serialize()),
            ("retries".into(), self.retries.serialize()),
            ("wall_seconds".into(), Value::Float(self.wall_seconds)),
            (
                "requests_per_sec".into(),
                Value::Float(self.requests_per_sec),
            ),
            ("latency_ms_p50".into(), Value::Float(self.latency_ms_p50)),
            ("latency_ms_p90".into(), Value::Float(self.latency_ms_p90)),
            ("latency_ms_p99".into(), Value::Float(self.latency_ms_p99)),
        ])
    }
}

/// The spec fired as request `index`: a deterministic function of
/// `(seed, index)`. Small models, tiny sampling effort, a handful of
/// seeds/geometries — service-shaped traffic, not paper-scale sweeps.
#[must_use]
pub fn mix_spec(seed: u64, index: usize) -> ExperimentSpec {
    let mut rng = StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let model = ["AlexNet", "SqueezeNet", "GCN"][rng.gen_range(0..3usize)];
    let tiles = [1usize, 2, 4][rng.gen_range(0..3usize)];
    let chip = ChipConfig::builder()
        .tiles(tiles)
        .build()
        .expect("mix chips are valid");
    // Few distinct trace keys (model × seed × progress), many repeats:
    // warm-cache traffic is the point of a resident service.
    let eval = EvalSpec {
        sample: tensordash_trace::SampleSpec::new(2, 16),
        progress: [0.2, 0.45][rng.gen_range(0..2usize)],
        seed: rng.gen_range(0..4u64),
        ..EvalSpec::sweep()
    };
    ExperimentSpec::new(format!("loadtest-{index}"))
        .with_models([model])
        .with_chip(chip)
        .with_eval(eval)
}

/// The one trace artifact an upload-mix run fires: a small deterministic
/// recording derived from the run seed, 16 lanes to match the default
/// chip. Every client uploads the *same* bytes, so the server-side store
/// dedupes them onto one object — exactly the production shape of many
/// clients sharing one trace by digest.
#[must_use]
pub fn upload_recording(seed: u64) -> TraceRecording {
    let dims = ConvDims::conv_square(1, 16, 6, 8, 3, 1, 1);
    let sample = SampleSpec::new(2, 16);
    let mut recording = TraceRecording::new(RecordingMeta {
        name: format!("loadtest-upload-{seed:x}"),
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
                mk(TrainingOp::Forward, seed ^ 1),
                mk(TrainingOp::InputGrad, seed ^ 2),
                mk(TrainingOp::WeightGrad, seed ^ 3),
            ],
        )],
    });
    recording
}

/// Parses `http://host:port` (or bare `host:port`) into a socket address.
///
/// # Errors
///
/// Returns a message when the URL does not resolve.
pub fn parse_service_url(url: &str) -> Result<SocketAddr, String> {
    let stripped = url
        .strip_prefix("http://")
        .unwrap_or(url)
        .trim_end_matches('/');
    if stripped.starts_with("https://") {
        return Err("the service speaks plain http, not https".to_string());
    }
    stripped
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{url}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{url}` resolved to no address"))
}

/// One client exchange: submit the spec, poll `report_url` until done.
/// Returns the submit→report latency.
fn drive_one(
    addr: SocketAddr,
    spec: &ExperimentSpec,
    timeout: Duration,
    policy: &RetryPolicy,
    retries: &AtomicU64,
) -> Result<f64, String> {
    drive_spec(addr, spec, timeout, Instant::now(), policy, retries)
}

/// The upload leg: push the artifact bytes (digest-verified), then
/// replay them by digest through the normal submit→poll exchange. The
/// latency clock covers the whole upload + replay round trip.
fn drive_upload(
    addr: SocketAddr,
    bytes: &[u8],
    digest: &str,
    index: usize,
    timeout: Duration,
    policy: &RetryPolicy,
    retries: &AtomicU64,
) -> Result<f64, String> {
    let start = Instant::now();
    let (status, response) = client_request_bytes(
        addr,
        "POST",
        &format!("/v1/traces?digest={digest}"),
        bytes,
        "application/octet-stream",
        timeout,
    )
    .map_err(|e| format!("upload failed: {e}"))?;
    if status != 201 {
        return Err(format!("upload got {status}: {response}"));
    }
    let spec = ExperimentSpec::new(format!("loadtest-upload-{index}")).with_eval(
        EvalSpec::builder()
            .stored(digest)
            .build()
            .expect("the upload digest is valid hex"),
    );
    drive_spec(addr, &spec, timeout, start, policy, retries)
}

fn drive_spec(
    addr: SocketAddr,
    spec: &ExperimentSpec,
    timeout: Duration,
    start: Instant,
    policy: &RetryPolicy,
    retries: &AtomicU64,
) -> Result<f64, String> {
    let body = json::write_compact(&spec.serialize());
    let mut extra = 0u64;
    let submit = client_request_with_retry(
        addr,
        "POST",
        "/v1/experiments",
        Some(&body),
        timeout,
        policy,
        Some(&mut extra),
    );
    retries.fetch_add(extra, Ordering::Relaxed);
    let response = submit.map_err(|e| format!("submit failed: {e}"))?;
    if response.status != 202 {
        return Err(format!(
            "submit got {}: {}",
            response.status,
            response.body_utf8_lossy()
        ));
    }
    let submitted = json::parse(&response.body_utf8_lossy())
        .map_err(|e| format!("bad submit response: {e}"))?;
    let report_url = submitted
        .get("report_url")
        .and_then(|v| v.as_str().ok().map(str::to_string))
        .ok_or("submit response missing report_url")?;
    let mut extra = 0u64;
    let polled = await_report(addr, &report_url, timeout, policy, &mut extra);
    retries.fetch_add(extra, Ordering::Relaxed);
    let report = polled?;
    match report.status {
        200 => Ok(start.elapsed().as_secs_f64()),
        other => Err(format!("poll got {other}: {}", report.body_utf8_lossy())),
    }
}

/// Polls `report_url` until it answers anything but `202` (job still
/// running) and returns that response. Each poll runs under `policy`;
/// its extra attempts are added to `retries`.
///
/// # Errors
///
/// The transport error once `policy` is spent, or a message when the
/// job is still running `timeout` after the first poll.
pub fn await_report(
    addr: SocketAddr,
    report_url: &str,
    timeout: Duration,
    policy: &RetryPolicy,
    retries: &mut u64,
) -> Result<ClientResponse, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let response = client_request_with_retry(
            addr,
            "GET",
            report_url,
            None,
            timeout,
            policy,
            Some(&mut *retries),
        )
        .map_err(|e| format!("poll failed: {e}"))?;
        if response.status != 202 {
            return Ok(response);
        }
        if Instant::now() > deadline {
            return Err(format!("job not done within {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs the load test: `options.concurrency` clients pull request indices
/// off a shared counter until `options.requests` have been fired.
///
/// # Errors
///
/// Returns a message when the service is unreachable outright (individual
/// request failures are counted in the report instead).
pub fn run(options: &LoadtestOptions) -> Result<LoadtestReport, String> {
    // Fail fast (and distinguish "no server" from "slow server").
    let response = client_exchange(
        options.addr,
        "GET",
        "/healthz",
        &[],
        "",
        options.timeout.min(Duration::from_secs(5)),
    )
    .map_err(|e| format!("service at {} unreachable: {e}", options.addr))?;
    if response.status != 200 {
        return Err(format!("service health check returned {}", response.status));
    }

    // The artifact every upload-leg request fires, built once: the whole
    // point is identical bytes deduping server-side.
    let upload = (options.upload_every > 0).then(|| {
        let recording = upload_recording(options.seed);
        let digest = format!("{:016x}", tensordash_trace::canonical_digest(&recording));
        (recording.to_bytes(), digest)
    });

    let next = AtomicUsize::new(0);
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(options.requests));
    let failures = AtomicUsize::new(0);
    let uploads = AtomicUsize::new(0);
    let retries = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..options.concurrency.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= options.requests {
                    break;
                }
                // Per-request jitter seeds keep concurrent retriers from
                // thundering in lockstep while staying deterministic.
                let policy = RetryPolicy::default().with_seed(options.seed ^ index as u64);
                let result = match &upload {
                    Some((bytes, digest)) if index.is_multiple_of(options.upload_every) => {
                        uploads.fetch_add(1, Ordering::Relaxed);
                        drive_upload(
                            options.addr,
                            bytes,
                            digest,
                            index,
                            options.timeout,
                            &policy,
                            &retries,
                        )
                    }
                    _ => drive_one(
                        options.addr,
                        &mix_spec(options.seed, index),
                        options.timeout,
                        &policy,
                        &retries,
                    ),
                };
                match result {
                    Ok(latency) => latencies
                        .lock()
                        .expect("latency sink poisoned")
                        .push(latency),
                    Err(_) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    let mut latencies = latencies.into_inner().expect("latency sink poisoned");
    latencies.sort_by(f64::total_cmp);
    let percentile = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((latencies.len() as f64) * p).ceil() as usize;
        latencies[rank.clamp(1, latencies.len()) - 1] * 1000.0
    };
    Ok(LoadtestReport {
        requests: options.requests,
        concurrency: options.concurrency,
        failures: failures.load(Ordering::Relaxed),
        uploads: uploads.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
        wall_seconds,
        requests_per_sec: latencies.len() as f64 / wall_seconds,
        latency_ms_p50: percentile(0.50),
        latency_ms_p90: percentile(0.90),
        latency_ms_p99: percentile(0.99),
    })
}

// ---------------------------------------------------------------------
// Chaos mode: `tensordash loadtest <url> --chaos <seed>`.
// ---------------------------------------------------------------------

/// What one chaos run observed: `options.requests` adversarial legs
/// fired at a (typically fault-injected) server, each classified against
/// the failure model. The run *passes* when the server outlives it and
/// every leg landed in a contract outcome — verified bytes, a typed
/// error, or exhausted retries against injected transport faults. A
/// single mismatched report or out-of-contract status fails the run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Total adversarial legs fired.
    pub legs: usize,
    /// Jobs that completed with report bytes identical to a fault-free
    /// local run of the same spec.
    pub verified: usize,
    /// Legs that failed exactly the way the failure model promises: a
    /// typed status (400/409/413/504) or a deliberately-aborted
    /// connection.
    pub typed_failures: usize,
    /// Legs whose retries were exhausted by injected transport faults —
    /// expected under chaos, counted but never fatal.
    pub transport_failures: usize,
    /// FATAL: surviving reports whose bytes diverged from the fault-free
    /// run.
    pub mismatches: usize,
    /// FATAL: statuses outside the failure model's contract.
    pub unexpected: usize,
    /// Connections aborted mid-request-line.
    pub resets: usize,
    /// Connections that dripped header bytes and hung up.
    pub slow_loris: usize,
    /// Submits with a body over the server's cap.
    pub oversized: usize,
    /// Trace uploads with garbage bytes or a lying `?digest=`.
    pub corrupt_uploads: usize,
    /// Submits carrying a microscopic `?deadline_secs=`.
    pub deadline_probes: usize,
    /// Extra attempts the retry policies made across all legs.
    pub retries: u64,
    /// Whether `/healthz` answered 200 after the bombardment.
    pub server_alive: bool,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
}

impl ChaosReport {
    /// The pass verdict: the server survived, no surviving report's
    /// bytes diverged, and nothing answered outside the failure model.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.server_alive && self.mismatches == 0 && self.unexpected == 0
    }

    /// The JSON document `tensordash loadtest --chaos` prints.
    #[must_use]
    pub fn document(&self) -> Value {
        Value::Table(vec![
            ("legs".into(), self.legs.serialize()),
            ("verified".into(), self.verified.serialize()),
            ("typed_failures".into(), self.typed_failures.serialize()),
            (
                "transport_failures".into(),
                self.transport_failures.serialize(),
            ),
            ("mismatches".into(), self.mismatches.serialize()),
            ("unexpected".into(), self.unexpected.serialize()),
            ("resets".into(), self.resets.serialize()),
            ("slow_loris".into(), self.slow_loris.serialize()),
            ("oversized".into(), self.oversized.serialize()),
            ("corrupt_uploads".into(), self.corrupt_uploads.serialize()),
            ("deadline_probes".into(), self.deadline_probes.serialize()),
            ("retries".into(), self.retries.serialize()),
            ("server_alive".into(), Value::Bool(self.server_alive)),
            ("wall_seconds".into(), Value::Float(self.wall_seconds)),
            ("passed".into(), Value::Bool(self.passed())),
        ])
    }
}

/// How one chaos leg ended, against the failure model's contract.
enum ChaosOutcome {
    /// The job completed and its report bytes matched the fault-free run.
    Verified,
    /// The leg failed the way the model says it must (typed status or a
    /// deliberately-broken connection).
    Typed,
    /// Retries exhausted against injected transport faults.
    Transport(String),
    /// A surviving report's bytes diverged — the one unforgivable sin.
    Mismatch(String),
    /// A status outside the contract.
    Unexpected(String),
}

/// The transport context one chaos leg drives its requests through: the
/// target, the socket timeout, the leg's deterministic retry policy, and
/// the run-wide retry counter.
struct ChaosNet<'a> {
    addr: SocketAddr,
    timeout: Duration,
    policy: RetryPolicy,
    retries: &'a AtomicU64,
}

impl ChaosNet<'_> {
    /// One HTTP exchange under chaos: like [`client_request_with_retry`]
    /// but byte-bodied and additionally retrying 500s from *injected*
    /// handler panics — those are transient faults of this request's
    /// handling, not properties of the job, so a chaos client must see
    /// through them. Real handler panics (no injection marker) stay
    /// terminal.
    fn exchange(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        content_type: &str,
    ) -> std::io::Result<ClientResponse> {
        self.policy
            .run(|attempt| {
                if attempt > 1 {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                }
                match client_exchange(self.addr, method, path, body, content_type, self.timeout) {
                    Ok(response) if retryable_status(response.status) => {
                        let retry_after = response
                            .header("retry-after")
                            .and_then(|v| v.parse::<u64>().ok())
                            .map(Duration::from_secs);
                        Attempt::Retry {
                            error: std::io::Error::other(format!(
                                "status {} after retries",
                                response.status
                            )),
                            retry_after,
                        }
                    }
                    Ok(response)
                        if response.status == 500
                            && response
                                .body_utf8_lossy()
                                .contains("injected handler panic") =>
                    {
                        Attempt::Retry {
                            error: std::io::Error::other("injected handler panic"),
                            retry_after: None,
                        }
                    }
                    Ok(response) => Attempt::Done(Ok(response)),
                    Err(e) => Attempt::Retry {
                        error: e,
                        retry_after: None,
                    },
                }
            })
            .and_then(|result| result)
    }
}

/// A well-formed submit→poll leg, byte-verified on completion. `query`
/// is appended to the submit path (the deadline probe passes
/// `?deadline_secs=…`); a `504` terminal is a typed outcome, because a
/// probe's job is *supposed* to time out — and when it finishes anyway
/// (deadline fired after the last boundary check), its bytes still have
/// to match.
fn chaos_submit_poll(
    net: &ChaosNet<'_>,
    spec: &ExperimentSpec,
    query: &str,
    cache: &TraceCache,
) -> ChaosOutcome {
    // The fault-free reference, computed locally through the very same
    // execution path the server runs (`ExperimentSpec::run_in`).
    let expected = match spec.run_cached(cache) {
        Ok(reports) => json::write(&spec.report_document(&reports)),
        Err(e) => return ChaosOutcome::Unexpected(format!("local reference run failed: {e}")),
    };
    let body = json::write_compact(&spec.serialize());
    let submit = match net.exchange(
        "POST",
        &format!("/v1/experiments{query}"),
        body.as_bytes(),
        "application/json",
    ) {
        Ok(response) => response,
        Err(e) => return ChaosOutcome::Transport(format!("submit: {e}")),
    };
    if submit.status != 202 {
        return ChaosOutcome::Unexpected(format!(
            "submit got {}: {}",
            submit.status,
            submit.body_utf8_lossy()
        ));
    }
    let Some(report_url) = json::parse(&submit.body_utf8_lossy()).ok().and_then(|v| {
        v.get("report_url")
            .and_then(|v| v.as_str().ok().map(str::to_string))
    }) else {
        return ChaosOutcome::Unexpected("submit response missing report_url".to_string());
    };
    let deadline = Instant::now() + net.timeout;
    loop {
        let poll = match net.exchange("GET", &report_url, &[], "") {
            Ok(response) => response,
            Err(e) => return ChaosOutcome::Transport(format!("poll: {e}")),
        };
        match poll.status {
            200 => {
                return if poll.body == expected.as_bytes() {
                    ChaosOutcome::Verified
                } else {
                    ChaosOutcome::Mismatch(format!(
                        "report bytes diverge from the fault-free run ({} served vs {} expected)",
                        poll.body.len(),
                        expected.len()
                    ))
                };
            }
            202 => {
                if Instant::now() > deadline {
                    return ChaosOutcome::Transport(format!(
                        "job not done within {:?}",
                        net.timeout
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            504 => return ChaosOutcome::Typed,
            other => {
                return ChaosOutcome::Unexpected(format!(
                    "poll got {other}: {}",
                    poll.body_utf8_lossy()
                ))
            }
        }
    }
}

/// A broken peer: connect, write a fragment of a request, hang up. With
/// `drip`, the fragment arrives in slow header-sized sips first (the
/// slow-loris shape the read timeout exists for). Either way the server
/// owes us nothing but its own survival.
fn chaos_partial_write(addr: SocketAddr, timeout: Duration, drip: bool) -> ChaosOutcome {
    let mut stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) => return ChaosOutcome::Transport(format!("connect: {e}")),
    };
    let _ = stream.set_write_timeout(Some(timeout));
    if drip {
        for chunk in [
            &b"GET /healthz HT"[..],
            b"TP/1.1\r\nhost: chaos",
            b"\r\nx-slow: loris",
        ] {
            if stream.write_all(chunk).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    } else {
        let _ = stream.write_all(b"POST /v1/experiments HTTP/1.1\r\ncontent-le");
    }
    drop(stream);
    ChaosOutcome::Typed
}

/// A submit whose body exceeds the server's cap: the contract is a typed
/// `413` (or `400` under a smaller deployment cap), never a wedged
/// worker. One attempt, no retries: the server usually tears the
/// connection down while the client is still writing the body, so the
/// client sees a reset instead of the `413` — that refusal is itself the
/// typed outcome, and re-sending megabytes to read the status code would
/// prove nothing more.
fn chaos_oversized(addr: SocketAddr, garbage: &[u8], timeout: Duration) -> ChaosOutcome {
    match client_exchange(
        addr,
        "POST",
        "/v1/experiments",
        garbage,
        "application/json",
        timeout,
    ) {
        Ok(response) if matches!(response.status, 400 | 413) => ChaosOutcome::Typed,
        Ok(response) => ChaosOutcome::Unexpected(format!(
            "oversized submit got {}: {}",
            response.status,
            response.body_utf8_lossy()
        )),
        Err(_) => ChaosOutcome::Typed,
    }
}

/// A trace upload that lies: garbage bytes, or honest bytes under a
/// wrong `?digest=`. The contract is `400` (unparseable), `409` (digest
/// mismatch), or `500` (an injected store fault) — and never a corrupt
/// object admitted into the content-addressed store.
fn chaos_corrupt_upload(net: &ChaosNet<'_>, artifact: &[u8], roll: u64) -> ChaosOutcome {
    let (path, body): (&str, &[u8]) = if roll.is_multiple_of(2) {
        ("/v1/traces", b"not a trace artifact")
    } else {
        ("/v1/traces?digest=00000000deadbeef", artifact)
    };
    match net.exchange("POST", path, body, "application/octet-stream") {
        Ok(response) if matches!(response.status, 400 | 409 | 500) => ChaosOutcome::Typed,
        Ok(response) => ChaosOutcome::Unexpected(format!(
            "corrupt upload got {}: {}",
            response.status,
            response.body_utf8_lossy()
        )),
        Err(e) => ChaosOutcome::Transport(format!("corrupt upload: {e}")),
    }
}

/// Runs the deterministic fault-injection harness: `options.requests`
/// legs from `options.concurrency` clients, each leg's kind drawn from
/// `chaos_seed` — well-formed submits byte-verified against a local
/// fault-free run, mixed with connection resets, slow-loris drips,
/// oversized bodies, corrupt uploads, and microscopic-deadline probes.
/// Point it at a server running with `--fault-seed` to exercise both
/// sides of the failure model at once; the same `(seed, chaos_seed)`
/// pair fires the same bombardment every run.
///
/// # Errors
///
/// Returns a message when the service is unreachable before the first
/// leg (individual leg failures are classified in the report instead).
pub fn run_chaos(options: &LoadtestOptions, chaos_seed: u64) -> Result<ChaosReport, String> {
    // Retry-aware fail-fast: the server under test injects faults into
    // its own accept path, so even a health check can be eaten.
    let retries = AtomicU64::new(0);
    let response = ChaosNet {
        addr: options.addr,
        timeout: options.timeout.min(Duration::from_secs(5)),
        policy: RetryPolicy::default().with_seed(chaos_seed),
        retries: &retries,
    }
    .exchange("GET", "/healthz", &[], "")
    .map_err(|e| format!("service at {} unreachable: {e}", options.addr))?;
    if response.status != 200 {
        return Err(format!("service health check returned {}", response.status));
    }

    let cache = TraceCache::new();
    let artifact = upload_recording(chaos_seed).to_bytes();
    let garbage = vec![0x78u8; tensordash_server::http::DEFAULT_MAX_BODY_BYTES + 1];

    let next = AtomicUsize::new(0);
    let counters: [AtomicUsize; 10] = Default::default();
    let [verified, typed, transport, mismatches, unexpected, resets, slow_loris, oversized, corrupt, probes] =
        &counters;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..options.concurrency.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= options.requests {
                    break;
                }
                let roll =
                    splitmix64(chaos_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        % 100;
                let net = ChaosNet {
                    addr: options.addr,
                    timeout: options.timeout,
                    policy: RetryPolicy::default().with_seed(chaos_seed ^ index as u64),
                    retries: &retries,
                };
                let outcome = match roll {
                    0..=44 => chaos_submit_poll(&net, &mix_spec(options.seed, index), "", &cache),
                    45..=54 => {
                        resets.fetch_add(1, Ordering::Relaxed);
                        chaos_partial_write(options.addr, options.timeout, false)
                    }
                    55..=64 => {
                        slow_loris.fetch_add(1, Ordering::Relaxed);
                        chaos_partial_write(options.addr, options.timeout, true)
                    }
                    65..=74 => {
                        oversized.fetch_add(1, Ordering::Relaxed);
                        chaos_oversized(options.addr, &garbage, options.timeout)
                    }
                    75..=84 => {
                        corrupt.fetch_add(1, Ordering::Relaxed);
                        chaos_corrupt_upload(&net, &artifact, roll)
                    }
                    _ => {
                        probes.fetch_add(1, Ordering::Relaxed);
                        chaos_submit_poll(
                            &net,
                            &mix_spec(options.seed, index),
                            "?deadline_secs=0.000001",
                            &cache,
                        )
                    }
                };
                match outcome {
                    ChaosOutcome::Verified => {
                        verified.fetch_add(1, Ordering::Relaxed);
                    }
                    ChaosOutcome::Typed => {
                        typed.fetch_add(1, Ordering::Relaxed);
                    }
                    ChaosOutcome::Transport(why) => {
                        transport.fetch_add(1, Ordering::Relaxed);
                        eprintln!("chaos leg {index}: transport: {why}");
                    }
                    ChaosOutcome::Mismatch(why) => {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                        eprintln!("chaos leg {index}: MISMATCH: {why}");
                    }
                    ChaosOutcome::Unexpected(why) => {
                        unexpected.fetch_add(1, Ordering::Relaxed);
                        eprintln!("chaos leg {index}: UNEXPECTED: {why}");
                    }
                }
            });
        }
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    // The verdict's first clause: is anyone still home? Generous retries
    // here — injected faults can eat any individual health check.
    let server_alive = ChaosNet {
        addr: options.addr,
        timeout: Duration::from_secs(5),
        policy: RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        }
        .with_seed(chaos_seed),
        retries: &retries,
    }
    .exchange("GET", "/healthz", &[], "")
    .map(|response| response.status == 200)
    .unwrap_or(false);

    Ok(ChaosReport {
        legs: options.requests,
        verified: verified.load(Ordering::Relaxed),
        typed_failures: typed.load(Ordering::Relaxed),
        transport_failures: transport.load(Ordering::Relaxed),
        mismatches: mismatches.load(Ordering::Relaxed),
        unexpected: unexpected.load(Ordering::Relaxed),
        resets: resets.load(Ordering::Relaxed),
        slow_loris: slow_loris.load(Ordering::Relaxed),
        oversized: oversized.load(Ordering::Relaxed),
        corrupt_uploads: corrupt.load(Ordering::Relaxed),
        deadline_probes: probes.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
        server_alive,
        wall_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_valid() {
        for index in 0..32 {
            let a = mix_spec(7, index);
            let b = mix_spec(7, index);
            assert_eq!(a, b, "request {index} must be reproducible");
            assert_eq!(a.resolve_models().unwrap().len(), 1);
            assert!(a.chip.tiles <= 4);
            assert!(a.eval.sample.max_windows <= 2);
        }
        // Different indices do vary the spec.
        assert!((0..32).any(|i| mix_spec(7, i).models != mix_spec(7, 0).models));
    }

    #[test]
    fn upload_artifact_is_deterministic_and_matches_the_default_chip() {
        let a = upload_recording(0xDA5A);
        let b = upload_recording(0xDA5A);
        assert_eq!(a, b, "upload bytes must be identical across clients");
        assert_eq!(a.meta.lanes, 16, "must replay on the default chip");
        assert_ne!(
            tensordash_trace::canonical_digest(&a),
            tensordash_trace::canonical_digest(&upload_recording(1)),
            "different seeds are different artifacts"
        );
    }

    #[test]
    fn url_parsing_accepts_http_and_rejects_https() {
        assert!(parse_service_url("http://127.0.0.1:8080").is_ok());
        assert!(parse_service_url("127.0.0.1:8080/").is_ok());
        assert!(parse_service_url("https://127.0.0.1:1").is_err());
        assert!(parse_service_url("http://").is_err());
    }

    #[test]
    fn loadtest_fails_fast_when_nothing_listens() {
        // Bind-and-drop to get a port with no listener.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let err = run(&LoadtestOptions::smoke(addr)).unwrap_err();
        assert!(err.contains("unreachable"), "{err}");
    }
}
