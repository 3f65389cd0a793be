//! `serve_open`: an open-loop arrival schedule against an in-process
//! `Service` over real HTTP.
//!
//! The ladder runs 20, 100 and 400 requests per second, one phase after
//! the other (each phase starts once the previous one has drained).
//! Request `i` is `loadtest::mix_spec(seed, i)`, except that every 4th
//! uploads `loadtest::upload_recording(seed)` and replays it by its
//! `stored` digest. Clients submit, then poll the report URL as clients
//! do today. Each request is timed from its due time, so a stall shows
//! as latency of the requests queued behind it; how late the generator
//! sent is reported as its lag. Load comes from this one process, with
//! no more generator threads — and so open connections — than
//! `available_parallelism`.

use crate::calls::{sim_threads, trace_rows};
use crate::catalog::{P95_LIMIT_MS, RATE_LADDER};
use crate::gate::{in_process_report, same_bytes};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{mean, median, percentile};
use crate::Options;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tensordash_bench::experiment::SourceContext;
use tensordash_bench::loadtest::{mix_spec, upload_recording};
use tensordash_bench::{ExperimentSpec, RunningService, Service, ServiceConfig, TraceCache};
use tensordash_serde::{json, Serialize, Value};
use tensordash_server::http::{client_exchange, client_request_bytes};
use tensordash_server::retry::{client_request_with_retry, RetryPolicy};
use tensordash_sim::EvalSpec;
use tensordash_store::TraceStore;

/// Requests per ladder phase: at 200, ten samples lie beyond p95.
const PHASE_REQUESTS: usize = 200;
/// Every `UPLOAD_EVERY`-th request takes the upload + stored-replay leg.
const UPLOAD_EVERY: usize = 4;
/// Bind-to-healthz cycles in set-up; `setup_s` is their median.
const SETUP_BINDS: usize = 9;
/// Per-exchange socket timeout, and the give-up time of one request.
const TIMEOUT: Duration = Duration::from_secs(30);

/// What one request saw.
#[derive(Debug, Clone)]
struct Sample {
    index: usize,
    /// Seconds from the phase start: due, sent, done.
    due: f64,
    sent: f64,
    done: f64,
    upload: bool,
    upload_ms: Option<f64>,
    submit_ms: f64,
    polls_ms: Vec<f64>,
    /// Milliseconds from submit to report (the stored replay, on the
    /// upload leg).
    replay_ms: f64,
    /// The served report, or why the request failed.
    report: Result<String, String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    fn lag_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// A scratch directory inside the run's output directory, removed when
/// the workload ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The experiment a request index submits.
pub fn request_spec(seed: u64, index: usize, digest: &str) -> ExperimentSpec {
    if index.is_multiple_of(UPLOAD_EVERY) {
        ExperimentSpec::new(format!("perfbench-upload-{index}")).with_eval(
            EvalSpec::builder()
                .stored(digest)
                .build()
                .expect("the upload digest is valid hex"),
        )
    } else {
        mix_spec(seed, index)
    }
}

/// Binds and spawns the service, then waits for its first `/healthz` 200.
fn start_service(config: &ServiceConfig) -> Result<(RunningService, f64), String> {
    let start = Instant::now();
    let service = Service::bind(config)
        .map_err(|e| format!("bind failed: {e}"))?
        .spawn();
    loop {
        match client_exchange(service.addr(), "GET", "/healthz", &[], "", TIMEOUT) {
            Ok(r) if r.status == 200 => break,
            _ if start.elapsed() > TIMEOUT => return Err("service never became healthy".into()),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    Ok((service, start.elapsed().as_secs_f64()))
}

fn metrics(addr: SocketAddr) -> Result<Value, String> {
    let r = client_exchange(addr, "GET", "/metrics", &[], "", TIMEOUT)
        .map_err(|e| format!("/metrics failed: {e}"))?;
    json::parse(&r.body_utf8_lossy()).map_err(|e| format!("bad /metrics: {e}"))
}

fn number(doc: &Value, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => 0.0,
    }
}

/// Total simulation seconds the service reports across models.
fn sim_seconds(doc: &Value) -> f64 {
    match doc.get("models") {
        Some(Value::Table(models)) => models
            .iter()
            .map(|(_, m)| number(m, &["wall_seconds_total"]))
            .sum(),
        _ => 0.0,
    }
}

/// The load generator's view of the service: where it is, what it
/// submits, and where the client-side spans and retry counts go.
struct Client<'a> {
    addr: SocketAddr,
    seed: u64,
    /// The upload leg's artifact bytes and their digest.
    upload: &'a (Vec<u8>, String),
    rec: &'a Recorder,
    retries: &'a AtomicU64,
}

impl Client<'_> {
    /// One request: optional upload, submit, poll until the report is in.
    fn drive(&self, index: usize, origin: Instant, due: f64) -> Sample {
        let Client {
            addr,
            seed,
            upload,
            rec,
            retries,
        } = *self;
        let secs = |t: Instant| t.duration_since(origin).as_secs_f64();
        let sent = Instant::now();
        let root = rec.reserve();
        let mut sample = Sample {
            index,
            due,
            sent: secs(sent),
            done: 0.0,
            upload: index.is_multiple_of(UPLOAD_EVERY),
            upload_ms: None,
            submit_ms: 0.0,
            polls_ms: Vec::new(),
            replay_ms: 0.0,
            report: Err("not sent".into()),
        };
        let policy = RetryPolicy::default().with_seed(seed ^ index as u64);
        let span = |name: &'static str, start: Instant| {
            let end = Instant::now();
            rec.record(
                rec.reserve(),
                name,
                "",
                index as u64,
                Some(root),
                (start, end),
            );
            (end - start).as_secs_f64() * 1e3
        };
        let result = (|| {
            if sample.upload {
                let (bytes, digest) = upload;
                let t = Instant::now();
                let (status, body) = client_request_bytes(
                    addr,
                    "POST",
                    &format!("/v1/traces?digest={digest}"),
                    bytes,
                    "application/octet-stream",
                    TIMEOUT,
                )
                .map_err(|e| format!("upload failed: {e}"))?;
                sample.upload_ms = Some(span("store.upload", t));
                if status != 201 {
                    return Err(format!("upload got {status}: {body}"));
                }
            }
            let spec = request_spec(seed, index, &upload.1);
            let body = json::write_compact(&spec.serialize());
            let submitted = Instant::now();
            let mut extra = 0u64;
            let response = client_request_with_retry(
                addr,
                "POST",
                "/v1/experiments",
                Some(&body),
                TIMEOUT,
                &policy,
                Some(&mut extra),
            );
            retries.fetch_add(extra, Ordering::Relaxed);
            sample.submit_ms = span("server.submit", submitted);
            let response = response.map_err(|e| format!("submit failed: {e}"))?;
            if response.status != 202 {
                return Err(format!("submit got {}", response.status));
            }
            let report_url = json::parse(&response.body_utf8_lossy())
                .ok()
                .and_then(|v| {
                    v.get("report_url")
                        .and_then(|u| u.as_str().ok().map(str::to_string))
                })
                .ok_or("submit response has no report_url")?;
            loop {
                let t = Instant::now();
                let mut extra = 0u64;
                let poll = client_request_with_retry(
                    addr,
                    "GET",
                    &report_url,
                    None,
                    TIMEOUT,
                    &policy,
                    Some(&mut extra),
                );
                retries.fetch_add(extra, Ordering::Relaxed);
                sample.polls_ms.push(span("server.poll", t));
                let poll = poll.map_err(|e| format!("poll failed: {e}"))?;
                match poll.status {
                    200 => {
                        sample.replay_ms = (Instant::now() - submitted).as_secs_f64() * 1e3;
                        return String::from_utf8(poll.body).map_err(|_| "non-UTF-8 report".into());
                    }
                    202 if sent.elapsed() < TIMEOUT => std::thread::sleep(Duration::from_millis(2)),
                    202 => return Err(format!("no report within {TIMEOUT:?}")),
                    other => return Err(format!("poll got {other}")),
                }
            }
        })();
        let done = Instant::now();
        sample.done = secs(done);
        sample.report = result;
        let due_at = origin + Duration::from_secs_f64(due);
        rec.record(
            root,
            "bench.request",
            format!("r{index}"),
            index as u64,
            None,
            (due_at, done),
        );
        sample
    }

    /// One phase: `requests` arrivals at `rate` per second, indices from
    /// `first`, spread over the generator threads.
    fn run_phase(&self, rate: u32, first: usize, requests: usize) -> Vec<Sample> {
        let origin = Instant::now() + Duration::from_millis(10);
        let next = AtomicUsize::new(0);
        let samples = Mutex::new(Vec::with_capacity(requests));
        std::thread::scope(|scope| {
            for _ in 0..sim_threads().min(requests) {
                scope.spawn(|| loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= requests {
                        break;
                    }
                    let due = j as f64 / f64::from(rate);
                    let due_at = origin + Duration::from_secs_f64(due);
                    if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sample = self.drive(first + j, origin, due);
                    samples.lock().expect("sample sink poisoned").push(sample);
                });
            }
        });
        let mut samples = samples.into_inner().expect("sample sink poisoned");
        samples.sort_by_key(|s| s.index);
        samples
    }
}

/// Latency percentile of a phase with failures counted as missing every
/// limit (infinite latency).
fn phase_percentile(samples: &[Sample], p: f64) -> f64 {
    let latencies: Vec<f64> = samples
        .iter()
        .map(|s| {
            if s.report.is_ok() {
                s.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect();
    percentile(&latencies, p)
}

/// Runs the workload.
///
/// # Errors
///
/// A service that cannot be bound or reached.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::new("serve_open");
    let scratch = ScratchDir(opts.out_dir.join(format!(
        "serve-{}-{}",
        std::process::id(),
        opts.seed
    )));
    let _ = std::fs::remove_dir_all(&scratch.0);
    let config = ServiceConfig {
        workers: sim_threads(),
        trace_dir: Some(scratch.0.join("store")),
        ..ServiceConfig::default()
    };
    let phase_requests = if opts.tiny { 8 } else { PHASE_REQUESTS };

    // Set-up: bind → spawn → first healthy /healthz, timed before the
    // ladder (the last service stays up for it) and again after it, so
    // the median samples the host across the run.
    let mut binds = Vec::with_capacity(SETUP_BINDS);
    let mut service = None;
    for _ in 0..SETUP_BINDS / 2 + 1 {
        if let Some(previous) = service.take() {
            RunningService::shutdown_and_join(previous)
                .map_err(|e| format!("service shutdown failed: {e}"))?;
        }
        let (running, seconds) = start_service(&config)?;
        binds.push(seconds);
        service = Some(running);
    }
    let service = service.expect("set-up bound a service");
    let addr = service.addr();

    let rec = Recorder::new();
    let healthz: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let ok = client_exchange(addr, "GET", "/healthz", &[], "", TIMEOUT)
                .is_ok_and(|r| r.status == 200);
            if ok {
                (Instant::now() - t).as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    out.set("server.healthz_ms.p50", median(&healthz));

    let recording = upload_recording(opts.seed);
    let upload = (
        recording.to_bytes(),
        format!("{:016x}", tensordash_trace::canonical_digest(&recording)),
    );
    let before = metrics(addr)?;
    let retries = AtomicU64::new(0);
    let client = Client {
        addr,
        seed: opts.seed,
        upload: &upload,
        rec: &rec,
        retries: &retries,
    };
    let mut phases: Vec<(u32, Vec<Sample>)> = Vec::new();
    for (p, rate) in RATE_LADDER.into_iter().enumerate() {
        std::thread::sleep(Duration::from_millis(200));
        let samples = client.run_phase(rate, p * phase_requests, phase_requests);
        phases.push((rate, samples));
    }
    let after = metrics(addr)?;
    service
        .shutdown_and_join()
        .map_err(|e| format!("service shutdown failed: {e}"))?;
    while binds.len() < SETUP_BINDS {
        let (running, seconds) = start_service(&config)?;
        binds.push(seconds);
        running
            .shutdown_and_join()
            .map_err(|e| format!("service shutdown failed: {e}"))?;
    }
    out.set_e2e("setup_s", median(&binds), binds.len());

    let rows = verify(&mut out, opts.seed, &phases, &upload, &scratch.0)?;

    // End-to-end: latency at the first ladder rate, the ladder wall.
    let first = &phases[0].1;
    out.set_e2e("latency_p50_ms", phase_percentile(first, 0.5), first.len());
    out.set_e2e("latency_p95_ms", phase_percentile(first, 0.95), first.len());
    let wall: f64 = phases
        .iter()
        .map(|(_, s)| s.iter().map(|x| x.done).fold(0.0, f64::max))
        .sum();
    let all = phases.iter().map(|(_, s)| s.len()).sum();
    out.set_e2e("wall_s", wall, all);
    out.set_e2e("masks_per_s", rows as f64 / wall, all);
    out.set_e2e("peak_rss_mb", crate::report::peak_rss_mb(), 1);

    // The ladder: per-rate latency, and the highest rate that meets the
    // p95 limit with nothing failed and no growing backlog.
    let mut max_rate = 0u32;
    let mut lags = Vec::new();
    for (rate, samples) in &phases {
        let p50 = phase_percentile(samples, 0.5);
        let p95 = phase_percentile(samples, 0.95);
        out.set(&format!("latency_p50_ms.r{rate}"), p50);
        out.set(&format!("latency_p95_ms.r{rate}"), p95);
        let failed = samples.iter().filter(|s| s.report.is_err()).count();
        let quarter = (samples.len() / 4).max(1);
        let lag = |part: &[Sample]| mean(&part.iter().map(Sample::lag_ms).collect::<Vec<_>>());
        let growth = lag(&samples[samples.len() - quarter..]) - lag(&samples[..quarter]);
        let meets = failed == 0 && p95 <= P95_LIMIT_MS && growth <= P95_LIMIT_MS / 2.0;
        if meets && *rate > max_rate {
            max_rate = *rate;
        }
        lags.extend(samples.iter().map(Sample::lag_ms));
        out.notes.push(format!(
            "r{rate}: sent {}, succeeded {}, failed {failed}, p50 {p50:.2} ms, p95 {p95:.2} ms, \
             backlog growth {growth:.1} ms{}",
            samples.len(),
            samples.len() - failed,
            if meets { "" } else { " (misses the limit)" }
        ));
    }
    out.set("max_rate_rps", f64::from(max_rate));
    out.set("bench.generator_lag_ms.p95", percentile(&lags, 0.95));

    report_layers(
        &mut out,
        &phases,
        (&before, &after),
        retries.load(Ordering::Relaxed),
    );
    if opts.trace {
        crate::write_spans(opts, "serve_open", &rec)?;
    }
    Ok(out)
}

/// The gate: every served report is byte-identical to `run_in` on the
/// same spec in-process (stored specs against a store of the
/// benchmark's own holding the same upload). Counts every request as
/// attempted and every failure or mismatch as failed; returns the mask
/// rows the completed jobs simulated.
fn verify(
    out: &mut Outcome,
    seed: u64,
    phases: &[(u32, Vec<Sample>)],
    upload: &(Vec<u8>, String),
    scratch: &Path,
) -> Result<u64, String> {
    let ref_store = TraceStore::open(scratch.join("reference-store"))
        .map_err(|e| format!("reference store: {e}"))?;
    ref_store
        .insert_bytes(&upload.0, None)
        .map_err(|e| format!("reference store insert: {e}"))?;
    let ctx = SourceContext::local().with_store(&ref_store);
    let cache = TraceCache::new();
    let upload_rows = crate::train_live::recording_rows(&upload_recording(seed));
    let mut rows = 0u64;
    for s in phases.iter().flat_map(|(_, samples)| samples) {
        out.attempted += 1;
        let served = match &s.report {
            Ok(served) => served,
            Err(why) => {
                out.failed += 1;
                out.notes.push(format!("request {} failed: {why}", s.index));
                continue;
            }
        };
        let spec = request_spec(seed, s.index, &upload.1);
        if !same_bytes(&in_process_report(&spec, &cache, &ctx)?, served) {
            out.mismatch(format!(
                "request {} served report differs from run_in",
                s.index
            ));
        }
        rows += if s.upload {
            upload_rows
        } else {
            let lanes = spec.chip.tile.pe.lanes();
            spec.resolve_models()
                .map_err(|e| e.to_string())?
                .iter()
                .map(|m| trace_rows(&cache.layer_traces(m, &spec.eval, lanes)))
                .sum::<u64>()
        };
    }
    Ok(rows)
}

/// Per-layer metrics: exchange timings from the client's spans at the
/// first ladder rate, counts from the service's own `/metrics` deltas
/// over the whole ladder (the `/metrics` documents before and after it).
fn report_layers(
    out: &mut Outcome,
    phases: &[(u32, Vec<Sample>)],
    (before, after): (&Value, &Value),
    retries: u64,
) {
    let first = &phases[0].1;
    let ok_latencies: Vec<f64> = first
        .iter()
        .filter(|s| s.report.is_ok())
        .map(Sample::latency_ms)
        .collect();
    let submit: Vec<f64> = first.iter().map(|s| s.submit_ms).collect();
    let polls: Vec<f64> = first
        .iter()
        .flat_map(|s| s.polls_ms.iter().copied())
        .collect();
    out.set("server.submit_ms.p50", percentile(&submit, 0.5));
    out.set("server.submit_ms.p95", percentile(&submit, 0.95));
    out.set("server.poll_ms.p50", percentile(&polls, 0.5));
    let all = || phases.iter().flat_map(|(_, s)| s);
    let attempts: usize = all().map(|s| s.polls_ms.len()).sum();
    let useful = all().filter(|s| s.report.is_ok()).count();
    out.set(
        "server.polls_per_request",
        attempts as f64 / useful.max(1) as f64,
    );
    let delta = |path: &[&str]| number(after, path) - number(before, path);
    let jobs = delta(&["jobs", "done"]);
    let sim_ms = (sim_seconds(after) - sim_seconds(before)) * 1e3 / jobs.max(1.0);
    let p50 = percentile(&ok_latencies, 0.5);
    out.set("server.sim_ms_per_job", sim_ms);
    out.set("server.overhead_ms.p50", p50 - sim_ms);
    out.set("server.jobs_done", jobs);
    out.set(
        "server.jobs_failed",
        delta(&["jobs", "failed"]) + delta(&["jobs", "timed_out"]) + delta(&["jobs", "panicked"]),
    );
    out.set("server.jobs_rejected", delta(&["jobs", "rejected"]));
    out.set("server.retries", retries as f64);
    out.set("trace.cache_hits", delta(&["cache", "hits"]));
    out.set("trace.cache_misses", delta(&["cache", "misses"]));
    let uploads: Vec<f64> = first.iter().filter_map(|s| s.upload_ms).collect();
    let replays: Vec<f64> = first
        .iter()
        .filter(|s| s.upload)
        .map(|s| s.replay_ms)
        .collect();
    out.set("store.upload_ms.p50", percentile(&uploads, 0.5));
    out.set("store.stored_replay_ms.p50", percentile(&replays, 0.5));
    out.set("store.uploads", delta(&["store", "uploads"]));
    out.set("store.dedup_hits", delta(&["store", "dedup_hits"]));
    let lag50 = percentile(&first.iter().map(Sample::lag_ms).collect::<Vec<_>>(), 0.5);
    out.notes.push(format!(
        "r{} p50 {p50:.2} ms split: generator lag p50 {lag50:.2} ms, submit p50 {:.2} ms, \
         {:.2} polls of p50 {:.2} ms, simulation {sim_ms:.2} ms per job (/metrics)",
        phases[0].0,
        percentile(&submit, 0.5),
        polls.len() as f64 / first.len() as f64,
        percentile(&polls, 0.5),
    ));
}
