//! End-to-end tests of the resident simulation service: a real server on
//! an ephemeral loopback port, driven through real sockets.
//!
//! The acceptance gate is *determinism under contention*: the same
//! `ExperimentSpec` submitted serially and from 8 concurrent clients must
//! produce reports byte-identical to a direct in-process `Simulator` run
//! — the service (queue, worker pool, shared trace cache, HTTP layer)
//! must be invisible in the results.

use std::net::SocketAddr;
use std::time::Duration;
use tensordash_bench::experiment::ExperimentSpec;
use tensordash_bench::loadtest::await_report;
use tensordash_bench::service::{Service, ServiceConfig};
use tensordash_serde::json;
use tensordash_server::http::client_request;
use tensordash_server::retry::RetryPolicy;
use tensordash_sim::{ChipConfig, EvalSpec, SchedulerKind};

const TIMEOUT: Duration = Duration::from_secs(60);

fn reference_spec() -> ExperimentSpec {
    ExperimentSpec::new("e2e-determinism")
        .with_models(["AlexNet"])
        .with_chip(
            ChipConfig::builder()
                .tiles(2)
                .rows(2)
                .cols(2)
                .build()
                .unwrap(),
        )
        .with_eval(
            EvalSpec::builder()
                .streams(4, 32)
                .progress(0.4)
                .seed(11)
                .build()
                .unwrap(),
        )
}

/// Submits `spec` and polls until the raw report arrives.
fn submit_and_fetch(addr: SocketAddr, spec: &ExperimentSpec) -> String {
    let body = json::write_compact(&tensordash_serde::Serialize::serialize(spec));
    let (status, response) =
        client_request(addr, "POST", "/v1/experiments", Some(&body), TIMEOUT).unwrap();
    assert_eq!(status, 202, "submit failed: {response}");
    let submitted = json::parse(&response).unwrap();
    let report_url = submitted
        .get("report_url")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let polled = await_report(addr, &report_url, TIMEOUT, &RetryPolicy::none(), &mut 0).unwrap();
    let body = polled.body_utf8_lossy();
    assert_eq!(polled.status, 200, "polling {report_url}: {body}");
    body
}

/// The tentpole acceptance test: serial and 8-way concurrent submissions
/// of the same spec are byte-identical to the direct `Simulator` path.
#[test]
fn concurrent_reports_are_bit_identical_to_direct_simulation() {
    let spec = reference_spec();
    // The ground truth: exactly what `tensordash --config` writes.
    let reports = spec.run().unwrap();
    let expected = json::write(&spec.report_document(&reports));

    let service = Service::bind(&ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let running = service.spawn();

    // Serial first.
    let serial = submit_and_fetch(addr, &spec);
    assert_eq!(
        serial, expected,
        "serial service report diverged from the direct run"
    );

    // Then 8 concurrent clients, all racing the same spec (and therefore
    // the same trace-cache key — hits and the one miss must agree).
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let spec = spec.clone();
            std::thread::spawn(move || submit_and_fetch(addr, &spec))
        })
        .collect();
    for (i, client) in clients.into_iter().enumerate() {
        let report = client.join().expect("client thread panicked");
        assert_eq!(report, expected, "concurrent client {i} diverged");
    }

    // The cache saw one build; the metrics prove the sharing happened.
    let (status, body) = client_request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let metrics = json::parse(&body).unwrap();
    let cache = metrics.get("cache").unwrap();
    let misses = cache.get("misses").unwrap().as_u64().unwrap();
    let hits = cache.get("hits").unwrap().as_u64().unwrap();
    // Concurrent misses on one key may build more than once (documented
    // contract), but 9 submissions can never miss 9 times.
    assert!((1..9).contains(&misses), "misses = {misses}");
    assert_eq!(hits + misses, 9, "every job consulted the shared cache");
    assert_eq!(
        metrics
            .get("jobs")
            .unwrap()
            .get("done")
            .unwrap()
            .as_u64()
            .unwrap(),
        9
    );

    running.shutdown_and_join().unwrap();
}

/// Intra-run sharding must be invisible through the service face: a spec
/// whose every op splits into many tile row-group work items (16 sampled
/// windows on a 2-row tile → 8 chunks per op) still serves bytes
/// identical to the direct in-process run.
#[test]
fn intra_run_sharded_reports_are_bit_identical_through_the_service() {
    let spec = ExperimentSpec::new("e2e-sharded")
        .with_models(["AlexNet"])
        .with_chip(
            ChipConfig::builder()
                .tiles(1)
                .rows(2)
                .cols(2)
                .build()
                .unwrap(),
        )
        .with_eval(
            EvalSpec::builder()
                .streams(16, 32)
                .progress(0.4)
                .seed(7)
                .build()
                .unwrap(),
        );
    let expected = json::write(&spec.report_document(&spec.run().unwrap()));

    let service = Service::bind(&ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let running = service.spawn();
    let report = submit_and_fetch(addr, &spec);
    assert_eq!(report, expected, "sharded service report diverged");
    running.shutdown_and_join().unwrap();
}

/// Distinct specs racing through the service stay isolated: each job's
/// report equals its own direct run, even with every worker busy.
#[test]
fn mixed_concurrent_specs_each_match_their_direct_run() {
    let service = Service::bind(&ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let running = service.spawn();

    let specs: Vec<ExperimentSpec> = (0..6)
        .map(|i| {
            ExperimentSpec::new(format!("mix-{i}"))
                .with_models([["AlexNet", "GCN"][i % 2]])
                .with_chip(ChipConfig::builder().tiles(1 + i % 3).build().unwrap())
                .with_eval(
                    EvalSpec::builder()
                        .streams(2, 16)
                        .progress(0.45)
                        .seed(i as u64)
                        .build()
                        .unwrap(),
                )
        })
        .collect();
    let clients: Vec<_> = specs
        .iter()
        .cloned()
        .map(|spec| std::thread::spawn(move || (submit_and_fetch(addr, &spec), spec)))
        .collect();
    for client in clients {
        let (report, spec) = client.join().unwrap();
        let expected = json::write(&spec.report_document(&spec.run().unwrap()));
        assert_eq!(report, expected, "spec `{}` diverged", spec.name);
    }
    running.shutdown_and_join().unwrap();
}

/// The scheduler family through the service face: every member's served
/// report is byte-identical to its direct run, specs differing only in
/// their scheduler share one trace build (the cache key is
/// scheduler-independent by design), and an unknown scheduler name is
/// rejected at submit time — before a worker ever sees the job.
#[test]
fn scheduler_field_flows_through_submit_validation_and_the_cache() {
    let service = Service::bind(&ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let running = service.spawn();

    let base = reference_spec();
    for kind in SchedulerKind::ALL {
        let spec = base.clone().with_scheduler(kind);
        let report = submit_and_fetch(addr, &spec);
        let expected = json::write(&spec.report_document(&spec.run().unwrap()));
        assert_eq!(report, expected, "scheduler `{}` diverged", kind.name());
    }

    // Four serial submissions differing only in scheduler: the first
    // builds the traces, the other three must reuse them.
    let (status, body) = client_request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let metrics = json::parse(&body).unwrap();
    let cache = metrics.get("cache").unwrap();
    let misses = cache.get("misses").unwrap().as_u64().unwrap();
    let hits = cache.get("hits").unwrap().as_u64().unwrap();
    assert_eq!(misses, 1, "one trace build serves the whole family");
    assert_eq!(hits, 3, "the other schedulers replayed the cached traces");

    // Submit-time validation: the malformed spec is refused with the
    // valid set named, as a typed 400 — never an enqueued job.
    let bad_spec = base.clone().with_scheduler(SchedulerKind::TwoToFour);
    let bad_body = json::write_compact(&tensordash_serde::Serialize::serialize(&bad_spec))
        .replace("2to4", "2of4");
    let (status, response) =
        client_request(addr, "POST", "/v1/experiments", Some(&bad_body), TIMEOUT).unwrap();
    assert_eq!(status, 400, "unknown scheduler must 400: {response}");
    assert!(response.contains("2of4"), "{response}");
    assert!(
        response.contains("tensordash, 2to4, tstd, dense"),
        "rejection must name the valid set: {response}"
    );

    running.shutdown_and_join().unwrap();
}

/// The idle timeout shuts a drained service down by itself — the
/// mechanism behind `serve --idle-shutdown` (and the reason a forgotten
/// CI server cannot leak forever).
#[test]
fn idle_service_shuts_itself_down_after_finishing_work() {
    let service = Service::bind(&ServiceConfig {
        workers: 1,
        idle_shutdown: Some(Duration::from_millis(200)),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let flag = service.shutdown_flag();
    let handle = std::thread::spawn(move || service.run());

    let spec = reference_spec();
    let report = submit_and_fetch(addr, &spec);
    assert!(report.contains("e2e-determinism"));

    // No further traffic: the server must exit on its own, cleanly.
    handle.join().unwrap().unwrap();
    assert!(!flag.is_requested(), "idle exit needs no external flag");
}
