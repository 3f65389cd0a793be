//! The benchmark's own tests: every workload at tiny scale, the metric
//! names and counts the result line may carry, the committed generated
//! files, and a corrupted report caught by the gate.

use std::time::{Duration, Instant};
use tensordash_bench::experiment::SourceContext;
use tensordash_bench::{Service, ServiceConfig, TraceCache};
use tensordash_perfbench::catalog::{self, WORKLOADS};
use tensordash_perfbench::gate::{in_process_report, same_bytes};
use tensordash_perfbench::serve_open::request_spec;
use tensordash_perfbench::{run, Options};
use tensordash_serde::json;
use tensordash_server::http::client_request;

fn tiny(workload: &str, trace: bool) -> Options {
    Options {
        seed: 5,
        seconds: 0.2,
        trace,
        tiny: true,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests"),
        ..Options::new(workload)
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_runs_at_tiny_scale_and_passes_its_gates() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = run(&tiny(w.name, trace)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(out.correct(), "{}: {:?}", w.name, out.mismatches);
            assert!(out.attempted >= 1 && out.failed == 0, "{}", w.name);
            for d in catalog::end_to_end() {
                let (value, n) = out.e2e[d.name.as_str()];
                assert!(
                    value > 0.0 && value.is_finite() && n >= 1,
                    "{} {}",
                    w.name,
                    d.name
                );
            }
            let line = out.json_line(trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            let expected = if trace {
                catalog::per_layer(&catalog::model_names()).len()
            } else {
                catalog::end_to_end().len()
            };
            assert_eq!(line.matches("\"value\": ").count(), expected, "{}", w.name);
            assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
            if trace {
                let spans = tiny(w.name, true)
                    .out_dir
                    .join(format!("spans-{}-5.json", w.name));
                assert!(spans.is_file(), "{} wrote no spans", w.name);
            }
        }
    }
}

#[test]
fn printed_names_are_well_formed_and_within_the_limits() {
    let e2e = catalog::end_to_end();
    let layer = catalog::per_layer(&catalog::model_names());
    assert!(e2e.len() <= 16, "{} end-to-end metrics", e2e.len());
    assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
    let mut seen = std::collections::HashSet::new();
    for d in e2e.iter().chain(&layer) {
        assert!(well_formed(&d.name), "bad name `{}`", d.name);
        assert!(seen.insert(d.name.clone()), "`{}` used twice", d.name);
        assert!(
            d.unit.len() <= 16 && !d.unit.is_empty(),
            "bad unit {}",
            d.unit
        );
        assert!(matches!(d.better, "lower" | "higher"));
    }
    for d in &e2e {
        let bound = d.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
    }
    let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
    assert!(
        e2e.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    for w in WORKLOADS {
        assert!(well_formed(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }
}

#[test]
fn committed_benchmark_files_match_the_catalog() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &std::path::Path| std::fs::read_to_string(p).unwrap_or_default();
    assert_eq!(
        read(&root.join("../BENCHMARK.json")),
        catalog::benchmark_json(),
        "regenerate with `cargo run --release -- --emit benchmark > ../BENCHMARK.json`"
    );
    assert_eq!(
        read(&root.join("catalog.json")),
        catalog::catalog_json(),
        "regenerate with `cargo run --release -- --emit catalog > catalog.json`"
    );
}

#[test]
fn a_corrupted_served_report_is_caught_by_the_gate() {
    let service = Service::bind(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = service.addr();
    let timeout = Duration::from_secs(30);
    let spec = request_spec(5, 1, "0");
    let body = json::write_compact(&tensordash_serde::Serialize::serialize(&spec));
    let (status, submitted) =
        client_request(addr, "POST", "/v1/experiments", Some(&body), timeout).expect("submit");
    assert_eq!(status, 202, "{submitted}");
    let url = json::parse(&submitted)
        .unwrap()
        .get("report_url")
        .and_then(|u| u.as_str().ok().map(str::to_string))
        .expect("report_url");
    let start = Instant::now();
    let served = loop {
        let (status, report) = client_request(addr, "GET", &url, None, timeout).expect("poll");
        match status {
            200 => break report,
            202 if start.elapsed() < timeout => std::thread::sleep(Duration::from_millis(5)),
            other => panic!("poll got {other}"),
        }
    };
    service.shutdown_and_join().expect("shutdown");

    let expected = in_process_report(&spec, &TraceCache::new(), &SourceContext::local()).unwrap();
    assert!(
        same_bytes(&expected, &served),
        "the real report passes the gate"
    );
    let mut corrupted = served.into_bytes();
    let i = corrupted.len() / 2;
    corrupted[i] = if corrupted[i] == b'1' { b'2' } else { b'1' };
    let corrupted = String::from_utf8(corrupted).unwrap();
    assert!(
        !same_bytes(&expected, &corrupted),
        "a one-byte change is caught"
    );

    let mut out = tensordash_perfbench::report::Outcome::new("serve_open");
    out.attempted = 1;
    out.mismatch("request 1 served report differs from run_in".into());
    assert!(!out.correct());
    assert!(out
        .json_line(false)
        .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
}
