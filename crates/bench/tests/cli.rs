//! Integration tests of the `tensordash` CLI binary: help/list smoke
//! tests and the declarative-config acceptance path — a TOML experiment
//! file must produce byte-identical JSON to the in-code builder path.

use std::path::PathBuf;
use std::process::{Command, Output};
use tensordash_bench::experiment::ExperimentSpec;
use tensordash_sim::{ChipConfig, EvalSpec};

fn tensordash(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tensordash"))
        .args(args)
        .output()
        .expect("cannot spawn the tensordash binary")
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tensordash-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h", "help"] {
        let out = tensordash(&[flag]);
        assert!(out.status.success(), "{flag} failed");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("USAGE"), "{flag}: {text}");
        assert!(text.contains("--config"), "{flag}: {text}");
    }
}

#[test]
fn list_names_every_registered_experiment() {
    let out = tensordash(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for exp in tensordash_bench::experiment::registry() {
        assert!(text.contains(exp.name), "missing {}", exp.name);
    }
    assert!(text.contains("AlexNet"), "zoo listing missing");
    // Satellite: the scheduler family is listed next to the model zoo.
    for kind in tensordash_sim::SchedulerKind::ALL {
        assert!(
            text.contains(kind.name()),
            "missing scheduler {}",
            kind.name()
        );
        assert!(
            text.contains(kind.summary()),
            "missing summary for {}",
            kind.name()
        );
    }
}

#[test]
fn unknown_names_and_options_fail_cleanly() {
    let out = tensordash(&["run", "fig99"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("fig99"));

    let out = tensordash(&["--frobnicate"]);
    assert!(!out.status.success());

    // `--out` is a --config-only option; silently ignoring it would leave
    // the user's expected report file unwritten.
    let out = tensordash(&["run", "table2", "--out", "report.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("--results"));

    let out = tensordash(&[]);
    assert!(
        !out.status.success(),
        "no arguments should not silently succeed"
    );
}

/// The acceptance gate for declarative configs: a full experiment (chip +
/// eval + model selection) round-trips through a TOML file, and running it
/// via `tensordash --config` writes the same JSON report the in-code
/// builder path produces.
#[test]
fn config_file_reproduces_the_in_code_report_byte_for_byte() {
    let spec = ExperimentSpec::new("cli-roundtrip")
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
        );

    // The spec itself round-trips through the TOML file we hand the CLI.
    let toml = tensordash_serde::to_toml_string(&spec).unwrap();
    let config_path = temp_file("cli-roundtrip.toml");
    std::fs::write(&config_path, &toml).unwrap();
    let reparsed: ExperimentSpec = tensordash_serde::from_toml_str(&toml).unwrap();
    assert_eq!(reparsed, spec);

    // In-code path.
    let reports = spec.run().unwrap();
    let expected = tensordash_serde::json::write(&spec.report_document(&reports));

    // CLI path.
    let out_path = temp_file("cli-roundtrip.json");
    let out = tensordash(&[
        "--config",
        config_path.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&out_path).unwrap();
    assert_eq!(
        written, expected,
        "CLI JSON diverged from the in-code report"
    );
}

/// The `--scheduler` face of the family: bad names fail fast and name
/// the valid set; a multi-scheduler run prices every member over the
/// same recorded trace and writes one document holding a full report per
/// scheduler; a single `--scheduler` overrides the spec's `[chip]`
/// scheduler in the ordinary report shape.
#[test]
fn scheduler_flag_compares_family_members_over_one_trace() {
    let out = tensordash(&["run", "--scheduler", "2of4"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("tensordash, 2to4, tstd, dense"), "{err}");

    let out = tensordash(&["run", "--scheduler", ","]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("tensordash, 2to4, tstd, dense"), "{err}");

    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/golden.trace.json"
    );
    let config = temp_file("sched-cmp.toml");
    std::fs::write(
        &config,
        format!(
            "name = \"sched-cmp\"\n[eval]\nprogress = 1.0\n[eval.source]\nrecorded = \"{trace}\"\n"
        ),
    )
    .unwrap();

    // Side-by-side comparison: dense anchors at exactly 1x, TensorDash
    // beats it, and the document names each member's full report.
    let out_path = temp_file("sched-cmp.json");
    let out = tensordash(&[
        "--config",
        config.to_str().unwrap(),
        "--scheduler",
        "dense,tensordash",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("model"), "{text}");
    assert!(text.contains("dense"), "{text}");
    assert!(text.contains("tensordash"), "{text}");
    assert!(text.contains("1.000x"), "dense must anchor at 1x: {text}");
    let json = std::fs::read_to_string(&out_path).unwrap();
    assert!(json.contains("\"schedulers\""), "{json}");
    assert!(json.contains("\"scheduler\": \"dense\""), "{json}");
    assert!(json.contains("\"scheduler\": \"tensordash\""), "{json}");

    // One scheduler keeps the ordinary single-report document, with the
    // override recorded in the embedded spec.
    let out = tensordash(&[
        "--config",
        config.to_str().unwrap(),
        "--scheduler",
        "dense",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_path).unwrap();
    assert!(!json.contains("\"schedulers\""), "{json}");
    assert!(json.contains("\"scheduler\": \"dense\""), "{json}");
}

/// The `tensordash train` acceptance path: a smoke training run records
/// an artifact and a per-epoch report; replaying the artifact rebuilds
/// the report **byte-identically** (the same gate ci.sh enforces with
/// `cmp`), and the artifact replays through `--config` as well.
#[test]
fn train_record_and_replay_are_byte_identical() {
    let artifact = temp_file("train.trace.json");
    let live_report = temp_file("train-live.json");
    let out = tensordash(&[
        "train",
        "--smoke",
        "--seed",
        "11",
        "--record",
        artifact.to_str().unwrap(),
        "--out",
        live_report.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("TD-speedup"), "{text}");
    let live = std::fs::read_to_string(&live_report).unwrap();
    for key in ["total_speedup", "act_sparsity", "op_speedup", "AxW"] {
        assert!(live.contains(key), "missing `{key}`");
    }

    let replay_report = temp_file("train-replay.json");
    let out = tensordash(&[
        "train",
        "--replay",
        artifact.to_str().unwrap(),
        "--out",
        replay_report.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replay = std::fs::read_to_string(&replay_report).unwrap();
    assert_eq!(live, replay, "replay diverged from the live report");

    // The same artifact replays through the declarative config path.
    let config = temp_file("train-replay.toml");
    std::fs::write(
        &config,
        format!(
            "name = \"cli-replay\"\n[eval]\nprogress = 1.0\n[eval.source]\nrecorded = \"{}\"\n",
            artifact.to_str().unwrap()
        ),
    )
    .unwrap();
    let config_report = temp_file("train-config.json");
    let out = tensordash(&[
        "--config",
        config.to_str().unwrap(),
        "--out",
        config_report.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&config_report).unwrap();
    assert!(report.contains("small-cnn"), "recording label missing");

    // --record with --replay is contradictory and must fail cleanly.
    let out = tensordash(&[
        "train",
        "--replay",
        artifact.to_str().unwrap(),
        "--record",
        artifact.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let out = tensordash(&["train", "--epochs", "0"]);
    assert!(!out.status.success());
    let out = tensordash(&["train", "--frobnicate"]);
    assert!(!out.status.success());
}

/// A flag with its value missing (or any malformed `train`/`serve`/
/// `loadtest` argument) must exit through the usage-error path —
/// `error: ...` on stderr, non-zero exit — never a panic/abort.
#[test]
fn arg_parse_failures_are_usage_errors_not_panics() {
    let cases: &[&[&str]] = &[
        &["train", "--out"],
        &["train", "--record"],
        &["serve", "--port"],
        &["serve", "--port", "not-a-number"],
        &["serve", "--workers", "0"],
        &["serve", "--cache-cap", "0"],
        &["serve", "--queue-cap", "zero"],
        &["serve", "--idle-shutdown", "-3"],
        &["serve", "--frobnicate"],
        &["loadtest"],
        &["loadtest", "http://127.0.0.1:1", "--requests", "0"],
        &["loadtest", "http://127.0.0.1:1", "--concurrency", "x"],
        &["loadtest", "http://127.0.0.1:1", "--frobnicate"],
        &["loadtest", "http://127.0.0.1:1", "extra-positional"],
        &["loadtest", "https://127.0.0.1:1"],
    ];
    for args in cases {
        let out = tensordash(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("error:"),
            "{args:?} must fail through the usage-error path, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{args:?} panicked instead of reporting usage: {stderr}"
        );
    }
}

/// `tensordash serve --idle-shutdown` boots, prints its address, and
/// exits zero by itself once idle — the CLI face of the service.
#[test]
fn serve_on_an_ephemeral_port_idles_out_cleanly() {
    let out = tensordash(&["serve", "--port", "0", "--idle-shutdown", "0.3"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("listening on http://127.0.0.1:"), "{text}");
    assert!(text.contains("shut down cleanly"), "{text}");
}

#[test]
fn config_errors_name_the_offending_field() {
    let config_path = temp_file("bad.toml");
    std::fs::write(&config_path, "[chip]\ntiles = 0\n").unwrap();
    let out = tensordash(&["--config", config_path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("tile"), "{err}");

    let out = tensordash(&["--config", "/nonexistent/experiment.toml"]);
    assert!(!out.status.success());
}
