//! Every metric the benchmark prints, with its unit, direction, layer,
//! the workloads it applies to and the end-to-end metric it is predicted
//! to move. `BENCHMARK.json` and `perfbench/catalog.json` are generated
//! from this table (`--emit benchmark` / `--emit catalog`), and the
//! benchmark's tests check that the committed files still match it.

use tensordash_core::SchedulerKind;
use tensordash_trace::TrainingOp;

/// The four workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "zoo_cold",
        why: "Fig 13 sweep as --config runs it, fresh TraceCache each time: trace build \
              (models/trace) is about 2/3 of the wall and the tile kernel about 1/3",
        seed: "EvalSpec::headline() trace seed",
        held_out_seed: 7919,
    },
    Workload {
        name: "chip_sweep",
        why: "one trace build in set-up, then Fig 17-19 chip points x all 4 scheduler members \
              on warm traces: core/sim do about 90% of the work",
        seed: "EvalSpec::headline() trace seed; picks the cold-cache gate's chip point",
        held_out_seed: 7919,
    },
    Workload {
        name: "serve_open",
        why: "open-loop 20/100/400 req/s against an in-process Service over HTTP, every 4th an \
              upload + stored replay: server/store dominate, simulation is about 1 ms a job",
        seed: "loadtest::mix_spec(seed, i) and loadtest::upload_recording(seed)",
        held_out_seed: 7919,
    },
    Workload {
        name: "train_live",
        why: "default tensordash train: live nn/tensor training with in-loop extraction, then \
              train_report_document; the only workload where nn/tensor do the work",
        seed: "TrainOptions::seed (dataset, weights, batch order)",
        held_out_seed: 7919,
    },
];

/// The `serve_open` arrival-rate ladder, requests per second.
pub const RATE_LADDER: [u32; 3] = [20, 100, 400];

/// The `serve_open` latency limit on p95 that `max_rate_rps` applies.
pub const P95_LIMIT_MS: f64 = 100.0;

/// The largest share of an in-process workload's traced wall that may
/// stay unattributed to a layer (`bench.unattributed_s`).
pub const UNATTRIBUTED_SHARE_LIMIT: f64 = 0.05;

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Why it is in the benchmark, one line.
    pub why: &'static str,
    /// What `--seed` feeds.
    pub seed: &'static str,
    /// A seed kept out of tuning, for confirming a claim.
    pub held_out_seed: u64,
}

/// One metric.
#[derive(Debug, Clone)]
pub struct Def {
    /// Printed name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The layer the metric belongs to (`e2e` for end-to-end metrics).
    pub layer: &'static str,
    /// How far the median may worsen before a change is a regression
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// What the metric is on each workload (end-to-end), or the
    /// workloads it applies to and the end-to-end metric it is predicted
    /// to move (per-layer).
    pub meaning: &'static str,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    meaning: &'static str,
) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        layer,
        bound: None,
        meaning,
    }
}

/// The end-to-end metrics: every workload prints every one of them,
/// measured with tracing off.
#[must_use]
pub fn end_to_end() -> Vec<Def> {
    let e2e = |name: &str, unit, better, bound: f64, meaning| Def {
        bound: Some(bound),
        ..def(name, unit, better, "e2e", meaning)
    };
    vec![
        e2e(
            "setup_s",
            "s",
            "lower",
            0.25,
            "median set-up, sampled across the run: zoo_cold/train_live parse+validate \
             the spec and open the Simulator (a batch of 100 before the first iteration \
             and after each); chip_sweep the one 8-model trace build (2 before the grid, 3 \
             after); serve_open Service bind to first /healthz 200 (5 before the ladder, 4 \
             after)",
        ),
        e2e(
            "wall_s",
            "s",
            "lower",
            0.25,
            "median iteration wall: zoo_cold one 8-model sweep; chip_sweep one pass over \
             the chip x member grid; serve_open the whole ladder, first due time to last \
             report; train_live one capture_training + train_report_document + json",
        ),
        e2e(
            "latency_p50_ms",
            "ms",
            "lower",
            0.25,
            "median wait for one result: one model evaluation (run_in observe hook) on \
             zoo_cold/chip_sweep; one request at 20 req/s from its due time on serve_open; \
             one training run on train_live",
        ),
        e2e(
            "latency_p95_ms",
            "ms",
            "lower",
            0.25,
            "95th percentile of the samples behind latency_p50_ms",
        ),
        e2e(
            "masks_per_s",
            "1/s",
            "higher",
            0.25,
            "mask rows simulated per second of iteration wall (serve_open: rows of the \
             completed jobs over the ladder wall; train_live: rows captured and simulated)",
        ),
        e2e(
            "peak_rss_mb",
            "MB",
            "lower",
            0.15,
            "process resident-memory high-water mark (VmHWM) at the end of the run",
        ),
    ]
}

/// The per-layer metrics of the traced run (`--trace 1`). Every
/// workload prints every one; a layer a workload never calls reads 0.
#[must_use]
pub fn per_layer(models: &[String]) -> Vec<Def> {
    const MODELS_MOVE: &str = "zoo_cold: wall_s, masks_per_s, peak_rss_mb; chip_sweep: \
                               setup_s (its set-up build); serve_open: none (cache warm after \
                               its first misses)";
    const SIM_MOVE: &str = "wall_s/masks_per_s on chip_sweep (most) and zoo_cold (about a \
                            third); serve_open at 20 req/s: none";
    const CORE_MOVE: &str = "wall_s on chip_sweep; replayed through Tile::run_group_arena \
                             with the same inputs sim drives it with";
    const SERVER_MOVE: &str = "serve_open latency_p50_ms/latency_p95_ms/wall_s; none on the \
                               in-process workloads";
    const STORE_MOVE: &str = "serve_open latency_p95_ms (the upload legs form the tail)";
    const NN_MOVE: &str = "train_live wall_s and masks_per_s";

    let mut defs = vec![def("models.build_s", "s", "lower", "models", MODELS_MOVE)];
    for m in models {
        defs.push(def(
            format!("models.build_s.{m}"),
            "s",
            "lower",
            "models",
            MODELS_MOVE,
        ));
    }
    defs.extend([
        def("models.rows_built", "count", "lower", "models", MODELS_MOVE),
        def(
            "trace.lookup_s",
            "s",
            "lower",
            "trace",
            "TraceCache lookups that hit; moves wall_s on chip_sweep only if lookups stop being \
             negligible",
        ),
        def("trace.cache_hits", "count", "higher", "trace", MODELS_MOVE),
        def("trace.cache_misses", "count", "lower", "trace", MODELS_MOVE),
        def("sim.simulate_s", "s", "lower", "sim", SIM_MOVE),
    ]);
    for m in models {
        defs.push(def(
            format!("sim.simulate_s.{m}"),
            "s",
            "lower",
            "sim",
            SIM_MOVE,
        ));
    }
    for op in TrainingOp::ALL {
        defs.push(def(
            format!("sim.simulate_s.{}", op.label()),
            "s",
            "lower",
            "sim",
            SIM_MOVE,
        ));
    }
    for kind in SchedulerKind::ALL {
        defs.push(def(
            format!("sim.simulate_s.{}", kind.name()),
            "s",
            "lower",
            "sim",
            SIM_MOVE,
        ));
    }
    defs.extend([
        def("sim.self_s", "s", "lower", "sim", SIM_MOVE),
        def("sim.rows_simulated", "count", "higher", "sim", SIM_MOVE),
        def(
            "sim.cycles_simulated",
            "cycles",
            "lower",
            "sim",
            "simulated (not host) tile cycles of the replayed sampled groups; \
             changes only when the modelled machine changes",
        ),
        def("sim.work_items", "count", "higher", "sim", SIM_MOVE),
        def("sim.ns_per_row", "ns", "lower", "sim", SIM_MOVE),
        def(
            "sim.modeled_speedup",
            "x",
            "higher",
            "sim",
            "simulated: arithmetic mean total speedup over the reports; moves no host metric",
        ),
        def("core.kernel_s", "s", "lower", "core", CORE_MOVE),
    ]);
    for kind in SchedulerKind::ALL {
        defs.push(def(
            format!("core.kernel_s.{}", kind.name()),
            "s",
            "lower",
            "core",
            CORE_MOVE,
        ));
    }
    defs.extend([
        def("core.kernel_rows_per_s", "1/s", "higher", "core", CORE_MOVE),
        def(
            "serde.serialize_s",
            "s",
            "lower",
            "serde",
            "report_document + json::write; no visible end-to-end move (about 0.3% of zoo_cold)",
        ),
        def(
            "serde.report_bytes",
            "bytes",
            "lower",
            "serde",
            "bytes of one iteration's report JSON; changes only when reports change",
        ),
        def("server.submit_ms.p50", "ms", "lower", "server", SERVER_MOVE),
        def("server.submit_ms.p95", "ms", "lower", "server", SERVER_MOVE),
        def("server.poll_ms.p50", "ms", "lower", "server", SERVER_MOVE),
        def(
            "server.polls_per_request",
            "ratio",
            "lower",
            "server",
            SERVER_MOVE,
        ),
        def(
            "server.healthz_ms.p50",
            "ms",
            "lower",
            "server",
            SERVER_MOVE,
        ),
        def(
            "server.sim_ms_per_job",
            "ms",
            "lower",
            "server",
            SERVER_MOVE,
        ),
        def(
            "server.overhead_ms.p50",
            "ms",
            "lower",
            "server",
            SERVER_MOVE,
        ),
        def("server.jobs_done", "count", "higher", "server", SERVER_MOVE),
        def(
            "server.jobs_failed",
            "count",
            "lower",
            "server",
            SERVER_MOVE,
        ),
        def(
            "server.jobs_rejected",
            "count",
            "lower",
            "server",
            SERVER_MOVE,
        ),
        def("server.retries", "count", "lower", "server", SERVER_MOVE),
        def("store.upload_ms.p50", "ms", "lower", "store", STORE_MOVE),
        def(
            "store.stored_replay_ms.p50",
            "ms",
            "lower",
            "store",
            STORE_MOVE,
        ),
        def("store.uploads", "count", "higher", "store", STORE_MOVE),
        def("store.dedup_hits", "count", "higher", "store", STORE_MOVE),
        def("nn.capture_s", "s", "lower", "nn", NN_MOVE),
        def("nn.masks_captured", "count", "higher", "nn", NN_MOVE),
        def(
            "bench.generator_lag_ms.p95",
            "ms",
            "lower",
            "bench",
            "serve_open: how late the load generator sent, p95; a stall shows here first",
        ),
        def(
            "bench.unattributed_s",
            "s",
            "lower",
            "bench",
            "traced iteration wall not covered by a layer span (limit: 5% of the wall)",
        ),
        def(
            "bench.tracing_overhead_pct",
            "%",
            "lower",
            "bench",
            "traced iteration wall minus untraced, as a share of untraced",
        ),
    ]);
    // End-to-end figures that exist on one workload only. The
    // end-to-end list above must hold on every workload, so these ride in
    // the traced run; they are printed in the human-readable report of
    // every run as well.
    const ONE_WORKLOAD: &str = "end-to-end figure of one workload (see README)";
    defs.extend([
        def(
            "failed_share",
            "ratio",
            "lower",
            "e2e",
            "failed / attempted",
        ),
        def(
            "fig13_error_pct",
            "%",
            "lower",
            "e2e",
            "zoo_cold, simulated: |mean modeled speedup - 1.95| / 1.95",
        ),
        def("live_masks_per_s", "1/s", "higher", "e2e", ONE_WORKLOAD),
        def("max_rate_rps", "1/s", "higher", "e2e", ONE_WORKLOAD),
    ]);
    for rate in RATE_LADDER {
        for p in ["p50", "p95"] {
            defs.push(def(
                format!("latency_{p}_ms.r{rate}"),
                "ms",
                "lower",
                "e2e",
                ONE_WORKLOAD,
            ));
        }
    }
    defs
}

/// The paper's eight models, by name.
#[must_use]
pub fn model_names() -> Vec<String> {
    tensordash_models::paper_models()
        .into_iter()
        .map(|m| m.name)
        .collect()
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metric_line(d: &Def, with_meta: bool) -> String {
    let mut line = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        quote(&d.name),
        quote(d.unit),
        quote(d.better)
    );
    if let Some(bound) = d.bound {
        line.push_str(&format!(", \"bound\": {bound}"));
    }
    if with_meta {
        line.push_str(&format!(
            ", \"layer\": {}, \"meaning\": {}",
            quote(d.layer),
            quote(d.meaning)
        ));
    }
    line.push('}');
    line
}

fn metric_list(defs: &[Def], with_meta: bool) -> String {
    defs.iter()
        .map(|d| format!("    {}", metric_line(d, with_meta)))
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Run length of one benchmark run, seconds.
pub const RUN_SECONDS: u64 = 20;

/// The repository's `BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        metric_list(&end_to_end(), false),
        metric_list(&per_layer(&model_names()), false)
    )
}

/// `perfbench/catalog.json`: everything `BENCHMARK.json` has no key for.
#[must_use]
pub fn catalog_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}, \"seed\": {}, \"held_out_seed\": {}}}",
                quote(w.name),
                quote(w.why),
                quote(w.seed),
                w.held_out_seed
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let ladder = RATE_LADDER
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"workloads\": [\n{workloads}\n  ],\n  \"serve_open\": {{\"rate_ladder_rps\": \
         [{ladder}], \"p95_limit_ms\": {P95_LIMIT_MS}, \"requests_per_rate\": 200, \
         \"upload_every\": 4}},\n  \"unattributed_share_limit\": {UNATTRIBUTED_SHARE_LIMIT},\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        metric_list(&end_to_end(), true),
        metric_list(&per_layer(&model_names()), true)
    )
}
