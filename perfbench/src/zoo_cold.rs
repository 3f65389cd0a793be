//! `zoo_cold`: the Fig 13 sweep as `tensordash --config` runs it — the
//! paper's eight models on the Table 2 chip under `EvalSpec::headline()`,
//! `tensordash` scheduler, a fresh `TraceCache` every iteration.

use crate::calls::{replay_kernel, trace_rows, traced_run};
use crate::inproc::{self, attribute, run_loop};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{mean, median};
use crate::Options;
use std::time::Instant;
use tensordash_bench::experiment::SourceContext;
use tensordash_bench::paperref::FIG13_MEAN;
use tensordash_bench::{ExperimentSpec, TraceCache};
use tensordash_serde::json;
use tensordash_sim::{EvalSpec, ModelReport, Simulator};
use tensordash_trace::SampleSpec;

/// Set-up calls per timed batch.
const SETUP_REPS: usize = 100;

/// The spec the workload sweeps: the headline methodology under the
/// workload seed (the tiny scale shrinks models and sampling for tests).
#[must_use]
pub fn spec(opts: &Options) -> ExperimentSpec {
    let mut eval = EvalSpec::headline();
    eval.seed = opts.seed;
    let spec = ExperimentSpec::new("zoo_cold");
    if opts.tiny {
        eval.sample = SampleSpec::new(4, 32);
        return spec.with_models(["AlexNet", "SqueezeNet"]).with_eval(eval);
    }
    spec.with_eval(eval)
}

/// Runs the workload.
///
/// # Errors
///
/// A spec that fails to resolve or run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::new("zoo_cold");
    let spec = spec(opts);
    let models = spec.resolve_models().map_err(|e| e.to_string())?;
    let lanes = spec.chip.tile.pe.lanes();

    // Set-up is what `--config` does before its sweep: parse the TOML,
    // validate it, open the simulator session.
    let toml = tensordash_serde::to_toml_string(&spec).map_err(|e| e.to_string())?;
    let mut setup = || {
        let parsed: ExperimentSpec =
            tensordash_serde::from_toml_str(&toml).expect("the spec's own TOML parses");
        parsed.validate().expect("the spec validates");
        std::hint::black_box(Simulator::new(parsed.chip));
    };
    let mut setups = vec![inproc::setup_batch(SETUP_REPS, &mut setup)];

    let rec = Recorder::new();
    let mut latencies_ms = Vec::new();
    let mut reference: Option<(String, Vec<ModelReport>)> = None;
    let mut rows_per_sweep = 0u64;
    let walls = run_loop(opts, 3, |k, traced| {
        let cache = TraceCache::new();
        let (reports, bytes, wall) = if traced {
            let start = Instant::now();
            let (reports, traces, bytes) =
                rec.time("bench.iteration", "zoo_cold", k, None, |root| {
                    let (reports, traces) =
                        traced_run(&spec, &cache, &rec, k, root).map_err(|e| e.to_string())?;
                    let bytes = rec.time("serde.serialize", "", k, Some(root), |_| {
                        json::write(&spec.report_document(&reports))
                    });
                    Ok::<_, String>((reports, traces, bytes))
                })?;
            let wall = start.elapsed().as_secs_f64();
            rec.time("bench.replay", "zoo_cold", k, None, |root| {
                for (model, traces) in models.iter().zip(&traces) {
                    let tally = replay_kernel(&spec.chip, &model.name, traces, &rec, k, root);
                    inproc::record_tally(&mut out, tally);
                }
            });
            let counters = cache.counters();
            out.add("trace.cache_hits", counters.hits as f64);
            out.add("trace.cache_misses", counters.misses as f64);
            out.add(
                "models.rows_built",
                traces.iter().map(|t| trace_rows(t) as f64).sum::<f64>(),
            );
            out.add("serde.report_bytes", bytes.len() as f64);
            (reports, bytes, wall)
        } else {
            let start = Instant::now();
            let reports = spec
                .run_in(&cache, &SourceContext::local(), &mut |_, wall| {
                    latencies_ms.push(wall * 1e3);
                })
                .map_err(|e| e.to_string())?;
            let bytes = json::write(&spec.report_document(&reports));
            let wall = start.elapsed().as_secs_f64();
            if rows_per_sweep == 0 {
                // Untimed: the sweep's traces are still cached.
                rows_per_sweep = models
                    .iter()
                    .map(|m| trace_rows(&cache.layer_traces(m, &spec.eval, lanes)))
                    .sum();
            }
            (reports, bytes, wall)
        };
        out.attempted += models.len() as u64;
        match &reference {
            None => reference = Some((bytes, reports)),
            Some((first, _)) if *first != bytes => {
                out.mismatch(format!(
                    "zoo_cold iteration {k} report bytes differ from iteration 0"
                ));
            }
            Some(_) => {}
        }
        setups.push(inproc::setup_batch(SETUP_REPS, &mut setup));
        Ok(wall)
    })?;

    out.set_e2e("setup_s", median(&setups), setups.len());
    inproc::finish(&mut out, &walls, &latencies_ms);
    let wall = out.e2e["wall_s"].0;
    out.set_e2e(
        "masks_per_s",
        rows_per_sweep as f64 / wall,
        walls.untraced.len(),
    );

    let (_, reports) = reference.expect("at least one iteration ran");
    let speedup = mean(
        &reports
            .iter()
            .map(ModelReport::total_speedup)
            .collect::<Vec<_>>(),
    );
    out.set("sim.modeled_speedup", speedup);
    out.set(
        "fig13_error_pct",
        (speedup - FIG13_MEAN).abs() / FIG13_MEAN * 100.0,
    );
    out.notes.push(format!(
        "fig13: mean modeled speedup {speedup:.4}x vs paper {FIG13_MEAN}x"
    ));

    let traced = walls.traced.len();
    if traced > 0 {
        inproc::per_iteration(
            &mut out,
            &[
                "sim.rows_simulated",
                "sim.cycles_simulated",
                "sim.work_items",
                "trace.cache_hits",
                "trace.cache_misses",
                "models.rows_built",
                "serde.report_bytes",
            ],
            traced,
        );
        attribute(&mut out, &rec, traced);
        inproc::kernel_rates(&mut out);
        inproc::attribution_note(&mut out, &walls);
        crate::write_spans(opts, "zoo_cold", &rec)?;
    }
    Ok(out)
}
