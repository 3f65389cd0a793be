//! `chip_sweep`: the Figs 17–19 user — one trace build in set-up, then
//! the Fig 17 (rows), Fig 18 (columns) and Fig 19 (staging depth) chip
//! points crossed with every scheduler member, all over the shared warm
//! traces.

use crate::calls::{replay_kernel, trace_rows, traced_run};
use crate::gate::{digest, in_process_report, same_bytes};
use crate::inproc::{self, attribute, run_loop};
use crate::report::Outcome;
use crate::spans::{Recorder, SETUP};
use crate::stats::{mean, median};
use crate::Options;
use std::time::Instant;
use tensordash_bench::experiment::SourceContext;
use tensordash_bench::{ExperimentSpec, TraceCache};
use tensordash_serde::json;
use tensordash_sim::{ChipConfig, EvalSpec, ModelReport, SchedulerKind};
use tensordash_trace::SampleSpec;

/// Set-up builds; `setup_s` is their median.
const SETUP_BUILDS: usize = 5;

/// The swept chip points as `(label, chip)`: Fig 17's rows × Fig 18's
/// columns at the default 3-deep staging, plus Fig 19's 2-deep point on
/// the paper tile (the tiny scale keeps two points). Eleven points keep
/// the set-up build near a tenth of a pass.
#[must_use]
pub fn points(tiny: bool) -> Vec<(String, ChipConfig)> {
    let (rows, cols): (&[usize], &[usize]) = if tiny {
        (&[1, 4], &[4])
    } else {
        (&[1, 2, 4, 8, 16], &[4, 16])
    };
    let mut points: Vec<(usize, usize, usize)> = rows
        .iter()
        .flat_map(|&r| cols.iter().map(move |&c| (r, c, 3)))
        .collect();
    if !tiny {
        points.push((4, 4, 2));
    }
    points
        .into_iter()
        .map(|(r, c, d)| {
            let chip = ChipConfig::builder()
                .rows(r)
                .cols(c)
                .depth(d)
                .build()
                .expect("every figure point is a valid chip");
            (format!("r{r}c{c}d{d}"), chip)
        })
        .collect()
}

/// The base spec every grid cell runs.
#[must_use]
pub fn base_spec(opts: &Options) -> ExperimentSpec {
    let mut eval = EvalSpec::headline();
    eval.seed = opts.seed;
    let spec = ExperimentSpec::new("chip_sweep");
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
    let mut out = Outcome::new("chip_sweep");
    let base = base_spec(opts);
    let models = base.resolve_models().map_err(|e| e.to_string())?;
    let lanes = base.chip.tile.pe.lanes();
    let rec = Recorder::new();

    // Set-up is the one trace build, into a fresh cache. It is timed five
    // times — twice before the grid (the second build is the warm cache
    // the grid runs over) and three times after it (the last is the cold
    // cache of the gate) — so its median samples the host across the run.
    let build = || {
        let cache = TraceCache::new();
        let start = Instant::now();
        rec.time("bench.setup", "build", SETUP, None, |root| {
            for model in &models {
                rec.time(
                    "models.build",
                    model.name.as_str(),
                    SETUP,
                    Some(root),
                    |_| cache.layer_traces(model, &base.eval, lanes),
                );
            }
        });
        (cache, start.elapsed().as_secs_f64())
    };
    let mut builds = vec![build().1];
    let (cache, seconds) = build();
    builds.push(seconds);
    let rows_per_model_set: u64 = models
        .iter()
        .map(|m| trace_rows(&cache.layer_traces(m, &base.eval, lanes)))
        .sum();
    let warm = cache.counters();

    let grid: Vec<ExperimentSpec> = points(opts.tiny)
        .into_iter()
        .flat_map(|(label, chip)| {
            let base = &base;
            SchedulerKind::ALL.into_iter().map(move |kind| {
                let mut spec = base.clone().with_chip(chip).with_scheduler(kind);
                spec.name = format!("chip_sweep-{label}-{}", kind.name());
                spec
            })
        })
        .collect();

    // Gate point: one seed-chosen chip point whose reports are kept whole
    // for the cold-cache comparison; every other report is compared
    // across passes by digest, so the benchmark holds no copies that
    // would inflate the measured memory.
    let members = SchedulerKind::ALL.len();
    let point = (opts.seed as usize) % (grid.len() / members);
    let gated = point * members..(point + 1) * members;
    let mut latencies_ms = Vec::new();
    let mut reference: Vec<u64> = Vec::new();
    let mut gate_bytes: Vec<String> = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    let walls = run_loop(opts, 2, |k, traced| {
        let start = Instant::now();
        let mut pass = Vec::with_capacity(grid.len());
        let mut replays = Vec::new();
        let mut keep = |i: usize, bytes: String, reports: &[ModelReport]| {
            if k == 0 {
                speedups.extend(reports.iter().map(ModelReport::total_speedup));
                if gated.contains(&i) {
                    gate_bytes.push(bytes.clone());
                }
            }
            pass.push((digest(&bytes), bytes.len()));
        };
        if traced {
            rec.time("bench.iteration", "chip_sweep", k, None, |root| {
                for (i, spec) in grid.iter().enumerate() {
                    let (reports, traces) =
                        traced_run(spec, &cache, &rec, k, root).map_err(|e| e.to_string())?;
                    let bytes =
                        rec.time("serde.serialize", spec.name.as_str(), k, Some(root), |_| {
                            json::write(&spec.report_document(&reports))
                        });
                    keep(i, bytes, &reports);
                    replays.push((spec.chip, traces));
                }
                Ok::<_, String>(())
            })?;
        } else {
            for (i, spec) in grid.iter().enumerate() {
                let reports = spec
                    .run_in(&cache, &SourceContext::local(), &mut |_, wall| {
                        latencies_ms.push(wall * 1e3);
                    })
                    .map_err(|e| e.to_string())?;
                keep(i, json::write(&spec.report_document(&reports)), &reports);
            }
        }
        let wall = start.elapsed().as_secs_f64();
        if traced {
            rec.time("bench.replay", "chip_sweep", k, None, |root| {
                for (chip, traces) in &replays {
                    for (model, traces) in models.iter().zip(traces) {
                        let tally = replay_kernel(chip, &model.name, traces, &rec, k, root);
                        inproc::record_tally(&mut out, tally);
                    }
                }
            });
            let bytes: usize = pass.iter().map(|&(_, len)| len).sum();
            out.add("serde.report_bytes", bytes as f64);
        }
        out.attempted += grid.len() as u64;
        if reference.is_empty() {
            reference = pass.iter().map(|&(d, _)| d).collect();
        } else {
            for ((spec, first), (d, _)) in grid.iter().zip(&reference).zip(&pass) {
                if first != d {
                    out.mismatch(format!("{} pass {k} report differs from pass 0", spec.name));
                }
            }
        }
        Ok(wall)
    })?;
    let grid_counters = cache.counters();
    drop(cache);
    builds.extend((0..2).map(|_| build().1));
    let (cold, seconds) = build();
    builds.push(seconds);
    out.set_e2e("setup_s", median(&builds), builds.len());

    // Gate: at the gate point, every member's warm-cache report equals a
    // run on traces built afresh.
    for (spec, warm_bytes) in grid[gated.clone()].iter().zip(&gate_bytes) {
        let bytes = in_process_report(spec, &cold, &SourceContext::local())?;
        out.attempted += 1;
        if !same_bytes(warm_bytes, &bytes) {
            out.mismatch(format!(
                "{} warm-cache report differs from a cold-cache run",
                spec.name
            ));
        }
    }
    out.notes.push(format!(
        "grid: {} chip points x {members} members; cold-cache gate at {}",
        grid.len() / members,
        grid[gated.start].name
    ));

    inproc::finish(&mut out, &walls, &latencies_ms);
    let wall = out.e2e["wall_s"].0;
    let rows_per_pass = rows_per_model_set * grid.len() as u64;
    out.set_e2e(
        "masks_per_s",
        rows_per_pass as f64 / wall,
        walls.untraced.len(),
    );
    out.set("sim.modeled_speedup", mean(&speedups));

    let traced = walls.traced.len();
    if traced > 0 {
        inproc::per_iteration(
            &mut out,
            &[
                "sim.rows_simulated",
                "sim.cycles_simulated",
                "sim.work_items",
                "serde.report_bytes",
            ],
            traced,
        );
        attribute(&mut out, &rec, traced);
        inproc::kernel_rates(&mut out);
        // The workload's only build is its set-up: report it per build.
        let setup_spans: Vec<_> = rec
            .spans()
            .into_iter()
            .filter(|s| s.request == SETUP && s.name == "models.build")
            .collect();
        let per_build = 1.0 / SETUP_BUILDS as f64;
        for s in &setup_spans {
            out.add("models.build_s", s.seconds() * per_build);
            out.add(
                &format!("models.build_s.{}", s.detail),
                s.seconds() * per_build,
            );
        }
        out.set("models.rows_built", rows_per_model_set as f64);
        let after = grid_counters;
        let passes = (traced + walls.untraced.len()) as f64;
        out.set("trace.cache_hits", (after.hits - warm.hits) as f64 / passes);
        out.set(
            "trace.cache_misses",
            (after.misses - warm.misses) as f64 / passes,
        );
        inproc::attribution_note(&mut out, &walls);
        crate::write_spans(opts, "chip_sweep", &rec)?;
    }
    Ok(out)
}
