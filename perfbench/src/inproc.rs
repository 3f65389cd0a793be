//! Pieces the three in-process workloads share: the run loop that
//! alternates untraced and traced iterations, set-up timing, and the
//! attribution of traced span time to layers.

use crate::calls::KernelTally;
use crate::report::Outcome;
use crate::spans::{self_times, Recorder, SETUP};
use crate::stats::{median, percentile};
use crate::Options;
use std::time::Instant;

/// Seconds of one call of `setup`, timed over a batch of `reps` calls
/// (batching keeps sub-millisecond set-ups above the clock's noise).
/// The in-process workloads take one batch before their first iteration
/// and one after each, so the median samples the host across the whole
/// run rather than the moment the process started.
pub fn setup_batch(reps: usize, setup: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        setup();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// Iteration walls of one run, split by tracing.
#[derive(Debug, Default)]
pub struct Walls {
    /// Untraced iteration walls, seconds.
    pub untraced: Vec<f64>,
    /// Traced iteration walls (replay excluded), seconds.
    pub traced: Vec<f64>,
}

/// Runs `iteration(index, traced)` until at least `min` iterations ran
/// and another one (as long as the last) would end past `opts.seconds`.
/// With tracing on, odd iterations are traced and even ones are not, so
/// one run yields both walls.
///
/// # Errors
///
/// The first iteration error.
pub fn run_loop(
    opts: &Options,
    min: usize,
    mut iteration: impl FnMut(u64, bool) -> Result<f64, String>,
) -> Result<Walls, String> {
    let start = Instant::now();
    let mut walls = Walls::default();
    let mut k = 0u64;
    let mut last = 0.0;
    while (k as usize) < min || start.elapsed().as_secs_f64() + last < opts.seconds {
        let traced = opts.trace && k % 2 == 1;
        let begun = Instant::now();
        let wall = iteration(k, traced)?;
        last = begun.elapsed().as_secs_f64();
        if traced {
            walls.traced.push(wall);
        } else {
            walls.untraced.push(wall);
        }
        k += 1;
    }
    Ok(walls)
}

/// Sets `wall_s`, `latency_*` and `peak_rss_mb`, plus the tracing
/// overhead when traced iterations ran.
pub fn finish(out: &mut Outcome, walls: &Walls, latencies_ms: &[f64]) {
    out.set_e2e("wall_s", median(&walls.untraced), walls.untraced.len());
    out.set_e2e(
        "latency_p50_ms",
        percentile(latencies_ms, 0.5),
        latencies_ms.len(),
    );
    out.set_e2e(
        "latency_p95_ms",
        percentile(latencies_ms, 0.95),
        latencies_ms.len(),
    );
    out.set_e2e("peak_rss_mb", crate::report::peak_rss_mb(), 1);
    out.notes.push(format!(
        "untraced iterations: n={}, wall quartiles {:.4} / {:.4} / {:.4} s",
        walls.untraced.len(),
        percentile(&walls.untraced, 0.25),
        median(&walls.untraced),
        percentile(&walls.untraced, 0.75),
    ));
    if !walls.traced.is_empty() {
        let untraced = median(&walls.untraced);
        out.set(
            "bench.tracing_overhead_pct",
            (median(&walls.traced) - untraced) / untraced * 100.0,
        );
    }
}

/// Attributes the recorded span time to layers, per traced iteration:
/// each layer metric is the span seconds summed over the run divided by
/// `iterations`, and `bench.unattributed_s` is the self time of the
/// `bench.iteration` roots — the part of the wall no layer span covers.
/// `sim.self_s` is `sim.simulate_s` minus the replayed `core.kernel_s`.
pub fn attribute(out: &mut Outcome, rec: &Recorder, iterations: usize) {
    if iterations == 0 {
        return;
    }
    let per = 1.0 / iterations as f64;
    let spans = rec.spans();
    let selfs = self_times(&spans);
    for s in spans.iter().filter(|s| s.request != SETUP) {
        let t = s.seconds() * per;
        let mut parts = s.detail.split('/');
        let (model, op, member) = (parts.next(), parts.next(), parts.next());
        let family = |out: &mut Outcome, base: &str| {
            out.add(base, t);
            for tag in [model, op, member].into_iter().flatten() {
                let name = format!("{base}.{tag}");
                if out.layer.contains_key(&name) {
                    out.add(&name, t);
                }
            }
        };
        match s.name {
            "models.build" => family(out, "models.build_s"),
            "trace.lookup" => out.add("trace.lookup_s", t),
            "sim.simulate" => family(out, "sim.simulate_s"),
            "core.kernel" => family(out, "core.kernel_s"),
            "serde.serialize" => out.add("serde.serialize_s", t),
            "nn.capture" => out.add("nn.capture_s", t),
            "bench.iteration" => out.add("bench.unattributed_s", selfs[&s.id] * per),
            _ => {}
        }
    }
    let sim_self = out.layer["sim.simulate_s"] - out.layer["core.kernel_s"];
    out.set("sim.self_s", sim_self);
}

/// Adds one kernel replay's counts to the run's totals.
pub fn record_tally(out: &mut Outcome, tally: KernelTally) {
    out.add("sim.rows_simulated", tally.rows as f64);
    out.add("sim.cycles_simulated", tally.cycles as f64);
    out.add("sim.work_items", tally.items as f64);
}

/// Turns run totals of `names` into per-iteration means.
pub fn per_iteration(out: &mut Outcome, names: &[&str], iterations: usize) {
    for name in names {
        let v = out.layer[*name] / iterations as f64;
        out.set(name, v);
    }
}

/// Sets the kernel-derived rates once the replay counts are in.
pub fn kernel_rates(out: &mut Outcome) {
    let rows = out.layer["sim.rows_simulated"];
    if rows > 0.0 {
        out.set("sim.ns_per_row", out.layer["sim.simulate_s"] / rows * 1e9);
    }
    let kernel = out.layer["core.kernel_s"];
    if kernel > 0.0 {
        out.set("core.kernel_rows_per_s", rows / kernel);
    }
}

/// The share of the traced wall left unattributed, as a note.
pub fn attribution_note(out: &mut Outcome, walls: &Walls) {
    if walls.traced.is_empty() {
        return;
    }
    let wall = crate::stats::mean(&walls.traced);
    let share = out.layer["bench.unattributed_s"] / wall;
    out.notes.push(format!(
        "traced wall {wall:.4} s, unattributed {:.4} s = {:.2}% (limit {:.0}%){}",
        out.layer["bench.unattributed_s"],
        share * 100.0,
        crate::catalog::UNATTRIBUTED_SHARE_LIMIT * 100.0,
        if share <= crate::catalog::UNATTRIBUTED_SHARE_LIMIT {
            ""
        } else {
            " OVER LIMIT"
        }
    ));
}
