//! `train_live`: the default `tensordash train` path — `capture_training`
//! (real `nn`/`tensor` training with in-loop extraction), then
//! `train_report_document` and the report JSON.

use crate::calls::{replay_kernel, trace_rows};
use crate::inproc::{self, attribute, run_loop};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::median;
use crate::Options;
use std::time::Instant;
use tensordash_bench::{capture_training, train_report_document, TrainOptions};
use tensordash_serde::json;
use tensordash_sim::Simulator;
use tensordash_trace::TraceRecording;

/// Set-up calls per timed batch.
const SETUP_REPS: usize = 100;

/// The training run: `tensordash train`'s defaults under the workload
/// seed (the tiny scale is the smoke variant, one epoch).
#[must_use]
pub fn options(opts: &Options) -> TrainOptions {
    let mut train = TrainOptions {
        name: "train_live".to_string(),
        seed: opts.seed,
        ..TrainOptions::default()
    };
    if opts.tiny {
        train.smoke = true;
        train.epochs = 1;
    }
    train
}

/// Mask rows a recording holds.
#[must_use]
pub fn recording_rows(recording: &TraceRecording) -> u64 {
    recording.epochs.iter().map(|e| trace_rows(&e.layers)).sum()
}

/// Builds the report bytes of a recording as `tensordash train` does.
#[must_use]
pub fn report_bytes(recording: &TraceRecording, sim: &Simulator) -> String {
    json::write(&train_report_document(recording, sim))
}

/// Runs the workload.
///
/// # Errors
///
/// A training run that fails.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::new("train_live");
    let train = options(opts);

    // Set-up is what `train` does before its first epoch outside the
    // trainer: settle the options and open the report's simulator.
    let mut setup = || {
        std::hint::black_box(options(opts));
        std::hint::black_box(Simulator::paper());
    };
    let mut setups = vec![inproc::setup_batch(SETUP_REPS, &mut setup)];

    let rec = Recorder::new();
    let mut latencies_ms = Vec::new();
    let mut reference: Option<(String, TraceRecording)> = None;
    let mut rows = 0u64;
    let walls = run_loop(opts, 3, |k, traced| {
        let start = Instant::now();
        let (recording, bytes, wall) = if traced {
            let (recording, bytes) =
                rec.time("bench.iteration", "train_live", k, None, |root| {
                    let recording = rec.time("nn.capture", "", k, Some(root), |_| {
                        capture_training(&train)
                    })?;
                    let document = rec.time(
                        "sim.simulate",
                        "train_live/all/tensordash",
                        k,
                        Some(root),
                        |_| train_report_document(&recording, &Simulator::paper()),
                    );
                    let bytes = rec.time("serde.serialize", "", k, Some(root), |_| {
                        json::write(&document)
                    });
                    Ok::<_, String>((recording, bytes))
                })?;
            let wall = start.elapsed().as_secs_f64();
            let chip = *Simulator::paper().chip();
            rec.time("bench.replay", "train_live", k, None, |root| {
                for epoch in &recording.epochs {
                    let tally = replay_kernel(&chip, "train_live", &epoch.layers, &rec, k, root);
                    inproc::record_tally(&mut out, tally);
                }
            });
            out.add("serde.report_bytes", bytes.len() as f64);
            (recording, bytes, wall)
        } else {
            let recording = capture_training(&train)?;
            let bytes = report_bytes(&recording, &Simulator::paper());
            (recording, bytes, start.elapsed().as_secs_f64())
        };
        if !traced {
            latencies_ms.push(wall * 1e3);
        }
        rows = recording_rows(&recording);
        out.attempted += 1;
        match &reference {
            None => reference = Some((bytes, recording)),
            Some((first, _)) if *first != bytes => {
                out.mismatch(format!(
                    "train_live iteration {k} report differs from iteration 0"
                ));
            }
            Some(_) => {}
        }
        setups.push(inproc::setup_batch(SETUP_REPS, &mut setup));
        Ok(wall)
    })?;
    out.set_e2e("setup_s", median(&setups), setups.len());

    // Gate: the live report equals a replay of its recording after a
    // binary round trip.
    let (live, recording) = reference.expect("at least one iteration ran");
    let replayed = TraceRecording::from_bytes(&recording.to_bytes())
        .map_err(|e| format!("recording round trip failed: {e}"))?;
    if !crate::gate::same_bytes(&live, &report_bytes(&replayed, &Simulator::paper())) {
        out.mismatch(
            "train_live report differs from the replay of its round-tripped recording".into(),
        );
    }

    inproc::finish(&mut out, &walls, &latencies_ms);
    let wall = out.e2e["wall_s"].0;
    out.set_e2e("masks_per_s", rows as f64 / wall, walls.untraced.len());
    out.set("live_masks_per_s", rows as f64 / wall);
    out.set("nn.masks_captured", rows as f64);

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
        inproc::attribution_note(&mut out, &walls);
        crate::write_spans(opts, "train_live", &rec)?;
    }
    Ok(out)
}
