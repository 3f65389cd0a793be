//! Building simulator traces from model specs and profiles.

use crate::profile::SparsityProfile;
use crate::zoo::{LayerSpec, ModelSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensordash_trace::{
    default_threads, par_map, ClusteredSparsity, ConvDims, OpTrace, SampleSpec, SparsityGen,
    TraceArena, TrafficVolumes, TrainingOp,
};

/// Builds the trace of one operation of one layer at training progress `t`.
///
/// The scheduled-side stream masks come from a [`ClusteredSparsity`]
/// generator at the profile's sparsity for that operation and layer depth;
/// the traffic volumes carry the profile's per-tensor non-zero counts so
/// the CompressingDMA model sees the right compressibility (including
/// pruned weights for the DS90/SM90 models).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn build_op_trace(
    dims: ConvDims,
    op: TrainingOp,
    profile: &SparsityProfile,
    progress: f64,
    depth_frac: f64,
    lanes: usize,
    sample: &SampleSpec,
    seed: u64,
) -> OpTrace {
    let arena = op_arena(dims, op, lanes, sample);
    fill_op_trace(
        arena, dims, op, profile, progress, depth_frac, lanes, sample, seed,
    )
}

/// An empty arena sized for one (layer, op) build's sampled windows and
/// rows.
fn op_arena(dims: ConvDims, op: TrainingOp, lanes: usize, sample: &SampleSpec) -> TraceArena {
    let windows = sample.max_windows.min(dims.windows(op) as usize);
    let rows = sample
        .max_rows
        .min(dims.rows_per_window(op, lanes) as usize);
    TraceArena::with_capacity(windows, rows)
}

/// [`build_op_trace`] into an `arena` from [`op_arena`], which may have
/// been allocated on another thread.
#[allow(clippy::too_many_arguments)]
fn fill_op_trace(
    mut arena: TraceArena,
    dims: ConvDims,
    op: TrainingOp,
    profile: &SparsityProfile,
    progress: f64,
    depth_frac: f64,
    lanes: usize,
    sample: &SampleSpec,
    seed: u64,
) -> OpTrace {
    let sched_sparsity = match op {
        TrainingOp::Forward => profile.act_at(progress, depth_frac),
        TrainingOp::InputGrad => profile.grad_at(progress, depth_frac),
        TrainingOp::WeightGrad => profile.weight_grad_at(progress, depth_frac),
    };
    let gen = ClusteredSparsity::new(sched_sparsity, profile.clustering);
    let mut rng = StdRng::seed_from_u64(seed);

    let total_windows = dims.windows(op);
    let total_rows = dims.rows_per_window(op, lanes);
    let n_windows = sample.max_windows.min(total_windows as usize);
    let rows = sample.max_rows.min(total_rows as usize);
    for i in 0..n_windows {
        arena.push_window_with(|buf| {
            gen.window_masks_into(
                &mut rng,
                seed.wrapping_mul(31).wrapping_add(i as u64),
                rows,
                lanes,
                buf,
            );
        });
    }

    let act_density = 1.0 - profile.act_at(progress, depth_frac);
    let grad_density = 1.0 - profile.grad_at(progress, depth_frac);
    let weight_density = 1.0 - profile.weight_at(progress);
    let nz = |elems: u64, density: f64| (elems as f64 * density).round() as u64;

    let volumes = match op {
        TrainingOp::Forward => TrafficVolumes {
            dense_elems: dims.w_volume(),
            dense_nonzero: nz(dims.w_volume(), weight_density),
            sched_elems: dims.a_volume(),
            sched_nonzero: nz(dims.a_volume(), act_density),
            out_elems: dims.o_volume(),
            out_nonzero: nz(dims.o_volume(), grad_density.max(act_density)),
        },
        TrainingOp::InputGrad => TrafficVolumes {
            dense_elems: dims.w_volume(),
            dense_nonzero: nz(dims.w_volume(), weight_density),
            sched_elems: dims.o_volume(),
            sched_nonzero: nz(dims.o_volume(), grad_density),
            out_elems: dims.a_volume(),
            out_nonzero: dims.a_volume(),
        },
        TrainingOp::WeightGrad => {
            let (se, sn, de, dn) =
                if profile.grad_at(progress, depth_frac) >= profile.act_at(progress, depth_frac) {
                    (
                        dims.o_volume(),
                        nz(dims.o_volume(), grad_density),
                        dims.a_volume(),
                        nz(dims.a_volume(), act_density),
                    )
                } else {
                    (
                        dims.a_volume(),
                        nz(dims.a_volume(), act_density),
                        dims.o_volume(),
                        nz(dims.o_volume(), grad_density),
                    )
                };
            TrafficVolumes {
                dense_elems: de,
                dense_nonzero: dn,
                sched_elems: se,
                sched_nonzero: sn,
                out_elems: dims.w_volume(),
                out_nonzero: dims.w_volume(),
            }
        }
    };

    OpTrace::from_arena(op, lanes, dims, total_windows, total_rows, arena, volumes)
}

/// Builds all three operation traces for every layer of `model` at training
/// progress `t`. Returns `(layer, [Forward, InputGrad, WeightGrad])` pairs.
///
/// The `3 × layers` (layer, op) builds run in parallel on
/// [`par_map`] with [`default_threads`] workers. The result is
/// byte-identical to the serial map of [`build_op_trace`] over (layer, op)
/// at any thread count, because each build draws from its own seed
/// `seed ^ layer << 8 ^ salt` and results come back in input order.
///
/// Every (layer, op) [`TraceArena`] is allocated on the calling thread and
/// the workers only fill it. Arenas allocated on the workers land in the
/// allocator's per-thread heaps, which keep freed trace memory: that
/// raised a cold model sweep's peak RSS by 17–44%.
#[must_use]
pub fn layer_traces(
    model: &ModelSpec,
    progress: f64,
    lanes: usize,
    sample: &SampleSpec,
    seed: u64,
) -> Vec<(LayerSpec, [OpTrace; 3])> {
    layer_traces_on(model, progress, lanes, sample, seed, default_threads())
}

/// [`layer_traces`] on `threads` workers.
fn layer_traces_on(
    model: &ModelSpec,
    progress: f64,
    lanes: usize,
    sample: &SampleSpec,
    seed: u64,
    threads: usize,
) -> Vec<(LayerSpec, [OpTrace; 3])> {
    const OPS: [(TrainingOp, u64); 3] = [
        (TrainingOp::Forward, 1),
        (TrainingOp::InputGrad, 2),
        (TrainingOp::WeightGrad, 3),
    ];
    let n_layers = model.layers.len().max(1);
    let items: Vec<(usize, TrainingOp, u64, TraceArena)> = (0..model.layers.len())
        .flat_map(|i| {
            let dims = model.layers[i].dims;
            OPS.map(|(op, salt)| (i, op, salt, op_arena(dims, op, lanes, sample)))
        })
        .collect();
    let built = par_map(
        items,
        threads,
        || false,
        |(i, op, salt, arena)| {
            let depth_frac = if n_layers == 1 {
                0.5
            } else {
                i as f64 / (n_layers - 1) as f64
            };
            fill_op_trace(
                arena,
                model.layers[i].dims,
                op,
                &model.profile,
                progress,
                depth_frac,
                lanes,
                sample,
                seed ^ (i as u64) << 8 ^ salt,
            )
        },
    );
    let mut traces = built
        .into_iter()
        .map(|trace| trace.expect("a build that never stops fills every slot"));
    model
        .layers
        .iter()
        .map(|layer| {
            let ops = std::array::from_fn(|_| traces.next().expect("three traces per layer"));
            (layer.clone(), ops)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Curve;

    fn profile() -> SparsityProfile {
        SparsityProfile {
            act: Curve::constant(0.6),
            grad: Curve::constant(0.7),
            weight: Curve::constant(0.0),
            clustering: 0.3,
            depth_slope: 0.0,
            wg_override: None,
        }
    }

    #[test]
    fn trace_sparsity_matches_profile() {
        let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
        let t = build_op_trace(
            dims,
            TrainingOp::Forward,
            &profile(),
            0.5,
            0.5,
            16,
            &SampleSpec::default(),
            1,
        );
        assert!(
            (t.measured_sparsity() - 0.6).abs() < 0.08,
            "{}",
            t.measured_sparsity()
        );
        let t = build_op_trace(
            dims,
            TrainingOp::InputGrad,
            &profile(),
            0.5,
            0.5,
            16,
            &SampleSpec::default(),
            2,
        );
        assert!((t.measured_sparsity() - 0.7).abs() < 0.08);
    }

    #[test]
    fn weight_grad_uses_the_sparser_tensor() {
        let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
        let t = build_op_trace(
            dims,
            TrainingOp::WeightGrad,
            &profile(),
            0.5,
            0.5,
            16,
            &SampleSpec::default(),
            3,
        );
        // grad (0.7) > act (0.6), so GO is scheduled and its volume is the
        // output volume.
        assert_eq!(t.volumes.sched_elems, dims.o_volume());
        assert!((t.measured_sparsity() - 0.7).abs() < 0.08);
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let dims = ConvDims::conv_square(2, 32, 8, 32, 3, 1, 1);
        let a = build_op_trace(
            dims,
            TrainingOp::Forward,
            &profile(),
            0.3,
            0.5,
            16,
            &SampleSpec::default(),
            9,
        );
        let b = build_op_trace(
            dims,
            TrainingOp::Forward,
            &profile(),
            0.3,
            0.5,
            16,
            &SampleSpec::default(),
            9,
        );
        assert_eq!(a, b);
    }

    /// The parallel build equals the serial map of `build_op_trace` over
    /// (layer, op) byte for byte, at the default and at 1, 2 and 8
    /// workers.
    #[test]
    fn parallel_layer_traces_equal_the_serial_build() {
        let model = crate::zoo::paper_models().remove(0);
        assert!(model.layers.len() > 1);
        let sample = SampleSpec::new(3, 24);
        let (progress, lanes, seed) = (0.45, 16, 0x7EA);
        let last = (model.layers.len() - 1) as f64;
        let serial: Vec<(LayerSpec, [OpTrace; 3])> = model
            .layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let ops = [
                    (TrainingOp::Forward, 1),
                    (TrainingOp::InputGrad, 2),
                    (TrainingOp::WeightGrad, 3),
                ]
                .map(|(op, salt)| {
                    build_op_trace(
                        layer.dims,
                        op,
                        &model.profile,
                        progress,
                        i as f64 / last,
                        lanes,
                        &sample,
                        seed ^ (i as u64) << 8 ^ salt,
                    )
                });
                (layer.clone(), ops)
            })
            .collect();
        assert!(layer_traces(&model, progress, lanes, &sample, seed) == serial);
        for threads in [1, 2, 8] {
            let parallel = layer_traces_on(&model, progress, lanes, &sample, seed, threads);
            assert!(parallel == serial, "{threads} workers diverged");
        }
    }

    #[test]
    fn pruned_weights_shrink_dense_side_nonzeros() {
        let mut p = profile();
        p.weight = Curve::constant(0.9);
        let dims = ConvDims::conv_square(2, 32, 8, 32, 3, 1, 1);
        let t = build_op_trace(
            dims,
            TrainingOp::Forward,
            &p,
            0.5,
            0.5,
            16,
            &SampleSpec::default(),
            4,
        );
        assert_eq!(
            t.volumes.dense_nonzero,
            (dims.w_volume() as f64 * 0.1).round() as u64
        );
    }
}
