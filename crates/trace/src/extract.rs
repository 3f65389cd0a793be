//! Bit-exact trace extraction from real training tensors.
//!
//! Given the tensors that participate in a layer's training step — input
//! activations `A`, weights `W`, output gradients `GO` — these functions
//! build the scheduled-side operand streams exactly as the accelerator's
//! memory system would feed them to the PEs (§3.4's 16-along-channel layout,
//! with padding and stride-dilation zeros appearing as genuine zero slots).
//!
//! # The bit-packed fast path
//!
//! [`extract_op_trace`] never reads tensor values while assembling windows.
//! It first builds one **non-zero bitmap** per participating tensor — a
//! `u64`-word bitset, one bit per element, laid out so that the lanes of a
//! window row are *contiguous bits* — in a single pass over the tensor.
//! Every window's lane masks are then gathered from the bitmap with one or
//! two word reads plus a shift (`get_bits`), so overlapping convolution
//! windows stop re-touching the same `f32` elements: an element is
//! inspected once when the bitmap is built, no matter how many windows
//! cover it. The original per-element extraction survives as
//! [`extract_op_trace_reference`] — the golden model the equivalence
//! property tests and the extraction microbenchmarks compare against.

use crate::dims::{ConvDims, TrainingOp};
use crate::stream::{lane_mask, OpTrace, SampleSpec, TraceArena, TrafficVolumes};
use tensordash_tensor::Tensor;

/// The tensors of one layer's training step.
#[derive(Debug, Clone, Copy)]
pub struct LayerTensors<'a> {
    /// Layer geometry.
    pub dims: ConvDims,
    /// Input activations `[N, C, H, W]`.
    pub activations: &'a Tensor,
    /// Weights `[F, C, Kh, Kw]`.
    pub weights: &'a Tensor,
    /// Output gradients `[N, F, Ho, Wo]`.
    pub grad_out: &'a Tensor,
    /// Non-zero count of the layer's *output* activations (post
    /// activation-function), if known — drives output-compression traffic.
    pub output_nonzero: Option<u64>,
}

impl<'a> LayerTensors<'a> {
    /// Validates tensor shapes against the layer geometry.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on any mismatch.
    pub fn validate(&self) {
        let d = &self.dims;
        let (ho, wo) = d.output_hw();
        assert_eq!(
            self.activations.shape(),
            &[d.n, d.c, d.h, d.w],
            "activation shape does not match dims {d}"
        );
        assert_eq!(
            self.weights.shape(),
            &[d.f, d.c, d.kh, d.kw],
            "weight shape does not match dims {d}"
        );
        assert_eq!(
            self.grad_out.shape(),
            &[d.n, d.f, ho, wo],
            "grad_out shape does not match dims {d}"
        );
    }
}

/// The windows a [`SampleSpec`] selects out of `total_windows`, as
/// contiguous runs of `block` adjacent windows (adjacent windows are what a
/// tile's rows actually co-process), runs evenly spaced across the full
/// index space.
///
/// All returned indices are **distinct** and strictly increasing: the runs
/// are spaced by distributing the unsampled slack between them, so a small
/// `total_windows` can no longer make runs overlap and silently duplicate
/// (or clamp-duplicate) windows, which would double-count their cycles.
#[must_use]
pub fn sampled_window_indices(total_windows: u64, sample: &SampleSpec) -> Vec<u64> {
    let n = sample.max_windows.min(total_windows as usize);
    let block = sample.block.min(n).max(1);
    let blocks = n.div_ceil(block) as u64;
    let slack = total_windows - n as u64;
    (0..n)
        .map(|i| {
            let run = (i / block) as u64;
            let offset = (i % block) as u64;
            run * block as u64 + (slack * run) / blocks + offset
        })
        .collect()
}

/// Extracts the scheduled-side operand-stream trace for `op` through the
/// bit-packed fast path (see the module docs).
///
/// The scheduled side follows the paper's §2 choices: activations for the
/// forward pass, output gradients for the input-gradient pass, and for the
/// weight-gradient pass whichever of `GO`/`A` is sparser. The result is
/// bit-identical to [`extract_op_trace_reference`].
///
/// # Panics
///
/// Panics if the tensor shapes do not match `tensors.dims`.
#[must_use]
pub fn extract_op_trace(
    tensors: &LayerTensors<'_>,
    op: TrainingOp,
    lanes: usize,
    sample: &SampleSpec,
) -> OpTrace {
    extract_impl(tensors, op, lanes, sample, false)
}

/// The original per-element extraction: every window mask is assembled by
/// reading each covered `f32` individually. Kept as the golden model for
/// [`extract_op_trace`]'s equivalence tests and as the baseline of the
/// extraction microbenchmarks.
///
/// # Panics
///
/// Panics if the tensor shapes do not match `tensors.dims`.
#[must_use]
pub fn extract_op_trace_reference(
    tensors: &LayerTensors<'_>,
    op: TrainingOp,
    lanes: usize,
    sample: &SampleSpec,
) -> OpTrace {
    extract_impl(tensors, op, lanes, sample, true)
}

fn extract_impl(
    tensors: &LayerTensors<'_>,
    op: TrainingOp,
    lanes: usize,
    sample: &SampleSpec,
    reference: bool,
) -> OpTrace {
    tensors.validate();
    let d = tensors.dims;
    let volumes = traffic_volumes(tensors, op);
    let total_windows = d.windows(op);
    let total_rows = d.rows_per_window(op, lanes);
    let indices = sampled_window_indices(total_windows, sample);
    let cap = sample.max_rows.min(total_rows as usize);
    let mut arena = TraceArena::with_capacity(indices.len(), cap);

    if reference {
        for &widx in &indices {
            let masks = match op {
                TrainingOp::Forward => forward_window(tensors, widx, lanes),
                TrainingOp::InputGrad => input_grad_window(tensors, widx, lanes),
                TrainingOp::WeightGrad => weight_grad_window(tensors, widx, lanes),
            };
            let cap = sample.max_rows.min(masks.len());
            arena.push_window_with(|buf| buf.extend_from_slice(&masks[..cap]));
        }
    } else {
        extract_bitmapped(tensors, op, lanes, sample, &indices, &mut arena);
    }

    OpTrace::from_arena(op, lanes, d, total_windows, total_rows, arena, volumes)
}

fn traffic_volumes(tensors: &LayerTensors<'_>, op: TrainingOp) -> TrafficVolumes {
    let d = tensors.dims;
    let a_nz = tensors.activations.nonzeros() as u64;
    let w_nz = tensors.weights.nonzeros() as u64;
    let g_nz = tensors.grad_out.nonzeros() as u64;
    match op {
        TrainingOp::Forward => TrafficVolumes {
            dense_elems: d.w_volume(),
            dense_nonzero: w_nz,
            sched_elems: d.a_volume(),
            sched_nonzero: a_nz,
            out_elems: d.o_volume(),
            out_nonzero: tensors.output_nonzero.unwrap_or_else(|| d.o_volume()),
        },
        TrainingOp::InputGrad => TrafficVolumes {
            dense_elems: d.w_volume(),
            dense_nonzero: w_nz,
            sched_elems: d.o_volume(),
            sched_nonzero: g_nz,
            out_elems: d.a_volume(),
            // Input gradients pass through the activation function's
            // derivative next, but as produced here they are dense-ish;
            // without the next layer's mask assume dense.
            out_nonzero: d.a_volume(),
        },
        TrainingOp::WeightGrad => {
            let go_sparsity = 1.0 - g_nz as f64 / d.o_volume() as f64;
            let a_sparsity = 1.0 - a_nz as f64 / d.a_volume() as f64;
            let (sched_elems, sched_nonzero, dense_elems, dense_nonzero) =
                if go_sparsity >= a_sparsity {
                    (d.o_volume(), g_nz, d.a_volume(), a_nz)
                } else {
                    (d.a_volume(), a_nz, d.o_volume(), g_nz)
                };
            TrafficVolumes {
                dense_elems,
                dense_nonzero,
                sched_elems,
                sched_nonzero,
                out_elems: d.w_volume(),
                out_nonzero: d.w_volume(),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-level plumbing: bitmap builders and word gathers.
// ---------------------------------------------------------------------------

/// Reads `count <= 64` bits starting at bit `start` as one little-endian
/// word: at most two word loads, a shift, and a mask.
#[inline]
fn get_bits(words: &[u64], start: usize, count: usize) -> u64 {
    debug_assert!(count <= 64);
    let word = start / 64;
    let shift = (start % 64) as u32;
    let lo = words[word] >> shift;
    let hi = if shift > 0 && word + 1 < words.len() {
        words[word + 1] << (64 - shift)
    } else {
        0
    };
    (lo | hi) & lane_mask(count)
}

/// Reads a single bit.
#[inline]
fn get_bit(words: &[u64], index: usize) -> bool {
    words[index / 64] >> (index % 64) & 1 != 0
}

/// Sets `count <= 64` bits starting at `dst_start` from the low bits of
/// `value` (destination bits are assumed clear).
#[inline]
fn set_bits(words: &mut [u64], dst_start: usize, count: usize, value: u64) {
    debug_assert!(count <= 64);
    let value = value & lane_mask(count);
    let word = dst_start / 64;
    let shift = (dst_start % 64) as u32;
    words[word] |= value << shift;
    if shift > 0 && count as u32 > 64 - shift {
        words[word + 1] |= value >> (64 - shift);
    }
}

/// Copies `len` bits between bitsets, 64 at a time.
fn copy_bits(dst: &mut [u64], dst_start: usize, src: &[u64], src_start: usize, len: usize) {
    let mut done = 0;
    while done < len {
        let chunk = (len - done).min(64);
        let bits = get_bits(src, src_start + done, chunk);
        set_bits(dst, dst_start + done, chunk, bits);
        done += chunk;
    }
}

/// Builds the channel-minor bitmap of an NCHW tensor: bit
/// `((n·H + y)·W + x)·CH + c` is set iff element `(n, c, y, x)` is
/// non-zero. A pixel's channels are contiguous bits, so a `lanes`-wide
/// channel block is one [`get_bits`] gather.
fn bitmap_channel_minor(data: &[f32], n: usize, ch: usize, h: usize, w: usize) -> Vec<u64> {
    let mut words = vec![0u64; (n * ch * h * w).div_ceil(64)];
    let mut i = 0;
    for nn in 0..n {
        for c in 0..ch {
            let base = (nn * h * w) * ch + c;
            for pix in 0..h * w {
                // Branchless: at trace-worthy densities a zero-test branch
                // is a coin flip, and the mispredictions dominate the pass.
                let bit = base + pix * ch;
                words[bit / 64] |= u64::from(data[i] != 0.0) << (bit % 64);
                i += 1;
            }
        }
    }
    words
}

/// Builds the channel-major bitmap of an NCHW tensor: bit
/// `((c·N + n)·H + y)·W + x` is set iff element `(n, c, y, x)` is
/// non-zero. One channel's full spatial map (across the batch) is a
/// contiguous bit run — what the weight-gradient streams walk.
fn bitmap_channel_major(data: &[f32], n: usize, ch: usize, h: usize, w: usize) -> Vec<u64> {
    let plane = h * w;
    let mut words = vec![0u64; (n * ch * plane).div_ceil(64)];
    let mut i = 0;
    for nn in 0..n {
        for c in 0..ch {
            let base = (c * n + nn) * plane;
            for pix in 0..plane {
                let bit = base + pix;
                words[bit / 64] |= u64::from(data[i] != 0.0) << (bit % 64);
                i += 1;
            }
        }
    }
    words
}

/// Assembles every sampled window of `op` from tensor bitmaps into the
/// arena. Bit-identical to the per-element reference path.
fn extract_bitmapped(
    tensors: &LayerTensors<'_>,
    op: TrainingOp,
    lanes: usize,
    sample: &SampleSpec,
    indices: &[u64],
    arena: &mut TraceArena,
) {
    let d = tensors.dims;
    let (ho, wo) = d.output_hw();
    match op {
        TrainingOp::Forward => {
            let bm = bitmap_channel_minor(tensors.activations.data(), d.n, d.c, d.h, d.w);
            let cblocks = d.c.div_ceil(lanes);
            let cap = sample.max_rows.min(d.kh * d.kw * cblocks);
            for &widx in indices {
                let widx = widx as usize;
                let n = widx / (ho * wo);
                let oy = (widx / wo) % ho;
                let ox = widx % wo;
                arena.push_window_with(|buf| {
                    let mut pushed = 0;
                    'taps: for ky in 0..d.kh {
                        let iy = (oy * d.stride + ky) as isize - d.padding as isize;
                        for kx in 0..d.kw {
                            let ix = (ox * d.stride + kx) as isize - d.padding as isize;
                            let pixel =
                                (iy >= 0 && iy < d.h as isize && ix >= 0 && ix < d.w as isize)
                                    .then(|| (n * d.h + iy as usize) * d.w + ix as usize);
                            for cb in 0..cblocks {
                                if pushed == cap {
                                    break 'taps;
                                }
                                let width = lanes.min(d.c - cb * lanes);
                                let mask =
                                    pixel.map_or(0, |p| get_bits(&bm, p * d.c + cb * lanes, width));
                                buf.push(mask);
                                pushed += 1;
                            }
                        }
                    }
                });
            }
        }
        TrainingOp::InputGrad => {
            let bm = bitmap_channel_minor(tensors.grad_out.data(), d.n, d.f, ho, wo);
            let fblocks = d.f.div_ceil(lanes);
            let cap = sample.max_rows.min(d.kh * d.kw * fblocks);
            for &widx in indices {
                let widx = widx as usize;
                let n = widx / (d.h * d.w);
                let y = (widx / d.w) % d.h;
                let x = widx % d.w;
                arena.push_window_with(|buf| {
                    let mut pushed = 0;
                    'taps: for ky in 0..d.kh {
                        let oy_num = y as isize + d.padding as isize - ky as isize;
                        let oy_valid = oy_num >= 0
                            && oy_num % d.stride as isize == 0
                            && (oy_num / d.stride as isize) < ho as isize;
                        for kx in 0..d.kw {
                            let ox_num = x as isize + d.padding as isize - kx as isize;
                            let ox_valid = ox_num >= 0
                                && ox_num % d.stride as isize == 0
                                && (ox_num / d.stride as isize) < wo as isize;
                            let pixel = if oy_valid && ox_valid {
                                let oy = (oy_num / d.stride as isize) as usize;
                                let ox = (ox_num / d.stride as isize) as usize;
                                Some((n * ho + oy) * wo + ox)
                            } else {
                                None
                            };
                            for fb in 0..fblocks {
                                if pushed == cap {
                                    break 'taps;
                                }
                                let width = lanes.min(d.f - fb * lanes);
                                let mask =
                                    pixel.map_or(0, |p| get_bits(&bm, p * d.f + fb * lanes, width));
                                buf.push(mask);
                                pushed += 1;
                            }
                        }
                    }
                });
            }
        }
        TrainingOp::WeightGrad => {
            extract_weight_grad_bitmapped(tensors, lanes, sample, indices, arena);
        }
    }
}

/// Weight-gradient assembly: the scheduled side is `GO` or `A`, whichever
/// is sparser (§2). Both sides walk a `reduction = N·Ho·Wo`-bit stream per
/// window; for `GO` that stream is a contiguous run of the channel-major
/// bitmap, for `A` it is spliced from per-output-row runs (contiguous word
/// copies at stride 1, single-bit gathers otherwise).
fn extract_weight_grad_bitmapped(
    tensors: &LayerTensors<'_>,
    lanes: usize,
    sample: &SampleSpec,
    indices: &[u64],
    arena: &mut TraceArena,
) {
    let d = tensors.dims;
    let (ho, wo) = d.output_hw();
    let reduction = d.n * ho * wo;
    let rows = reduction.div_ceil(lanes);
    let cap = sample.max_rows.min(rows);

    let g_nz = tensors.grad_out.nonzeros() as f64 / d.o_volume() as f64;
    let a_nz = tensors.activations.nonzeros() as f64 / d.a_volume() as f64;

    if g_nz <= a_nz {
        // GO is sparser: stream filter widx's gradient map — a contiguous
        // `reduction`-bit run of the f-major bitmap.
        let bm = bitmap_channel_major(tensors.grad_out.data(), d.n, d.f, ho, wo);
        for &widx in indices {
            let f = widx as usize % d.f;
            arena.push_window_with(|buf| {
                for r in 0..cap {
                    let width = lanes.min(reduction - r * lanes);
                    buf.push(get_bits(&bm, f * reduction + r * lanes, width));
                }
            });
        }
    } else {
        // A is sparser: stream the shifted activation positions of one
        // (c, ky, kx). Splice each output row's valid span out of the
        // c-major bitmap into a scratch stream bitset, then chop it into
        // lane masks.
        let bm = bitmap_channel_major(tensors.activations.data(), d.n, d.c, d.h, d.w);
        let combos = d.c * d.kh * d.kw;
        let mut stream = vec![0u64; reduction.div_ceil(64)];
        for &widx in indices {
            let combo = widx as usize % combos;
            let c = combo / (d.kh * d.kw);
            let ky = (combo / d.kw) % d.kh;
            let kx = combo % d.kw;
            stream.iter_mut().for_each(|w| *w = 0);
            // Valid ox range: 0 <= ox*stride + kx - padding < w.
            let lo_num = d.padding as isize - kx as isize;
            let ox_lo = if lo_num <= 0 {
                0
            } else {
                (lo_num as usize).div_ceil(d.stride)
            };
            let hi_num = d.w as isize - 1 + d.padding as isize - kx as isize;
            let ox_hi = if hi_num < 0 {
                None
            } else {
                Some((hi_num as usize / d.stride).min(wo - 1))
            };
            if let Some(ox_hi) = ox_hi {
                if ox_lo <= ox_hi {
                    for n in 0..d.n {
                        for oy in 0..ho {
                            let iy = (oy * d.stride + ky) as isize - d.padding as isize;
                            if iy < 0 || iy >= d.h as isize {
                                continue;
                            }
                            let row = ((c * d.n + n) * d.h + iy as usize) * d.w;
                            let dst = (n * ho + oy) * wo + ox_lo;
                            if d.stride == 1 {
                                let ix0 =
                                    (ox_lo as isize + kx as isize - d.padding as isize) as usize;
                                copy_bits(&mut stream, dst, &bm, row + ix0, ox_hi - ox_lo + 1);
                            } else {
                                for (slot, ox) in (ox_lo..=ox_hi).enumerate() {
                                    let ix = (ox * d.stride + kx) as isize - d.padding as isize;
                                    if get_bit(&bm, row + ix as usize) {
                                        stream[(dst + slot) / 64] |= 1 << ((dst + slot) % 64);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            arena.push_window_with(|buf| {
                for r in 0..cap {
                    let width = lanes.min(reduction - r * lanes);
                    buf.push(get_bits(&stream, r * lanes, width));
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// The per-element reference path (the golden model).
// ---------------------------------------------------------------------------

/// Forward pass, window `widx` = flattened (n, oy, ox): stream the
/// activation window in (ky, kx, channel-block) order.
fn forward_window(tensors: &LayerTensors<'_>, widx: u64, lanes: usize) -> Vec<u64> {
    let d = tensors.dims;
    let (ho, wo) = d.output_hw();
    let widx = widx as usize;
    let n = widx / (ho * wo);
    let oy = (widx / wo) % ho;
    let ox = widx % wo;
    let a = tensors.activations.data();
    let cblocks = d.c.div_ceil(lanes);
    let mut masks = Vec::with_capacity(d.kh * d.kw * cblocks);
    for ky in 0..d.kh {
        let iy = (oy * d.stride + ky) as isize - d.padding as isize;
        for kx in 0..d.kw {
            let ix = (ox * d.stride + kx) as isize - d.padding as isize;
            let in_bounds = iy >= 0 && iy < d.h as isize && ix >= 0 && ix < d.w as isize;
            for cb in 0..cblocks {
                let mut mask = 0u64;
                if in_bounds {
                    for l in 0..lanes.min(d.c - cb * lanes) {
                        let c = cb * lanes + l;
                        let idx = ((n * d.c + c) * d.h + iy as usize) * d.w + ix as usize;
                        if a[idx] != 0.0 {
                            mask |= 1 << l;
                        }
                    }
                }
                masks.push(mask);
            }
        }
    }
    masks
}

/// Input-gradient pass, window `widx` = flattened input position (n, y, x):
/// stream the (stride-dilated) output gradients in (ky, kx, filter-block)
/// order. Positions that fall between strides contribute structural zeros.
fn input_grad_window(tensors: &LayerTensors<'_>, widx: u64, lanes: usize) -> Vec<u64> {
    let d = tensors.dims;
    let (ho, wo) = d.output_hw();
    let widx = widx as usize;
    let n = widx / (d.h * d.w);
    let y = (widx / d.w) % d.h;
    let x = widx % d.w;
    let go = tensors.grad_out.data();
    let fblocks = d.f.div_ceil(lanes);
    let mut masks = Vec::with_capacity(d.kh * d.kw * fblocks);
    for ky in 0..d.kh {
        let oy_num = y as isize + d.padding as isize - ky as isize;
        let oy_valid = oy_num >= 0
            && oy_num % d.stride as isize == 0
            && (oy_num / d.stride as isize) < ho as isize;
        for kx in 0..d.kw {
            let ox_num = x as isize + d.padding as isize - kx as isize;
            let ox_valid = ox_num >= 0
                && ox_num % d.stride as isize == 0
                && (ox_num / d.stride as isize) < wo as isize;
            for fb in 0..fblocks {
                let mut mask = 0u64;
                if oy_valid && ox_valid {
                    let oy = (oy_num / d.stride as isize) as usize;
                    let ox = (ox_num / d.stride as isize) as usize;
                    for l in 0..lanes.min(d.f - fb * lanes) {
                        let f = fb * lanes + l;
                        let idx = ((n * d.f + f) * ho + oy) * wo + ox;
                        if go[idx] != 0.0 {
                            mask |= 1 << l;
                        }
                    }
                }
                masks.push(mask);
            }
        }
    }
    masks
}

/// Weight-gradient pass, window `widx`: the scheduled side is `GO` or `A`,
/// whichever is sparser (§2). For `GO`, windows are filters and the stream
/// walks the gradient map over (n, oy, ox) in `lanes`-wide chunks; for `A`,
/// windows are (c, ky, kx) triples and the stream walks the corresponding
/// shifted activation positions.
fn weight_grad_window(tensors: &LayerTensors<'_>, widx: u64, lanes: usize) -> Vec<u64> {
    let d = tensors.dims;
    let (ho, wo) = d.output_hw();
    let go = tensors.grad_out.data();
    let a = tensors.activations.data();
    let reduction = d.n * ho * wo;
    let rows = reduction.div_ceil(lanes);

    let g_nz = tensors.grad_out.nonzeros() as f64 / d.o_volume() as f64;
    let a_nz = tensors.activations.nonzeros() as f64 / d.a_volume() as f64;
    let mut masks = Vec::with_capacity(rows);
    if g_nz <= a_nz {
        // GO is sparser: stream filter widx's gradient map.
        let f = widx as usize % d.f;
        for r in 0..rows {
            let mut mask = 0u64;
            for l in 0..lanes.min(reduction - r * lanes) {
                let pos = r * lanes + l;
                let n = pos / (ho * wo);
                let oy = (pos / wo) % ho;
                let ox = pos % wo;
                let idx = ((n * d.f + f) * ho + oy) * wo + ox;
                if go[idx] != 0.0 {
                    mask |= 1 << l;
                }
            }
            masks.push(mask);
        }
    } else {
        // A is sparser: stream the activation positions of one (c, ky, kx).
        let combos = d.c * d.kh * d.kw;
        let combo = widx as usize % combos;
        let c = combo / (d.kh * d.kw);
        let ky = (combo / d.kw) % d.kh;
        let kx = combo % d.kw;
        for r in 0..rows {
            let mut mask = 0u64;
            for l in 0..lanes.min(reduction - r * lanes) {
                let pos = r * lanes + l;
                let n = pos / (ho * wo);
                let oy = (pos / wo) % ho;
                let ox = pos % wo;
                let iy = (oy * d.stride + ky) as isize - d.padding as isize;
                let ix = (ox * d.stride + kx) as isize - d.padding as isize;
                if iy >= 0 && iy < d.h as isize && ix >= 0 && ix < d.w as isize {
                    let idx = ((n * d.c + c) * d.h + iy as usize) * d.w + ix as usize;
                    if a[idx] != 0.0 {
                        mask |= 1 << l;
                    }
                }
            }
            masks.push(mask);
        }
    }
    masks
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn layer(seed: u64, density_a: f64, density_g: f64) -> (ConvDims, Tensor, Tensor, Tensor) {
        let d = ConvDims::conv_square(2, 20, 6, 8, 3, 1, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sparse_tensor = |dims: &[usize], density: f64| {
            Tensor::from_fn(dims, |_| {
                if rng.gen_bool(density) {
                    rng.gen_range(0.1f32..1.0)
                } else {
                    0.0
                }
            })
        };
        let (ho, wo) = d.output_hw();
        let a = sparse_tensor(&[d.n, d.c, d.h, d.w], density_a);
        let w = sparse_tensor(&[d.f, d.c, d.kh, d.kw], 1.0);
        let g = sparse_tensor(&[d.n, d.f, ho, wo], density_g);
        (d, a, w, g)
    }

    fn tensors<'a>(d: ConvDims, a: &'a Tensor, w: &'a Tensor, g: &'a Tensor) -> LayerTensors<'a> {
        LayerTensors {
            dims: d,
            activations: a,
            weights: w,
            grad_out: g,
            output_nonzero: None,
        }
    }

    #[test]
    fn forward_trace_has_expected_geometry() {
        let (d, a, w, g) = layer(1, 0.5, 0.5);
        let lt = tensors(d, &a, &w, &g);
        let t = extract_op_trace(&lt, TrainingOp::Forward, 16, &SampleSpec::default());
        assert_eq!(t.total_windows, 2 * 6 * 6);
        // kh*kw*ceil(20/16) = 9 * 2 = 18 rows per window.
        assert_eq!(t.total_rows_per_window, 18);
        assert_eq!(t.num_windows(), 64);
        for w in t.windows() {
            assert_eq!(w.masks.len(), 18);
        }
    }

    #[test]
    fn forward_trace_sparsity_tracks_tensor_sparsity() {
        let (d, a, w, g) = layer(2, 0.3, 1.0);
        let lt = tensors(d, &a, &w, &g);
        let t = extract_op_trace(&lt, TrainingOp::Forward, 16, &SampleSpec::default());
        // Stream sparsity >= tensor sparsity (padding + lane rounding add
        // structural zeros on top of the ~70% value zeros).
        let tensor_sparsity = 1.0 - a.nonzeros() as f64 / a.len() as f64;
        assert!(t.measured_sparsity() >= tensor_sparsity - 0.02);
        assert!(t.measured_sparsity() <= tensor_sparsity + 0.25);
    }

    #[test]
    fn dense_activations_give_dense_interior_windows() {
        let d = ConvDims::conv_square(1, 16, 6, 4, 3, 1, 0); // no padding
        let a = Tensor::full(&[1, 16, 6, 6], 1.0);
        let w = Tensor::full(&[4, 16, 3, 3], 1.0);
        let g = Tensor::full(&[1, 4, 4, 4], 1.0);
        let lt = tensors(d, &a, &w, &g);
        let t = extract_op_trace(&lt, TrainingOp::Forward, 16, &SampleSpec::default());
        assert_eq!(t.measured_sparsity(), 0.0);
    }

    #[test]
    fn padding_produces_structural_zero_rows() {
        let d = ConvDims::conv_square(1, 16, 4, 4, 3, 1, 1);
        let a = Tensor::full(&[1, 16, 4, 4], 1.0);
        let w = Tensor::full(&[4, 16, 3, 3], 1.0);
        let g = Tensor::full(&[1, 4, 4, 4], 1.0);
        let lt = tensors(d, &a, &w, &g);
        let t = extract_op_trace(&lt, TrainingOp::Forward, 16, &SampleSpec::default());
        // Corner window (0,0) has 3 of 9 taps in-bounds... window 0 is the
        // first sampled: oy=0, ox=0 → taps with iy<0 or ix<0 are zero rows.
        let corner = t.window(0);
        let zero_rows = corner.masks.iter().filter(|m| **m == 0).count();
        assert_eq!(zero_rows, 5, "corner window must have 5 padded taps");
    }

    #[test]
    fn input_grad_stride_dilation_zeroes_misaligned_rows() {
        let d = ConvDims::conv_square(1, 16, 8, 16, 2, 2, 0);
        let a = Tensor::full(&[1, 16, 8, 8], 1.0);
        let w = Tensor::full(&[16, 16, 2, 2], 1.0);
        let g = Tensor::full(&[1, 16, 4, 4], 1.0);
        let lt = tensors(d, &a, &w, &g);
        let t = extract_op_trace(&lt, TrainingOp::InputGrad, 16, &SampleSpec::default());
        // With stride 2 and 2x2 kernels every input position aligns with
        // exactly one (ky, kx) tap: 3 of 4 rows per window are structurally
        // zero, so sparsity is 75% even though GO is fully dense.
        assert!((t.measured_sparsity() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn weight_grad_picks_the_sparser_side() {
        // GO sparse, A dense -> scheduled side must be GO's sparsity.
        let (d, a, w, g) = layer(3, 1.0, 0.2);
        let lt = tensors(d, &a, &w, &g);
        let t = extract_op_trace(&lt, TrainingOp::WeightGrad, 16, &SampleSpec::default());
        assert!(t.measured_sparsity() > 0.6);

        // A sparse, GO dense -> scheduled side must be A.
        let (d2, a2, w2, g2) = layer(4, 0.2, 1.0);
        let lt2 = tensors(d2, &a2, &w2, &g2);
        let t2 = extract_op_trace(&lt2, TrainingOp::WeightGrad, 16, &SampleSpec::default());
        assert!(t2.measured_sparsity() > 0.5);
    }

    #[test]
    fn fully_connected_traces_work() {
        let d = ConvDims::fully_connected(8, 64, 32);
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::from_fn(
            &[8, 64, 1, 1],
            |_| {
                if rng.gen_bool(0.5) {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let w = Tensor::full(&[32, 64, 1, 1], 1.0);
        let g = Tensor::full(&[8, 32, 1, 1], 1.0);
        let lt = tensors(d, &a, &w, &g);
        let t = extract_op_trace(&lt, TrainingOp::Forward, 16, &SampleSpec::default());
        assert_eq!(t.total_windows, 8);
        assert_eq!(t.total_rows_per_window, 4);
        assert!((t.measured_sparsity() - 0.5).abs() < 0.1);
    }

    #[test]
    fn volumes_count_real_nonzeros() {
        let (d, a, w, g) = layer(6, 0.4, 0.6);
        let lt = tensors(d, &a, &w, &g);
        let t = extract_op_trace(&lt, TrainingOp::Forward, 16, &SampleSpec::default());
        assert_eq!(t.volumes.sched_elems, d.a_volume());
        assert_eq!(t.volumes.sched_nonzero, a.nonzeros() as u64);
        assert_eq!(t.volumes.dense_elems, d.w_volume());
    }

    #[test]
    fn row_cap_truncates_streams() {
        let (d, a, w, g) = layer(7, 0.5, 0.5);
        let lt = tensors(d, &a, &w, &g);
        let t = extract_op_trace(&lt, TrainingOp::Forward, 16, &SampleSpec::new(4, 5));
        assert_eq!(t.num_windows(), 4);
        assert_eq!(t.window_masks(0).len(), 5);
        assert!((t.row_scale() - 18.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_indices_are_distinct_and_in_range() {
        // Small total with a block that does not divide it evenly used to
        // produce overlapping runs (and clamp-duplicated last windows).
        for (total, max_windows, block) in [
            (5u64, 5, 2),
            (10, 8, 3),
            (100, 64, 16),
            (17, 16, 16),
            (3, 64, 16),
        ] {
            let spec = SampleSpec::new(max_windows, 64).with_block(block);
            let indices = sampled_window_indices(total, &spec);
            assert_eq!(indices.len(), max_windows.min(total as usize));
            for pair in indices.windows(2) {
                assert!(pair[0] < pair[1], "duplicate/unsorted in {indices:?}");
            }
            assert!(*indices.last().unwrap() < total);
        }
    }

    #[test]
    fn small_window_counts_are_not_duplicated() {
        // total_windows = 5 < block: every window sampled exactly once.
        let d = ConvDims::fully_connected(5, 32, 16);
        let a = Tensor::full(&[5, 32, 1, 1], 1.0);
        let w = Tensor::full(&[16, 32, 1, 1], 1.0);
        let g = Tensor::full(&[5, 16, 1, 1], 1.0);
        let lt = tensors(d, &a, &w, &g);
        let spec = SampleSpec::new(64, 64).with_block(2);
        let t = extract_op_trace(&lt, TrainingOp::Forward, 16, &spec);
        assert_eq!(t.num_windows(), 5);
        assert!((t.window_scale() - 1.0).abs() < 1e-12);
    }

    /// The bitmap fast path must agree bit for bit with the per-element
    /// reference across ops and geometries (the heavier randomized sweep
    /// lives in `tests/properties.rs`).
    #[test]
    fn bitmap_extraction_matches_reference() {
        let geometries = [
            ConvDims::conv_square(2, 20, 6, 8, 3, 1, 1),
            ConvDims::conv_square(1, 16, 9, 4, 3, 2, 1),
            ConvDims::conv_square(2, 7, 5, 3, 2, 1, 0),
            ConvDims::fully_connected(6, 33, 10),
        ];
        for (gi, d) in geometries.into_iter().enumerate() {
            for (da, dg) in [(0.3, 0.9), (0.9, 0.2), (0.5, 0.5)] {
                let mut rng = StdRng::seed_from_u64(77 + gi as u64);
                let mut sparse = |dims: &[usize], density: f64| {
                    Tensor::from_fn(dims, |_| {
                        if rng.gen_bool(density) {
                            rng.gen_range(0.1f32..1.0)
                        } else {
                            0.0
                        }
                    })
                };
                let (ho, wo) = d.output_hw();
                let a = sparse(&[d.n, d.c, d.h, d.w], da);
                let w = sparse(&[d.f, d.c, d.kh, d.kw], 1.0);
                let g = sparse(&[d.n, d.f, ho, wo], dg);
                let lt = tensors(d, &a, &w, &g);
                for op in TrainingOp::ALL {
                    for lanes in [8usize, 16] {
                        let spec = SampleSpec::new(32, 64);
                        let fast = extract_op_trace(&lt, op, lanes, &spec);
                        let slow = extract_op_trace_reference(&lt, op, lanes, &spec);
                        assert_eq!(fast, slow, "{d} {op:?} lanes {lanes} diverged");
                    }
                }
            }
        }
    }
}
