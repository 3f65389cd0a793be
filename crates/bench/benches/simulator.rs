//! Criterion benchmarks of the tile and chip-level simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tensordash_core::PeGeometry;
use tensordash_sim::{Simulator, Tile, TileConfig};
use tensordash_trace::{
    ClusteredSparsity, ConvDims, SampleSpec, SparsityGen, TrainingOp, UniformSparsity,
};

fn bench_tile_group(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_run_group");
    let gen = ClusteredSparsity::new(0.6, 0.2);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    // 16 streams of 2048 masks each, back to back in one arena.
    let arena: Vec<u64> = (0..16)
        .flat_map(|i| gen.window_masks(&mut rng, i, 2048, 16))
        .collect();
    for rows in [1usize, 4, 16] {
        let tile = Tile::new(TileConfig {
            rows,
            cols: 4,
            pe: PeGeometry::paper(),
        });
        let group_arena = &arena[..rows * 2048];
        group.throughput(Throughput::Elements((rows * 2048) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(rows),
            group_arena,
            |b, group_arena| b.iter(|| tile.run_group_arena(group_arena, rows, 2048)),
        );
    }
    group.finish();
}

fn bench_simulate_op(c: &mut Criterion) {
    let sim = Simulator::paper();
    let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
    let trace = UniformSparsity::new(0.6).op_trace(
        dims,
        TrainingOp::Forward,
        16,
        &SampleSpec::new(32, 512),
        9,
    );
    c.bench_function("simulate_pair_conv_layer", |b| {
        b.iter(|| sim.simulate_pair(&trace))
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
    let gen = ClusteredSparsity::new(0.6, 0.2);
    c.bench_function("synthetic_trace_generation", |b| {
        b.iter(|| gen.op_trace(dims, TrainingOp::Forward, 16, &SampleSpec::new(32, 512), 11))
    });
}

criterion_group!(
    benches,
    bench_tile_group,
    bench_simulate_op,
    bench_trace_generation
);
criterion_main!(benches);
