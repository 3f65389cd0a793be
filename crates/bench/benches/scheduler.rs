//! Criterion micro-benchmarks of the hardware-scheduler model — the hot
//! loop of the whole repository — including the DESIGN.md §5 ablation of
//! lookaside priority order.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{rngs::StdRng, Rng, SeedableRng};
use tensordash_core::{Connectivity, ConnectivitySpec, OracleScheduler, PeGeometry, Scheduler};

fn masks(seed: u64, rows: usize, density: f64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| {
            let mut m = 0u64;
            for lane in 0..16 {
                if rng.gen_bool(density) {
                    m |= 1 << lane;
                }
            }
            m
        })
        .collect()
}

fn bench_scheduler_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_run_masks");
    let scheduler = Scheduler::paper(PeGeometry::paper());
    for density in [0.1, 0.5, 0.9] {
        let stream = masks(42, 4096, density);
        group.throughput(Throughput::Elements(stream.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("density_{density}")),
            &stream,
            |b, stream| b.iter(|| scheduler.run_masks(stream.iter().copied())),
        );
    }
    group.finish();
}

fn bench_batched_vs_reference_kernel(c: &mut Criterion) {
    // The tentpole comparison: the word-parallel batched kernel against the
    // scalar per-lane/per-option reference search, stepping the same
    // pre-generated staging windows.
    let scheduler = Scheduler::paper(PeGeometry::paper());
    let mut rng = StdRng::seed_from_u64(3);
    for density in [0.1, 0.35, 0.6, 0.9] {
        let windows: Vec<[u64; 4]> = (0..512)
            .map(|_| {
                let mut z = [0u64; 4];
                for row in z.iter_mut().take(3) {
                    let mut m = 0u64;
                    for lane in 0..16 {
                        if rng.gen_bool(density) {
                            m |= 1 << lane;
                        }
                    }
                    *row = m;
                }
                z
            })
            .collect();
        let mut group = c.benchmark_group(format!("step_kernel/density_{density}"));
        group.throughput(Throughput::Elements(windows.len() as u64));
        group.bench_function("batched", |b| {
            b.iter(|| {
                let mut total = 0u64;
                for w in &windows {
                    let mut z = *w;
                    total += scheduler.step_masks(&mut z).macs as u64;
                }
                total
            })
        });
        group.bench_function("reference", |b| {
            b.iter(|| {
                let mut total = 0u64;
                for w in &windows {
                    let mut z = *w;
                    total += scheduler.step_masks_reference(&mut z).macs as u64;
                }
                total
            })
        });
        group.finish();
    }
}

fn bench_group_run_vs_reference_engines(c: &mut Criterion) {
    // Whole tile row-groups: one `run_masks_arena` call vs the golden
    // model (the old per-step RowEngine dispatch loop, kept canonical in
    // `Scheduler::run_masks_batched_reference`).
    let scheduler = Scheduler::paper(PeGeometry::paper());
    let streams: Vec<Vec<u64>> = (0..4).map(|i| masks(60 + i, 4096, 0.4)).collect();
    let arena = streams.concat();
    let refs: Vec<&[u64]> = streams.iter().map(Vec::as_slice).collect();
    let mut group = c.benchmark_group("group_run");
    group.throughput(Throughput::Elements((4 * 4096) as u64));
    group.bench_function("batched", |b| {
        b.iter(|| scheduler.run_masks_arena(&arena, 4096))
    });
    group.bench_function("reference_engines", |b| {
        b.iter(|| scheduler.run_masks_batched_reference(&refs))
    });
    group.finish();
}

fn bench_hierarchical_vs_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_vs_oracle");
    let stream = masks(7, 512, 0.5);
    let scheduler = Scheduler::paper(PeGeometry::paper());
    let oracle = OracleScheduler::paper(PeGeometry::paper());
    group.bench_function("hierarchical", |b| {
        b.iter(|| scheduler.run_masks(stream.iter().copied()))
    });
    group.bench_function("oracle_matching", |b| {
        b.iter(|| oracle.run_masks(stream.iter().copied()))
    });
    group.finish();
}

fn bench_priority_order_ablation(c: &mut Criterion) {
    // Does the paper's lookaside priority order matter? Time both variants
    // and print the schedule-quality (cycle-count) difference once.
    let mut group = c.benchmark_group("priority_order");
    let stream = masks(13, 2048, 0.6);
    let paper = Scheduler::new(&Connectivity::paper(PeGeometry::paper()));
    let reversed = Scheduler::new(&Connectivity::from_spec(
        PeGeometry::paper(),
        &ConnectivitySpec::custom(vec![(1, -3), (2, 2), (2, -2), (1, 1), (1, -1)]).unwrap(),
    ));
    group.bench_function("paper_order", |b| {
        b.iter(|| paper.run_masks(stream.iter().copied()))
    });
    group.bench_function("reversed_lookaside", |b| {
        b.iter(|| reversed.run_masks(stream.iter().copied()))
    });
    group.finish();

    let a = paper.run_masks(stream.iter().copied()).cycles;
    let b = reversed.run_masks(stream.iter().copied()).cycles;
    println!("priority-order ablation: paper {a} cycles, reversed {b} cycles");
}

fn bench_step_schedule(c: &mut Criterion) {
    let scheduler = Scheduler::paper(PeGeometry::paper());
    let mut rng = StdRng::seed_from_u64(3);
    let windows: Vec<[u64; 4]> = (0..256)
        .map(|_| {
            let mut z = [0u64; 4];
            for row in z.iter_mut().take(3) {
                *row = rng.gen::<u64>() & 0xFFFF;
            }
            z
        })
        .collect();
    c.bench_function("step_masks_256_windows", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for w in &windows {
                let mut z = *w;
                total += scheduler.step_masks(&mut z).macs as u64;
            }
            total
        })
    });
}

criterion_group!(
    benches,
    bench_scheduler_throughput,
    bench_batched_vs_reference_kernel,
    bench_group_run_vs_reference_engines,
    bench_hierarchical_vs_oracle,
    bench_priority_order_ablation,
    bench_step_schedule
);
criterion_main!(benches);
