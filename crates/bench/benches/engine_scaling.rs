//! Batch-engine scaling: serial vs parallel analysis of a generated
//! design space, and the effect of the shared busy-window cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use twca_api::batch::BatchEngine;
use twca_gen::{random_system, RandomSystemConfig};
use twca_model::System;

fn design_space(count: usize) -> Vec<System> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let config = RandomSystemConfig::default();
    (0..count)
        .map(|_| random_system(&mut rng, &config).expect("valid configuration"))
        .collect()
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling");
    let systems = design_space(64);

    group.bench_with_input(
        BenchmarkId::new("serial", systems.len()),
        &systems,
        |b, systems| {
            b.iter(|| {
                let engine = BatchEngine::new().with_ks([1, 10, 100]).with_threads(1);
                black_box(engine.run_serial(black_box(systems.clone())).len())
            })
        },
    );

    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    group.bench_with_input(
        BenchmarkId::new(format!("parallel_x{threads}"), systems.len()),
        &systems,
        |b, systems| {
            b.iter(|| {
                let engine = BatchEngine::new().with_ks([1, 10, 100]);
                black_box(engine.run(black_box(systems.clone())).len())
            })
        },
    );

    // Cache effect in isolation: re-analyzing one design space with a
    // warm shared cache versus a cold per-iteration cache.
    let warm = BatchEngine::new().with_ks([1, 10, 100]).with_threads(1);
    let _ = warm.run_serial(systems.clone());
    group.bench_with_input(
        BenchmarkId::new("serial_warm_cache", systems.len()),
        &systems,
        |b, systems| b.iter(|| black_box(warm.run_serial(black_box(systems.clone())).len())),
    );

    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
