//! Criterion micro-benchmarks for KEA's computational components: the
//! estimators, telemetry aggregation, statistics, and the simulation
//! engine itself. These are throughput benches (how fast is the
//! machinery), not reproduction benches (see `--bin repro`).

use criterion::{criterion_group, criterion_main, Criterion};
use kea_ml::LinearModel1D;
use kea_sim::{run, ClusterSpec, SimConfig};
use kea_stats::{t_test_welch, Alternative};
use kea_telemetry::daily_group_aggregates;
use std::hint::black_box;

fn regression_data(n: usize, outliers: bool) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let base = 5.0 + 2.0 * i as f64 * 0.1 + ((i * 37) % 11) as f64 * 0.05;
            if outliers && i % 10 == 3 {
                base + 100.0
            } else {
                base
            }
        })
        .collect();
    (x, y)
}

fn bench_estimators(c: &mut Criterion) {
    let (x, y) = regression_data(1000, true);
    c.bench_function("ols_fit_1000", |b| {
        b.iter(|| LinearModel1D::fit_ols(black_box(&x), black_box(&y)).unwrap())
    });
    c.bench_function("huber_fit_1000", |b| {
        b.iter(|| LinearModel1D::fit_huber(black_box(&x), black_box(&y)).unwrap())
    });
}

fn bench_statistics(c: &mut Criterion) {
    let a: Vec<f64> = (0..5000).map(|i| 100.0 + ((i * 17) % 23) as f64).collect();
    let b2: Vec<f64> = (0..5000).map(|i| 101.0 + ((i * 13) % 23) as f64).collect();
    c.bench_function("welch_t_5000x5000", |b| {
        b.iter(|| t_test_welch(black_box(&a), black_box(&b2), Alternative::TwoSided).unwrap())
    });
}

fn bench_telemetry(c: &mut Criterion) {
    let out = run(&SimConfig::baseline(ClusterSpec::tiny(), 48, 5));
    c.bench_function("daily_aggregation_tiny_48h", |b| {
        b.iter(|| daily_group_aggregates(black_box(&out.telemetry)))
    });
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("sim_tiny_24h", |b| {
        b.iter(|| run(&SimConfig::baseline(black_box(ClusterSpec::tiny()), 24, 9)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_estimators,
    bench_statistics,
    bench_telemetry,
    bench_engine
);
criterion_main!(benches);
