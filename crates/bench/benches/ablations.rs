//! Criterion ablation benches for the design choices DESIGN.md calls
//! out: estimator choice (Huber vs OLS), tuning mode cost (observational
//! model+LP vs a round of experimental search), and experiment-design
//! analysis cost. Quality-of-result ablations (accuracy rather than
//! runtime) live in `--bin ablation`.

use criterion::{criterion_group, criterion_main, Criterion};
use kea_core::whatif::{FitMethod, Granularity, WhatIfEngine};
use kea_core::{tune, PerformanceMonitor, TunePolicy};
use kea_sim::{run, ClusterSpec, SimConfig};
use std::hint::black_box;

fn bench_fit_methods(c: &mut Criterion) {
    let out = run(&SimConfig::baseline(ClusterSpec::tiny(), 48, 3));
    let monitor = PerformanceMonitor::new(&out.telemetry);
    for (name, method) in [("huber", FitMethod::Huber), ("ols", FitMethod::Ols)] {
        c.bench_function(&format!("whatif_fit_hourly_{name}"), |b| {
            b.iter(|| {
                WhatIfEngine::fit_at(
                    black_box(&monitor),
                    method,
                    Granularity::Hourly,
                    24,
                )
                .unwrap()
            })
        });
    }
}

fn bench_observational_vs_experimental(c: &mut Criterion) {
    // Observational tuning: one telemetry window, then one tuning pass
    // (model + LP).
    let out = run(&SimConfig::baseline(ClusterSpec::tiny(), 48, 4));
    c.bench_function("observational_model_plus_lp", |b| {
        b.iter(|| tune(black_box(&out.telemetry), &TunePolicy::default()).unwrap())
    });
    // Experimental tuning: every candidate evaluation costs a production
    // experiment — here, a full simulated flighting round. One round is
    // enough to show the orders-of-magnitude cost gap the paper's §5
    // argues motivates observational tuning.
    let mut group = c.benchmark_group("experimental");
    group.sample_size(10);
    group.bench_function("one_flighting_round", |b| {
        b.iter(|| run(&SimConfig::baseline(black_box(ClusterSpec::tiny()), 24, 6)))
    });
    group.finish();
}

criterion_group!(benches, bench_fit_methods, bench_observational_vs_experimental);
criterion_main!(benches);
