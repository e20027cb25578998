//! Scaling benchmarks for the tuning hot path.
//!
//! * `whatif_fit` / `optimize_max_containers`: fits a 64-group /
//!   2048-machine synthetic fleet and runs `optimize_max_containers`
//!   through both the incremental O(G) implementation and the preserved
//!   O(G²) full-recompute reference, so the speedup is measured in the
//!   same process on the same engine.
//! * `huber_fit`: one Huber fit of a 120k-row noisy line with gross
//!   outliers, the size of fit_week's largest group, so IRLS iterates
//!   (the `whatif_fit` fixture's exact lines stop at the OLS start).
//! * `lp_simplex`: the LP solve itself at fleet scale — a 256-group
//!   YARN-shaped LP (one latency row, per-group `[−δ, δ]` step boxes)
//!   solved by the closed-form `knapsack::solve` the optimizer calls.
//!   The group keeps its old name so its rows still pair with the
//!   committed baseline.
//!
//! Methodology and current numbers are recorded in the repository README
//! ("Performance") and `BENCH_simplex.json` (written when
//! `KEA_BENCH_JSON` is set; CI uploads it as an artifact).

use criterion::{criterion_group, criterion_main, Criterion};
use kea_core::whatif::{FitMethod, Granularity, WhatIfEngine};
use kea_core::{optimize_max_containers, OperatingPoint, PerformanceMonitor};
use kea_ml::LinearModel1D;
use kea_opt::knapsack;
use kea_telemetry::{
    GroupKey, MachineHourRecord, MachineId, MetricValues, ScId, SkuId, TelemetryStore,
};
use std::collections::BTreeMap;
use std::hint::black_box;

const N_GROUPS: usize = 64;
const MACHINES_PER_GROUP: u32 = 32; // 64 × 32 = 2048 machines total
const HOURS: u64 = 48;

/// A 64-group fleet whose dynamics vary smoothly across groups, so every
/// group fits cleanly and the optimizer has real gradients to trade on.
fn fleet_store() -> (TelemetryStore, BTreeMap<GroupKey, usize>) {
    let mut store = TelemetryStore::new();
    let mut counts = BTreeMap::new();
    for g in 0..N_GROUPS {
        let group = GroupKey::new(SkuId(g as u16), ScId(1));
        counts.insert(group, MACHINES_PER_GROUP as usize);
        let g_slope = 2.0 + (g % 7) as f64 * 0.7; // containers → util
        let f_slope = 0.5 + (g % 5) as f64 * 1.1; // util → latency
        let h_slope = 0.8 + (g % 3) as f64 * 0.6; // util → tasks
        for m in 0..MACHINES_PER_GROUP {
            for h in 0..HOURS {
                let containers = 5.0 + (m % 4) as f64 + (h % 8) as f64 * 0.5;
                let util = (2.0 + g_slope * containers).min(100.0);
                store.push(MachineHourRecord {
                    machine: MachineId(g as u32 * 1000 + m),
                    group,
                    hour: h,
                    metrics: MetricValues {
                        avg_running_containers: containers,
                        cpu_utilization: util,
                        tasks_finished: (5.0 + h_slope * util).max(0.5),
                        avg_task_latency_s: 80.0 + f_slope * util,
                        ..Default::default()
                    },
                });
            }
        }
    }
    (store, counts)
}

/// Every group's three relations are exact lines, so each Huber fit
/// stops at its OLS start (residual scale below 1e-12): this times the
/// fit's row collection, the containers sort and the R² passes, not IRLS.
fn bench_fit(c: &mut Criterion) {
    let (store, _) = fleet_store();
    let monitor = PerformanceMonitor::new(&store);
    let mut group = c.benchmark_group("whatif_fit");
    group.sample_size(20);
    group.bench_function("fit_64_groups_2048_machines", |b| {
        b.iter(|| {
            WhatIfEngine::fit_at(
                black_box(&monitor),
                FitMethod::Huber,
                Granularity::Hourly,
                24,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_optimize(c: &mut Criterion) {
    let (store, counts) = fleet_store();
    let monitor = PerformanceMonitor::new(&store);
    let engine = WhatIfEngine::fit_at(&monitor, FitMethod::Huber, Granularity::Hourly, 24)
        .expect("synthetic fleet always fits");

    // Sanity: both paths must produce the same plan before timing them.
    let fast = optimize_max_containers(&engine, &counts, 1.0, OperatingPoint::Median).unwrap();
    let slow =
        kea_core::optimizer::reference::optimize_max_containers(
            &engine,
            &counts,
            1.0,
            OperatingPoint::Median,
        )
        .unwrap();
    assert_eq!(fast.steps(), slow.steps(), "implementations diverged");

    let mut group = c.benchmark_group("optimize_max_containers");
    group.sample_size(20);
    group.bench_function("incremental_64_groups", |b| {
        b.iter(|| {
            optimize_max_containers(
                black_box(&engine),
                black_box(&counts),
                1.0,
                OperatingPoint::Median,
            )
            .unwrap()
        })
    });
    group.bench_function("reference_full_recompute_64_groups", |b| {
        b.iter(|| {
            kea_core::optimizer::reference::optimize_max_containers(
                black_box(&engine),
                black_box(&counts),
                1.0,
                OperatingPoint::Median,
            )
            .unwrap()
        })
    });
    group.finish();
}

const HUBER_ROWS: usize = 120_000;

/// Utilization → task latency over 120k hourly rows: `80 + 1.5·util`
/// with uniform noise of ±4 s and a 5% share of rows 60–260 s slow
/// (draining machines). Deterministic: each draw is a SplitMix64 hash
/// of the row index.
fn noisy_latency_line() -> (Vec<f64>, Vec<f64>) {
    let unit = |k: u64| {
        let mut z = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..HUBER_ROWS as u64)
        .map(|i| {
            let util = 5.0 + 90.0 * unit(3 * i);
            let latency = 80.0 + 1.5 * util + 8.0 * (unit(3 * i + 1) - 0.5);
            let slow = if i % 20 == 7 {
                60.0 + 200.0 * unit(3 * i + 2)
            } else {
                0.0
            };
            (util, latency + slow)
        })
        .unzip()
}

/// One Huber fit as the What-if Engine fits a group's `f` model. IRLS
/// takes seven iterations here (fit_week's `h` and `f` fits take 8–17).
fn bench_huber(c: &mut Criterion) {
    let (util, latency) = noisy_latency_line();
    let mut group = c.benchmark_group("huber_fit");
    group.sample_size(20);
    group.bench_function("noisy_line_120k", |b| {
        b.iter(|| {
            LinearModel1D::fit_huber(black_box(&util), black_box(&latency))
                .expect("a finite line with varying x fits")
        })
    });
    group.finish();
}

const LP_GROUPS: usize = 256;

/// Deterministic pseudo-varied latency gradients for a 256-group
/// YARN-shaped LP.
fn lp_gradients() -> Vec<f64> {
    (0..LP_GROUPS)
        .map(|k| {
            let base = 0.2 + ((k * 37 + 11) % 97) as f64 / 97.0 * 4.0;
            base + ((k * 13) % 17) as f64 * 0.01
        })
        .collect()
}

fn lp_machine_counts() -> Vec<f64> {
    (0..LP_GROUPS)
        .map(|k| 16.0 + ((k * 53 + 7) % 31) as f64 * 4.0)
        .collect()
}

/// The §5.2 LP in the step variables at fleet scale: maximize
/// `Σ n_k d_k` s.t. `∇W̄·d ≤ 0`, `−1 ≤ d_k ≤ 1`.
fn bench_lp(c: &mut Criterion) {
    let n_machines = lp_machine_counts();
    let mut group = c.benchmark_group("lp_simplex");
    group.sample_size(10);
    group.bench_function("knapsack_256_groups", |b| {
        let gradients = lp_gradients();
        b.iter(|| {
            knapsack::solve(black_box(&n_machines), black_box(&gradients), 1.0)
                .expect("knapsack solves")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fit, bench_huber, bench_optimize, bench_lp);
criterion_main!(benches);
