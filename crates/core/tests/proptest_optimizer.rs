//! Property tests for the YARN optimizer: for *any* plausible set of
//! group dynamics, the returned plan must respect the latency budget
//! (checked through the full nonlinear models), the step bounds, and
//! never lose capacity.

use kea_core::whatif::{FitMethod, Granularity, WhatIfEngine};
use kea_core::{optimize_max_containers, OperatingPoint, PerformanceMonitor};
use kea_telemetry::{
    GroupKey, MachineHourRecord, MachineId, MetricValues, ScId, SkuId, TelemetryStore,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Synthetic telemetry for `k` groups with randomized (but physical)
/// dynamics: util slope per container, latency slope per util, tasks
/// slope per util, machine counts.
#[allow(clippy::type_complexity)]
fn build_store(
    params: &[(f64, f64, f64, usize)],
) -> (TelemetryStore, BTreeMap<GroupKey, usize>) {
    let mut store = TelemetryStore::new();
    let mut counts = BTreeMap::new();
    let mut machine_id = 0u32;
    for (sku, &(g_slope, f_slope, h_slope, n_machines)) in params.iter().enumerate() {
        let group = GroupKey::new(SkuId(sku as u16), ScId(1));
        counts.insert(group, n_machines);
        for m in 0..6u32 {
            for h in 0..60u64 {
                // Operating-point spread across machines and hours.
                let containers = 5.0 + (m % 4) as f64 + (h % 8) as f64 * 0.5;
                let util = (2.0 + g_slope * containers).min(100.0);
                store.push(MachineHourRecord {
                    machine: MachineId(machine_id + m),
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
        machine_id += 6;
    }
    (store, counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimizer_plans_are_always_feasible(
        g1 in 2.0..8.0f64, f1 in 0.5..6.0f64, h1 in 0.5..3.0f64, n1 in 5usize..200,
        g2 in 2.0..8.0f64, f2 in 0.5..6.0f64, h2 in 0.5..3.0f64, n2 in 5usize..200,
        g3 in 2.0..8.0f64, f3 in 0.5..6.0f64, h3 in 0.5..3.0f64, n3 in 5usize..200,
        max_step in 1.0..3.0f64,
        high_load in prop::bool::ANY,
    ) {
        let (store, counts) = build_store(&[
            (g1, f1, h1, n1),
            (g2, f2, h2, n2),
            (g3, f3, h3, n3),
        ]);
        let monitor = PerformanceMonitor::new(&store);
        let engine = WhatIfEngine::fit_at(&monitor, FitMethod::Huber, Granularity::Hourly, 24)
            .expect("synthetic data always fits");
        let at = if high_load {
            OperatingPoint::Percentile(90.0)
        } else {
            OperatingPoint::Median
        };
        let plan = optimize_max_containers(&engine, &counts, max_step, at)
            .expect("three healthy groups are always solvable");

        // Latency budget holds through the full nonlinear composition.
        prop_assert!(
            plan.predicted_latency <= plan.baseline_latency * (1.0 + 1e-9),
            "latency leak: {} > {}",
            plan.predicted_latency,
            plan.baseline_latency
        );
        // Steps bounded by the conservative roll-out limit: rounded,
        // clamped to ±δ and truncated to i32, a step is at most ⌊δ⌋.
        let bound = max_step.floor() as i32;
        for s in &plan.suggestions {
            prop_assert!(s.delta_step.abs() <= bound, "step {} vs δ {}", s.delta_step, max_step);
        }
        // d = 0 is feasible, so the LP (and its rounding) must never
        // report a capacity loss.
        prop_assert!(plan.predicted_capacity_gain >= -1e-9);
        // One suggestion per calibrated group.
        prop_assert_eq!(plan.suggestions.len(), 3);
    }

    /// The O(G) incrementally-cached gradient must equal the O(G²)
    /// full-recompute gradient — they evaluate the same central
    /// difference of the same nonlinear W̄, so any drift means the cache
    /// is updating the wrong term.
    #[test]
    fn incremental_gradients_match_full_recompute(
        g1 in 2.0..8.0f64, f1 in 0.5..6.0f64, h1 in 0.5..3.0f64, n1 in 5usize..200,
        g2 in 2.0..8.0f64, f2 in 0.5..6.0f64, h2 in 0.5..3.0f64, n2 in 5usize..200,
        g3 in 2.0..8.0f64, f3 in 0.5..6.0f64, h3 in 0.5..3.0f64, n3 in 5usize..200,
        max_step in 1.0..3.0f64,
        high_load in prop::bool::ANY,
    ) {
        let (store, counts) = build_store(&[
            (g1, f1, h1, n1),
            (g2, f2, h2, n2),
            (g3, f3, h3, n3),
        ]);
        let monitor = PerformanceMonitor::new(&store);
        let engine = WhatIfEngine::fit_at(&monitor, FitMethod::Huber, Granularity::Hourly, 24)
            .expect("synthetic data always fits");
        let at = if high_load {
            OperatingPoint::Percentile(95.0)
        } else {
            OperatingPoint::Median
        };

        let fast = optimize_max_containers(&engine, &counts, max_step, at)
            .expect("incremental path solvable");
        let reference_gradients =
            kea_core::optimizer::reference::latency_gradients(&engine, &counts, at)
                .expect("reference gradients computable");

        prop_assert_eq!(fast.suggestions.len(), reference_gradients.len());
        for (s, &g_ref) in fast.suggestions.iter().zip(&reference_gradients) {
            prop_assert!(
                (s.latency_gradient - g_ref).abs() < 1e-9,
                "gradient drift for {:?}: incremental {} vs reference {}",
                s.group,
                s.latency_gradient,
                g_ref
            );
        }

        // And the whole plan agrees with the reference optimizer, not
        // just the gradients.
        let slow = kea_core::optimizer::reference::optimize_max_containers(
            &engine, &counts, max_step, at,
        )
        .expect("reference path solvable");
        prop_assert_eq!(fast.steps(), slow.steps());
        prop_assert!((fast.baseline_latency - slow.baseline_latency).abs() < 1e-9);
        prop_assert!((fast.predicted_latency - slow.predicted_latency).abs() < 1e-9);
    }
}
