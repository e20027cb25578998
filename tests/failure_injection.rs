//! Failure injection: the pipeline must degrade loudly (typed errors) or
//! robustly (Huber shrugging off contamination), never silently.

use kea_core::whatif::{FitMethod, Granularity, WhatIfEngine};
use kea_core::{analyze, tune, KeaError, MachineSplit, PerformanceMonitor, TunePolicy};
use kea_sim::{run, ClusterSpec, ConfigPatch, Flight, SimConfig, SC1, SC2};
use kea_telemetry::{
    GroupKey, MachineHourRecord, MachineId, Metric, MetricValues, ScId, SkuId, TelemetryStore,
};
use std::collections::BTreeSet;

/// Simulated telemetry with a fraction of machine-hours corrupted the way
/// draining/flapping machines corrupt real telemetry: implausibly large
/// latencies and zeroed throughput.
fn contaminated_telemetry(fraction_pct: u64) -> (ClusterSpec, TelemetryStore) {
    let cluster = ClusterSpec::tiny();
    let out = run(&SimConfig::baseline(cluster.clone(), 30, 990));
    let mut store = TelemetryStore::new();
    for (i, rec) in out.telemetry.iter().enumerate() {
        let mut rec = *rec;
        if (i as u64) % 100 < fraction_pct && rec.metrics.tasks_finished > 0.0 {
            rec.metrics.avg_task_latency_s *= 40.0; // nonsense gauge
            rec.metrics.total_data_read_gb = 0.0;
        }
        store.push(rec);
    }
    (cluster, store)
}

#[test]
fn huber_models_survive_contaminated_telemetry() {
    let (_, clean) = contaminated_telemetry(0);
    let (_, dirty) = contaminated_telemetry(8);
    let fit = |store: &TelemetryStore| {
        let monitor = PerformanceMonitor::new(store);
        WhatIfEngine::fit_at(&monitor, FitMethod::Huber, Granularity::Hourly, 24)
            .expect("fits")
    };
    let clean_engine = fit(&clean);
    let dirty_engine = fit(&dirty);
    // The latency model's slope must barely move despite 8% of rows
    // carrying 40x-latency garbage.
    for clean_g in clean_engine.groups() {
        let dirty_g = dirty_engine.group(clean_g.group).expect("same groups");
        let c = clean_g.f_util_to_latency.slope();
        let d = dirty_g.f_util_to_latency.slope();
        assert!(
            (c - d).abs() < c.abs().max(1.0) * 0.6 + 1.0,
            "group {:?}: clean slope {c}, dirty slope {d}",
            clean_g.group
        );
    }
}

#[test]
fn ols_models_do_not_survive_contamination() {
    // The counterpart that justifies the paper's Huber choice: OLS
    // latency intercepts blow up under the same contamination.
    let (_, clean) = contaminated_telemetry(0);
    let (_, dirty) = contaminated_telemetry(8);
    let intercept_sum = |store: &TelemetryStore, method| {
        let monitor = PerformanceMonitor::new(store);
        WhatIfEngine::fit_at(&monitor, method, Granularity::Hourly, 24)
            .expect("fits")
            .groups()
            .map(|g| g.f_util_to_latency.intercept().abs())
            .sum::<f64>()
    };
    let ols_drift = (intercept_sum(&dirty, FitMethod::Ols)
        - intercept_sum(&clean, FitMethod::Ols))
    .abs();
    let huber_drift = (intercept_sum(&dirty, FitMethod::Huber)
        - intercept_sum(&clean, FitMethod::Huber))
    .abs();
    assert!(
        huber_drift < ols_drift,
        "huber drift {huber_drift} must be below OLS drift {ols_drift}"
    );
}

#[test]
fn empty_windows_error_loudly() {
    let (cluster, store) = contaminated_telemetry(0);
    let machines: BTreeSet<_> = cluster.machines.iter().take(4).map(|m| m.id).collect();
    let split = MachineSplit {
        control: machines.clone(),
        treatment: machines,
    };
    // A window after the end of telemetry must be a typed error, not a
    // silent zero-effect.
    let res = analyze(&store, &split, 500, 600, Metric::TotalDataRead);
    assert!(matches!(res, Err(KeaError::NoObservations { .. })));
}

#[test]
fn missing_groups_error_loudly() {
    let (_, store) = contaminated_telemetry(0);
    let monitor = PerformanceMonitor::new(&store);
    let engine = WhatIfEngine::fit_at(&monitor, FitMethod::Huber, Granularity::Hourly, 24)
        .expect("fits");
    let bogus = GroupKey::new(kea_telemetry::SkuId(99), kea_telemetry::ScId(1));
    assert!(matches!(
        engine.predict(bogus, 10.0),
        Err(KeaError::NoObservations { .. })
    ));
}

#[test]
fn whatif_refuses_to_fit_on_starved_telemetry() {
    // One hour of data cannot support hourly models with min_rows = 24.
    let cluster = ClusterSpec::tiny();
    let out = run(&SimConfig::baseline(cluster, 1, 991));
    let monitor = PerformanceMonitor::new(&out.telemetry);
    assert!(matches!(
        WhatIfEngine::fit_at(&monitor, FitMethod::Huber, Granularity::Hourly, 24),
        Err(KeaError::NoObservations { .. })
    ));
}

// ---- Tuning-pass refusals: each scenario names its typed outcome -----

#[test]
fn tune_refuses_a_single_group_fleet() {
    // One machine group fits, but there is nothing to re-balance it
    // against.
    let (_, store) = contaminated_telemetry(0);
    let only = store.groups().first().copied().expect("groups observed");
    let mut one_group = TelemetryStore::new();
    one_group.extend(store.iter().filter(|r| r.group == only).copied());
    assert!(matches!(
        tune(&one_group, &TunePolicy::default()),
        Err(KeaError::Design(_))
    ));
}

#[test]
fn tune_refuses_a_window_under_the_row_floor() {
    // Two hours of a 30-machine cluster: no group reaches a day of
    // hourly rows.
    let out = run(&SimConfig::baseline(ClusterSpec::tiny(), 2, 992));
    for group in out.telemetry.groups() {
        assert!(out.telemetry.by_group(group).count() < 24, "{group:?}");
    }
    assert!(matches!(
        tune(&out.telemetry, &TunePolicy::default()),
        Err(KeaError::NoObservations { .. })
    ));
}

#[test]
fn tune_refuses_an_invalid_step_bound() {
    // Zero, NaN and a bound past what a plan's integer step can hold.
    // The policy is checked before any work: on an empty store the fit
    // would refuse with `NoObservations`, but the step bound's typed
    // error comes first.
    let (_, store) = contaminated_telemetry(0);
    for store in [store, TelemetryStore::new()] {
        for max_step in [0.0, f64::NAN, 1e12] {
            let policy = TunePolicy {
                max_step,
                ..TunePolicy::default()
            };
            assert!(
                matches!(tune(&store, &policy), Err(KeaError::Opt(_))),
                "max_step {max_step} on {} records",
                store.len()
            );
        }
    }
}

#[test]
fn tune_counts_a_flighted_machine_once() {
    // A flight moves every 4th machine of the 150 (38 in all) to SC2 for
    // hours 12–36 of 48. Each machine counts once, in the group of its
    // latest record, so the SC2 groups, which existed only while the
    // flight was live, drop out of the counts and the plan.
    let mut cfg = SimConfig::baseline(ClusterSpec::small(), 48, 7);
    let moved: BTreeSet<MachineId> = cfg
        .cluster
        .machines
        .iter()
        .step_by(4)
        .map(|m| m.id)
        .collect();
    assert_eq!((cfg.cluster.machines.len(), moved.len()), (150, 38));
    cfg.plan.add_flight(Flight {
        label: "move-to-sc2".to_string(),
        machines: moved,
        start_hour: 12,
        end_hour: 36,
        patch: ConfigPatch {
            sc: Some(SC2),
            ..ConfigPatch::default()
        },
    });
    let out = run(&cfg);
    let sc2_groups = out
        .telemetry
        .groups()
        .iter()
        .filter(|g| g.sc == SC2)
        .count();
    assert_eq!(sc2_groups, 6, "the flight reports from six SC2 groups");

    let tuned = tune(&out.telemetry, &TunePolicy::default()).expect("tunes");
    assert_eq!(tuned.machine_counts.values().sum::<usize>(), 150);
    assert_eq!(tuned.machine_counts.len(), 6);
    assert!(tuned.machine_counts.keys().all(|g| g.sc == SC1));
    assert!(tuned.plan.steps().keys().all(|g| g.sc == SC1));
}

/// Three SC1 groups of 6 machines × 60 hours, each machine spreading its
/// load over the hours (the shape of `build_store` in
/// `crates/core/tests/proptest_optimizer.rs`), except that the groups in
/// `pegged` run 12 containers on every machine every hour.
fn three_groups_pegging(pegged: &[u16]) -> TelemetryStore {
    let mut store = TelemetryStore::new();
    for sku in 0..3u16 {
        let group = GroupKey::new(SkuId(sku), ScId(1));
        for m in 0..6u32 {
            for h in 0..60u64 {
                let containers = if pegged.contains(&sku) {
                    12.0
                } else {
                    5.0 + (m % 4) as f64 + (h % 8) as f64 * 0.5
                };
                let util = 2.0 + 4.0 * containers;
                store.push(MachineHourRecord {
                    machine: MachineId(u32::from(sku) * 6 + m),
                    group,
                    hour: h,
                    metrics: MetricValues {
                        avg_running_containers: containers,
                        cpu_utilization: util,
                        tasks_finished: 5.0 + 1.5 * util,
                        avg_task_latency_s: 80.0 + 2.0 * util,
                        ..Default::default()
                    },
                });
            }
        }
    }
    store
}

#[test]
fn tune_plans_around_a_group_that_cannot_be_fitted() {
    // Group 0 never varies its load, so its fit is a singular system. It
    // drops out of the plan as a group under the row floor does, and the
    // other two groups are planned.
    let tuned = tune(&three_groups_pegging(&[0]), &TunePolicy::default()).expect("tunes");
    let planned: Vec<u16> = tuned.plan.steps().keys().map(|g| g.sku.0).collect();
    assert_eq!(planned, vec![1, 2]);
    let fitted: Vec<u16> = tuned.engine.groups().map(|g| g.group.sku.0).collect();
    assert_eq!(fitted, vec![1, 2]);
    assert_eq!(
        tuned.machine_counts.len(),
        3,
        "every group's machines are counted"
    );
}

#[test]
fn tune_refuses_when_one_fittable_group_is_left() {
    // Two of the three groups are pegged: one group fits, with nothing to
    // re-balance it against.
    assert!(matches!(
        tune(&three_groups_pegging(&[0, 1]), &TunePolicy::default()),
        Err(KeaError::Design(_))
    ));
    // None fits: the window holds no usable observations.
    assert!(matches!(
        tune(&three_groups_pegging(&[0, 1, 2]), &TunePolicy::default()),
        Err(KeaError::NoObservations { .. })
    ));
}
