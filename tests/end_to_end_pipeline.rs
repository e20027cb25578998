//! Cross-crate integration: the full KEA stack wired together —
//! simulator → telemetry → Performance Monitor → What-if Engine →
//! Optimizer → Flighting → Deployment — with invariants that span crate
//! boundaries.

use kea_core::whatif::{FitMethod, Granularity, WhatIfEngine};
use kea_core::{
    evaluate_deployment, tune, Guardrail, OperatingPoint, PerformanceMonitor, TunePolicy,
};
use kea_ml::r2_score;
use kea_sim::{run, ClusterSpec, ConfigPlan, SimConfig, WorkloadSpec, SC1};
use kea_telemetry::Metric;

fn observe(hours: u64, seed: u64) -> kea_sim::SimOutput {
    let cluster = ClusterSpec::tiny();
    run(&SimConfig {
        cluster: cluster.clone(),
        workload: WorkloadSpec::default_for(&cluster, 0.95),
        plan: ConfigPlan::baseline(&cluster.skus, SC1),
        duration_hours: hours,
        seed,
        task_log_every: 10,
        adhoc_job_log_every: 8,
    })
}

#[test]
fn models_generalize_to_held_out_telemetry() {
    // Fit on the first day, score on the second: the What-if premise is
    // that the relationships are stable system fundamentals (§5.1).
    let out = observe(48, 900);
    let mut train = kea_telemetry::TelemetryStore::new();
    let mut test = kea_telemetry::TelemetryStore::new();
    for rec in out.telemetry.iter() {
        if rec.hour < 24 {
            train.push(*rec);
        } else {
            test.push(*rec);
        }
    }
    let train_monitor = PerformanceMonitor::new(&train);
    let engine = WhatIfEngine::fit_at(&train_monitor, FitMethod::Huber, Granularity::Hourly, 12)
        .expect("fits on day one");
    // Score g_k on day-two records of the largest group.
    let group = engine
        .groups()
        .max_by_key(|g| g.n_rows)
        .expect("groups calibrated")
        .group;
    let models = engine.group(group).expect("largest group");
    let mut y_true = Vec::new();
    let mut y_pred = Vec::new();
    for rec in test.by_group(group) {
        if rec.metrics.tasks_finished > 0.0 {
            y_true.push(rec.metrics.cpu_utilization);
            y_pred.push(models.predict_util(rec.metrics.avg_running_containers));
        }
    }
    let r2 = r2_score(&y_true, &y_pred).expect("scores");
    assert!(r2 > 0.9, "g_k generalizes: held-out R² = {r2}");
}

#[test]
fn lp_solution_is_feasible_against_the_nonlinear_check() {
    let out = observe(48, 901);
    for op in [OperatingPoint::Median, OperatingPoint::Percentile(90.0)] {
        let policy = TunePolicy {
            max_step: 2.0,
            at: op,
            ..TunePolicy::default()
        };
        let opt = tune(&out.telemetry, &policy).expect("fits and solves").plan;
        // Integer plan respects the latency budget via the full models.
        assert!(
            opt.predicted_latency <= opt.baseline_latency * (1.0 + 1e-9),
            "{op:?}: {} vs {}",
            opt.predicted_latency,
            opt.baseline_latency
        );
        // Steps bounded by ±2.
        for s in &opt.suggestions {
            assert!(s.delta_step.abs() <= 2, "{s:?}");
        }
        // Capacity gain is non-negative (d = 0 is always feasible).
        assert!(opt.predicted_capacity_gain >= -1e-9);
    }
}

#[test]
fn deployment_evaluation_spans_sim_and_stats() {
    // A null deployment (no config change at the boundary) must not trip
    // guardrails or report significant effects beyond noise.
    let out = observe(48, 902);
    let rails = [Guardrail {
        metric: Metric::AverageTaskLatency,
        higher_is_worse: true,
        max_regression: 0.05,
        alpha: 0.01,
    }];
    let report = evaluate_deployment(
        &out.telemetry,
        (1, 24),
        (25, 48),
        &[Metric::TotalDataRead],
        &rails,
    )
    .expect("windows populated");
    assert!(report.approved, "null change passes guardrails: {report:?}");
    // Both windows are weekdays with identical diurnal shape; the
    // measured difference should be small.
    let (_, effect) = &report.effects[0];
    assert!(
        effect.relative_effect.abs() < 0.06,
        "null-deployment drift: {}",
        effect.relative_effect
    );
}

#[test]
fn group_models_cover_every_sku_present_in_telemetry() {
    let out = observe(48, 903);
    let monitor = PerformanceMonitor::new(&out.telemetry);
    let engine = WhatIfEngine::fit_at(&monitor, FitMethod::Huber, Granularity::Hourly, 24)
        .expect("fits");
    let telemetry_groups = out.telemetry.groups();
    assert_eq!(engine.len(), telemetry_groups.len());
    for g in telemetry_groups {
        assert!(engine.group(g).is_some(), "missing models for {g:?}");
    }
}
