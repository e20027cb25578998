//! The Flighting Tool and Deployment Module (§4.1, §5.2.2).
//!
//! Flighting "facilitates the deployment of configuration changes to any
//! machine in the production cluster as a safety check before performing
//! the full cluster deployment". In the reproduction, a flight is a
//! time-windowed [`kea_sim::Flight`] override injected into the
//! simulation's [`kea_sim::ConfigPlan`]; measurement happens on the
//! resulting telemetry. The Deployment Module evaluates a full roll-out
//! with before/after treatment effects and enforces guardrails (latency
//! must not regress significantly) before declaring success.

use crate::error::KeaError;
use crate::experiment::machine_hour_samples;
use kea_sim::{ConfigPatch, Flight};
use kea_stats::{treatment_effect, TreatmentEffect};
use kea_telemetry::{MachineId, Metric, TelemetryStore};
use std::collections::BTreeSet;

/// Builder for flights, mirroring the production tool's "machine names +
/// start/end time + build" interface.
#[derive(Debug, Clone)]
pub struct FlightingTool;

impl FlightingTool {
    /// Creates a flight deploying `patch` to `machines` during
    /// `[start_hour, end_hour)`.
    ///
    /// # Errors
    /// The window must be non-empty, the machine set non-empty, and the
    /// patch must change something.
    pub fn flight(
        label: &str,
        machines: BTreeSet<MachineId>,
        start_hour: u64,
        end_hour: u64,
        patch: ConfigPatch,
    ) -> Result<Flight, KeaError> {
        if start_hour >= end_hour {
            return Err(KeaError::Design(format!(
                "flight '{label}': empty window [{start_hour}, {end_hour})"
            )));
        }
        if machines.is_empty() {
            return Err(KeaError::Design(format!(
                "flight '{label}': no target machines"
            )));
        }
        if patch.is_empty() {
            return Err(KeaError::Design(format!(
                "flight '{label}': patch changes nothing"
            )));
        }
        Ok(Flight {
            label: label.to_string(),
            machines,
            start_hour,
            end_hour,
            patch,
        })
    }

    /// Measures the effect of a flight on `metric` by comparing the
    /// flight window against a pre-flight window of equal machines
    /// (before/after on the *same* machines, the first-pilot pattern of
    /// §5.2.2).
    ///
    /// # Errors
    /// Both windows must contain observations with variance.
    pub fn before_after(
        store: &TelemetryStore,
        flight: &Flight,
        before_start: u64,
        metric: Metric,
    ) -> Result<TreatmentEffect, KeaError> {
        if before_start >= flight.start_hour {
            return Err(KeaError::Design(
                "before-window must precede the flight".to_string(),
            ));
        }
        let before = machine_hour_samples(
            store,
            &flight.machines,
            before_start,
            flight.start_hour,
            metric,
        );
        let during = machine_hour_samples(
            store,
            &flight.machines,
            flight.start_hour,
            flight.end_hour,
            metric,
        );
        if before.is_empty() || during.is_empty() {
            return Err(KeaError::NoObservations {
                what: format!("flight '{}' windows for {metric}", flight.label),
            });
        }
        Ok(treatment_effect(&before, &during)?)
    }
}

/// A guardrail on a deployment: a metric whose regression beyond
/// `max_regression` (relative, signed in the harmful direction) at
/// significance `alpha` blocks the roll-out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guardrail {
    /// Guarded metric.
    pub metric: Metric,
    /// Whether larger values of the metric are worse (true for latency).
    pub higher_is_worse: bool,
    /// Maximum tolerated relative regression (e.g. 0.02 = 2%).
    pub max_regression: f64,
    /// Significance level for calling a change real.
    pub alpha: f64,
}

/// Outcome of evaluating a full-cluster roll-out.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// Effects per evaluated metric, in input order.
    pub effects: Vec<(Metric, TreatmentEffect)>,
    /// Guardrail verdicts: `(guardrail, passed)`.
    pub guardrails: Vec<(Guardrail, bool)>,
    /// True when every guardrail passed.
    pub approved: bool,
}

/// Evaluates a roll-out: compares `[after_start, after_end)` against
/// `[before_start, before_end)` over the whole fleet for each metric, and
/// checks guardrails.
///
/// # Errors
/// Every metric needs observations in both windows.
pub fn evaluate_deployment(
    store: &TelemetryStore,
    before: (u64, u64),
    after: (u64, u64),
    metrics: &[Metric],
    guardrails: &[Guardrail],
) -> Result<DeploymentReport, KeaError> {
    // Whole-fleet comparison: read each group's hour-window slices
    // directly instead of probing a machine bitmap that would admit
    // every row. Their order is not hour order; the t-test ignores it.
    let fleet_samples = |start: u64, end: u64, metric: Metric| -> Vec<f64> {
        store
            .by_hours(start, end)
            .map(|r| metric.value(&r.metrics))
            .collect()
    };
    let mut effects = Vec::with_capacity(metrics.len());
    for &metric in metrics {
        let b = fleet_samples(before.0, before.1, metric);
        let a = fleet_samples(after.0, after.1, metric);
        if a.is_empty() || b.is_empty() {
            return Err(KeaError::NoObservations {
                what: format!("deployment windows for {metric}"),
            });
        }
        effects.push((metric, treatment_effect(&b, &a)?));
    }
    let mut verdicts = Vec::with_capacity(guardrails.len());
    let mut approved = true;
    for &rail in guardrails {
        let effect = match effects.iter().find(|(m, _)| *m == rail.metric) {
            Some((_, e)) => e.clone(),
            None => {
                let b = fleet_samples(before.0, before.1, rail.metric);
                let a = fleet_samples(after.0, after.1, rail.metric);
                treatment_effect(&b, &a)?
            }
        };
        let regression = if rail.higher_is_worse {
            effect.relative_effect
        } else {
            -effect.relative_effect
        };
        // A guardrail trips only when the regression is both material and
        // statistically real.
        let passed = !(regression > rail.max_regression && effect.significant_at(rail.alpha));
        if !passed {
            approved = false;
        }
        verdicts.push((rail, passed));
    }
    Ok(DeploymentReport {
        effects,
        guardrails: verdicts,
        approved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kea_telemetry::{GroupKey, MachineHourRecord, MetricValues, ScId, SkuId};

    fn machines(n: u32) -> BTreeSet<MachineId> {
        (0..n).map(MachineId).collect()
    }

    fn patch() -> ConfigPatch {
        ConfigPatch {
            max_running_containers: Some(20),
            ..Default::default()
        }
    }

    /// Store where throughput jumps by `gain` and latency by `lat_change`
    /// from hour 24 on.
    fn step_store(gain: f64, lat_change: f64) -> TelemetryStore {
        let mut s = TelemetryStore::new();
        for m in 0..30u32 {
            for h in 0..48u64 {
                let bump = if h >= 24 { 1.0 } else { 0.0 };
                s.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: GroupKey::new(SkuId(0), ScId(1)),
                    hour: h,
                    metrics: MetricValues {
                        total_data_read_gb: 100.0 + (m % 5) as f64 + (h % 3) as f64 + bump * gain,
                        avg_task_latency_s: 300.0
                            + (m % 7) as f64
                            + (h % 4) as f64
                            + bump * lat_change,
                        ..Default::default()
                    },
                });
            }
        }
        s
    }

    #[test]
    fn flight_builder_validates() {
        assert!(FlightingTool::flight("ok", machines(3), 0, 10, patch()).is_ok());
        assert!(FlightingTool::flight("w", machines(3), 10, 10, patch()).is_err());
        assert!(FlightingTool::flight("m", BTreeSet::new(), 0, 10, patch()).is_err());
        assert!(
            FlightingTool::flight("p", machines(3), 0, 10, ConfigPatch::default()).is_err()
        );
    }

    #[test]
    fn before_after_measures_step() {
        let store = step_store(9.0, 0.0);
        let flight = FlightingTool::flight("pilot", machines(30), 24, 48, patch()).unwrap();
        let eff =
            FlightingTool::before_after(&store, &flight, 0, Metric::TotalDataRead).unwrap();
        assert!((eff.percent_change() - 8.8).abs() < 0.5);
        assert!(eff.significant_at(0.001));
        // Before-window must precede the flight.
        assert!(FlightingTool::before_after(&store, &flight, 30, Metric::TotalDataRead).is_err());
    }

    #[test]
    fn deployment_approves_good_rollout() {
        // +10% throughput, latency flat — the §5.2.2 success case.
        let store = step_store(10.0, 0.0);
        let rails = [Guardrail {
            metric: Metric::AverageTaskLatency,
            higher_is_worse: true,
            max_regression: 0.02,
            alpha: 0.05,
        }];
        let report = evaluate_deployment(
            &store,
            (0, 24),
            (24, 48),
            &[Metric::TotalDataRead, Metric::AverageTaskLatency],
            &rails,
        )
        .unwrap();
        assert!(report.approved);
        assert!(report.effects[0].1.percent_change() > 8.0);
        assert!(report.guardrails[0].1);
    }

    #[test]
    fn deployment_blocks_latency_regression() {
        // Throughput up but latency +10%: guardrail must trip.
        let store = step_store(10.0, 30.0);
        let rails = [Guardrail {
            metric: Metric::AverageTaskLatency,
            higher_is_worse: true,
            max_regression: 0.02,
            alpha: 0.05,
        }];
        let report = evaluate_deployment(
            &store,
            (0, 24),
            (24, 48),
            &[Metric::TotalDataRead],
            &rails,
        )
        .unwrap();
        assert!(!report.approved);
        assert!(!report.guardrails[0].1);
    }

    #[test]
    fn deployment_ignores_insignificant_noise() {
        // Tiny latency wiggle below the threshold passes.
        let store = step_store(10.0, 0.5);
        let rails = [Guardrail {
            metric: Metric::AverageTaskLatency,
            higher_is_worse: true,
            max_regression: 0.02,
            alpha: 0.05,
        }];
        let report =
            evaluate_deployment(&store, (0, 24), (24, 48), &[], &rails).unwrap();
        assert!(report.approved);
    }

    #[test]
    fn deployment_empty_window_errors() {
        let store = step_store(1.0, 0.0);
        assert!(matches!(
            evaluate_deployment(&store, (100, 110), (110, 120), &[Metric::TotalDataRead], &[]),
            Err(KeaError::NoObservations { .. })
        ));
    }
}
