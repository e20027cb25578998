//! The Experiment Module: designs and statistical analysis (§7).
//!
//! Three experiment settings from the paper:
//!
//! * **Ideal** — control and treatment interleaved *within racks*
//!   ("choosing every other machine in the same rack"), guaranteeing both
//!   groups see near-identical workloads. Used for SC selection (§7.1).
//! * **Time-slicing** — one machine set, alternating configuration
//!   windows (with its acknowledged pitfalls: redeployment cost and
//!   workload drift between intervals).
//! * **Hybrid** — distinct machine groups compared over the same period
//!   on normalized metrics. Used for power capping (§7.2), where capping
//!   applies per chassis and the ideal setting is impossible.
//!
//! Analysis reduces machine-hour telemetry to per-group samples and runs
//! the treatment-effect machinery of `kea-stats`.

use crate::error::KeaError;
use kea_sim::{ClusterSpec, RackId};
use kea_stats::{treatment_effect, TreatmentEffect};
use kea_telemetry::{MachineId, Metric, SkuId, TelemetryStore};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// A control/treatment machine split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSplit {
    /// Machines keeping the old configuration.
    pub control: BTreeSet<MachineId>,
    /// Machines receiving the new configuration.
    pub treatment: BTreeSet<MachineId>,
}

/// The ideal setting: within each given rack, alternate machines between
/// control (even positions) and treatment (odd positions).
///
/// # Errors
/// Every rack must contain at least two machines.
pub fn ideal_setting(cluster: &ClusterSpec, racks: &[RackId]) -> Result<MachineSplit, KeaError> {
    let mut control = BTreeSet::new();
    let mut treatment = BTreeSet::new();
    for &rack in racks {
        let members: Vec<MachineId> = cluster.machines_of_rack(rack).map(|m| m.id).collect();
        if members.len() < 2 {
            return Err(KeaError::Design(format!(
                "rack {rack:?} has {} machines; ideal setting needs ≥ 2",
                members.len()
            )));
        }
        for (i, id) in members.into_iter().enumerate() {
            if i % 2 == 0 {
                control.insert(id);
            } else {
                treatment.insert(id);
            }
        }
    }
    if control.is_empty() {
        return Err(KeaError::Design("no racks given".to_string()));
    }
    Ok(MachineSplit { control, treatment })
}

/// The hybrid setting: `n_groups` disjoint random machine groups of
/// `group_size`, all drawn from one SKU so hardware is controlled.
///
/// # Errors
/// `group_size` must be positive, and the SKU must have at least
/// `n_groups × group_size` machines.
pub fn hybrid_groups<R: Rng + ?Sized>(
    cluster: &ClusterSpec,
    sku: SkuId,
    n_groups: usize,
    group_size: usize,
    rng: &mut R,
) -> Result<Vec<BTreeSet<MachineId>>, KeaError> {
    if group_size == 0 {
        return Err(KeaError::Design("group_size must be positive".to_string()));
    }
    let mut pool: Vec<MachineId> = cluster.machines_of_sku(sku).map(|m| m.id).collect();
    let needed = n_groups.saturating_mul(group_size);
    if pool.len() < needed {
        return Err(KeaError::Design(format!(
            "SKU {sku:?} has {} machines, need {needed}",
            pool.len()
        )));
    }
    pool.shuffle(rng);
    Ok(pool
        .chunks(group_size)
        .take(n_groups)
        .map(|chunk| chunk.iter().copied().collect())
        .collect())
}

/// One window of a time-slicing schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSlice {
    /// First hour (inclusive).
    pub start_hour: u64,
    /// End hour (exclusive).
    pub end_hour: u64,
    /// Whether the new configuration is live in this slice.
    pub treatment: bool,
}

/// Builds an alternating time-slicing schedule over `[0, duration)`.
/// The paper warns against 24-hour slices (day-of-week confounds); the
/// default interval it mentions is five hours.
///
/// # Errors
/// `interval_hours` must be positive and shorter than the duration.
pub fn time_slices(duration_hours: u64, interval_hours: u64) -> Result<Vec<TimeSlice>, KeaError> {
    if interval_hours == 0 || interval_hours >= duration_hours {
        return Err(KeaError::Design(
            "interval must be positive and shorter than the experiment".to_string(),
        ));
    }
    let mut slices = Vec::new();
    let mut start = 0;
    let mut treatment = false;
    while start < duration_hours {
        let end = (start + interval_hours).min(duration_hours);
        slices.push(TimeSlice {
            start_hour: start,
            end_hour: end,
            treatment,
        });
        start = end;
        treatment = !treatment;
    }
    Ok(slices)
}

/// Analyzes a time-slicing experiment: the same machines alternate
/// between configurations on a fixed schedule; treatment-slice
/// machine-hours are compared against control-slice machine-hours.
/// Slices that start before `skip_hours` are discarded (warm-up).
///
/// This is the §7 "time-slicing setting" — popular but fragile: the
/// comparison inherits whatever workload drift falls between slices,
/// which is why the paper prefers the ideal setting when racks allow it
/// (quantified by the `designs` ablation).
///
/// # Errors
/// Both slice classes must contribute observations with variance.
pub fn analyze_time_slices(
    store: &TelemetryStore,
    machines: &BTreeSet<MachineId>,
    slices: &[TimeSlice],
    skip_hours: u64,
    metric: Metric,
) -> Result<ExperimentResult, KeaError> {
    let mut control = Vec::new();
    let mut treatment = Vec::new();
    for slice in slices {
        if slice.start_hour < skip_hours {
            continue;
        }
        let samples =
            machine_hour_samples(store, machines, slice.start_hour, slice.end_hour, metric);
        if slice.treatment {
            treatment.extend(samples);
        } else {
            control.extend(samples);
        }
    }
    if control.is_empty() || treatment.is_empty() {
        return Err(KeaError::NoObservations {
            what: format!("time-slicing windows for {metric}"),
        });
    }
    let effect = treatment_effect(&control, &treatment)?;
    Ok(ExperimentResult {
        metric,
        n_control: control.len(),
        n_treatment: treatment.len(),
        effect,
    })
}

/// Extracts per-machine-hour samples of `metric` for a machine set in a
/// window — the unit of analysis for all experiment comparisons.
///
/// Served by the store's `(group, hour)` block table: each group's part
/// of the window is one contiguous slice, with membership tested against
/// a dense-id bitmap, so cost scales with the window rather than the
/// store. The samples come side by side and group by group, not in hour
/// order; every comparison here reduces them to means and a t-test.
pub fn machine_hour_samples(
    store: &TelemetryStore,
    machines: &BTreeSet<MachineId>,
    start_hour: u64,
    end_hour: u64,
    metric: Metric,
) -> Vec<f64> {
    store
        .by_machines_and_hours(machines, start_hour, end_hour)
        .map(|r| metric.value(&r.metrics))
        .collect()
}

/// Result of comparing treatment vs control on one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The compared metric.
    pub metric: Metric,
    /// Control sample size (machine-hours).
    pub n_control: usize,
    /// Treatment sample size (machine-hours).
    pub n_treatment: usize,
    /// Treatment effect with Welch t-test.
    pub effect: TreatmentEffect,
}

/// Compares a split on one metric over a window.
///
/// # Errors
/// Both groups need machine-hour observations in the window, and the
/// metric must have variance.
pub fn analyze(
    store: &TelemetryStore,
    split: &MachineSplit,
    start_hour: u64,
    end_hour: u64,
    metric: Metric,
) -> Result<ExperimentResult, KeaError> {
    let control = machine_hour_samples(store, &split.control, start_hour, end_hour, metric);
    let treatment = machine_hour_samples(store, &split.treatment, start_hour, end_hour, metric);
    if control.is_empty() || treatment.is_empty() {
        return Err(KeaError::NoObservations {
            what: format!("experiment window [{start_hour}, {end_hour}) for {metric}"),
        });
    }
    let effect = treatment_effect(&control, &treatment)?;
    Ok(ExperimentResult {
        metric,
        n_control: control.len(),
        n_treatment: treatment.len(),
        effect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kea_telemetry::{GroupKey, MachineHourRecord, MetricValues, ScId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_setting_alternates_within_racks() {
        let cluster = ClusterSpec::small();
        let split = ideal_setting(&cluster, &[RackId(0), RackId(1)]).unwrap();
        // Balanced within one machine.
        let diff = split.control.len() as i64 - split.treatment.len() as i64;
        assert!(diff.abs() <= 2);
        // Disjoint.
        assert!(split.control.is_disjoint(&split.treatment));
        // Adjacent ids land in different groups.
        let c0 = split.control.iter().next().unwrap();
        assert!(split.treatment.contains(&MachineId(c0.0 + 1)));
    }

    #[test]
    fn ideal_setting_rejects_empty() {
        let cluster = ClusterSpec::small();
        assert!(matches!(
            ideal_setting(&cluster, &[]),
            Err(KeaError::Design(_))
        ));
    }

    #[test]
    fn hybrid_groups_are_disjoint_same_sku() {
        let cluster = ClusterSpec::default_cluster();
        let mut rng = StdRng::seed_from_u64(1);
        let groups = hybrid_groups(&cluster, SkuId(3), 4, 30, &mut rng).unwrap();
        assert_eq!(groups.len(), 4);
        let mut all = BTreeSet::new();
        for g in &groups {
            assert_eq!(g.len(), 30);
            for id in g {
                assert!(all.insert(*id), "machine in two groups");
                assert_eq!(cluster.machine(*id).sku, SkuId(3));
            }
        }
    }

    #[test]
    fn hybrid_groups_insufficient_machines() {
        let cluster = ClusterSpec::tiny();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            hybrid_groups(&cluster, SkuId(0), 4, 120, &mut rng),
            Err(KeaError::Design(_))
        ));
    }

    #[test]
    fn time_slices_alternate_and_cover() {
        let slices = time_slices(24, 5).unwrap();
        assert_eq!(slices[0].start_hour, 0);
        assert_eq!(slices.last().unwrap().end_hour, 24);
        for pair in slices.windows(2) {
            assert_eq!(pair[0].end_hour, pair[1].start_hour);
            assert_ne!(pair[0].treatment, pair[1].treatment);
        }
        assert!(!slices[0].treatment, "start with control");
        assert!(time_slices(10, 0).is_err());
        assert!(time_slices(10, 10).is_err());
    }

    fn synthetic_split_store(effect: f64) -> (TelemetryStore, MachineSplit) {
        let mut store = TelemetryStore::new();
        let mut control = BTreeSet::new();
        let mut treatment = BTreeSet::new();
        for m in 0..40u32 {
            let treated = m % 2 == 1;
            if treated {
                treatment.insert(MachineId(m));
            } else {
                control.insert(MachineId(m));
            }
            for h in 0..48u64 {
                let base = 100.0 + (h % 5) as f64 + (m % 7) as f64;
                store.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: GroupKey::new(SkuId(0), ScId(1)),
                    hour: h,
                    metrics: MetricValues {
                        total_data_read_gb: if treated { base + effect } else { base },
                        ..Default::default()
                    },
                });
            }
        }
        (store, MachineSplit { control, treatment })
    }

    #[test]
    fn analyze_detects_planted_effect() {
        let (store, split) = synthetic_split_store(11.0);
        let res = analyze(&store, &split, 0, 48, Metric::TotalDataRead).unwrap();
        assert_eq!(res.n_control, 20 * 48);
        assert_eq!(res.n_treatment, 20 * 48);
        assert!((res.effect.percent_change() - 10.6).abs() < 1.0);
        assert!(res.effect.significant_at(0.001));
        assert!(res.effect.test.t > 10.0);
    }

    #[test]
    fn analyze_null_effect_not_significant() {
        let (store, split) = synthetic_split_store(0.0);
        let res = analyze(&store, &split, 0, 48, Metric::TotalDataRead).unwrap();
        assert!(!res.effect.significant_at(0.05));
    }

    #[test]
    fn time_slicing_analysis_detects_planted_effect() {
        // The same machines carry +8 GB/h during treatment slices.
        let mut store = TelemetryStore::new();
        let machines: BTreeSet<MachineId> = (0..10).map(MachineId).collect();
        let slices = time_slices(40, 5).unwrap();
        for m in 0..10u32 {
            for h in 0..40u64 {
                let slice = slices
                    .iter()
                    .find(|s| h >= s.start_hour && h < s.end_hour)
                    .expect("hour covered");
                let base = 100.0 + (h % 5) as f64 + (m % 3) as f64;
                store.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: GroupKey::new(SkuId(0), ScId(1)),
                    hour: h,
                    metrics: MetricValues {
                        total_data_read_gb: base + if slice.treatment { 8.0 } else { 0.0 },
                        ..Default::default()
                    },
                });
            }
        }
        let res =
            analyze_time_slices(&store, &machines, &slices, 5, Metric::TotalDataRead).unwrap();
        assert!((res.effect.percent_change() - 7.8).abs() < 0.8, "{res:?}");
        assert!(res.effect.significant_at(0.001));
        // All-control schedules error.
        let controls_only: Vec<TimeSlice> = slices
            .iter()
            .filter(|s| !s.treatment)
            .copied()
            .collect();
        assert!(matches!(
            analyze_time_slices(&store, &machines, &controls_only, 0, Metric::TotalDataRead),
            Err(KeaError::NoObservations { .. })
        ));
    }

    #[test]
    fn analyze_empty_window_errors() {
        let (store, split) = synthetic_split_store(1.0);
        assert!(matches!(
            analyze(&store, &split, 100, 200, Metric::TotalDataRead),
            Err(KeaError::NoObservations { .. })
        ));
    }
}
