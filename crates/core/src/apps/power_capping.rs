//! Application 3: power capping via Experimental Tuning (§7.2,
//! Figure 15, Table 3 row 3).
//!
//! Capping applies per chassis, so the ideal every-other-machine setting
//! is impossible; the paper uses the *hybrid setting* with four
//! same-SKU machine groups per round:
//!
//! * Group A — no capping, Feature off (the baseline)
//! * Group B — no capping, Feature on
//! * Group C — capping, Feature off
//! * Group D — capping, Feature on
//!
//! and normalized metrics (Bytes per CPU Time, Bytes per Second) that are
//! robust to load differences. One round per capping level (10–30% below
//! provisioned), each run "for more than 24 hours".

use crate::error::KeaError;
use crate::experiment::{analyze, hybrid_groups, MachineSplit};
use kea_sim::{run, ClusterSpec, ConfigPatch, ConfigPlan, Flight, SimConfig, WorkloadSpec};
use kea_telemetry::{MachineId, Metric, SkuId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Experiment arms, named as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// No capping, Feature off (baseline).
    A,
    /// No capping, Feature on.
    B,
    /// Capping, Feature off.
    C,
    /// Capping, Feature on.
    D,
}

impl Arm {
    /// The three treatment arms compared against A.
    pub const TREATMENTS: [Arm; 3] = [Arm::B, Arm::C, Arm::D];

    /// The configuration patch this arm deploys at `cap_fraction`.
    fn patch(&self, cap_fraction: f64) -> ConfigPatch {
        match self {
            Arm::A => ConfigPatch::default(),
            Arm::B => ConfigPatch {
                feature_on: Some(true),
                ..Default::default()
            },
            Arm::C => ConfigPatch {
                power_cap_fraction: Some(cap_fraction),
                ..Default::default()
            },
            Arm::D => ConfigPatch {
                power_cap_fraction: Some(cap_fraction),
                feature_on: Some(true),
                ..Default::default()
            },
        }
    }

    /// Whether the arm has the Feature enabled.
    pub fn feature_on(&self) -> bool {
        matches!(self, Arm::B | Arm::D)
    }
}

/// Parameters of the power-capping study.
#[derive(Debug, Clone)]
pub struct PowerCappingParams {
    /// Cluster to experiment on.
    pub cluster: ClusterSpec,
    /// SKU under test (one SKU per study, as in the paper).
    pub sku: SkuId,
    /// Capping levels as fractions below provisioned power
    /// (paper: 0.10, 0.15, 0.20, 0.25, 0.30).
    pub cap_levels: Vec<f64>,
    /// Machines per arm (paper: 120).
    pub group_size: usize,
    /// Hours per round (paper: > 24).
    pub hours_per_round: u64,
    /// Warm-up hours excluded from analysis.
    pub warmup_hours: u64,
    /// RNG seed.
    pub seed: u64,
}

/// One cell of the Figure 15 matrix: an arm at a capping level.
#[derive(Debug, Clone, PartialEq)]
pub struct CappingCell {
    /// Capping level (fraction below provisioned).
    pub cap_level: f64,
    /// The arm.
    pub arm: Arm,
    /// Bytes-per-CPU-time change vs arm A, percent.
    pub bytes_per_cpu_change_pct: f64,
    /// Bytes-per-second change vs arm A, percent.
    pub bytes_per_sec_change_pct: f64,
    /// Welch t of the Bytes-per-CPU-time comparison.
    pub t_bytes_per_cpu: f64,
    /// Mean power drawn by the arm, watts (verifies the cap engaged).
    pub mean_power_w: f64,
}

/// Full study outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerCappingOutcome {
    /// All cells, ordered by (cap level, arm).
    pub cells: Vec<CappingCell>,
}

impl PowerCappingOutcome {
    /// Looks up one cell.
    pub fn cell(&self, cap_level: f64, arm: Arm) -> Option<&CappingCell> {
        self.cells
            .iter()
            .find(|c| (c.cap_level - cap_level).abs() < 1e-9 && c.arm == arm)
    }
}

/// Runs the power-capping study: one simulated round per capping level,
/// four arms flighted per round.
///
/// # Errors
/// The SKU must have `4 × group_size` machines; rounds must be longer
/// than the warm-up; every capping level must be a finite fraction in
/// (0, 1).
pub fn run_power_capping(params: &PowerCappingParams) -> Result<PowerCappingOutcome, KeaError> {
    if params.warmup_hours >= params.hours_per_round {
        return Err(KeaError::Design(
            "round must be longer than the warm-up".to_string(),
        ));
    }
    if params.cap_levels.is_empty() {
        return Err(KeaError::Design("no capping levels given".to_string()));
    }
    // A cap at or past either end of (0, 1) cannot engage as a cap below
    // provisioned power, and NaN compares false everywhere.
    if let Some(cap) = params.cap_levels.iter().find(|c| !(**c > 0.0 && **c < 1.0)) {
        return Err(KeaError::Design(format!(
            "capping level {cap} is not a fraction in (0, 1)"
        )));
    }
    let mut rng = StdRng::seed_from_u64(params.seed);
    let groups = hybrid_groups(&params.cluster, params.sku, 4, params.group_size, &mut rng)?;
    let arms = [Arm::A, Arm::B, Arm::C, Arm::D];

    // Saturated pressure: capping only matters on hot machines, and the
    // paper's clusters queue work at peaks (Figure 12).
    let workload = WorkloadSpec::default_for(&params.cluster, 1.1);
    let mut cells = Vec::new();
    for (round, &cap) in params.cap_levels.iter().enumerate() {
        let mut plan = ConfigPlan::baseline(&params.cluster.skus, kea_sim::SC1);
        for (arm, machines) in arms.iter().zip(&groups) {
            let patch = arm.patch(cap);
            if patch.is_empty() {
                continue; // Arm A runs the baseline.
            }
            plan.add_flight(Flight {
                label: format!("cap{:.0}%-{arm:?}", cap * 100.0),
                machines: machines.clone(),
                start_hour: 0,
                end_hour: params.hours_per_round,
                patch,
            });
        }
        let out = run(&SimConfig {
            cluster: params.cluster.clone(),
            workload: workload.clone(),
            plan,
            duration_hours: params.hours_per_round,
            // Distinct seed per round: rounds are separate deployments in
            // time, not replays.
            seed: params.seed.wrapping_add(round as u64 + 1),
            task_log_every: 0,
            adhoc_job_log_every: 0,
        });

        let window = (params.warmup_hours, params.hours_per_round);
        for arm in Arm::TREATMENTS {
            let Some(idx) = arms.iter().position(|a| *a == arm) else {
                continue; // arms holds every Arm variant; degrade by skipping
            };
            let split = MachineSplit {
                // kea-lint: allow(index-in-library) — groups and arms are parallel 4-entry arrays built above
                control: groups[0].clone(),
                treatment: groups[idx].clone(), // kea-lint: allow(index-in-library) — idx is a position into the parallel 4-entry arms array
            };
            let bpc = analyze(
                &out.telemetry,
                &split,
                window.0,
                window.1,
                Metric::BytesPerCpuTime,
            )?;
            let bps = analyze(
                &out.telemetry,
                &split,
                window.0,
                window.1,
                Metric::BytesPerSecond,
            )?;
            // kea-lint: allow(index-in-library) — idx is a position into arms, which zips 1:1 with groups
            let mean_power = arm_mean_power(&out.telemetry, &groups[idx], window)?;
            cells.push(CappingCell {
                cap_level: cap,
                arm,
                bytes_per_cpu_change_pct: bpc.effect.percent_change(),
                bytes_per_sec_change_pct: bps.effect.percent_change(),
                t_bytes_per_cpu: bpc.effect.test.t,
                mean_power_w: mean_power,
            });
        }
    }
    Ok(PowerCappingOutcome { cells })
}

fn arm_mean_power(
    store: &kea_telemetry::TelemetryStore,
    machines: &BTreeSet<MachineId>,
    window: (u64, u64),
) -> Result<f64, KeaError> {
    let samples = crate::experiment::machine_hour_samples(
        store,
        machines,
        window.0,
        window.1,
        Metric::PowerDraw,
    );
    if samples.is_empty() {
        return Err(KeaError::NoObservations {
            what: "power samples for arm".to_string(),
        });
    }
    Ok(samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> PowerCappingParams {
        PowerCappingParams {
            cluster: ClusterSpec::medium(),
            // Gen 1.1: the hottest machines, where deep caps clearly bite.
            sku: SkuId(0),
            cap_levels: vec![0.10, 0.30],
            group_size: 16,
            hours_per_round: 24,
            warmup_hours: 3,
            seed: 77,
        }
    }

    #[test]
    #[ignore = "slow (~4 s on the sharded engine) Monte-Carlo suite; run with `cargo test -- --ignored`"]
    fn reproduces_figure_15_shape() {
        let out = run_power_capping(&quick_params()).unwrap();
        assert_eq!(out.cells.len(), 2 * 3);

        // Feature alone (arm B) improves Bytes per CPU Time by ~5%
        // (1/0.95 − 1 ≈ 5.3% in the simulator's ground truth).
        let b10 = out.cell(0.10, Arm::B).unwrap();
        assert!(
            b10.bytes_per_cpu_change_pct > 2.0,
            "B at 10%: {b10:?}"
        );

        // Light capping without the Feature (arm C at 10%) is nearly
        // free: provisioned headroom absorbs it.
        let c10 = out.cell(0.10, Arm::C).unwrap();
        assert!(
            c10.bytes_per_cpu_change_pct.abs() < 3.0,
            "C at 10%: {c10:?}"
        );

        // Deep capping clearly hurts where light capping was free.
        let c30 = out.cell(0.30, Arm::C).unwrap();
        assert!(
            c30.bytes_per_cpu_change_pct < -1.5,
            "C at 30% must degrade: {c30:?}"
        );
        assert!(
            c30.bytes_per_cpu_change_pct < c10.bytes_per_cpu_change_pct,
            "C at 30% ({c30:?}) vs 10% ({c10:?})"
        );

        // Feature softens deep capping: D ≥ C at every level.
        for cap in [0.10, 0.30] {
            let c = out.cell(cap, Arm::C).unwrap();
            let d = out.cell(cap, Arm::D).unwrap();
            assert!(
                d.bytes_per_cpu_change_pct > c.bytes_per_cpu_change_pct,
                "at {cap}: D {d:?} vs C {c:?}"
            );
        }

        // The cap physically engages: the capped arm's draw never
        // exceeds the configured cap (30% below provisioned power).
        let params = quick_params();
        let sku = params.cluster.sku(params.sku);
        let cap_w = sku.provisioned_power_w * 0.70;
        assert!(
            c30.mean_power_w <= cap_w + 1e-6,
            "capped draw {} vs cap {cap_w}",
            c30.mean_power_w
        );
    }

    #[test]
    fn validates_parameters() {
        let mut p = quick_params();
        p.warmup_hours = 24;
        assert!(matches!(
            run_power_capping(&p),
            Err(KeaError::Design(_))
        ));
        let mut p = quick_params();
        p.cap_levels.clear();
        assert!(matches!(run_power_capping(&p), Err(KeaError::Design(_))));
        for cap in [f64::NAN, -1.0, 0.0, 1.0, f64::INFINITY] {
            let mut p = quick_params();
            p.cap_levels.push(cap);
            let refused = matches!(run_power_capping(&p), Err(KeaError::Design(_)));
            assert!(refused, "{cap}");
        }
        let mut p = quick_params();
        p.group_size = 10_000;
        assert!(matches!(run_power_capping(&p), Err(KeaError::Design(_))));
    }
}
