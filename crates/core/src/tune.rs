//! One observational tuning pass (§5.2, Figure 7): the Performance
//! Monitor's views feed the What-if Engine, whose calibrated models feed
//! the Optimizer.
//!
//! [`tune`] is the whole pass over a telemetry window: check the policy,
//! fit `g_k`, `h_k`, `f_k` per machine group, count each group's
//! machines `n_k` (each machine once, in the group of its latest record),
//! and solve the container-rebalancing LP with its integer repair. The
//! returned [`TunedPlan`] keeps the engine and the counts, so a caller
//! can re-solve at other operating points or step bounds without
//! refitting (the Figure 10 sensitivity runs).

use crate::error::KeaError;
use crate::monitor::PerformanceMonitor;
use crate::optimizer::{check_max_step, optimize_max_containers, OperatingPoint, YarnOptimization};
use crate::whatif::{FitMethod, Granularity, WhatIfEngine};
use kea_telemetry::{GroupKey, TelemetryStore};
use std::collections::BTreeMap;

/// Fewest usable training rows a group needs to be fitted: a day of
/// hourly observations. Sparser groups are skipped rather than fitted
/// badly.
const MIN_ROWS: usize = 24;

/// How a tuning pass fits and solves.
///
/// The default is the paper's first production round: Huber fits on
/// hourly rows, a conservative step bound `δ = 1`, linearized at the
/// median observed load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunePolicy {
    /// Estimator for the per-group models.
    pub method: FitMethod,
    /// Training-row granularity.
    pub granularity: Granularity,
    /// Roll-out bound `δ` on each group's container step (1 in the
    /// paper's first round, 2 in the next).
    pub max_step: f64,
    /// Operating point the latency constraint is linearized around.
    pub at: OperatingPoint,
}

impl Default for TunePolicy {
    fn default() -> Self {
        TunePolicy {
            method: FitMethod::Huber,
            granularity: Granularity::Hourly,
            max_step: 1.0,
            at: OperatingPoint::Median,
        }
    }
}

/// What one tuning pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedPlan {
    /// The calibrated What-if Engine (Figure 9).
    pub engine: WhatIfEngine,
    /// Machines per group in the window, each counted once in the group
    /// of its latest record: the LP's `n_k`.
    pub machine_counts: BTreeMap<GroupKey, usize>,
    /// The suggested per-group steps (Figure 10).
    pub plan: YarnOptimization,
}

/// Runs one observational tuning pass over `store` under `policy`.
///
/// A machine that a flight moved between groups inside the window counts
/// once, in the group it ended up in, so a group that existed only while
/// a flight was live drops out of the plan.
///
/// # Errors
/// [`KeaError::Opt`] when `max_step` is not a finite step in
/// `(0, i32::MAX]`, checked before any other work;
/// [`KeaError::NoObservations`] when no group has enough usable rows to
/// fit or no group's fit succeeds; [`KeaError::Design`] when fewer than
/// two groups are fitted and counted (one group has nothing to
/// re-balance against). A group whose fit fails is left out of the plan,
/// as a group under the row floor is.
pub fn tune(store: &TelemetryStore, policy: &TunePolicy) -> Result<TunedPlan, KeaError> {
    check_max_step(policy.max_step)?;
    let monitor = PerformanceMonitor::new(store);
    let engine = WhatIfEngine::fit_at(&monitor, policy.method, policy.granularity, MIN_ROWS)?;
    let machine_counts = monitor.machine_counts();
    let plan = optimize_max_containers(&engine, &machine_counts, policy.max_step, policy.at)?;
    Ok(TunedPlan {
        engine,
        machine_counts,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kea_sim::{run, ClusterSpec, SimConfig};

    #[test]
    fn tune_matches_the_hand_stitched_pass() {
        // The pass `tune` replaced: monitor, fit with the 24-row floor,
        // count machines per group, solve. Same engine, counts and plan.
        let out = run(&SimConfig::baseline(ClusterSpec::tiny(), 48, 7));
        let monitor = PerformanceMonitor::new(&out.telemetry);
        let engine =
            WhatIfEngine::fit_at(&monitor, FitMethod::Huber, Granularity::Hourly, 24).unwrap();
        let counts: BTreeMap<GroupKey, usize> = monitor
            .group_utilization()
            .into_iter()
            .map(|g| (g.group, g.machines))
            .collect();
        let second_round = TunePolicy {
            max_step: 2.0,
            at: OperatingPoint::Percentile(90.0),
            ..TunePolicy::default()
        };
        for (policy, max_step, at) in [
            (TunePolicy::default(), 1.0, OperatingPoint::Median),
            (second_round, 2.0, OperatingPoint::Percentile(90.0)),
        ] {
            let tuned = tune(&out.telemetry, &policy).unwrap();
            assert_eq!(tuned.engine, engine);
            assert_eq!(tuned.machine_counts, counts);
            let plan = optimize_max_containers(&engine, &counts, max_step, at).unwrap();
            assert_eq!(tuned.plan, plan, "{policy:?}");
        }
    }
}
