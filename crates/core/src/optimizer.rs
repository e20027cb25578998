//! The Optimizer for YARN configuration tuning (§5.2, Equations 7–10).
//!
//! The paper maximizes total running containers `Σ m_k n_k` subject to
//! the cluster-wide average task latency not regressing:
//! `W̄(m) ≤ W̄(m')` with `W̄ = Σ w_k l_k n_k / Σ l_k n_k`, where `w_k` and
//! `l_k` are themselves functions of `m_k` through the calibrated models.
//! That constraint is nonlinear in `m`; the paper solves a linear program,
//! which implies linearization around the current operating point — and
//! production only ever moves "by a small margin, i.e. decrease or
//! increase the maximum running containers … by one", so a first-order
//! model is exact enough by construction. We therefore solve, in the step
//! variables `d_k = m_k − m'_k`:
//!
//! ```text
//! max  Σ n_k d_k
//! s.t. Σ (∂W̄/∂m_k)|_{m'} · d_k ≤ 0        (latency budget, linearized)
//!      −δ ≤ d_k ≤ δ                        (conservative roll-out)
//! ```
//!
//! and verify the *nonlinear* W̄ at the rounded solution before reporting.
//!
//! ## Scaling to fleet-sized group counts
//!
//! `W̄` is a ratio of sums with exactly one additive term per group, and
//! every evaluation the optimizer needs after the operating point —
//! gradient components, rounding-repair probes — perturbs a *single*
//! group. A per-cluster latency cache therefore caches each group's
//! `(l_k·n_k, w_k·l_k·n_k)` contribution once and answers "what is W̄ if
//! only group k moves?" in O(1), making the whole gradient O(G) and each
//! repair step O(1) instead of O(G). The previous full-recompute
//! implementation is preserved in [`reference`](mod@reference) so tests
//! can assert numerical equivalence and benches can measure the speedup.

// kea-lint: allow-file(index-in-library) — parallel per-group vectors all have identical length G, established in optimization_inputs

use crate::error::KeaError;
use crate::whatif::WhatIfEngine;
use kea_opt::{LpProblem, Relation};
use kea_telemetry::GroupKey;
use std::collections::BTreeMap;

/// Which operating point to linearize around.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OperatingPoint {
    /// The median observed load (the paper's default run).
    Median,
    /// A high-load percentile of observed containers (the paper's
    /// sensitivity run, e.g. 90.0). Values outside `[0, 100]` are clamped
    /// to the nearest observed extreme rather than rejected.
    Percentile(f64),
}

/// A per-group suggested configuration change.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSuggestion {
    /// The machine group.
    pub group: GroupKey,
    /// Machines in the group.
    pub n_machines: usize,
    /// Operating point used (`m'_k`).
    pub current_containers: f64,
    /// Continuous LP solution `d_k`.
    pub delta_continuous: f64,
    /// Conservative integer step (rounded, clamped to the step limit).
    pub delta_step: i32,
    /// Latency gradient `∂W̄/∂m_k` at the operating point (s/container).
    pub latency_gradient: f64,
}

/// Result of the YARN optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct YarnOptimization {
    /// Per-group suggestions, sorted by group key.
    pub suggestions: Vec<GroupSuggestion>,
    /// Cluster-average latency at the operating point, seconds.
    pub baseline_latency: f64,
    /// Predicted cluster-average latency after applying the *integer*
    /// steps, via the full nonlinear models.
    pub predicted_latency: f64,
    /// Predicted relative capacity gain: `Σ n_k d_k / Σ n_k m'_k`.
    /// Zero when the fleet has no current capacity to compare against
    /// and nothing moved; infinite when capacity appears from a
    /// zero-container base.
    pub predicted_capacity_gain: f64,
}

impl YarnOptimization {
    /// Suggested integer steps as a map (for feeding into a
    /// [`kea_sim::ConfigPlan`]).
    pub fn steps(&self) -> BTreeMap<GroupKey, i32> {
        self.suggestions
            .iter()
            .map(|s| (s.group, s.delta_step))
            .collect()
    }
}

/// Central-difference half-width for the latency gradient, in containers.
const GRADIENT_EPS: f64 = 0.05;

/// Relative slack allowed when re-checking the latency budget after
/// integer rounding.
const LATENCY_SLACK: f64 = 1e-9;

/// Cluster-average latency `W̄` at container vector `m` (nonlinear, via
/// the calibrated models), recomputed from scratch in O(G).
fn cluster_latency(
    engine: &WhatIfEngine,
    counts: &BTreeMap<GroupKey, usize>,
    m: &BTreeMap<GroupKey, f64>,
) -> Result<f64, KeaError> {
    let mut num = 0.0;
    let mut den = 0.0;
    for (group, &containers) in m {
        let n = *counts.get(group).unwrap_or(&0) as f64;
        if n == 0.0 {
            continue;
        }
        let (_, tasks, latency) = engine.predict(*group, containers)?;
        num += latency * tasks * n;
        den += tasks * n;
    }
    if den <= 0.0 {
        return Err(KeaError::NoObservations {
            what: "cluster latency denominator is zero".to_string(),
        });
    }
    Ok(num / den)
}

/// Per-group contributions to `W̄ = Σ w_k l_k n_k / Σ l_k n_k`, cached at
/// a base container vector so single-group perturbations are O(1).
struct ClusterLatencyCache<'a> {
    /// Calibrated models per group, resolved once (every perturbation
    /// would otherwise pay a map lookup).
    models: Vec<&'a crate::whatif::GroupModels>,
    n_machines: Vec<f64>,
    /// Current container count per group (the cache's base point).
    containers: Vec<f64>,
    /// Per-group `(l_k·n_k, w_k·l_k·n_k)` at the base point.
    terms: Vec<(f64, f64)>,
    /// Running `Σ l_k n_k` over all groups.
    den: f64,
    /// Running `Σ w_k l_k n_k` over all groups.
    num: f64,
}

impl<'a> ClusterLatencyCache<'a> {
    fn new(
        engine: &'a WhatIfEngine,
        groups: &[GroupKey],
        n_machines: Vec<f64>,
        containers: Vec<f64>,
    ) -> Result<Self, KeaError> {
        let models = groups
            .iter()
            .map(|&g| {
                engine.group(g).ok_or_else(|| KeaError::NoObservations {
                    what: format!("no calibrated models for {g:?}"),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut cache = ClusterLatencyCache {
            models,
            n_machines,
            containers,
            terms: Vec::with_capacity(groups.len()),
            den: 0.0,
            num: 0.0,
        };
        for i in 0..groups.len() {
            let term = cache.term(i, cache.containers[i]);
            cache.den += term.0;
            cache.num += term.1;
            cache.terms.push(term);
        }
        Ok(cache)
    }

    /// One group's `(l_k·n_k, w_k·l_k·n_k)` at a hypothetical container
    /// count.
    fn term(&self, idx: usize, containers: f64) -> (f64, f64) {
        let m = self.models[idx];
        let util = m.predict_util(containers);
        let tasks = m.predict_tasks_per_hour(util);
        let latency = m.predict_latency(util);
        let n = self.n_machines[idx];
        (tasks * n, latency * tasks * n)
    }

    fn ratio(num: f64, den: f64) -> Result<f64, KeaError> {
        if den <= 0.0 {
            return Err(KeaError::NoObservations {
                what: "cluster latency denominator is zero".to_string(),
            });
        }
        Ok(num / den)
    }

    /// `W̄` at the base point.
    fn latency(&self) -> Result<f64, KeaError> {
        Self::ratio(self.num, self.den)
    }

    /// `W̄` if *only* group `idx` moved to `containers` — O(1), the base
    /// point is left untouched.
    fn latency_with(&self, idx: usize, containers: f64) -> Result<f64, KeaError> {
        let (d, n) = self.term(idx, containers);
        Self::ratio(
            self.num - self.terms[idx].1 + n,
            self.den - self.terms[idx].0 + d,
        )
    }

    /// Moves group `idx` to `containers`, updating the cached sums — O(1).
    fn set(&mut self, idx: usize, containers: f64) {
        let term = self.term(idx, containers);
        self.den += term.0 - self.terms[idx].0;
        self.num += term.1 - self.terms[idx].1;
        self.terms[idx] = term;
        self.containers[idx] = containers;
    }
}

/// Participating groups, their machine counts, and the operating-point
/// container vector, index-aligned.
type OptimizationInputs = (Vec<GroupKey>, Vec<f64>, Vec<f64>);

/// The calibrated groups that participate in the optimization, with
/// their machine counts and operating point.
fn optimization_inputs(
    engine: &WhatIfEngine,
    machine_counts: &BTreeMap<GroupKey, usize>,
    at: OperatingPoint,
) -> Result<OptimizationInputs, KeaError> {
    let groups: Vec<GroupKey> = engine
        .groups()
        .map(|g| g.group)
        .filter(|g| machine_counts.get(g).copied().unwrap_or(0) > 0)
        .collect();
    if groups.len() < 2 {
        return Err(KeaError::Design(
            "re-balancing needs at least two machine groups".to_string(),
        ));
    }
    let n_machines: Vec<f64> = groups
        .iter()
        .map(|g| machine_counts[g] as f64)
        .collect();
    let current: Vec<f64> = groups
        .iter()
        .map(|&g| {
            let models = engine
                .group(g)
                .ok_or_else(|| KeaError::Design(format!("group {g:?} not fitted by engine")))?;
            Ok(match at {
                OperatingPoint::Median => models.current_containers,
                OperatingPoint::Percentile(p) => models.containers_percentile(p),
            })
        })
        .collect::<Result<_, KeaError>>()?;
    Ok((groups, n_machines, current))
}

/// The two evaluation points of the latency gradient's central
/// difference, with the low side clamped so the probe never asks the
/// models about negative container counts.
fn gradient_probe_points(current: f64) -> (f64, f64) {
    (current + GRADIENT_EPS, (current - GRADIENT_EPS).max(0.0))
}

/// `Σ n_k d_k / Σ n_k m'_k` without dividing by zero: a fleet observed at
/// zero containers everywhere reports `0` for a do-nothing plan and `+∞`
/// for a plan that adds capacity, never `NaN`.
fn capacity_gain(total_delta: f64, total_current: f64) -> f64 {
    if total_current > 0.0 {
        total_delta / total_current
    } else if total_delta == 0.0 {
        0.0
    } else {
        f64::INFINITY * total_delta.signum()
    }
}

/// Solves the YARN `max_running_containers` tuning problem.
///
/// `machine_counts` gives `n_k` per group; `max_step` is the conservative
/// roll-out bound `δ` (the paper used 1 for the first round, 2 for the
/// next).
///
/// Gradient evaluation and rounding repair run in O(G) total via a
/// per-cluster latency cache; see [`reference::optimize_max_containers`]
/// for the O(G²) full-recompute baseline they are verified against.
///
/// # Errors
/// Needs at least two calibrated groups (with one group there is nothing
/// to re-balance), a positive step, and a solvable LP.
pub fn optimize_max_containers(
    engine: &WhatIfEngine,
    machine_counts: &BTreeMap<GroupKey, usize>,
    max_step: f64,
    at: OperatingPoint,
) -> Result<YarnOptimization, KeaError> {
    optimize_max_containers_warm(engine, machine_counts, max_step, at, &mut None)
}

/// [`optimize_max_containers`] with an explicit LP warm-start slot.
///
/// `warm` carries the optimal [`Basis`](kea_opt::Basis) between calls:
/// pass the slot left by a previous solve over the *same groups* (a
/// different operating point or sensitivity percentile only re-costs the
/// LP — same shape) and the simplex restarts from that basis instead of
/// from scratch. On success the slot is updated with this solve's
/// optimal basis. A stale or mismatched basis is detected by the solver
/// and falls back to a cold start, so the result is always identical to
/// [`optimize_max_containers`].
///
/// # Errors
/// Same conditions as [`optimize_max_containers`].
pub fn optimize_max_containers_warm(
    engine: &WhatIfEngine,
    machine_counts: &BTreeMap<GroupKey, usize>,
    max_step: f64,
    at: OperatingPoint,
    warm: &mut Option<kea_opt::Basis>,
) -> Result<YarnOptimization, KeaError> {
    if max_step <= 0.0 {
        return Err(KeaError::Opt(kea_opt::OptError::InvalidParameter(
            "max_step must be positive",
        )));
    }
    let (groups, n_machines, current) = optimization_inputs(engine, machine_counts, at)?;

    // Cache each group's contribution at the operating point m'.
    let mut cache =
        ClusterLatencyCache::new(engine, &groups, n_machines.clone(), current.clone())?;
    let baseline_latency = cache.latency()?;
    let budget = baseline_latency * (1.0 + LATENCY_SLACK);

    // Numerical gradient of W̄ w.r.t. each m_k (central difference, low
    // side clamped at zero containers). Each component perturbs a single
    // group, so both probes are O(1) against the cache: O(G) in total.
    let mut gradients = Vec::with_capacity(groups.len());
    for (i, &c) in current.iter().enumerate() {
        let (hi, lo) = gradient_probe_points(c);
        let w_plus = cache.latency_with(i, hi)?;
        let w_minus = cache.latency_with(i, lo)?;
        gradients.push((w_plus - w_minus) / (hi - lo));
    }

    // LP in the step variables.
    let mut lp = LpProblem::maximize(n_machines.clone()).constraint(
        gradients.clone(),
        Relation::Le,
        0.0,
    )?;
    for i in 0..groups.len() {
        lp = lp.bounds(i, -max_step, Some(max_step))?;
    }
    let (sol, basis) = lp.solve_warm(warm.as_ref())?;
    *warm = Some(basis);

    // Conservative integer rounding, re-checked against the latency
    // budget: shrink positive steps until the nonlinear W̄ clears the
    // baseline (rounding error can otherwise leak latency). The cache is
    // advanced to the rounded proposal so each withdrawal is O(1).
    let mut steps: Vec<i32> = sol
        .x
        .iter()
        .map(|&d| d.round().clamp(-max_step, max_step) as i32)
        .collect();
    let mut net = 0.0;
    for (i, &s) in steps.iter().enumerate() {
        cache.set(i, current[i] + s as f64);
        net += s as f64 * n_machines[i];
    }
    while cache.latency()? > budget {
        // Withdraw the positive step with the worst latency gradient.
        let Some(worst) = steps
            .iter()
            .enumerate()
            .filter(|(_, s)| **s > 0)
            .max_by(|(i, _), (j, _)| gradients[*i].total_cmp(&gradients[*j]))
            .map(|(i, _)| i)
        else {
            break; // No positive steps left; accept.
        };
        steps[worst] -= 1;
        net -= n_machines[worst];
        cache.set(worst, current[worst] + steps[worst] as f64);
    }
    // Rounding can also strand capacity: a continuous +0.4 rounds to 0
    // while a −0.6 rounds to −1, leaving Σ n_k·d_k < 0 even though the
    // continuous optimum was non-negative (d = 0 is always feasible).
    // Relax negative steps back toward zero where the latency budget
    // allows, largest machine groups first; if the plan still loses
    // capacity, fall back to the do-nothing plan. Probing a candidate is
    // a single-group O(1) peek at the cache.
    while net < 0.0 {
        let mut candidates: Vec<usize> = steps
            .iter()
            .enumerate()
            .filter(|(_, s)| **s < 0)
            .map(|(i, _)| i)
            .collect();
        candidates.sort_by(|&a, &b| n_machines[b].total_cmp(&n_machines[a]));
        let mut relaxed = false;
        for i in candidates {
            let candidate = current[i] + (steps[i] + 1) as f64;
            if cache.latency_with(i, candidate)? <= budget {
                steps[i] += 1;
                net += n_machines[i];
                cache.set(i, candidate);
                relaxed = true;
                break;
            }
        }
        if !relaxed {
            for (i, s) in steps.iter_mut().enumerate() {
                *s = 0;
                cache.set(i, current[i]);
            }
            break;
        }
    }

    // Final verification through a full recompute of the nonlinear W̄ —
    // one O(G) pass that is independent of the incrementally maintained
    // sums above.
    let proposal: BTreeMap<GroupKey, f64> = groups
        .iter()
        .zip(&cache.containers)
        .map(|(&g, &c)| (g, c))
        .collect();
    let predicted_latency = cluster_latency(engine, machine_counts, &proposal)?;

    let total_current: f64 = current
        .iter()
        .zip(&n_machines)
        .map(|(c, n)| c * n)
        .sum();
    let total_delta: f64 = steps
        .iter()
        .zip(&n_machines)
        .map(|(&s, n)| s as f64 * n)
        .sum();

    let suggestions = groups
        .iter()
        .enumerate()
        .map(|(i, &g)| GroupSuggestion {
            group: g,
            n_machines: machine_counts[&g],
            current_containers: current[i],
            delta_continuous: sol.x[i],
            delta_step: steps[i],
            latency_gradient: gradients[i],
        })
        .collect();

    Ok(YarnOptimization {
        suggestions,
        baseline_latency,
        predicted_latency,
        predicted_capacity_gain: capacity_gain(total_delta, total_current),
    })
}

/// Solves the YARN tuning problem at a sequence of operating points —
/// the `Median` plan plus its sensitivity percentiles — warm-starting
/// each LP from the previous point's optimal basis.
///
/// Moving the operating point re-costs the LP (new latency gradients)
/// but keeps its shape — same groups, same `[−δ, δ]` step box, one
/// latency row — and nearby operating points rarely change which groups
/// sit at the box edges, so the previous basis is usually optimal or a
/// pivot or two away. Results are identical to calling
/// [`optimize_max_containers`] once per point.
///
/// # Errors
/// Propagates the first failing point's error (same conditions as
/// [`optimize_max_containers`]); `points` must be non-empty.
pub fn optimize_sweep(
    engine: &WhatIfEngine,
    machine_counts: &BTreeMap<GroupKey, usize>,
    max_step: f64,
    points: &[OperatingPoint],
) -> Result<Vec<YarnOptimization>, KeaError> {
    if points.is_empty() {
        return Err(KeaError::Opt(kea_opt::OptError::InvalidParameter(
            "sweep needs at least one operating point",
        )));
    }
    let mut warm = None;
    points
        .iter()
        .map(|&at| optimize_max_containers_warm(engine, machine_counts, max_step, at, &mut warm))
        .collect()
}

pub mod reference {
    //! The pre-optimization O(G²) implementation, kept as an executable
    //! specification: every `cluster_latency` evaluation recomputes all G
    //! group contributions (with two full `BTreeMap` clones per gradient
    //! component), so gradients cost 2G·O(G) and every rounding-repair
    //! probe another O(G). `crates/core/tests/proptest_optimizer.rs`
    //! asserts the incremental path matches this one, and the
    //! `optimizer_scale` bench measures the gap. Not for production use.

    use super::*;

    /// Full-recompute central-difference latency gradients at the
    /// operating point (the quantity the incremental cache must match).
    ///
    /// # Errors
    /// Same conditions as [`super::optimize_max_containers`].
    pub fn latency_gradients(
        engine: &WhatIfEngine,
        machine_counts: &BTreeMap<GroupKey, usize>,
        at: OperatingPoint,
    ) -> Result<Vec<f64>, KeaError> {
        let (groups, _, current) = optimization_inputs(engine, machine_counts, at)?;
        let current_map: BTreeMap<GroupKey, f64> = groups
            .iter()
            .copied()
            .zip(current.iter().copied())
            .collect();
        let mut gradients = Vec::with_capacity(groups.len());
        for (i, &g) in groups.iter().enumerate() {
            let (hi, lo) = gradient_probe_points(current[i]);
            let mut plus = current_map.clone();
            plus.insert(g, hi);
            let mut minus = current_map.clone();
            minus.insert(g, lo);
            let w_plus = cluster_latency(engine, machine_counts, &plus)?;
            let w_minus = cluster_latency(engine, machine_counts, &minus)?;
            gradients.push((w_plus - w_minus) / (hi - lo));
        }
        Ok(gradients)
    }

    /// The original `optimize_max_containers`: identical contract and
    /// (up to floating-point noise well below any decision threshold)
    /// identical output, but every latency evaluation is a full O(G)
    /// recompute.
    ///
    /// # Errors
    /// Same conditions as [`super::optimize_max_containers`].
    pub fn optimize_max_containers(
        engine: &WhatIfEngine,
        machine_counts: &BTreeMap<GroupKey, usize>,
        max_step: f64,
        at: OperatingPoint,
    ) -> Result<YarnOptimization, KeaError> {
        if max_step <= 0.0 {
            return Err(KeaError::Opt(kea_opt::OptError::InvalidParameter(
                "max_step must be positive",
            )));
        }
        let (groups, n_machines, current_vec) =
            optimization_inputs(engine, machine_counts, at)?;
        let current: BTreeMap<GroupKey, f64> = groups
            .iter()
            .copied()
            .zip(current_vec.iter().copied())
            .collect();
        let baseline_latency = cluster_latency(engine, machine_counts, &current)?;
        let gradients = latency_gradients(engine, machine_counts, at)?;

        let mut lp = LpProblem::maximize(n_machines.clone()).constraint(
            gradients.clone(),
            Relation::Le,
            0.0,
        )?;
        for i in 0..groups.len() {
            lp = lp.bounds(i, -max_step, Some(max_step))?;
        }
        let sol = lp.solve()?;

        let mut steps: Vec<i32> = sol
            .x
            .iter()
            .map(|&d| d.round().clamp(-max_step, max_step) as i32)
            .collect();
        let latency_of = |steps: &[i32]| -> Result<f64, KeaError> {
            let proposal: BTreeMap<GroupKey, f64> = groups
                .iter()
                .zip(steps)
                .map(|(&g, &s)| (g, current[&g] + s as f64))
                .collect();
            cluster_latency(engine, machine_counts, &proposal)
        };
        loop {
            if latency_of(&steps)? <= baseline_latency * (1.0 + LATENCY_SLACK) {
                break;
            }
            let Some(worst) = steps
                .iter()
                .enumerate()
                .filter(|(_, s)| **s > 0)
                .max_by(|(i, _), (j, _)| gradients[*i].total_cmp(&gradients[*j]))
                .map(|(i, _)| i)
            else {
                break;
            };
            steps[worst] -= 1;
        }
        let net = |steps: &[i32]| -> f64 {
            steps
                .iter()
                .zip(&n_machines)
                .map(|(&s, n)| s as f64 * n)
                .sum()
        };
        while net(&steps) < 0.0 {
            let mut candidates: Vec<usize> = steps
                .iter()
                .enumerate()
                .filter(|(_, s)| **s < 0)
                .map(|(i, _)| i)
                .collect();
            candidates.sort_by(|&a, &b| n_machines[b].total_cmp(&n_machines[a]));
            let mut relaxed = false;
            for i in candidates {
                steps[i] += 1;
                if latency_of(&steps)? <= baseline_latency * (1.0 + LATENCY_SLACK) {
                    relaxed = true;
                    break;
                }
                steps[i] -= 1;
            }
            if !relaxed {
                steps.fill(0);
                break;
            }
        }

        let proposal: BTreeMap<GroupKey, f64> = groups
            .iter()
            .zip(&steps)
            .map(|(&g, &s)| (g, current[&g] + s as f64))
            .collect();
        let predicted_latency = cluster_latency(engine, machine_counts, &proposal)?;

        let total_current: f64 = current_vec
            .iter()
            .zip(&n_machines)
            .map(|(c, n)| c * n)
            .sum();
        let total_delta: f64 = steps
            .iter()
            .zip(&n_machines)
            .map(|(&s, n)| s as f64 * n)
            .sum();

        let suggestions = groups
            .iter()
            .enumerate()
            .map(|(i, &g)| GroupSuggestion {
                group: g,
                n_machines: machine_counts[&g],
                current_containers: current_vec[i],
                delta_continuous: sol.x[i],
                delta_step: steps[i],
                latency_gradient: gradients[i],
            })
            .collect();

        Ok(YarnOptimization {
            suggestions,
            baseline_latency,
            predicted_latency,
            predicted_capacity_gain: capacity_gain(total_delta, total_current),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::PerformanceMonitor;
    use crate::whatif::FitMethod;
    use kea_telemetry::{
        MachineHourRecord, MachineId, MetricValues, ScId, SkuId, TelemetryStore,
    };

    /// Two synthetic groups: group 0 is "slow" (steep latency-vs-util),
    /// group 1 is "fast" (shallow). Rebalancing should shift containers
    /// from slow to fast.
    fn two_group_store() -> TelemetryStore {
        let mut s = TelemetryStore::new();
        for m in 0..20u32 {
            let slow = m < 10;
            let sku = if slow { 0 } else { 5 };
            for h in 0..72u64 {
                let containers = 6.0 + (m % 5) as f64 * 0.8 + (h % 6) as f64 * 0.4;
                let util = if slow {
                    8.0 * containers
                } else {
                    3.0 * containers
                };
                let latency = if slow {
                    200.0 + 6.0 * util
                } else {
                    100.0 + 1.0 * util
                };
                let tasks = if slow { 1.2 * util } else { 3.0 * util };
                s.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: kea_telemetry::GroupKey::new(SkuId(sku), ScId(1)),
                    hour: h,
                    metrics: MetricValues {
                        avg_running_containers: containers,
                        cpu_utilization: util,
                        tasks_finished: tasks,
                        avg_task_latency_s: latency,
                        ..Default::default()
                    },
                });
            }
        }
        s
    }

    fn counts() -> BTreeMap<kea_telemetry::GroupKey, usize> {
        [
            (kea_telemetry::GroupKey::new(SkuId(0), ScId(1)), 100),
            (kea_telemetry::GroupKey::new(SkuId(5), ScId(1)), 100),
        ]
        .into_iter()
        .collect()
    }

    fn engine(store: &TelemetryStore) -> (PerformanceMonitor<'_>, WhatIfEngine) {
        let mon = PerformanceMonitor::new(store);
        let eng = WhatIfEngine::fit(&mon, FitMethod::Huber, 5).unwrap();
        (mon, eng)
    }

    #[test]
    fn shifts_load_from_slow_to_fast() {
        let store = two_group_store();
        let (_mon, eng) = engine(&store);
        let opt =
            optimize_max_containers(&eng, &counts(), 1.0, OperatingPoint::Median).unwrap();
        let slow = &opt.suggestions[0];
        let fast = &opt.suggestions[1];
        assert_eq!(slow.group.sku, SkuId(0));
        assert!(
            slow.delta_step <= 0,
            "slow group should shrink: {:?}",
            slow
        );
        assert!(fast.delta_step >= 1, "fast group should grow: {:?}", fast);
        // Latency budget respected by the integer plan.
        assert!(opt.predicted_latency <= opt.baseline_latency * (1.0 + 1e-9));
        // The paper's direction: net capacity should not fall.
        assert!(opt.predicted_capacity_gain >= 0.0);
    }

    #[test]
    fn high_percentile_run_same_direction() {
        // Figure 10: "the suggested configuration change is the same in
        // terms of the direction for the gradients" under heavy load.
        let store = two_group_store();
        let (_mon, eng) = engine(&store);
        let median =
            optimize_max_containers(&eng, &counts(), 1.0, OperatingPoint::Median).unwrap();
        let p90 = optimize_max_containers(
            &eng,
            &counts(),
            1.0,
            OperatingPoint::Percentile(90.0),
        )
        .unwrap();
        for (a, b) in median.suggestions.iter().zip(&p90.suggestions) {
            assert_eq!(
                a.delta_step.signum(),
                b.delta_step.signum(),
                "direction must agree: {a:?} vs {b:?}"
            );
        }
        // Operating points differ though.
        assert!(p90.suggestions[0].current_containers > median.suggestions[0].current_containers);
    }

    #[test]
    fn warm_sweep_matches_individual_solves() {
        // The warm-started sweep must be a pure performance optimization:
        // every per-point plan identical to a cold solve at that point.
        let store = two_group_store();
        let (_mon, eng) = engine(&store);
        let points = [
            OperatingPoint::Median,
            OperatingPoint::Percentile(75.0),
            OperatingPoint::Percentile(90.0),
            OperatingPoint::Percentile(95.0),
            OperatingPoint::Percentile(99.0),
        ];
        let swept = optimize_sweep(&eng, &counts(), 1.0, &points).unwrap();
        assert_eq!(swept.len(), points.len());
        for (at, warm) in points.iter().zip(&swept) {
            let cold = optimize_max_containers(&eng, &counts(), 1.0, *at).unwrap();
            assert_eq!(
                warm.suggestions.len(),
                cold.suggestions.len(),
                "at {at:?}"
            );
            for (w, c) in warm.suggestions.iter().zip(&cold.suggestions) {
                assert_eq!(w.group, c.group);
                assert_eq!(w.delta_step, c.delta_step, "at {at:?}");
                assert!(
                    (w.delta_continuous - c.delta_continuous).abs() < 1e-9,
                    "continuous optima diverge at {at:?}: {} vs {}",
                    w.delta_continuous,
                    c.delta_continuous
                );
            }
            assert!((warm.predicted_latency - cold.predicted_latency).abs() < 1e-9);
            assert!(
                (warm.predicted_capacity_gain - cold.predicted_capacity_gain).abs() < 1e-12
            );
        }
    }

    #[test]
    fn sweep_rejects_empty_points() {
        let store = two_group_store();
        let (_mon, eng) = engine(&store);
        assert!(optimize_sweep(&eng, &counts(), 1.0, &[]).is_err());
    }

    #[test]
    fn larger_step_bound_allows_bigger_moves() {
        let store = two_group_store();
        let (_mon, eng) = engine(&store);
        let one = optimize_max_containers(&eng, &counts(), 1.0, OperatingPoint::Median).unwrap();
        let two = optimize_max_containers(&eng, &counts(), 2.0, OperatingPoint::Median).unwrap();
        let gain = |o: &YarnOptimization| o.predicted_capacity_gain;
        assert!(gain(&two) >= gain(&one) - 1e-9);
        for s in &two.suggestions {
            assert!(s.delta_step.abs() <= 2);
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let store = two_group_store();
        let (_mon, eng) = engine(&store);
        assert!(optimize_max_containers(&eng, &counts(), 0.0, OperatingPoint::Median).is_err());
        // Single group: nothing to rebalance.
        let single: BTreeMap<_, _> = counts().into_iter().take(1).collect();
        assert!(matches!(
            optimize_max_containers(&eng, &single, 1.0, OperatingPoint::Median),
            Err(KeaError::Design(_))
        ));
    }

    #[test]
    fn gradients_reflect_latency_steepness() {
        let store = two_group_store();
        let (_mon, eng) = engine(&store);
        let opt =
            optimize_max_containers(&eng, &counts(), 1.0, OperatingPoint::Median).unwrap();
        let slow = &opt.suggestions[0];
        let fast = &opt.suggestions[1];
        assert!(
            slow.latency_gradient > fast.latency_gradient,
            "slow group must have the steeper latency gradient"
        );
    }

    #[test]
    fn incremental_plan_matches_reference_plan() {
        let store = two_group_store();
        let (_mon, eng) = engine(&store);
        for at in [OperatingPoint::Median, OperatingPoint::Percentile(90.0)] {
            let fast = optimize_max_containers(&eng, &counts(), 1.0, at).unwrap();
            let slow = reference::optimize_max_containers(&eng, &counts(), 1.0, at).unwrap();
            assert_eq!(fast.steps(), slow.steps());
            for (a, b) in fast.suggestions.iter().zip(&slow.suggestions) {
                assert!(
                    (a.latency_gradient - b.latency_gradient).abs() < 1e-9,
                    "gradient drift: {} vs {}",
                    a.latency_gradient,
                    b.latency_gradient
                );
            }
            assert!((fast.baseline_latency - slow.baseline_latency).abs() < 1e-9);
            assert!((fast.predicted_latency - slow.predicted_latency).abs() < 1e-9);
        }
    }

    /// Telemetry from machines that are idle (zero running containers)
    /// most hours with occasional bursts: the *median* containers is zero
    /// in every group, the historical NaN-capacity-gain input. The bursts
    /// keep the per-group fits non-singular.
    fn zero_container_store() -> TelemetryStore {
        let mut s = TelemetryStore::new();
        for m in 0..12u32 {
            let sku = if m < 6 { 0 } else { 5 };
            for h in 0..48u64 {
                let containers = if h % 4 == 0 {
                    4.0 + (h % 8) as f64 + (m % 3) as f64 * 0.5
                } else {
                    0.0
                };
                let util = 2.0 + 1.5 * containers;
                s.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: kea_telemetry::GroupKey::new(SkuId(sku), ScId(1)),
                    hour: h,
                    metrics: MetricValues {
                        avg_running_containers: containers,
                        cpu_utilization: util,
                        tasks_finished: 5.0 + util,
                        avg_task_latency_s: 100.0 + 3.0 * util,
                        ..Default::default()
                    },
                });
            }
        }
        s
    }

    #[test]
    fn zero_container_operating_point_never_yields_nan() {
        let store = zero_container_store();
        let mon = PerformanceMonitor::new(&store);
        // Hourly granularity so the idle hours dominate the median
        // (daily means would smear the bursts into a positive median).
        let eng = WhatIfEngine::fit_at(
            &mon,
            FitMethod::Huber,
            crate::whatif::Granularity::Hourly,
            5,
        )
        .unwrap();
        let opt =
            optimize_max_containers(&eng, &counts(), 1.0, OperatingPoint::Median).unwrap();
        // Operating point is zero everywhere…
        for s in &opt.suggestions {
            assert_eq!(s.current_containers, 0.0);
            // …and the clamped central difference never probed below zero,
            // so the gradient is finite.
            assert!(s.latency_gradient.is_finite());
        }
        // The historical failure: 0/0 → NaN. Now either 0 or +∞, never NaN.
        assert!(!opt.predicted_capacity_gain.is_nan());
        assert!(opt.predicted_capacity_gain >= 0.0);
    }

    #[test]
    fn capacity_gain_edge_cases() {
        assert_eq!(capacity_gain(0.0, 0.0), 0.0);
        assert_eq!(capacity_gain(5.0, 0.0), f64::INFINITY);
        assert_eq!(capacity_gain(3.0, 6.0), 0.5);
        assert!(!capacity_gain(-2.0, 0.0).is_nan());
    }

    #[test]
    fn gradient_probe_never_goes_negative() {
        let (hi, lo) = gradient_probe_points(0.0);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0);
        let (hi2, lo2) = gradient_probe_points(10.0);
        assert!((hi2 - 10.05).abs() < 1e-12);
        assert!((lo2 - 9.95).abs() < 1e-12);
    }
}
