//! The What-if Engine (§5.1).
//!
//! For every machine group `k` it calibrates the paper's three models from
//! observational data alone:
//!
//! * `x_k = g_k(m_k)` — running containers → CPU utilization (Eq. 1–2)
//! * `l_k = h_k(x_k)` — CPU utilization → tasks finished per hour (Eq. 3–4)
//! * `w_k = f_k(x_k)` — CPU utilization → mean task latency (Eq. 5–6)
//!
//! Training rows are daily per-machine aggregates (§5.2.1, Figure 9), and
//! the default estimator is the Huber regressor — "more robust to outliers
//! compared to the Least Squares Regression". The natural variance of
//! cluster operation supplies the spread of operating points that makes
//! this possible without experiments (the crucial observation of §4.2).

// kea-lint: allow-file(index-in-library) — shared column lengths validated at load; ranks clamped into bounds before use

use crate::error::KeaError;
use crate::monitor::PerformanceMonitor;
use kea_ml::{r2_score, LinearModel1D};
use kea_telemetry::{run_group_partitions, GroupKey, Metric};
use std::collections::BTreeMap;

/// Training-row granularity.
///
/// The paper fits on *daily* per-machine aggregates (Figure 9's dots) —
/// with 45k machines there are plenty of rows. A scaled-down cluster
/// trades machines for hours: `Hourly` uses machine-hour observations
/// (the granularity of Figure 8's scatter view) and is the right choice
/// below a few hundred machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One row per machine per hour.
    Hourly,
    /// One row per machine per day.
    Daily,
}

/// One training observation for a group's models.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TrainRow {
    containers: f64,
    util: f64,
    tasks: f64,
    latency: f64,
}

/// Which estimator the engine fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitMethod {
    /// Huber robust regression (the paper's production choice).
    Huber,
    /// Ordinary least squares (baseline, used by the ablation bench).
    Ols,
}

/// The calibrated models of one machine group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupModels {
    /// The machine group.
    pub group: GroupKey,
    /// `g_k`: containers → CPU utilization (%).
    pub g_containers_to_util: LinearModel1D,
    /// `h_k`: CPU utilization (%) → tasks finished per hour.
    pub h_util_to_tasks: LinearModel1D,
    /// `f_k`: CPU utilization (%) → mean task latency (s).
    pub f_util_to_latency: LinearModel1D,
    /// Median observed running containers (the paper's `m'_k`).
    pub current_containers: f64,
    /// Median observed CPU utilization (the large dot of Figure 9).
    pub current_util: f64,
    /// Training R² of each model `(g, h, f)` for DX review.
    pub r2: (f64, f64, f64),
    /// Training rows used.
    pub n_rows: usize,
    /// Sorted daily-mean container observations, kept so the Optimizer
    /// can evaluate high-load operating points (the Figure 10 sensitivity
    /// run "focusing on a higher percentile of CPU utilization level").
    containers_sorted: Vec<f64>,
}

impl GroupModels {
    /// Predicted CPU utilization at `containers` running containers,
    /// clamped to the physical `[0, 100]` range.
    pub fn predict_util(&self, containers: f64) -> f64 {
        self.g_containers_to_util.predict(containers).clamp(0.0, 100.0)
    }

    /// Predicted tasks/hour at a utilization level (non-negative).
    pub fn predict_tasks_per_hour(&self, util: f64) -> f64 {
        self.h_util_to_tasks.predict(util).max(0.0)
    }

    /// Predicted mean task latency at a utilization level (non-negative).
    pub fn predict_latency(&self, util: f64) -> f64 {
        self.f_util_to_latency.predict(util).max(0.0)
    }

    /// Percentile (0–100) of the observed daily-mean running containers —
    /// the operating point selector for high-load optimization runs.
    ///
    /// Out-of-range `p` (including NaN) is clamped to the nearest
    /// observed extreme rather than indexing past the sorted
    /// observations: `containers_percentile(150.0)` is the max,
    /// `containers_percentile(-3.0)` the min. A group with no
    /// observations reports `0.0` (it has never been seen running
    /// anything).
    pub fn containers_percentile(&self, p: f64) -> f64 {
        let s = &self.containers_sorted;
        if s.is_empty() {
            return 0.0;
        }
        if s.len() == 1 {
            return s[0];
        }
        // NaN-safe clamp: f64::clamp(NaN, ..) stays NaN, which would
        // propagate into the rank arithmetic below.
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let rank = p / 100.0 * (s.len() - 1) as f64;
        let lo = rank.floor() as usize; // kea-lint: allow(truncating-as-cast) — rank ∈ [0, len-1]: p clamped finite above
        let hi = rank.ceil() as usize; // kea-lint: allow(truncating-as-cast) — same bound as `lo`
        let frac = rank - lo as f64;
        s[lo] * (1.0 - frac) + s[hi] * frac
    }
}

/// The calibrated What-if Engine: one [`GroupModels`] per machine group.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfEngine {
    models: BTreeMap<GroupKey, GroupModels>,
}

impl WhatIfEngine {
    /// Calibrates models for every group present in the monitor's window,
    /// at `granularity`: daily per-machine aggregates (the paper's
    /// granularity) or the hourly records themselves.
    ///
    /// Rows with no completed tasks (cold machines) are dropped: their
    /// latency is undefined. Groups with fewer than `min_rows` usable
    /// rows are skipped rather than fitted badly, and so is a group whose
    /// fit fails (a singular system when its load never varies).
    ///
    /// # Errors
    /// [`KeaError::NoObservations`] when no group has `min_rows` usable
    /// rows or no group's fit succeeds.
    pub fn fit_at(
        monitor: &PerformanceMonitor<'_>,
        method: FitMethod,
        granularity: Granularity,
        min_rows: usize,
    ) -> Result<Self, KeaError> {
        // Both sources arrive group-contiguous and group-sorted (daily
        // aggregates are (group, machine, day)-sorted; the store serves
        // each group as one run+delta merged stream), so training rows
        // accumulate into per-group runs with no map lookup per row.
        let mut groups: Vec<(GroupKey, Vec<TrainRow>)> = Vec::new();
        let mut push_row = |group: GroupKey, row: TrainRow| {
            match groups.last_mut() {
                Some((g, rows)) if *g == group => rows.push(row),
                _ => groups.push((group, vec![row])),
            }
        };
        match granularity {
            Granularity::Daily => {
                for agg in monitor.daily_aggregates() {
                    if agg.mean(Metric::NumberOfTasks) > 0.0 {
                        push_row(agg.group, TrainRow {
                            containers: agg.mean(Metric::AverageRunningContainers),
                            util: agg.mean(Metric::CpuUtilization),
                            tasks: agg.mean(Metric::NumberOfTasks),
                            latency: agg.mean(Metric::AverageTaskLatency),
                        });
                    }
                }
            }
            Granularity::Hourly => {
                for group in monitor.store().groups() {
                    for rec in monitor.store().by_group(group) {
                        if rec.metrics.tasks_finished > 0.0 {
                            push_row(group, TrainRow {
                                containers: rec.metrics.avg_running_containers,
                                util: rec.metrics.cpu_utilization,
                                tasks: rec.metrics.tasks_finished,
                                latency: rec.metrics.avg_task_latency_s,
                            });
                        }
                    }
                }
            }
        }
        groups.retain(|(_, rows)| rows.len() >= min_rows);
        if groups.is_empty() {
            return Err(KeaError::NoObservations {
                what: "no group had enough training rows to fit".to_string(),
            });
        }

        // Groups are independent, so fit them in parallel on scoped
        // threads, one worker per available core.
        let n_workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let results = Self::fit_groups(&groups, method, n_workers);

        // A group whose fit fails (its load never varies, say) is skipped
        // like a group under the floor, so it does not sink the groups
        // that did fit.
        let mut models = BTreeMap::new();
        let mut first_failure = None;
        for ((group, _), result) in groups.iter().zip(results) {
            match result {
                Ok(m) => {
                    models.insert(*group, m);
                }
                Err(e) => {
                    first_failure.get_or_insert(e);
                }
            }
        }
        match first_failure {
            Some(e) if models.is_empty() => Err(KeaError::NoObservations {
                what: format!("no group's models could be fitted ({e})"),
            }),
            _ => Ok(WhatIfEngine { models }),
        }
    }

    /// Fits every group, work-stealing across at most `n_workers` scoped
    /// threads through [`run_group_partitions`]: one giant group (row
    /// count is wildly skewed in real fleets) pins one worker while the
    /// others drain the rest, and the output is identical to a serial
    /// loop for any worker count.
    fn fit_groups(
        groups: &[(GroupKey, Vec<TrainRow>)],
        method: FitMethod,
        n_workers: usize,
    ) -> Vec<Result<GroupModels, KeaError>> {
        run_group_partitions(
            groups.len(),
            n_workers,
            || (),
            |_, gi| {
                let (group, rows) = &groups[gi];
                Self::fit_group(*group, rows, method)
            },
        )
    }

    fn fit_group(
        group: GroupKey,
        rows: &[TrainRow],
        method: FitMethod,
    ) -> Result<GroupModels, KeaError> {
        let containers: Vec<f64> = rows.iter().map(|r| r.containers).collect();
        let util: Vec<f64> = rows.iter().map(|r| r.util).collect();
        let tasks: Vec<f64> = rows.iter().map(|r| r.tasks).collect();
        let latency: Vec<f64> = rows.iter().map(|r| r.latency).collect();

        let fit = |x: &[f64], y: &[f64]| -> Result<LinearModel1D, KeaError> {
            Ok(match method {
                FitMethod::Huber => LinearModel1D::fit_huber(x, y)?,
                FitMethod::Ols => LinearModel1D::fit_ols(x, y)?,
            })
        };
        let g = fit(&containers, &util)?;
        let h = fit(&util, &tasks)?;
        let f = fit(&util, &latency)?;

        let r2_of = |m: &LinearModel1D, x: &[f64], y: &[f64]| {
            let pred: Vec<f64> = x.iter().map(|&v| m.predict(v)).collect();
            r2_score(y, &pred).unwrap_or(f64::NAN)
        };
        // Sort each observation column once; the median (and, for
        // containers, every later percentile lookup) reads the sorted
        // copy instead of re-sorting per call.
        let mut containers_sorted = containers.clone();
        containers_sorted.sort_by(f64::total_cmp);
        let mut util_sorted = util.clone();
        util_sorted.sort_by(f64::total_cmp);
        Ok(GroupModels {
            group,
            current_containers: median_of_sorted(&containers_sorted),
            current_util: median_of_sorted(&util_sorted),
            r2: (
                r2_of(&g, &containers, &util),
                r2_of(&h, &util, &tasks),
                r2_of(&f, &util, &latency),
            ),
            g_containers_to_util: g,
            h_util_to_tasks: h,
            f_util_to_latency: f,
            n_rows: rows.len(),
            containers_sorted,
        })
    }

    /// Calibrated groups, sorted by key.
    pub fn groups(&self) -> impl Iterator<Item = &GroupModels> {
        self.models.values()
    }

    /// Number of calibrated groups.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when nothing was calibrated (cannot occur for a successfully
    /// constructed engine; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Models of one group.
    pub fn group(&self, key: GroupKey) -> Option<&GroupModels> {
        self.models.get(&key)
    }

    /// End-to-end what-if: predicted `(utilization %, tasks/hour, latency
    /// s)` for a group running `containers` containers — the composition
    /// `f_k(g_k(m))`, `h_k(g_k(m))` used by the Optimizer.
    ///
    /// # Errors
    /// The group must be calibrated.
    pub fn predict(&self, key: GroupKey, containers: f64) -> Result<(f64, f64, f64), KeaError> {
        let m = self.models.get(&key).ok_or_else(|| KeaError::NoObservations {
            what: format!("no calibrated models for {key:?}"),
        })?;
        let util = m.predict_util(containers);
        Ok((
            util,
            m.predict_tasks_per_hour(util),
            m.predict_latency(util),
        ))
    }
}

/// Median of an already-sorted slice (callers sort each observation
/// column exactly once at fit time).
fn median_of_sorted(s: &[f64]) -> f64 {
    debug_assert!(s.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kea_telemetry::{MachineHourRecord, MachineId, MetricValues, ScId, SkuId, TelemetryStore};

    /// Builds a synthetic store where ground truth is known exactly:
    /// util = 5 + 4·containers, tasks = 2·util, latency = 100 + 3·util.
    fn synthetic_store(n_machines: u32, days: u64) -> TelemetryStore {
        let mut s = TelemetryStore::new();
        for m in 0..n_machines {
            for h in 0..days * 24 {
                // Vary containers across machines and hours to give the
                // fit a spread of operating points.
                let containers = 4.0 + (m % 5) as f64 + ((h % 7) as f64) * 0.5;
                let util = 5.0 + 4.0 * containers;
                s.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: GroupKey::new(SkuId(0), ScId(1)),
                    hour: h,
                    metrics: MetricValues {
                        avg_running_containers: containers,
                        cpu_utilization: util,
                        tasks_finished: 2.0 * util,
                        avg_task_latency_s: 100.0 + 3.0 * util,
                        ..Default::default()
                    },
                });
            }
        }
        s
    }

    #[test]
    fn recovers_known_relationships() {
        let store = synthetic_store(10, 3);
        let mon = PerformanceMonitor::new(&store);
        let engine = WhatIfEngine::fit_at(&mon, FitMethod::Huber, Granularity::Daily, 5).unwrap();
        assert_eq!(engine.len(), 1);
        let g = engine.group(GroupKey::new(SkuId(0), ScId(1))).unwrap();
        assert!((g.g_containers_to_util.slope() - 4.0).abs() < 0.05);
        assert!((g.g_containers_to_util.intercept() - 5.0).abs() < 0.5);
        assert!((g.h_util_to_tasks.slope() - 2.0).abs() < 0.05);
        assert!((g.f_util_to_latency.slope() - 3.0).abs() < 0.05);
        assert!(g.r2.0 > 0.99 && g.r2.1 > 0.99 && g.r2.2 > 0.99);
    }

    #[test]
    fn predict_composes_models() {
        let store = synthetic_store(10, 3);
        let mon = PerformanceMonitor::new(&store);
        let engine = WhatIfEngine::fit_at(&mon, FitMethod::Huber, Granularity::Daily, 5).unwrap();
        let key = GroupKey::new(SkuId(0), ScId(1));
        let (util, tasks, latency) = engine.predict(key, 10.0).unwrap();
        assert!((util - 45.0).abs() < 1.0);
        assert!((tasks - 90.0).abs() < 2.0);
        assert!((latency - 235.0).abs() < 3.0);
        // Unknown group errors.
        assert!(engine.predict(GroupKey::new(SkuId(9), ScId(1)), 10.0).is_err());
    }

    #[test]
    fn predictions_respect_physical_ranges() {
        let store = synthetic_store(10, 3);
        let mon = PerformanceMonitor::new(&store);
        let engine = WhatIfEngine::fit_at(&mon, FitMethod::Huber, Granularity::Daily, 5).unwrap();
        let g = engine.group(GroupKey::new(SkuId(0), ScId(1))).unwrap();
        assert_eq!(g.predict_util(1000.0), 100.0, "clamped at 100%");
        assert_eq!(g.predict_util(-50.0), 0.0, "clamped at 0%");
        assert!(g.predict_tasks_per_hour(-100.0) >= 0.0);
        assert!(g.predict_latency(-100.0) >= 0.0);
    }

    #[test]
    fn cold_rows_are_dropped() {
        let mut store = synthetic_store(6, 2);
        // Add machines that never ran a task; they must not poison fits.
        for m in 100..110u32 {
            for h in 0..48u64 {
                store.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: GroupKey::new(SkuId(0), ScId(1)),
                    hour: h,
                    metrics: MetricValues::default(),
                });
            }
        }
        let mon = PerformanceMonitor::new(&store);
        let engine = WhatIfEngine::fit_at(&mon, FitMethod::Huber, Granularity::Daily, 5).unwrap();
        let g = engine.group(GroupKey::new(SkuId(0), ScId(1))).unwrap();
        // 6 working machines × 2 days; the 10 idle machines' 20 daily
        // rows are excluded.
        assert_eq!(g.n_rows, 12, "idle machines' rows excluded");
        assert!((g.g_containers_to_util.slope() - 4.0).abs() < 0.05);
    }

    #[test]
    fn sparse_groups_are_skipped() {
        let store = synthetic_store(2, 1); // 2 machines × 1 day = 2 rows
        let mon = PerformanceMonitor::new(&store);
        // min_rows = 5 > 2 available ⇒ no group fits ⇒ error.
        assert!(matches!(
            WhatIfEngine::fit_at(&mon, FitMethod::Huber, Granularity::Daily, 5),
            Err(KeaError::NoObservations { .. })
        ));
        // With a lower bar it fits.
        assert!(WhatIfEngine::fit_at(&mon, FitMethod::Huber, Granularity::Daily, 2).is_ok());
    }

    #[test]
    fn out_of_range_percentiles_clamp_to_observed_extremes() {
        let store = synthetic_store(10, 3);
        let mon = PerformanceMonitor::new(&store);
        let engine = WhatIfEngine::fit_at(&mon, FitMethod::Huber, Granularity::Daily, 5).unwrap();
        let g = engine.group(GroupKey::new(SkuId(0), ScId(1))).unwrap();
        let min = g.containers_percentile(0.0);
        let max = g.containers_percentile(100.0);
        assert!(min < max, "synthetic store spans several operating points");
        // Historical release-mode out-of-bounds: p > 100 indexed past the
        // sorted observations. Now it clamps.
        assert_eq!(g.containers_percentile(150.0), max);
        assert_eq!(g.containers_percentile(-3.0), min);
        assert_eq!(g.containers_percentile(f64::INFINITY), max);
        assert_eq!(g.containers_percentile(f64::NAN), min);
        // In-range values still interpolate between the extremes.
        let mid = g.containers_percentile(50.0);
        assert!((min..=max).contains(&mid));
    }

    #[test]
    fn parallel_fit_matches_serial_semantics_across_groups() {
        // Many groups with distinct known slopes: the scoped-thread fit
        // must calibrate each group exactly as a serial loop would, for
        // any worker count (including more workers than cores, and more
        // workers than groups).
        let groups: Vec<(GroupKey, Vec<TrainRow>)> = (0..16u16)
            .map(|g| {
                let slope = 2.0 + g as f64 * 0.5;
                let rows: Vec<TrainRow> = (0..48u32)
                    .map(|i| {
                        let containers = 4.0 + (i % 5) as f64 + ((i % 7) as f64) * 0.5;
                        let util = 5.0 + slope * containers;
                        TrainRow {
                            containers,
                            util,
                            tasks: 2.0 * util,
                            latency: 100.0 + 3.0 * util,
                        }
                    })
                    .collect();
                (GroupKey::new(SkuId(g), ScId(1)), rows)
            })
            .collect();

        let serial = WhatIfEngine::fit_groups(&groups, FitMethod::Huber, 1);
        for workers in [2, 4, 16, 64] {
            let parallel = WhatIfEngine::fit_groups(&groups, FitMethod::Huber, workers);
            assert_eq!(serial.len(), parallel.len());
            for (g, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(
                    s.as_ref().unwrap(),
                    p.as_ref().unwrap(),
                    "group {g} diverged at {workers} workers"
                );
            }
        }
        // And the slopes are the known ground truth.
        for (g, r) in serial.iter().enumerate() {
            let models = r.as_ref().unwrap();
            let expected = 2.0 + g as f64 * 0.5;
            assert!(
                (models.g_containers_to_util.slope() - expected).abs() < 0.05,
                "group {g}: slope {} vs expected {expected}",
                models.g_containers_to_util.slope()
            );
        }
    }

    #[test]
    fn work_stealing_fit_handles_pathological_group_skew() {
        // One giant group (10k rows) among many tiny ones (8 rows each):
        // a contiguous chunk split would serialize the giant's whole
        // chunk behind it. The work-stealing fit must keep output order
        // (and every fitted model) identical to the serial loop for any
        // worker count, with the giant claimed by exactly one worker.
        let make_rows = |slope: f64, n: usize| -> Vec<TrainRow> {
            (0..n as u32)
                .map(|i| {
                    let containers = 4.0 + (i % 5) as f64 + ((i % 7) as f64) * 0.5;
                    let util = 5.0 + slope * containers;
                    TrainRow {
                        containers,
                        util,
                        tasks: 2.0 * util,
                        latency: 100.0 + 3.0 * util,
                    }
                })
                .collect()
        };
        let mut groups: Vec<(GroupKey, Vec<TrainRow>)> = Vec::new();
        groups.push((GroupKey::new(SkuId(0), ScId(1)), make_rows(2.0, 10_000)));
        for g in 1..12u16 {
            groups.push((GroupKey::new(SkuId(g), ScId(1)), make_rows(2.0 + g as f64 * 0.5, 8)));
        }

        let serial = WhatIfEngine::fit_groups(&groups, FitMethod::Huber, 1);
        for workers in [2, 3, 8, 32] {
            let parallel = WhatIfEngine::fit_groups(&groups, FitMethod::Huber, workers);
            assert_eq!(serial.len(), parallel.len());
            for (g, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(
                    s.as_ref().unwrap(),
                    p.as_ref().unwrap(),
                    "group {g} diverged at {workers} workers under skew"
                );
            }
        }
    }

    #[test]
    fn ols_and_huber_agree_on_clean_data() {
        let store = synthetic_store(10, 3);
        let mon = PerformanceMonitor::new(&store);
        let huber = WhatIfEngine::fit_at(&mon, FitMethod::Huber, Granularity::Daily, 5).unwrap();
        let ols = WhatIfEngine::fit_at(&mon, FitMethod::Ols, Granularity::Daily, 5).unwrap();
        let key = GroupKey::new(SkuId(0), ScId(1));
        let hg = huber.group(key).unwrap();
        let og = ols.group(key).unwrap();
        assert!(
            (hg.g_containers_to_util.slope() - og.g_containers_to_util.slope()).abs() < 0.01
        );
    }
}
