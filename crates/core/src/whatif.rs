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
use kea_ml::LinearModel1D;
use kea_telemetry::{run_group_partitions, DailyAggregate, GroupKey, Metric};
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

/// One group's training observations, a column per metric. Each worker
/// of the fit keeps one and refills it for every group it claims.
#[derive(Default)]
struct Columns {
    containers: Vec<f64>,
    util: Vec<f64>,
    tasks: Vec<f64>,
    latency: Vec<f64>,
}

impl Columns {
    /// Replaces the contents with `rows`, each `[containers, util,
    /// tasks, latency]`.
    fn refill(&mut self, rows: impl Iterator<Item = [f64; 4]>) {
        self.containers.clear();
        self.util.clear();
        self.tasks.clear();
        self.latency.clear();
        for [containers, util, tasks, latency] in rows {
            self.containers.push(containers);
            self.util.push(util);
            self.tasks.push(tasks);
            self.latency.push(latency);
        }
    }
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
    /// The training rows' running-container observations (daily means
    /// or hourly values, per the fit's [`Granularity`]), sorted, kept so
    /// the Optimizer can evaluate high-load operating points (the Figure
    /// 10 sensitivity run "focusing on a higher percentile of CPU
    /// utilization level").
    containers_sorted: Vec<f64>,
}

impl GroupModels {
    /// Predicted CPU utilization at `containers` running containers,
    /// clamped to the physical `[0, 100]` range.
    pub fn predict_util(&self, containers: f64) -> f64 {
        self.g_containers_to_util
            .predict(containers)
            .clamp(0.0, 100.0)
    }

    /// Predicted tasks/hour at a utilization level (non-negative).
    pub fn predict_tasks_per_hour(&self, util: f64) -> f64 {
        self.h_util_to_tasks.predict(util).max(0.0)
    }

    /// Predicted mean task latency at a utilization level (non-negative).
    pub fn predict_latency(&self, util: f64) -> f64 {
        self.f_util_to_latency.predict(util).max(0.0)
    }

    /// Percentile (0–100) of the observed running containers (one value
    /// per training row) — the operating point selector for high-load
    /// optimization runs.
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
    /// fit fails (a singular system when its load never varies). A group
    /// with no usable row is left out whatever `min_rows` is.
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
        // Groups are independent, so fit them in parallel on scoped
        // threads, one worker per available core.
        let n_workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::fit_with_workers(monitor, method, granularity, min_rows, n_workers)
    }

    /// [`fit_at`](Self::fit_at) on at most `n_workers` scoped threads,
    /// work-stealing groups through [`run_group_partitions`]: one giant
    /// group (row count is wildly skewed in real fleets) pins one worker
    /// while the others drain the rest. A worker collects each group's
    /// rows straight into its own columns and fits them there, so the
    /// output is identical to a serial loop for any worker count.
    fn fit_with_workers(
        monitor: &PerformanceMonitor<'_>,
        method: FitMethod,
        granularity: Granularity,
        min_rows: usize,
        n_workers: usize,
    ) -> Result<Self, KeaError> {
        // `None` for a group with no usable row or fewer than `min_rows`.
        let fit = |cols: &mut Columns, group: GroupKey| {
            (cols.containers.len() >= min_rows.max(1)).then(|| Self::fit_group(group, cols, method))
        };
        let fitted = match granularity {
            Granularity::Hourly => {
                let store = monitor.store();
                let groups = store.groups();
                run_group_partitions(groups.len(), n_workers, Columns::default, |cols, gi| {
                    let group = groups[gi];
                    cols.refill(
                        store
                            .by_group(group)
                            .map(|rec| &rec.metrics)
                            .filter(|m| m.tasks_finished > 0.0)
                            .map(|m| {
                                [
                                    m.avg_running_containers,
                                    m.cpu_utilization,
                                    m.tasks_finished,
                                    m.avg_task_latency_s,
                                ]
                            }),
                    );
                    fit(cols, group)
                })
            }
            Granularity::Daily => {
                let aggregates = monitor.daily_aggregates();
                let key = |a: &DailyAggregate| (a.group, a.machine, a.day);
                debug_assert!(
                    aggregates.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
                    "daily aggregates must be (group, machine, day)-sorted"
                );
                let groups: Vec<&[DailyAggregate]> =
                    aggregates.chunk_by(|a, b| a.group == b.group).collect();
                run_group_partitions(groups.len(), n_workers, Columns::default, |cols, gi| {
                    let rows = groups[gi];
                    cols.refill(
                        rows.iter()
                            .filter(|a| a.mean(Metric::NumberOfTasks) > 0.0)
                            .map(|a| {
                                [
                                    a.mean(Metric::AverageRunningContainers),
                                    a.mean(Metric::CpuUtilization),
                                    a.mean(Metric::NumberOfTasks),
                                    a.mean(Metric::AverageTaskLatency),
                                ]
                            }),
                    );
                    fit(cols, rows[0].group)
                })
            }
        };

        // A group whose fit fails (its load never varies, say) is skipped
        // like a group under the floor, so it does not sink the groups
        // that did fit.
        let mut models = BTreeMap::new();
        let mut first_failure = None;
        for result in fitted.into_iter().flatten() {
            match result {
                Ok(m) => {
                    models.insert(m.group, m);
                }
                Err(e) => {
                    first_failure.get_or_insert(e);
                }
            }
        }
        match first_failure {
            _ if !models.is_empty() => Ok(WhatIfEngine { models }),
            Some(e) => Err(KeaError::NoObservations {
                what: format!("no group's models could be fitted ({e})"),
            }),
            None => Err(KeaError::NoObservations {
                what: "no group had enough training rows to fit".to_string(),
            }),
        }
    }

    /// Fits one group's models on a worker's columns. Reorders the
    /// utilization column.
    fn fit_group(
        group: GroupKey,
        cols: &mut Columns,
        method: FitMethod,
    ) -> Result<GroupModels, KeaError> {
        let Columns {
            containers,
            util,
            tasks,
            latency,
        } = cols;
        let fit = |x: &[f64], y: &[f64]| -> Result<LinearModel1D, KeaError> {
            Ok(match method {
                FitMethod::Huber => LinearModel1D::fit_huber(x, y)?,
                FitMethod::Ols => LinearModel1D::fit_ols(x, y)?,
            })
        };
        let g = fit(containers, util)?;
        let h = fit(util, tasks)?;
        let f = fit(util, latency)?;
        let r2 = (
            g.r2(containers, util).unwrap_or(f64::NAN),
            h.r2(util, tasks).unwrap_or(f64::NAN),
            f.r2(util, latency).unwrap_or(f64::NAN),
        );

        // Containers are sorted once, for the median and every later
        // percentile lookup; utilization needs only its median, which a
        // selection finds without sorting.
        let containers_sorted = sorted_by_total_order(containers);
        Ok(GroupModels {
            group,
            current_containers: median_of_sorted(&containers_sorted),
            current_util: median_by_selection(util),
            r2,
            g_containers_to_util: g,
            h_util_to_tasks: h,
            f_util_to_latency: f,
            n_rows: containers.len(),
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
        let m = self
            .models
            .get(&key)
            .ok_or_else(|| KeaError::NoObservations {
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

/// `v` in the order of a `sort_by(f64::total_cmp)`, sorted as integer
/// keys: a non-negative value gains the sign bit and a negative one has
/// every bit flipped, so the keys' unsigned order is `total_cmp`'s order.
/// Two keys are equal exactly when the values' bits are, so the unstable
/// sort yields the stable sort's sequence.
fn sorted_by_total_order(v: &[f64]) -> Vec<f64> {
    const SIGN: u64 = 1 << 63;
    let mut keys: Vec<u64> = v
        .iter()
        .map(|x| {
            let bits = x.to_bits();
            if bits & SIGN == 0 {
                bits | SIGN
            } else {
                !bits
            }
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| f64::from_bits(if k & SIGN != 0 { k & !SIGN } else { !k }))
        .collect()
}

/// The median [`median_of_sorted`] reads off the column sorted by
/// `f64::total_cmp`, found by selection instead. Reorders `v`.
fn median_by_selection(v: &mut [f64]) -> f64 {
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let (lower, upper_median, _) = v.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        return *upper_median;
    }
    // The lower half holds the n/2 smallest values; its maximum is the
    // sorted column's element n/2 − 1.
    let lower_median = lower
        .iter()
        .copied()
        .max_by(f64::total_cmp)
        .unwrap_or(*upper_median);
    0.5 * (lower_median + *upper_median)
}

/// Median of an already-sorted slice.
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
        push_group(&mut s, 0, 4.0, 0..n_machines, days * 24);
        s
    }

    /// Pushes hours `0..hours` of `machines` in group `(sku, SC1)`, where
    /// util = 5 + slope·containers, tasks = 2·util, latency = 100 + 3·util.
    fn push_group(
        s: &mut TelemetryStore,
        sku: u16,
        slope: f64,
        machines: std::ops::Range<u32>,
        hours: u64,
    ) {
        for m in machines {
            for h in 0..hours {
                // Vary containers across machines and hours to give the
                // fit a spread of operating points.
                let containers = 4.0 + (m % 5) as f64 + ((h % 7) as f64) * 0.5;
                let util = 5.0 + slope * containers;
                s.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: GroupKey::new(SkuId(sku), ScId(1)),
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
    }

    /// Pushes 48 hours of `machines` in group `(sku, SC1)` that never
    /// finish a task.
    fn push_idle_machines(s: &mut TelemetryStore, sku: u16, machines: std::ops::Range<u32>) {
        for m in machines {
            for h in 0..48 {
                s.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: GroupKey::new(SkuId(sku), ScId(1)),
                    hour: h,
                    metrics: MetricValues::default(),
                });
            }
        }
    }

    /// Fits `store` (Huber, 5-row floor) at 1, 2, 3, 8, 32 and 64
    /// workers and asserts that every fit equals the one-worker fit.
    fn fit_at_every_worker_count(store: &TelemetryStore, granularity: Granularity) -> WhatIfEngine {
        let mon = PerformanceMonitor::new(store);
        let fit = |workers| {
            WhatIfEngine::fit_with_workers(&mon, FitMethod::Huber, granularity, 5, workers).unwrap()
        };
        let serial = fit(1);
        for workers in [2, 3, 8, 32, 64] {
            assert_eq!(
                fit(workers),
                serial,
                "{granularity:?} diverged at {workers} workers"
            );
        }
        serial
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
        assert!(engine
            .predict(GroupKey::new(SkuId(9), ScId(1)), 10.0)
            .is_err());
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
        push_idle_machines(&mut store, 0, 100..110);
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
        // Many groups with distinct known slopes, collected from the
        // store inside the fan-out: every worker count (more workers
        // than cores, and more than groups) must calibrate each group
        // exactly as a serial loop would.
        let mut store = TelemetryStore::new();
        for g in 0..16u16 {
            let first = u32::from(g) * 8;
            push_group(
                &mut store,
                g,
                2.0 + f64::from(g) * 0.5,
                first..first + 8,
                48,
            );
        }
        for granularity in [Granularity::Hourly, Granularity::Daily] {
            let engine = fit_at_every_worker_count(&store, granularity);
            assert_eq!(engine.len(), 16);
            // And the slopes are the known ground truth.
            for (g, models) in engine.groups().enumerate() {
                let expected = 2.0 + g as f64 * 0.5;
                assert!(
                    (models.g_containers_to_util.slope() - expected).abs() < 0.05,
                    "{granularity:?} group {g}: slope {} vs expected {expected}",
                    models.g_containers_to_util.slope()
                );
            }
        }
    }

    #[test]
    fn work_stealing_fit_handles_pathological_group_skew() {
        // One giant group (10k rows) among many tiny ones (8 rows each):
        // a contiguous chunk split would serialize the giant's whole
        // chunk behind it. The work-stealing fit must keep every fitted
        // model identical to the serial loop for any worker count, with
        // the giant claimed by exactly one worker.
        let mut store = TelemetryStore::new();
        push_group(&mut store, 0, 2.0, 0..10, 1_000);
        for g in 1..12u16 {
            let machine = 100 + u32::from(g);
            push_group(
                &mut store,
                g,
                2.0 + f64::from(g) * 0.5,
                machine..machine + 1,
                8,
            );
        }
        let engine = fit_at_every_worker_count(&store, Granularity::Hourly);
        assert_eq!(engine.len(), 12);
        let giant = engine.group(GroupKey::new(SkuId(0), ScId(1))).unwrap();
        assert_eq!(giant.n_rows, 10_000);
        assert!(engine.groups().skip(1).all(|g| g.n_rows == 8));
    }

    #[test]
    fn an_idle_group_is_absent_at_any_row_floor() {
        // A group that never finished a task has no training row, so it
        // is left out, not counted as a failed fit, even when the floor
        // admits a group of zero rows.
        let mut store = synthetic_store(6, 2);
        push_idle_machines(&mut store, 7, 200..204);
        let mut idle = TelemetryStore::new();
        push_idle_machines(&mut idle, 7, 200..204);
        for granularity in [Granularity::Hourly, Granularity::Daily] {
            for min_rows in [0, 1] {
                let mon = PerformanceMonitor::new(&store);
                let engine =
                    WhatIfEngine::fit_at(&mon, FitMethod::Huber, granularity, min_rows).unwrap();
                let fitted: Vec<GroupKey> = engine.groups().map(|g| g.group).collect();
                assert_eq!(
                    fitted,
                    [GroupKey::new(SkuId(0), ScId(1))],
                    "{granularity:?}"
                );

                let mon = PerformanceMonitor::new(&idle);
                match WhatIfEngine::fit_at(&mon, FitMethod::Huber, granularity, min_rows) {
                    Err(KeaError::NoObservations { what }) => {
                        assert_eq!(what, "no group had enough training rows to fit");
                    }
                    other => panic!("{granularity:?}, min_rows {min_rows}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn key_sort_and_selection_match_the_total_cmp_sort() {
        // Random bit patterns (every class of f64 shows up), ties, and
        // the special values, at odd and even lengths.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            f64::from_bits(state)
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, 2, 7, 64, 1001] {
            let mut v: Vec<f64> = (0..n).map(|_| next()).collect();
            v.extend([
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                -f64::NAN,
            ]);
            v.extend([1.5, 1.5, -2.25, -2.25, 0.0, -0.0]);
            let mut want = v.clone();
            want.sort_by(f64::total_cmp);
            assert_eq!(bits(&sorted_by_total_order(&v)), bits(&want), "n = {n}");

            // The median by selection is the sorted column's, on the
            // finite values a fit sees, at an even and an odd length.
            let mut finite: Vec<f64> = v.into_iter().filter(|x| x.is_finite()).collect();
            for _ in 0..2 {
                let mut sorted = finite.clone();
                sorted.sort_by(f64::total_cmp);
                let want = median_of_sorted(&sorted).to_bits();
                assert_eq!(median_by_selection(&mut finite).to_bits(), want, "n = {n}");
                finite.pop();
            }
        }
    }

    /// FNV-1a over the bits of every field of every fitted group, or of
    /// the error a fit returns.
    fn fit_digest(fit: &Result<WhatIfEngine, KeaError>) -> u64 {
        let mut words: Vec<u64> = Vec::new();
        match fit {
            Ok(engine) => {
                for g in engine.groups() {
                    words.extend([u64::from(g.group.sku.0), u64::from(g.group.sc.0)]);
                    for m in [
                        &g.g_containers_to_util,
                        &g.h_util_to_tasks,
                        &g.f_util_to_latency,
                    ] {
                        words.extend([m.intercept().to_bits(), m.slope().to_bits()]);
                    }
                    words.extend([g.current_containers, g.current_util].map(f64::to_bits));
                    words.extend([g.r2.0, g.r2.1, g.r2.2].map(f64::to_bits));
                    words.extend([g.n_rows as u64, g.containers_sorted.len() as u64]);
                    words.extend(g.containers_sorted.iter().map(|v| v.to_bits()));
                }
            }
            Err(e) => words.extend(e.to_string().bytes().map(u64::from)),
        }
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Every fitted bit, pinned: Hourly and Daily × Huber and OLS on a
    /// plain simulated fleet and on one where a flight moves a third of
    /// the machines into SC2, so each SKU appears under both SCs. The
    /// digests were recorded from the fit that gathered every row on one
    /// thread, copied it into columns and sorted both medians' columns;
    /// a change meant to move a fitted bit updates them and says why.
    #[test]
    fn fitted_models_are_pinned_bit_for_bit() {
        use kea_sim::{run, ClusterSpec, ConfigPatch, Flight, SimConfig, SC2};
        let plain = run(&SimConfig::baseline(ClusterSpec::tiny(), 48, 7)).telemetry;
        let mut cfg = SimConfig::baseline(ClusterSpec::tiny(), 48, 91);
        let targets = cfg
            .cluster
            .machines
            .iter()
            .filter(|m| m.id.0 % 3 == 0)
            .map(|m| m.id)
            .collect();
        cfg.plan.add_flight(Flight {
            label: "sc2-flight".into(),
            machines: targets,
            start_hour: 6,
            end_hour: 30,
            patch: ConfigPatch {
                sc: Some(SC2),
                ..Default::default()
            },
        });
        let flighted = run(&cfg).telemetry;
        let sc2_groups = flighted.groups().iter().filter(|g| g.sc == SC2).count();
        assert!(sc2_groups > 0, "the flight must put groups under SC2");

        let mut got = Vec::new();
        for store in [&plain, &flighted] {
            let mon = PerformanceMonitor::new(store);
            for granularity in [Granularity::Hourly, Granularity::Daily] {
                for method in [FitMethod::Huber, FitMethod::Ols] {
                    let fit = WhatIfEngine::fit_at(&mon, method, granularity, 2);
                    got.push(format!("{:016x}", fit_digest(&fit)));
                }
            }
        }
        assert_eq!(
            got,
            [
                "51c9ab129c6e9b6d", // plain, Hourly, Huber
                "99d0f55839c094e5", // plain, Hourly, OLS
                "e94e941f3b9aaaf0", // plain, Daily, Huber
                "d1b5a3f474af31d1", // plain, Daily, OLS
                "c4a936dbcf2f8797", // flighted, Hourly, Huber
                "ea5b567de176ae98", // flighted, Hourly, OLS
                "b8b8e130bbba8756", // flighted, Daily, Huber
                "43c7631f60e4ff35", // flighted, Daily, OLS
            ]
        );
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
        assert!((hg.g_containers_to_util.slope() - og.g_containers_to_util.slope()).abs() < 0.01);
    }
}
