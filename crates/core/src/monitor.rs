//! The Performance Monitor (§4.1).
//!
//! "Joins data from various Cosmos sources and calculates the performance
//! metrics of interest, providing a fundamental building block for all the
//! analysis." Our sources are the simulator's telemetry store; the monitor
//! adds the derived views every downstream module consumes: fleet-level
//! utilization series (Figure 1), per-group machine counts and utilization
//! (Figure 2), the LP's machine counts `n_k`, the scatter view (Figure 8),
//! and daily training aggregates (Figure 9).

use crate::error::KeaError;
use kea_telemetry::{
    daily_group_aggregates, scatter, DailyAggregate, GroupKey, Metric, ScatterPoint,
    TelemetryStore,
};
use std::collections::BTreeMap;

pub use kea_telemetry::GroupUtilization;

/// Read-only analytical facade over a telemetry window.
///
/// Every derived view delegates to the fused aggregation kernels of
/// `kea-telemetry`, which run over the store's sealed runs and its delta
/// — streaming appends land in the delta and queries merge the sorted
/// sides, so a live window never pays a full index rebuild.
#[derive(Debug)]
pub struct PerformanceMonitor<'a> {
    store: &'a TelemetryStore,
}

impl<'a> PerformanceMonitor<'a> {
    /// Wraps a telemetry window.
    pub fn new(store: &'a TelemetryStore) -> Self {
        PerformanceMonitor { store }
    }

    /// The underlying store.
    pub fn store(&self) -> &TelemetryStore {
        self.store
    }

    /// Fleet-wide mean of `metric` per hour — the Figure 1 series,
    /// served by the column kernel that sums each `(group, hour)`
    /// block's slice.
    ///
    /// # Errors
    /// The store must be non-empty.
    pub fn hourly_fleet_series(&self, metric: Metric) -> Result<Vec<(u64, f64)>, KeaError> {
        let series = kea_telemetry::hourly_fleet_series(self.store, metric);
        if series.is_empty() {
            return Err(KeaError::NoObservations {
                what: "empty telemetry store".to_string(),
            });
        }
        Ok(series)
    }

    /// Machine counts and mean utilization per group — Figure 2's two
    /// panels, sorted by group key (i.e. hardware generation). Served by
    /// the per-group-partition kernel (contiguous column sums plus a
    /// dense-id seen-bitmap for the machine counts).
    pub fn group_utilization(&self) -> Vec<GroupUtilization> {
        kea_telemetry::group_utilization(self.store)
    }

    /// Machines per group, each counted once in the group of its latest
    /// record: the LP's `n_k`. Unlike
    /// [`group_utilization`](Self::group_utilization), a machine that a
    /// flight moved between groups counts only where it ended up, and a
    /// group it left behind is absent.
    pub fn machine_counts(&self) -> BTreeMap<GroupKey, usize> {
        kea_telemetry::latest_group_counts(self.store)
            .into_iter()
            .collect()
    }

    /// The scatter view of Figure 8 for one group.
    pub fn scatter_view(
        &self,
        group: GroupKey,
        x_metric: Metric,
        y_metric: Metric,
    ) -> Vec<ScatterPoint> {
        scatter(self.store, group, x_metric, y_metric)
    }

    /// Daily per-machine aggregates — the training rows of §5.2.1.
    pub fn daily_aggregates(&self) -> Vec<DailyAggregate> {
        daily_group_aggregates(self.store)
    }

    /// Cluster-wide mean of a metric over `[start_hour, end_hour)`,
    /// weighting every machine-hour equally (the paper's roll-out
    /// evaluation unit).
    ///
    /// # Errors
    /// The window must contain observations.
    pub fn window_mean(
        &self,
        metric: Metric,
        start_hour: u64,
        end_hour: u64,
    ) -> Result<f64, KeaError> {
        let mut sum = 0.0;
        let mut n = 0u64;
        for rec in self.store.by_hours(start_hour, end_hour) {
            sum += metric.value(&rec.metrics);
            n += 1;
        }
        if n == 0 {
            return Err(KeaError::NoObservations {
                what: format!("window [{start_hour}, {end_hour}) for {metric}"),
            });
        }
        Ok(sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kea_telemetry::{MachineHourRecord, MachineId, MetricValues, ScId, SkuId};

    fn store() -> TelemetryStore {
        let mut s = TelemetryStore::new();
        for m in 0..4u32 {
            for h in 0..10u64 {
                let sku = if m < 2 { 0 } else { 1 };
                s.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: GroupKey::new(SkuId(sku), ScId(1)),
                    hour: h,
                    metrics: MetricValues {
                        cpu_utilization: 50.0 + sku as f64 * 10.0 + h as f64,
                        avg_running_containers: 5.0 + sku as f64,
                        total_data_read_gb: 10.0 * (h + 1) as f64,
                        ..Default::default()
                    },
                });
            }
        }
        s
    }

    #[test]
    fn fleet_series_has_one_point_per_hour() {
        let s = store();
        let mon = PerformanceMonitor::new(&s);
        let series = mon.hourly_fleet_series(Metric::CpuUtilization).unwrap();
        assert_eq!(series.len(), 10);
        // Hour 0: mean of 50,50,60,60 = 55.
        assert!((series[0].1 - 55.0).abs() < 1e-12);
        // Increasing by 1 per hour.
        assert!((series[9].1 - 64.0).abs() < 1e-12);
    }

    #[test]
    fn fleet_series_empty_store_errors() {
        let s = TelemetryStore::new();
        let mon = PerformanceMonitor::new(&s);
        assert!(mon.hourly_fleet_series(Metric::CpuUtilization).is_err());
    }

    #[test]
    fn group_utilization_counts_machines() {
        let s = store();
        let mon = PerformanceMonitor::new(&s);
        let groups = mon.group_utilization();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].machines, 2);
        assert_eq!(groups[1].machines, 2);
        assert!(groups[1].mean_cpu_utilization > groups[0].mean_cpu_utilization);
        assert!((groups[0].mean_running_containers - 5.0).abs() < 1e-12);
        let counts: Vec<(GroupKey, usize)> = mon.machine_counts().into_iter().collect();
        let views: Vec<(GroupKey, usize)> = groups.iter().map(|g| (g.group, g.machines)).collect();
        assert_eq!(counts, views, "no machine moved, so both counts agree");
    }

    #[test]
    fn window_mean_and_errors() {
        let s = store();
        let mon = PerformanceMonitor::new(&s);
        let m = mon.window_mean(Metric::TotalDataRead, 0, 1).unwrap();
        assert!((m - 10.0).abs() < 1e-12);
        assert!(mon.window_mean(Metric::TotalDataRead, 50, 60).is_err());
    }

    #[test]
    fn scatter_and_daily_views_delegate() {
        let s = store();
        let mon = PerformanceMonitor::new(&s);
        let pts = mon.scatter_view(
            GroupKey::new(SkuId(0), ScId(1)),
            Metric::CpuUtilization,
            Metric::TotalDataRead,
        );
        assert_eq!(pts.len(), 20);
        let daily = mon.daily_aggregates();
        assert_eq!(daily.len(), 4, "4 machines × 1 day");
    }
}
