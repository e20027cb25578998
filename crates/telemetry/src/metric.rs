//! The machine-group-level metric catalog (Table 2).
//!
//! A [`Metric`] names a column of the telemetry and knows how to extract
//! itself from a [`MetricValues`], which lets aggregation, scatter views,
//! and model fitting be written once, generically over metrics.

use crate::record::MetricValues;

/// A machine-group-level performance metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Total bytes read per hour per machine (GB).
    TotalDataRead,
    /// Total number of tasks finished per hour per machine.
    NumberOfTasks,
    /// Total data read / total task execution time (bytes/s).
    BytesPerSecond,
    /// Total data read / total CPU time (bytes/CPU-s).
    BytesPerCpuTime,
    /// Time-average CPU utilization per hour (%).
    CpuUtilization,
    /// Time-average running containers per hour.
    AverageRunningContainers,
    /// Mean task latency (s).
    AverageTaskLatency,
    /// Time-average queued low-priority containers.
    QueuedContainers,
    /// 99th-percentile queueing latency (ms).
    QueueLatencyP99,
    /// Mean power draw (W).
    PowerDraw,
    /// Mean SSD capacity in use (GB).
    SsdUsed,
    /// Mean RAM in use (GB).
    RamUsed,
    /// Mean CPU cores in use.
    CoresUsed,
    /// Mean network bandwidth in use (Gbit/s).
    NetworkUsed,
}

impl Metric {
    /// All metrics, in a stable reporting order.
    pub const ALL: [Metric; 14] = [
        Metric::TotalDataRead,
        Metric::NumberOfTasks,
        Metric::BytesPerSecond,
        Metric::BytesPerCpuTime,
        Metric::CpuUtilization,
        Metric::AverageRunningContainers,
        Metric::AverageTaskLatency,
        Metric::QueuedContainers,
        Metric::QueueLatencyP99,
        Metric::PowerDraw,
        Metric::SsdUsed,
        Metric::RamUsed,
        Metric::CoresUsed,
        Metric::NetworkUsed,
    ];

    /// Position of this metric in [`Metric::ALL`] (and therefore in every
    /// per-metric column or row array). `const` so dense kernels can use
    /// it in array indexing without a linear search.
    pub const fn index(self) -> usize {
        match self {
            Metric::TotalDataRead => 0,
            Metric::NumberOfTasks => 1,
            Metric::BytesPerSecond => 2,
            Metric::BytesPerCpuTime => 3,
            Metric::CpuUtilization => 4,
            Metric::AverageRunningContainers => 5,
            Metric::AverageTaskLatency => 6,
            Metric::QueuedContainers => 7,
            Metric::QueueLatencyP99 => 8,
            Metric::PowerDraw => 9,
            Metric::SsdUsed => 10,
            Metric::RamUsed => 11,
            Metric::CoresUsed => 12,
            Metric::NetworkUsed => 13,
        }
    }

    /// All metric values of one record as a row array in [`Metric::ALL`]
    /// order (`row[m.index()] == m.value(values)`), including the derived
    /// ratio metrics. One call per record replaces 14 enum dispatches in
    /// the aggregation kernels.
    pub fn row_of(m: &MetricValues) -> [f64; Self::ALL.len()] {
        [
            m.total_data_read_gb,
            m.tasks_finished,
            m.bytes_per_second(),
            m.bytes_per_cpu_time(),
            m.cpu_utilization,
            m.avg_running_containers,
            m.avg_task_latency_s,
            m.queued_containers,
            m.queue_latency_p99_ms,
            m.power_draw_w,
            m.ssd_used_gb,
            m.ram_used_gb,
            m.cores_used,
            m.network_used_gbps,
        ]
    }

    /// Extracts this metric's value from a record's metric block.
    pub fn value(&self, m: &MetricValues) -> f64 {
        match self {
            Metric::TotalDataRead => m.total_data_read_gb,
            Metric::NumberOfTasks => m.tasks_finished,
            Metric::BytesPerSecond => m.bytes_per_second(),
            Metric::BytesPerCpuTime => m.bytes_per_cpu_time(),
            Metric::CpuUtilization => m.cpu_utilization,
            Metric::AverageRunningContainers => m.avg_running_containers,
            Metric::AverageTaskLatency => m.avg_task_latency_s,
            Metric::QueuedContainers => m.queued_containers,
            Metric::QueueLatencyP99 => m.queue_latency_p99_ms,
            Metric::PowerDraw => m.power_draw_w,
            Metric::SsdUsed => m.ssd_used_gb,
            Metric::RamUsed => m.ram_used_gb,
            Metric::CoresUsed => m.cores_used,
            Metric::NetworkUsed => m.network_used_gbps,
        }
    }

    /// Human-readable name as used in the paper's tables and figures.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::TotalDataRead => "Total Data Read",
            Metric::NumberOfTasks => "Number of Tasks",
            Metric::BytesPerSecond => "Bytes per Second",
            Metric::BytesPerCpuTime => "Bytes per CPU Time",
            Metric::CpuUtilization => "CPU Utilization",
            Metric::AverageRunningContainers => "Average Running Containers",
            Metric::AverageTaskLatency => "Average Task Latency",
            Metric::QueuedContainers => "Queued Containers",
            Metric::QueueLatencyP99 => "Queue Latency p99",
            Metric::PowerDraw => "Power Draw",
            Metric::SsdUsed => "SSD Used",
            Metric::RamUsed => "RAM Used",
            Metric::CoresUsed => "Cores Used",
            Metric::NetworkUsed => "Network Used",
        }
    }

    /// Measurement unit for reporting.
    pub fn unit(&self) -> &'static str {
        match self {
            Metric::TotalDataRead => "GB/h",
            Metric::NumberOfTasks => "tasks/h",
            Metric::BytesPerSecond => "B/s",
            Metric::BytesPerCpuTime => "B/CPU-s",
            Metric::CpuUtilization => "%",
            Metric::AverageRunningContainers => "containers",
            Metric::AverageTaskLatency => "s",
            Metric::QueuedContainers => "containers",
            Metric::QueueLatencyP99 => "ms",
            Metric::PowerDraw => "W",
            Metric::SsdUsed => "GB",
            Metric::RamUsed => "GB",
            Metric::CoresUsed => "cores",
            Metric::NetworkUsed => "Gbit/s",
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.name(), self.unit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_metrics_extract_without_panic() {
        let m = MetricValues {
            total_data_read_gb: 1.0,
            tasks_finished: 2.0,
            task_exec_time_s: 3.0,
            cpu_time_s: 4.0,
            cpu_utilization: 5.0,
            avg_running_containers: 6.0,
            avg_task_latency_s: 7.0,
            queued_containers: 8.0,
            queue_latency_p99_ms: 9.0,
            power_draw_w: 10.0,
            ssd_used_gb: 11.0,
            ram_used_gb: 12.0,
            cores_used: 13.0,
            network_used_gbps: 14.0,
        };
        for metric in Metric::ALL {
            assert!(metric.value(&m).is_finite(), "{metric}");
            assert!(!metric.name().is_empty());
            assert!(!metric.unit().is_empty());
        }
        assert_eq!(Metric::CpuUtilization.value(&m), 5.0);
        assert_eq!(Metric::NumberOfTasks.value(&m), 2.0);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(
            Metric::CpuUtilization.to_string(),
            "CPU Utilization (%)"
        );
    }

    #[test]
    fn all_list_is_exhaustive_and_unique() {
        use std::collections::HashSet;
        let set: HashSet<_> = Metric::ALL.iter().collect();
        assert_eq!(set.len(), Metric::ALL.len());
    }

    #[test]
    fn index_matches_all_order() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "{m} out of position");
        }
    }

    #[test]
    fn row_of_matches_value_per_metric() {
        let m = MetricValues {
            total_data_read_gb: 1.0,
            tasks_finished: 2.0,
            task_exec_time_s: 3.0,
            cpu_time_s: 4.0,
            cpu_utilization: 5.0,
            avg_running_containers: 6.0,
            avg_task_latency_s: 7.0,
            queued_containers: 8.0,
            queue_latency_p99_ms: 9.0,
            power_draw_w: 10.0,
            ssd_used_gb: 11.0,
            ram_used_gb: 12.0,
            cores_used: 13.0,
            network_used_gbps: 14.0,
        };
        let row = Metric::row_of(&m);
        for metric in Metric::ALL {
            assert_eq!(row[metric.index()], metric.value(&m), "{metric}");
        }
    }
}
