//! Machine-hour telemetry records and the identifiers they hang off.
//!
//! The paper's Level-IV/V abstractions (Figure 4) reduce everything to
//! per-machine, per-hour observations tagged with the machine's
//! `(SC, SKU)` group. These types are that schema.

/// Identifier of a physical machine within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub u32);

/// Identifier of a hardware generation (stock keeping unit). The paper's
/// clusters carry 6–9 SKUs (Gen 1.1 … Gen 4.1 in Figures 2/9/10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SkuId(pub u16);

/// Identifier of a software configuration. The paper studies two: SC1
/// (local temp store on HDD) and SC2 (on SSD), §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScId(pub u8);

/// A machine group: the `(SC, SKU)` combination indexed by `k` throughout
/// the paper's equations. All KEA models are fitted per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey {
    /// Hardware generation.
    pub sku: SkuId,
    /// Software configuration.
    pub sc: ScId,
}

impl GroupKey {
    /// Convenience constructor.
    pub fn new(sku: SkuId, sc: ScId) -> Self {
        GroupKey { sku, sc }
    }
}

/// The metric values observed for one machine over one hour.
///
/// Field selection follows Table 2 of the paper plus the metrics required
/// by the queueing discussion (§5.3, Figure 12), SKU design (§6, Figure
/// 13), and power capping (§7.2, Figure 15). Derived ratio metrics (Bytes
/// per Second, Bytes per CPU Time) are computed on demand to keep stored
/// state minimal and consistent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricValues {
    /// Total bytes read in the hour, in gigabytes ("Total Data Read").
    pub total_data_read_gb: f64,
    /// Tasks finished in the hour ("Number of Tasks").
    pub tasks_finished: f64,
    /// Sum of task execution time in seconds over the hour.
    pub task_exec_time_s: f64,
    /// Sum of task CPU time in seconds over the hour.
    pub cpu_time_s: f64,
    /// Time-average CPU utilization in percent (0–100).
    pub cpu_utilization: f64,
    /// Time-average number of running containers.
    pub avg_running_containers: f64,
    /// Mean task latency in seconds over the hour.
    pub avg_task_latency_s: f64,
    /// Time-average number of queued (low-priority) containers.
    pub queued_containers: f64,
    /// 99th-percentile queueing latency in milliseconds.
    pub queue_latency_p99_ms: f64,
    /// Mean electrical power draw in watts.
    pub power_draw_w: f64,
    /// Mean SSD capacity in use, gigabytes.
    pub ssd_used_gb: f64,
    /// Mean RAM in use, gigabytes.
    pub ram_used_gb: f64,
    /// Mean CPU cores in use.
    pub cores_used: f64,
    /// Mean network bandwidth in use, Gbit/s (the "other resource" of
    /// §6.2 the same methodology extends to).
    pub network_used_gbps: f64,
}

impl MetricValues {
    /// "Bytes per Second": ratio of total data read to total execution
    /// time (Table 2). Returns 0 for an idle hour.
    pub fn bytes_per_second(&self) -> f64 {
        if self.task_exec_time_s <= 0.0 {
            0.0
        } else {
            self.total_data_read_gb * 1e9 / self.task_exec_time_s
        }
    }

    /// "Bytes per CPU Time": ratio of total data read to total CPU time
    /// (Table 2). Returns 0 for an idle hour.
    pub fn bytes_per_cpu_time(&self) -> f64 {
        if self.cpu_time_s <= 0.0 {
            0.0
        } else {
            self.total_data_read_gb * 1e9 / self.cpu_time_s
        }
    }

    /// True when every stored value is finite (guards the analysis
    /// pipeline against simulator bugs).
    pub fn is_finite(&self) -> bool {
        self.to_array().iter().all(|v| v.is_finite())
    }
}

/// Implements the stored layout of [`MetricValues`] from one list of its
/// fields in storage order: the names table and the two array
/// conversions. The compiler checks the list against the struct: the
/// struct literal in `from_array` must name every field once, and the
/// arrays hold exactly 14.
macro_rules! stored_layout {
    ($($field:ident),+ $(,)?) => {
        impl MetricValues {
            /// Column names of the stored fields, in storage order: the
            /// order of the binary record codec and of the CSV metric
            /// columns. The derived ratio metrics are not stored, so this
            /// is not [`crate::Metric::ALL`] order.
            pub(crate) const NAMES: [&'static str; 14] = [$(stringify!($field)),+];

            /// The stored fields in [`NAMES`](MetricValues::NAMES) order.
            pub(crate) fn to_array(self) -> [f64; 14] {
                [$(self.$field),+]
            }

            /// The inverse of [`to_array`](MetricValues::to_array).
            pub(crate) fn from_array(values: [f64; 14]) -> Self {
                let [$($field),+] = values;
                MetricValues { $($field),+ }
            }
        }
    };
}

stored_layout!(
    total_data_read_gb,
    tasks_finished,
    task_exec_time_s,
    cpu_time_s,
    cpu_utilization,
    avg_running_containers,
    avg_task_latency_s,
    queued_containers,
    queue_latency_p99_ms,
    power_draw_w,
    ssd_used_gb,
    ram_used_gb,
    cores_used,
    network_used_gbps,
);

/// The last hour a record may carry. The store's
/// [`hour_span`](crate::TelemetryStore::hour_span) ends at `max + 1`,
/// which `u64::MAX` has no room for.
pub(crate) const MAX_HOUR: u64 = u64::MAX - 1;

/// The part of a record that the admission rule refuses.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Refused {
    /// The hour is past [`MAX_HOUR`].
    Hour(u64),
    /// The stored metric field of this name is NaN or infinite.
    NonFinite(&'static str),
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refused::Hour(hour) => write!(f, "hour {hour} is past the last hour {MAX_HOUR}"),
            Refused::NonFinite(name) => write!(f, "{name} is not finite"),
        }
    }
}

/// One telemetry observation: a machine, its group, an hour index, and the
/// metrics measured during that hour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineHourRecord {
    /// Which machine.
    pub machine: MachineId,
    /// The machine's `(SC, SKU)` group at observation time.
    pub group: GroupKey,
    /// Hour index since the start of the observation window.
    pub hour: u64,
    /// Measured metrics.
    pub metrics: MetricValues,
}

impl MachineHourRecord {
    /// Day index of this record (24-hour days).
    pub fn day(&self) -> u64 {
        self.hour / 24
    }

    /// The admission rule, the one check every path into the store
    /// applies: every metric is finite and the hour is at most
    /// [`MAX_HOUR`], so no NaN reaches an aggregate and the store's span
    /// cannot wrap. Returns the first part refused, the hour before the
    /// metrics in their stored order. `push`/`extend`/`merge` drop a
    /// refused record and count it, CSV ingest reports it with its line,
    /// and a segment load or WAL replay that meets one fails the open as
    /// corrupt.
    pub(crate) fn admit(&self) -> Result<(), Refused> {
        if self.hour > MAX_HOUR {
            return Err(Refused::Hour(self.hour));
        }
        match MetricValues::NAMES
            .iter()
            .zip(self.metrics.to_array().iter())
            .find(|(_, v)| !v.is_finite())
        {
            Some((name, _)) => Err(Refused::NonFinite(name)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_key_equality_and_ordering() {
        let a = GroupKey::new(SkuId(1), ScId(0));
        let b = GroupKey::new(SkuId(1), ScId(0));
        let c = GroupKey::new(SkuId(2), ScId(0));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a < c);
    }

    #[test]
    fn derived_ratios() {
        let m = MetricValues {
            total_data_read_gb: 2.0,
            task_exec_time_s: 1000.0,
            cpu_time_s: 500.0,
            ..Default::default()
        };
        assert!((m.bytes_per_second() - 2e9 / 1000.0).abs() < 1e-6);
        assert!((m.bytes_per_cpu_time() - 2e9 / 500.0).abs() < 1e-6);
    }

    #[test]
    fn derived_ratios_idle_hour() {
        let m = MetricValues::default();
        assert_eq!(m.bytes_per_second(), 0.0);
        assert_eq!(m.bytes_per_cpu_time(), 0.0);
    }

    #[test]
    fn finiteness_guard() {
        let mut m = MetricValues::default();
        assert!(m.is_finite());
        m.power_draw_w = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn day_index() {
        let rec = MachineHourRecord {
            machine: MachineId(1),
            group: GroupKey::new(SkuId(0), ScId(0)),
            hour: 49,
            metrics: MetricValues::default(),
        };
        assert_eq!(rec.day(), 2);
    }
}
