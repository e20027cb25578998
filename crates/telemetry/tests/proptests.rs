//! Property-based tests for telemetry aggregation: conservation laws
//! that must hold for any record stream.

use kea_telemetry::{
    daily_group_aggregates, GroupKey, MachineHourRecord, MachineId, Metric, MetricValues, ScId,
    SkuId, TelemetryStore,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_record() -> impl Strategy<Value = MachineHourRecord> {
    (
        0u32..8,
        0u16..3,
        0u64..72,
        0.0..100.0f64,
        0.0..40.0f64,
        0.0..500.0f64,
    )
        .prop_map(|(machine, sku, hour, cpu, containers, tasks)| MachineHourRecord {
            machine: MachineId(machine),
            group: GroupKey::new(SkuId(sku), ScId(1)),
            hour,
            metrics: MetricValues {
                cpu_utilization: cpu,
                avg_running_containers: containers,
                tasks_finished: tasks,
                ..Default::default()
            },
        })
}

proptest! {
    #[test]
    fn daily_aggregates_conserve_totals(records in prop::collection::vec(arb_record(), 1..200)) {
        let mut store = TelemetryStore::new();
        store.extend(records.iter().copied());
        let daily = daily_group_aggregates(&store);
        // Conservation: Σ (mean·hours) over aggregates == Σ raw values.
        let raw_tasks: f64 = records.iter().map(|r| r.metrics.tasks_finished).sum();
        let agg_tasks: f64 = daily
            .iter()
            .map(|a| a.mean(Metric::NumberOfTasks) * a.hours_observed as f64)
            .sum();
        prop_assert!((raw_tasks - agg_tasks).abs() < 1e-6 * raw_tasks.max(1.0));
        // Each (machine, group, day) appears exactly once.
        let mut keys: Vec<_> = daily.iter().map(|a| (a.group, a.machine, a.day)).collect();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(before, keys.len());
    }

    #[test]
    fn store_filters_partition_records(records in prop::collection::vec(arb_record(), 1..200)) {
        let mut store = TelemetryStore::new();
        store.extend(records.iter().copied());
        // Group filters partition the store.
        let by_groups: usize = store.groups().iter().map(|g| store.by_group(*g).count()).sum();
        prop_assert_eq!(by_groups, store.len());
        // Single-machine filters over the whole span partition the store.
        let (lo, hi) = store.hour_span().unwrap();
        let by_machines: usize = store
            .machines()
            .into_iter()
            .map(|m| store.by_machines_and_hours(&BTreeSet::from([m]), lo, hi).count())
            .sum();
        prop_assert_eq!(by_machines, store.len());
        // Hour-span covers everything.
        prop_assert_eq!(store.by_hours(lo, hi).count(), store.len());
    }
}
