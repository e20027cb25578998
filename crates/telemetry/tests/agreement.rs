//! Agreement suite: the columnar indexed store and its fused kernels must
//! reproduce the pre-columnar reference implementations bit-for-bit on
//! structure and to 1e-9 on floating-point aggregates, for *any* record
//! stream — including shuffled insertion orders, duplicate
//! `(machine, hour)` rows, and sparse hour domains.
//!
//! The reference store ([`kea_telemetry::store::reference`]) and reference
//! roll-ups ([`kea_telemetry::aggregate::reference`]) are the executable
//! specification here, the same pattern as `optimizer::reference` /
//! `simplex::reference` in the optimizer crates.

use kea_telemetry::aggregate::reference as ref_agg;
use kea_telemetry::store::reference::TelemetryStore as RefStore;
use kea_telemetry::{
    daily_group_aggregates, group_utilization, hourly_fleet_series, GroupKey, MachineHourRecord,
    MachineId, Metric, MetricValues, ScId, SkuId, TelemetryStore,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Sparse hour domain: three disjoint bands with gaps between and inside,
/// so fleet series must zero-fill and day roll-ups see partial days.
const HOURS: [u64; 12] = [0, 1, 2, 5, 23, 24, 47, 48, 49, 120, 121, 500];

fn arb_record() -> impl Strategy<Value = MachineHourRecord> {
    (
        0u32..6,
        0u16..3,
        0usize..HOURS.len(),
        0.0..100.0f64,
        0.0..40.0f64,
        0.0..500.0f64,
        0.0..900.0f64,
        0.0..3000.0f64,
    )
        .prop_map(
            |(machine, sku, hour_idx, cpu, containers, tasks, data, exec)| MachineHourRecord {
                machine: MachineId(machine),
                group: GroupKey::new(SkuId(sku), ScId(1 + (machine % 2) as u8)),
                hour: HOURS[hour_idx % HOURS.len()],
                metrics: MetricValues {
                    cpu_utilization: cpu,
                    avg_running_containers: containers,
                    tasks_finished: tasks,
                    total_data_read_gb: data,
                    task_exec_time_s: exec,
                    cpu_time_s: exec * 0.5,
                    avg_task_latency_s: cpu * 0.1,
                    power_draw_w: 200.0 + cpu,
                    ..Default::default()
                },
            },
        )
}

/// Total order over records so view outputs can be compared as multisets
/// (duplicate `(machine, hour)` rows are legal and must all survive).
fn record_key(r: &MachineHourRecord) -> (u16, u8, u64, u32, u64, u64) {
    (
        r.group.sku.0,
        r.group.sc.0,
        r.hour,
        r.machine.0,
        r.metrics.tasks_finished.to_bits(),
        r.metrics.cpu_utilization.to_bits(),
    )
}

fn sorted_keys<'a>(
    it: impl Iterator<Item = &'a MachineHourRecord>,
) -> Vec<(u16, u8, u64, u32, u64, u64)> {
    let mut keys: Vec<_> = it.map(record_key).collect();
    keys.sort_unstable();
    keys
}

fn close(a: f64, b: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Builds the reference store in generation order and the columnar store
/// from a seed-shuffled copy of the same records.
fn build_pair(records: &[MachineHourRecord], seed: u64) -> (RefStore, TelemetryStore) {
    let mut reference = RefStore::new();
    reference.extend(records.iter().copied());
    let mut shuffled = records.to_vec();
    shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut columnar = TelemetryStore::new();
    columnar.extend(shuffled);
    (reference, columnar)
}

const METRICS: [Metric; 4] = [
    Metric::CpuUtilization,
    Metric::NumberOfTasks,
    Metric::TotalDataRead,
    Metric::BytesPerSecond,
];

proptest! {
    #[test]
    fn views_agree_with_reference(
        records in prop::collection::vec(arb_record(), 0..220),
        seed in 0u64..1 << 32,
    ) {
        let (reference, columnar) = build_pair(&records, seed);
        prop_assert_eq!(reference.len(), columnar.len());
        prop_assert_eq!(reference.groups(), columnar.groups());
        prop_assert_eq!(reference.machines(), columnar.machines());
        prop_assert_eq!(reference.hour_span(), columnar.hour_span());

        for g in reference.groups() {
            prop_assert_eq!(sorted_keys(reference.by_group(g)), sorted_keys(columnar.by_group(g)));
        }
        // Hour windows: the full span, a sub-window, and an empty window.
        let (lo, hi) = reference.hour_span().unwrap_or((0, 0));
        for (a, b) in [(lo, hi), (lo + 1, lo + 30), (hi + 10, hi + 20)] {
            prop_assert_eq!(
                sorted_keys(reference.by_hours(a, b)),
                sorted_keys(columnar.by_hours(a, b))
            );
        }
        // Machine-set probe: even-id machines over a mid window.
        let evens: BTreeSet<MachineId> = reference
            .machines()
            .into_iter()
            .filter(|m| m.0 % 2 == 0)
            .collect();
        prop_assert_eq!(
            sorted_keys(reference.by_machines_and_hours(&evens, lo, lo + 49)),
            sorted_keys(columnar.by_machines_and_hours(&evens, lo, lo + 49))
        );
    }

    #[test]
    fn kernels_agree_with_reference(
        records in prop::collection::vec(arb_record(), 0..220),
        seed in 0u64..1 << 32,
    ) {
        let (reference, columnar) = build_pair(&records, seed);

        let ref_daily = ref_agg::daily_group_aggregates(&reference);
        let col_daily = daily_group_aggregates(&columnar);
        prop_assert_eq!(ref_daily.len(), col_daily.len());
        for (r, c) in ref_daily.iter().zip(&col_daily) {
            prop_assert_eq!(r.group, c.group);
            prop_assert_eq!(r.machine, c.machine);
            prop_assert_eq!(r.day, c.day);
            prop_assert_eq!(r.hours_observed, c.hours_observed);
            for m in Metric::ALL {
                prop_assert!(
                    close(r.mean(m), c.mean(m)),
                    "daily mean of {} drifted: {} vs {}", m, r.mean(m), c.mean(m)
                );
            }
        }

        for m in METRICS {
            let r = ref_agg::hourly_fleet_series(&reference, m);
            let c = hourly_fleet_series(&columnar, m);
            prop_assert_eq!(r.len(), c.len());
            for ((rh, rv), (ch, cv)) in r.iter().zip(&c) {
                prop_assert_eq!(rh, ch);
                prop_assert!(close(*rv, *cv), "fleet series at hour {} drifted", rh);
            }
        }

        let r = ref_agg::group_utilization(&reference);
        let c = group_utilization(&columnar);
        prop_assert_eq!(r.len(), c.len());
        for (r, c) in r.iter().zip(&c) {
            prop_assert_eq!(r.group, c.group);
            prop_assert_eq!(r.machines, c.machines);
            prop_assert!(close(r.mean_cpu_utilization, c.mean_cpu_utilization));
            prop_assert!(close(r.mean_running_containers, c.mean_running_containers));
        }
    }

    #[test]
    fn sealed_queries_equal_lazy_queries(
        records in prop::collection::vec(arb_record(), 1..160),
    ) {
        // Regression guard: an explicit `seal()` must change nothing about
        // query results relative to a store that seals lazily on first
        // query, and appending after a seal must transparently re-index.
        let mut eager = TelemetryStore::new();
        eager.extend(records.iter().copied());
        eager.seal();
        prop_assert!(eager.is_sealed());
        let mut lazy = TelemetryStore::new();
        lazy.extend(records.iter().copied());

        prop_assert_eq!(eager.hour_span(), lazy.hour_span());
        for g in eager.groups() {
            prop_assert_eq!(sorted_keys(eager.by_group(g)), sorted_keys(lazy.by_group(g)));
        }
        let ed = daily_group_aggregates(&eager);
        let ld = daily_group_aggregates(&lazy);
        prop_assert_eq!(ed.len(), ld.len());
        for (e, l) in ed.iter().zip(&ld) {
            prop_assert_eq!((e.group, e.machine, e.day), (l.group, l.machine, l.day));
            prop_assert!(close(e.mean(Metric::NumberOfTasks), l.mean(Metric::NumberOfTasks)));
        }

        // Append after seal: equal to a store built with all records.
        let extra = MachineHourRecord {
            machine: MachineId(99),
            group: GroupKey::new(SkuId(9), ScId(9)),
            hour: 7,
            metrics: MetricValues { tasks_finished: 3.0, ..Default::default() },
        };
        let mut appended = eager;
        appended.push(extra);
        prop_assert!(!appended.is_sealed());
        let mut rebuilt = TelemetryStore::new();
        rebuilt.extend(records.iter().copied());
        rebuilt.push(extra);
        prop_assert_eq!(appended.groups(), rebuilt.groups());
        prop_assert_eq!(
            sorted_keys(appended.by_group(extra.group)),
            sorted_keys(rebuilt.by_group(extra.group))
        );
        prop_assert_eq!(
            daily_group_aggregates(&appended).len(),
            daily_group_aggregates(&rebuilt).len()
        );
    }
}

// ---- interleaved mutate/query sequences --------------------------------

/// One step of an interleaved mutation sequence. `Merge` carries the
/// records for a sub-store that is built (and possibly sealed) on the
/// side and then merged in; `Seal` forces a compaction of the delta.
#[derive(Debug, Clone)]
enum Op {
    PushBatch(Vec<MachineHourRecord>),
    Merge(Vec<MachineHourRecord>, bool),
    Seal,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => prop::collection::vec(arb_record(), 1..40).prop_map(Op::PushBatch),
        3 => (prop::collection::vec(arb_record(), 1..40), any::<bool>())
            .prop_map(|(rs, sealed)| Op::Merge(rs, sealed)),
        1 => Just(Op::Seal),
    ]
}

/// Full structural + numeric comparison, usable after every intermediate
/// mutation — not just at the end of a sequence. Panics on divergence,
/// which the surrounding `proptest!` loop reports with the failing inputs.
fn assert_agrees(reference: &RefStore, columnar: &TelemetryStore) {
    prop_assert_eq!(reference.len(), columnar.len());
    prop_assert_eq!(reference.groups(), columnar.groups());
    prop_assert_eq!(reference.machines(), columnar.machines());
    prop_assert_eq!(reference.hour_span(), columnar.hour_span());
    for g in reference.groups() {
        prop_assert_eq!(sorted_keys(reference.by_group(g)), sorted_keys(columnar.by_group(g)));
    }
    let (lo, hi) = reference.hour_span().unwrap_or((0, 0));
    prop_assert_eq!(
        sorted_keys(reference.by_hours(lo, hi)),
        sorted_keys(columnar.by_hours(lo, hi))
    );
    let evens: BTreeSet<MachineId> = reference
        .machines()
        .into_iter()
        .filter(|m| m.0 % 2 == 0)
        .collect();
    prop_assert_eq!(
        sorted_keys(reference.by_machines_and_hours(&evens, lo, lo + 49)),
        sorted_keys(columnar.by_machines_and_hours(&evens, lo, lo + 49))
    );

    let ref_daily = ref_agg::daily_group_aggregates(reference);
    let col_daily = daily_group_aggregates(columnar);
    prop_assert_eq!(ref_daily.len(), col_daily.len());
    for (r, c) in ref_daily.iter().zip(&col_daily) {
        prop_assert_eq!((r.group, r.machine, r.day), (c.group, c.machine, c.day));
        prop_assert_eq!(r.hours_observed, c.hours_observed);
        for m in METRICS {
            prop_assert!(
                close(r.mean(m), c.mean(m)),
                "daily mean of {} drifted: {} vs {}", m, r.mean(m), c.mean(m)
            );
        }
    }
    let r_series = ref_agg::hourly_fleet_series(reference, Metric::CpuUtilization);
    let c_series = hourly_fleet_series(columnar, Metric::CpuUtilization);
    prop_assert_eq!(r_series.len(), c_series.len());
    for ((rh, rv), (ch, cv)) in r_series.iter().zip(&c_series) {
        prop_assert_eq!(rh, ch);
        prop_assert!(close(*rv, *cv), "fleet series at hour {} drifted", rh);
    }
    let r_util = ref_agg::group_utilization(reference);
    let c_util = group_utilization(columnar);
    prop_assert_eq!(r_util.len(), c_util.len());
    for (r, c) in r_util.iter().zip(&c_util) {
        prop_assert_eq!((r.group, r.machines), (c.group, c.machines));
        prop_assert!(close(r.mean_cpu_utilization, c.mean_cpu_utilization));
        prop_assert!(close(r.mean_running_containers, c.mean_running_containers));
    }
}

proptest! {
    /// The run+delta store must agree with the reference at *every
    /// intermediate state* of an interleaved push → query → merge →
    /// query → seal → query sequence, not just after the final seal.
    /// The narrow machine/hour domain guarantees duplicate
    /// `(machine, hour)` rows land in the delta while twins of the same
    /// keys sit in the sealed run.
    #[test]
    fn interleaved_mutations_agree_with_reference(
        ops in prop::collection::vec(arb_op(), 1..8),
        seed in 0u64..1 << 32,
    ) {
        let mut reference = RefStore::new();
        let mut columnar = TelemetryStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        // `ops` stays borrowed so the harness can print it if a case fails.
        for op in ops.iter().cloned() {
            match op {
                Op::PushBatch(records) => {
                    let mut shuffled = records.clone();
                    shuffled.shuffle(&mut rng);
                    for r in &records {
                        reference.push(*r);
                    }
                    for r in shuffled {
                        columnar.push(r);
                    }
                }
                Op::Merge(records, seal_other) => {
                    let mut ref_other = RefStore::new();
                    ref_other.extend(records.iter().copied());
                    let mut col_other = TelemetryStore::new();
                    let mut shuffled = records.clone();
                    shuffled.shuffle(&mut rng);
                    col_other.extend(shuffled);
                    if seal_other {
                        col_other.seal();
                    }
                    reference.merge(ref_other);
                    columnar.merge(col_other);
                }
                Op::Seal => {
                    columnar.seal();
                    prop_assert!(columnar.is_sealed());
                    prop_assert_eq!(columnar.delta_len(), 0);
                }
            }
            assert_agrees(&reference, &columnar);
        }
        // Close with a seal: compaction must not disturb anything.
        columnar.seal();
        assert_agrees(&reference, &columnar);
    }
}

#[test]
fn empty_store_agrees_with_reference() {
    let reference = RefStore::new();
    let columnar = TelemetryStore::new();
    assert_eq!(reference.hour_span(), columnar.hour_span());
    assert_eq!(reference.groups(), columnar.groups());
    assert_eq!(reference.machines(), columnar.machines());
    assert!(ref_agg::daily_group_aggregates(&reference).is_empty());
    assert!(daily_group_aggregates(&columnar).is_empty());
    assert!(ref_agg::hourly_fleet_series(&reference, Metric::CpuUtilization).is_empty());
    assert!(hourly_fleet_series(&columnar, Metric::CpuUtilization).is_empty());
    assert!(ref_agg::group_utilization(&reference).is_empty());
    assert!(group_utilization(&columnar).is_empty());
}
