//! Telemetry scan benchmarks: the columnar, indexed store and its fused
//! aggregation kernels against the preserved pre-columnar reference
//! (`store::reference` + `aggregate::reference`), in the same process on
//! the same record stream.
//!
//! * `telemetry_scan`: a Performance-Monitor-shaped window — 8 groups ×
//!   32 machines/group × 14 days of hourly records (86,016 rows) — timed
//!   through `daily_group_aggregates`, `group_utilization`, and
//!   `hourly_fleet_series`, columnar vs reference.
//! * `telemetry_scan_64k`: a wide-fleet case (65,536 machines × 6 hours,
//!   393,216 rows) where hour-window reads are a binary search plus a
//!   contiguous run for the columnar store and a full predicate scan for
//!   the reference.
//! * `telemetry_seal`: the one-off cost of building the columnar index,
//!   so the amortization story is on the record next to the query wins.
//!
//! Methodology and current numbers are recorded in the repository README
//! ("Performance") and `BENCH_telemetry.json` (written when
//! `KEA_BENCH_JSON` is set; CI uploads it as an artifact).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use kea_telemetry::store::reference::TelemetryStore as RefStore;
use kea_telemetry::{
    aggregate, daily_group_aggregates, group_utilization, hourly_fleet_series, GroupKey,
    MachineHourRecord, MachineId, Metric, MetricValues, ScId, SkuId, TelemetryStore,
};
use std::hint::black_box;

const N_GROUPS: u16 = 8;
const MACHINES_PER_GROUP: u32 = 32; // 8 × 32 = 256 machines
const DAYS: u64 = 14;
const HOURS: u64 = DAYS * 24; // 336 hourly records per machine

/// One hour of fleet telemetry: 256 machine-hour rows (8 groups × 32
/// machines) with smooth per-group dynamics, the shape of one streaming
/// ingest batch.
fn hour_batch(h: u64) -> Vec<MachineHourRecord> {
    let mut records = Vec::with_capacity((N_GROUPS as usize) * (MACHINES_PER_GROUP as usize));
    for g in 0..N_GROUPS {
        let group = GroupKey::new(SkuId(g), ScId(1));
        for m in 0..MACHINES_PER_GROUP {
            let machine = MachineId(g as u32 * 10_000 + m);
            let phase = (h % 24) as f64 / 24.0;
            let util = 30.0 + g as f64 * 5.0 + 40.0 * phase + (m % 5) as f64;
            records.push(MachineHourRecord {
                machine,
                group,
                hour: h,
                metrics: MetricValues {
                    cpu_utilization: util.min(100.0),
                    avg_running_containers: 4.0 + (m % 7) as f64 + 3.0 * phase,
                    tasks_finished: 50.0 + util,
                    total_data_read_gb: 2.0 + 0.1 * util,
                    task_exec_time_s: 3000.0 + 10.0 * util,
                    cpu_time_s: 1500.0 + 5.0 * util,
                    avg_task_latency_s: 100.0 + util,
                    power_draw_w: 200.0 + util,
                    ..Default::default()
                },
            });
        }
    }
    records
}

/// The monitor-window fleet: 86,016 machine-hour rows (14 days of
/// [`hour_batch`]es), so summaries and roll-ups exercise real spreads.
fn monitor_window() -> Vec<MachineHourRecord> {
    (0..HOURS).flat_map(hour_batch).collect()
}

fn build_columnar(records: &[MachineHourRecord]) -> TelemetryStore {
    let mut store = TelemetryStore::new();
    store.extend(records.iter().copied());
    store.seal(); // index built here, outside every timed region
    store
}

fn build_reference(records: &[MachineHourRecord]) -> RefStore {
    let mut store = RefStore::new();
    store.extend(records.iter().copied());
    store
}

/// Sanity: columnar kernels must agree with the reference before any
/// timing is believed. Mirrors the optimizer-scale bench's guard.
fn assert_agreement(columnar: &TelemetryStore, reference: &RefStore) {
    let cd = daily_group_aggregates(columnar);
    let rd = aggregate::reference::daily_group_aggregates(reference);
    assert_eq!(cd.len(), rd.len(), "daily aggregate count diverged");
    for (c, r) in cd.iter().zip(&rd) {
        assert_eq!((c.group, c.machine, c.day), (r.group, r.machine, r.day));
        let (cm, rm) = (c.mean(Metric::NumberOfTasks), r.mean(Metric::NumberOfTasks));
        assert!((cm - rm).abs() <= 1e-9 * rm.abs().max(1.0), "daily means diverged");
    }
    let cu = group_utilization(columnar);
    let ru = aggregate::reference::group_utilization(reference);
    assert_eq!(cu.len(), ru.len(), "group count diverged");
    for (c, r) in cu.iter().zip(&ru) {
        assert_eq!((c.group, c.machines), (r.group, r.machines));
        assert!(
            (c.mean_cpu_utilization - r.mean_cpu_utilization).abs() <= 1e-9 * r.mean_cpu_utilization,
            "group utilization diverged"
        );
    }
}

fn bench_monitor_window(c: &mut Criterion) {
    let records = monitor_window();
    let columnar = build_columnar(&records);
    let reference = build_reference(&records);
    assert_agreement(&columnar, &reference);

    let mut group = c.benchmark_group("telemetry_scan");
    group.sample_size(20);
    group.bench_function("daily_group_aggregates_columnar", |b| {
        b.iter(|| daily_group_aggregates(black_box(&columnar)))
    });
    group.bench_function("daily_group_aggregates_reference", |b| {
        b.iter(|| aggregate::reference::daily_group_aggregates(black_box(&reference)))
    });
    group.bench_function("group_utilization_columnar", |b| {
        b.iter(|| group_utilization(black_box(&columnar)))
    });
    group.bench_function("group_utilization_reference", |b| {
        b.iter(|| aggregate::reference::group_utilization(black_box(&reference)))
    });
    group.bench_function("hourly_fleet_series_columnar", |b| {
        b.iter(|| hourly_fleet_series(black_box(&columnar), Metric::CpuUtilization))
    });
    group.bench_function("hourly_fleet_series_reference", |b| {
        b.iter(|| {
            aggregate::reference::hourly_fleet_series(black_box(&reference), Metric::CpuUtilization)
        })
    });
    group.finish();
}

const WIDE_MACHINES: u32 = 65_536;
const WIDE_HOURS: u64 = 6;

/// The wide fleet: 64k machines × 6 hours across 16 groups.
fn wide_fleet() -> Vec<MachineHourRecord> {
    let mut records = Vec::with_capacity((WIDE_MACHINES as usize) * WIDE_HOURS as usize);
    for m in 0..WIDE_MACHINES {
        let group = GroupKey::new(SkuId((m % 16) as u16), ScId(1));
        for h in 0..WIDE_HOURS {
            records.push(MachineHourRecord {
                machine: MachineId(m),
                group,
                hour: h,
                metrics: MetricValues {
                    cpu_utilization: 20.0 + (m % 61) as f64 + h as f64,
                    tasks_finished: 10.0 + (m % 13) as f64,
                    avg_running_containers: 3.0 + (m % 5) as f64,
                    ..Default::default()
                },
            });
        }
    }
    records
}

fn bench_wide_fleet(c: &mut Criterion) {
    let records = wide_fleet();
    let columnar = build_columnar(&records);
    let reference = build_reference(&records);

    // Sanity on the window view itself before timing it.
    let col_n = columnar.by_hours(2, 4).count();
    let ref_n = reference.by_hours(2, 4).count();
    assert_eq!(col_n, ref_n, "hour-window cardinality diverged");

    let mut group = c.benchmark_group("telemetry_scan_64k");
    group.sample_size(10);
    group.bench_function("hour_window_sum_columnar", |b| {
        b.iter(|| {
            black_box(&columnar)
                .by_hours(2, 4)
                .map(|r| r.metrics.cpu_utilization)
                .sum::<f64>()
        })
    });
    group.bench_function("hour_window_sum_reference", |b| {
        b.iter(|| {
            black_box(&reference)
                .by_hours(2, 4)
                .map(|r| r.metrics.cpu_utilization)
                .sum::<f64>()
        })
    });
    group.bench_function("group_utilization_columnar", |b| {
        b.iter(|| group_utilization(black_box(&columnar)))
    });
    group.bench_function("group_utilization_reference", |b| {
        b.iter(|| aggregate::reference::group_utilization(black_box(&reference)))
    });
    group.finish();
}

fn bench_seal(c: &mut Criterion) {
    let records = monitor_window();
    let mut group = c.benchmark_group("telemetry_seal");
    group.sample_size(10);
    // Bulk extend now compacts inside the call, so the timed region is
    // the whole ingest: copy-in, sort, and index build.
    group.bench_function("seal_86k_records", |b| {
        b.iter_batched(
            || records.clone(),
            |rs| {
                let mut store = TelemetryStore::new();
                store.extend(rs);
                store.seal();
                store
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Streaming-append benches: the run+delta store against the
/// append-then-rebuild world it replaces.
///
/// * `append_one_hour_then_query_delta`: the steady state — a sealed 86k
///   store takes one fresh hour (256 rows, far under the compaction
///   threshold) and answers `group_utilization` by merging run + delta.
/// * `append_one_hour_then_query_rebuild`: what the same arrival cost
///   before incremental re-seal — re-sort and re-index all 86k+256 rows
///   before the query can run.
/// * `seal_4096_row_delta`: compacting a near-threshold delta via the
///   O(n+d) two-sorted-sequence merge, against `telemetry_seal`'s
///   from-scratch build of the same data.
/// * `replay_14_days_hourly`: the full ingest loop — 336 per-hour
///   batches, a fleet query after every batch, automatic compactions
///   included.
fn bench_stream(c: &mut Criterion) {
    let records = monitor_window();
    let sealed = build_columnar(&records);
    let batch = hour_batch(HOURS); // the next hour arriving

    // Sanity: the delta-merged answer must equal the reference over the
    // combined stream before any timing is believed.
    {
        let mut streamed = sealed.clone();
        streamed.extend(batch.iter().copied());
        assert!(!streamed.is_sealed(), "one hour must stay in the delta");
        let mut all = records.clone();
        all.extend(batch.iter().copied());
        let reference = build_reference(&all);
        assert_agreement(&streamed, &reference);
    }

    let mut group = c.benchmark_group("telemetry_stream");
    group.sample_size(10);
    group.bench_function("append_one_hour_then_query_delta", |b| {
        b.iter_batched(
            || {
                // A fresh clone's record log is allocated exactly-sized;
                // pre-reserve so the timed region measures the streaming
                // append, not a one-off realloc of the whole log.
                let mut store = sealed.clone();
                store.reserve(batch.len());
                store
            },
            |mut store| {
                store.extend(batch.iter().copied());
                group_utilization(black_box(&store))
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("append_one_hour_then_query_rebuild", |b| {
        b.iter_batched(
            || {
                let mut all = records.clone();
                all.extend(batch.iter().copied());
                all
            },
            |all| {
                let mut store = TelemetryStore::new();
                store.extend(all);
                store.seal();
                group_utilization(black_box(&store))
            },
            BatchSize::LargeInput,
        )
    });
    // 16 hours of arrivals (4,096 rows) sit just under the 5% compaction
    // threshold at this run size, so the whole delta compacts in one
    // explicit seal.
    group.bench_function("seal_4096_row_delta", |b| {
        b.iter_batched(
            || {
                let mut store = sealed.clone();
                for h in 0..16 {
                    store.extend(hour_batch(HOURS + h));
                }
                assert!(!store.is_sealed(), "4,096 rows must stay in the delta");
                store
            },
            |mut store| {
                store.seal();
                store
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("replay_14_days_hourly", |b| {
        b.iter(|| {
            let mut store = TelemetryStore::new();
            let mut acc = 0.0;
            for h in 0..HOURS {
                store.extend(hour_batch(h));
                acc += group_utilization(black_box(&store))
                    .iter()
                    .map(|g| g.mean_cpu_utilization)
                    .sum::<f64>();
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_monitor_window,
    bench_wide_fleet,
    bench_seal,
    bench_stream
);
criterion_main!(benches);
