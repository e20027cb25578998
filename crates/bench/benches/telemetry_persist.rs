//! Durable-telemetry benchmarks: the WAL + segment persistence layer
//! against the flat-CSV path it supersedes for restart recovery.
//!
//! * `wal_append`: one streaming hour (256 rows) appended and fsynced —
//!   the steady-state durability cost per ingest batch — plus the bulk
//!   86k-row append that a cold backfill pays.
//! * `telemetry_persist`: restart cost at the monitor-window size
//!   (86,016 rows). `segment_load_86k` opens a directory whose sealed
//!   run was spilled to a segment file, which loads and checks it in
//!   full. `csv_reingest_86k`
//!   re-parses the same records from CSV and rebuilds the index from
//!   scratch; `recovery_with_wal_tail` adds a 256-row WAL tail on top
//!   of the segment to show replay cost is marginal.
//!
//! * `telemetry_retention`: month-scale retention (30 days × 256
//!   machines = 184,320 rows, ingested day by day so the ladder leaves
//!   a multi-segment directory). `day_query_full_load` opens the store,
//!   which loads every segment, and answers a one-day windowed roll-up;
//!   `rotate_spill_one_day` seals + syncs one new day against the month
//!   of history, timing a rotation whose write amplification is bounded
//!   to the new run (asserted: unchanged segments are not rewritten).
//!
//! Numbers are recorded in `BENCH_persist.json` (written when
//! `KEA_BENCH_JSON` is set; CI uploads it as an artifact).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use kea_telemetry::{
    daily_group_aggregates_window, read_csv, write_csv, GroupKey, MachineHourRecord, MachineId,
    MetricValues, ScId, SkuId, TelemetryStore,
};
use std::hint::black_box;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const N_GROUPS: u16 = 8;
const MACHINES_PER_GROUP: u32 = 32; // 8 × 32 = 256 machines
const DAYS: u64 = 14;
const HOURS: u64 = DAYS * 24; // 336 hourly records per machine

/// One hour of fleet telemetry: 256 machine-hour rows, the shape of one
/// streaming ingest batch (mirrors `telemetry_scan`'s generator).
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
/// [`hour_batch`]es).
fn monitor_window() -> Vec<MachineHourRecord> {
    (0..HOURS).flat_map(hour_batch).collect()
}

/// A scratch store directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "kea-bench-persist-{}-{tag}-{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Builds a durable store directory holding the sealed monitor window in
/// a segment file, with an empty WAL. Returns the scratch guard.
fn sealed_store_dir(records: &[MachineHourRecord], tag: &str) -> Scratch {
    let scratch = Scratch::new(tag);
    let mut store = TelemetryStore::open(&scratch.0).expect("open scratch store");
    store.extend(records.iter().copied());
    store.seal();
    store.sync().expect("sync sealed store");
    scratch
}

fn bench_wal_append(c: &mut Criterion) {
    let batch = hour_batch(HOURS);
    let window = monitor_window();

    let mut group = c.benchmark_group("wal_append");
    group.sample_size(20);
    // Steady state: one streaming hour made durable (append + one fsync).
    group.bench_function("sync_one_hour_256_rows", |b| {
        let scratch = Scratch::new("hour");
        let mut store = TelemetryStore::open(&scratch.0).expect("open store");
        let mut h = HOURS;
        b.iter(|| {
            store.extend(hour_batch(h));
            h += 1;
            store.sync().expect("sync hour batch");
        });
    });
    // Cold backfill: the whole window appended and synced in one frame.
    group.bench_function("sync_bulk_86k_rows", |b| {
        b.iter_batched(
            || {
                let scratch = Scratch::new("bulk");
                let store = TelemetryStore::open(&scratch.0).expect("open store");
                (scratch, store)
            },
            |(scratch, mut store)| {
                store.extend(window.iter().copied());
                store.sync().expect("sync bulk");
                drop(store);
                scratch
            },
            BatchSize::PerIteration,
        )
    });
    let _ = black_box(&batch);
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let records = monitor_window();

    // CSV fixture for the re-ingest side.
    let csv_scratch = Scratch::new("csv");
    std::fs::create_dir_all(&csv_scratch.0).expect("create csv dir");
    let csv_path = csv_scratch.0.join("window.csv");
    {
        let mut store = TelemetryStore::new();
        store.extend(records.iter().copied());
        let mut out = Vec::new();
        write_csv(&store, &mut out).expect("render csv");
        std::fs::write(&csv_path, out).expect("write csv fixture");
    }

    // Segment fixture: sealed run spilled to disk, empty WAL.
    let seg_scratch = sealed_store_dir(&records, "segment");

    // Segment + tail fixture: one extra streaming hour in the WAL.
    let tail_scratch = sealed_store_dir(&records, "tail");
    {
        let mut store = TelemetryStore::open(&tail_scratch.0).expect("reopen tail store");
        store.extend(hour_batch(HOURS));
        store.sync().expect("sync tail");
    }

    // Sanity before timing: both restart paths must yield the same rows.
    {
        let from_seg = TelemetryStore::open(&seg_scratch.0).expect("recover segment");
        let from_csv =
            read_csv(BufReader::new(std::fs::File::open(&csv_path).expect("open csv")))
                .expect("re-ingest csv");
        assert_eq!(from_seg.len(), from_csv.len(), "restart paths diverged");
        let from_tail = TelemetryStore::open(&tail_scratch.0).expect("recover tail");
        assert_eq!(from_tail.len(), records.len() + 256, "tail replay diverged");
    }

    let mut group = c.benchmark_group("telemetry_persist");
    group.sample_size(20);
    group.bench_function("segment_load_86k", |b| {
        b.iter(|| TelemetryStore::open(black_box(&seg_scratch.0)).expect("recover segment"))
    });
    group.bench_function("csv_reingest_86k", |b| {
        b.iter(|| {
            let file = std::fs::File::open(black_box(&csv_path)).expect("open csv");
            read_csv(BufReader::new(file)).expect("re-ingest csv")
        })
    });
    group.bench_function("recovery_with_wal_tail", |b| {
        b.iter(|| TelemetryStore::open(black_box(&tail_scratch.0)).expect("recover tail"))
    });
    group.finish();
}

/// Copies a flat store directory (MANIFEST + WAL + segments) so a bench
/// iteration can mutate it without touching the shared fixture.
fn copy_store_dir(src: &PathBuf, tag: &str) -> Scratch {
    let scratch = Scratch::new(tag);
    std::fs::create_dir_all(&scratch.0).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read fixture dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), scratch.0.join(entry.file_name())).expect("copy store file");
    }
    scratch
}

fn bench_retention(c: &mut Criterion) {
    const MONTH_DAYS: u64 = 30;
    const ROWS_PER_DAY: usize = 24 * (N_GROUPS as usize) * (MACHINES_PER_GROUP as usize);

    // A month of fleet history ingested the way a live monitor would:
    // one day at a time, sealed and synced, so the binary-counter ladder
    // leaves a handful of segments of geometrically increasing span and
    // the final day lands in the smallest one.
    let month_scratch = Scratch::new("month");
    {
        let mut store = TelemetryStore::open(&month_scratch.0).expect("open month store");
        for d in 0..MONTH_DAYS {
            store.extend((d * 24..(d + 1) * 24).flat_map(hour_batch));
            store.seal();
            store.sync().expect("sync day");
        }
    }
    let day_start = (MONTH_DAYS - 1) * 24;
    let day_end = MONTH_DAYS * 24;

    // Sanity before timing: the fixture is multi-segment and the final
    // day has roll-ups.
    {
        let store = TelemetryStore::open(&month_scratch.0).expect("reopen month store");
        assert_eq!(store.len(), MONTH_DAYS as usize * ROWS_PER_DAY);
        assert!(store.run_count() > 1, "month fixture must be multi-segment");
        let windowed = daily_group_aggregates_window(&store, day_start, day_end);
        assert!(!windowed.is_empty(), "final day must produce roll-ups");
    }

    let mut group = c.benchmark_group("telemetry_retention");
    group.sample_size(20);
    // Restart + one-day roll-up: open loads every segment, then the
    // window's hour bounds pick the runs the roll-up reads.
    group.bench_function("day_query_full_load", |b| {
        b.iter(|| {
            let store = TelemetryStore::open(black_box(&month_scratch.0)).expect("open month");
            black_box(daily_group_aggregates_window(&store, day_start, day_end))
        })
    });
    // Write amplification per rotation: one new day sealed + synced on
    // top of the month. Only the new run (and whatever the ladder folds
    // it into) may be spilled; the month's history passes through by
    // name.
    group.bench_function("rotate_spill_one_day", |b| {
        b.iter_batched(
            || {
                let scratch = copy_store_dir(&month_scratch.0, "rotate");
                let mut store = TelemetryStore::open(&scratch.0).expect("open copy");
                store.extend((MONTH_DAYS * 24..(MONTH_DAYS + 1) * 24).flat_map(hour_batch));
                store.seal();
                (scratch, store)
            },
            |(scratch, mut store)| {
                let stats = store.sync().expect("rotation sync");
                assert!(stats.rotated, "sealed day must rotate");
                black_box(stats.segment_bytes);
                (scratch, store)
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_wal_append, bench_recovery, bench_retention);
criterion_main!(benches);
