//! Crash-safety suite for the durable telemetry store.
//!
//! The durability contract under test: after reopening a directory
//! written by a process that died at an arbitrary point, every record
//! covered by a completed `sync()` is recovered (checksum-verified),
//! a torn WAL tail is truncated, corrupt segments are quarantined with
//! a typed error — and recovery *never* panics. Agreement is asserted
//! against the flat-scan reference store on every view and kernel, the
//! same machinery as `tests/agreement.rs`.
//!
//! "Process death" is simulated two ways: dropping the store without a
//! final sync (nothing buffers in the store, so a drop *is* a kill
//! between syncs), and truncating / byte-flipping the on-disk files at
//! randomized offsets, which covers a kill mid-`write(2)`.

use kea_telemetry::aggregate::reference as ref_agg;
use kea_telemetry::persist::test_hooks;
use kea_telemetry::store::reference::TelemetryStore as RefStore;
use kea_telemetry::{
    daily_group_aggregates, daily_group_aggregates_window, group_utilization,
    hourly_fleet_series, hourly_fleet_series_window, GroupKey, MachineHourRecord, MachineId,
    Metric, MetricValues, PersistError, ScId, SkuId, TelemetryStore,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The failure-injection hooks in `persist::test_hooks` are process-wide
/// one-slot statics; tests that arm one hold this lock so a concurrently
/// running hook test cannot overwrite the armed injection before it
/// fires.
static HOOK_LOCK: Mutex<()> = Mutex::new(());

fn hook_guard() -> MutexGuard<'static, ()> {
    HOOK_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---- scratch directories ----------------------------------------------

/// A unique scratch directory removed on drop (kept on panic only if the
/// drop never runs, i.e. never — proptest catches the panic first, so
/// cleanup is reliable).
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new() -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "kea-persist-crash-{}-{n}",
            std::process::id()
        ));
        // A stale dir from a previous run with the same pid is removed
        // rather than recovered into.
        let _ = std::fs::remove_dir_all(&dir);
        Scratch { dir }
    }

    fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---- record generation and agreement (as in tests/agreement.rs) -------

const HOURS: [u64; 12] = [0, 1, 2, 5, 23, 24, 47, 48, 49, 120, 121, 500];

fn arb_record() -> impl Strategy<Value = MachineHourRecord> {
    (0u32..6, 0u16..3, 0usize..HOURS.len(), 0.0..100.0f64, 0.0..500.0f64).prop_map(
        |(machine, sku, hour_idx, cpu, tasks)| MachineHourRecord {
            machine: MachineId(machine),
            group: GroupKey::new(SkuId(sku), ScId(1 + (machine % 2) as u8)),
            hour: HOURS[hour_idx % HOURS.len()],
            metrics: MetricValues {
                cpu_utilization: cpu,
                tasks_finished: tasks,
                total_data_read_gb: tasks * 0.5,
                cpu_time_s: cpu * 3.0,
                avg_running_containers: 1.0 + cpu * 0.1,
                ..Default::default()
            },
        },
    )
}

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

/// Structural + numeric agreement between the reference store and a
/// (recovered) columnar store, across every view family and kernel.
fn assert_agrees(reference: &RefStore, columnar: &TelemetryStore) {
    assert_eq!(reference.len(), columnar.len());
    assert_eq!(reference.groups(), columnar.groups());
    assert_eq!(reference.machines(), columnar.machines());
    assert_eq!(reference.hour_span(), columnar.hour_span());
    for g in reference.groups() {
        assert_eq!(sorted_keys(reference.by_group(g)), sorted_keys(columnar.by_group(g)));
    }
    let (lo, hi) = reference.hour_span().unwrap_or((0, 0));
    assert_eq!(
        sorted_keys(reference.by_hours(lo, hi)),
        sorted_keys(columnar.by_hours(lo, hi))
    );

    let ref_daily = ref_agg::daily_group_aggregates(reference);
    let col_daily = daily_group_aggregates(columnar);
    assert_eq!(ref_daily.len(), col_daily.len());
    for (r, c) in ref_daily.iter().zip(&col_daily) {
        assert_eq!((r.group, r.machine, r.day), (c.group, c.machine, c.day));
        assert_eq!(r.hours_observed, c.hours_observed);
        for m in [Metric::CpuUtilization, Metric::NumberOfTasks, Metric::TotalDataRead] {
            assert!(
                close(r.mean(m), c.mean(m)),
                "daily mean of {m} drifted: {} vs {}",
                r.mean(m),
                c.mean(m)
            );
        }
    }
    let r_series = ref_agg::hourly_fleet_series(reference, Metric::CpuUtilization);
    let c_series = hourly_fleet_series(columnar, Metric::CpuUtilization);
    assert_eq!(r_series.len(), c_series.len());
    for ((rh, rv), (ch, cv)) in r_series.iter().zip(&c_series) {
        assert_eq!(rh, ch);
        assert!(close(*rv, *cv), "fleet series at hour {rh} drifted");
    }
    let r_util = ref_agg::group_utilization(reference);
    let c_util = group_utilization(columnar);
    assert_eq!(r_util.len(), c_util.len());
    for (r, c) in r_util.iter().zip(&c_util) {
        assert_eq!((r.group, r.machines), (c.group, c.machines));
        assert!(close(r.mean_cpu_utilization, c.mean_cpu_utilization));
    }

    // Windowed (pruned) paths must agree with the reference predicate
    // scans too — one-day windows at the span's start and middle.
    if let Some((lo, hi)) = reference.hour_span() {
        for ws in [lo, lo + (hi - lo) / 2] {
            let we = ws + 24;
            assert_eq!(
                sorted_keys(reference.by_hours(ws, we)),
                sorted_keys(columnar.by_hours(ws, we))
            );
            let r_daily = ref_agg::daily_group_aggregates_window(reference, ws, we);
            let c_daily = daily_group_aggregates_window(columnar, ws, we);
            assert_eq!(r_daily.len(), c_daily.len());
            for (r, c) in r_daily.iter().zip(&c_daily) {
                assert_eq!((r.group, r.machine, r.day), (c.group, c.machine, c.day));
                assert_eq!(r.hours_observed, c.hours_observed);
                assert!(close(r.mean(Metric::CpuUtilization), c.mean(Metric::CpuUtilization)));
            }
            let r_series =
                ref_agg::hourly_fleet_series_window(reference, Metric::CpuUtilization, ws, we);
            let c_series = hourly_fleet_series_window(columnar, Metric::CpuUtilization, ws, we);
            assert_eq!(r_series.len(), c_series.len());
            for ((rh, rv), (ch, cv)) in r_series.iter().zip(&c_series) {
                assert_eq!(rh, ch);
                assert!(close(*rv, *cv), "windowed fleet series at hour {rh} drifted");
            }
        }
    }
}

/// Reads the live WAL file name out of `dir/MANIFEST` (the documented
/// text format: one `wal <name>` line).
fn live_wal(dir: &Path) -> PathBuf {
    let text = std::fs::read_to_string(dir.join("MANIFEST")).expect("manifest readable");
    for line in text.lines() {
        if let Some(name) = line.strip_prefix("wal ") {
            return dir.join(name);
        }
    }
    panic!("no wal line in manifest: {text:?}");
}

/// Every file in `dir` with its bytes, sorted by name.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let bytes = std::fs::read(e.path()).expect("read file");
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    files.sort();
    files
}

/// Reads the live segment file names out of `dir/MANIFEST`.
fn live_segments(dir: &Path) -> Vec<PathBuf> {
    let text = std::fs::read_to_string(dir.join("MANIFEST")).expect("manifest readable");
    text.lines()
        .filter_map(|l| l.strip_prefix("segment "))
        .filter_map(|rest| rest.split(' ').next())
        .map(|name| dir.join(name))
        .collect()
}

// ---- the crash-point properties ---------------------------------------

/// One mutation step against the durable store. `Sync` is the
/// durability point; `Seal` cuts a new run so the next sync rotates WAL
/// contents into a segment.
#[derive(Debug, Clone)]
enum Op {
    PushBatch(Vec<MachineHourRecord>),
    Seal,
    Sync,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => proptest::collection::vec(arb_record(), 1..60).prop_map(Op::PushBatch),
        1 => Just(Op::Seal),
        2 => Just(Op::Sync),
    ]
}

proptest! {
    /// Graceful-path agreement: any interleaving of push/seal/sync,
    /// closed with a sync, must reopen into a store that agrees with
    /// the in-memory reference on every view and kernel — and a second
    /// generation of appends on the *reopened* store must too.
    #[test]
    fn reopen_agrees_with_reference(
        ops in proptest::collection::vec(arb_op(), 1..10),
        tail in proptest::collection::vec(arb_record(), 0..40),
    ) {
        let scratch = Scratch::new();
        let mut reference = RefStore::new();
        let mut store = TelemetryStore::open(scratch.path()).expect("open fresh");
        prop_assert!(store.is_durable());
        prop_assert_eq!(store.storage_dir(), Some(scratch.path()));

        for op in &ops {
            match op {
                Op::PushBatch(records) => {
                    reference.extend(records.iter().copied());
                    store.extend(records.iter().copied());
                }
                Op::Seal => store.seal(),
                Op::Sync => {
                    store.sync().expect("sync");
                }
            }
        }
        store.sync().expect("final sync");
        drop(store);

        let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
        assert_agrees(&reference, &reopened);

        // Second generation: keep appending on the recovered store.
        let mut store = reopened;
        reference.extend(tail.iter().copied());
        store.extend(tail.iter().copied());
        store.seal();
        store.sync().expect("sync after reopen");
        drop(store);
        let reopened = TelemetryStore::open(scratch.path()).expect("second reopen");
        assert_agrees(&reference, &reopened);
    }

    /// Kill-point property for the WAL: truncate the live WAL at an
    /// arbitrary byte offset (a crash mid-append) and reopen. The
    /// recovered delta must be an append-order *prefix* of what was
    /// written, every batch closed by a sync *before* the last one must
    /// survive in full, and the recovered store must agree with a
    /// reference over exactly the recovered records.
    #[test]
    fn wal_truncated_at_any_offset_recovers_synced_prefix(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_record(), 1..30), 1..6),
        cut_frac in 0.0..1.0f64,
    ) {
        let scratch = Scratch::new();
        let mut store = TelemetryStore::open(scratch.path()).expect("open fresh");
        let mut appended = Vec::new();
        let mut synced_len = 0usize;
        for batch in &batches {
            store.extend(batch.iter().copied());
            appended.extend_from_slice(batch);
            store.sync().expect("sync");
            synced_len = appended.len();
        }
        // A few unsynced records sit only in memory — lost by design.
        store.extend(batches.iter().flatten().take(3).copied());
        drop(store);

        // Crash mid-write: truncate the WAL at an arbitrary offset.
        let wal = live_wal(scratch.path());
        let full = std::fs::metadata(&wal).expect("wal meta").len();
        let cut = (full as f64 * cut_frac) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&wal).expect("open wal");
        f.set_len(cut).expect("truncate");
        drop(f);

        if cut < 8 {
            // A cut inside the magic is not crash-reachable (the magic
            // is fsynced before the manifest ever names the WAL): that
            // is real corruption, and must fail typed — never panic.
            let err = TelemetryStore::open(scratch.path())
                .expect_err("short-magic WAL must not open");
            prop_assert!(matches!(err, PersistError::Corrupt { .. }), "got {err}");
            return;
        }
        let recovered = TelemetryStore::open(scratch.path()).expect("recovery must not fail");
        let got: Vec<MachineHourRecord> = recovered.iter().copied().collect();

        // Recovered records are an append-order prefix of what was
        // appended (frames are atomic: a cut inside frame k drops
        // frames k.. entirely); the unsynced tail never hit disk.
        prop_assert!(got.len() <= appended.len());
        let expect_prefix: Vec<_> = appended.iter().take(got.len()).copied().collect();
        prop_assert_eq!(&got, &expect_prefix, "recovered records are not a prefix");

        // Nothing before the final sync may be lost unless the cut fell
        // before the final frame; a cut at or past `full` loses nothing.
        if cut >= full {
            prop_assert_eq!(got.len(), synced_len);
        }

        // And the recovered store behaves exactly like a fresh store
        // over the recovered records.
        let mut reference = RefStore::new();
        reference.extend(got.iter().copied());
        assert_agrees(&reference, &recovered);
    }

    /// Kill-point property for rotation: seal + sync (spilling a
    /// segment), then flip one byte anywhere in the segment file. The
    /// damage must surface as a typed `Corrupt` error — never a panic —
    /// and quarantine the damaged file. Where it surfaces depends on
    /// where the flip landed: header damage fails `open` itself (the
    /// header is validated eagerly), body damage passes `open` (bodies
    /// decode lazily) and fails `verify()` on the reopened store, which
    /// then refuses to `sync`.
    #[test]
    fn segment_byte_flip_quarantines_with_typed_error(
        records in proptest::collection::vec(arb_record(), 1..80),
        flip_frac in 0.0..1.0f64,
        flip_bit in 0u8..8,
    ) {
        let scratch = Scratch::new();
        let mut store = TelemetryStore::open(scratch.path()).expect("open fresh");
        store.extend(records.iter().copied());
        store.seal();
        store.sync().expect("sync");
        drop(store);

        let segments = live_segments(scratch.path());
        prop_assert_eq!(segments.len(), 1, "seal+sync must spill exactly one segment");
        let seg = &segments[0];
        let mut bytes = std::fs::read(seg).expect("read segment");
        let at = ((bytes.len() - 1) as f64 * flip_frac) as usize;
        bytes[at] ^= 1 << flip_bit;
        std::fs::write(seg, &bytes).expect("write corrupted segment");

        let quarantined = seg.with_extension("kseg.quarantine");
        match TelemetryStore::open(scratch.path()) {
            // Flip landed in the eagerly-validated header region.
            Err(PersistError::Corrupt { path, .. }) => {
                prop_assert_eq!(&path, seg);
                prop_assert!(quarantined.exists(), "corrupt segment not quarantined");
                prop_assert!(!seg.exists());
            }
            Err(other) => prop_assert!(false, "wrong error type: {other}"),
            // Flip landed in the lazily-decoded body: open passes on the
            // intact header, the first decode quarantines and degrades.
            Ok(mut reopened) => {
                let err = reopened.verify().expect_err("body flip must fail verify");
                prop_assert!(matches!(err, PersistError::Corrupt { .. }), "got {err}");
                prop_assert!(quarantined.exists(), "corrupt segment not quarantined");
                prop_assert!(!seg.exists());
                // A degraded store serves the surviving sides (here:
                // nothing) but must refuse to overwrite history.
                prop_assert_eq!(reopened.by_hours(0, u64::MAX).count(), 0);
                prop_assert!(reopened.sync().is_err(), "degraded store must refuse sync");
            }
        }
    }
}

// ---- directed crash/abuse cases ---------------------------------------

fn rec(i: u64) -> MachineHourRecord {
    MachineHourRecord {
        machine: MachineId((i % 11) as u32),
        group: GroupKey::new(SkuId((i % 4) as u16), ScId((i % 2) as u8)),
        hour: i / 11,
        metrics: MetricValues { tasks_finished: i as f64, ..MetricValues::default() },
    }
}

#[test]
fn sync_on_in_memory_store_is_not_durable() {
    let mut store = TelemetryStore::new();
    store.push(rec(1));
    assert!(!store.is_durable());
    assert!(store.storage_dir().is_none());
    assert!(matches!(store.sync(), Err(PersistError::NotDurable)));
}

#[test]
fn clone_of_durable_store_is_detached() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend((0..50).map(rec));
    store.sync().expect("sync");

    let mut clone = store.clone();
    assert!(!clone.is_durable());
    assert!(matches!(clone.sync(), Err(PersistError::NotDurable)));
    // Mutating the clone must not disturb the original's directory.
    clone.extend((50..100).map(rec));
    drop(store);
    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.len(), 50);
}

#[test]
fn unsynced_records_are_lost_synced_records_survive() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend((0..30).map(rec));
    store.sync().expect("sync");
    store.extend((30..60).map(rec)); // never synced — the crash eats these
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    let got: Vec<_> = reopened.iter().copied().collect();
    let want: Vec<_> = (0..30).map(rec).collect();
    assert_eq!(got, want);
}

#[test]
fn rotation_covers_compaction_spill_and_wal_reset() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    // Past the 1024 auto-compaction threshold: the store compacts on its
    // own, so the next sync must rotate without an explicit seal.
    store.extend((0..2000).map(rec));
    store.sync().expect("sync");
    assert!(!live_segments(scratch.path()).is_empty(), "compaction must spill a segment");
    // The tail past the compaction point rides in the WAL.
    store.extend((2000..2010).map(rec));
    store.sync().expect("tail sync");
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.len(), 2010);
    let mut reference = RefStore::new();
    reference.extend((0..2010).map(rec));
    assert_agrees(&reference, &reopened);
}

#[test]
fn missing_manifest_with_store_files_is_typed_error() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend((0..1500).map(rec));
    store.seal();
    store.sync().expect("sync");
    drop(store);

    std::fs::remove_file(scratch.path().join("MANIFEST")).expect("remove manifest");
    match TelemetryStore::open(scratch.path()) {
        Err(PersistError::MissingManifest { dir }) => assert_eq!(dir, scratch.path()),
        other => panic!("expected MissingManifest, got {other:?}"),
    }
}

#[test]
fn garbage_manifest_is_corrupt_not_panic() {
    let scratch = Scratch::new();
    std::fs::create_dir_all(scratch.path()).expect("mkdir");
    std::fs::write(scratch.path().join("MANIFEST"), b"\xFF\xFEtotal garbage\n").expect("write");
    assert!(matches!(
        TelemetryStore::open(scratch.path()),
        Err(PersistError::Corrupt { .. })
    ));
}

#[test]
fn manifest_path_traversal_is_rejected() {
    let scratch = Scratch::new();
    std::fs::create_dir_all(scratch.path()).expect("mkdir");
    std::fs::write(
        scratch.path().join("MANIFEST"),
        "kea-telemetry-manifest v3\nsegment ../../escape.kseg rows 5 hours 0 1\nwal w.wal\n",
    )
    .expect("write");
    assert!(matches!(
        TelemetryStore::open(scratch.path()),
        Err(PersistError::Corrupt { .. })
    ));
}

#[test]
fn orphans_from_interrupted_rotation_are_swept() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend((0..10).map(rec));
    store.sync().expect("sync");
    drop(store);

    // Fake the debris of a rotation that died before the manifest flip:
    // a segment nobody references, a stray WAL, a temp file.
    std::fs::write(scratch.path().join("seg-000099.kseg"), b"debris").expect("write");
    std::fs::write(scratch.path().join("wal-000099.wal"), b"debris").expect("write");
    std::fs::write(scratch.path().join("seg-000100.kseg.tmp"), b"debris").expect("write");

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen sweeps orphans");
    assert_eq!(reopened.len(), 10);
    assert!(!scratch.path().join("seg-000099.kseg").exists());
    assert!(!scratch.path().join("wal-000099.wal").exists());
    assert!(!scratch.path().join("seg-000100.kseg.tmp").exists());
}

#[test]
fn quarantined_files_survive_the_sweep() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend((0..40).map(rec));
    store.seal();
    store.sync().expect("sync");
    drop(store);

    let segments = live_segments(scratch.path());
    let seg = &segments[0];
    let mut bytes = std::fs::read(seg).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(seg, &bytes).expect("write");

    // A mid-file flip lands in the lazily-decoded body, so open passes
    // on the intact header; the first decode quarantines the file.
    let reopened = TelemetryStore::open(scratch.path()).expect("open validates headers only");
    assert!(reopened.verify().is_err(), "body corruption must fail verify");
    drop(reopened);
    let quarantined = seg.with_extension("kseg.quarantine");
    assert!(quarantined.exists());

    // The segment is gone, so the next open fails on the missing file —
    // but it must not delete the quarantined bytes.
    assert!(TelemetryStore::open(scratch.path()).is_err());
    assert!(quarantined.exists(), "sweep must never remove quarantined files");
}

#[test]
fn empty_store_roundtrip() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    assert!(store.is_empty());
    store.sync().expect("sync of empty store");
    drop(store);
    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert!(reopened.is_empty());
    assert!(reopened.is_durable());
}

// ---- injected-failure crash points (persist::test_hooks) ---------------

fn rec_at(i: u64, hour: u64) -> MachineHourRecord {
    MachineHourRecord {
        machine: MachineId((i % 11) as u32),
        group: GroupKey::new(SkuId((i % 4) as u16), ScId((i % 2) as u8)),
        hour,
        metrics: MetricValues { tasks_finished: i as f64, ..MetricValues::default() },
    }
}

/// Regression (previously: a retried `sync()` after a WAL fsync failure
/// re-appended every frame of the failed batch, so the retry persisted
/// each record twice and replay duplicated the delta). The retry must
/// recognize the frames already on disk and only repeat the durability
/// barrier.
#[test]
fn failed_wal_fsync_retry_is_idempotent() {
    let _guard = hook_guard();
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend((0..100).map(rec));

    test_hooks::fail_next_wal_sync(scratch.path());
    let err = store.sync().expect_err("injected fsync failure must surface");
    assert!(matches!(err, PersistError::Io { .. }), "got {err}");

    // The caller retries; the batch must land exactly once.
    store.sync().expect("retry after fsync failure");
    drop(store);
    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    let got: Vec<_> = reopened.iter().copied().collect();
    let want: Vec<_> = (0..100).map(rec).collect();
    assert_eq!(got, want, "fsync-failure retry must not duplicate records");
}

/// The torn-frame variant: the append itself dies mid-frame (a crash or
/// ENOSPC partway through `write(2)`). The retry must erase the torn
/// partial frame and append the batch exactly once.
#[test]
fn failed_wal_append_retry_has_no_duplicates_or_torn_frames() {
    let _guard = hook_guard();
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend((0..50).map(rec));
    store.sync().expect("first sync");
    store.extend((50..100).map(rec));

    test_hooks::fail_wal_append_mid_frame(scratch.path(), 20);
    let err = store.sync().expect_err("injected append failure must surface");
    assert!(matches!(err, PersistError::Io { .. }), "got {err}");

    store.sync().expect("retry after torn append");
    drop(store);
    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    let got: Vec<_> = reopened.iter().copied().collect();
    let want: Vec<_> = (0..100).map(rec).collect();
    assert_eq!(got, want, "torn-append retry must not duplicate or drop records");
}

/// Crash between segment spill and manifest flip: the new segments and
/// WAL are on disk but the manifest never renames over. Reopening must
/// serve exactly the previous committed state and sweep the orphans.
#[test]
fn manifest_flip_crash_preserves_previous_state() {
    let _guard = hook_guard();
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend((0..100).map(rec));
    store.sync().expect("commit state A");
    store.extend((100..150).map(rec));
    store.seal(); // next sync must rotate

    test_hooks::fail_next_manifest_flip(scratch.path());
    let err = store.sync().expect_err("injected flip failure must surface");
    assert!(matches!(err, PersistError::Io { .. }), "got {err}");
    drop(store); // crash

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    let got: Vec<_> = reopened.iter().copied().collect();
    let want: Vec<_> = (0..100).map(rec).collect();
    assert_eq!(got, want, "uncommitted rotation must not be visible");
    // The orphaned segment from the dead rotation is gone.
    assert!(live_segments(scratch.path()).is_empty());
    let stray_segments = std::fs::read_dir(scratch.path())
        .expect("read dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".kseg"))
        .count();
    assert_eq!(stray_segments, 0, "orphaned segments must be swept");
}

/// The same crash point, but the process survives and retries: the
/// retried sync must converge (regenerating the same segment names,
/// overwriting the debris) and commit everything.
#[test]
fn manifest_flip_failure_retry_converges() {
    let _guard = hook_guard();
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend((0..100).map(rec));
    store.sync().expect("commit state A");
    store.extend((100..150).map(rec));
    store.seal();

    test_hooks::fail_next_manifest_flip(scratch.path());
    assert!(store.sync().is_err());
    store.sync().expect("retry must converge");
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    let mut reference = RefStore::new();
    reference.extend((0..150).map(rec));
    assert_agrees(&reference, &reopened);
}

// ---- lost-store detection (regression) ---------------------------------

/// Regression (previously: a directory holding only `*.quarantine`
/// debris — every segment condemned, the manifest lost — recovered as
/// an EMPTY FRESH STORE, silently reporting total data loss as a clean
/// slate). Quarantine files are store files; without a manifest next to
/// them the store is damaged, not new.
#[test]
fn quarantine_only_directory_is_missing_manifest_not_fresh() {
    let scratch = Scratch::new();
    std::fs::create_dir_all(scratch.path()).expect("mkdir");
    std::fs::write(
        scratch.path().join("seg-000001.kseg.quarantine"),
        b"condemned bytes",
    )
    .expect("write quarantine file");

    match TelemetryStore::open(scratch.path()) {
        Err(PersistError::MissingManifest { dir }) => assert_eq!(dir, scratch.path()),
        other => panic!("expected MissingManifest, got {other:?}"),
    }
    // The evidence must survive the failed open.
    assert!(scratch.path().join("seg-000001.kseg.quarantine").exists());
}

// ---- format policy ------------------------------------------------------

/// This build reads only the format it writes. A directory whose
/// MANIFEST carries an older header — v2, what the build before the
/// three-section segment format wrote, or v1 — is refused as corrupt at
/// that file, and nothing in the directory changes: no segment is
/// quarantined and no orphan swept.
#[test]
fn older_format_directories_are_refused_untouched() {
    for (header, with_bounds) in
        [("kea-telemetry-manifest v2", true), ("kea-telemetry-manifest v1", false)]
    {
        let scratch = Scratch::new();
        let mut store = TelemetryStore::open(scratch.path()).expect("open");
        store.extend((0..200u64).map(|i| rec_at(i, i / 4)));
        store.seal();
        store.extend((200..210u64).map(|i| rec_at(i, 60)));
        store.sync().expect("sync");
        drop(store);

        // Rewrite the manifest in the older form (v1 had no hours
        // clause) and leave debris that an accepted open would sweep.
        let manifest = scratch.path().join("MANIFEST");
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        let older: String = text
            .lines()
            .map(|line| {
                if line.starts_with("kea-telemetry-manifest ") {
                    header.to_string()
                } else if line.starts_with("segment ") && !with_bounds {
                    line.split(' ').take(4).collect::<Vec<_>>().join(" ")
                } else {
                    line.to_string()
                }
            })
            .map(|line| line + "\n")
            .collect();
        std::fs::write(&manifest, older).expect("write older manifest");
        std::fs::write(scratch.path().join("seg-000099.kseg"), b"debris").expect("write debris");
        let before = snapshot(scratch.path());

        match TelemetryStore::open(scratch.path()) {
            Err(PersistError::Corrupt { path, reason }) => assert_eq!(path, manifest, "{reason}"),
            Err(other) => panic!("{header}: expected Corrupt naming MANIFEST, got {other}"),
            Ok(_) => panic!("{header}: an older-format directory must not open"),
        }
        assert_eq!(
            snapshot(scratch.path()),
            before,
            "{header}: a refused directory must be left exactly as it was"
        );
    }
}

// ---- multi-segment retention: pruning, laziness, write amplification ---

/// Two disjoint-hour segments: opening validates headers only; an
/// hour-windowed query decodes just the segment whose bounds intersect
/// the window; `verify` forces everything.
#[test]
fn windowed_queries_load_only_intersecting_segments() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    // Elder run strictly larger than the newcomer so the ladder keeps
    // them separate; both at/above the policy floor so sync does too.
    store.extend((0..4500u64).map(|i| rec_at(i, i % 100)));
    store.seal();
    store.extend((0..4200u64).map(|i| rec_at(i, 1000 + i % 100)));
    store.seal();
    let stats = store.sync().expect("sync");
    assert!(stats.rotated);
    assert_eq!(stats.segments_written, 2);
    assert_eq!(live_segments(scratch.path()).len(), 2);
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.run_count(), 2);
    assert_eq!(reopened.resident_runs(), 0, "open must not decode segment bodies");
    // Span comes from the manifest bounds — still nothing decoded.
    assert_eq!(reopened.hour_span(), Some((0, 1100)));
    assert_eq!(reopened.len(), 8700);
    assert_eq!(reopened.resident_runs(), 0);

    // A query over the second segment's hours decodes only it.
    assert_eq!(reopened.by_hours(1000, 1100).count(), 4200);
    assert_eq!(reopened.resident_runs(), 1, "pruned query must decode one segment");
    // The dead zone between the segments touches nothing new.
    assert_eq!(reopened.by_hours(200, 900).count(), 0);
    assert_eq!(reopened.resident_runs(), 1);
    // A full-span query decodes both; verify keeps them valid.
    assert_eq!(reopened.by_hours(0, 1100).count(), 8700);
    assert_eq!(reopened.resident_runs(), 2);
    reopened.verify().expect("both segments intact");
}

/// The decoded-segment cache holds at most eight runs across a sync:
/// with nine disjoint-hour segments decoded, `sync()` evicts the least
/// recently used one, and the next query that touches it reloads it
/// from disk.
#[test]
fn sync_evicts_decoded_segments_past_the_cache_budget() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    // Nine runs at or above the sync policy's 4096-row floor, each
    // strictly smaller than its elder so the ladder keeps them apart.
    let rows = |k: u64| 4200 - 10 * k;
    for k in 0..9u64 {
        store.extend((0..rows(k)).map(|i| rec_at(i, 1000 * k + i % 100)));
        store.seal();
    }
    store.sync().expect("sync");
    assert_eq!(live_segments(scratch.path()).len(), 9);
    drop(store);

    let mut reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.resident_runs(), 0);
    // Touch every segment, oldest first; queries alone never evict.
    for k in 0..9u64 {
        assert_eq!(reopened.by_hours(1000 * k, 1000 * k + 100).count() as u64, rows(k));
    }
    assert_eq!(reopened.resident_runs(), 9);
    reopened.sync().expect("sync");
    assert_eq!(reopened.resident_runs(), 8, "sync evicts down to the budget");
    // The least recently touched run was the one evicted: it reloads.
    assert_eq!(reopened.by_hours(0, 100).count() as u64, rows(0));
    assert_eq!(reopened.resident_runs(), 9);
    reopened.verify().expect("reloaded segment intact");
}

/// Bounded write amplification: once a large segment is on disk, later
/// small syncs must not rewrite it — the fast path writes only WAL
/// frames, and a rotation spills only the new small run.
#[test]
fn sync_never_rewrites_unchanged_segments() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend((0..4500u64).map(|i| rec_at(i, i % 100)));
    store.seal();
    store.extend((0..4200u64).map(|i| rec_at(i, 1000 + i % 100)));
    store.seal();
    store.sync().expect("sync big segments");
    let big_segments = live_segments(scratch.path());
    assert_eq!(big_segments.len(), 2);
    let big_bytes: u64 = big_segments
        .iter()
        .map(|p| std::fs::metadata(p).expect("segment meta").len())
        .sum();

    // Fast path: an appended tail rides the WAL; no segment activity.
    store.extend((0..10u64).map(|i| rec_at(i, 2000)));
    let stats = store.sync().expect("tail sync");
    assert!(!stats.rotated);
    assert_eq!(stats.segments_written, 0);
    assert_eq!(stats.segment_bytes, 0);
    assert_eq!(stats.wal_records, 10);
    assert!(stats.wal_bytes > 0);

    // Rotation path: sealing the 10-row tail spills ONE small segment;
    // the two big ones pass through by name, bytes untouched.
    store.seal();
    let stats = store.sync().expect("rotation sync");
    assert!(stats.rotated);
    assert_eq!(stats.segments_written, 1, "only the new run may be spilled");
    assert!(
        stats.segment_bytes < big_bytes / 10,
        "a 10-row spill must be far smaller than the retained history \
         ({} vs {big_bytes} bytes)",
        stats.segment_bytes
    );
    let after = live_segments(scratch.path());
    assert_eq!(after.len(), 3);
    for big in &big_segments {
        assert!(after.contains(big), "big segment {big:?} must survive by name");
    }
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.len(), 8710);
}

/// The sync-time policy across a reopen: undersized runs synced
/// separately fold into one segment at the sync that finds two of them
/// side by side, and the merged segment reopens into a store that
/// agrees with the reference.
#[test]
fn policy_merge_roundtrips_through_disk() {
    let scratch = Scratch::new();
    let mut reference = RefStore::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    // Three overlapping-hour batches, each sealed + synced. The ladder
    // folds the first two (300 ≤ 300); the 600-row run then outweighs
    // the third, so only the sync policy can merge that pair.
    for b in 0..3u64 {
        let batch: Vec<_> = (0..300u64).map(|i| rec_at(b * 1000 + i, i % 50)).collect();
        reference.extend(batch.iter().copied());
        store.extend(batch);
        store.seal();
        if b == 2 {
            assert_eq!(store.run_count(), 2, "the ladder leaves 600 + 300");
        }
        store.sync().expect("sync batch");
    }
    assert_eq!(store.run_count(), 1, "the sync policy folds undersized pairs");
    assert_eq!(live_segments(scratch.path()).len(), 1);
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.run_count(), 1);
    assert_agrees(&reference, &reopened);
}

// ---- merging a durable store --------------------------------------------

/// Regression (previously: `merge` read only the other store's sealed
/// runs whose index was already decoded, so a reopened durable store —
/// every run still on disk — contributed none of its sealed rows while
/// `merge` reported 0 dropped). Sealed runs now load through the same
/// lazy path queries use.
#[test]
fn merge_of_reopened_store_carries_its_sealed_rows() {
    let scratch = Scratch::new();
    let records: Vec<_> = (0..5000u64).map(|i| rec_at(i, i / 50)).collect();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend(records.iter().copied());
    store.seal();
    store.sync().expect("sync");
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.resident_runs(), 0, "nothing decoded before the merge");
    let mut merged = TelemetryStore::new();
    assert_eq!(merged.merge(reopened), 0);

    let mut reference = RefStore::new();
    reference.extend(records.iter().copied());
    assert_eq!(merged.len(), reference.len());
    for g in reference.groups() {
        assert_eq!(sorted_keys(reference.by_group(g)), sorted_keys(merged.by_group(g)));
    }
    merged.verify().expect("nothing degraded");
}

/// Merging a store whose segment fails to load carries the failure
/// along: the result holds the surviving rows and `verify()` reports
/// the original diagnosis.
#[test]
fn merge_of_degraded_store_carries_its_diagnosis() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend((0..40).map(rec));
    store.seal();
    store.extend((40..50).map(rec));
    store.sync().expect("sync");
    drop(store);

    let segments = live_segments(scratch.path());
    let seg = &segments[0];
    let mut bytes = std::fs::read(seg).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(seg, &bytes).expect("write");

    let reopened = TelemetryStore::open(scratch.path()).expect("open validates headers only");
    let mut merged = TelemetryStore::new();
    merged.merge(reopened);
    assert_eq!(merged.len(), 10, "only the WAL tail survives");
    match merged.verify() {
        Err(PersistError::Corrupt { path, .. }) => assert_eq!(&path, seg),
        other => panic!("expected the segment's diagnosis, got {other:?}"),
    }
}
