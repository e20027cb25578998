//! Durable storage for [`TelemetryStore`]: WAL + segment spill + manifest.
//!
//! The on-disk layout mirrors the in-memory LSM shape. Each sealed run
//! lives in its own immutable *segment* file (`segment.rs`: the records
//! in their one sort order and the machine table, each checksummed,
//! 127 bytes/row); the insertion-order delta tail lives in a
//! *write-ahead log* (`wal.rs`); a tiny *manifest* (`manifest.rs`)
//! names the live file set — in run order, with per-segment row counts
//! and hour bounds — and is the only file ever updated in place
//! (atomically, via temp-file + rename).
//!
//! ## Durability contract
//!
//! `push`/`extend`/`seal` stay purely in-memory and infallible — exactly
//! as on a non-durable store. All I/O happens in
//! [`TelemetryStore::sync`]: if no run changed since the last sync,
//! records appended since then are framed into the WAL and fsynced (one
//! fsync per batch); if runs did change (a seal or compaction), only the
//! *dirty* runs are spilled as fresh segments — unchanged segments are
//! carried over by name, never rewritten — a fresh WAL is started
//! holding only the surviving delta tail, and the manifest is flipped
//! to the new file set. Per-sync bytes written are therefore bounded by
//! the new rows plus whatever the compaction ladder merged, not by the
//! total history. Records are guaranteed on stable storage only after
//! `sync` returns `Ok`; a failed `sync` may be retried and is
//! idempotent (the WAL tracks written-but-unsynced frames and never
//! re-appends them).
//!
//! ## Recovery sequence
//!
//! [`TelemetryStore::open`] reads the manifest, then loads every named
//! segment in run order, each in one streaming pass (`segment.rs`):
//! ~1 MiB chunks are read into one reused buffer, each chunk is
//! checksummed on a second core while the first decodes it, derives
//! the block table and checks the index invariants, and every section
//! checksum, the row count and the hour bounds are compared against the
//! header and manifest before the run is kept. The WAL is replayed into
//! the delta tail (truncating a torn tail from a mid-write crash), and
//! orphan files left by an interrupted rotation are swept. Every crash point therefore lands in
//! one of two states: the old file set or the new one, both complete.
//! A corrupt segment is quarantined and fails the open typed, before
//! the WAL is replayed or anything is swept, so a store that opens
//! holds every run its manifest lists. Recovery never panics.
//!
//! ## Format policy
//!
//! This build reads only the format it writes: manifest header
//! `kea-telemetry-manifest v4` over version-3 segments. A directory
//! written by an older build is refused with [`PersistError::Corrupt`]
//! at its manifest's first line, before any segment is quarantined or
//! any file swept, so its bytes stay exactly as they were.
//!
//! [`TelemetryStore`]: crate::TelemetryStore
//! [`TelemetryStore::sync`]: crate::TelemetryStore::sync
//! [`TelemetryStore::open`]: crate::TelemetryStore::open

pub(crate) mod codec;
pub(crate) mod crc;
pub(crate) mod manifest;
pub(crate) mod segment;
pub mod test_hooks;
pub(crate) mod wal;

use std::fmt;
use std::path::{Path, PathBuf};

use crate::record::MachineHourRecord;
use crate::store::ColumnIndex;
use manifest::{Manifest, SegmentEntry, MANIFEST_NAME};

/// Errors from the persistence layer. Recovery never panics: every
/// failure mode — I/O, torn writes, checksum mismatches, doctored
/// manifests — surfaces as one of these.
#[derive(Debug)]
pub enum PersistError {
    /// An operating-system I/O failure, tagged with the operation and
    /// the path it touched.
    Io {
        /// What the store was doing (e.g. `"fsync wal"`).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A file failed validation: bad magic, checksum mismatch, torn
    /// structure, or index invariants that do not hold. Corrupt
    /// segments are quarantined (renamed to `*.quarantine`) before
    /// this is returned.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Human-readable diagnosis (includes the quarantine path when
        /// the file was moved aside).
        reason: String,
    },
    /// The directory exists and is non-trivial but has no `MANIFEST` —
    /// distinguishable from a fresh (empty) directory, which is
    /// initialized silently. Quarantined files count as evidence of a
    /// prior store.
    MissingManifest {
        /// The store directory.
        dir: PathBuf,
    },
    /// [`crate::TelemetryStore::sync`] was called on an in-memory
    /// store that was never opened from a directory.
    NotDurable,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { op, path, source } => {
                write!(f, "{op} failed for {}: {source}", path.display())
            }
            PersistError::Corrupt { path, reason } => {
                write!(f, "{} is corrupt: {reason}", path.display())
            }
            PersistError::MissingManifest { dir } => write!(
                f,
                "{} contains store files but no MANIFEST; refusing to guess the live set",
                dir.display()
            ),
            PersistError::NotDurable => {
                write!(f, "sync() on an in-memory store; use TelemetryStore::open(dir) for durability")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Adapter for `map_err`: tags an `io::Error` with operation + path.
pub(crate) fn io_err(op: &'static str, path: &Path) -> impl FnOnce(std::io::Error) -> PersistError {
    let path = path.to_path_buf();
    move |source| PersistError::Io { op, path, source }
}

/// Fsyncs a directory so renames/creations inside it are durable.
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), PersistError> {
    let d = std::fs::File::open(dir).map_err(io_err("open dir for fsync", dir))?;
    d.sync_all().map_err(io_err("fsync dir", dir))
}

/// What one [`crate::TelemetryStore::sync`] wrote, for
/// write-amplification accounting: a rotation that spills two fresh
/// segments reports their bytes here; an unchanged-history sync reports
/// only the WAL frame it appended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Whether this sync rotated (rewrote the manifest and WAL) rather
    /// than appending to the live WAL.
    pub rotated: bool,
    /// Segment files written by this sync.
    pub segments_written: usize,
    /// Bytes of segment data written by this sync.
    pub segment_bytes: u64,
    /// Records framed into a WAL by this sync.
    pub wal_records: usize,
    /// Bytes of WAL data written by this sync.
    pub wal_bytes: u64,
}

/// One sealed run as the store presents it to [`Backing::sync`]:
/// either already on disk under a known segment name, or dirty
/// (new or re-merged) and needing a spill.
#[derive(Debug)]
pub(crate) enum RunRef<'a> {
    /// Already persisted; carried into the next manifest by name
    /// without rewriting a byte.
    Clean {
        /// Segment file name.
        name: &'a str,
        /// Row count recorded in the manifest.
        rows: u64,
        /// Inclusive hour bounds recorded in the manifest.
        bounds: (u64, u64),
    },
    /// In memory only (fresh seal or compaction output); spilled as a
    /// new segment on the next rotation.
    Dirty {
        /// The run's index, from which bounds and rows are derived.
        index: &'a ColumnIndex,
    },
}

/// Result of opening a store directory: the backing plus the recovered
/// in-memory state.
#[derive(Debug)]
pub(crate) struct Recovered {
    /// The attached backing, ready for appends.
    pub backing: Backing,
    /// The sealed runs, oldest first: each segment's name and its
    /// loaded, checked index.
    pub runs: Vec<(String, ColumnIndex)>,
    /// The delta tail replayed from the WAL, in append order.
    pub delta: Vec<MachineHourRecord>,
}

/// The attachment of a [`crate::TelemetryStore`] to its directory: open
/// WAL handle, live file set, and high-water marks tracking what is
/// already durable.
#[derive(Debug)]
pub(crate) struct Backing {
    /// Store directory.
    dir: PathBuf,
    /// Open WAL, positioned at its end.
    wal: wal::Wal,
    /// Live file set as last committed to the manifest.
    live: Manifest,
    /// Tail records appended to the live WAL (a prefix length of the
    /// store's delta tail). Advanced only after a successful append.
    wal_written: usize,
    /// Tail records known durable (fsynced). Lags `wal_written` after a
    /// failed fsync; a retried sync then skips the re-append and only
    /// repeats the fsync — the fix for the duplicate-replay bug.
    wal_synced: usize,
    /// Next generation number for naming new segment/WAL files.
    next_gen: u64,
}

/// Parses the generation number out of `seg-NNNNNN.kseg` /
/// `wal-NNNNNN.wal` names; `None` for anything else.
fn gen_of(name: &str) -> Option<u64> {
    let digits = name
        .strip_prefix("seg-")
        .and_then(|r| r.strip_suffix(".kseg"))
        .or_else(|| name.strip_prefix("wal-").and_then(|r| r.strip_suffix(".wal")))?;
    digits.parse().ok()
}

/// True for names the store owns and may sweep when orphaned.
fn sweepable(name: &str) -> bool {
    gen_of(name).is_some() || name.ends_with(".tmp")
}

/// Opens (or initializes) a store directory and recovers its contents.
pub(crate) fn recover(dir: &Path) -> Result<Recovered, PersistError> {
    std::fs::create_dir_all(dir).map_err(io_err("create store dir", dir))?;

    let live = match manifest::read_manifest(dir) {
        Ok(m) => m,
        Err(PersistError::MissingManifest { .. }) => {
            // Fresh directory — but refuse to silently reinitialize on
            // top of evidence of a real store whose manifest went
            // missing: generation-named files, or quarantined files
            // left by a prior corruption event.
            let mut entries = std::fs::read_dir(dir).map_err(io_err("list store dir", dir))?;
            let has_store_files = entries.try_fold(false, |acc, e| {
                let e = e.map_err(io_err("list store dir", dir))?;
                let name = e.file_name();
                let owned = name
                    .to_str()
                    .is_some_and(|n| gen_of(n).is_some() || n.ends_with(".quarantine"));
                Ok::<bool, PersistError>(acc || owned)
            })?;
            if has_store_files {
                return Err(PersistError::MissingManifest { dir: dir.to_path_buf() });
            }
            let wal_name = format!("wal-{:06}.wal", 1);
            wal::Wal::create(&dir.join(&wal_name), &[])?;
            fsync_dir(dir)?;
            let m = Manifest { segments: Vec::new(), wal: wal_name };
            manifest::write_manifest(dir, &m)?;
            m
        }
        // Includes a manifest written by an older build: refused here,
        // before any segment is opened or any file swept.
        Err(e) => return Err(e),
    };

    // Load and check every live segment, oldest first; a corrupt one
    // is quarantined and fails the open here.
    let mut runs = Vec::with_capacity(live.segments.len());
    for seg in &live.segments {
        let index = segment::load_segment(dir, &seg.name, seg.rows, seg.bounds)?;
        runs.push((seg.name.clone(), index));
    }

    // Replay the WAL; a torn tail is truncated inside `Wal::open`.
    let replay = wal::Wal::open(&dir.join(&live.wal))?;
    let delta = replay.records;

    // Sweep orphans from interrupted rotations: generation-named files
    // and temp files the manifest does not own. Quarantined files and
    // foreign names are left alone.
    let keep = |name: &str| {
        name == MANIFEST_NAME
            || name == live.wal
            || live.segments.iter().any(|s| s.name == name)
    };
    let entries = std::fs::read_dir(dir).map_err(io_err("list store dir", dir))?;
    for e in entries {
        let e = e.map_err(io_err("list store dir", dir))?;
        if let Some(name) = e.file_name().to_str() {
            if sweepable(name) && !keep(name) {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }

    let next_gen = 1 + live
        .segments
        .iter()
        .filter_map(|s| gen_of(&s.name))
        .chain(gen_of(&live.wal))
        .max()
        .unwrap_or(0);

    let tail_len = delta.len();
    let backing = Backing {
        dir: dir.to_path_buf(),
        wal: replay.wal,
        live,
        wal_written: tail_len,
        wal_synced: tail_len,
        next_gen,
    };
    Ok(Recovered { backing, runs, delta })
}

impl Backing {
    /// Directory this backing writes into.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Makes the store durable: `runs` are the sealed runs oldest
    /// first, `tail` the insertion-order delta. If every run is clean
    /// and matches the live manifest, this appends the new tail suffix
    /// to the WAL; otherwise it rotates — writing only the dirty runs
    /// as fresh segments. Returns what was written plus, aligned with
    /// `runs`, the names newly assigned to dirty runs.
    pub(crate) fn sync(
        &mut self,
        runs: &[RunRef<'_>],
        tail: &[MachineHourRecord],
    ) -> Result<(SyncStats, Vec<Option<String>>), PersistError> {
        let clean_matches = runs.len() == self.live.segments.len()
            && runs.iter().zip(&self.live.segments).all(|(r, s)| match r {
                RunRef::Clean { name, .. } => *name == s.name,
                RunRef::Dirty { .. } => false,
            });
        if clean_matches {
            let stats = self.append_tail(tail)?;
            Ok((stats, vec![None; runs.len()]))
        } else {
            self.rotate(runs, tail)
        }
    }

    /// Fast path: frame everything past the WAL high-water mark and
    /// fsync once. Idempotent under retry: records already appended by
    /// a previous attempt whose fsync failed are not re-appended (only
    /// the fsync repeats), and a batch torn mid-append is erased by the
    /// WAL before the retry writes it again.
    fn append_tail(&mut self, tail: &[MachineHourRecord]) -> Result<SyncStats, PersistError> {
        let mut stats = SyncStats::default();
        let new = tail.get(self.wal_written..).unwrap_or_default();
        if new.is_empty() && self.wal_synced == self.wal_written {
            return Ok(stats);
        }
        if !new.is_empty() {
            let before = self.wal.byte_len();
            self.wal.append(new)?;
            self.wal_written = tail.len();
            stats.wal_records = new.len();
            stats.wal_bytes = self.wal.byte_len().saturating_sub(before);
        }
        self.wal.sync()?;
        self.wal_synced = self.wal_written;
        Ok(stats)
    }

    /// Rotation: the run set changed (seal or compaction), so spill
    /// each dirty run as a segment, start a fresh
    /// WAL holding only the current delta tail, flip the manifest, and
    /// drop the superseded files. Clean runs are carried over by name —
    /// unchanged history is never rewritten.
    ///
    /// Ordering is crash-safe at every point: the old manifest (and the
    /// files it names) stays live until the new manifest's rename
    /// lands, and the sweep of superseded files only happens after.
    /// Nothing in `self` mutates until the flip succeeds, so a failed
    /// rotation can simply be retried.
    fn rotate(
        &mut self,
        runs: &[RunRef<'_>],
        tail: &[MachineHourRecord],
    ) -> Result<(SyncStats, Vec<Option<String>>), PersistError> {
        let mut stats = SyncStats { rotated: true, ..SyncStats::default() };
        let mut segments = Vec::with_capacity(runs.len());
        let mut assigned = vec![None; runs.len()];
        let mut next_gen = self.next_gen;
        for (slot, r) in assigned.iter_mut().zip(runs) {
            match r {
                RunRef::Clean { name, rows, bounds } => segments.push(SegmentEntry {
                    name: (*name).to_string(),
                    rows: *rows,
                    bounds: *bounds,
                }),
                RunRef::Dirty { index } => {
                    let Some((lo, hi)) = index.hour_bounds() else {
                        continue; // An empty run has nothing to persist.
                    };
                    let name = format!("seg-{next_gen:06}.kseg");
                    next_gen += 1;
                    stats.segment_bytes += segment::write_segment(&self.dir, &name, index)?;
                    stats.segments_written += 1;
                    segments.push(SegmentEntry {
                        name: name.clone(),
                        rows: u64::try_from(index.sorted.len()).unwrap_or(u64::MAX),
                        bounds: (lo, hi),
                    });
                    *slot = Some(name);
                }
            }
        }

        let wal_name = format!("wal-{next_gen:06}.wal");
        next_gen += 1;
        let new_wal = wal::Wal::create(&self.dir.join(&wal_name), tail)?;
        stats.wal_records = tail.len();
        stats.wal_bytes = new_wal.byte_len();
        fsync_dir(&self.dir)?;

        let new_live = Manifest { segments, wal: wal_name };
        manifest::write_manifest(&self.dir, &new_live)?;

        // The flip landed: the new file set is live. The old set is now
        // superseded; best-effort removal (a crash here just leaves
        // orphans for the next open's sweep).
        for s in &self.live.segments {
            if !new_live.segments.iter().any(|n| n.name == s.name) {
                let _ = std::fs::remove_file(self.dir.join(&s.name));
            }
        }
        if self.live.wal != new_live.wal {
            let _ = std::fs::remove_file(self.dir.join(&self.live.wal));
        }

        self.wal = new_wal;
        self.live = new_live;
        self.wal_written = tail.len();
        self.wal_synced = tail.len();
        self.next_gen = next_gen;
        Ok((stats, assigned))
    }
}
