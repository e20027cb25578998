//! Write-ahead log for the delta tail of a durable [`TelemetryStore`].
//!
//! Layout: an 8-byte magic (`KEAWAL1\n`) followed by frames. Each frame
//! is `[payload_len: u32][crc32: u32][payload]` with the CRC taken over
//! the payload; the payload is `[count: u32]` followed by `count`
//! fixed-width records ([`codec::RECORD_BYTES`] each). One `sync()`
//! writes one frame for everything appended since the last sync, then
//! issues a single `fdatasync` — fsync-on-batch, not fsync-per-record.
//!
//! Replay walks frames from the front and stops at the first
//! inconsistency — short header, implausible length, CRC mismatch, or
//! short payload. Everything before the stop point is intact by
//! checksum; everything after is a torn tail from a crash mid-write and
//! is truncated (`set_len`) so subsequent appends land on a clean
//! boundary. A torn tail is an expected outcome, not an error. An intact
//! frame holding a record the store's admission rule refuses is not a
//! crash artifact: replay fails as corrupt before it truncates anything.
//!
//! The log also tracks its own clean high-water mark in memory: a batch
//! that fails partway through an [`Wal::append`] marks the log torn, and
//! the next append first truncates back to the last fully-written batch
//! boundary. A failed append therefore leaves nothing behind — retrying
//! it cannot produce duplicate frames, which is what makes the store's
//! sync retry idempotent.
//!
//! [`TelemetryStore`]: crate::TelemetryStore

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::codec::{self, RECORD_BYTES};
use super::crc::crc32;
use super::{io_err, test_hooks, PersistError};
use crate::record::MachineHourRecord;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"KEAWAL1\n";

/// Frame header size: payload length + CRC, both `u32`.
const FRAME_HEADER: usize = 8;

/// Cap on records per frame so the payload length always fits a `u32`
/// (2^24 records ≈ 2.1 GB payload; batches larger than this are split
/// across frames).
const MAX_FRAME_RECORDS: usize = 1 << 24;

/// An open WAL positioned at its end, ready to append.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes written so far (may include a torn batch; see `torn`).
    len: u64,
    /// Length of the longest prefix containing only fully-appended
    /// batches — where the next append restarts from after a failure.
    clean_len: u64,
    /// Set when an append failed partway; the file may hold a partial
    /// frame past `clean_len` that must be truncated before reuse.
    torn: bool,
}

/// Outcome of replaying a WAL on open.
#[derive(Debug)]
pub struct WalReplay {
    /// The reopened log, truncated past any torn tail.
    pub wal: Wal,
    /// Every record recovered from intact frames, in append order.
    pub records: Vec<MachineHourRecord>,
    /// Byte offset the file was truncated to, if a torn tail was found.
    /// Read by the recovery tests; production recovery treats a torn
    /// tail as routine and does not branch on it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub truncated_at: Option<u64>,
}

impl Wal {
    /// Creates a fresh WAL at `path` (truncating any existing file),
    /// writes the magic and any initial `records` as one frame, and
    /// fsyncs. The caller is responsible for directory-level fsync
    /// after renames.
    pub fn create(path: &Path, records: &[MachineHourRecord]) -> Result<Wal, PersistError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(io_err("create wal", path))?;
        let magic_len = WAL_MAGIC.len() as u64;
        let mut wal = Wal {
            file,
            path: path.to_path_buf(),
            len: magic_len,
            clean_len: magic_len,
            torn: false,
        };
        wal.file
            .write_all(WAL_MAGIC)
            .map_err(io_err("write wal magic", path))?;
        wal.append(records)?;
        wal.sync()?;
        Ok(wal)
    }

    /// Opens an existing WAL, replays every intact frame, truncates any
    /// torn tail, and leaves the file positioned for appending. Every
    /// replayed record must pass the admission rule
    /// ([`MachineHourRecord::admit`]); an intact frame with one that does
    /// not fails the replay as [`PersistError::Corrupt`], and the file is
    /// left as it was.
    pub fn open(path: &Path) -> Result<WalReplay, PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(io_err("open wal", path))?;
        let bytes = std::fs::read(path).map_err(io_err("read wal", path))?;
        if bytes.get(..WAL_MAGIC.len()) != Some(WAL_MAGIC.as_slice()) {
            return Err(PersistError::Corrupt {
                path: path.to_path_buf(),
                reason: "missing or unrecognized WAL magic".to_string(),
            });
        }

        let mut records = Vec::new();
        let mut at = WAL_MAGIC.len();
        let mut truncated_at = None;
        while let Some(frame) = bytes.get(at..) {
            if frame.is_empty() {
                break;
            }
            let intact = parse_frame(frame);
            match intact {
                Some((consumed, mut frame_records)) => {
                    if let Some(refused) = frame_records.iter().find_map(|r| r.admit().err()) {
                        return Err(PersistError::Corrupt {
                            path: path.to_path_buf(),
                            reason: format!(
                                "the frame at byte {at} holds a record ingest refuses: {refused}"
                            ),
                        });
                    }
                    records.append(&mut frame_records);
                    at += consumed;
                }
                None => {
                    // Torn tail: keep the intact prefix, drop the rest.
                    truncated_at = Some(at as u64);
                    file.set_len(at as u64).map_err(io_err("truncate wal tail", path))?;
                    break;
                }
            }
        }

        file.seek(SeekFrom::Start(at as u64)).map_err(io_err("seek wal end", path))?;
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            len: at as u64,
            clean_len: at as u64,
            torn: false,
        };
        Ok(WalReplay { wal, records, truncated_at })
    }

    /// Current logical length in bytes: everything up to the last
    /// fully-appended batch. Feeds the store's per-sync write
    /// accounting.
    pub fn byte_len(&self) -> u64 {
        if self.torn { self.clean_len } else { self.len }
    }

    /// Appends `records` as one frame (split only past the 2^24-record
    /// cap) without fsyncing; pair with [`Wal::sync`]. The batch is
    /// all-or-nothing: on failure the log is marked torn and the next
    /// append truncates back to the pre-batch boundary first, so a
    /// retried batch never duplicates frames.
    pub fn append(&mut self, records: &[MachineHourRecord]) -> Result<(), PersistError> {
        if self.torn {
            // Erase the partial frame(s) a previous failed batch left
            // behind before writing anything new.
            self.file
                .set_len(self.clean_len)
                .map_err(io_err("truncate torn wal batch", &self.path))?;
            self.file
                .seek(SeekFrom::Start(self.clean_len))
                .map_err(io_err("seek wal clean end", &self.path))?;
            self.len = self.clean_len;
            self.torn = false;
        }
        let mut rest = records;
        loop {
            let take = rest.len().min(MAX_FRAME_RECORDS);
            let (head, tail) = (
                rest.get(..take).unwrap_or_default(),
                rest.get(take..).unwrap_or_default(),
            );
            self.append_frame(head)?;
            if tail.is_empty() {
                break;
            }
            rest = tail;
        }
        self.clean_len = self.len;
        Ok(())
    }

    fn append_frame(&mut self, records: &[MachineHourRecord]) -> Result<(), PersistError> {
        let count = u32::try_from(records.len()).map_err(|_| PersistError::Corrupt {
            path: self.path.clone(),
            reason: "frame record count exceeds u32".to_string(),
        })?;
        let mut payload = Vec::with_capacity(4 + records.len() * RECORD_BYTES);
        payload.extend_from_slice(&count.to_le_bytes());
        for r in records {
            codec::encode_record(r, &mut payload);
        }
        let len = u32::try_from(payload.len()).map_err(|_| PersistError::Corrupt {
            path: self.path.clone(),
            reason: "frame payload exceeds u32 bytes".to_string(),
        })?;
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        // Crash-injection point for the crash suite: write only a
        // prefix of the frame, then fail — exactly what a full disk or
        // power cut mid-write leaves behind.
        if let Some(cut) = test_hooks::take_wal_append_failure(&self.path) {
            let cut = usize::try_from(cut).unwrap_or(usize::MAX).min(frame.len());
            let _ = self.file.write_all(frame.get(..cut).unwrap_or_default());
            self.torn = true;
            return Err(PersistError::Io {
                op: "append wal frame (injected failure)",
                path: self.path.clone(),
                source: std::io::Error::other("injected mid-frame append failure"),
            });
        }
        if let Err(e) = self.file.write_all(&frame) {
            // A short write may have landed part of the frame; mark the
            // batch torn so a retry starts from the clean boundary.
            self.torn = true;
            return Err(io_err("append wal frame", &self.path)(e));
        }
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Flushes appended frames to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), PersistError> {
        // Crash-injection point: the frames hit the file, the barrier
        // did not. The data is all written (a later sync persists it) —
        // the caller must not re-append it on retry.
        if test_hooks::take_wal_sync_failure(&self.path) {
            return Err(PersistError::Io {
                op: "fsync wal (injected failure)",
                path: self.path.clone(),
                source: std::io::Error::other("injected wal fsync failure"),
            });
        }
        self.file.sync_data().map_err(io_err("fsync wal", &self.path))
    }
}

/// Parses one frame at the start of `bytes`. Returns the consumed byte
/// count and the decoded records, or `None` if the frame is torn or
/// corrupt in any way.
fn parse_frame(bytes: &[u8]) -> Option<(usize, Vec<MachineHourRecord>)> {
    let len = codec::u32_at(bytes, 0)? as usize;
    let crc = codec::u32_at(bytes, 4)?;
    let payload = bytes.get(FRAME_HEADER..FRAME_HEADER + len)?;
    if crc32(payload) != crc {
        return None;
    }
    let count = codec::u32_at(payload, 0)? as usize;
    let body = payload.get(4..)?;
    let records = codec::decode_records(body, count)?;
    Some((FRAME_HEADER + len, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{GroupKey, MachineId, MetricValues, ScId, SkuId};

    fn rec(i: u64) -> MachineHourRecord {
        MachineHourRecord {
            machine: MachineId(i as u32),
            group: GroupKey::new(SkuId((i % 3) as u16), ScId(0)),
            hour: i,
            metrics: MetricValues { tasks_finished: i as f64, ..MetricValues::default() },
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("kea-wal-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn create_append_reopen_roundtrip() {
        let path = tmp("roundtrip");
        let first: Vec<_> = (0..10).map(rec).collect();
        let mut wal = Wal::create(&path, &first).unwrap();
        let second: Vec<_> = (10..25).map(rec).collect();
        wal.append(&second).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.byte_len(), std::fs::metadata(&path).unwrap().len());
        drop(wal);

        let replay = Wal::open(&path).unwrap();
        let want: Vec<_> = (0..25).map(rec).collect();
        assert_eq!(replay.records, want);
        assert!(replay.truncated_at.is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = tmp("torn");
        let mut wal = Wal::create(&path, &(0..8).map(rec).collect::<Vec<_>>()).unwrap();
        wal.append(&(8..16).map(rec).collect::<Vec<_>>()).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Chop mid-way through the second frame.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 40).unwrap();
        drop(f);

        let replay = Wal::open(&path).unwrap();
        assert_eq!(replay.records, (0..8).map(rec).collect::<Vec<_>>());
        assert!(replay.truncated_at.is_some());

        // The truncated log accepts new appends and replays cleanly.
        let mut wal = replay.wal;
        wal.append(&[rec(99)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let replay = Wal::open(&path).unwrap();
        let mut want: Vec<_> = (0..8).map(rec).collect();
        want.push(rec(99));
        assert_eq!(replay.records, want);
        assert!(replay.truncated_at.is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn corrupt_crc_drops_frame_and_tail() {
        let path = tmp("crc");
        let mut wal = Wal::create(&path, &(0..4).map(rec).collect::<Vec<_>>()).unwrap();
        wal.append(&(4..8).map(rec).collect::<Vec<_>>()).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Flip a payload byte inside the second frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_frame = 8 + 8 + (4 + 4 * RECORD_BYTES);
        bytes[first_frame + FRAME_HEADER + 10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let replay = Wal::open(&path).unwrap();
        assert_eq!(replay.records, (0..4).map(rec).collect::<Vec<_>>());
        assert_eq!(replay.truncated_at, Some(first_frame as u64));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn bad_magic_is_typed_error() {
        let path = tmp("magic");
        std::fs::write(&path, b"not a wal at all").unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// An intact frame (its CRC written by `append`) holding a record the
    /// admission rule refuses fails the store's open as corrupt, naming
    /// the WAL and leaving it as it was: a NaN metric, and the hour
    /// `u64::MAX`, past which the store's span would wrap.
    #[test]
    fn intact_frame_with_a_refused_record_fails_open() {
        let mut nan = rec(1);
        nan.metrics.cpu_utilization = f64::NAN;
        let mut last_hour = rec(1);
        last_hour.hour = u64::MAX;
        for (case, bad) in [("nan", nan), ("last-hour", last_hour)] {
            let dir = tmp(&format!("refused-{case}"));
            let dir = dir.parent().unwrap();
            let mut store = crate::TelemetryStore::open(dir).unwrap();
            store.extend((0..4).map(rec));
            store.sync().unwrap();
            drop(store);
            let path = dir.join("wal-000001.wal");
            let mut wal = Wal::open(&path).unwrap().wal;
            wal.append(&[rec(5), bad]).unwrap();
            wal.sync().unwrap();
            drop(wal);
            let before = std::fs::read(&path).unwrap();

            match crate::TelemetryStore::open(dir) {
                Err(PersistError::Corrupt { path: at, reason }) => {
                    assert_eq!(at, path, "{case}: {reason}");
                    assert!(reason.contains("refuses"), "{case}: {reason}");
                }
                Err(other) => panic!("{case}: expected Corrupt, got {other}"),
                Ok(store) => panic!("{case}: opened with {} records", store.len()),
            }
            assert_eq!(std::fs::read(&path).unwrap(), before, "{case}");
            std::fs::remove_dir_all(dir).ok();
        }
    }

    /// A batch that fails mid-frame leaves the log torn; retrying the
    /// same batch truncates the partial frame first, so replay sees the
    /// batch exactly once.
    #[test]
    fn failed_batch_retries_without_duplicates() {
        let path = tmp("retry");
        let dir = path.parent().unwrap().to_path_buf();
        let mut wal = Wal::create(&path, &(0..6).map(rec).collect::<Vec<_>>()).unwrap();
        let batch: Vec<_> = (6..12).map(rec).collect();

        test_hooks::fail_wal_append_mid_frame(&dir, 20);
        let err = wal.append(&batch).unwrap_err();
        assert!(matches!(err, PersistError::Io { .. }));
        // Partial bytes are on disk but excluded from the logical length.
        assert!(std::fs::metadata(&path).unwrap().len() > wal.byte_len());

        wal.append(&batch).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let replay = Wal::open(&path).unwrap();
        assert_eq!(replay.records, (0..12).map(rec).collect::<Vec<_>>());
        assert!(replay.truncated_at.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
