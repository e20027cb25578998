//! Segment files: sealed [`ColumnIndex`] runs spilled to disk.
//!
//! A segment persists only the three core tables — the sorted records,
//! the interned machine list, and the `(hour, machine)` permutation —
//! because everything else in the index (CSR offsets, dense ids, metric
//! columns) is an O(n) derivation. Writing is therefore a near-straight
//! dump; loading re-derives and *validates*, so a segment that passes
//! checksums but encodes a structurally inconsistent index is still
//! rejected.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic      8B   "KEASEG1\n"
//! version    u32  2
//! rows       u64  n
//! machines   u64  m
//! sections   3 × [len: u64][crc32: u32]   records, machines, hour_order
//! header_crc u32  over everything above
//! body            the three sections, concatenated in table order
//! ```
//!
//! Permutation entries are `u32`; every row position is converted with
//! a checked narrowing at write time (`u32::try_from`) so a run past
//! `u32::MAX` rows surfaces a typed [`PersistError`] instead of
//! corrupting silently. A segment is ~131 bytes/row: 127 of record, 4
//! of permutation, plus 4 per distinct machine. This build reads only
//! version 2; a segment of any other version is refused.
//!
//! [`read_header`] validates just the fixed header (magic, version,
//! header CRC, row/section accounting against the file length) without
//! decoding the body — the multi-segment store uses it at open so a
//! month of segments costs one small read each, and full decoding (with
//! every section CRC and structural invariant checked) happens lazily
//! on first query via [`load_segment`].
//!
//! On checksum or validation failure both entry points rename the file
//! to `<name>.quarantine` (best-effort) so the bad bytes survive for
//! forensics and never get mistaken for a live segment again, then
//! return [`PersistError::Corrupt`].

use std::path::{Path, PathBuf};

use super::codec::{self, RECORD_BYTES};
use super::crc::crc32;
use super::{fsync_dir, io_err, PersistError};
use crate::record::MachineId;
use crate::store::ColumnIndex;

/// Magic bytes opening every segment file.
pub const SEG_MAGIC: &[u8; 8] = b"KEASEG1\n";

/// On-disk format version this build reads and writes.
const SEG_VERSION: u32 = 2;

/// Number of body sections: records, machines, hour order.
const SECTIONS: usize = 3;

/// Fixed header size: magic + version + rows + machines + section
/// descriptors + header CRC.
const HEADER_BYTES: usize = 8 + 4 + 8 + 8 + SECTIONS * 12 + 4;

/// Encodes a row permutation as little-endian `u32`s with a checked
/// narrowing per entry; `None` if any row position exceeds `u32::MAX`
/// (an index that large must never be spilled — the caller surfaces a
/// typed error at write time rather than truncating silently).
fn encode_order(order: &[usize]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(order.len() * 4);
    for &row in order {
        let row = u32::try_from(row).ok()?;
        out.extend_from_slice(&row.to_le_bytes());
    }
    Some(out)
}

/// Writes `index` as segment `name` inside `dir`: temp file, fsync,
/// rename into place, fsync the directory. The segment is fully valid
/// or invisible — a crash mid-write leaves only a `.tmp` orphan.
/// Returns the number of bytes written (the write-amplification
/// accounting behind [`super::SyncStats`]).
pub fn write_segment(dir: &Path, name: &str, index: &ColumnIndex) -> Result<u64, PersistError> {
    let n = index.sorted.len();
    let m = index.machines.len();
    let too_big = |what: &str| PersistError::Corrupt {
        path: dir.join(name),
        reason: format!("{what} exceeds u32::MAX; refusing to write a silently-truncated segment"),
    };
    if u32::try_from(n).is_err() {
        return Err(too_big("run row count"));
    }

    let mut records = Vec::with_capacity(n * RECORD_BYTES);
    for r in &index.sorted {
        codec::encode_record(r, &mut records);
    }
    let mut machines = Vec::with_capacity(m * 4);
    for mid in &index.machines {
        machines.extend_from_slice(&mid.0.to_le_bytes());
    }
    let hour_order =
        encode_order(&index.hour_order).ok_or_else(|| too_big("hour permutation row"))?;
    let sections = [&records, &machines, &hour_order];

    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(SEG_MAGIC);
    header.extend_from_slice(&SEG_VERSION.to_le_bytes());
    header.extend_from_slice(&u64::try_from(n).unwrap_or_default().to_le_bytes());
    header.extend_from_slice(&u64::try_from(m).unwrap_or_default().to_le_bytes());
    for s in sections {
        header.extend_from_slice(&u64::try_from(s.len()).unwrap_or_default().to_le_bytes());
        header.extend_from_slice(&crc32(s).to_le_bytes());
    }
    header.extend_from_slice(&crc32(&header).to_le_bytes());

    let mut bytes = header;
    for s in sections {
        bytes.extend_from_slice(s);
    }

    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    std::fs::write(&tmp, &bytes).map_err(io_err("write segment temp", &tmp))?;
    let f = std::fs::File::open(&tmp).map_err(io_err("reopen segment temp", &tmp))?;
    f.sync_all().map_err(io_err("fsync segment temp", &tmp))?;
    drop(f);
    std::fs::rename(&tmp, &path).map_err(io_err("rename segment", &path))?;
    fsync_dir(dir)?;
    Ok(u64::try_from(bytes.len()).unwrap_or(u64::MAX))
}

/// The validated accounting a segment header describes.
struct HeaderInfo {
    /// Row count.
    n: usize,
    /// Machine count.
    m: usize,
    /// The section lengths in table order.
    lens: [usize; SECTIONS],
    /// Total file size the header implies (header + sections).
    total: usize,
}

/// Parses and validates the fixed header at the front of `bytes`
/// (magic, version, header CRC, row-count agreement, section-length
/// accounting). `bytes` may be just the header or the whole file.
fn parse_header(bytes: &[u8], expect_rows: u64) -> Result<HeaderInfo, String> {
    if bytes.get(..SEG_MAGIC.len()) != Some(SEG_MAGIC.as_slice()) {
        return Err("missing or unrecognized segment magic".to_string());
    }
    let version = codec::u32_at(bytes, 8).ok_or("truncated header")?;
    if version != SEG_VERSION {
        return Err(format!("unsupported segment version {version} (this build reads {SEG_VERSION})"));
    }
    let header = bytes.get(..HEADER_BYTES - 4).ok_or("truncated header")?;
    let header_crc = codec::u32_at(bytes, HEADER_BYTES - 4).ok_or("truncated header")?;
    if crc32(header) != header_crc {
        return Err("header checksum mismatch".to_string());
    }
    let n64 = codec::u64_at(bytes, 12).ok_or("truncated header")?;
    let m64 = codec::u64_at(bytes, 20).ok_or("truncated header")?;
    if n64 != expect_rows {
        return Err(format!("manifest says {expect_rows} rows, header says {n64}"));
    }
    let n = usize::try_from(n64).map_err(|_| "row count overflows usize")?;
    let m = usize::try_from(m64).map_err(|_| "machine count overflows usize")?;

    let mut lens = [0usize; SECTIONS];
    for (i, len) in lens.iter_mut().enumerate() {
        let at = 28 + i * 12;
        *len = usize::try_from(codec::u64_at(bytes, at).ok_or("truncated header")?)
            .map_err(|_| "section length overflows usize")?;
    }
    let total: usize = lens
        .iter()
        .try_fold(HEADER_BYTES, |acc, &l| acc.checked_add(l))
        .ok_or("section lengths overflow")?;
    let expect_lens = [
        n.checked_mul(RECORD_BYTES).ok_or("row count overflows")?,
        m.checked_mul(4).ok_or("machine count overflows")?,
        n.checked_mul(4).ok_or("row count overflows")?,
    ];
    if lens != expect_lens {
        return Err("section lengths disagree with row/machine counts".to_string());
    }
    Ok(HeaderInfo { n, m, lens, total })
}

/// Validates segment `name`'s header without decoding the body: magic,
/// version, header CRC, row count against the manifest, and the file
/// length against the section accounting. This is the cheap open-time
/// check of the lazy-loading store; full body validation happens in
/// [`load_segment`] on first query. Header-level corruption quarantines
/// the file exactly like a load failure.
pub fn read_header(dir: &Path, name: &str, expect_rows: u64) -> Result<(), PersistError> {
    let path = dir.join(name);
    let mut header = vec![0u8; HEADER_BYTES];
    let outcome = (|| {
        use std::io::Read;
        let mut f = std::fs::File::open(&path).map_err(io_err("open segment", &path))?;
        let file_len = f
            .metadata()
            .map_err(io_err("stat segment", &path))?
            .len();
        if let Err(e) = f.read_exact(&mut header) {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                return Ok(Err("truncated header".to_string()));
            }
            return Err(io_err("read segment header", &path)(e));
        }
        match parse_header(&header, expect_rows) {
            Ok(info) => {
                if u64::try_from(info.total).ok() != Some(file_len) {
                    return Ok(Err(format!(
                        "file is {file_len} bytes, sections describe {}",
                        info.total
                    )));
                }
                Ok(Ok(()))
            }
            Err(reason) => Ok(Err(reason)),
        }
    })();
    match outcome {
        Ok(Ok(())) => Ok(()),
        Ok(Err(reason)) => Err(quarantine(dir, name, &path, reason)),
        Err(io) => Err(io),
    }
}

/// Loads segment `name` from `dir`, verifying every checksum and the
/// structural invariants, and expecting exactly `expect_rows` rows and
/// the inclusive `expect_bounds` hour range (both recorded in the
/// manifest). Corruption quarantines the file and returns a typed
/// error; it never panics.
pub fn load_segment(
    dir: &Path,
    name: &str,
    expect_rows: u64,
    expect_bounds: (u64, u64),
) -> Result<ColumnIndex, PersistError> {
    let path = dir.join(name);
    let bytes = std::fs::read(&path).map_err(io_err("read segment", &path))?;
    let checked = parse_segment(&bytes, expect_rows).and_then(|index| {
        let got = index.hours.first().copied().zip(index.hours.last().copied());
        if got == Some(expect_bounds) {
            Ok(index)
        } else {
            let (lo, hi) = expect_bounds;
            Err(format!("manifest says hours [{lo}, {hi}], segment covers {got:?}"))
        }
    });
    checked.map_err(|reason| quarantine(dir, name, &path, reason))
}

/// Parses and validates a whole segment image. `Err` carries the
/// human-readable reason; the caller turns it into a quarantine.
fn parse_segment(bytes: &[u8], expect_rows: u64) -> Result<ColumnIndex, String> {
    let HeaderInfo { n, m, lens, total } = parse_header(bytes, expect_rows)?;
    if bytes.len() != total {
        return Err(format!("file is {} bytes, sections describe {total}", bytes.len()));
    }
    // Section CRCs from the (already-validated) descriptors.
    let mut crcs = [0u32; SECTIONS];
    for (i, crc) in crcs.iter_mut().enumerate() {
        *crc = codec::u32_at(bytes, 28 + i * 12 + 8).ok_or("truncated header")?;
    }
    let mut sections = [&[] as &[u8]; SECTIONS];
    let mut at = HEADER_BYTES;
    for ((sec, &len), (i, &crc)) in
        sections.iter_mut().zip(&lens).zip(crcs.iter().enumerate())
    {
        let s = bytes.get(at..at + len).ok_or("truncated section")?;
        if crc32(s) != crc {
            return Err(format!("section {i} checksum mismatch"));
        }
        *sec = s;
        at += len;
    }
    let [records_b, machines_b, hour_b] = sections;

    let sorted = codec::decode_records(records_b, n).ok_or("record section malformed")?;
    let machines: Vec<MachineId> = machines_b
        .chunks_exact(4)
        .filter_map(|c| codec::u32_at(c, 0).map(MachineId))
        .collect();
    if machines.len() != m {
        return Err("machine section malformed".to_string());
    }
    let hour_order: Vec<usize> = hour_b
        .chunks_exact(4)
        .filter_map(|c| codec::u32_at(c, 0).map(|v| v as usize))
        .collect();

    ColumnIndex::from_persisted(sorted, machines, hour_order)
        .ok_or_else(|| "index invariants violated (unsorted rows or bad permutation)".to_string())
}

/// Renames a corrupt file to `<name>.quarantine` (best-effort; the
/// original path is reported either way) and builds the typed error.
fn quarantine(dir: &Path, name: &str, path: &Path, reason: String) -> PersistError {
    let qpath: PathBuf = dir.join(format!("{name}.quarantine"));
    let moved = std::fs::rename(path, &qpath).is_ok();
    let _ = fsync_dir(dir);
    PersistError::Corrupt {
        path: path.to_path_buf(),
        reason: if moved {
            format!("{reason}; file quarantined as {}", qpath.display())
        } else {
            reason
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{GroupKey, MachineHourRecord, MetricValues, ScId, SkuId};

    fn records(n: u64) -> Vec<MachineHourRecord> {
        (0..n)
            .map(|i| MachineHourRecord {
                machine: MachineId((i % 7) as u32),
                group: GroupKey::new(SkuId((i % 3) as u16), ScId((i % 2) as u8)),
                hour: i / 7,
                metrics: MetricValues {
                    tasks_finished: i as f64,
                    cpu_time_s: (i as f64) * 0.25,
                    ..MetricValues::default()
                },
            })
            .collect()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("kea-seg-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_load_is_identical() {
        let dir = tmpdir("roundtrip");
        let index = ColumnIndex::build(&records(500));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let back = load_segment(&dir, "seg-000001.kseg", 500, (0, 71)).unwrap();
        assert_eq!(back.sorted, index.sorted);
        assert_eq!(back.machines, index.machines);
        assert_eq!(back.machine_dense, index.machine_dense);
        assert_eq!(back.hour_order, index.hour_order);
        assert_eq!(back.columns, index.columns);
        assert_eq!(back.group_offsets, index.group_offsets);
        assert_eq!(back.hour_offsets, index.hour_offsets);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_validation_accepts_good_segment_and_bounds_check_works() {
        let dir = tmpdir("header");
        let index = ColumnIndex::build(&records(210)); // hours 0..=29
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        read_header(&dir, "seg-000001.kseg", 210).unwrap();
        // Matching bounds load cleanly.
        load_segment(&dir, "seg-000001.kseg", 210, (0, 29)).unwrap();
        // Mismatched manifest bounds are corruption, not silence.
        let err = load_segment(&dir, "seg-000001.kseg", 210, (0, 99)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }));
        assert!(dir.join("seg-000001.kseg.quarantine").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_validation_rejects_wrong_rows_and_truncation() {
        let dir = tmpdir("header-bad");
        let index = ColumnIndex::build(&records(64));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let bytes = std::fs::read(dir.join("seg-000001.kseg")).unwrap();
        // Wrong manifest row count.
        std::fs::write(dir.join("a.kseg"), &bytes).unwrap();
        assert!(matches!(
            read_header(&dir, "a.kseg", 65).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
        assert!(dir.join("a.kseg.quarantine").exists());
        // Body shorter than the header promises (caught without decoding).
        std::fs::write(dir.join("b.kseg"), &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            read_header(&dir, "b.kseg", 64).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
        // File shorter than the header itself.
        std::fs::write(dir.join("c.kseg"), &bytes[..10]).unwrap();
        assert!(matches!(
            read_header(&dir, "c.kseg", 64).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (satellite bugfix): permutation rows used to be
    /// narrowed with a bare `as u32`, silently truncating any row past
    /// `u32::MAX`. The encoder now uses a checked conversion; an
    /// impossible row position is refused, never wrapped.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn permutation_row_past_u32_is_refused_not_truncated() {
        let big = u32::MAX as usize + 1;
        assert_eq!(encode_order(&[0, big]), None, "oversized row must not encode");
        // In-range rows still encode exactly.
        let ok = encode_order(&[0, 1, u32::MAX as usize]).unwrap();
        assert_eq!(ok.len(), 12);
        assert_eq!(&ok[8..], &u32::MAX.to_le_bytes());
    }

    /// The store never spills an empty run (it has no hour bounds for
    /// the manifest), but the format itself round-trips one.
    #[test]
    fn empty_run_roundtrips() {
        let dir = tmpdir("empty");
        let index = ColumnIndex::build(&[]);
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        read_header(&dir, "seg-000001.kseg", 0).unwrap();
        let bytes = std::fs::read(dir.join("seg-000001.kseg")).unwrap();
        let back = parse_segment(&bytes, 0).unwrap();
        assert!(back.sorted.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment from before the format change (version 1, which also
    /// persisted a per-machine permutation) is refused at its version
    /// field even when its header checksum is valid.
    #[test]
    fn version_1_header_is_refused() {
        let dir = tmpdir("v1");
        let index = ColumnIndex::build(&records(64));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let mut bytes = std::fs::read(dir.join("seg-000001.kseg")).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&bytes[..HEADER_BYTES - 4]);
        bytes[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(dir.join("old.kseg"), &bytes).unwrap();
        match read_header(&dir, "old.kseg", 64).unwrap_err() {
            PersistError::Corrupt { reason, .. } => {
                assert!(reason.contains("unsupported segment version 1"), "{reason}")
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_flip_quarantines_not_panics() {
        let dir = tmpdir("flip");
        let index = ColumnIndex::build(&records(300));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let path = dir.join("seg-000001.kseg");
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        // Flip one byte in several positions: header, each section.
        for (i, at) in [4usize, 40, HEADER_BYTES + 3, len - 5].into_iter().enumerate() {
            let name = format!("seg-{i}.kseg");
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[at] ^= 0x40;
            std::fs::write(dir.join(&name), &bytes).unwrap();
            let err = load_segment(&dir, &name, 300, (0, 42)).unwrap_err();
            assert!(matches!(err, PersistError::Corrupt { .. }), "at byte {at}: {err}");
            assert!(dir.join(format!("{name}.quarantine")).exists(), "at byte {at}");
            assert!(!dir.join(&name).exists());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn row_count_mismatch_with_manifest_is_corrupt() {
        let dir = tmpdir("rows");
        let index = ColumnIndex::build(&records(64));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let err = load_segment(&dir, "seg-000001.kseg", 65, (0, 9)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_corrupt_not_panic() {
        let dir = tmpdir("trunc");
        let index = ColumnIndex::build(&records(200));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let bytes = std::fs::read(dir.join("seg-000001.kseg")).unwrap();
        for cut in [0usize, 7, HEADER_BYTES - 2, HEADER_BYTES + 100, bytes.len() - 1] {
            std::fs::write(dir.join("cut.kseg"), &bytes[..cut]).unwrap();
            let err = load_segment(&dir, "cut.kseg", 200, (0, 28)).unwrap_err();
            assert!(matches!(err, PersistError::Corrupt { .. }), "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
