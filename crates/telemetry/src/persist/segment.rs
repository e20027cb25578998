//! Segment files: sealed [`ColumnIndex`] runs spilled to disk.
//!
//! A segment persists only the two core tables — the records in the
//! run's one sort order, `(group, hour, machine)`, and the interned
//! machine list — because everything else in the index (the `(group,
//! hour)` block table, dense ids) is an O(n) derivation, and metric
//! columns are built from the records on first use. Writing is
//! therefore a near-straight dump: the header and the two sections go
//! to one temp file handle, which is then fsynced. Loading re-derives
//! and *validates*, so a segment that passes checksums but encodes a
//! structurally inconsistent index is still rejected.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic      8B   "KEASEG1\n"
//! version    u32  3
//! rows       u64  n
//! machines   u64  m
//! sections   2 × [len: u64][crc32: u32]   records, machines
//! header_crc u32  over everything above
//! body            the two sections, concatenated in table order
//! ```
//!
//! A segment is 127 bytes per row plus 4 per distinct machine. This
//! build reads only version 3; a segment of any other version (2 also
//! persisted an `(hour, machine)` row permutation, 1 a per-machine one)
//! is refused.
//!
//! [`load_segment`] reads, checksums, decodes and validates in one
//! streaming pass; the store calls it for every live segment at open.
//! It first checks the fixed header (magic, version, header CRC,
//! row/section accounting against the file length), so a damaged
//! header or a truncated file is refused before any body byte is read.
//! After the header and the small machine table, the records flow
//! through one reused buffer of [`CHUNK_ROWS`] records (~1 MiB), so no
//! buffer ever holds the whole image. Each chunk's CRC-32 runs on a
//! scoped second thread ([`crc32_update`] carries it from chunk to
//! chunk) while this thread decodes the same bytes into an
//! [`IndexLoader`], the store's streaming builder, which derives the
//! block table and checks every invariant as the rows go by. A section
//! whose checksum fails is reported as such even when its bytes also
//! break a structural check, so the error names the damage, not its
//! symptom.
//!
//! On checksum or validation failure the load renames the file to
//! `<name>.quarantine` (best-effort) so the bad bytes survive for
//! forensics and never get mistaken for a live segment again, then
//! returns [`PersistError::Corrupt`].

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::codec::{self, RECORD_BYTES};
use super::crc::{crc32, crc32_update};
use super::{fsync_dir, io_err, PersistError};
use crate::record::MachineId;
use crate::store::{ColumnIndex, IndexLoader};

/// Magic bytes opening every segment file.
pub const SEG_MAGIC: &[u8; 8] = b"KEASEG1\n";

/// On-disk format version this build reads and writes.
const SEG_VERSION: u32 = 3;

/// Number of body sections: records, machines.
const SECTIONS: usize = 2;

/// Fixed header size: magic + version + rows + machines + section
/// descriptors + header CRC.
const HEADER_BYTES: usize = 8 + 4 + 8 + 8 + SECTIONS * 12 + 4;

/// Records per chunk of a load: the one read buffer holds this many
/// encoded records (~1 MiB), so no record straddles two chunks.
const CHUNK_ROWS: usize = 8_192;
const CHUNK_BYTES: usize = CHUNK_ROWS * RECORD_BYTES;

/// Writes `index` as segment `name` inside `dir`: temp file, fsync,
/// rename into place, fsync the directory. The segment is fully valid
/// or invisible — a crash mid-write leaves only a `.tmp` orphan.
/// Returns the number of bytes written (the write-amplification
/// accounting behind [`super::SyncStats`]).
pub fn write_segment(dir: &Path, name: &str, index: &ColumnIndex) -> Result<u64, PersistError> {
    let n = index.sorted.len();
    let m = index.machines.len();
    let mut records = Vec::with_capacity(n * RECORD_BYTES);
    for r in &index.sorted {
        codec::encode_record(r, &mut records);
    }
    let mut machines = Vec::with_capacity(m * 4);
    for mid in &index.machines {
        machines.extend_from_slice(&mid.0.to_le_bytes());
    }
    let sections = [&records, &machines];

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

    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    let mut f = File::create(&tmp).map_err(io_err("create segment temp", &tmp))?;
    let mut written = header.len();
    f.write_all(&header).map_err(io_err("write segment temp", &tmp))?;
    for s in sections {
        f.write_all(s).map_err(io_err("write segment temp", &tmp))?;
        written += s.len();
    }
    f.sync_all().map_err(io_err("fsync segment temp", &tmp))?;
    drop(f);
    std::fs::rename(&tmp, &path).map_err(io_err("rename segment", &path))?;
    fsync_dir(dir)?;
    Ok(u64::try_from(written).unwrap_or(u64::MAX))
}

/// The validated accounting a segment header describes.
struct HeaderInfo {
    /// Row count.
    n: usize,
    /// The section lengths in table order.
    lens: [usize; SECTIONS],
    /// The section CRCs in table order.
    crcs: [u32; SECTIONS],
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
    let mut crcs = [0u32; SECTIONS];
    for (i, (len, crc)) in lens.iter_mut().zip(&mut crcs).enumerate() {
        let at = 28 + i * 12;
        *len = usize::try_from(codec::u64_at(bytes, at).ok_or("truncated header")?)
            .map_err(|_| "section length overflows usize")?;
        *crc = codec::u32_at(bytes, at + 8).ok_or("truncated header")?;
    }
    let total: usize = lens
        .iter()
        .try_fold(HEADER_BYTES, |acc, &l| acc.checked_add(l))
        .ok_or("section lengths overflow")?;
    let expect_lens = [
        n.checked_mul(RECORD_BYTES).ok_or("row count overflows")?,
        m.checked_mul(4).ok_or("machine count overflows")?,
    ];
    if lens != expect_lens {
        return Err("section lengths disagree with row/machine counts".to_string());
    }
    Ok(HeaderInfo { n, lens, crcs, total })
}

/// Opens segment `path` and validates its header against the file
/// length. The outer `Err` is an I/O failure; the inner one names the
/// corruption.
fn open_segment(
    path: &Path,
    expect_rows: u64,
) -> Result<Result<(File, HeaderInfo), String>, PersistError> {
    let mut f = File::open(path).map_err(io_err("open segment", path))?;
    let file_len = f.metadata().map_err(io_err("stat segment", path))?.len();
    let mut header = [0u8; HEADER_BYTES];
    if let Err(e) = f.read_exact(&mut header) {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            return Ok(Err("truncated header".to_string()));
        }
        return Err(io_err("read segment header", path)(e));
    }
    let info = match parse_header(&header, expect_rows) {
        Ok(info) => info,
        Err(reason) => return Ok(Err(reason)),
    };
    if u64::try_from(info.total).ok() != Some(file_len) {
        return Ok(Err(format!("file is {file_len} bytes, sections describe {}", info.total)));
    }
    Ok(Ok((f, info)))
}

/// Loads segment `name` from `dir` in one streaming pass, expecting
/// exactly `expect_rows` rows and the inclusive `expect_bounds` hour
/// range (both recorded in the manifest; an empty run has no bounds,
/// so they are not checked for one).
///
/// The header is validated first: magic, version, header CRC, the row
/// count against the manifest, and the file length against the section
/// accounting. Then the small machine table is read whole, and the
/// records stream through one reused buffer of [`CHUNK_ROWS`] records
/// (~1 MiB); no buffer ever holds the whole image. Each chunk is
/// checksummed on a scoped second thread while this thread decodes it
/// into an [`IndexLoader`], which derives the block table and checks
/// every structural invariant as the rows go by. Both read the same
/// bytes, so everything decoded is also checksummed.
///
/// Errors are reported in a fixed order: a bad header or file length
/// first; then the first section whose checksum mismatches ("section N
/// checksum mismatch", even when its bytes also break a structural
/// check); then the first structural violation ("index invariants
/// violated: …"); then hour bounds that disagree with the manifest. A
/// read that comes up short after the length check means the file
/// changed underfoot and is reported the same way. Corruption
/// quarantines the file and returns a typed error; it never panics.
pub fn load_segment(
    dir: &Path,
    name: &str,
    expect_rows: u64,
    expect_bounds: (u64, u64),
) -> Result<ColumnIndex, PersistError> {
    let path = dir.join(name);
    let checked = read_segment(&path, expect_rows)?.and_then(|index| {
        let got = index.hour_bounds();
        if got.is_none_or(|got| got == expect_bounds) {
            Ok(index)
        } else {
            let (lo, hi) = expect_bounds;
            Err(format!("manifest says hours [{lo}, {hi}], segment covers {got:?}"))
        }
    });
    checked.map_err(|reason| quarantine(dir, name, &path, reason))
}

/// The streaming pass of [`load_segment`], without the manifest's hour
/// bounds. The outer `Err` is an I/O failure; the inner one names the
/// corruption.
fn read_segment(path: &Path, expect_rows: u64) -> Result<Result<ColumnIndex, String>, PersistError> {
    let (file, info) = match open_segment(path, expect_rows)? {
        Ok(opened) => opened,
        Err(reason) => return Ok(Err(reason)),
    };
    match read_body(file, &info) {
        Ok(checked) => Ok(checked),
        // The file length was checked at open, so a short read means
        // the file changed underfoot.
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Ok(Err("file shrank while loading".to_string()))
        }
        Err(e) => Err(io_err("read segment", path)(e)),
    }
}

/// Reads, checksums, decodes and validates the two sections behind a
/// validated header.
fn read_body(mut file: File, info: &HeaderInfo) -> std::io::Result<Result<ColumnIndex, String>> {
    let [records_len, machines_len] = info.lens;

    // The machine table first: every record is checked against it.
    seek_to(&mut file, HEADER_BYTES + records_len)?;
    let mut machines_b = vec![0u8; machines_len];
    file.read_exact(&mut machines_b)?;
    let machines: Vec<MachineId> = machines_b
        .chunks_exact(4)
        .filter_map(|c| codec::u32_at(c, 0).map(MachineId))
        .collect();
    let mut loader = IndexLoader::new(info.n, machines);

    seek_to(&mut file, HEADER_BYTES)?;
    let mut buf = Vec::new();
    let records_crc = stream_section(&mut file, &mut buf, records_len, |chunk| {
        loader.push_records(chunk.chunks_exact(RECORD_BYTES).filter_map(codec::decode_record))
    })?;

    // A damaged section is named as such, ahead of whatever structural
    // violation its bytes caused.
    let got = [records_crc, crc32(&machines_b)];
    if let Some(i) = got.iter().zip(&info.crcs).position(|(got, want)| got != want) {
        return Ok(Err(format!("section {i} checksum mismatch")));
    }
    Ok(loader.finish())
}

/// Positions `file` at byte `at`.
fn seek_to(file: &mut File, at: usize) -> std::io::Result<()> {
    let at = u64::try_from(at).map_err(std::io::Error::other)?;
    file.seek(SeekFrom::Start(at)).map(|_| ())
}

/// Streams the next `len` bytes of `file` through `buf`, at most
/// [`CHUNK_BYTES`] at a time, and returns their CRC-32. Each chunk goes
/// to `each` on this thread while a scoped thread extends the CRC over
/// the same bytes; the next read waits for both. One path on every
/// host: on a single CPU the two take turns, and the spawn per ~1 MiB
/// costs microseconds. A thread the OS refuses to create is an I/O
/// error, not a panic.
fn stream_section(
    file: &mut File,
    buf: &mut Vec<u8>,
    len: usize,
    mut each: impl FnMut(&[u8]),
) -> std::io::Result<u32> {
    let mut crc = 0;
    let mut left = len;
    while left > 0 {
        let take = left.min(CHUNK_BYTES);
        buf.resize(take, 0);
        file.read_exact(buf)?;
        let chunk: &[u8] = buf;
        crc = std::thread::scope(|scope| -> std::io::Result<u32> {
            let checksum = std::thread::Builder::new()
                .spawn_scoped(scope, move || crc32_update(crc, chunk))?;
            each(chunk);
            match checksum.join() {
                Ok(crc) => Ok(crc),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })?;
        left -= take;
    }
    Ok(crc)
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
    use crate::metric::Metric;
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

    /// Asserts `back` equals `index` table by table and column by column.
    fn assert_same_index(back: &ColumnIndex, index: &ColumnIndex) {
        assert_eq!(back.sorted, index.sorted);
        assert_eq!(back.blocks, index.blocks);
        assert_eq!(back.block_offsets, index.block_offsets);
        assert_eq!(back.machines, index.machines);
        assert_eq!(back.machine_dense, index.machine_dense);
        for m in Metric::ALL {
            assert_eq!(back.column(m), index.column(m), "{m}");
        }
    }

    #[test]
    fn write_then_load_is_identical() {
        let dir = tmpdir("roundtrip");
        let index = ColumnIndex::build(records(500));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let back = load_segment(&dir, "seg-000001.kseg", 500, (0, 71)).unwrap();
        assert_same_index(&back, &index);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Segments on either side of every chunk boundary load back equal
    /// to a fresh build: one row, one chunk less one row, exactly one
    /// chunk, one past it, and several chunks and a partial one.
    #[test]
    fn chunk_boundaries_roundtrip() {
        let dir = tmpdir("chunks");
        for n in [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 17] {
            let index = ColumnIndex::build(records(n as u64));
            let name = format!("seg-{n}.kseg");
            write_segment(&dir, &name, &index).unwrap();
            let bounds = index.hour_bounds().unwrap();
            let back = load_segment(&dir, &name, n as u64, bounds).unwrap();
            assert_same_index(&back, &index);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Loads `bytes` as segment `name` and asserts it is refused for a
    /// checksum mismatch in `section`, and quarantined.
    fn assert_checksum_refused(dir: &Path, name: &str, bytes: &[u8], rows: u64, section: usize) {
        std::fs::write(dir.join(name), bytes).unwrap();
        match load_segment(dir, name, rows, (0, u64::MAX)).unwrap_err() {
            PersistError::Corrupt { reason, .. } => assert!(
                reason.contains(&format!("section {section} checksum mismatch")),
                "{name}: {reason}"
            ),
            other => panic!("{name}: expected Corrupt, got {other}"),
        }
        assert!(dir.join(format!("{name}.quarantine")).exists(), "{name}");
        assert!(!dir.join(name).exists(), "{name}");
    }

    /// Every chunk is checksummed, and a checksum mismatch is reported
    /// ahead of the structural violation the same flipped byte causes.
    #[test]
    fn flips_in_any_chunk_report_their_section_checksum() {
        let dir = tmpdir("chunk-flips");
        let n = 3 * CHUNK_ROWS + 17;
        let index = ColumnIndex::build(records(n as u64));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let bytes = std::fs::read(dir.join("seg-000001.kseg")).unwrap();
        let machines_at = HEADER_BYTES + n * RECORD_BYTES;
        // A byte of a metric value (records' bytes 15.. are metrics).
        let metric_byte = |row: usize| HEADER_BYTES + row * RECORD_BYTES + 40;
        let flips = [
            (0, metric_byte(0)),
            (0, metric_byte(CHUNK_ROWS + CHUNK_ROWS / 2)),
            (0, metric_byte(n - 1)),
            // Machine 0 becomes 256: missing from the records, too.
            (1, machines_at + 1),
        ];
        for (i, (section, at)) in flips.into_iter().enumerate() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            assert_checksum_refused(&dir, &format!("flip-{i}.kseg"), &flipped, n as u64, section);
        }

        // A record's hour jumps by 2^40, past its successor in the same
        // group: out of order and checksum-broken at once.
        let row = (CHUNK_ROWS..n - 1)
            .find(|&r| index.sorted[r].group == index.sorted[r + 1].group)
            .unwrap();
        let mut flipped = bytes.clone();
        flipped[HEADER_BYTES + row * RECORD_BYTES + 7 + 5] ^= 0x01;
        assert_checksum_refused(&dir, "hour-flip.kseg", &flipped, n as u64, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_validation_accepts_good_segment_and_bounds_check_works() {
        let dir = tmpdir("header");
        let index = ColumnIndex::build(records(210)); // hours 0..=29
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
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
        let index = ColumnIndex::build(records(64));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let bytes = std::fs::read(dir.join("seg-000001.kseg")).unwrap();
        // Wrong manifest row count.
        std::fs::write(dir.join("a.kseg"), &bytes).unwrap();
        assert!(matches!(
            load_segment(&dir, "a.kseg", 65, (0, 9)).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
        assert!(dir.join("a.kseg.quarantine").exists());
        // Body shorter than the header promises (caught without decoding).
        std::fs::write(dir.join("b.kseg"), &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            load_segment(&dir, "b.kseg", 64, (0, 9)).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
        // File shorter than the header itself.
        std::fs::write(dir.join("c.kseg"), &bytes[..10]).unwrap();
        assert!(matches!(
            load_segment(&dir, "c.kseg", 64, (0, 9)).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The store never spills an empty run (it has no hour bounds for
    /// the manifest), but the format itself round-trips one, and the
    /// load skips the bounds check for it.
    #[test]
    fn empty_run_roundtrips() {
        let dir = tmpdir("empty");
        let index = ColumnIndex::build(Vec::new());
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let back = load_segment(&dir, "seg-000001.kseg", 0, (0, 0)).unwrap();
        assert!(back.sorted.is_empty());
        assert!(back.machines.is_empty() && back.blocks.is_empty());
        assert_eq!(back.block_offsets, vec![0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment from before a format change (version 2, which also
    /// persisted an `(hour, machine)` row permutation, or version 1,
    /// which persisted a per-machine one) is refused at its version
    /// field even when its header checksum is valid.
    #[test]
    fn older_segment_versions_are_refused() {
        let dir = tmpdir("older");
        let index = ColumnIndex::build(records(64));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        for version in [1u32, 2] {
            let mut bytes = std::fs::read(dir.join("seg-000001.kseg")).unwrap();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let crc = crc32(&bytes[..HEADER_BYTES - 4]);
            bytes[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(dir.join("old.kseg"), &bytes).unwrap();
            match load_segment(&dir, "old.kseg", 64, (0, 9)).unwrap_err() {
                PersistError::Corrupt { reason, .. } => assert!(
                    reason.contains(&format!("unsupported segment version {version}")),
                    "{reason}"
                ),
                other => panic!("expected Corrupt, got {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_flip_quarantines_not_panics() {
        let dir = tmpdir("flip");
        let index = ColumnIndex::build(records(300));
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

    /// Writes `index` — every section checksum valid — and asserts the
    /// load refuses it as an inconsistent index and quarantines it.
    fn assert_invariant_refused(dir: &Path, name: &str, index: &ColumnIndex, bounds: (u64, u64)) {
        write_segment(dir, name, index).unwrap();
        let rows = index.sorted.len() as u64;
        match load_segment(dir, name, rows, bounds).unwrap_err() {
            PersistError::Corrupt { reason, .. } => {
                assert!(reason.contains("index invariants violated"), "{name}: {reason}")
            }
            other => panic!("{name}: expected Corrupt, got {other}"),
        }
        assert!(dir.join(format!("{name}.quarantine")).exists(), "{name}");
        assert!(!dir.join(name).exists(), "{name}");
    }

    /// Each structural invariant `load_segment` enforces, violated alone
    /// in a segment whose checksums all hold.
    #[test]
    fn checksummed_but_inconsistent_index_is_refused() {
        let dir = tmpdir("invariants");
        let index = ColumnIndex::build(records(300)); // hours 0..=42, machines 0..7
        let bounds = (0, 42);

        // Two `sorted` rows swapped out of `(group, hour, machine)` order.
        let mut unsorted = index.clone();
        let at = (1..unsorted.sorted.len())
            .find(|&i| {
                let key = |r: &MachineHourRecord| (r.group, r.hour, r.machine);
                key(&unsorted.sorted[i - 1]) < key(&unsorted.sorted[i])
            })
            .unwrap();
        unsorted.sorted.swap(at - 1, at);
        assert_invariant_refused(&dir, "unsorted.kseg", &unsorted, bounds);

        // A last row at the hour `u64::MAX`, which ingest refuses: the
        // store's span, which ends one past its last hour, would wrap.
        let mut past_span = records(300);
        past_span.last_mut().unwrap().hour = u64::MAX;
        let past_span = ColumnIndex::build(past_span);
        assert_invariant_refused(&dir, "past-span.kseg", &past_span, (0, u64::MAX));

        // A row with a NaN metric, which ingest refuses too.
        let mut non_finite = records(300);
        non_finite[150].metrics.cpu_utilization = f64::NAN;
        let non_finite = ColumnIndex::build(non_finite);
        assert_invariant_refused(&dir, "non-finite.kseg", &non_finite, bounds);

        // A phantom machine no row references.
        let mut phantom = index.clone();
        phantom.machines.push(MachineId(1_000));
        assert_invariant_refused(&dir, "phantom.kseg", &phantom, bounds);

        // A row's machine missing from the machine table.
        let mut missing = index.clone();
        missing.machines.retain(|&m| m != MachineId(3));
        assert_invariant_refused(&dir, "missing.kseg", &missing, bounds);

        // The machine table not strictly ascending.
        let mut descending = index.clone();
        descending.machines.swap(0, 1);
        assert_invariant_refused(&dir, "descending.kseg", &descending, bounds);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The bytes `write_segment` produces are pinned: the file written
    /// from a fixed 300-row index has the length and CRC-32 below: a
    /// 56-byte header, 300 records of 127 bytes and 7 machines of 4.
    #[test]
    fn segment_bytes_are_pinned() {
        let dir = tmpdir("golden");
        let index = ColumnIndex::build(records(300));
        let written = write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let bytes = std::fs::read(dir.join("seg-000001.kseg")).unwrap();
        assert_eq!(written, bytes.len() as u64);
        assert_eq!(bytes.len(), HEADER_BYTES + 300 * RECORD_BYTES + 7 * 4);
        assert_eq!((bytes.len(), crc32(&bytes)), (38_184, 0x626A_C48B));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn row_count_mismatch_with_manifest_is_corrupt() {
        let dir = tmpdir("rows");
        let index = ColumnIndex::build(records(64));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let err = load_segment(&dir, "seg-000001.kseg", 65, (0, 9)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_corrupt_not_panic() {
        let dir = tmpdir("trunc");
        let index = ColumnIndex::build(records(200));
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
