//! The manifest: the single source of truth for which files are live.
//!
//! A store directory's `MANIFEST` names the live segment set (in run
//! order, oldest first) and the live WAL. It is tiny and human-readable,
//! and records each segment's row count and inclusive hour bounds so
//! windowed queries can prune segments without opening them:
//!
//! ```text
//! kea-telemetry-manifest v3
//! segment seg-000001.kseg rows 86016 hours 0 335
//! segment seg-000003.kseg rows 6144 hours 336 359
//! wal wal-000004.wal
//! ```
//!
//! The header line names the on-disk format of the whole directory:
//! **v3** is the three-section segment format (see `segment`). The
//! reader accepts exactly that header, so a directory written by an
//! older build (v1 or v2) is refused as corrupt at its first line,
//! before any segment is opened, quarantined, or swept.
//!
//! Every update writes `MANIFEST.tmp`, fsyncs it, renames over
//! `MANIFEST`, and fsyncs the directory — so the manifest flips
//! atomically between two valid states and a crash at any byte leaves
//! either the old or the new file set live. Files not named by the
//! manifest are orphans from an interrupted rotation and are swept on
//! open (quarantined files excepted).

use std::path::{Path, PathBuf};

use super::{fsync_dir, io_err, test_hooks, PersistError};

/// File name of the manifest inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// First line of every manifest this build writes, and the only one it
/// reads.
const MANIFEST_HEADER: &str = "kea-telemetry-manifest v3";

/// One live segment: file name, the row count the loader must find, and
/// the inclusive `[min_hour, max_hour]` the segment covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Segment file name (no directory components).
    pub name: String,
    /// Rows recorded at write time; cross-checked against the header.
    pub rows: u64,
    /// Inclusive hour bounds recorded at write time; cross-checked
    /// against the decoded body.
    pub bounds: (u64, u64),
}

/// Parsed manifest contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Live segments in run order (oldest first).
    pub segments: Vec<SegmentEntry>,
    /// Live WAL file name.
    pub wal: String,
}

/// A file name is acceptable only if it is a bare name — no path
/// separators, no `..` — so a doctored manifest cannot reach outside
/// the store directory.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.contains('/')
        && !name.contains('\\')
        && name != "."
        && name != ".."
}

impl Manifest {
    /// Serializes to the on-disk text form.
    fn render(&self) -> String {
        let mut out = String::from(MANIFEST_HEADER);
        out.push('\n');
        for s in &self.segments {
            let (lo, hi) = s.bounds;
            out.push_str(&format!("segment {} rows {} hours {lo} {hi}\n", s.name, s.rows));
        }
        out.push_str(&format!("wal {}\n", self.wal));
        out
    }

    /// Parses the on-disk text form; any malformed line is corruption.
    fn parse(text: &str, path: &Path) -> Result<Manifest, PersistError> {
        let corrupt = |reason: String| PersistError::Corrupt { path: path.to_path_buf(), reason };
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != MANIFEST_HEADER {
            return Err(corrupt(format!(
                "unsupported format {header:?}: this build reads only {MANIFEST_HEADER:?} directories"
            )));
        }
        let mut segments = Vec::new();
        let mut wal = None;
        for (no, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(' ').collect();
            match fields.as_slice() {
                ["segment", name, "rows", rows, "hours", lo, hi] => {
                    if !valid_name(name) {
                        return Err(corrupt(format!("bad segment name on line {}", no + 2)));
                    }
                    let rows: u64 = rows
                        .parse()
                        .map_err(|_| corrupt(format!("bad row count on line {}", no + 2)))?;
                    let lo: u64 = lo
                        .parse()
                        .map_err(|_| corrupt(format!("bad hour bound on line {}", no + 2)))?;
                    let hi: u64 = hi
                        .parse()
                        .map_err(|_| corrupt(format!("bad hour bound on line {}", no + 2)))?;
                    if lo > hi {
                        return Err(corrupt(format!("inverted hour bounds on line {}", no + 2)));
                    }
                    segments.push(SegmentEntry { name: name.to_string(), rows, bounds: (lo, hi) });
                }
                ["wal", name] => {
                    if !valid_name(name) {
                        return Err(corrupt(format!("bad wal name on line {}", no + 2)));
                    }
                    if wal.replace(name.to_string()).is_some() {
                        return Err(corrupt("manifest names two WALs".to_string()));
                    }
                }
                _ => {
                    return Err(corrupt(format!("unrecognized manifest line {}", no + 2)));
                }
            }
        }
        let wal = wal.ok_or_else(|| corrupt("manifest names no WAL".to_string()))?;
        Ok(Manifest { segments, wal })
    }
}

/// Reads and parses `dir/MANIFEST`. A missing file is the dedicated
/// [`PersistError::MissingManifest`] so callers can distinguish "fresh
/// directory" from "directory with a deleted manifest".
pub fn read_manifest(dir: &Path) -> Result<Manifest, PersistError> {
    let path = dir.join(MANIFEST_NAME);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(PersistError::MissingManifest { dir: dir.to_path_buf() })
        }
        Err(e) => return Err(io_err("read manifest", &path)(e)),
    };
    let text = String::from_utf8(bytes).map_err(|_| PersistError::Corrupt {
        path: path.clone(),
        reason: "manifest is not valid UTF-8".to_string(),
    })?;
    Manifest::parse(&text, &path)
}

/// Atomically installs `manifest` as `dir/MANIFEST`: write temp, fsync,
/// rename, fsync directory.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<(), PersistError> {
    let tmp: PathBuf = dir.join(format!("{MANIFEST_NAME}.tmp"));
    let path = dir.join(MANIFEST_NAME);
    std::fs::write(&tmp, manifest.render()).map_err(io_err("write manifest temp", &tmp))?;
    let f = std::fs::File::open(&tmp).map_err(io_err("reopen manifest temp", &tmp))?;
    f.sync_all().map_err(io_err("fsync manifest temp", &tmp))?;
    drop(f);
    // Crash-injection point for the crash suite: the new segments and
    // the temp manifest are on disk, but the flip never happens — the
    // old file set must stay live and the orphans must be swept.
    if test_hooks::take_manifest_flip_failure(dir) {
        return Err(PersistError::Io {
            op: "rename manifest (injected crash)",
            path,
            source: std::io::Error::other("injected manifest-flip failure"),
        });
    }
    std::fs::rename(&tmp, &path).map_err(io_err("rename manifest", &path))?;
    fsync_dir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("kea-manifest-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip() {
        let dir = tmpdir("roundtrip");
        let m = Manifest {
            segments: vec![
                SegmentEntry { name: "seg-000001.kseg".into(), rows: 86_016, bounds: (0, 335) },
                SegmentEntry { name: "seg-000002.kseg".into(), rows: 12, bounds: (336, 340) },
            ],
            wal: "wal-000003.wal".into(),
        };
        write_manifest(&dir, &m).unwrap();
        let text = std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
        assert!(text.starts_with("kea-telemetry-manifest v3\n"), "{text}");
        assert_eq!(read_manifest(&dir).unwrap(), m);
        assert!(!dir.join("MANIFEST.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_typed() {
        let dir = tmpdir("missing");
        assert!(matches!(
            read_manifest(&dir).unwrap_err(),
            PersistError::MissingManifest { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_lines_are_corrupt() {
        let dir = tmpdir("malformed");
        let cases = [
            "",
            "wrong header\nwal a.wal\n",
            "kea-telemetry-manifest v3\n",                       // no wal
            "kea-telemetry-manifest v3\nwal a\nwal b\n",        // two wals
            "kea-telemetry-manifest v3\nsegment x rows z hours 0 4\nwal a\n",
            "kea-telemetry-manifest v3\nsegment x rows 3\nwal a\n", // no bounds
            "kea-telemetry-manifest v3\nsegment ../x rows 3 hours 0 4\nwal a\n",
            "kea-telemetry-manifest v3\nsegment x rows 3 hours z 4\nwal a\n",
            "kea-telemetry-manifest v3\nsegment x rows 3 hours 9 4\nwal a\n", // inverted
            "kea-telemetry-manifest v3\nsegment x rows 3 hours 1\nwal a\n",   // truncated
            "kea-telemetry-manifest v3\nwal ../../etc/passwd\n",
            "kea-telemetry-manifest v3\nmystery line\nwal a\n",
        ];
        for (i, text) in cases.iter().enumerate() {
            std::fs::write(dir.join(MANIFEST_NAME), text).unwrap();
            let err = read_manifest(&dir).unwrap_err();
            assert!(matches!(err, PersistError::Corrupt { .. }), "case {i}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Older formats are refused by their header line alone, even when
    /// every other line is well formed for their version.
    #[test]
    fn older_format_headers_are_corrupt() {
        let dir = tmpdir("older");
        for text in [
            "kea-telemetry-manifest v2\nsegment x rows 3 hours 0 4\nwal a\n",
            "kea-telemetry-manifest v1\nsegment x rows 3\nwal a\n",
        ] {
            std::fs::write(dir.join(MANIFEST_NAME), text).unwrap();
            match read_manifest(&dir).unwrap_err() {
                PersistError::Corrupt { path, reason } => {
                    assert_eq!(path, dir.join(MANIFEST_NAME));
                    assert!(reason.contains("unsupported format"), "{reason}");
                }
                other => panic!("expected Corrupt, got {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
