//! CSV persistence for telemetry.
//!
//! The production Performance Monitor lands its metrics in Cosmos tables;
//! the portable equivalent is a flat CSV with one row per machine-hour.
//! Hand-rolled (the values are all numeric, no quoting needed), with a
//! header that doubles as a schema check on import — a file written by a
//! different version of the schema is rejected loudly, not misparsed.

use crate::record::{
    GroupKey, MachineHourRecord, MachineId, MetricValues, Refused, ScId, SkuId, MAX_HOUR,
};
use crate::store::TelemetryStore;
use std::fmt;
use std::io::{BufRead, Write};
use std::str::FromStr;

/// The key columns of a row; the stored metric fields follow them, named
/// and ordered by [`MetricValues`].
const KEY_COLUMNS: [&str; 4] = ["machine", "sku", "sc", "hour"];

/// The header line: every column name in row order. It doubles as the
/// schema version marker.
fn header() -> String {
    let columns: Vec<&str> = KEY_COLUMNS.into_iter().chain(MetricValues::NAMES).collect();
    columns.join(",")
}

/// Errors raised while reading telemetry CSV.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The header line did not match the one [`write_csv`] writes.
    SchemaMismatch {
        /// The header actually found.
        found: String,
    },
    /// A data row could not be parsed (1-based line number and reason).
    BadRow {
        /// Line number in the file.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// An integer field parsed but exceeds the range of its typed
    /// destination (`machine` is a `u32`, `sku` a `u16`, `sc` a `u8`), or
    /// `hour` is `u64::MAX`, whose span end `hour + 1` does not fit. The
    /// identifiers used to be narrowed with `as`, so a machine id ≥ 2³²
    /// silently aliased to a different machine; now the conversion is
    /// checked and the offending site is named.
    ValueOutOfRange {
        /// Line number in the file.
        line: usize,
        /// Header name of the offending column.
        column: &'static str,
        /// The value found in the file.
        found: u64,
        /// Largest value the column accepts.
        max: u64,
    },
    /// A metric field parsed as a float but was NaN or infinite. Typed
    /// separately from [`CsvError::BadRow`] so ingestion pipelines can
    /// distinguish "malformed file" from "well-formed file carrying
    /// poisoned measurements". The store drops a refused record without
    /// saying where it came from, so CSV ingest applies the store's
    /// admission rule to each row itself and names the line and the
    /// column.
    NonFinite {
        /// Line number in the file.
        line: usize,
        /// Header name of the offending column.
        column: &'static str,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::SchemaMismatch { found } => {
                write!(f, "telemetry CSV header mismatch; found: {found}")
            }
            CsvError::BadRow { line, reason } => write!(f, "bad row at line {line}: {reason}"),
            CsvError::ValueOutOfRange {
                line,
                column,
                found,
                max,
            } => write!(
                f,
                "value out of range at line {line}, column {column}: {found} exceeds {max}"
            ),
            CsvError::NonFinite { line, column } => {
                write!(f, "non-finite value at line {line}, column {column}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Checked narrowing for the typed identifier columns (`machine` u32,
/// `sku` u16, `sc` u8). `parse::<u64>` already rejects values past
/// `u64::MAX` with a [`CsvError::BadRow`]; this closes the remaining gap
/// between u64 and the destination width, which an `as` cast used to
/// wrap silently — a machine id of 2³² aliased to machine 0. `max` is
/// the destination's ceiling, carried separately only for the message.
fn narrow<T: TryFrom<u64>>(
    value: u64,
    max: u64,
    line: usize,
    column: &'static str,
) -> Result<T, CsvError> {
    T::try_from(value).map_err(|_| CsvError::ValueOutOfRange {
        line,
        column,
        found: value,
        max,
    })
}

/// Parses field `idx` of a row; a field that does not parse is a
/// [`CsvError::BadRow`] naming it.
fn parse_field<T: FromStr>(fields: &[&str], idx: usize, line: usize) -> Result<T, CsvError>
where
    T::Err: fmt::Display,
{
    let text = fields.get(idx).copied().unwrap_or("").trim();
    text.parse().map_err(|e| CsvError::BadRow {
        line,
        reason: format!("field {idx}: {e}"),
    })
}

/// Writes the store as CSV (header + one row per record, insertion order).
///
/// # Errors
/// Propagates I/O errors from the writer, including those of its final
/// flush.
pub fn write_csv<W: Write>(store: &TelemetryStore, mut out: W) -> Result<(), CsvError> {
    writeln!(out, "{}", header())?;
    for r in store.iter() {
        let (machine, sku, sc) = (r.machine.0, r.group.sku.0, r.group.sc.0);
        write!(out, "{machine},{sku},{sc},{}", r.hour)?;
        for v in r.metrics.to_array() {
            write!(out, ",{v}")?;
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

/// Reads a store back from CSV produced by [`write_csv`].
///
/// # Errors
/// Rejects a wrong header ([`CsvError::SchemaMismatch`]), malformed rows
/// ([`CsvError::BadRow`] with the line number), identifier values that
/// do not fit their typed destination ([`CsvError::ValueOutOfRange`]
/// with line and column), and a row the store's admission rule refuses:
/// an hour past the last one the store accepts
/// ([`CsvError::ValueOutOfRange`]) or a NaN or infinite metric
/// ([`CsvError::NonFinite`]). Propagates I/O errors.
pub fn read_csv<R: BufRead>(input: R) -> Result<TelemetryStore, CsvError> {
    let mut lines = input.lines();
    let found = lines.next().transpose()?.unwrap_or_default();
    if found.trim() != header() {
        return Err(CsvError::SchemaMismatch { found });
    }
    let n_columns = KEY_COLUMNS.len() + MetricValues::NAMES.len();
    let mut store = TelemetryStore::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2; // 1-based, after the header
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != n_columns {
            return Err(CsvError::BadRow {
                line: line_no,
                reason: format!("expected {n_columns} fields, got {}", fields.len()),
            });
        }
        let int = |idx: usize| parse_field::<u64>(&fields, idx, line_no);
        let machine = MachineId(narrow(int(0)?, u64::from(u32::MAX), line_no, "machine")?);
        let group = GroupKey::new(
            SkuId(narrow(int(1)?, u64::from(u16::MAX), line_no, "sku")?),
            ScId(narrow(int(2)?, u64::from(u8::MAX), line_no, "sc")?),
        );
        let hour = int(3)?;
        let mut metrics = [0.0; 14];
        for (idx, v) in (KEY_COLUMNS.len()..).zip(&mut metrics) {
            *v = parse_field(&fields, idx, line_no)?;
        }
        let record = MachineHourRecord {
            machine,
            group,
            hour,
            metrics: MetricValues::from_array(metrics),
        };
        record.admit().map_err(|refused| match refused {
            Refused::Hour(found) => CsvError::ValueOutOfRange {
                line: line_no,
                column: "hour",
                found,
                max: MAX_HOUR,
            },
            Refused::NonFinite(column) => CsvError::NonFinite {
                line: line_no,
                column,
            },
        })?;
        store.push(record);
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The header text, pinned byte for byte by
    /// [`column_names_match_header`].
    const HEADER: &str = "machine,sku,sc,hour,total_data_read_gb,tasks_finished,\
task_exec_time_s,cpu_time_s,cpu_utilization,avg_running_containers,avg_task_latency_s,\
queued_containers,queue_latency_p99_ms,power_draw_w,ssd_used_gb,ram_used_gb,cores_used,\
network_used_gbps";

    fn sample_store() -> TelemetryStore {
        let mut s = TelemetryStore::new();
        for m in 0..3u32 {
            for h in 0..4u64 {
                s.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: GroupKey::new(SkuId(m as u16 % 2), ScId(1)),
                    hour: h,
                    // cpu_utilization 61.25 and power_draw_w 260.5 are
                    // the values the tests below corrupt.
                    metrics: MetricValues::from_array([
                        1.5 * (m + 1) as f64,
                        10.0 + h as f64,
                        1234.5,
                        1000.25,
                        61.25,
                        11.5,
                        300.125,
                        0.5,
                        4500.0,
                        260.5,
                        400.0,
                        96.5,
                        20.25,
                        3.75,
                    ]),
                });
            }
        }
        s
    }

    #[test]
    fn round_trips_exactly() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_csv(&store, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), store.len());
        for (a, b) in store.iter().zip(back.iter()) {
            assert_eq!(a, b, "record drift through CSV");
        }
    }

    #[test]
    fn rejects_wrong_header() {
        let data = "machine,hour\n1,2\n";
        assert!(matches!(
            read_csv(data.as_bytes()),
            Err(CsvError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn rejects_short_rows_with_line_number() {
        let data = format!("{HEADER}\n1,2,3\n");
        match read_csv(data.as_bytes()) {
            Err(CsvError::BadRow { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected BadRow, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_values() {
        let good = {
            let mut buf = Vec::new();
            write_csv(&sample_store(), &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        let corrupted = good.replacen("61.25", "not-a-number", 1);
        assert!(matches!(
            read_csv(corrupted.as_bytes()),
            Err(CsvError::BadRow { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_values_with_typed_error() {
        let good = {
            let mut buf = Vec::new();
            write_csv(&sample_store(), &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        // "NaN" and "inf" both parse as f64 — the store alone would drop
        // them silently. The typed error names the line and the column.
        let nan_row = good.replacen("61.25", "NaN", 1);
        match read_csv(nan_row.as_bytes()) {
            Err(CsvError::NonFinite { line, column }) => {
                assert_eq!(line, 2);
                assert_eq!(column, "cpu_utilization");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        let infinite = good.replacen("260.5", "inf", 1);
        match read_csv(infinite.as_bytes()) {
            Err(CsvError::NonFinite { line, column }) => {
                assert_eq!(line, 2);
                assert_eq!(column, "power_draw_w");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    /// Regression (previously: `machine: MachineId(int(0)? as u32)` —
    /// a machine id of exactly 2³² wrapped to machine 0 and silently
    /// aliased its telemetry onto a different machine). The conversion
    /// is now checked and names the line and column.
    #[test]
    fn rejects_machine_id_past_u32() {
        let row = format!("{HEADER}\n{},0,0,0{}\n", 1u64 << 32, ",1.0".repeat(14));
        match read_csv(row.as_bytes()) {
            Err(CsvError::ValueOutOfRange {
                line,
                column,
                found,
                max,
            }) => {
                assert_eq!(line, 2);
                assert_eq!(column, "machine");
                assert_eq!(found, 1u64 << 32);
                assert_eq!(max, u64::from(u32::MAX));
            }
            other => panic!("expected ValueOutOfRange, got {other:?}"),
        }
        // The same id minus one is the last valid machine and must load.
        let row = format!("{HEADER}\n{},0,0,0{}\n", u32::MAX, ",1.0".repeat(14));
        let store = read_csv(row.as_bytes()).unwrap();
        assert_eq!(store.iter().next().map(|r| r.machine), Some(MachineId(u32::MAX)));
    }

    /// Regression twin for the group fields (previously `as u16` /
    /// `as u8`): a SKU of 2¹⁶ aliased to SKU 0 and an SC of 2⁸ to SC 0,
    /// silently merging unrelated machine groups.
    #[test]
    fn rejects_group_fields_past_width() {
        let row = format!("{HEADER}\n0,{},0,0{}\n", 1u64 << 16, ",1.0".repeat(14));
        match read_csv(row.as_bytes()) {
            Err(CsvError::ValueOutOfRange { line, column, .. }) => {
                assert_eq!(line, 2);
                assert_eq!(column, "sku");
            }
            other => panic!("expected ValueOutOfRange, got {other:?}"),
        }
        let row = format!("{HEADER}\n0,0,{},0{}\n", 1u64 << 8, ",1.0".repeat(14));
        match read_csv(row.as_bytes()) {
            Err(CsvError::ValueOutOfRange { line, column, .. }) => {
                assert_eq!(line, 2);
                assert_eq!(column, "sc");
            }
            other => panic!("expected ValueOutOfRange, got {other:?}"),
        }
    }

    /// `hour` needs no narrowing (u64 end to end): overflow past
    /// `u64::MAX` is rejected by `parse` itself as a BadRow.
    #[test]
    fn rejects_hour_past_u64_as_bad_row() {
        let row = format!(
            "{HEADER}\n0,0,0,18446744073709551616{}\n",
            ",1.0".repeat(14)
        );
        match read_csv(row.as_bytes()) {
            Err(CsvError::BadRow { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected BadRow, got {other:?}"),
        }
    }

    /// The last u64 hour parses but has no span end (`hour + 1`): it is
    /// refused with its line instead of wrapping the store's span.
    #[test]
    fn rejects_the_last_u64_hour() {
        let row = format!(
            "{HEADER}\n0,0,0,0{0}\n0,0,0,{1}{0}\n",
            ",1.0".repeat(14),
            u64::MAX
        );
        match read_csv(row.as_bytes()) {
            Err(CsvError::ValueOutOfRange {
                line,
                column,
                found,
                max,
            }) => {
                assert_eq!(line, 3);
                assert_eq!(column, "hour");
                assert_eq!(found, u64::MAX);
                assert_eq!(max, u64::MAX - 1);
            }
            other => panic!("expected ValueOutOfRange, got {other:?}"),
        }
        let row = format!("{HEADER}\n0,0,0,{}{}\n", u64::MAX - 1, ",1.0".repeat(14));
        let store = read_csv(row.as_bytes()).unwrap();
        assert_eq!(store.hour_span(), Some((u64::MAX - 1, u64::MAX)));
    }

    #[test]
    fn skips_blank_lines() {
        let mut buf = Vec::new();
        write_csv(&sample_store(), &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push('\n');
        let back = read_csv(text.as_bytes()).unwrap();
        assert_eq!(back.len(), sample_store().len());
    }

    #[test]
    fn empty_store_is_header_only() {
        let mut buf = Vec::new();
        write_csv(&TelemetryStore::new(), &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text.trim(), HEADER);
        assert!(read_csv(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn display_messages() {
        let e = CsvError::BadRow {
            line: 7,
            reason: "x".to_string(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = CsvError::SchemaMismatch {
            found: "bogus".to_string(),
        };
        assert!(e.to_string().contains("bogus"));
        let e = CsvError::NonFinite {
            line: 3,
            column: "power_draw_w",
        };
        assert!(e.to_string().contains("line 3"));
        assert!(e.to_string().contains("power_draw_w"));
        let e = CsvError::ValueOutOfRange {
            line: 4,
            column: "machine",
            found: 1 << 32,
            max: u64::from(u32::MAX),
        };
        assert!(e.to_string().contains("line 4"));
        assert!(e.to_string().contains("machine"));
        assert!(e.to_string().contains("4294967296"));
    }

    #[test]
    fn column_names_match_header() {
        assert_eq!(header(), HEADER);
    }
}
