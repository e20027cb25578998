//! Fixed-width binary encoding of [`MachineHourRecord`] shared by the
//! WAL and segment formats.
//!
//! A record is 127 little-endian bytes: `machine: u32`, `sku: u16`,
//! `sc: u8`, `hour: u64`, then the 14 stored metric fields as `f64` in
//! the order [`MetricValues`] owns (its names table). The layout is
//! versioned by the containing file's magic, not per record, so
//! decoding never guesses widths.

use crate::record::{GroupKey, MachineHourRecord, MachineId, MetricValues, ScId, SkuId};

/// Encoded size of one record in bytes: 15 key bytes, then 8 per
/// stored metric field.
pub const RECORD_BYTES: usize = 15 + 8 * MetricValues::NAMES.len();

/// Appends the 127-byte encoding of `r` to `out`.
pub fn encode_record(r: &MachineHourRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&r.machine.0.to_le_bytes());
    out.extend_from_slice(&r.group.sku.0.to_le_bytes());
    out.push(r.group.sc.0);
    out.extend_from_slice(&r.hour.to_le_bytes());
    for v in r.metrics.to_array() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reads a `u32` at `at`; `None` if out of bounds.
pub fn u32_at(b: &[u8], at: usize) -> Option<u32> {
    let bytes: [u8; 4] = b.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// Reads a `u64` at `at`; `None` if out of bounds.
pub fn u64_at(b: &[u8], at: usize) -> Option<u64> {
    let bytes: [u8; 8] = b.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// Decodes one record from exactly [`RECORD_BYTES`] bytes at the start
/// of `b`. Returns `None` if `b` is too short; trailing bytes are the
/// caller's business. The record's bytes are converted once, to a
/// fixed-size array, and every field is read from that array.
pub fn decode_record(b: &[u8]) -> Option<MachineHourRecord> {
    let &[m0, m1, m2, m3, s0, s1, sc, h0, h1, h2, h3, h4, h5, h6, h7, ref fields @ ..] =
        b.first_chunk::<RECORD_BYTES>()?;
    // 112 bytes are 14 values of 8, so this conversion cannot fail.
    let values: &[[u8; 8]; 14] = fields.as_chunks().0.try_into().ok()?;
    Some(MachineHourRecord {
        machine: MachineId(u32::from_le_bytes([m0, m1, m2, m3])),
        group: GroupKey::new(SkuId(u16::from_le_bytes([s0, s1])), ScId(sc)),
        hour: u64::from_le_bytes([h0, h1, h2, h3, h4, h5, h6, h7]),
        metrics: MetricValues::from_array(values.map(f64::from_le_bytes)),
    })
}

/// Decodes `count` consecutive records from `b`, which must be exactly
/// `count * RECORD_BYTES` long.
pub fn decode_records(b: &[u8], count: usize) -> Option<Vec<MachineHourRecord>> {
    if b.len() != count.checked_mul(RECORD_BYTES)? {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for chunk in b.chunks_exact(RECORD_BYTES) {
        out.push(decode_record(chunk)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> MachineHourRecord {
        // Every field holds a distinct value, so a decode that reads a
        // field at the wrong offset fails the round trip.
        let f = |k: u64| (seed.wrapping_mul(k) % 1000) as f64 / 8.0 + k as f64 * 1e4;
        MachineHourRecord {
            machine: MachineId((seed % 5000) as u32),
            group: GroupKey::new(SkuId((seed % 300) as u16), ScId((seed % 7) as u8)),
            hour: seed.wrapping_mul(3600),
            metrics: MetricValues::from_array(std::array::from_fn(|i| f(i as u64 + 1))),
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        for seed in [0u64, 1, 42, 86_016, u64::MAX] {
            let r = sample(seed);
            let mut buf = Vec::new();
            encode_record(&r, &mut buf);
            assert_eq!(buf.len(), RECORD_BYTES);
            let back = decode_record(&buf).expect("decodes");
            assert_eq!(back, r);
        }
    }

    #[test]
    fn short_buffer_is_none_not_panic() {
        let r = sample(9);
        let mut buf = Vec::new();
        encode_record(&r, &mut buf);
        for cut in [0, 1, 6, 14, 126] {
            assert!(decode_record(buf.get(..cut).unwrap_or(&[])).is_none());
        }
    }

    #[test]
    fn batch_roundtrip_and_length_check() {
        let rs: Vec<_> = (0..17).map(|i| sample(i * 97 + 1)).collect();
        let mut buf = Vec::new();
        for r in &rs {
            encode_record(r, &mut buf);
        }
        assert_eq!(decode_records(&buf, rs.len()).as_deref(), Some(rs.as_slice()));
        assert!(decode_records(&buf, rs.len() + 1).is_none());
        buf.pop();
        assert!(decode_records(&buf, rs.len()).is_none());
    }
}
