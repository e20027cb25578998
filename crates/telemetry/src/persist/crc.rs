//! CRC-32 (IEEE 802.3 polynomial, the zlib/`crc32fast` convention) used
//! to checksum WAL frames and segment sections.
//!
//! Implemented as slicing-by-eight: eight 256-entry tables consumed 8
//! bytes per step, built once in a `const` context so the whole thing is
//! baked into rodata. At segment sizes (tens of MB) the difference
//! against the classic 1-byte table loop is the difference between a
//! checksum that hides inside file-read time and one that dominates
//! recovery.
//
// kea-lint: allow-file(index-in-library) — fixed-shape [8][256] tables
// indexed by u8-derived positions; every index is structurally < 256 and
// the table dimensions are compile-time constants.

/// The CRC-32 polynomial (reflected form).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-eight lookup tables. `TABLES[0]` is the classic byte
/// table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            k += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = tables[t - 1][b];
            tables[t][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 of `data` (standard init/final xor, matching zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends `prev`, the CRC-32 of some bytes `a`, over `data`: the
/// result is the CRC-32 of `a` followed by `data` (zlib's
/// `crc32(prev, buf, len)` convention), and `crc32_update(0, data)` is
/// `crc32(data)`. A segment load checksums each section chunk by chunk
/// this way, the running CRC threaded through the chunks in file order,
/// so no buffer ever holds a whole section.
pub fn crc32_update(prev: u32, data: &[u8]) -> u32 {
    let mut crc = !prev;
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        // The low half is folded into the running CRC, the high half is
        // independent; eight table lookups advance eight bytes.
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][((lo >> 24) & 0xFF) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][((hi >> 24) & 0xFF) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference single-byte implementation, for cross-checking the
    /// sliced loop.
    fn crc32_simple(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn update_over_any_split_equals_one_pass() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i.wrapping_mul(197) >> 3) as u8).collect();
        let whole = crc32(&data);
        for cut in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), whole, "split at {cut}");
        }
        let chunked = data.chunks(64).fold(0, crc32_update);
        assert_eq!(chunked, whole);
        assert_eq!(crc32_update(whole, b""), whole);
    }

    #[test]
    fn sliced_equals_simple_on_all_alignments() {
        let data: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(131)) as u8).collect();
        for start in 0..9 {
            for end in [start, start + 1, start + 7, start + 8, start + 9, data.len()] {
                let slice = &data[start..end.max(start)];
                assert_eq!(crc32(slice), crc32_simple(slice), "at [{start}..{end}]");
            }
        }
    }
}
