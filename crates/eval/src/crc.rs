//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) for APT file integrity.
//!
//! Format v2 of the intermediate APT files stamps every record frame and
//! the file header with a CRC so corruption is detected at record
//! granularity ([`AptError::Checksum`](crate::aptfile::AptError::Checksum))
//! instead of being decoded as garbage attribute values. CRC-32 detects
//! all single-bit and single-byte errors and all burst errors up to 32
//! bits — exactly the failure modes a torn write or flipped disk byte
//! produces. No external dependency: the tables are built at compile time.
//!
//! The checksum is computed slicing-by-8: eight tables, where
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, fold
//! eight input bytes per step with eight independent lookups instead of
//! eight dependent ones. The bytes that do not fill a step go through
//! `TABLES[0]` one at a time, the classic bytewise loop.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (final value, standard init/xor-out).
pub fn crc32(bytes: &[u8]) -> u32 {
    update(0, bytes)
}

/// Continue a CRC-32: `update(crc32(a), b) == crc32(a ++ b)`.
///
/// A durable [`AptWriter`](crate::aptfile::AptWriter) uses this to keep
/// a running checksum of every framed body byte it emits, so a
/// whole-file checksum is available at
/// [`finish`](crate::aptfile::AptWriter::finish) time without a second
/// read.
pub fn update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !crc;
    let mut steps = bytes.chunks_exact(8);
    for s in &mut steps {
        let lo = c ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        let hi = u32::from_le_bytes([s[4], s[5], s[6], s[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in steps.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop: the reference the sliced one must match.
    fn reference(crc: u32, bytes: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Deterministic bytes that exercise every table index.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn matches_the_standard_check_value() {
        // The universal CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        let buf = noise(1024 + 16);
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), reference(0, s), "start {} len {}", start, len);
                assert_eq!(
                    update(0xDEAD_BEEF, s),
                    reference(0xDEAD_BEEF, s),
                    "start {} len {}",
                    start,
                    len
                );
            }
        }
    }

    #[test]
    fn update_chains_like_concatenation() {
        let whole = crc32(b"hello, world");
        let chained = update(crc32(b"hello, "), b"world");
        assert_eq!(whole, chained);
        let buf = noise(300);
        let whole = crc32(&buf);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(update(crc32(a), b), whole, "split at {}", split);
        }
    }

    #[test]
    fn single_byte_flips_always_change_the_crc() {
        let base = b"the quick brown fox jumps over the lazy dog";
        let reference = crc32(base);
        for i in 0..base.len() {
            let mut corrupt = base.to_vec();
            corrupt[i] ^= 0xFF;
            assert_ne!(crc32(&corrupt), reference, "flip at {} undetected", i);
        }
    }
}
