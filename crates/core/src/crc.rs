//! CRC-32 (IEEE 802.3, the polynomial used by zip/gzip/PNG), implemented
//! with compile-time lookup tables so the checksums need no external crate.
//! Streaming via [`Crc32`], one-shot via [`crc32`]. Every checksum in the
//! workspace — WAL frames and their stream chain, archive frames,
//! checkpoints — is this one kernel.
//!
//! The kernel is slice-by-16: `TABLES[k][b]` is the CRC register
//! contribution of byte `b` followed by `k` zero bytes, so sixteen input
//! bytes fold into the register with sixteen independent lookups per step
//! instead of a dependent chain of sixteen. `TABLES[0]` is the classic
//! byte-at-a-time table, and the last 0–15 bytes of an input still go
//! through it one by one. Slicing is only a regrouping of the same
//! arithmetic over GF(2): the register after any input equals the bytewise
//! loop's, so every stored checksum, and with it the WAL, archive and
//! checkpoint wire formats, is unchanged.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // One more zero byte after `b`: shift the register a byte and fold the
    // byte shifted out back in through the base table.
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// 16 KiB of read-only tables, built at compile time.
static TABLES: [[u32; 256]; 16] = build_tables();

/// A streaming CRC-32 hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let (blocks, tail) = bytes.as_chunks::<16>();
        for b in blocks {
            // The register folds into the first four bytes; byte `j` of the
            // block is followed by `15 - j` more, hence table `15 - j`.
            let w0 = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][w0 as u8 as usize]
                ^ t[14][(w0 >> 8) as u8 as usize]
                ^ t[13][(w0 >> 16) as u8 as usize]
                ^ t[12][(w0 >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in tail {
            crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop over the base table: the reference every
    /// sliced result must equal.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// `len` fixed pseudo-random bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_answer() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every length from empty to four whole blocks, at every alignment of
    /// a block: the sliced kernel equals the bytewise reference.
    #[test]
    fn slice_by_16_equals_the_bytewise_reference() {
        let data = noise(64 + 16);
        for start in 0..16 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Feeding a 1 MiB buffer in pieces cut at random points gives the
        /// one-shot value, which is the reference's.
        #[test]
        fn streaming_over_random_splits_equals_oneshot(
            cuts in proptest::collection::vec(0usize..(1 << 20), 0..24),
        ) {
            let data = noise(1 << 20);
            let mut cuts = cuts;
            cuts.sort_unstable();
            let mut h = Crc32::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                h.update(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(h.finish(), crc32(&data));
            prop_assert_eq!(crc32(&data), bytewise(&data));
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"bitemporal archive payload".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() {
            data[i] ^= 0x01;
            assert_ne!(crc32(&data), clean, "flip at byte {i} undetected");
            data[i] ^= 0x01;
        }
    }
}
