//! CRC-32 (IEEE 802.3 polynomial), as used by gzip, computed by
//! slicing-by-8 (Kounavis & Berry, 2005): eight 256-entry tables let the
//! hasher fold eight input bytes per step with two `u32` loads, instead of
//! one table lookup per byte.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
/// contribution of byte `i` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
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
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data` (full-buffer convenience).
pub fn crc32(data: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(data);
    hasher.finalize()
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let a = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let b = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(a & 0xff) as usize]
                ^ t[6][((a >> 8) & 0xff) as usize]
                ^ t[5][((a >> 16) & 0xff) as usize]
                ^ t[4][(a >> 24) as usize]
                ^ t[3][(b & 0xff) as usize]
                ^ t[2][((b >> 8) & 0xff) as usize]
                ^ t[1][((b >> 16) & 0xff) as usize]
                ^ t[0][(b >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// Final checksum value. The hasher stays usable: further `update`s
    /// continue the same stream.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference, independent of the lookup tables.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn matches_reference_at_every_short_length() {
        let data = noise(7, 64);
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
        // Unaligned starts exercise every tail length against the same
        // 8-byte stride.
        for start in 1..8 {
            assert_eq!(crc32(&data[start..]), reference(&data[start..]));
        }
    }

    #[test]
    fn matches_reference_on_large_buffers() {
        for (seed, len) in [(1u64, 4096usize), (2, 65_537), (3, 1 << 20)] {
            let data = noise(seed, len);
            assert_eq!(crc32(&data), reference(&data), "seed {seed} len {len}");
        }
        assert_eq!(crc32(&[0u8; 1000]), reference(&[0u8; 1000]));
        assert_eq!(crc32(&[0xffu8; 1003]), reference(&[0xffu8; 1003]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(&data));
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        let data = noise(11, 200);
        let whole = reference(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split {split}");
        }
        // Three-way splits, none a multiple of 8 apart.
        for a in [1, 3, 7, 9, 13] {
            for b in [a + 1, a + 5, a + 11, a + 17] {
                let mut h = Crc32::new();
                h.update(&data[..a]);
                h.update(&data[a..b]);
                h.update(&data[b..]);
                assert_eq!(h.finalize(), whole, "splits {a},{b}");
            }
        }
    }

    #[test]
    fn finalize_then_update_continues_the_stream() {
        let data = noise(5, 100);
        let mut h = Crc32::new();
        h.update(&data[..96]);
        assert_eq!(h.finalize(), reference(&data[..96]));
        h.update(&data[96..]);
        assert_eq!(h.finalize(), reference(&data));
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
    }
}
