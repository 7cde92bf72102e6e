//! CRC-32 (IEEE 802.3 polynomial), used to checksum WAL frames and
//! image records.
//!
//! Implemented from scratch (table-driven, eight bytes per step: the
//! "slicing-by-8" tables) so the workspace stays within its approved
//! dependency set. Every checkpoint checksums the whole image twice —
//! once as it reads the old records, once as it writes the new — so a
//! byte-at-a-time loop there costs a visible share of a write-heavy
//! workload's CPU.

/// `TABLES[0]` is the byte-at-a-time table for the reflected polynomial
/// 0xEDB88320; `TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for i in 0..256 {
            for k in 1..8 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32 of `data` (init 0xFFFFFFFF, final xor 0xFFFFFFFF — the
/// standard zlib/ethernet parameterization).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// The CRC-32 of `a` followed by `data`, given `crc == crc32(a)`: a
/// checksum over pieces that are never laid end to end in memory.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes(word[..4].try_into().expect("four bytes"));
        let hi = u32::from_le_bytes(word[4..].try_into().expect("four bytes"));
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The eight-byte steps agree with the byte-at-a-time definition at
    /// every length and alignment.
    #[test]
    fn matches_the_bytewise_definition() {
        let bytewise = |data: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        };
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + i / 3) as u8).collect();
        for start in 0..8 {
            for end in start..data.len() {
                assert_eq!(crc32(&data[start..end]), bytewise(&data[start..end]));
            }
        }
    }

    #[test]
    fn extending_equals_checksumming_the_whole() {
        let data = b"The quick brown fox jumps over the lazy dog";
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_extend(crc32(a), b), crc32(data), "cut at {cut}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"hello world, this is a wal frame".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {byte}.{bit} undetected");
            }
        }
    }
}
