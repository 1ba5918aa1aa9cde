//! Per-page checksums.
//!
//! Every page written through [`crate::DiskManager`] gets an 8-byte
//! sidecar entry: a 32-bit magic tag plus the CRC-32 (IEEE polynomial)
//! of the 4 KiB page image. The entry lives *beside* the page — in a
//! parallel vector for the in-memory backing, in a `<path>.crc` sidecar
//! file for the file backing — rather than in a page trailer, so the
//! full [`crate::PAGE_SIZE`] payload stays available to records and
//! tree nodes and the paper's page-capacity constants (256 records or
//! 170 R-tree entries per 4 KiB page) are unchanged.
//!
//! Verification happens on **physical reads only**: buffer-pool hits
//! serve already-verified frames, so the hot query path pays nothing.

use crate::disk::{PageBuf, PageId};
use crate::error::{CfError, CfResult};

/// Magic tag stored in the high half of a sidecar entry ("CFPG").
pub const ENTRY_MAGIC: u32 = 0x4346_5047;

/// Size in bytes of one sidecar entry.
pub const ENTRY_SIZE: usize = 8;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) slicing-by-16
/// tables, built at compile time (16 KiB). `CRC_TABLES[0]` is the classic
/// bytewise table; `CRC_TABLES[k][b]` is the CRC state contributed by
/// byte `b` followed by `k` zero bytes, so one 16-byte block folds into
/// the state with 16 independent lookups instead of a 16-step chain.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
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
};

/// CRC-32 of `bytes` (IEEE: initial state and final XOR `0xFFFF_FFFF`).
///
/// Slicing-by-16: each 16-byte block is one round of table lookups; the
/// bytewise loop handles only the final `len % 16` bytes. The value is
/// the same as the textbook bytewise CRC for every input, so sidecar,
/// catalog and freelist checksums written by either verify under both.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (blocks, rest) = bytes.as_chunks::<16>();
    for b in blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
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
    for &b in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The sidecar entry for a page image: `magic << 32 | crc32(page)`.
pub fn page_entry(page: &PageBuf) -> u64 {
    ((ENTRY_MAGIC as u64) << 32) | crc32(page) as u64
}

/// The entry of an all-zero page (freshly allocated, never written).
pub fn zero_page_entry() -> u64 {
    // CRC of 4096 zero bytes; computed once.
    static ZERO: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *ZERO.get_or_init(|| page_entry(&[0u8; crate::PAGE_SIZE]))
}

/// Verifies a page image against its sidecar `entry`, reporting
/// mismatches as [`CfError::Corrupt`] carrying the page id.
pub fn verify_page(page: &PageBuf, entry: u64, id: PageId) -> CfResult<()> {
    let magic = (entry >> 32) as u32;
    if magic != ENTRY_MAGIC {
        return Err(CfError::corrupt(
            id,
            format!("missing or invalid checksum entry (magic {magic:#010x}, expected {ENTRY_MAGIC:#010x})"),
        ));
    }
    let stored = entry as u32;
    let computed = crc32(page);
    if stored != computed {
        return Err(CfError::corrupt(
            id,
            format!("page checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_golden_values_of_page_sized_inputs() {
        // Values of the IEEE CRC-32 as every zlib computes it; pages,
        // catalog slots and freelist superblocks on disk carry these.
        assert_eq!(crc32(&[0u8; PAGE_SIZE]), 0xC71C_0011);
        assert_eq!(zero_page_entry(), 0x4346_5047_C71C_0011);
        let ramp: Vec<u8> = (0..16).flat_map(|_| 0..=255u8).collect();
        assert_eq!(ramp.len(), PAGE_SIZE);
        assert_eq!(crc32(&ramp), 0xA291_2082);
    }

    #[test]
    fn verify_accepts_matching_entry() {
        let mut page = [0u8; PAGE_SIZE];
        page[17] = 0xAB;
        let entry = page_entry(&page);
        assert!(verify_page(&page, entry, PageId(3)).is_ok());
    }

    #[test]
    fn verify_rejects_flipped_bit_with_page_context() {
        let mut page = [0u8; PAGE_SIZE];
        page[17] = 0xAB;
        let entry = page_entry(&page);
        page[17] ^= 0x01;
        let err = verify_page(&page, entry, PageId(9)).expect_err("must detect corruption");
        assert!(err.is_corrupt());
        assert_eq!(err.page(), Some(PageId(9)));
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn verify_rejects_missing_entry() {
        let page = [0u8; PAGE_SIZE];
        let err = verify_page(&page, 0, PageId(1)).expect_err("zero entry has no magic");
        assert!(err.to_string().contains("missing or invalid"), "{err}");
    }

    #[test]
    fn zero_page_entry_matches_fresh_page() {
        let page = [0u8; PAGE_SIZE];
        assert_eq!(zero_page_entry(), page_entry(&page));
        assert!(verify_page(&page, zero_page_entry(), PageId(0)).is_ok());
    }
}
