//! Property-based tests: the storage stack must behave like a flat
//! byte array regardless of pool capacity, eviction pattern, or backing.

use cf_storage::checksum::crc32;
use cf_storage::compress::{self, ColKind, ColSpec, DecodeError};
use cf_storage::{KvRecord, PageId, RecordFile, StorageConfig, StorageEngine, PAGE_SIZE};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

#[derive(Debug, Clone)]
enum Op {
    Write { page: usize, tag: u8 },
    Read { page: usize },
    ClearCache,
}

fn op(pages: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..pages, any::<u8>()).prop_map(|(page, tag)| Op::Write { page, tag }),
        3 => (0..pages).prop_map(|page| Op::Read { page }),
        1 => Just(Op::ClearCache),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pool_is_transparent(
        pool_pages in 1usize..8,
        ops in prop::collection::vec(op(12), 1..80),
    ) {
        let engine = StorageEngine::new(StorageConfig {
            pool_pages,
            ..Default::default()
        });
        let ids: Vec<PageId> = (0..12).map(|_| engine.allocate_page().expect("allocate")).collect();
        // Model: expected first byte per page.
        let mut model = [0u8; 12];
        for op in ops {
            match op {
                Op::Write { page, tag } => {
                    let mut buf = [0u8; PAGE_SIZE];
                    buf[0] = tag;
                    buf[PAGE_SIZE - 1] = tag.wrapping_add(1);
                    engine.write_page(ids[page], &buf).expect("write");
                    model[page] = tag;
                }
                Op::Read { page } => {
                    let (a, b) = engine.with_page(ids[page], |p| (p[0], p[PAGE_SIZE - 1])).expect("read");
                    prop_assert_eq!(a, model[page]);
                    let want_b = if model[page] == 0 && b == 0 {
                        0
                    } else {
                        model[page].wrapping_add(1)
                    };
                    prop_assert_eq!(b, want_b);
                }
                Op::ClearCache => engine.clear_cache(),
            }
        }
        // Cold re-read of every page matches the model.
        engine.clear_cache();
        for (i, &id) in ids.iter().enumerate() {
            let a = engine.with_page(id, |p| p[0]).expect("read");
            prop_assert_eq!(a, model[i]);
        }
    }

    #[test]
    fn record_file_random_access(
        len in 1usize..1500,
        probes in prop::collection::vec(any::<usize>(), 1..30),
        puts in prop::collection::vec((any::<usize>(), any::<u64>()), 0..10),
    ) {
        let engine = StorageEngine::in_memory();
        let records: Vec<KvRecord> = (0..len)
            .map(|i| KvRecord { key: i as u64, value: -(i as f64) })
            .collect();
        let file = RecordFile::create(&engine, records).expect("create");
        let mut model: Vec<u64> = (0..len as u64).collect();

        for (idx, key) in puts {
            let idx = idx % len;
            file.put(&engine, idx, &KvRecord { key, value: 0.0 }).expect("put");
            model[idx] = key;
        }
        for probe in probes {
            let idx = probe % len;
            prop_assert_eq!(file.get(&engine, idx).expect("get").key, model[idx]);
        }
        // Range scans agree with point reads after updates.
        let mid = len / 2;
        let scanned = file.read_range(&engine, 0..mid).expect("scan");
        for (i, r) in scanned.iter().enumerate() {
            prop_assert_eq!(r.key, model[i]);
        }
    }

    #[test]
    fn io_counters_are_monotone(nreads in 1usize..40, pool_pages in 1usize..6) {
        let engine = StorageEngine::new(StorageConfig {
            pool_pages,
            ..Default::default()
        });
        let ids: Vec<PageId> = (0..10).map(|_| engine.allocate_page().expect("allocate")).collect();
        let mut last = engine.io_stats();
        for i in 0..nreads {
            engine.with_page(ids[i % ids.len()], |_| ()).expect("read");
            let now = engine.io_stats();
            prop_assert!(now.logical_reads() == last.logical_reads() + 1);
            prop_assert!(now.disk_reads >= last.disk_reads);
            prop_assert!(now.disk_reads - last.disk_reads <= 1);
            last = now;
        }
        // Misses never exceed logical reads.
        prop_assert!(last.pool_misses <= last.logical_reads());
    }
}

// ---------------------------------------------------------------------
// Checksum and page-decode references
// ---------------------------------------------------------------------

/// The textbook bytewise CRC-32 (IEEE, reflected 0xEDB88320), one bit at
/// a time: the oracle the sliced `crc32` must equal on every input.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// A record-at-a-time decoder of the compressed page format with the
/// trimmed XOR assembled byte by byte into a zeroed word and rotations
/// restored through a copy of the record: the oracle for `decode_page`'s
/// batched, word-load decoder. Same checks in the same order, so it must
/// return the same bytes or the same `DecodeError` on every page.
fn decode_reference(
    cols: &[ColSpec],
    groups: &[Vec<usize>],
    rec_size: usize,
    page: &[u8],
    out: &mut [u8],
) -> Result<usize, DecodeError> {
    let count = compress::page_count(page)?;
    let payload = usize::from(u16::from_le_bytes([page[4], page[5]]));
    if out.len() < count * rec_size {
        return Err(DecodeError::BadCount(count));
    }
    let buf = &page[compress::HEADER_LEN..compress::HEADER_LEN + payload];
    let tags_len = if groups.is_empty() {
        0
    } else {
        count.div_ceil(4)
    };
    let tags = buf.get(..tags_len).ok_or(DecodeError::TruncatedPayload)?;
    let mut pos = tags_len;
    for (ci, c) in cols.iter().enumerate() {
        let w = c.kind.raw_width();
        let raw = buf.get(pos..pos + w).ok_or(DecodeError::TruncatedPayload)?;
        out[c.offset..c.offset + w].copy_from_slice(raw);
        pos += w;
        let mut le = [0u8; 8];
        le[..w].copy_from_slice(raw);
        let mut prev = u64::from_le_bytes(le);
        for i in 1..count {
            let slot = i * rec_size + c.offset;
            match c.kind {
                ColKind::Delta4 => {
                    let (mut z, mut shift) = (0u32, 0u32);
                    loop {
                        let b = *buf.get(pos).ok_or(DecodeError::TruncatedPayload)?;
                        pos += 1;
                        z |= u32::from(b & 0x7F) << shift;
                        if b & 0x80 == 0 {
                            break;
                        }
                        shift += 7;
                        if shift >= 35 {
                            return Err(DecodeError::BadVarint);
                        }
                    }
                    let d = ((z >> 1) as i32) ^ -((z & 1) as i32);
                    prev = u64::from((prev as u32).wrapping_add(d as u32));
                    out[slot..slot + 4].copy_from_slice(&(prev as u32).to_le_bytes());
                }
                ColKind::Xor8 => {
                    let ctrl = *buf.get(pos).ok_or(DecodeError::TruncatedPayload)?;
                    let sig = usize::from(ctrl & 0x0F);
                    let hi = usize::from(ctrl >> 4);
                    prev = if sig == 0 {
                        if hi > ci || cols[hi].kind != ColKind::Xor8 {
                            return Err(DecodeError::BadControlByte(ctrl));
                        }
                        pos += 1;
                        let from = (i - 1) * rec_size + cols[hi].offset;
                        u64::from_le_bytes(out[from..from + 8].try_into().expect("8 bytes"))
                    } else {
                        if hi + sig > 8 {
                            return Err(DecodeError::BadControlByte(ctrl));
                        }
                        let mut x = [0u8; 8];
                        for k in 0..sig {
                            x[hi + k] =
                                *buf.get(pos + 1 + k).ok_or(DecodeError::TruncatedPayload)?;
                        }
                        pos += 1 + sig;
                        prev ^ u64::from_le_bytes(x)
                    };
                    out[slot..slot + 8].copy_from_slice(&prev.to_le_bytes());
                }
            }
        }
    }
    if pos != payload {
        return Err(DecodeError::PayloadLenMismatch {
            declared: payload,
            consumed: pos,
        });
    }
    let n_units = groups.len();
    for i in (0..count).filter(|_| n_units > 0) {
        let tag = (tags[i / 4] >> ((i % 4) * 2)) & 0b11;
        let r = usize::from(tag);
        if r == 0 {
            continue;
        }
        if r >= n_units {
            return Err(DecodeError::BadRotationTag(tag));
        }
        let rec = &mut out[i * rec_size..(i + 1) * rec_size];
        let stored = rec.to_vec();
        for (j, unit) in groups.iter().enumerate() {
            let orig = &groups[(j + r) % n_units];
            for (m, &perm_col) in unit.iter().enumerate() {
                let w = cols[perm_col].kind.raw_width();
                let (from, to) = (cols[perm_col].offset, cols[orig[m]].offset);
                rec[to..to + w].copy_from_slice(&stored[from..from + w]);
            }
        }
    }
    Ok(count)
}

fn col(offset: usize, kind: ColKind) -> ColSpec {
    ColSpec { offset, kind }
}

/// Column layouts for the decoder tests: `(columns, rotation groups,
/// record size)`. They put an `Xor8` column last in the payload (its
/// final value ends the payload), before a `Delta4` column (a few bytes
/// follow it), next to a referencing `Xor8` column, and inside rotation
/// units of one and of two columns.
fn layouts() -> Vec<(Vec<ColSpec>, Vec<Vec<usize>>, usize)> {
    use ColKind::{Delta4 as D, Xor8 as X};
    vec![
        (vec![col(0, X)], vec![], 8),
        (vec![col(0, X), col(8, D)], vec![], 12),
        (vec![col(0, D), col(4, X), col(12, X)], vec![], 20),
        (
            vec![col(0, X), col(8, X), col(16, X), col(24, D)],
            vec![vec![0], vec![1], vec![2]],
            28,
        ),
        (
            (0..6).map(|k| col(8 * k, X)).collect(),
            vec![vec![0, 1], vec![2, 3], vec![4, 5]],
            48,
        ),
    ]
}

/// Every trimmed-XOR control the format allows: `(trail, sig)` with
/// `sig >= 1` and `trail + sig <= 8`.
fn xor_controls() -> Vec<(usize, usize)> {
    (1..=8usize)
        .flat_map(|sig| (0..=8 - sig).map(move |trail| (trail, sig)))
        .collect()
}

/// Appends one trimmed XOR value under `(trail, sig)` with random
/// significant bytes.
fn push_trimmed(payload: &mut Vec<u8>, rng: &mut StdRng, trail: usize, sig: usize) {
    payload.push(((trail as u8) << 4) | sig as u8);
    payload.extend((0..sig).map(|_| rng.gen::<u8>()));
}

/// Appends `v` as a LEB128 varint.
fn push_varint(payload: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        payload.push((v as u8) | 0x80);
        v >>= 7;
    }
    payload.push(v as u8);
}

/// Encodes one column of `count` records in the wire format. `last`,
/// when set, is the control of the column's final record.
fn push_column(
    payload: &mut Vec<u8>,
    rng: &mut StdRng,
    cols: &[ColSpec],
    ci: usize,
    count: usize,
    last: Option<(usize, usize)>,
) {
    let controls = xor_controls();
    match cols[ci].kind {
        ColKind::Delta4 => {
            payload.extend((0..4).map(|_| rng.gen::<u8>()));
            for _ in 1..count {
                let bits = rng.gen_range(0u32..33);
                push_varint(payload, rng.gen::<u32>() >> (32 - bits).min(31));
            }
        }
        ColKind::Xor8 => {
            payload.extend((0..8).map(|_| rng.gen::<u8>()));
            for i in 1..count {
                if let (Some((trail, sig)), true) = (last, i + 1 == count) {
                    push_trimmed(payload, rng, trail, sig);
                } else if rng.gen_bool(0.25) {
                    // Reference to an earlier Xor8 column of the previous
                    // record.
                    let refs: Vec<usize> = (0..=ci)
                        .filter(|&j| cols[j].kind == ColKind::Xor8)
                        .collect();
                    payload.push((refs[rng.gen_range(0..refs.len())] as u8) << 4);
                } else {
                    let (trail, sig) = controls[rng.gen_range(0..controls.len())];
                    push_trimmed(payload, rng, trail, sig);
                }
            }
        }
    }
}

/// A well-formed page: header, rotation tags (rotation values drawn
/// from the units the layout has), then each column, then `gap` junk
/// bytes counted in the declared payload (so a non-zero gap decodes to
/// `PayloadLenMismatch`).
fn build_page(
    rng: &mut StdRng,
    cols: &[ColSpec],
    groups: &[Vec<usize>],
    count: usize,
    last: Option<(usize, usize)>,
    gap: usize,
) -> Vec<u8> {
    let mut payload = Vec::new();
    if !groups.is_empty() {
        let mut tags = vec![0u8; count.div_ceil(4)];
        for i in 0..count {
            let r = rng.gen_range(0..groups.len()) as u8;
            tags[i / 4] |= r << ((i % 4) * 2);
        }
        payload.extend(tags);
    }
    for ci in 0..cols.len() {
        push_column(&mut payload, rng, cols, ci, count, last);
    }
    payload.extend((0..gap).map(|_| rng.gen::<u8>()));
    let mut page = vec![0u8; PAGE_SIZE];
    page[0..2].copy_from_slice(&compress::PAGE_MAGIC.to_le_bytes());
    page[2..4].copy_from_slice(&(count as u16).to_le_bytes());
    page[4..6].copy_from_slice(&(payload.len() as u16).to_le_bytes());
    page[compress::HEADER_LEN..compress::HEADER_LEN + payload.len()].copy_from_slice(&payload);
    page
}

/// Decodes `page` with both decoders from identical output buffers and
/// asserts the same result — and, on success, the same record bytes.
fn assert_decodes_like_reference(
    cols: &[ColSpec],
    groups: &[Vec<usize>],
    rec_size: usize,
    page: &[u8],
    out_len: usize,
) {
    let mut got = vec![0u8; out_len];
    let mut want = vec![0u8; out_len];
    let g = compress::decode_page(cols, groups, rec_size, page, &mut got);
    let w = decode_reference(cols, groups, rec_size, page, &mut want);
    assert_eq!(g, w, "decode result differs from the bytewise reference");
    if w.is_ok() {
        assert_eq!(
            got, want,
            "decoded records differ from the bytewise reference"
        );
    }
}

#[test]
fn every_trimmed_control_ending_near_the_payload_end_decodes_like_reference() {
    // The word-load path reads 8 bytes past a control; the byte path
    // takes over within 8 bytes of the payload end. Put each allowed
    // `(trail, sig)` as the final value, 0–8 bytes before the end (via
    // junk or a following Delta4 column), with the payload also cut
    // short by 1–9 bytes so truncation errors are compared too.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for (cols, groups, rec_size) in layouts() {
        for (trail, sig) in xor_controls() {
            for gap in 0..=8 {
                for count in [1, 2, 3, 9, 17] {
                    let page = build_page(&mut rng, &cols, &groups, count, Some((trail, sig)), gap);
                    assert_decodes_like_reference(
                        &cols,
                        &groups,
                        rec_size,
                        &page,
                        count * rec_size,
                    );
                    let payload = usize::from(u16::from_le_bytes([page[4], page[5]]));
                    for cut in 1..=9.min(payload) {
                        let mut short = page.clone();
                        short[4..6].copy_from_slice(&((payload - cut) as u16).to_le_bytes());
                        assert_decodes_like_reference(
                            &cols,
                            &groups,
                            rec_size,
                            &short,
                            count * rec_size,
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn crc32_matches_bytewise_reference(
        len in 0usize..=4200,
        offset in 0usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..offset + len).map(|_| rng.gen::<u8>()).collect();
        let bytes = &data[offset..];
        prop_assert_eq!(crc32(bytes), crc32_reference(bytes), "len {} offset {}", len, offset);
    }

    #[test]
    fn decode_page_matches_bytewise_reference(
        layout in 0usize..5,
        count in 1usize..40,
        gap in 0usize..=8,
        mutation in 0u8..4,
        seed in any::<u64>(),
    ) {
        let (cols, groups, rec_size) = layouts().swap_remove(layout);
        let mut rng = StdRng::seed_from_u64(seed);
        let gap = if rng.gen_bool(0.5) { 0 } else { gap };
        let mut page = build_page(&mut rng, &cols, &groups, count, None, gap);
        let payload = usize::from(u16::from_le_bytes([page[4], page[5]]));
        match mutation {
            // Declared payload cut short.
            1 => {
                let cut = rng.gen_range(1..=payload.min(12));
                page[4..6].copy_from_slice(&((payload - cut) as u16).to_le_bytes());
            }
            // One flipped bit anywhere in header or payload.
            2 => {
                let bit = rng.gen_range(0..(compress::HEADER_LEN + payload) * 8);
                page[bit / 8] ^= 1 << (bit % 8);
            }
            // A few random bytes overwritten in the payload.
            3 => {
                for _ in 0..rng.gen_range(1usize..4) {
                    let at = compress::HEADER_LEN + rng.gen_range(0..payload);
                    page[at] = rng.gen::<u8>();
                }
            }
            _ => {}
        }
        // The header count may have been corrupted upward: size the
        // output buffers for what the page now claims (and sometimes
        // one record short, which must be `BadCount` from both).
        let claimed = usize::from(u16::from_le_bytes([page[2], page[3]])).max(1);
        let out_len = if rng.gen_bool(0.1) { (claimed - 1) * rec_size } else { claimed * rec_size };
        assert_decodes_like_reference(&cols, &groups, rec_size, &page, out_len);
    }
}
