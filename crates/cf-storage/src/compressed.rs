//! Compressed record files and the codec-dispatching [`CellFile`].
//!
//! [`CompressedRecordFile`] is the delta/varint sibling of
//! [`crate::RecordFile`]: records are packed into variable-fill pages by
//! the [`crate::compress`] codec, with a trailing page directory mapping
//! each data page to the index of its first record. Hilbert-ordered cell
//! records typically fit 3–6× more per page, which multiplies the
//! paper's `P = L + E[|q|]` page count down by the same factor.
//!
//! Layout of a file spanning `data_pages + dir_pages` consecutive pages:
//!
//! ```text
//! [ data page 0 | data page 1 | … | dir page 0 | … ]
//! ```
//!
//! Directory pages hold one little-endian `u32` per data page — the
//! record index where that page starts — and are read once at
//! create/open into `page_starts`; queries touch only data pages.
//!
//! Range scans decode whole pages into a reusable per-thread scratch
//! buffer (the same no-allocation discipline as the query scratch
//! path), so the hot loop performs no heap allocation after warm-up.
//!
//! This file decodes on-disk bytes and is covered by the CI grep gate:
//! corruption surfaces as [`CfError::Corrupt`], never a panic.
//! (Caller-contract violations — an index or range past `len` — remain
//! `assert!`s, as in [`crate::RecordFile`].)

use crate::compress::{self, decode_page, ColSpec, PageEncoder};
use crate::{
    codec, CfError, CfResult, PageBuf, PageId, Record, RecordFile, StorageEngine, PAGE_SIZE,
};
use cf_obs::Histogram;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::ops::Range;
use std::time::Instant;

/// Which page codec a record file uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageCodec {
    /// Fixed-slot pages ([`crate::RecordFile`]): `PAGE_SIZE / R::SIZE`
    /// records per page, no decode cost.
    #[default]
    Raw,
    /// Delta/varint columnar pages ([`CompressedRecordFile`]):
    /// variable-fill, more records per page, decoded through a scratch
    /// buffer.
    Compressed,
}

impl PageCodec {
    /// Stable on-disk tag (catalog slot field).
    pub fn tag(self) -> u32 {
        match self {
            PageCodec::Raw => 0,
            PageCodec::Compressed => 1,
        }
    }

    /// Decodes an on-disk tag.
    pub fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            0 => Some(PageCodec::Raw),
            1 => Some(PageCodec::Compressed),
            _ => None,
        }
    }

    /// Parses a CLI/config name (`raw` or `compressed`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "raw" => Some(PageCodec::Raw),
            "compressed" => Some(PageCodec::Compressed),
            _ => None,
        }
    }

    /// The CLI/config name of the codec.
    pub fn name(self) -> &'static str {
        match self {
            PageCodec::Raw => "raw",
            PageCodec::Compressed => "compressed",
        }
    }
}

/// Directory entries per directory page.
const DIR_ENTRIES_PER_PAGE: usize = PAGE_SIZE / 4;

thread_local! {
    /// Per-thread page decode scratch, shared by all compressed files on
    /// the thread. Sized once per (page, record) shape and reused — the
    /// range-scan hot path performs no allocation after warm-up.
    static DECODE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A record file stored in compressed variable-fill pages.
///
/// Mirrors the [`crate::RecordFile`] API; `records_per_page` is a
/// *per-page* quantity here, recovered from the page directory.
#[derive(Debug, Clone)]
pub struct CompressedRecordFile<R: Record> {
    first_page: PageId,
    data_pages: usize,
    len: usize,
    /// Record index where each data page starts (`page_starts[0] == 0`).
    page_starts: Vec<u32>,
    cols: Vec<ColSpec>,
    groups: Vec<Vec<usize>>,
    /// `storage_page_decode` on the engine the file was created or
    /// opened on, resolved once so a page decode takes no registry lock.
    decode_ns: Histogram,
    _marker: PhantomData<R>,
}

impl<R: Record> CompressedRecordFile<R> {
    /// Slack kept free in every page at build time so an in-place
    /// [`CompressedRecordFile::put`] re-encode (which perturbs the
    /// updated record's delta and its successor's) fits. Repeated
    /// updates to one page can still outgrow it — that surfaces as
    /// [`CfError::PageFull`], the cue to repack. Rotation-tagged
    /// records carry one extra worst-case byte each (the 2-bit tag can
    /// open a new tag byte).
    fn reserve(cols: &[ColSpec], groups: &[Vec<usize>]) -> usize {
        2 * (compress::worst_record_bytes(cols) + usize::from(!groups.is_empty()))
    }

    /// The page decode-time histogram of `engine`.
    fn decode_histogram(engine: &StorageEngine) -> Histogram {
        engine.metrics().time_histogram("storage_page_decode", &[])
    }

    /// Directory pages needed for `data_pages` entries.
    fn dir_pages_for(data_pages: usize) -> usize {
        data_pages.div_ceil(DIR_ENTRIES_PER_PAGE).max(1)
    }

    /// Total pages (data + directory) a file with `data_pages` data
    /// pages occupies — lets catalog code validate a file's span
    /// *before* opening it (which reads the directory). Saturates so an
    /// absurd corrupt count still compares, never overflows.
    pub fn total_pages(data_pages: usize) -> usize {
        data_pages.saturating_add(Self::dir_pages_for(data_pages))
    }

    /// Writes `records` in order into freshly allocated consecutive
    /// pages (data run followed by the page directory).
    ///
    /// Pages are encoded greedily: each takes as many records as fit
    /// within `PAGE_SIZE` minus the update reserve. The whole encoded
    /// file is staged in memory before the run is allocated (the page
    /// count is not known up front), then written through the buffered
    /// write-back path like [`crate::RecordFile::create`].
    pub fn create<I>(engine: &StorageEngine, records: I) -> CfResult<Self>
    where
        I: IntoIterator<Item = R>,
    {
        let cols = R::columns();
        let groups = R::column_rotation_groups();
        let reserve = Self::reserve(&cols, &groups);
        let mut enc = PageEncoder::new(cols.clone(), groups.clone());
        let mut pages: Vec<Box<PageBuf>> = Vec::new();
        let mut page_starts: Vec<u32> = Vec::new();
        let mut image = vec![0u8; R::SIZE];
        let mut len = 0usize;
        for r in records {
            r.encode(&mut image);
            if !enc.try_push(&image, reserve) {
                let mut buf: Box<PageBuf> = Box::new([0u8; PAGE_SIZE]);
                page_starts.push((len - enc.count()) as u32);
                enc.flush_into(&mut buf[..]);
                pages.push(buf);
                let ok = enc.try_push(&image, reserve);
                debug_assert!(ok, "first record of a page always fits");
            }
            len += 1;
        }
        if enc.count() > 0 {
            let mut buf: Box<PageBuf> = Box::new([0u8; PAGE_SIZE]);
            page_starts.push((len - enc.count()) as u32);
            enc.flush_into(&mut buf[..]);
            pages.push(buf);
        }
        if pages.is_empty() {
            // Degenerate empty file: one all-zero data page, like the
            // raw layout. Decodes are guarded by `len == 0`.
            pages.push(Box::new([0u8; PAGE_SIZE]));
            page_starts.push(0);
        }

        let data_pages = pages.len();
        let dir_pages = Self::dir_pages_for(data_pages);
        let first_page = engine.allocate_run(data_pages + dir_pages)?;
        for (i, buf) in pages.iter().enumerate() {
            engine.write_page_buffered(PageId(first_page.0 + i as u64), buf)?;
        }
        for d in 0..dir_pages {
            let mut buf: PageBuf = [0u8; PAGE_SIZE];
            let lo = d * DIR_ENTRIES_PER_PAGE;
            let hi = (lo + DIR_ENTRIES_PER_PAGE).min(data_pages);
            for (slot, start) in page_starts[lo..hi].iter().enumerate() {
                codec::put_u32(&mut buf, slot * 4, *start);
            }
            engine.write_page_buffered(PageId(first_page.0 + (data_pages + d) as u64), &buf)?;
        }

        Ok(Self {
            first_page,
            data_pages,
            len,
            page_starts,
            cols,
            groups,
            decode_ns: Self::decode_histogram(engine),
            _marker: PhantomData,
        })
    }

    /// Parallel-create entry point for API parity with
    /// [`crate::RecordFile::create_parallel`]. Compressed encoding is a
    /// sequential delta chain with data-dependent page breaks, so this
    /// delegates to the sequential [`CompressedRecordFile::create`] —
    /// the result is byte-identical by construction.
    pub fn create_parallel(engine: &StorageEngine, records: &[R], _threads: usize) -> CfResult<Self>
    where
        R: Clone,
    {
        Self::create(engine, records.iter().cloned())
    }

    /// Reopens a compressed file from its catalog entry by reading and
    /// validating the page directory.
    ///
    /// # Errors
    ///
    /// Returns [`CfError::Corrupt`] when the directory is inconsistent
    /// (non-zero first start, non-increasing starts, or a start at or
    /// past `len`).
    pub fn open(
        engine: &StorageEngine,
        first_page: PageId,
        len: usize,
        data_pages: usize,
    ) -> CfResult<Self> {
        let cols = R::columns();
        let groups = R::column_rotation_groups();
        let dir_pages = Self::dir_pages_for(data_pages);
        let mut page_starts = Vec::with_capacity(data_pages);
        for d in 0..dir_pages {
            let page_id = PageId(first_page.0 + (data_pages + d) as u64);
            let lo = d * DIR_ENTRIES_PER_PAGE;
            let hi = (lo + DIR_ENTRIES_PER_PAGE).min(data_pages);
            engine.with_page(page_id, |page| {
                for slot in 0..hi - lo {
                    page_starts.push(codec::get_u32(page, slot * 4));
                }
            })?;
        }
        let dir_page = |msg: String| CfError::Corrupt {
            page: Some(PageId(first_page.0 + data_pages as u64)),
            detail: msg,
        };
        if page_starts.first() != Some(&0) {
            return Err(dir_page("page directory does not start at record 0".into()));
        }
        for w in page_starts.windows(2) {
            if w[0] >= w[1] {
                return Err(dir_page(format!(
                    "page directory not strictly increasing: {} then {}",
                    w[0], w[1]
                )));
            }
        }
        if len > 0 {
            if let Some(&last) = page_starts.last() {
                if (last as usize) >= len {
                    return Err(dir_page(format!(
                        "page directory start {last} at or past len {len}"
                    )));
                }
            }
        }
        Ok(Self {
            first_page,
            data_pages,
            len,
            page_starts,
            cols,
            groups,
            decode_ns: Self::decode_histogram(engine),
            _marker: PhantomData,
        })
    }

    /// Number of records in the file.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total pages the file occupies (data + directory).
    pub fn num_pages(&self) -> usize {
        self.data_pages + Self::dir_pages_for(self.data_pages)
    }

    /// Data pages only — the pages query scans touch.
    pub fn data_pages(&self) -> usize {
        self.data_pages
    }

    /// Id of the first page of the file.
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// Mean records per data page.
    pub fn records_per_page(&self) -> f64 {
        self.len as f64 / self.data_pages.max(1) as f64
    }

    /// Data page number (0-based within the file) holding record `idx`.
    fn page_no_of(&self, idx: usize) -> usize {
        self.page_starts.partition_point(|&s| s as usize <= idx) - 1
    }

    /// Record count of data page `page_no` per the directory.
    fn count_of(&self, page_no: usize) -> usize {
        let start = self.page_starts[page_no] as usize;
        let end = self
            .page_starts
            .get(page_no + 1)
            .map_or(self.len, |&s| s as usize);
        end - start
    }

    /// Decodes data page `page_no` into `scratch` (resized to hold the
    /// page's records), validating the decoded count against the page
    /// directory. Observes the decode-time histogram.
    fn decode_page_into(
        &self,
        engine: &StorageEngine,
        page_no: usize,
        scratch: &mut Vec<u8>,
    ) -> CfResult<usize> {
        let expected = self.count_of(page_no);
        scratch.resize(expected * R::SIZE, 0);
        let page_id = PageId(self.first_page.0 + page_no as u64);
        let t0 = Instant::now();
        let decoded = engine
            .with_page(page_id, |page| {
                decode_page(&self.cols, &self.groups, R::SIZE, page, scratch)
            })?
            .map_err(|e| CfError::Corrupt {
                page: Some(page_id),
                detail: format!("compressed page decode: {e}"),
            })?;
        if decoded != expected {
            return Err(CfError::Corrupt {
                page: Some(page_id),
                detail: format!(
                    "compressed page holds {decoded} records, directory says {expected}"
                ),
            });
        }
        self.decode_ns.observe_ns(t0.elapsed().as_nanos() as u64);
        Ok(decoded)
    }

    /// Reads one record.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn get(&self, engine: &StorageEngine, idx: usize) -> CfResult<R> {
        assert!(
            idx < self.len,
            "record {idx} out of bounds (len {})",
            self.len
        );
        let page_no = self.page_no_of(idx);
        let slot = idx - self.page_starts[page_no] as usize;
        DECODE_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            self.decode_page_into(engine, page_no, scratch)?;
            Ok(R::decode(&scratch[slot * R::SIZE..(slot + 1) * R::SIZE]))
        })
    }

    /// Overwrites one record in place by re-encoding its page.
    ///
    /// # Errors
    ///
    /// Returns [`CfError::PageFull`] when the page, re-encoded with the
    /// new record, no longer fits in `PAGE_SIZE` — possible after many
    /// updates concentrated on one page (the build-time reserve absorbs
    /// the first; repacking restores slack).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn put(&self, engine: &StorageEngine, idx: usize, record: &R) -> CfResult<()> {
        assert!(
            idx < self.len,
            "record {idx} out of bounds (len {})",
            self.len
        );
        let page_no = self.page_no_of(idx);
        let slot = idx - self.page_starts[page_no] as usize;
        let page_id = PageId(self.first_page.0 + page_no as u64);
        DECODE_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let count = self.decode_page_into(engine, page_no, scratch)?;
            record.encode(&mut scratch[slot * R::SIZE..(slot + 1) * R::SIZE]);
            let mut enc = PageEncoder::new(self.cols.clone(), self.groups.clone());
            for img in scratch.chunks(R::SIZE).take(count) {
                if !enc.try_push(img, 0) {
                    return Err(CfError::PageFull {
                        page: page_id,
                        records: count,
                    });
                }
            }
            let mut buf: PageBuf = [0u8; PAGE_SIZE];
            enc.flush_into(&mut buf);
            engine.write_page(page_id, &buf)
        })
    }

    /// Invokes `f(index, record)` for every record in `range`, reading
    /// and decoding each underlying page exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the file.
    pub fn for_each_in_range(
        &self,
        engine: &StorageEngine,
        range: Range<usize>,
        f: impl FnMut(usize, R),
    ) -> CfResult<()> {
        assert!(range.end <= self.len, "range {range:?} out of bounds");
        if range.is_empty() {
            return Ok(());
        }
        self.for_each_in_ranges(engine, std::slice::from_ref(&range), f)
    }

    /// Invokes `f(index, record)` for every record in each of `ranges`,
    /// decoding every underlying page **at most once across all
    /// ranges** — the compressed analogue of
    /// [`crate::RecordFile::for_each_in_ranges`].
    ///
    /// # Panics
    ///
    /// Panics if any range extends past the end of the file or the
    /// ranges are unsorted or overlapping.
    pub fn for_each_in_ranges(
        &self,
        engine: &StorageEngine,
        ranges: &[Range<usize>],
        mut f: impl FnMut(usize, R),
    ) -> CfResult<()> {
        for w in ranges.windows(2) {
            assert!(
                w[0].end <= w[1].start,
                "ranges unsorted or overlapping: {w:?}"
            );
        }
        if let Some(last) = ranges.iter().rev().find(|r| !r.is_empty()) {
            assert!(last.end <= self.len, "range {last:?} out of bounds");
        }
        DECODE_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let mut i = 0;
            while i < ranges.len() {
                if ranges[i].is_empty() {
                    i += 1;
                    continue;
                }
                // Group ranges whose page spans touch, then walk the
                // group's pages once (same shape as the raw file, with
                // directory lookups in place of fixed arithmetic).
                let first_page = self.page_no_of(ranges[i].start);
                let mut last_page = self.page_no_of(ranges[i].end - 1);
                let mut j = i + 1;
                while j < ranges.len() {
                    if ranges[j].is_empty() {
                        j += 1;
                        continue;
                    }
                    if self.page_no_of(ranges[j].start) <= last_page {
                        last_page = last_page.max(self.page_no_of(ranges[j].end - 1));
                        j += 1;
                    } else {
                        break;
                    }
                }

                let mut k = i;
                for page_no in first_page..=last_page {
                    let page_lo = self.page_starts[page_no] as usize;
                    let page_hi = page_lo + self.count_of(page_no);
                    self.decode_page_into(engine, page_no, scratch)?;
                    for rg in &ranges[k..j] {
                        if rg.start >= page_hi {
                            break;
                        }
                        let lo = rg.start.max(page_lo);
                        let hi = rg.end.min(page_hi);
                        for idx in lo..hi {
                            let slot = idx - page_lo;
                            f(
                                idx,
                                R::decode(&scratch[slot * R::SIZE..(slot + 1) * R::SIZE]),
                            );
                        }
                    }
                    while k < j && ranges[k].end <= page_hi {
                        k += 1;
                    }
                }
                i = j;
            }
            Ok(())
        })
    }

    /// Collects the records in `range` into a vector.
    pub fn read_range(&self, engine: &StorageEngine, range: Range<usize>) -> CfResult<Vec<R>> {
        let mut out = Vec::with_capacity(range.len());
        self.for_each_in_range(engine, range, |_, r| out.push(r))?;
        Ok(out)
    }

    /// Number of data pages a scan of `range` touches (the unit the
    /// paper's cost model counts).
    pub fn pages_in_range(&self, range: Range<usize>) -> usize {
        if range.is_empty() {
            return 0;
        }
        self.page_no_of(range.end - 1) - self.page_no_of(range.start) + 1
    }
}

/// A record file behind either page codec, chosen by
/// [`crate::StorageConfig::codec`]. Presents the union of the
/// [`crate::RecordFile`] and [`CompressedRecordFile`] APIs so index
/// layers stay codec-agnostic.
#[derive(Debug, Clone)]
pub enum CellFile<R: Record> {
    /// Fixed-slot pages.
    Raw(RecordFile<R>),
    /// Delta/varint compressed pages.
    Compressed(CompressedRecordFile<R>),
}

impl<R: Record> CellFile<R> {
    /// Creates a file with the engine's configured codec.
    pub fn create<I>(engine: &StorageEngine, records: I) -> CfResult<Self>
    where
        I: IntoIterator<Item = R>,
        I::IntoIter: ExactSizeIterator,
    {
        match engine.codec() {
            PageCodec::Raw => Ok(CellFile::Raw(RecordFile::create(engine, records)?)),
            PageCodec::Compressed => Ok(CellFile::Compressed(CompressedRecordFile::create(
                engine, records,
            )?)),
        }
    }

    /// Parallel creation with the engine's configured codec. The raw
    /// codec fans out across threads; the compressed codec is a
    /// sequential delta chain, so it runs single-threaded (still
    /// byte-deterministic).
    pub fn create_parallel(engine: &StorageEngine, records: &[R], threads: usize) -> CfResult<Self>
    where
        R: Sync + Clone,
    {
        match engine.codec() {
            PageCodec::Raw => Ok(CellFile::Raw(RecordFile::create_parallel(
                engine, records, threads,
            )?)),
            PageCodec::Compressed => Ok(CellFile::Compressed(
                CompressedRecordFile::create_parallel(engine, records, threads)?,
            )),
        }
    }

    /// Reopens a file from catalog fields. `data_pages` is required by
    /// the compressed layout (the raw layout derives its page count from
    /// `len`).
    pub fn open(
        engine: &StorageEngine,
        codec: PageCodec,
        first_page: PageId,
        len: usize,
        data_pages: usize,
    ) -> CfResult<Self> {
        match codec {
            PageCodec::Raw => Ok(CellFile::Raw(RecordFile::open(first_page, len))),
            PageCodec::Compressed => Ok(CellFile::Compressed(CompressedRecordFile::open(
                engine, first_page, len, data_pages,
            )?)),
        }
    }

    /// The codec this file is stored with.
    pub fn codec(&self) -> PageCodec {
        match self {
            CellFile::Raw(_) => PageCodec::Raw,
            CellFile::Compressed(_) => PageCodec::Compressed,
        }
    }

    /// Number of records in the file.
    pub fn len(&self) -> usize {
        match self {
            CellFile::Raw(f) => f.len(),
            CellFile::Compressed(f) => f.len(),
        }
    }

    /// Returns `true` when the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total pages the file occupies (including any page directory).
    pub fn num_pages(&self) -> usize {
        match self {
            CellFile::Raw(f) => f.num_pages(),
            CellFile::Compressed(f) => f.num_pages(),
        }
    }

    /// Data pages holding records (what query scans touch).
    pub fn data_pages(&self) -> usize {
        match self {
            CellFile::Raw(f) => f.num_pages(),
            CellFile::Compressed(f) => f.data_pages(),
        }
    }

    /// Id of the first page of the file.
    pub fn first_page(&self) -> PageId {
        match self {
            CellFile::Raw(f) => f.first_page(),
            CellFile::Compressed(f) => f.first_page(),
        }
    }

    /// Mean records per data page.
    pub fn records_per_page(&self) -> f64 {
        match self {
            CellFile::Raw(_) => RecordFile::<R>::records_per_page() as f64,
            CellFile::Compressed(f) => f.records_per_page(),
        }
    }

    /// Reads one record.
    pub fn get(&self, engine: &StorageEngine, idx: usize) -> CfResult<R> {
        match self {
            CellFile::Raw(f) => f.get(engine, idx),
            CellFile::Compressed(f) => f.get(engine, idx),
        }
    }

    /// Overwrites one record in place.
    pub fn put(&self, engine: &StorageEngine, idx: usize, record: &R) -> CfResult<()> {
        match self {
            CellFile::Raw(f) => f.put(engine, idx, record),
            CellFile::Compressed(f) => f.put(engine, idx, record),
        }
    }

    /// Invokes `f(index, record)` for every record in `range`.
    pub fn for_each_in_range(
        &self,
        engine: &StorageEngine,
        range: Range<usize>,
        f: impl FnMut(usize, R),
    ) -> CfResult<()> {
        match self {
            CellFile::Raw(file) => file.for_each_in_range(engine, range, f),
            CellFile::Compressed(file) => file.for_each_in_range(engine, range, f),
        }
    }

    /// Invokes `f(index, record)` for every record in each of `ranges`,
    /// touching every page at most once across all ranges.
    pub fn for_each_in_ranges(
        &self,
        engine: &StorageEngine,
        ranges: &[Range<usize>],
        f: impl FnMut(usize, R),
    ) -> CfResult<()> {
        match self {
            CellFile::Raw(file) => file.for_each_in_ranges(engine, ranges, f),
            CellFile::Compressed(file) => file.for_each_in_ranges(engine, ranges, f),
        }
    }

    /// Collects the records in `range` into a vector.
    pub fn read_range(&self, engine: &StorageEngine, range: Range<usize>) -> CfResult<Vec<R>> {
        match self {
            CellFile::Raw(f) => f.read_range(engine, range),
            CellFile::Compressed(f) => f.read_range(engine, range),
        }
    }

    /// Number of data pages a scan of `range` touches.
    pub fn pages_in_range(&self, range: Range<usize>) -> usize {
        match self {
            CellFile::Raw(f) => f.pages_in_range(range),
            CellFile::Compressed(f) => f.pages_in_range(range),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvRecord, StorageConfig};

    fn kv(i: usize) -> KvRecord {
        KvRecord {
            key: 10_000 + (i as u64) * 3,
            value: 5.0 + (i as f64) * 0.25,
        }
    }

    fn compressed_engine() -> StorageEngine {
        StorageEngine::new(StorageConfig {
            codec: PageCodec::Compressed,
            ..StorageConfig::default()
        })
    }

    #[test]
    fn round_trips_all_records() {
        let engine = compressed_engine();
        let n = 3000usize;
        let file = CompressedRecordFile::create(&engine, (0..n).map(kv)).expect("create");
        assert_eq!(file.len(), n);
        // Hilbert-like similarity: far fewer pages than the raw layout.
        let raw_pages = n.div_ceil(RecordFile::<KvRecord>::records_per_page());
        assert!(
            file.data_pages() * 2 < raw_pages,
            "{} compressed vs {} raw pages",
            file.data_pages(),
            raw_pages
        );
        for i in [0usize, 1, 255, 256, 1024, n - 1] {
            assert_eq!(file.get(&engine, i).expect("get"), kv(i));
        }
        let all = file.read_range(&engine, 0..n).expect("read");
        for (i, r) in all.iter().enumerate() {
            assert_eq!(*r, kv(i));
        }
    }

    #[test]
    fn reopen_matches_created_file() {
        let engine = compressed_engine();
        let n = 2000usize;
        let file =
            CompressedRecordFile::<KvRecord>::create(&engine, (0..n).map(kv)).expect("create");
        let reopened = CompressedRecordFile::<KvRecord>::open(
            &engine,
            file.first_page(),
            n,
            file.data_pages(),
        )
        .expect("open");
        assert_eq!(reopened.page_starts, file.page_starts);
        assert_eq!(
            reopened.read_range(&engine, 17..1321).expect("read"),
            file.read_range(&engine, 17..1321).expect("read"),
        );
    }

    #[test]
    fn multi_range_scan_matches_per_range() {
        let engine = compressed_engine();
        let n = 5000usize;
        let file = CompressedRecordFile::create(&engine, (0..n).map(kv)).expect("create");
        let ranges = [5..40, 40..41, 900..1300, 2999..3001, 4999..5000];
        let mut grouped = Vec::new();
        file.for_each_in_ranges(&engine, &ranges, |i, r: KvRecord| grouped.push((i, r)))
            .expect("scan");
        let mut single = Vec::new();
        for rg in &ranges {
            file.for_each_in_range(&engine, rg.clone(), |i, r| single.push((i, r)))
                .expect("scan");
        }
        assert_eq!(grouped, single);
        assert_eq!(grouped.len(), ranges.iter().map(|r| r.len()).sum::<usize>());
    }

    #[test]
    fn put_round_trips_and_respects_reserve() {
        let engine = compressed_engine();
        let n = 1000usize;
        let file = CompressedRecordFile::create(&engine, (0..n).map(kv)).expect("create");
        let updated = KvRecord {
            key: u64::MAX / 3,
            value: -12345.6789,
        };
        file.put(&engine, 500, &updated).expect("put");
        assert_eq!(file.get(&engine, 500).expect("get"), updated);
        assert_eq!(file.get(&engine, 499).expect("get"), kv(499));
        assert_eq!(file.get(&engine, 501).expect("get"), kv(501));
    }

    #[test]
    fn torn_page_decodes_to_corrupt() {
        let engine = compressed_engine();
        let n = 4000usize;
        let file = CompressedRecordFile::create(&engine, (0..n).map(kv)).expect("create");
        // Overwrite a mid-file data page with a half-written image: the
        // CRC layer is bypassed by writing a valid page of garbage.
        let victim = PageId(file.first_page().0 + 1);
        let mut buf: PageBuf = engine.with_page(victim, |p| *p).expect("read");
        for b in buf.iter_mut().skip(6).take(PAGE_SIZE / 2) {
            *b = 0xA5;
        }
        engine.write_page(victim, &buf).expect("write");
        let err = file
            .read_range(&engine, 0..n)
            .expect_err("torn page must not decode");
        assert!(err.is_corrupt(), "got {err}");
        assert_eq!(err.page(), Some(victim));
    }

    #[test]
    fn cell_file_dispatches_on_engine_codec() {
        let raw = StorageEngine::in_memory();
        let f = CellFile::create(&raw, (0..100).map(kv)).expect("create");
        assert!(matches!(f, CellFile::Raw(_)));

        let engine = compressed_engine();
        let f = CellFile::create(&engine, (0..100).map(kv)).expect("create");
        assert!(matches!(f, CellFile::Compressed(_)));
        assert_eq!(f.codec(), PageCodec::Compressed);
        assert_eq!(f.get(&engine, 42).expect("get"), kv(42));
    }

    #[test]
    fn empty_file_is_well_formed() {
        let engine = compressed_engine();
        let file =
            CompressedRecordFile::<KvRecord>::create(&engine, std::iter::empty()).expect("create");
        assert!(file.is_empty());
        assert_eq!(file.pages_in_range(0..0), 0);
        assert!(file.read_range(&engine, 0..0).expect("read").is_empty());
        let reopened =
            CompressedRecordFile::<KvRecord>::open(&engine, file.first_page(), 0, 1).expect("open");
        assert_eq!(reopened.len(), 0);
    }

    #[test]
    fn codec_names_round_trip() {
        for c in [PageCodec::Raw, PageCodec::Compressed] {
            assert_eq!(PageCodec::from_tag(c.tag()), Some(c));
            assert_eq!(PageCodec::parse(c.name()), Some(c));
        }
        assert_eq!(PageCodec::from_tag(7), None);
        assert_eq!(PageCodec::parse("zstd"), None);
    }
}
