//! Per-layer timings of the traced run: each layer's public functions
//! timed on the workload's own data, outside the timed windows.

use crate::load::Counts;
use crate::report::median;
use crate::spans::SpanLog;
use contfield::field::{FieldModel, GridCellRecord, GridField};
use contfield::geom::Interval;
use contfield::index::{build_subfields, cell_order, SubfieldConfig};
use contfield::sfc::Curve;
use contfield::storage::{checksum, CellFile, PageCodec, PageId, StorageConfig, StorageEngine};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed repetitions of each storage micro-measurement; the median
/// repetition is reported.
const REPS: usize = 5;

/// The first two stages of `IHilbert::build`, timed separately:
/// `cell_order` (cf-sfc keys + sort) and `build_subfields` (the greedy
/// cost-function grouping).
pub struct BuildSplit {
    pub order: Vec<usize>,
    pub order_s: f64,
    pub group_s: f64,
}

pub fn build_split(field: &GridField, log: &mut SpanLog) -> BuildSplit {
    let t0 = Instant::now();
    let order = cell_order(field, Curve::Hilbert);
    let t1 = Instant::now();
    let intervals: Vec<Interval> = order.iter().map(|&c| field.cell_interval(c)).collect();
    let t2 = Instant::now();
    black_box(build_subfields(&intervals, SubfieldConfig::default()));
    let t3 = Instant::now();
    let replay = log.open();
    log.push("build.order", 0, Some(replay), t0, t1);
    log.push("build.group", 0, Some(replay), t2, t3);
    log.close(replay, "replay", 0, t0, t3);
    BuildSplit {
        order,
        order_s: (t1 - t0).as_secs_f64(),
        group_s: (t3 - t2).as_secs_f64(),
    }
}

/// Microseconds of `checksum::crc32` per 4 KiB page, over (up to 4096
/// of) the engine's allocated pages.
pub fn crc_us_per_page(engine: &StorageEngine, log: &mut SpanLog) -> Result<f64, String> {
    let pages: Vec<Vec<u8>> = (0..engine.num_pages().min(4096))
        .map(|i| {
            engine
                .with_page(PageId(i as u64), |buf| buf.to_vec())
                .map_err(|e| format!("read page {i}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if pages.is_empty() {
        return Err("engine holds no pages".into());
    }
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for page in &pages {
                black_box(checksum::crc32(black_box(page)));
            }
            let t1 = Instant::now();
            log.push("storage.crc", 0, None, t0, t1);
            (t1 - t0).as_secs_f64() * 1e6 / pages.len() as f64
        })
        .collect();
    Ok(median(reps))
}

/// Microseconds per data page of `CellFile::read_range` over a
/// compressed copy of `records` (in Hilbert file order) whose pages all
/// sit in the pool: decode cost without I/O.
pub fn decode_us_per_page(records: Vec<GridCellRecord>, log: &mut SpanLog) -> Result<f64, String> {
    let engine = StorageEngine::new(StorageConfig {
        pool_pages: crate::workload::RESIDENT_POOL_PAGES,
        codec: PageCodec::Compressed,
        ..StorageConfig::default()
    });
    let n = records.len();
    let file = CellFile::create(&engine, records).map_err(|e| format!("compressed copy: {e}"))?;
    // Ranges of about 64 pages: few page straddles, small result vectors.
    let chunk = ((file.records_per_page() * 64.0) as usize).max(1);
    let read_all = || -> Result<(), String> {
        for start in (0..n).step_by(chunk) {
            let recs = file
                .read_range(&engine, start..(start + chunk).min(n))
                .map_err(|e| format!("decode: {e}"))?;
            black_box(recs);
        }
        Ok(())
    };
    read_all()?; // fault every page into the pool first
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        read_all()?;
        let t1 = Instant::now();
        log.push("storage.decode", 0, None, t0, t1);
        reps.push((t1 - t0).as_secs_f64() * 1e6 / file.data_pages() as f64);
    }
    Ok(median(reps))
}

/// Totals of the cf-field replay: the interval test over every cell and
/// the band kernel over each band's qualifying cells.
#[derive(Default)]
pub struct FieldReplay {
    pub bands: u64,
    pub cells_tested: u64,
    pub interval: Duration,
    pub qualifying: u64,
    pub kernel: Duration,
    pub mismatches: u64,
}

/// Replays the estimation step's two cf-field functions on `records`
/// for each band: `record_interval` + `intersects` over every cell,
/// then `record_band_region` over the qualifying ones. `queries` holds
/// `(query id, band index, band)` of the traced queries to replay; the
/// replay spans carry the query's id. With `refs` the replay's
/// qualifying-cell and region counts must equal the program's.
pub fn field_replay(
    records: &[GridCellRecord],
    queries: &[(u64, usize, Interval)],
    refs: Option<&[Counts]>,
    log: &mut SpanLog,
) -> FieldReplay {
    let mut out = FieldReplay::default();
    let mut qualifying: Vec<&GridCellRecord> = Vec::new();
    for &(query, band_idx, band) in queries {
        let t0 = Instant::now();
        qualifying.clear();
        qualifying.extend(
            records
                .iter()
                .filter(|r| GridField::record_interval(r).intersects(band)),
        );
        let t1 = Instant::now();
        let mut regions = 0usize;
        for rec in &qualifying {
            regions += black_box(GridField::record_band_region(rec, band)).len();
        }
        let t2 = Instant::now();
        let replay = log.open();
        log.push("field.interval", query, Some(replay), t0, t1);
        log.push("field.kernel", query, Some(replay), t1, t2);
        log.close(replay, "replay", query, t0, t2);
        out.bands += 1;
        out.cells_tested += records.len() as u64;
        out.interval += t1 - t0;
        out.qualifying += qualifying.len() as u64;
        out.kernel += t2 - t1;
        if let Some(refs) = refs {
            let want = &refs[band_idx];
            if want.qualifying != qualifying.len() || want.regions != regions {
                eprintln!("perfbench: cf-field replay disagrees with Q2 on band {band_idx}");
                out.mismatches += 1;
            }
        }
    }
    out
}
