//! Correctness checks and benchmark self-tests, all run outside timing.
//! Each compared answer is one attempted operation; a mismatch is a
//! failed one.

use crate::gen;
use crate::load::Counts;
use contfield::field::{GridCellRecord, GridField};
use contfield::geom::{Interval, Polygon};
use contfield::index::{IHilbert, LinearScan, ValueIndex};
use contfield::storage::{StorageConfig, StorageEngine};
use std::time::Duration;

#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// An in-memory engine whose pool holds a whole database of the
/// benchmark's sizes, for the checks' independent copies.
fn check_engine(read_latency: Duration) -> StorageEngine {
    StorageEngine::new(StorageConfig {
        pool_pages: crate::workload::RESIDENT_POOL_PAGES,
        read_latency,
        ..StorageConfig::default()
    })
}

/// Region areas sorted by bit pattern. The two methods visit cells in
/// different orders (native vs Hilbert), so their `area` sums round
/// differently; each region's own area is computed from the same record
/// by the same code and must match bit for bit.
fn area_bits(regions: &[Polygon]) -> Vec<u64> {
    let mut bits: Vec<u64> = regions.iter().map(|p| p.area().to_bits()).collect();
    bits.sort_unstable();
    bits
}

/// The parts of a Q2 answer compared with [`LinearScan`]: qualifying
/// cells, region count, and every region's area bits.
#[derive(Debug, PartialEq, Eq)]
pub struct Answer {
    qualifying: usize,
    regions: usize,
    area_bits: Vec<u64>,
}

/// Answers of `index` on `sample`, kept for [`against_linear_scan`].
pub fn answers(
    index: &dyn ValueIndex,
    engine: &StorageEngine,
    sample: &[Interval],
) -> Result<Vec<Answer>, String> {
    sample
        .iter()
        .map(|&band| {
            let (stats, regions) = index
                .query_regions(engine, band)
                .map_err(|e| format!("sample query {band}: {e}"))?;
            Ok(Answer {
                qualifying: stats.cells_qualifying,
                regions: stats.num_regions,
                area_bits: area_bits(&regions),
            })
        })
        .collect()
}

/// Compares I-Hilbert's `answers` on `sample` with [`LinearScan`] over
/// the same field on a separate engine.
pub fn against_linear_scan(
    field: &GridField,
    answers: &[Answer],
    sample: &[Interval],
) -> Result<Tally, String> {
    let engine = check_engine(Duration::ZERO);
    let scan = LinearScan::build(&engine, field).map_err(|e| format!("scan build: {e}"))?;
    let want = self::answers(&scan, &engine, sample)?;
    let mut tally = Tally::default();
    for ((got, want), band) in answers.iter().zip(&want).zip(sample) {
        tally.record(got == want, || format!("I-Hilbert vs LinearScan on {band}"));
    }
    Ok(tally)
}

/// Replays the applied prefix of an update plan through the sequential
/// [`IHilbert::update_cell`] path on an independent index and compares
/// `live` answers (qualifying cells, regions, area bits) on `sample`.
pub fn against_sequential_replay(
    field: &GridField,
    plan: &[(usize, GridCellRecord)],
    failed: &[usize],
    live: &dyn ValueIndex,
    engine: &StorageEngine,
    sample: &[Interval],
) -> Result<Tally, String> {
    let oracle_engine = check_engine(Duration::ZERO);
    let mut oracle =
        IHilbert::build(&oracle_engine, field).map_err(|e| format!("oracle build: {e}"))?;
    for (i, &(cell, rec)) in plan.iter().enumerate() {
        if !failed.contains(&i) {
            oracle
                .update_cell(&oracle_engine, cell, rec)
                .map_err(|e| format!("oracle update: {e}"))?;
        }
    }
    let mut tally = Tally::default();
    for &band in sample {
        let want = oracle
            .query_stats(&oracle_engine, band)
            .map_err(|e| format!("oracle query {band}: {e}"))?;
        match live.query_stats(engine, band) {
            Ok(got) => tally.record(
                got.cells_qualifying == want.cells_qualifying
                    && got.num_regions == want.num_regions
                    && got.area.to_bits() == want.area.to_bits(),
                || format!("live plane vs sequential replay on {band}"),
            ),
            Err(e) => tally.record(false, || format!("live query {band}: {e}")),
        }
    }
    Ok(tally)
}

/// The same seed must give identical bands and update plans, and a
/// different seed different ones.
pub fn seed_determinism(
    seed: u64,
    field: &GridField,
    domain: Interval,
    qinterval: f64,
    bands: &[Interval],
    plan: &[(usize, GridCellRecord)],
) -> Tally {
    let mut tally = Tally::default();
    let n = bands.len();
    tally.record(
        gen::same_bands(bands, &gen::bands(seed, domain, qinterval, n)),
        || "same seed gave different bands".into(),
    );
    tally.record(
        !gen::same_bands(bands, &gen::bands(seed ^ 1, domain, qinterval, n)),
        || "different seeds gave the same bands".into(),
    );
    let again = gen::update_plan(seed, field, crate::workload::DRIFT, plan.len());
    tally.record(gen::same_plan(plan, &again), || {
        "same seed gave different update plans".into()
    });
    let other = gen::update_plan(seed ^ 1, field, crate::workload::DRIFT, plan.len());
    tally.record(!gen::same_plan(plan, &other), || {
        "different seeds gave the same update plan".into()
    });
    tally
}

/// Runs the first bands on a fresh copy of the index whose engine
/// charges simulated read latency (the paper's disk-resident regime),
/// starting from an empty pool. Per-query page counts and answers must
/// equal the zero-latency references: the real-clock run does the
/// paper's work.
pub fn simulated_latency_prefix(
    field: &GridField,
    bands: &[Interval],
    refs: &[Counts],
) -> Result<Tally, String> {
    let engine = check_engine(Duration::from_micros(20));
    let index = IHilbert::build(&engine, field).map_err(|e| format!("latency build: {e}"))?;
    engine.clear_cache();
    let mut tally = Tally::default();
    for (&band, want) in bands.iter().zip(refs) {
        match index.query_stats(&engine, band) {
            Ok(got) => tally.record(Counts::of(&got) == *want, || {
                format!("simulated-latency counts differ on {band}")
            }),
            Err(e) => tally.record(false, || format!("latency query {band}: {e}")),
        }
    }
    Ok(tally)
}

/// The traced pass must repeat the untraced references exactly.
pub fn traced_equals_timed(refs: &[Counts], traced: &[Counts]) -> Tally {
    let mut tally = Tally::default();
    for (i, (want, got)) in refs.iter().zip(traced).enumerate() {
        tally.record(want == got, || format!("traced counts differ on band {i}"));
    }
    tally
}
