//! Seeded input generation: Q2 bands and ingest update plans. The seed
//! is the benchmark's only source of randomness; the program receives
//! only the generated inputs.

use contfield::field::{FieldModel, GridCellRecord, GridField};
use contfield::geom::Interval;
use std::collections::HashMap;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const BAND_STREAM: u64 = 1;
const PLAN_STREAM: u64 = 2;

/// `count` Q2 bands of width `qinterval × |domain|`, in shuffled order.
///
/// Band positions are stratified: band `i` starts at a uniform point of
/// the `i`-th of `count` equal strata of the admissible start range.
/// Every band is still uniform over the domain, as in the paper's query
/// generator, but the set covers the value histogram evenly, so the
/// cost of a run depends little on which seed drew it.
pub fn bands(seed: u64, domain: Interval, qinterval: f64, count: usize) -> Vec<Interval> {
    let mut rng = Rng::new(seed, BAND_STREAM);
    let width = qinterval * domain.width();
    let span = domain.width() - width;
    let mut out: Vec<Interval> = (0..count)
        .map(|i| {
            let lo = domain.lo + (i as f64 + rng.unit()) / count as f64 * span;
            Interval::new(lo, lo + width)
        })
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// The ingest update plan: `count` writes, each drifting every vertex
/// value of one uniformly chosen cell by at most ±`drift × |domain|`.
/// Drifts accumulate on the benchmark's own copy of the records, so the
/// plan holds the exact record each write sends.
pub fn update_plan(
    seed: u64,
    field: &GridField,
    drift: f64,
    count: usize,
) -> Vec<(usize, GridCellRecord)> {
    let mut rng = Rng::new(seed, PLAN_STREAM);
    let step = drift * field.value_domain().width();
    let mut current: HashMap<usize, GridCellRecord> = HashMap::new();
    (0..count)
        .map(|_| {
            let cell = rng.below(field.num_cells());
            let rec = current
                .entry(cell)
                .or_insert_with(|| field.cell_record(cell));
            for v in rec.vals.iter_mut() {
                *v += (2.0 * rng.unit() - 1.0) * step;
            }
            (cell, *rec)
        })
        .collect()
}

/// Bit-exact equality of two update plans.
pub fn same_plan(a: &[(usize, GridCellRecord)], b: &[(usize, GridCellRecord)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ca, ra), (cb, rb))| {
            ca == cb && ra.vals.map(f64::to_bits) == rb.vals.map(f64::to_bits)
        })
}

/// Bit-exact equality of two band lists.
pub fn same_bands(a: &[Interval], b: &[Interval]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.lo.to_bits() == y.lo.to_bits() && x.hi.to_bits() == y.hi.to_bits())
}
