//! Compact (f32) cell records — a storage-layout ablation.
//!
//! The paper's cost is dominated by pages touched, so record width is a
//! first-order knob: storing grid-cell corners and values as `f32`
//! halves the record (64 → 32 bytes), doubling cells per page and
//! halving both the LinearScan bound and subfield run lengths.
//!
//! [`CompactGridField`] quantizes the field's samples through `f32` *at
//! construction*, so every value the model computes is exactly
//! representable and the on-disk round-trip is lossless — the usual
//! "quantize once, then everything is exact" discipline. The accuracy
//! cost is the initial `f64 → f32` rounding of the samples (~7
//! significant digits), far below measurement noise for the phenomena
//! the paper targets.

use crate::grid::GridCellRecord;
use crate::model::FieldModel;
use crate::GridField;
use cf_geom::{Aabb, Interval, Point2};
use cf_storage::Record;

/// A grid field whose cells are stored as 32-byte `f32` records.
#[derive(Debug, Clone)]
pub struct CompactGridField {
    inner: GridField,
}

impl CompactGridField {
    /// Quantizes `field`'s samples through `f32`.
    pub fn new(field: &GridField) -> Self {
        let (vw, vh) = field.vertex_dims();
        let values: Vec<f64> = (0..vh)
            .flat_map(|y| (0..vw).map(move |x| (x, y)))
            .map(|(x, y)| field.vertex_value(x, y) as f32 as f64)
            .collect();
        Self {
            inner: GridField::from_values(vw, vh, values),
        }
    }

    /// The quantized field (all values f32-representable).
    pub fn as_grid(&self) -> &GridField {
        &self.inner
    }
}

/// 32-byte encoding of a grid cell: 4 × f32 corner coordinates + 4 × f32
/// corner values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactGridCellRecord {
    /// The cell, held at f64 precision in memory (all components are
    /// exactly f32-representable).
    pub cell: GridCellRecord,
}

impl Record for CompactGridCellRecord {
    const SIZE: usize = 32;

    fn encode(&self, buf: &mut [u8]) {
        let fields = [
            self.cell.x0,
            self.cell.y0,
            self.cell.x1,
            self.cell.y1,
            self.cell.vals[0],
            self.cell.vals[1],
            self.cell.vals[2],
            self.cell.vals[3],
        ];
        for (i, v) in fields.iter().enumerate() {
            buf[i * 4..(i + 1) * 4].copy_from_slice(&(*v as f32).to_le_bytes());
        }
    }

    fn decode(buf: &[u8]) -> Self {
        let g = |i: usize| -> f64 {
            f32::from_le_bytes(buf[i * 4..(i + 1) * 4].try_into().expect("4 bytes")) as f64
        };
        Self {
            cell: GridCellRecord {
                x0: g(0),
                y0: g(1),
                x1: g(2),
                y1: g(3),
                vals: [g(4), g(5), g(6), g(7)],
            },
        }
    }
}

impl FieldModel for CompactGridField {
    type CellRec = CompactGridCellRecord;

    fn num_cells(&self) -> usize {
        self.inner.num_cells()
    }

    fn cell_record(&self, cell: usize) -> CompactGridCellRecord {
        CompactGridCellRecord {
            cell: self.inner.cell_record(cell),
        }
    }

    fn cell_centroid(&self, cell: usize) -> Point2 {
        self.inner.cell_centroid(cell)
    }

    fn cell_interval(&self, cell: usize) -> Interval {
        self.inner.cell_interval(cell)
    }

    fn record_interval(rec: &CompactGridCellRecord) -> Interval {
        GridField::record_interval(&rec.cell)
    }

    fn for_each_band_region(
        rec: &CompactGridCellRecord,
        band: Interval,
        visit: impl FnMut(&[Point2]),
    ) {
        GridField::for_each_band_region(&rec.cell, band, visit)
    }

    fn domain(&self) -> Aabb<2> {
        self.inner.domain()
    }

    fn value_domain(&self) -> Interval {
        self.inner.value_domain()
    }

    fn value_at(&self, p: Point2) -> Option<f64> {
        self.inner.value_at(p)
    }

    fn cell_bbox(&self, cell: usize) -> Aabb<2> {
        self.inner.cell_bbox(cell)
    }

    fn record_value_at(rec: &CompactGridCellRecord, p: Point2) -> Option<f64> {
        GridField::record_value_at(&rec.cell, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_geom::Polygon;

    fn sample() -> CompactGridField {
        let mut values = Vec::new();
        for y in 0..9 {
            for x in 0..9 {
                values.push((x as f64 * 0.37 + y as f64 * 1.13).sin() * 42.0);
            }
        }
        CompactGridField::new(&GridField::from_values(9, 9, values))
    }

    #[test]
    fn record_is_half_the_size_and_lossless() {
        assert_eq!(CompactGridCellRecord::SIZE, 32);
        assert_eq!(GridCellRecord::SIZE, 64);
        let f = sample();
        for cell in 0..f.num_cells() {
            let rec = f.cell_record(cell);
            let mut buf = [0u8; 32];
            rec.encode(&mut buf);
            // Lossless because the field was quantized at construction.
            assert_eq!(CompactGridCellRecord::decode(&buf), rec, "cell {cell}");
        }
    }

    #[test]
    fn quantization_error_is_f32_scale() {
        let mut values = Vec::new();
        for i in 0..16 {
            values.push(1.0 + i as f64 * 1e-12 + i as f64); // f64-only detail
        }
        let orig = GridField::from_values(4, 4, values);
        let compact = CompactGridField::new(&orig);
        for y in 0..4 {
            for x in 0..4 {
                let a = orig.vertex_value(x, y);
                let b = compact.as_grid().vertex_value(x, y);
                assert!((a - b).abs() <= a.abs() * 1e-6, "({x},{y}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn model_is_self_consistent() {
        let f = sample();
        for cell in 0..f.num_cells() {
            let rec = f.cell_record(cell);
            assert_eq!(
                CompactGridField::record_interval(&rec),
                f.cell_interval(cell)
            );
        }
        // Band regions tile each cell.
        let rec = f.cell_record(10);
        let iv = CompactGridField::record_interval(&rec);
        let mid = iv.center();
        let a: f64 = CompactGridField::record_band_region(&rec, Interval::new(iv.lo, mid))
            .iter()
            .map(Polygon::area)
            .sum();
        let b: f64 = CompactGridField::record_band_region(&rec, Interval::new(mid, iv.hi))
            .iter()
            .map(Polygon::area)
            .sum();
        assert!(
            (a + b - 1.0).abs() < 1e-9,
            "halves tile the cell: {a} + {b}"
        );
    }
}
