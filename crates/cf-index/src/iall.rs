//! The `I-All` baseline: every individual cell interval in the R\*-tree.
//!
//! Paper §3: "One straightforward way is therefore to index all these
//! intervals associated with the cells … However storing all these
//! individual intervals in an R\*-tree has the problems as follows: the
//! R\*-tree will become tall and slow due to a large number of intervals
//! … the search speed will also suffer because of the overlapping of so
//! many similar intervals."

use crate::stats::{refine_cell, QueryMetrics, QueryStats, RegionSink, ValueIndex};
use cf_field::FieldModel;
use cf_geom::Interval;
use cf_rtree::{FrozenTree, PagedRTree, RStarTree, RTreeConfig};
use cf_storage::{CfError, CfResult, RecordFile, Stopwatch, StorageEngine, TraceEvent};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// One R\*-tree entry per cell: `interval → cell index`.
pub struct IAll<F: FieldModel> {
    file: RecordFile<F::CellRec>,
    tree: PagedRTree<1>,
    /// Frozen query plane (see [`crate::QueryPlane`]): when present, the
    /// filtering step searches this flattened copy of `tree`.
    frozen: Option<FrozenTree<1>>,
    /// `index_*` registry handles, wired at first query.
    qmetrics: OnceLock<QueryMetrics>,
    _field: PhantomData<fn() -> F>,
}

impl<F: FieldModel> IAll<F> {
    /// Builds the index: cells in native order plus a page-fanout 1-D
    /// R\*-tree with one entry per cell, built by dynamic R\* insertion
    /// (as the paper's implementation would).
    pub fn build(engine: &StorageEngine, field: &F) -> CfResult<Self> {
        let n = field.num_cells();
        let records: Vec<F::CellRec> = (0..n).map(|c| field.cell_record(c)).collect();
        let file = RecordFile::create(engine, records)?;

        let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::page_sized::<1>());
        for cell in 0..n {
            tree.insert(field.cell_interval(cell).into(), cell as u64);
        }
        let tree = PagedRTree::persist(&tree, engine)?;
        Ok(Self {
            file,
            tree,
            frozen: None,
            qmetrics: OnceLock::new(),
            _field: PhantomData,
        })
    }

    /// Enters the frozen query plane: the filtering step searches a
    /// cache-resident flattening of the interval tree from now on —
    /// identical answers and `filter_nodes`, zero filter-step page reads.
    pub fn freeze(&mut self, engine: &StorageEngine) -> CfResult<()> {
        self.frozen = Some(self.tree.freeze(engine)?);
        Ok(())
    }

    /// Incremental maintenance: rewrites `cell`'s record in place and,
    /// if its value interval changed, replaces the cell's entry in the
    /// interval R\*-tree (the frozen plane, when active, is re-frozen).
    ///
    /// # Errors
    ///
    /// Returns [`CfError::InvalidCell`] when `cell` is outside the
    /// indexed range — cell ids are user input and must not panic.
    pub fn update_cell(
        &mut self,
        engine: &StorageEngine,
        cell: usize,
        record: F::CellRec,
    ) -> CfResult<()> {
        if cell >= self.file.len() {
            return Err(CfError::InvalidCell {
                cell,
                cells: self.file.len(),
            });
        }
        let old = self.file.get(engine, cell)?;
        let old_iv = F::record_interval(&old);
        let new_iv = F::record_interval(&record);
        self.file.put(engine, cell, &record)?;
        if new_iv != old_iv {
            let removed = self.tree.remove(engine, &old_iv.into(), cell as u64)?;
            if !removed {
                return Err(CfError::corrupt(
                    None,
                    format!("cell {cell}'s interval entry is missing from the I-All tree"),
                ));
            }
            self.tree.insert(engine, new_iv.into(), cell as u64)?;
            if self.frozen.is_some() {
                self.freeze(engine)?;
            }
        }
        Ok(())
    }

    fn query_impl(
        &self,
        engine: &StorageEngine,
        band: Interval,
        candidates: &mut Vec<u64>,
        mut sink: RegionSink<'_>,
    ) -> CfResult<QueryStats> {
        let tracer = engine.metrics().tracer();
        let query_id = tracer.is_enabled().then(|| tracer.next_query_id());
        let query_clock = Stopwatch::start();
        let before = cf_storage::thread_io_stats();
        let mut stats = QueryStats::default();

        // Filtering step: every intersecting cell interval.
        let filter_clock = Stopwatch::start();
        candidates.clear();
        let mut on_hit = |cell: u64, _mbr: &cf_geom::Aabb<1>| candidates.push(cell);
        let search = match &self.frozen {
            Some(frozen) => frozen.search(&band.into(), &mut on_hit),
            None => self.tree.search(engine, &band.into(), &mut on_hit)?,
        };
        stats.filter_nodes = search.nodes_visited;
        stats.intervals_retrieved = candidates.len();
        stats.filter_pages = (cf_storage::thread_io_stats() - before).logical_reads();
        let filter_ns = filter_clock.elapsed_ns();
        let refine_clock = Stopwatch::start();

        // Estimation step: read the candidate cells (sorted for page
        // locality) and compute exact regions.
        candidates.sort_unstable();
        for &cell in candidates.iter() {
            let rec = self.file.get(engine, cell as usize)?;
            stats.cells_examined += 1;
            debug_assert!(F::record_interval(&rec).intersects(band));
            refine_cell::<F>(&rec, band, &mut stats, &mut sink);
        }
        stats.io = cf_storage::thread_io_stats() - before;
        let refine_ns = refine_clock.elapsed_ns();
        let query_ns = query_clock.elapsed_ns();
        self.qmetrics
            .get_or_init(|| QueryMetrics::wire(engine.metrics(), "I-All"))
            .publish(&stats, band, query_ns, filter_ns, refine_ns);
        if let Some(query_id) = query_id {
            let phases = [
                TraceEvent {
                    query_id,
                    phase: "filter",
                    pages: stats.filter_pages,
                    nanos: filter_ns,
                    depth: 1,
                },
                TraceEvent {
                    query_id,
                    phase: "refine",
                    pages: stats.io.logical_reads() - stats.filter_pages,
                    nanos: refine_ns,
                    depth: 1,
                },
            ];
            for event in &phases {
                tracer.record(*event);
            }
            tracer.record(TraceEvent {
                query_id,
                phase: "query",
                pages: stats.io.logical_reads(),
                nanos: query_ns,
                depth: 0,
            });
            tracer.finish_query(query_id, query_ns, &phases);
        }
        Ok(stats)
    }
}

impl<F: FieldModel> ValueIndex for IAll<F> {
    fn name(&self) -> String {
        "I-All".into()
    }

    fn query_into(
        &self,
        engine: &StorageEngine,
        band: Interval,
        sink: RegionSink<'_>,
    ) -> CfResult<QueryStats> {
        let mut candidates = Vec::new();
        self.query_impl(engine, band, &mut candidates, sink)
    }

    fn query_stats_scratch(
        &self,
        engine: &StorageEngine,
        band: Interval,
        scratch: &mut crate::stats::QueryScratch,
    ) -> CfResult<QueryStats> {
        self.query_impl(engine, band, &mut scratch.candidates, None)
    }

    fn index_pages(&self) -> usize {
        self.tree.num_pages()
    }

    fn data_pages(&self) -> usize {
        self.file.num_pages()
    }

    fn num_intervals(&self) -> usize {
        self.tree.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use cf_field::GridField;

    fn ramp_field(n: usize) -> GridField {
        let vw = n + 1;
        let mut values = Vec::new();
        for y in 0..vw {
            for x in 0..vw {
                values.push((x + y) as f64);
            }
        }
        GridField::from_values(vw, vw, values)
    }

    #[test]
    fn matches_linear_scan_answers() {
        let engine = StorageEngine::in_memory();
        let field = ramp_field(12);
        let scan = LinearScan::build(&engine, &field).expect("build");
        let iall = IAll::build(&engine, &field).expect("build");
        assert_eq!(iall.num_intervals(), field.num_cells());

        for band in [
            Interval::new(3.0, 5.0),
            Interval::point(7.0),
            Interval::new(-10.0, 100.0),
            Interval::new(23.5, 23.6),
            Interval::new(50.0, 60.0), // out of range
        ] {
            let a = scan.query_stats(&engine, band).expect("query");
            let b = iall.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
            assert!((a.area - b.area).abs() < 1e-9, "band {band}");
        }
    }

    #[test]
    fn frozen_plane_matches_paged_plane() {
        use crate::stats::ValueIndex;
        let engine = StorageEngine::in_memory();
        let field = ramp_field(12);
        let paged = IAll::build(&engine, &field).expect("build");
        let mut frozen = IAll::build(&engine, &field).expect("build");
        frozen.freeze(&engine).expect("freeze");
        for band in [
            Interval::new(3.0, 5.0),
            Interval::point(7.0),
            Interval::new(-10.0, 100.0),
            Interval::new(50.0, 60.0),
        ] {
            let a = paged.query_stats(&engine, band).expect("query");
            let b = frozen.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
            assert_eq!(a.filter_nodes, b.filter_nodes, "band {band}");
            assert_eq!(a.intervals_retrieved, b.intervals_retrieved);
            assert_eq!(b.filter_pages, 0, "band {band}");
            assert!((a.area - b.area).abs() < 1e-9, "band {band}");
        }
    }

    #[test]
    fn update_cell_maintains_tree_and_rejects_bad_ids() {
        use crate::stats::ValueIndex;
        let engine = StorageEngine::in_memory();
        let field = ramp_field(8);
        let mut iall = IAll::build(&engine, &field).expect("build");
        iall.freeze(&engine).expect("freeze");

        // A typed error, not a panic, on an out-of-range cell id.
        let err = iall
            .update_cell(&engine, field.num_cells() + 3, field.cell_record(0))
            .expect_err("out-of-range cell id");
        assert!(err.is_invalid_cell(), "{err}");

        // A real update moves the cell into a distant band.
        let cell = 11;
        let rec = cf_field::GridCellRecord {
            vals: [777.0; 4],
            ..field.cell_record(cell)
        };
        iall.update_cell(&engine, cell, rec).expect("update");
        let stats = iall
            .query_stats(&engine, Interval::new(776.0, 778.0))
            .expect("query");
        assert_eq!(stats.cells_qualifying, 1);
        // remove + insert, not a second insert: still one entry per cell.
        assert_eq!(iall.num_intervals(), field.num_cells());
        // The re-frozen plane agrees with a paged-plane index that
        // applied the same update.
        let mut paged = IAll::build(&engine, &field).expect("build");
        let rec = cf_field::GridCellRecord {
            vals: [777.0; 4],
            ..field.cell_record(cell)
        };
        paged.update_cell(&engine, cell, rec).expect("update");
        for band in [
            Interval::new(5.0, 9.0),
            Interval::new(776.0, 778.0),
            Interval::new(-10.0, 1000.0),
        ] {
            let a = paged.query_stats(&engine, band).expect("query");
            let b = iall.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
            assert_eq!(a.area.to_bits(), b.area.to_bits(), "band {band}");
        }
    }

    #[test]
    fn filtering_visits_index_nodes() {
        let engine = StorageEngine::in_memory();
        let field = ramp_field(12);
        let iall = IAll::build(&engine, &field).expect("build");
        let stats = iall
            .query_stats(&engine, Interval::new(3.0, 4.0))
            .expect("query");
        assert!(stats.filter_nodes >= 1);
        assert!(iall.index_pages() >= 1);
        // Only qualifying cells are examined (unlike LinearScan).
        assert_eq!(stats.cells_examined, stats.cells_qualifying);
        assert!(stats.cells_examined < field.num_cells());
    }
}
