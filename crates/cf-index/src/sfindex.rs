//! Shared machinery of subfield-based indexes (I-Hilbert and the
//! Interval-Quadtree ablation): a cell file in a chosen linear order,
//! subfields as `[start, end)` record ranges, and a paged 1-D R\*-tree
//! over the subfield intervals whose leaf payloads are the packed
//! ranges (paper Fig. 6: leaf entries store `ptr_start, ptr_end`).

use crate::stats::{refine_cell, QueryMetrics, QueryStats, RegionSink};
use crate::subfield::{build_subfields, Subfield, SubfieldConfig};
use cf_field::FieldModel;
use cf_geom::{Aabb, Interval};
use cf_rtree::{bulk_load_str, FrozenTree, PagedRTree, RStarTree, RTreeConfig};
use cf_storage::{
    answer_digest, CellFile, CfResult, HeatKind, MetricsRegistry, RecordFile, Stopwatch,
    StorageEngine, TraceEvent,
};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// How the subfield R\*-tree is constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeBuild {
    /// One-by-one R\* insertion (what the paper's system does).
    #[default]
    Dynamic,
    /// Packed bulk loading (Kamel–Faloutsos) — the build-time ablation.
    Bulk,
}

/// Which representation of the interval R\*-tree serves the filtering
/// step of queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryPlane {
    /// Search the paged tree through the buffer pool — the paper's
    /// disk-resident cost model, where filter I/O counts as page reads.
    #[default]
    Paged,
    /// Search a frozen cache-resident flattening of the tree
    /// ([`cf_rtree::FrozenTree`]): identical answers and visited-node
    /// counts (`QueryStats::filter_nodes`), but the filter step touches
    /// no pages, so `QueryStats::filter_pages` reports 0.
    Frozen,
}

/// Bucket bounds of the `index_health_cost_c` histogram. `C = P/SI` is
/// 1.0 for a single-cell subfield and falls toward 0 as a subfield
/// absorbs more cells of similar values, so the deciles of `(0, 1]`
/// resolve the whole distribution.
const COST_BUCKETS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// A cell file in subfield order plus the interval tree over subfields.
pub(crate) struct SubfieldIndex<F: FieldModel> {
    pub(crate) file: CellFile<F::CellRec>,
    pub(crate) tree: PagedRTree<1>,
    /// Subfield catalog (interval + record range), kept for incremental
    /// maintenance — the system-catalog analogue of Fig. 6's metadata.
    pub(crate) subfields: Vec<Subfield>,
    /// On-disk copy of the subfield catalog (for database reopen).
    pub(crate) sf_file: CellFile<Subfield>,
    /// File position → subfield index.
    pub(crate) pos_to_subfield: Vec<u32>,
    /// Frozen query plane: when present, the filtering step searches
    /// this flattened copy of `tree` instead of faulting tree pages.
    frozen: Option<FrozenTree<1>>,
    /// `index` label value of every metric this index publishes
    /// (overridden by the owning method — `"I-Hilbert"`, `"I-Quad"` — via
    /// [`SubfieldIndex::set_metric_label`]).
    metric_label: String,
    /// Space-filling-curve name reported in EXPLAIN records (set by the
    /// owning method via [`SubfieldIndex::set_curve_label`]).
    curve_label: &'static str,
    /// Cached registry handles, wired against the first engine queried.
    qmetrics: OnceLock<QueryMetrics>,
    _field: PhantomData<fn() -> F>,
}

/// Sorts retrieved `[start, end)` record ranges and merges touching
/// neighbors into maximal runs.
///
/// Subfields adjacent on the Hilbert-ordered file hold cells of similar
/// values, so a band query typically retrieves *runs* of neighbors;
/// reading each subfield separately would fetch every straddled page
/// boundary twice. Merging first makes the estimation step's page cost
/// `ceil(run_cells / per_page) + 1` per run instead of per subfield.
pub(crate) fn coalesce_ranges(mut ranges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    ranges.sort_unstable();
    let mut runs: Vec<(u32, u32)> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match runs.last_mut() {
            Some(last) if r.0 <= last.1 => last.1 = last.1.max(r.1),
            _ => runs.push(r),
        }
    }
    runs
}

impl<F: FieldModel> SubfieldIndex<F> {
    /// Writes cells in `order` and indexes `subfields` (expressed in
    /// positions of `order`).
    pub(crate) fn build(
        engine: &StorageEngine,
        field: &F,
        order: &[usize],
        subfields: &[Subfield],
        tree_build: TreeBuild,
    ) -> CfResult<Self> {
        debug_assert_eq!(order.len(), field.num_cells());
        let records: Vec<F::CellRec> = order.iter().map(|&c| field.cell_record(c)).collect();
        let file = CellFile::create(engine, records)?;
        Self::finish(engine, file, subfields, tree_build)
    }

    /// Parallel [`SubfieldIndex::build`]: record materialization fans
    /// out over work-stealing chunks and the cell file's pages are
    /// written by [`RecordFile::create_parallel`]. The page-allocation
    /// call sequence is identical to the sequential build (cell-file
    /// run, then tree pages, then subfield catalog), so the resulting
    /// engine state is byte-identical. The subfield R\*-tree itself is
    /// built sequentially — it holds one entry per *subfield*, orders of
    /// magnitude fewer than cells.
    pub(crate) fn build_par(
        engine: &StorageEngine,
        field: &F,
        order: &[usize],
        subfields: &[Subfield],
        tree_build: TreeBuild,
        threads: usize,
    ) -> CfResult<Self>
    where
        F: Sync,
    {
        debug_assert_eq!(order.len(), field.num_cells());
        let records: Vec<F::CellRec> =
            crate::par::par_map_chunks(order.len(), threads, |r, out| {
                out.extend(order[r].iter().map(|&c| field.cell_record(c)));
            });
        let file = CellFile::create_parallel(engine, &records, threads)?;
        Self::finish(engine, file, subfields, tree_build)
    }

    /// Shared tail of both builds: index the subfield intervals and
    /// persist the catalog.
    fn finish(
        engine: &StorageEngine,
        file: CellFile<F::CellRec>,
        subfields: &[Subfield],
        tree_build: TreeBuild,
    ) -> CfResult<Self> {
        let config = RTreeConfig::page_sized::<1>();
        let tree = match tree_build {
            TreeBuild::Dynamic => {
                let mut tree: RStarTree<1> = RStarTree::new(config);
                for sf in subfields {
                    tree.insert(sf.interval.into(), sf.pack());
                }
                tree
            }
            TreeBuild::Bulk => bulk_load_str(
                subfields
                    .iter()
                    .map(|sf| (sf.interval.into(), sf.pack()))
                    .collect(),
                config,
            ),
        };
        let tree = PagedRTree::persist(&tree, engine)?;
        let sf_file = CellFile::create(engine, subfields.to_vec())?;
        Ok(Self::assemble(file, tree, subfields.to_vec(), sf_file))
    }

    /// Builds an index over records already materialized by the caller
    /// (the live-ingest repacker, which reads the old base and applies
    /// its delta overlays before regrouping). The records must be in
    /// the intended file order; `subfields` is expressed in positions
    /// of that order.
    pub(crate) fn build_from_records(
        engine: &StorageEngine,
        records: Vec<F::CellRec>,
        subfields: &[Subfield],
        tree_build: TreeBuild,
    ) -> CfResult<Self> {
        let file = CellFile::create(engine, records)?;
        Self::finish(engine, file, subfields, tree_build)
    }

    /// Reattaches to an index persisted in `engine` from its catalog
    /// handles, reading the subfield metadata back from its on-disk
    /// copy.
    pub(crate) fn open(
        engine: &StorageEngine,
        file: CellFile<F::CellRec>,
        tree: PagedRTree<1>,
        sf_file: CellFile<Subfield>,
    ) -> CfResult<Self> {
        let subfields = sf_file.read_range(engine, 0..sf_file.len())?;
        Ok(Self::assemble(file, tree, subfields, sf_file))
    }

    fn assemble(
        file: CellFile<F::CellRec>,
        tree: PagedRTree<1>,
        subfields: Vec<Subfield>,
        sf_file: CellFile<Subfield>,
    ) -> Self {
        let mut pos_to_subfield = vec![0u32; file.len()];
        for (i, sf) in subfields.iter().enumerate() {
            for pos in sf.start..sf.end {
                pos_to_subfield[pos as usize] = i as u32;
            }
        }
        Self {
            file,
            tree,
            subfields,
            sf_file,
            pos_to_subfield,
            frozen: None,
            metric_label: "subfield".to_owned(),
            curve_label: "-",
            qmetrics: OnceLock::new(),
            _field: PhantomData,
        }
    }

    /// Sets the `index` label of this index's metrics. Must be called
    /// before the first query (the label is baked into the cached
    /// handles then); the owning method does so right after build/open.
    pub(crate) fn set_metric_label(&mut self, label: impl Into<String>) {
        self.metric_label = label.into();
    }

    /// Sets the curve name EXPLAIN records report for this index.
    pub(crate) fn set_curve_label(&mut self, curve: &'static str) {
        self.curve_label = curve;
    }

    /// The curve name EXPLAIN records report for this index.
    pub(crate) fn curve_label(&self) -> &'static str {
        self.curve_label
    }

    fn query_metrics(&self, registry: &MetricsRegistry) -> &QueryMetrics {
        self.qmetrics
            .get_or_init(|| QueryMetrics::wire(registry, &self.metric_label))
    }

    /// Publishes the derived index-health gauges, labeled with this
    /// index's method name:
    ///
    /// * `index_health_subfields` — subfield count;
    /// * `index_health_mean_interval_len` — mean subfield interval size
    ///   `L` (with the paper's `+1` base, the numerator of `C = P/SI`);
    /// * `index_health_mean_cells_per_subfield` — clustering quality
    ///   proxy: the better the curve clusters similar values, the more
    ///   cells each subfield absorbs before the cost rule closes it.
    ///
    /// When the per-subfield cost distribution is known (`costs`, exact
    /// only at build time, when the per-cell intervals are in hand),
    /// also sets `index_health_mean_cost_c` and fills the
    /// `index_health_cost_c` histogram. Indexes reopened from a catalog
    /// publish the gauges but leave the cost distribution empty rather
    /// than re-reading the whole cell file.
    pub(crate) fn publish_health(&self, registry: &MetricsRegistry, costs: Option<&[f64]>) {
        let labels: &[(&str, &str)] = &[("index", &self.metric_label)];
        // (Re)publishing health is where the cell-file length is
        // authoritative — fix the spatial heatmap's bucket width so
        // examined/qualifying heat buckets span exactly this file.
        registry.heat().set_cell_domain(self.file.len() as u64);
        let n = self.subfields.len();
        registry
            .gauge_with("index_health_subfields", labels)
            .set(n as f64);
        if n > 0 {
            let mean_len = self
                .subfields
                .iter()
                .map(|sf| sf.interval.size_with_base(1.0))
                .sum::<f64>()
                / n as f64;
            registry
                .gauge_with("index_health_mean_interval_len", labels)
                .set(mean_len);
            registry
                .gauge_with("index_health_mean_cells_per_subfield", labels)
                .set(self.file.len() as f64 / n as f64);
        }
        // Storage-side geometry of the cell file, the denominator of the
        // paper's page-count metric: how many cells each data page holds
        // and how much smaller the file is than its fixed-slot layout.
        registry
            .gauge_with("storage_cells_per_page", labels)
            .set(self.file.records_per_page());
        let raw_pages = self
            .file
            .len()
            .div_ceil(RecordFile::<F::CellRec>::records_per_page());
        registry
            .gauge_with("storage_compression_ratio", labels)
            .set(raw_pages as f64 / self.file.data_pages().max(1) as f64);
        if let Some(costs) = costs {
            // The mean is only meaningful over the full distribution
            // (build time); incremental updates contribute single costs
            // to the histogram without skewing the build-time mean.
            if costs.len() == n {
                registry
                    .gauge_with("index_health_mean_cost_c", labels)
                    .set(costs.iter().sum::<f64>() / n.max(1) as f64);
            }
            let hist = registry.histogram_with("index_health_cost_c", labels, &COST_BUCKETS);
            for &c in costs {
                hist.observe(c);
            }
        }
    }

    /// `(interval, data pages spanned)` of every subfield — the spans
    /// the cost-model advisor scores. Pages come from the cell file's
    /// measured page geometry (the fixed slot grid for raw pages, the
    /// page directory for compressed ones), no I/O.
    pub(crate) fn subfield_page_spans(&self) -> Vec<(Interval, f64)> {
        self.subfields
            .iter()
            .map(|sf| {
                let pages = self.file.pages_in_range(sf.start as usize..sf.end as usize);
                (sf.interval, pages as f64)
            })
            .collect()
    }

    /// `(start, end, data pages spanned)` of every subfield — the
    /// record-position spans the *spatial* cost model scores against
    /// the heatmap's position buckets. Same page geometry as
    /// [`SubfieldIndex::subfield_page_spans`], no I/O.
    pub(crate) fn subfield_record_spans(&self) -> Vec<(u32, u32, f64)> {
        self.subfields
            .iter()
            .map(|sf| {
                let pages = self.file.pages_in_range(sf.start as usize..sf.end as usize);
                (sf.start, sf.end, pages as f64)
            })
            .collect()
    }

    /// Regroups the *unchanged* cell file into fresh subfields under
    /// `config`, rebuilding the interval tree and the on-disk subfield
    /// catalog. Cell records never move, so query answers are
    /// byte-identical before and after — only the filter cost changes.
    /// Returns `false` (leaving everything untouched) when the new
    /// grouping equals the current one.
    ///
    /// The old tree and subfield-catalog pages are handed back to the
    /// engine's freelist once the replacements are fully written: later
    /// allocations reuse the holes, and a run at the end of a
    /// file-backed engine shrinks the file. (Pages the old tree gained
    /// from incremental splits after its own persist are not tracked
    /// and stay leaked until a full rebuild.) Freeing the old pages
    /// invalidates any database catalog saved *before* the repack —
    /// callers that persist the index must save again afterwards.
    /// `refine` is a post-grouping refinement pass: it receives the
    /// greedy value-model grouping plus the per-position intervals and
    /// may split subfields further (the spatial advisor cuts at
    /// heat-bucket boundaries; pass `|sfs, _| sfs` for the pure value
    /// model). The refined grouping must cover the same positions in
    /// the same order — only boundaries may move.
    pub(crate) fn repack_refined(
        &mut self,
        engine: &StorageEngine,
        config: SubfieldConfig,
        refine: impl FnOnce(Vec<Subfield>, &[Interval]) -> Vec<Subfield>,
    ) -> CfResult<bool> {
        let mut intervals: Vec<Interval> = Vec::with_capacity(self.file.len());
        self.file
            .for_each_in_range(engine, 0..self.file.len(), |_, rec| {
                intervals.push(F::record_interval(&rec));
            })?;
        let subfields = refine(build_subfields(&intervals, config), &intervals);
        if subfields == self.subfields {
            return Ok(false);
        }
        let tree_config = RTreeConfig::page_sized::<1>();
        let mut tree: RStarTree<1> = RStarTree::new(tree_config);
        for sf in &subfields {
            tree.insert(sf.interval.into(), sf.pack());
        }
        let old_tree_run = self.tree.page_run();
        let old_sf_run = (self.sf_file.first_page(), self.sf_file.num_pages());
        self.tree = PagedRTree::persist(&tree, engine)?;
        self.sf_file = CellFile::create(engine, subfields.clone())?;
        // Both replacements exist on fresh pages now; the old tree and
        // subfield catalog are dead. Return them to the freelist (a
        // failure here would leak pages, never double-allocate).
        if let Some((first, pages)) = old_tree_run {
            engine.free_run(first, pages)?;
        }
        engine.free_run(old_sf_run.0, old_sf_run.1)?;
        for (i, sf) in subfields.iter().enumerate() {
            for pos in sf.start..sf.end {
                self.pos_to_subfield[pos as usize] = i as u32;
            }
        }
        self.subfields = subfields;
        // The frozen plane is a copy of the tree — rebuild it too.
        if self.frozen.is_some() {
            self.freeze(engine)?;
        }
        // Health gauges derive from the subfield catalog; refresh them
        // with the exact new cost distribution (intervals are in hand).
        let costs: Vec<f64> = self
            .subfields
            .iter()
            .map(|sf| {
                let si: f64 = intervals[sf.start as usize..sf.end as usize]
                    .iter()
                    .map(|iv| iv.size_with_base(config.base))
                    .sum();
                (sf.interval.size_with_base(config.base) + config.query_len) / si
            })
            .collect();
        self.publish_health(engine.metrics(), Some(&costs));
        Ok(true)
    }

    /// Enters the frozen query plane: flattens the paged tree into a
    /// cache-resident [`FrozenTree`] (one pass over its pages) that the
    /// filtering step searches from then on. Incremental updates that
    /// mutate the tree re-freeze it automatically.
    pub(crate) fn freeze(&mut self, engine: &StorageEngine) -> CfResult<()> {
        self.frozen = Some(self.tree.freeze(engine)?);
        Ok(())
    }

    /// Whether the frozen query plane is active.
    pub(crate) fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// Runs the filtering step on whichever plane is active, feeding
    /// every retrieved subfield's record range to `ranges`.
    pub(crate) fn filter_step(
        &self,
        engine: &StorageEngine,
        band: Interval,
        ranges: &mut Vec<(u32, u32)>,
    ) -> CfResult<cf_rtree::SearchStats> {
        let mut on_hit = |data: u64, mbr: &Aabb<1>| {
            let sf = Subfield::unpack(data, Interval::new(mbr.lo[0], mbr.hi[0]));
            ranges.push((sf.start, sf.end));
        };
        match &self.frozen {
            Some(frozen) => Ok(frozen.search(&band.into(), &mut on_hit)),
            None => self.tree.search(engine, &band.into(), &mut on_hit),
        }
    }

    /// Parallel variant of the two-step query: the filtering step runs
    /// on the calling thread, then the retrieved subfield ranges are
    /// partitioned across `threads` worker threads that each run the
    /// estimation step over their share (the storage engine is fully
    /// thread-safe, so workers fault pages concurrently).
    ///
    /// Region geometry is not collected — this is the analytics path
    /// (counts + exact area). Results are identical to
    /// [`SubfieldIndex::query_into`].
    pub(crate) fn par_query_stats(
        &self,
        engine: &StorageEngine,
        band: Interval,
        threads: usize,
    ) -> CfResult<QueryStats> {
        assert!(threads >= 1, "need at least one thread");
        let tracer = engine.metrics().tracer();
        let query_id = tracer.is_enabled().then(|| tracer.next_query_id());
        let query_clock = Stopwatch::start();
        let before = cf_storage::thread_io_stats();
        let mut stats = QueryStats::default();

        let filter_clock = Stopwatch::start();
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        let search = self.filter_step(engine, band, &mut ranges)?;
        stats.filter_nodes = search.nodes_visited;
        stats.intervals_retrieved = ranges.len();
        stats.filter_pages = (cf_storage::thread_io_stats() - before).logical_reads();
        let filter_ns = filter_clock.elapsed_ns();
        let refine_clock = Stopwatch::start();

        // Balance by cell count: assign maximal runs to the least-loaded
        // worker, largest first (LPT heuristic). Runs (not raw subfield
        // ranges) keep the sequential path's page cost: a run split
        // across workers would re-read its straddle pages.
        let mut by_size = coalesce_ranges(ranges);
        // Examined heat covers every cell of every run regardless of
        // which worker reads it; bump once here rather than per worker.
        let heat = engine.metrics().heat();
        for &(s, e) in &by_size {
            heat.table(HeatKind::Examined)
                .bump_range(u64::from(s), u64::from(e));
        }
        by_size.sort_by_key(|&(s, e)| std::cmp::Reverse(e - s));
        let mut shares: Vec<Vec<(u32, u32)>> = vec![Vec::new(); threads];
        let mut loads = vec![0u64; threads];
        for r in by_size {
            let k = loads
                .iter()
                .enumerate()
                .min_by_key(|&(_, &l)| l)
                .map(|(i, _)| i)
                .expect("threads >= 1");
            loads[k] += u64::from(r.1 - r.0);
            shares[k].push(r);
        }

        let partials: Vec<CfResult<QueryStats>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .iter()
                .map(|share| {
                    scope.spawn(move || -> CfResult<QueryStats> {
                        // Worker I/O lands in the worker's thread tally,
                        // so snapshot it here and carry the delta back.
                        let worker_before = cf_storage::thread_io_stats();
                        let mut part = QueryStats::default();
                        let mut runs: Vec<std::ops::Range<usize>> =
                            share.iter().map(|&(s, e)| s as usize..e as usize).collect();
                        runs.sort_by_key(|r| r.start);
                        let heat = engine.metrics().heat();
                        self.file.for_each_in_ranges(engine, &runs, |pos, rec| {
                            part.cells_examined += 1;
                            if F::record_interval(&rec).intersects(band) {
                                heat.table(HeatKind::Qualifying).bump(pos as u64);
                                refine_cell::<F>(&rec, band, &mut part, &mut None);
                            }
                        })?;
                        part.io = cf_storage::thread_io_stats() - worker_before;
                        Ok(part)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(result) => result,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        for p in partials {
            let p = p?;
            stats.cells_examined += p.cells_examined;
            stats.cells_qualifying += p.cells_qualifying;
            stats.num_regions += p.num_regions;
            stats.area += p.area;
            stats.io = stats.io + p.io;
        }
        // Filter-step I/O happened on this thread; estimation I/O came
        // back with the worker partials. The sum is exact per query even
        // while other queries run concurrently on the same engine.
        stats.io = stats.io + (cf_storage::thread_io_stats() - before);
        let refine_ns = refine_clock.elapsed_ns();
        let query_ns = query_clock.elapsed_ns();
        self.query_metrics(engine.metrics())
            .publish(&stats, band, query_ns, filter_ns, refine_ns);
        if let Some(query_id) = query_id {
            self.trace_query(
                engine, query_id, band, &stats, query_ns, filter_ns, refine_ns,
            );
        }
        Ok(stats)
    }

    /// Rewrites the cell record at file position `pos` and incrementally
    /// maintains its subfield's interval in the paged R\*-tree.
    pub(crate) fn update_record(
        &mut self,
        engine: &StorageEngine,
        pos: usize,
        record: &F::CellRec,
    ) -> CfResult<()> {
        self.file.put(engine, pos, record)?;
        let sf_idx = self.pos_to_subfield[pos] as usize;
        let sf = self.subfields[sf_idx];
        // Recompute the subfield interval from its (updated) records,
        // accumulating SI (the denominator of `C = P/SI`) in the same
        // scan so the health metrics get the subfield's fresh cost.
        let mut new_iv: Option<Interval> = None;
        let mut si = 0.0;
        self.file
            .for_each_in_range(engine, sf.start as usize..sf.end as usize, |_, rec| {
                let iv = F::record_interval(&rec);
                si += iv.size_with_base(1.0);
                new_iv = Some(match new_iv {
                    Some(a) => a.union(iv),
                    None => iv,
                });
            })?;
        let new_iv = new_iv.expect("subfields are non-empty");
        if new_iv != sf.interval {
            let removed = self.tree.remove(engine, &sf.interval.into(), sf.pack())?;
            debug_assert!(removed, "stale subfield entry must exist in the tree");
            self.tree.insert(engine, new_iv.into(), sf.pack())?;
            self.subfields[sf_idx].interval = new_iv;
            self.sf_file.put(engine, sf_idx, &self.subfields[sf_idx])?;
            // The frozen plane is a copy of the tree — keep it current.
            if self.frozen.is_some() {
                self.freeze(engine)?;
            }
            // Gauges derive from the subfield catalog, which just
            // changed; the touched subfield's new cost joins the
            // distribution (build-time costs stay, as a history).
            let cost = new_iv.size_with_base(1.0) / si;
            self.publish_health(engine.metrics(), Some(&[cost]));
        }
        Ok(())
    }

    /// The two-step query of §3.2: filter subfields through the R\*-tree,
    /// then read each retrieved record range and estimate exact regions.
    pub(crate) fn query_into(
        &self,
        engine: &StorageEngine,
        band: Interval,
        sink: RegionSink<'_>,
    ) -> CfResult<QueryStats> {
        let mut ranges = Vec::new();
        let mut runs = Vec::new();
        self.query_impl(engine, band, &mut ranges, &mut runs, sink)
    }

    /// [`SubfieldIndex::query_into`] minus region geometry, reusing the
    /// caller's scratch buffers (the batch executor's hot loop).
    pub(crate) fn query_stats_scratch(
        &self,
        engine: &StorageEngine,
        band: Interval,
        scratch: &mut crate::stats::QueryScratch,
    ) -> CfResult<QueryStats> {
        let crate::stats::QueryScratch { ranges, runs, .. } = scratch;
        self.query_impl(engine, band, ranges, runs, None)
    }

    fn query_impl(
        &self,
        engine: &StorageEngine,
        band: Interval,
        ranges: &mut Vec<(u32, u32)>,
        runs: &mut Vec<std::ops::Range<usize>>,
        mut sink: RegionSink<'_>,
    ) -> CfResult<QueryStats> {
        let tracer = engine.metrics().tracer();
        let query_id = tracer.is_enabled().then(|| tracer.next_query_id());
        let query_clock = Stopwatch::start();
        let before = cf_storage::thread_io_stats();
        let mut stats = QueryStats::default();

        // Step 1 (filtering): subfields whose interval intersects w.
        let filter_clock = Stopwatch::start();
        ranges.clear();
        let search = self.filter_step(engine, band, ranges)?;
        stats.filter_nodes = search.nodes_visited;
        stats.intervals_retrieved = ranges.len();
        stats.filter_pages = (cf_storage::thread_io_stats() - before).logical_reads();
        let filter_ns = filter_clock.elapsed_ns();

        // Step 2 (estimation): read the contiguous cell runs, merging
        // adjacent subfields and visiting every data page exactly once
        // (same merge rule as `coalesce_ranges`, building runs in place).
        let refine_clock = Stopwatch::start();
        ranges.sort_unstable();
        runs.clear();
        for &(s, e) in ranges.iter() {
            match runs.last_mut() {
                Some(last) if s as usize <= last.end => last.end = last.end.max(e as usize),
                _ => runs.push(s as usize..e as usize),
            }
        }
        // Spatial heat: one range bump per run covers every examined
        // cell (the run sum equals `cells_examined` exactly); qualifying
        // heat lands per cell inside the loop. No-ops under `obs-off`.
        let heat = engine.metrics().heat();
        for run in runs.iter() {
            heat.table(HeatKind::Examined)
                .bump_range(run.start as u64, run.end as u64);
        }
        self.file.for_each_in_ranges(engine, runs, |pos, rec| {
            stats.cells_examined += 1;
            if F::record_interval(&rec).intersects(band) {
                heat.table(HeatKind::Qualifying).bump(pos as u64);
                refine_cell::<F>(&rec, band, &mut stats, &mut sink);
            }
        })?;
        stats.io = cf_storage::thread_io_stats() - before;
        let refine_ns = refine_clock.elapsed_ns();
        let query_ns = query_clock.elapsed_ns();

        self.query_metrics(engine.metrics())
            .publish(&stats, band, query_ns, filter_ns, refine_ns);
        if let Some(query_id) = query_id {
            self.trace_query(
                engine, query_id, band, &stats, query_ns, filter_ns, refine_ns,
            );
        }
        Ok(stats)
    }

    /// Records the query's phase breakdown into the trace ring, its
    /// [`cf_storage::ExplainRecord`] into the EXPLAIN ring, and — when
    /// it crossed the slow-query threshold — a full
    /// [`cf_storage::SlowQueryReport`] with the EXPLAIN attached. Only
    /// called when tracing is enabled, so the ordinary hot path never
    /// builds these events.
    #[allow(clippy::too_many_arguments)]
    fn trace_query(
        &self,
        engine: &StorageEngine,
        query_id: u64,
        band: Interval,
        stats: &QueryStats,
        query_ns: u64,
        filter_ns: u64,
        refine_ns: u64,
    ) {
        let tracer = engine.metrics().tracer();
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
        let explain = crate::explain_record(
            query_id,
            &self.metric_label,
            "probe",
            if self.is_frozen() { "frozen" } else { "paged" },
            self.curve_label,
            band,
            stats,
            query_ns,
            filter_ns,
            refine_ns,
            0,
        );
        // Traced queries also enter the flight recorder: the band, plane
        // and an answer digest are enough to replay and re-verify the
        // query later (`repro replay`).
        engine.metrics().recorder().record(
            band.lo,
            band.hi,
            if self.is_frozen() { "frozen" } else { "paged" },
            self.curve_label,
            0,
            answer_digest(
                stats.cells_examined as u64,
                stats.cells_qualifying as u64,
                stats.num_regions as u64,
                stats.area,
            ),
        );
        tracer.finish_query_explained(query_id, query_ns, &phases, Some(explain));
    }
}
