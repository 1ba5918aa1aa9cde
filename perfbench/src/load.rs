//! Load generators: the closed-loop Q2 client and the open-loop ingest
//! writer. Both time against the real clock; the traced variants also
//! record spans and per-call layer figures.

use crate::spans::SpanLog;
use contfield::field::{GridCellRecord, GridField};
use contfield::geom::Interval;
use contfield::index::{IHilbert, LiveIngest, QueryStats, ValueIndex};
use contfield::storage::{ExplainRecord, StorageEngine};
use std::time::{Duration, Instant};

/// The exact counts a Q2 answer is checked by: logical pages, cells
/// examined and qualifying, regions, and the bits of the area sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub pages: u64,
    pub examined: usize,
    pub qualifying: usize,
    pub regions: usize,
    pub area_bits: u64,
}

impl Counts {
    pub fn of(s: &QueryStats) -> Self {
        Self {
            pages: s.io.logical_reads(),
            examined: s.cells_examined,
            qualifying: s.cells_qualifying,
            regions: s.num_regions,
            area_bits: s.area.to_bits(),
        }
    }
}

/// What the Q2 client queries: a static index, or the live plane's
/// current snapshot (acquired afresh for every query).
#[derive(Clone, Copy)]
pub enum Source<'a> {
    Static(&'a IHilbert<GridField>),
    Live(&'a LiveIngest<GridField>),
}

/// One traced query: its stats, the program's EXPLAIN record, and the
/// time taken to acquire the snapshot (zero on a static index).
pub struct TracedQuery {
    /// The client's query id (its loop index), shared by its spans.
    pub query: u64,
    pub band: usize,
    pub stats: QueryStats,
    pub explain: Option<ExplainRecord>,
    pub snapshot: Duration,
}

#[derive(Default)]
pub struct QueryLog {
    pub latencies: Vec<Duration>,
    pub pages: u64,
    pub attempted: u64,
    pub errors: u64,
    /// Answers that differ from the band's reference counts.
    pub mismatches: u64,
    pub elapsed: Duration,
    pub traced: Vec<TracedQuery>,
}

impl QueryLog {
    pub fn completed(&self) -> usize {
        self.latencies.len()
    }
}

/// Runs Q2 in a closed loop — the next query is sent when the previous
/// one returns — cycling through `bands` from `first` until `end`.
///
/// With `refs` (static data only) every answer is checked against its
/// band's reference counts. With `log` every query is traced: a span
/// per call into the index (plus the snapshot acquisition on the live
/// plane) and the program's EXPLAIN record of the query.
pub fn closed_loop(
    source: Source<'_>,
    engine: &StorageEngine,
    bands: &[Interval],
    refs: Option<&[Counts]>,
    first: usize,
    end: Instant,
    mut log: Option<&mut SpanLog>,
) -> QueryLog {
    let tracer = engine.metrics().tracer();
    let mut out = QueryLog::default();
    let began = Instant::now();
    let mut last_explain = tracer.last_explain().map(|e| e.query_id);
    let mut i = first;
    while Instant::now() < end {
        let band_idx = i % bands.len();
        let band = bands[band_idx];
        let t0 = Instant::now();
        let (result, t1) = match source {
            Source::Static(index) => (index.query_stats(engine, band), t0),
            Source::Live(live) => {
                let snap = live.snapshot();
                let t1 = Instant::now();
                (snap.query_stats(engine, band), t1)
            }
        };
        let t2 = Instant::now();
        out.attempted += 1;
        match result {
            Ok(stats) => {
                out.latencies.push(t2 - t0);
                out.pages += stats.io.logical_reads();
                if refs.is_some_and(|r| r[band_idx] != Counts::of(&stats)) {
                    out.mismatches += 1;
                }
                if let Some(log) = log.as_deref_mut() {
                    let explain = tracer
                        .last_explain()
                        .filter(|e| Some(e.query_id) != last_explain);
                    last_explain = explain.map(|e| e.query_id).or(last_explain);
                    let query = i as u64;
                    match source {
                        Source::Static(_) => {
                            log.push("q2", query, None, t0, t2);
                            log.attach(explain);
                        }
                        Source::Live(_) => {
                            let request = log.open();
                            log.push("ingest.snapshot", query, Some(request), t0, t1);
                            log.push("q2", query, Some(request), t1, t2);
                            log.attach(explain);
                            log.close(request, "request", query, t0, t2);
                        }
                    }
                    out.traced.push(TracedQuery {
                        query,
                        band: band_idx,
                        stats,
                        explain,
                        snapshot: t1 - t0,
                    });
                }
            }
            Err(e) => {
                out.errors += 1;
                eprintln!("perfbench: query {band} failed: {e}");
            }
        }
        i += 1;
    }
    out.elapsed = began.elapsed();
    out
}

/// One pass over every band, untimed: the reference counts each later
/// answer of a static index must repeat exactly.
pub fn reference_pass(
    index: &dyn ValueIndex,
    engine: &StorageEngine,
    bands: &[Interval],
) -> Result<Vec<Counts>, String> {
    bands
        .iter()
        .map(|&band| {
            index
                .query_stats(engine, band)
                .map(|s| Counts::of(&s))
                .map_err(|e| format!("reference query {band}: {e}"))
        })
        .collect()
}

#[derive(Default)]
pub struct WriteLog {
    /// Completion time of each successful write, from its due time.
    pub due_latency: Vec<Duration>,
    /// How late the generator sent writes that fell due while it idled.
    pub late_idle: Vec<Duration>,
    pub attempted: u64,
    /// Plan indices of writes the program refused.
    pub failed: Vec<usize>,
    /// Traced writes only: call time of writes that published without a
    /// drain, of writes that drained the delta ring first, and the delta
    /// ring length after each write.
    pub publish: Vec<Duration>,
    pub drains: Vec<Duration>,
    pub delta_records: Vec<usize>,
}

/// Waits for `due` by spinning; returns whether the generator was idle
/// (early). It does not sleep: a sleeping thread can wake a good part of
/// a millisecond late, above all on a virtual CPU, and that delay would
/// read as ingest latency.
fn wait_until(due: Instant) -> bool {
    if Instant::now() >= due {
        return false;
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    true
}

/// Sends write `i` of the plan, due at `due`, and records it in `out`.
///
/// A traced write also has its call time split by whether the program
/// drained its delta ring during the call (`status()` shows a new
/// repack), the ring length after it, and — with `log` — a span.
#[allow(clippy::too_many_arguments)]
fn send(
    live: &LiveIngest<GridField>,
    engine: &StorageEngine,
    i: usize,
    (cell, rec): (usize, GridCellRecord),
    due: Instant,
    traced: bool,
    log: Option<&mut SpanLog>,
    out: &mut WriteLog,
) {
    let repacks_before = traced.then(|| live.status().2);
    let t0 = Instant::now();
    let result = live.ingest(engine, cell, rec);
    let t1 = Instant::now();
    out.attempted += 1;
    match result {
        Ok(()) => out.due_latency.push(t1 - due),
        Err(e) => {
            eprintln!("perfbench: ingest of cell {cell} failed: {e}");
            out.failed.push(i);
        }
    }
    if let Some(before) = repacks_before {
        let (ring, _, repacks) = live.status();
        let drained = repacks != before;
        if drained {
            out.drains.push(t1 - t0);
        } else {
            out.publish.push(t1 - t0);
        }
        out.delta_records.push(ring);
        if let Some(log) = log {
            let name = if drained { "ingest.drain" } else { "ingest" };
            log.push(name, i as u64, None, t0, t1);
        }
    }
}

/// Sends the plan through [`LiveIngest::ingest`] in an open loop: write
/// `i` is due `i / rate` after `start` whether or not earlier writes
/// returned. Stops at the first write due at or after `end`. Writes due
/// at or after `trace_from` are traced (see [`send`]).
#[allow(clippy::too_many_arguments)]
pub fn writer(
    live: &LiveIngest<GridField>,
    engine: &StorageEngine,
    plan: &[(usize, GridCellRecord)],
    rate: f64,
    start: Instant,
    end: Instant,
    trace_from: Option<Instant>,
    mut log: Option<&mut SpanLog>,
) -> WriteLog {
    let mut out = WriteLog::default();
    for (i, &write) in plan.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if due >= end {
            break;
        }
        if wait_until(due) {
            out.late_idle.push(due.elapsed());
        }
        let traced = trace_from.is_some_and(|t| due >= t);
        send(
            live,
            engine,
            i,
            write,
            due,
            traced,
            log.as_deref_mut(),
            &mut out,
        );
    }
    out
}

/// Sends the plan one write at a time, each when the previous returns,
/// until a write drains the delta ring (or the plan ends). Every write
/// is traced; spans go to `log` if given.
pub fn until_drain(
    live: &LiveIngest<GridField>,
    engine: &StorageEngine,
    plan: &[(usize, GridCellRecord)],
    mut log: Option<&mut SpanLog>,
) -> WriteLog {
    let mut out = WriteLog::default();
    for (i, &write) in plan.iter().enumerate() {
        send(
            live,
            engine,
            i,
            write,
            Instant::now(),
            true,
            log.as_deref_mut(),
            &mut out,
        );
        if !out.drains.is_empty() {
            break;
        }
    }
    out
}

/// Times `count` uncontended [`LiveIngest::snapshot`] calls, each
/// acquiring the current epoch and releasing it.
pub fn snapshot_probe(
    live: &LiveIngest<GridField>,
    count: usize,
    log: &mut SpanLog,
) -> Vec<Duration> {
    (0..count)
        .map(|i| {
            let t0 = Instant::now();
            drop(std::hint::black_box(live.snapshot()));
            let t1 = Instant::now();
            log.push("ingest.snapshot", i as u64, None, t0, t1);
            t1 - t0
        })
        .collect()
}
