//! The three workloads, their set-up, and the assembly of a run's
//! metrics. See `README.md` in this directory for why each workload
//! exists and which metric each layer figure should move.

use crate::check::{self, Tally};
use crate::gen;
use crate::layers;
use crate::load::{self, Counts, QueryLog, Source, WriteLog};
use crate::report::{mean, median, peak_rss_mb, quantile, sorted_in, Metric, Outcome};
use crate::spans::{self, SpanLog};
use crate::Args;
use contfield::field::{FieldModel, GridCellRecord, GridField};
use contfield::geom::Interval;
use contfield::index::{IHilbert, IngestConfig, LiveIngest, ValueIndex};
use contfield::storage::{PageCodec, StorageConfig, StorageEngine, PAGE_SIZE};
use contfield::workload::terrain::roseburg_standin;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Pool size for the in-memory workloads and the checks' copies: more
/// frames than the largest database here (~4.5k pages) plus what the
/// ingest drains allocate before the epoch GC recycles it.
pub const RESIDENT_POOL_PAGES: usize = 8192;
/// Each update moves each vertex value of its cell by at most this
/// share of the value domain.
pub const DRIFT: f64 = 0.01;
/// Open-loop write rate, updates per second: a few percent of what one
/// writer sustains, so latency shows stalls rather than saturation.
const INGEST_RATE: f64 = 2000.0;
/// Q2 bands per seed. The client cycles through them.
const BAND_COUNT: usize = 256;
/// A timed run sets up in two groups, one before the Q2 window and one
/// after the run's checks, so that `setup_s` samples the machine over
/// the same span as the Q2 figures; `setup_s` is the median of both.
/// The second group runs in a new process of this program: set-ups in
/// the heap a run leaves behind took about a quarter longer, and a
/// median over the two states flipped between them from run to run.
/// Each group sets up at least `SETUP_REPS` times and, while its set-ups
/// have taken less than `SETUP_BUDGET_S` in all, up to `SETUP_MAX_REPS`
/// times. Small databases set up in tens of milliseconds and need the
/// extra repetitions.
const SETUP_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_BUDGET_S: f64 = 3.0;
/// Bands compared against an independent computation after the run.
const CHECK_SAMPLE: usize = 16;
/// Bands of the simulated-latency self-test.
const LATENCY_PREFIX: usize = 8;
/// Uncontended `snapshot()` calls the traced run of a query workload
/// times after its drain.
const SNAPSHOT_PROBES: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmQ2,
    ColdQ2,
    IngestMixed,
}

/// What a workload runs on.
struct Spec {
    /// Terrain resolution: `roseburg_standin(k)` has `4^k` cells.
    k: u32,
    codec: PageCodec,
    file_backed: bool,
    pool_pages: usize,
    qinterval: f64,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "warm_q2" => Some(Self::WarmQ2),
            "cold_q2" => Some(Self::ColdQ2),
            "ingest_mixed" => Some(Self::IngestMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::WarmQ2 => "warm_q2",
            Self::ColdQ2 => "cold_q2",
            Self::IngestMixed => "ingest_mixed",
        }
    }

    fn spec(self) -> Spec {
        match self {
            Self::WarmQ2 => Spec {
                k: 9,
                codec: PageCodec::Raw,
                file_backed: false,
                pool_pages: RESIDENT_POOL_PAGES,
                qinterval: 0.01,
            },
            Self::ColdQ2 => Spec {
                k: 9,
                codec: PageCodec::Compressed,
                file_backed: true,
                pool_pages: StorageConfig::default().pool_pages,
                qinterval: 0.0,
            },
            Self::IngestMixed => Spec {
                k: 8,
                codec: PageCodec::Raw,
                file_backed: false,
                pool_pages: RESIDENT_POOL_PAGES,
                qinterval: 0.01,
            },
        }
    }
}

/// A built database and what building it cost.
struct Db {
    field: GridField,
    engine: StorageEngine,
    index: IHilbert<GridField>,
    /// Generate + build (+ flush when file-backed).
    setup: Duration,
    build: Duration,
    flush: Duration,
    /// The file-backed database's directory, removed with it (declared
    /// last, so it drops after the engine).
    dir: Option<DirGuard>,
}

/// Generates the terrain, builds I-Hilbert over it, and — file-backed —
/// flushes the pool once so the file holds the whole database. That is
/// the only flush of a run; queries and ingests never flush.
fn set_up(spec: &Spec, db_dir: &Path, log: Option<&mut SpanLog>) -> Result<Db, String> {
    let t0 = Instant::now();
    let field = roseburg_standin(spec.k);
    let t1 = Instant::now();
    let config = StorageConfig {
        pool_pages: spec.pool_pages,
        codec: spec.codec,
        ..StorageConfig::default()
    };
    let dir = spec.file_backed.then(|| DirGuard(db_dir.to_path_buf()));
    let engine = if spec.file_backed {
        let _ = std::fs::remove_dir_all(db_dir); // a stale directory of a killed run
        std::fs::create_dir_all(db_dir).map_err(|e| format!("{}: {e}", db_dir.display()))?;
        StorageEngine::open_file(db_dir.join("bench.db"), config)
            .map_err(|e| format!("open {}: {e}", db_dir.display()))?
    } else {
        StorageEngine::new(config)
    };
    let index = IHilbert::build(&engine, &field).map_err(|e| format!("build: {e}"))?;
    let t2 = Instant::now();
    if spec.file_backed {
        engine.flush().map_err(|e| format!("flush: {e}"))?;
    }
    let t3 = Instant::now();
    if let Some(log) = log {
        let setup = log.open();
        log.push("field.generate", 0, Some(setup), t0, t1);
        log.push("index.build", 0, Some(setup), t1, t2);
        if spec.file_backed {
            log.push("storage.flush", 0, Some(setup), t2, t3);
        }
        log.close(setup, "setup", 0, t0, t3);
    }
    Ok(Db {
        field,
        engine,
        index,
        setup: t3 - t0,
        build: t2 - t1,
        flush: if spec.file_backed {
            t3 - t2
        } else {
            Duration::ZERO
        },
        dir,
    })
}

/// One group of a timed run's set-ups (see `SETUP_REPS`), appending each
/// set-up time to `setups`; returns the last database. Each set-up
/// starts with no other database alive, so all of them allocate from the
/// same state.
fn set_up_group(spec: &Spec, db_dir: &Path, setups: &mut Vec<f64>) -> Result<Db, String> {
    let mut times = Vec::new();
    let mut db = None;
    while times.len() < SETUP_REPS
        || (times.len() < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(db.take());
        let rep_dir = db_dir.join(format!("rep{}", setups.len() + times.len()));
        let built = set_up(spec, &rep_dir, None)?;
        times.push(built.setup.as_secs_f64());
        db = Some(built);
    }
    setups.extend(times);
    Ok(db.expect("at least one set-up"))
}

/// This process's scratch directory for its databases.
fn db_dir(args: &Args) -> PathBuf {
    args.data_dir.join(format!(
        "db-{}-{}",
        args.workload.name(),
        std::process::id()
    ))
}

/// One group of set-ups and nothing else: what `--setups-only 1` runs.
pub fn setups_only(args: &Args) -> Result<Vec<f64>, String> {
    let db_dir = db_dir(args);
    let _cleanup = DirGuard(db_dir.clone());
    let mut setups = Vec::new();
    set_up_group(&args.workload.spec(), &db_dir, &mut setups)?;
    Ok(setups)
}

/// Runs one group of set-ups in a new process of this program and
/// returns their times, waiting for the process to end.
fn set_up_group_in_child(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .args(["--seconds", "1", "--setups-only", "1", "--data-dir"])
        .arg(&args.data_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| format!("set-up process printed {t:?}"))
        })
        .collect()
}

/// Removes a database directory when dropped.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The Q2 client's windows: one timed window, or for the traced run an
/// untraced half and a traced half with the pool and disk-read
/// counters it moved.
struct Windows {
    untraced: QueryLog,
    traced: Option<Traced>,
}

struct Traced {
    log: QueryLog,
    evictions: u64,
    /// Disk-read latency histogram `(count, sum ns)` deltas.
    disk_reads: (u64, f64),
}

/// Runs the Q2 client until `end`. With `trace_from`, the client runs
/// untraced until then and traced after, with the program's tracer on.
fn query_windows(
    source: Source<'_>,
    engine: &StorageEngine,
    bands: &[Interval],
    refs: Option<&[Counts]>,
    end: Instant,
    trace_from: Option<Instant>,
    log: &mut SpanLog,
) -> Windows {
    let Some(half) = trace_from else {
        return Windows {
            untraced: load::closed_loop(source, engine, bands, refs, 0, end, None),
            traced: None,
        };
    };
    let untraced = load::closed_loop(source, engine, bands, refs, 0, half, None);
    let disk_read_hist = || {
        engine
            .metrics()
            .histogram_stats("storage_disk_read_ns", &[])
            .unwrap_or((0, 0.0))
    };
    let (evictions0, reads0) = (engine.pool().evictions(), disk_read_hist());
    let tracer = engine.metrics().tracer();
    tracer.set_enabled(true);
    let first = untraced.attempted as usize;
    let traced = load::closed_loop(source, engine, bands, refs, first, end, Some(log));
    tracer.set_enabled(false);
    let (evictions1, reads1) = (engine.pool().evictions(), disk_read_hist());
    Windows {
        untraced,
        traced: Some(Traced {
            log: traced,
            evictions: evictions1 - evictions0,
            disk_reads: (reads1.0 - reads0.0, reads1.1 - reads0.1),
        }),
    }
}

/// Reference counts of every band, the sample answers for the
/// LinearScan check, and — traced run — the check that the program's
/// tracer changes no count.
fn references(
    index: &dyn ValueIndex,
    engine: &StorageEngine,
    bands: &[Interval],
    sample: &[Interval],
    trace: bool,
    tally: &mut Tally,
) -> Result<(Vec<Counts>, Vec<check::Answer>), String> {
    let refs = load::reference_pass(index, engine, bands)?;
    let answers = check::answers(index, engine, sample)?;
    if trace {
        let tracer = engine.metrics().tracer();
        tracer.set_enabled(true);
        let traced = load::reference_pass(index, engine, bands);
        tracer.set_enabled(false);
        tally.add(check::traced_equals_timed(&refs, &traced?));
    }
    Ok((refs, answers))
}

/// Pages in use (allocated minus free) in bytes.
fn allocated_bytes(engine: &StorageEngine) -> f64 {
    ((engine.num_pages() - engine.free_pages()) * PAGE_SIZE) as f64
}

/// Everything a run measured, for the metric assembly.
struct Measured {
    setups: Vec<f64>,
    build: Duration,
    flush: Duration,
    refs: Vec<Counts>,
    q2: Windows,
    writes: WriteLog,
    bytes_per_cell: f64,
    peak_rss_mb: f64,
    tally: Tally,
    layers: Option<LayerFigures>,
    /// Traced query workloads: the uncontended `snapshot()` probe.
    snapshots: Vec<Duration>,
}

/// The traced run's replays of single layers.
struct LayerFigures {
    order_s: f64,
    group_s: f64,
    crc_us: f64,
    decode_us: f64,
    field: layers::FieldReplay,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = args.workload.spec();
    let origin = Instant::now();
    let mut log = SpanLog::new(origin, 0);
    let mut writer_log = SpanLog::new(origin, 1 << 40);
    let db_dir = db_dir(args);
    let _cleanup = DirGuard(db_dir.clone());

    let mut setups = Vec::new();
    let db = if args.trace {
        let db = set_up(&spec, &db_dir.join("rep0"), Some(&mut log))?;
        setups.push(db.setup.as_secs_f64());
        db
    } else {
        set_up_group(&spec, &db_dir, &mut setups)?
    };
    // Directory guards are bound first so that they drop last, after
    // the engine whose file they remove.
    let Db {
        dir: _dir,
        field,
        engine,
        index,
        build,
        flush,
        ..
    } = db;
    let cells = field.num_cells();

    let domain = field.value_domain();
    let bands = gen::bands(args.seed, domain, spec.qinterval, BAND_COUNT);
    // Long enough for the open-loop writer's whole run, and for the
    // query workloads' writes up to the first drain (one write beyond the
    // delta ring's capacity).
    let plan_len =
        ((INGEST_RATE * args.seconds) as usize).max(IngestConfig::default().capacity + 1) + 1;
    let plan = gen::update_plan(args.seed, &field, DRIFT, plan_len);
    let mut tally =
        check::seed_determinism(args.seed, &field, domain, spec.qinterval, &bands, &plan);
    let sample: Vec<Interval> = (0..CHECK_SAMPLE)
        .map(|i| bands[i * BAND_COUNT / CHECK_SAMPLE])
        .collect();

    let seconds = args.seconds;
    let mut snapshots = Vec::new();
    // The live plane the run writes to, and the writes it received.
    let (live, writes, refs, answers, q2) = if args.workload == Workload::IngestMixed {
        // One open-loop writer beside one closed-loop reader of
        // `live.snapshot()`, for the whole run.
        let live = LiveIngest::new(&engine, index, IngestConfig::default())
            .map_err(|e| format!("live ingest: {e}"))?;
        let (refs, answers) = references(
            &*live.snapshot(),
            &engine,
            &bands,
            &sample,
            args.trace,
            &mut tally,
        )?;
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let trace_from = args
            .trace
            .then(|| start + Duration::from_secs_f64(seconds / 2.0));
        let (q2, writes) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                load::writer(
                    &live,
                    &engine,
                    &plan,
                    INGEST_RATE,
                    start,
                    end,
                    trace_from,
                    Some(&mut writer_log),
                )
            });
            let q2 = query_windows(
                Source::Live(&live),
                &engine,
                &bands,
                None,
                end,
                trace_from,
                &mut log,
            );
            (q2, writer.join().expect("writer thread panicked"))
        });
        (live, writes, refs, answers, q2)
    } else {
        let (refs, answers) = references(&index, &engine, &bands, &sample, args.trace, &mut tally)?;
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let trace_from = args
            .trace
            .then(|| start + Duration::from_secs_f64(seconds / 2.0));
        let q2 = query_windows(
            Source::Static(&index),
            &engine,
            &bands,
            Some(&refs),
            end,
            trace_from,
            &mut log,
        );
        // After the Q2 window, outside timing: the plan's writes go to
        // the queried database one at a time until the program's own
        // capacity-triggered drain repacks it once, so that the run-end
        // `bytes_per_cell` counts what a repack leaves allocated. The
        // traced run reports these writes and the drain as the ingest
        // layer, then times uncontended `snapshot()` calls.
        let live = LiveIngest::new(&engine, index, IngestConfig::default())
            .map_err(|e| format!("live ingest: {e}"))?;
        let writes =
            load::until_drain(&live, &engine, &plan, args.trace.then_some(&mut writer_log));
        if args.trace {
            snapshots = load::snapshot_probe(&live, SNAPSHOT_PROBES, &mut log);
        }
        (live, writes, refs, answers, q2)
    };

    // Run end: no snapshot is held any more, so pages still awaiting the
    // epoch GC are collected; what stays allocated is live or leaked.
    engine
        .collect_deferred()
        .map_err(|e| format!("collect deferred pages: {e}"))?;
    let bytes_per_cell = allocated_bytes(&engine) / cells as f64;
    let peak_rss_mb = peak_rss_mb();

    tally.add(check::against_linear_scan(&field, &answers, &sample)?);
    tally.add(check::against_sequential_replay(
        &field,
        &plan[..writes.attempted as usize],
        &writes.failed,
        &*live.snapshot(),
        &engine,
        &sample,
    )?);
    if args.trace && args.workload == Workload::WarmQ2 {
        tally.add(check::simulated_latency_prefix(
            &field,
            &bands[..LATENCY_PREFIX],
            &refs[..LATENCY_PREFIX],
        )?);
    }

    let layers = match &q2.traced {
        None => None,
        Some(traced) => {
            let split = layers::build_split(&field, &mut log);
            let records: Vec<GridCellRecord> = (0..cells).map(|c| field.cell_record(c)).collect();
            // Each band once, at its first traced query.
            let mut seen = vec![false; bands.len()];
            let replay: Vec<(u64, usize, Interval)> = traced
                .log
                .traced
                .iter()
                .filter(|q| !std::mem::replace(&mut seen[q.band], true))
                .map(|q| (q.query, q.band, bands[q.band]))
                .collect();
            // The ingest plane's data drifts during the run, so only the
            // static workloads hold the replay to the program's counts.
            let refs = (args.workload != Workload::IngestMixed).then_some(refs.as_slice());
            let field_figures = layers::field_replay(&records, &replay, refs, &mut log);
            tally.attempted += field_figures.bands;
            tally.failed += field_figures.mismatches;
            let crc_us = layers::crc_us_per_page(&engine, &mut log)?;
            let ordered: Vec<GridCellRecord> = split.order.iter().map(|&c| records[c]).collect();
            let decode_us = layers::decode_us_per_page(ordered, &mut log)?;
            let path = args.data_dir.join(format!(
                "spans-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            spans::write_jsonl(&path, &[&log, &writer_log])
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("perfbench: spans written to {}", path.display());
            Some(LayerFigures {
                order_s: split.order_s,
                group_s: split.group_s,
                crc_us,
                decode_us,
                field: field_figures,
            })
        }
    };

    if !args.trace {
        setups.extend(set_up_group_in_child(args)?);
    }

    let measured = Measured {
        setups,
        build,
        flush,
        refs,
        q2,
        writes,
        bytes_per_cell,
        peak_rss_mb,
        tally,
        layers,
        snapshots,
    };
    Ok(assemble(args.workload, &measured))
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Ascending durations in microseconds.
fn us(samples: &[Duration]) -> Vec<f64> {
    sorted_in(samples, 1e6)
}

fn assemble(workload: Workload, m: &Measured) -> Outcome {
    let q2 = &m.q2.untraced;
    let mut attempted = q2.attempted + m.writes.attempted + m.tally.attempted;
    let mut failed = q2.errors + q2.mismatches + m.writes.failed.len() as u64 + m.tally.failed;
    let metrics = match (&m.q2.traced, &m.layers) {
        (Some(traced), Some(layers)) => {
            attempted += traced.log.attempted;
            failed += traced.log.errors + traced.log.mismatches;
            let missing = traced
                .log
                .traced
                .iter()
                .filter(|q| q.explain.is_none())
                .count();
            if missing > 0 {
                eprintln!("perfbench: {missing} traced queries have no EXPLAIN record");
                failed += missing as u64;
            }
            layer_metrics(workload, m, traced, layers)
        }
        _ => end_to_end_metrics(workload, m),
    };
    // A metric without samples (NaN) means the run measured nothing.
    let measured_all = metrics.iter().all(|x| x.value.is_finite());
    if !measured_all {
        eprintln!("perfbench: some metrics have no samples");
    }
    Outcome {
        correct: failed == 0 && measured_all,
        attempted,
        failed,
        metrics,
    }
}

fn end_to_end_metrics(workload: Workload, m: &Measured) -> Vec<Metric> {
    let q2 = &m.q2.untraced;
    let lat_ms = sorted_in(&q2.latencies, 1e3);
    // Warm and cold: the exact mean over one pass of the band set. The
    // ingest plane's answers drift, so there it is the run's mean.
    let q2_pages = if workload == Workload::IngestMixed {
        q2.pages as f64 / q2.completed() as f64
    } else {
        mean(m.refs.iter().map(|c| c.pages as f64))
    };
    let mut metrics = vec![
        metric("setup_s", median(m.setups.clone()), "s"),
        metric("q2_p50_ms", quantile(&lat_ms, 0.50), "ms"),
        metric("q2_p99_ms", quantile(&lat_ms, 0.99), "ms"),
        metric(
            "q2_qps",
            q2.completed() as f64 / q2.elapsed.as_secs_f64(),
            "1/s",
        ),
        metric("q2_pages", q2_pages, "pages"),
        metric("bytes_per_cell", m.bytes_per_cell, "B"),
        metric("peak_rss_mb", m.peak_rss_mb, "MiB"),
    ];
    // Only the open-loop writer of `ingest_mixed` sends writes while
    // queries run; the query workloads' writes come after their window.
    if workload == Workload::IngestMixed {
        let ingest = us(&m.writes.due_latency);
        metrics.push(metric("ingest_p50_us", quantile(&ingest, 0.50), "us"));
        metrics.push(metric("ingest_p99_us", quantile(&ingest, 0.99), "us"));
    }
    metrics
}

fn layer_metrics(
    workload: Workload,
    m: &Measured,
    traced: &Traced,
    layers: &LayerFigures,
) -> Vec<Metric> {
    let queries = &traced.log.traced;
    let explains: Vec<_> = queries.iter().filter_map(|q| q.explain).collect();
    let per_query =
        |f: &dyn Fn(&contfield::storage::ExplainRecord) -> f64| mean(explains.iter().map(f));
    let stat_mean = |f: &dyn Fn(&load::TracedQuery) -> f64| mean(queries.iter().map(f));
    let examined: u64 = explains.iter().map(|e| e.cells_examined).sum();
    let qualifying: u64 = explains.iter().map(|e| e.cells_qualifying).sum();
    let (hits, misses) = queries.iter().fold((0u64, 0u64), |(h, m), q| {
        (h + q.stats.io.pool_hits, m + q.stats.io.pool_misses)
    });
    let n = queries.len().max(1) as f64;
    let (reads, read_ns) = traced.disk_reads;
    let field = &layers.field;
    let publish = us(&m.writes.publish);
    let untraced_p50 = quantile(&sorted_in(&m.q2.untraced.latencies, 1e3), 0.5);
    let traced_p50 = quantile(&sorted_in(&traced.log.latencies, 1e3), 0.5);
    let snapshot_us = if workload == Workload::IngestMixed {
        stat_mean(&|q| q.snapshot.as_secs_f64() * 1e6)
    } else {
        mean(m.snapshots.iter().map(|d| d.as_secs_f64() * 1e6))
    };
    vec![
        metric(
            "index.filter_us",
            per_query(&|e| e.filter_ns as f64 / 1e3),
            "us",
        ),
        metric(
            "index.refine_us",
            per_query(&|e| e.refine_ns as f64 / 1e3),
            "us",
        ),
        metric(
            "index.other_us",
            per_query(&|e| e.other_ns() as f64 / 1e3),
            "us",
        ),
        metric(
            "index.subfields",
            per_query(&|e| e.subfields as f64),
            "count",
        ),
        metric(
            "index.cells_examined",
            per_query(&|e| e.cells_examined as f64),
            "count",
        ),
        metric(
            "index.cells_qualifying",
            per_query(&|e| e.cells_qualifying as f64),
            "count",
        ),
        metric(
            "index.useful_ratio",
            qualifying as f64 / examined.max(1) as f64,
            "ratio",
        ),
        metric(
            "rtree.nodes",
            stat_mean(&|q| q.stats.filter_nodes as f64),
            "count",
        ),
        metric(
            "rtree.filter_pages",
            stat_mean(&|q| q.stats.filter_pages as f64),
            "pages",
        ),
        metric(
            "storage.pool_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        metric(
            "storage.disk_reads",
            stat_mean(&|q| q.stats.io.disk_reads as f64),
            "count",
        ),
        metric("storage.evictions", traced.evictions as f64 / n, "count"),
        metric(
            "storage.read_us",
            if reads == 0 {
                0.0
            } else {
                read_ns / reads as f64 / 1e3
            },
            "us",
        ),
        metric("storage.crc_us_per_page", layers.crc_us, "us"),
        metric("storage.decode_us_per_page", layers.decode_us, "us"),
        metric("storage.flush_s", m.flush.as_secs_f64(), "s"),
        metric(
            "field.kernel_us",
            field.kernel.as_secs_f64() * 1e6 / field.bands.max(1) as f64,
            "us",
        ),
        metric(
            "field.kernel_ns_per_cell",
            field.kernel.as_secs_f64() * 1e9 / field.qualifying.max(1) as f64,
            "ns",
        ),
        metric(
            "field.interval_ns_per_cell",
            field.interval.as_secs_f64() * 1e9 / field.cells_tested.max(1) as f64,
            "ns",
        ),
        metric(
            "field.regions",
            stat_mean(&|q| q.stats.num_regions as f64),
            "count",
        ),
        metric("build.order_s", layers.order_s, "s"),
        metric("build.group_s", layers.group_s, "s"),
        metric(
            "build.write_s",
            m.build.as_secs_f64() - layers.order_s - layers.group_s,
            "s",
        ),
        metric("ingest.publish_p50_us", quantile(&publish, 0.50), "us"),
        metric("ingest.publish_p99_us", quantile(&publish, 0.99), "us"),
        metric(
            "ingest.drain_ms",
            if m.writes.drains.is_empty() {
                0.0
            } else {
                mean(m.writes.drains.iter().map(|d| d.as_secs_f64() * 1e3))
            },
            "ms",
        ),
        metric("ingest.drains", m.writes.drains.len() as f64, "count"),
        metric(
            "ingest.delta_records",
            mean(m.writes.delta_records.iter().map(|&d| d as f64)),
            "count",
        ),
        metric("ingest.snapshot_us", snapshot_us, "us"),
        metric(
            "obs.trace_overhead",
            traced_p50 / untraced_p50 - 1.0,
            "ratio",
        ),
        metric(
            "loadgen.late_p99_us",
            if m.writes.late_idle.is_empty() {
                0.0 // a closed-loop writer is never idle
            } else {
                quantile(&us(&m.writes.late_idle), 0.99)
            },
            "us",
        ),
    ]
}
