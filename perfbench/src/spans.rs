//! The traced run's span list: the benchmark's own spans around its
//! calls into each crate, kept in memory and written out once at exit.

use contfield::storage::ExplainRecord;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's origin.
struct Span {
    id: u64,
    parent: Option<u64>,
    /// Spans of one request share it: the Q2 client's query number, or
    /// the plan index of a write.
    query: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// The program's EXPLAIN record of this query (`q2` spans).
    explain: Option<ExplainRecord>,
}

/// Spans of one thread. Each thread's log numbers its spans from its
/// own `id_base`, so logs merge without renumbering.
pub struct SpanLog {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, id_base: u64) -> Self {
        Self {
            origin,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a parent span whose children are recorded
    /// before it ends; [`SpanLog::close`] records it.
    pub fn open(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        query: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open();
        self.record(id, parent, name, query, start, end);
    }

    /// Records the root span whose id [`SpanLog::open`] reserved.
    pub fn close(&mut self, id: u64, name: &'static str, query: u64, start: Instant, end: Instant) {
        self.record(id, None, name, query, start, end);
    }

    fn record(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        query: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns,
            end_ns,
            explain: None,
        });
    }

    /// Attaches an EXPLAIN record to the most recent span.
    pub fn attach(&mut self, explain: Option<ExplainRecord>) {
        if let Some(span) = self.spans.last_mut() {
            span.explain = explain;
        }
    }
}

/// Writes every span of `logs`, one JSON object per line, ordered by
/// start time.
pub fn write_jsonl(path: &std::path::Path, logs: &[&SpanLog]) -> std::io::Result<()> {
    let mut all: Vec<&Span> = logs.iter().flat_map(|l| l.spans.iter()).collect();
    all.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::new();
    for s in all {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"query\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}",
            s.id, s.query, s.name, s.start_ns, s.end_ns
        );
        if let Some(e) = &s.explain {
            let _ = write!(out, ", \"explain\": {}", e.to_json().render());
        }
        out.push_str("}\n");
    }
    std::fs::write(path, out)
}
