//! The benchmark's own span log: timers wrapped around calls into each
//! layer's public functions, kept in memory and written out at exit. The
//! per-layer metrics are distributions over these spans.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// Spans written to the trace file; the rest only feed the metrics.
const WRITE_CAP: usize = 20_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// In-memory spans of one traced run.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from now.
    pub fn new() -> Self {
        SpanLog { epoch: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent });
        id
    }

    /// Opens a span whose end is set later by [`SpanLog::close`], so
    /// children recorded meanwhile can name it as parent.
    pub fn open(&mut self, name: &'static str, start: Instant, parent: u32) -> u32 {
        self.record(name, start, start, parent)
    }

    /// Sets the end of an opened span.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Sum of the durations of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Writes the first spans as JSON lines
    /// (`name`, `start_ns`, `end_ns`, `parent`, `workload`).
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().take(WRITE_CAP).enumerate() {
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"workload\": \"{workload}\"}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
