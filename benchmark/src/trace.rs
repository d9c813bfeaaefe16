//! In-memory spans recorded by the benchmark around its calls into each crate.
//!
//! A span has a name, the request (query round or served request) it belongs
//! to, the span that caused it, start and end on one monotonic clock, and a
//! work count measured at the same boundary. Spans stay in memory while the
//! workload runs and are written out once at the end. Per-layer metrics are
//! aggregated from them by name.

use std::io::Write;
use std::time::Instant;

use crate::stats::Samples;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary, e.g. `gtree.search`.
    pub name: &'static str,
    /// The request this span belongs to.
    pub request: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work done inside the span (settled vertices, candidates, …), 0 if none.
    pub count: u64,
}

/// The span log. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; with `enabled` false every `record` is a no-op.
    pub fn new(enabled: bool) -> Tracer {
        let capacity = if enabled { 1 << 18 } else { 0 };
        Tracer { enabled, origin: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the tracer's origin to `at`.
    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from `start` to `end`, returning its index.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            count,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let start = Instant::now();
        let (value, count) = f();
        self.record(name, request, parent, start, Instant::now(), count);
        value
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Samples {
        Samples::new(self.named(name).map(|s| (s.end_ns - s.start_ns) as f64 / 1e3).collect())
    }

    /// Total duration (ns) and total count over every span called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.named(name).fold((0, 0), |(d, c), s| (d + (s.end_ns - s.start_ns), c + s.count))
    }

    /// Writes the log as tab-separated values with a header line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\trequest\tparent\tstart_ns\tend_ns\tcount")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.request, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("a", 0, None, now, now, 1), None);
        assert_eq!(t.totals("a"), (0, 0));
    }

    #[test]
    fn spans_aggregate_by_name() {
        let mut t = Tracer::new(true);
        let start = Instant::now();
        let root = t.record("round", 7, None, start, start + Duration::from_micros(10), 0);
        t.record("leaf", 7, root, start, start + Duration::from_micros(2), 3);
        t.record("leaf", 7, root, start, start + Duration::from_micros(4), 5);
        assert_eq!(t.durations_us("leaf").p50().unwrap().value, 2.0);
        assert_eq!(t.totals("leaf"), (6_000, 8));
        assert_eq!(t.durations_us("round").len(), 1);
    }
}
