//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into the
//! program's layers; nothing is recorded inside the crates.  With tracing
//! off every call is a no-op, so untraced runs pay one branch per span.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, `<crate>.<op>` (or `bench.*` for the benchmark's own
    /// work, `pipeline.hit` for a stage served from the artifact store).
    pub name: &'static str,
    /// Free-form detail, e.g. the pipeline stage a hit decoded.
    pub note: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offset of the start from the tracer's epoch.
    pub start: Duration,
    /// Offset of the end from the tracer's epoch.
    pub end: Duration,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span (`None` while tracing is off).
#[derive(Debug)]
#[must_use = "an opened span must be closed with Tracer::end"]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// Index of the span in [`Tracer::spans`] (`None` while tracing is off).
    pub fn index(&self) -> Option<usize> {
        self.0
    }
}

/// Records spans in memory; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            note: String::new(),
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` under its final name: a layer call learns only on return
    /// whether it computed or was served from the artifact store.
    pub fn end_as(&mut self, id: SpanId, name: &'static str, note: &str) {
        let Some(idx) = id.0 else { return };
        let end = self.epoch.elapsed();
        let span = &mut self.spans[idx];
        span.end = end;
        span.name = name;
        span.note = note.to_owned();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close in LIFO order");
    }

    /// Closes `id` under the name it was opened with.
    pub fn end(&mut self, id: SpanId) {
        let name = id.0.map_or("", |idx| self.spans[idx].name);
        self.end_as(id, name, "");
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span's duration minus the part its direct children cover.
    pub fn self_time(&self, idx: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::duration)
            .sum();
        self.spans[idx].duration().saturating_sub(children)
    }

    /// Share of span `idx` covered by direct children that are layer spans
    /// (every name outside the benchmark's own `bench.*` namespace).
    pub fn layer_cover(&self, idx: usize) -> f64 {
        let covered: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx) && !s.name.starts_with("bench."))
            .map(Span::duration)
            .sum();
        let total = self.spans[idx].duration().as_secs_f64();
        if total > 0.0 {
            covered.as_secs_f64() / total
        } else {
            0.0
        }
    }

    /// The spans as a JSON array (microsecond offsets from the epoch).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"note\":\"{}\",\
                 \"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                s.name,
                s.note,
                micros(s.start),
                micros(s.end),
                micros(self.self_time(i)),
            );
        }
        out.push_str("\n]");
        out
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_cover() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.iteration");
        let a = t.begin("mate.search");
        std::thread::sleep(Duration::from_millis(5));
        t.end(a);
        let b = t.begin("bench.check");
        t.end(b);
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.self_time(0) < t.spans()[0].duration());
        assert!(t.layer_cover(0) > 0.5);
        assert!(t.to_json().contains("\"name\":\"mate.search\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("mate.search");
        t.end_as(s, "pipeline.hit", "mate-search");
        assert!(t.spans().is_empty());
    }
}
