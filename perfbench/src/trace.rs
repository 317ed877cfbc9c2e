//! The benchmark's own spans: recorded around each call into a layer, held
//! in memory and written out when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds from the tracer's
//! origin), the index of the span that caused it, and the request it serves.
//! A disabled tracer records nothing and costs one branch per call, which is
//! how the untraced replay is timed against the traced one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call it wraps, `layer.call` (e.g. `serve.json.parse`).
    pub name: &'static str,
    /// Start, in nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (arrival index, or job index offline) the span serves.
    pub request: u64,
}

impl Span {
    /// Wall duration.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Count, total time and self time of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus time covered by child spans).
    pub self_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer; a disabled one records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from the tracer's origin to `at` (0 if `at` is earlier).
    #[must_use]
    pub fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Record a root span timed elsewhere (e.g. a request measured by the
    /// load generator's threads).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, request: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                request,
            });
        }
    }

    /// Every recorded span, in start order of recording.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the part of its interval
    /// covered by its children (overlapping children count once).
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Totals per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (index, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
                span.name, span.start_ns, span.end_ns, span.request
            );
        }
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut tracer = Tracer::new(true);
        tracer.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)), // overlaps a by 5
            span("a.inner", 12, 20, Some(1)),
            span("late", 90, 120, Some(0)), // runs past its parent's end
        ];
        // root: covered [10,50) and [90,100) = 50; self 50.
        // a: child covers 8 of 20; self 12. b: 25. a.inner: 8. late: 30.
        assert_eq!(tracer.self_times(), vec![50, 12, 25, 8, 30]);
        let totals = tracer.totals();
        assert_eq!(
            totals["root"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
    }

    #[test]
    fn nested_closures_link_parents_and_nest_in_time() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", 7, |t| {
            t.span("first", 7, |_| std::hint::black_box(1 + 1));
            t.span("second", 7, |t| t.span("deep", 7, |_| ()));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let self_times = tracer.self_times();
        let children: u64 = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(self_times[0], spans[0].duration_ns() - children);
        assert_eq!(self_times[3], spans[3].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let out = tracer.span("x", 1, |t| t.span("y", 1, |_| 5));
        assert_eq!(out, 5);
        tracer.record("z", 0, 1, 0);
        assert!(tracer.spans().is_empty());
    }
}
