//! In-memory spans recorded around calls into the stack's layers.
//!
//! A span's name is `<layer>.<call>`; its layer is the part before the
//! first dot. Spans nest through an open-span stack, so each knows the span
//! that was open when it began. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The design, fleet run or request the span belongs to.
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so the
/// same workload code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (or of nothing, when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, item: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            item,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.ns(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans close in reverse order");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, item);
        let result = f();
        self.end(open);
        result
    }

    /// Records a span whose bounds were observed elsewhere (for example
    /// from the timestamps of a reply stream), as a child of `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        item: u64,
        start: Instant,
        end: Instant,
        parent: &Open,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            item,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.0,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"item\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.item, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}

/// Total duration in ms of the spans named `name`, and how many there are.
pub fn total_ms(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(ms, n), s| (ms + s.ms(), n + 1))
}

/// Mean duration in ms of the spans named `name` (0 when there are none).
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    let (ms, n) = total_ms(spans, name);
    if n == 0 {
        0.0
    } else {
        ms / n as f64
    }
}

/// Self time per layer, in ms: each span's duration minus the durations of
/// its direct children, summed by the span's layer.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        *by_layer.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            item: 0,
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("bench.design", 0, 10, None),
            span("synth.partition", 1, 3, Some(0)),
            span("synth.verify", 3, 9, Some(0)),
            span("sim.run", 4, 8, Some(2)),
        ];
        let by_layer = self_ms_by_layer(&spans);
        assert_eq!(by_layer["bench"], 2.0);
        assert_eq!(by_layer["synth"], 2.0 + 2.0);
        assert_eq!(by_layer["sim"], 4.0);
        assert_eq!(total_ms(&spans, "synth.verify"), (6.0, 1));
        assert_eq!(mean_ms(&spans, "missing"), 0.0);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut t = Tracer::new(true);
        let outer = t.begin("bench.design", 7);
        t.span("synth.merge", 7, || ());
        t.end(outer);
        t.span("sim.build", 7, || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut off = Tracer::new(false);
        let open = off.begin("bench.design", 0);
        off.end(open);
        assert!(off.spans().is_empty());
    }
}
