//! In-memory span recorder for traced runs. Spans wrap the benchmark's own
//! calls into each layer; they are kept in memory and written out once the
//! run ends.

use crate::stats::Span;
use std::time::Instant;

/// Records spans (name, start, end, parent) on one thread. A disabled
/// tracer records nothing, so traced and untraced epochs share one code
/// path.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer whose timestamps count from now.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    /// Turns recording on or off; open spans are unaffected.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Index of the span `id` refers to.
    pub fn index(id: SpanId) -> Option<usize> {
        id.0
    }

    /// Every recorded span, parents before children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration in seconds of spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Durations in seconds of spans named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e9)
            .collect()
    }

    /// Renders the spans as JSON lines: `{"i":..,"name":..,"start_ns":..,"end_ns":..,"parent":..}`.
    pub fn to_json_lines(&self) -> String {
        use pcr_metrics::JsonValue;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let doc = JsonValue::object([
                ("i", JsonValue::U64(i as u64)),
                ("name", JsonValue::str(s.name)),
                ("start_ns", JsonValue::U64(s.start)),
                ("end_ns", JsonValue::U64(s.end)),
                (
                    "parent",
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::U64(p as u64)),
                ),
            ]);
            out.push_str(&doc.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_closes_inner_spans() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        t.time("child", || ());
        let open = t.begin("left-open");
        let _ = open;
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert_eq!(spans[2].end, spans[0].end);
        assert_eq!(t.count("child"), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end(id);
        assert!(t.spans().is_empty());
        assert!(Tracer::index(id).is_none());
    }
}
