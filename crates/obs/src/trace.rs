//! Hierarchical span recording.
//!
//! A [`Tracer`] owns a flat arena of [`SpanRecord`]s; hierarchy is
//! expressed through explicit parent [`SpanId`]s rather than thread-local
//! state, because the pipeline checks products from `std::thread::scope`
//! workers and a span opened on one thread may be closed on another.
//! [`TraceCtx`] is the cheap cloneable handle that code under test
//! threads downwards: it pairs an `Arc<Tracer>` with the span to parent
//! new children under.
//!
//! Counters attached to a span are plain `u64` accumulators — solver
//! spans carry their `SolverStats` delta (decisions, propagations, …),
//! product-check spans carry `cache_hit`, stage spans carry whatever the
//! stage wants to surface. The whole tree exports as Chrome trace-event
//! JSON (`ph: "X"` complete events) loadable in `chrome://tracing` or
//! Perfetto.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use crate::clock::{Clock, WallClock};

/// Index of a span within its tracer. Copyable, cheap, and only
/// meaningful together with the tracer that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// Raw index, for serialization.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// One recorded span. `dur_us` is `None` while the span is open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub start_us: u64,
    pub dur_us: Option<u64>,
    /// Insertion-ordered accumulating counters.
    pub counters: Vec<(String, u64)>,
    /// Dense per-tracer thread index (0 for the first thread seen).
    pub tid: u64,
}

impl SpanRecord {
    /// Looks up a counter by name.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }
}

struct Inner {
    spans: Vec<SpanRecord>,
    threads: HashMap<ThreadId, u64>,
}

/// Thread-safe span recorder.
pub struct Tracer {
    clock: Box<dyn Clock>,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// Tracer over an arbitrary clock.
    pub fn with_clock(clock: Box<dyn Clock>) -> Tracer {
        Tracer {
            clock,
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                threads: HashMap::new(),
            }),
        }
    }

    /// Real-time tracer (microseconds since construction).
    pub fn wall() -> Tracer {
        Tracer::with_clock(Box::new(WallClock::new()))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned tracer mutex means a panic mid-record; traces are
        // diagnostics, so keep serving the surviving data.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span. The caller is responsible for `end`ing it.
    pub fn begin(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.clock.now_us();
        let thread = std::thread::current().id();
        let mut inner = self.lock();
        let next_tid = inner.threads.len() as u64;
        let tid = *inner.threads.entry(thread).or_insert(next_tid);
        let id = SpanId(inner.spans.len() as u32);
        inner.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_us: now,
            dur_us: None,
            counters: Vec::new(),
            tid,
        });
        id
    }

    /// Closes a span. Ending twice keeps the first duration.
    pub fn end(&self, id: SpanId) {
        let now = self.clock.now_us();
        let mut inner = self.lock();
        if let Some(span) = inner.spans.get_mut(id.0 as usize) {
            if span.dur_us.is_none() {
                span.dur_us = Some(now.saturating_sub(span.start_us));
            }
        }
    }

    /// Adds `value` to the named counter on `id` (creating it at 0).
    pub fn add(&self, id: SpanId, key: &str, value: u64) {
        let mut inner = self.lock();
        if let Some(span) = inner.spans.get_mut(id.0 as usize) {
            match span.counters.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = v.saturating_add(value),
                None => span.counters.push((key.to_string(), value)),
            }
        }
    }

    /// Total duration of the finished spans named `name`, the time a
    /// stage took however many times it ran.
    pub fn total_us(&self, name: &str) -> u64 {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.dur_us)
            .sum()
    }

    /// Snapshot of every span recorded so far, in creation order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Renders the span arena as a Chrome trace-event JSON array of
    /// complete (`ph: "X"`) events. Open spans export with `dur: 0`.
    /// The output is plain ASCII, integers only, keys sorted — parseable
    /// by the service's own minimal JSON reader.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_of(&self.spans())
    }
}

/// Renders a span snapshot (e.g. from [`Tracer::spans`], possibly
/// retained long after the tracer is gone) as Chrome trace-event JSON.
/// Same format as [`Tracer::chrome_trace`].
pub fn chrome_trace_of(spans: &[SpanRecord]) -> String {
    let mut out = String::from("[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"args\":{");
        let mut first = true;
        if let Some(parent) = span.parent {
            let _ = write!(out, "\"parent\":{}", parent.0);
            first = false;
        }
        let _ = write!(
            out,
            "{}\"span_id\":{}",
            if first { "" } else { "," },
            span.id.0
        );
        for (key, value) in &span.counters {
            let _ = write!(out, ",{}:{}", json_string(key), value);
        }
        let _ = write!(
            out,
            "}},\"dur\":{},\"name\":{},\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{}}}",
            span.dur_us.unwrap_or(0),
            json_string(&span.name),
            span.tid,
            span.start_us
        );
    }
    out.push_str("\n]\n");
    out
}

/// Minimal JSON string escaper (quotes, backslash, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The handle threaded through instrumented code: a tracer plus the
/// span that new children should hang under. Cloning is cheap.
#[derive(Clone)]
pub struct TraceCtx {
    tracer: Arc<Tracer>,
    parent: Option<SpanId>,
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCtx")
            .field("parent", &self.parent)
            .finish_non_exhaustive()
    }
}

impl TraceCtx {
    /// Root context: children created through it have no parent span.
    pub fn new(tracer: Arc<Tracer>) -> TraceCtx {
        TraceCtx {
            tracer,
            parent: None,
        }
    }

    /// The underlying tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The span new children are parented under, if any.
    pub fn parent(&self) -> Option<SpanId> {
        self.parent
    }

    /// Opens a child span under this context's parent.
    pub fn begin(&self, name: &str) -> SpanId {
        self.tracer.begin(name, self.parent)
    }

    /// Closes a span opened through this tracer.
    pub fn finish(&self, id: SpanId) {
        self.tracer.end(id);
    }

    /// A context whose children will be parented under `id`.
    pub fn at(&self, id: SpanId) -> TraceCtx {
        TraceCtx {
            tracer: Arc::clone(&self.tracer),
            parent: Some(id),
        }
    }

    /// Adds to a counter on `id`.
    pub fn add(&self, id: SpanId, key: &str, value: u64) {
        self.tracer.add(id, key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    /// A [`ManualClock`] the test keeps advancing after the tracer owns it.
    struct Shared(Arc<ManualClock>);

    impl Clock for Shared {
        fn now_us(&self) -> u64 {
            self.0.now_us()
        }
    }

    fn manual_tracer() -> (Tracer, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::with_clock(Box::new(Shared(Arc::clone(&clock))));
        (tracer, clock)
    }

    #[test]
    fn spans_record_hierarchy_and_durations() {
        let (tracer, clock) = manual_tracer();
        let root = tracer.begin("pipeline", None);
        clock.advance(10);
        let child = tracer.begin("stage", Some(root));
        clock.advance(5);
        tracer.end(child);
        clock.advance(1);
        tracer.end(root);

        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "pipeline");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].dur_us, Some(16));
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].start_us, 10);
        assert_eq!(spans[1].dur_us, Some(5));

        // A second "stage" adds to the first; open spans add nothing.
        let again = tracer.begin("stage", Some(root));
        clock.advance(3);
        tracer.end(again);
        tracer.begin("stage", Some(root));
        assert_eq!(tracer.total_us("stage"), 8);
        assert_eq!(tracer.total_us("missing"), 0);
    }

    #[test]
    fn counters_accumulate() {
        let tracer = Tracer::wall();
        let id = tracer.begin("solve", None);
        tracer.add(id, "decisions", 3);
        tracer.add(id, "decisions", 4);
        tracer.add(id, "conflicts", 1);
        tracer.end(id);
        let span = &tracer.spans()[0];
        assert_eq!(span.counter("decisions"), Some(7));
        assert_eq!(span.counter("conflicts"), Some(1));
        assert_eq!(span.counter("missing"), None);
    }

    #[test]
    fn double_end_keeps_first_duration() {
        let (tracer, clock) = manual_tracer();
        let id = tracer.begin("x", None);
        clock.advance(4);
        tracer.end(id);
        clock.advance(9);
        tracer.end(id);
        assert_eq!(tracer.spans()[0].dur_us, Some(4));
    }

    #[test]
    fn trace_ctx_parents_children() {
        let tracer = Arc::new(Tracer::wall());
        let ctx = TraceCtx::new(Arc::clone(&tracer));
        let root = ctx.begin("root");
        let inner = ctx.at(root);
        let child = inner.begin("child");
        inner.finish(child);
        ctx.finish(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(root));
    }

    #[test]
    fn chrome_trace_shape() {
        let tracer = Tracer::wall();
        let root = tracer.begin("pipeline", None);
        let solve = tracer.begin("solve", Some(root));
        tracer.add(solve, "decisions", 2);
        tracer.end(solve);
        tracer.end(root);
        let json = tracer.chrome_trace();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"pipeline\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"decisions\":2"));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
