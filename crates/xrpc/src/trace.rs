//! Deterministic distributed tracing on the **simulated clock**.
//!
//! Every federation run gets a trace: a tree of spans whose timestamps are
//! simulated-network nanoseconds (the same quantities billed to
//! [`crate::Metrics::network_overlapped`] and to the health scoreboard) and
//! whose ids are assigned in coordinator program order. Nothing in a span
//! comes from the wall clock or from unseeded randomness, so a chaos
//! schedule replayed from the same seed emits a **byte-identical** trace
//! file — the trace itself is a determinism oracle, not just a debugging
//! aid.
//!
//! Two rules make that work under the parallel scatter executor:
//!
//! 1. **Workers build, the coordinator submits.** Worker threads assemble
//!    [`SpanBuilder`] trees with *relative* offsets (rung-relative attempt
//!    starts, round-relative rung starts) and hand them back through the
//!    ladder outcome. Only the coordinator thread calls
//!    [`Tracer::submit`], in slot order at the same gather barriers where
//!    it applies health observations — so span ids and vector order are a
//!    pure function of the schedule.
//! 2. **The clock advances where the scoreboard's does.** [`Tracer`]
//!    mirrors the [`crate::Scoreboard`] discipline: simulated time moves
//!    forward only after a sequential ladder completes or a scatter round
//!    gathers, by exactly the overlapped chain charged to the metrics.
//!
//! CPU-bound front-end work (parse, decompose, compile) is recorded as
//! zero-duration marker spans: the simulated clock has no opinion about
//! coordinator CPU, and giving those spans wall-clock durations would
//! break replay. The practical consequence is that 100% of a trace's
//! simulated wall time is attributable to network-bearing spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::net::as_ns;

/// Span id of the root span every [`Tracer`] pre-creates at construction.
pub const ROOT_SPAN: u64 = 1;

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

/// One completed span on the simulated clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the trace; assigned in submission (= program) order.
    pub id: u64,
    /// Parent span id; `0` only on the root span.
    pub parent: u64,
    /// Stable span kind, e.g. `"rpc.attempt"` — see DESIGN.md for the table.
    pub name: &'static str,
    /// Coarse category (`"query"`, `"rpc"`, `"doc"`, `"sched"`, …).
    pub cat: &'static str,
    /// Absolute simulated start, nanoseconds since run start.
    pub start_ns: u64,
    /// Simulated duration in nanoseconds (0 for marker events).
    pub dur_ns: u64,
    /// Deterministic key/value annotations (fault kind, breaker state, …).
    pub args: Vec<(&'static str, String)>,
}

/// A span under construction, with timestamps *relative to its parent's
/// start*. Builders are cheap to assemble on worker threads and are turned
/// into absolute [`Span`]s only when the coordinator submits them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanBuilder {
    pub name: &'static str,
    pub cat: &'static str,
    /// Start offset from the parent span's start.
    pub rel_start_ns: u64,
    pub dur_ns: u64,
    pub args: Vec<(&'static str, String)>,
    pub children: Vec<SpanBuilder>,
}

impl SpanBuilder {
    pub fn new(name: &'static str, cat: &'static str) -> SpanBuilder {
        SpanBuilder { name, cat, ..SpanBuilder::default() }
    }

    /// Sets the start offset from the parent span's start.
    pub fn at(mut self, rel_start: Duration) -> SpanBuilder {
        self.rel_start_ns = as_ns(rel_start);
        self
    }

    /// Sets the simulated duration.
    pub fn lasting(mut self, dur: Duration) -> SpanBuilder {
        self.dur_ns = as_ns(dur);
        self
    }

    /// Appends one annotation.
    pub fn arg(mut self, key: &'static str, value: impl Into<String>) -> SpanBuilder {
        self.args.push((key, value.into()));
        self
    }

    /// Appends a child builder (offsets relative to *this* span's start).
    pub fn child(mut self, child: SpanBuilder) -> SpanBuilder {
        self.children.push(child);
        self
    }

    pub fn push_child(&mut self, child: SpanBuilder) {
        self.children.push(child);
    }
}

// ---------------------------------------------------------------------------
// tracer
// ---------------------------------------------------------------------------

struct TracerInner {
    next_id: u64,
    spans: Vec<Span>,
}

/// Collects spans for one run. Created by the executor when
/// [`crate::ExecOptions::trace`] is set; see the module docs for the
/// determinism contract.
pub struct Tracer {
    trace_id: u64,
    /// Simulated clock cell, shared with the evaluator's profile hook so
    /// per-operator time attribution reads the same timeline.
    clock: Arc<AtomicU64>,
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// A fresh tracer whose root span (`id` [`ROOT_SPAN`]) starts at 0 and
    /// is closed by [`Tracer::finish`].
    pub fn new(trace_id: u64, root_name: &'static str, root_cat: &'static str) -> Tracer {
        let root = Span {
            id: ROOT_SPAN,
            parent: 0,
            name: root_name,
            cat: root_cat,
            start_ns: 0,
            dur_ns: 0,
            args: Vec::new(),
        };
        Tracer {
            trace_id,
            clock: Arc::new(AtomicU64::new(0)),
            inner: Mutex::new(TracerInner { next_id: ROOT_SPAN + 1, spans: vec![root] }),
        }
    }

    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Current simulated time in nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// The shared clock cell (for the evaluator's per-operator profile).
    pub fn clock_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.clock)
    }

    /// Advances the simulated clock; returns the new time. Called exactly
    /// where the executor advances the health scoreboard.
    pub fn advance(&self, elapsed: Duration) -> u64 {
        self.clock.fetch_add(as_ns(elapsed), Ordering::SeqCst) + as_ns(elapsed)
    }

    /// Moves the clock forward to `ns` if it is behind (never rewinds).
    pub fn advance_to(&self, ns: u64) {
        self.clock.fetch_max(ns, Ordering::SeqCst);
    }

    /// Submits a builder tree anchored at absolute time `anchor_ns` under
    /// `parent`. Ids are assigned depth-first in child order; returns the
    /// tree root's id. Must be called from the coordinator thread at a
    /// deterministic point — see the module docs.
    pub fn submit(&self, anchor_ns: u64, parent: u64, builder: SpanBuilder) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let root_id = inner.next_id;
        fn push(inner: &mut TracerInner, parent: u64, abs_base: u64, b: SpanBuilder) {
            let id = inner.next_id;
            inner.next_id += 1;
            let start_ns = abs_base.saturating_add(b.rel_start_ns);
            inner.spans.push(Span {
                id,
                parent,
                name: b.name,
                cat: b.cat,
                start_ns,
                dur_ns: b.dur_ns,
                args: b.args,
            });
            for child in b.children {
                push(inner, id, start_ns, child);
            }
        }
        push(&mut inner, parent, anchor_ns, builder);
        root_id
    }

    /// Submits a zero-duration marker span at the current simulated time.
    pub fn event(
        &self,
        parent: u64,
        name: &'static str,
        cat: &'static str,
        args: Vec<(&'static str, String)>,
    ) -> u64 {
        let now = self.clock_ns();
        self.submit(now, parent, SpanBuilder { name, cat, args, ..SpanBuilder::default() })
    }

    /// Appends an annotation to the root span.
    pub fn root_arg(&self, key: &'static str, value: impl Into<String>) {
        let mut inner = self.inner.lock().unwrap();
        inner.spans[0].args.push((key, value.into()));
    }

    /// Closes the root span at the current clock and returns the trace.
    pub fn finish(&self) -> Trace {
        let total_ns = self.clock_ns();
        let mut inner = self.inner.lock().unwrap();
        inner.spans[0].dur_ns = total_ns;
        Trace { trace_id: self.trace_id, total_ns, spans: inner.spans.clone() }
    }
}

// ---------------------------------------------------------------------------
// finished traces
// ---------------------------------------------------------------------------

/// A finished trace: the root span plus everything submitted under it, in
/// deterministic submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    pub trace_id: u64,
    /// Total simulated time of the run (the root span's duration).
    pub total_ns: u64,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn root(&self) -> &Span {
        &self.spans[0]
    }

    /// All spans with the given name, in submission order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of `id`, in submission order.
    pub fn children_of(&self, id: u64) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == id && s.id != id)
    }

    /// Fraction of total simulated time covered by the root's direct
    /// children (which run back-to-back in coordinator program order).
    /// `1.0` for an empty timeline.
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            return 1.0;
        }
        let covered: u64 = self.children_of(ROOT_SPAN).map(|s| s.dur_ns).sum();
        covered as f64 / self.total_ns as f64
    }

    /// Latency histogram over the durations of every span named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut h = Histogram::new();
        for s in self.named(name) {
            h.record_ns(s.dur_ns);
        }
        h
    }

    /// The trace as a self-describing JSON document, one span per line.
    /// All values are integers or strings — no floats — so the bytes are
    /// exactly reproducible on replay.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 160);
        out.push_str("{\n  \"trace_id\": \"");
        out.push_str(&format!("{:#018x}", self.trace_id));
        out.push_str("\",\n  \"total_sim_ns\": ");
        out.push_str(&self.total_ns.to_string());
        out.push_str(",\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str("    {\"id\": ");
            out.push_str(&s.id.to_string());
            out.push_str(", \"parent\": ");
            out.push_str(&s.parent.to_string());
            out.push_str(", \"name\": \"");
            escape_json(s.name, &mut out);
            out.push_str("\", \"cat\": \"");
            escape_json(s.cat, &mut out);
            out.push_str("\", \"start_ns\": ");
            out.push_str(&s.start_ns.to_string());
            out.push_str(", \"dur_ns\": ");
            out.push_str(&s.dur_ns.to_string());
            out.push_str(", \"args\": {");
            for (j, (k, v)) in s.args.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                escape_json(k, &mut out);
                out.push_str("\": \"");
                escape_json(v, &mut out);
                out.push('"');
            }
            out.push_str("}}");
            if i + 1 < self.spans.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The trace in Chrome `trace_event` format (the JSON Object Format
    /// with complete `"ph": "X"` events), loadable in `chrome://tracing`
    /// and Perfetto. Timestamps are microseconds with the sub-microsecond
    /// remainder rendered by integer math, so these bytes replay exactly
    /// too.
    pub fn to_chrome(&self) -> String {
        fn us(ns: u64, out: &mut String) {
            out.push_str(&(ns / 1_000).to_string());
            out.push('.');
            out.push_str(&format!("{:03}", ns % 1_000));
        }
        let mut out = String::with_capacity(256 + self.spans.len() * 200);
        out.push_str("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str("  {\"name\": \"");
            escape_json(s.name, &mut out);
            out.push_str("\", \"cat\": \"");
            escape_json(s.cat, &mut out);
            out.push_str("\", \"ph\": \"X\", \"ts\": ");
            us(s.start_ns, &mut out);
            out.push_str(", \"dur\": ");
            us(s.dur_ns, &mut out);
            out.push_str(", \"pid\": 1, \"tid\": 1, \"args\": {\"span_id\": \"");
            out.push_str(&s.id.to_string());
            out.push_str("\", \"parent\": \"");
            out.push_str(&s.parent.to_string());
            out.push('"');
            for (k, v) in &s.args {
                out.push_str(", \"");
                escape_json(k, &mut out);
                out.push_str("\": \"");
                escape_json(v, &mut out);
                out.push('"');
            }
            out.push_str("}}");
            if i + 1 < self.spans.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("], \"displayTimeUnit\": \"ms\", \"otherData\": {\"trace_id\": \"");
        out.push_str(&format!("{:#018x}", self.trace_id));
        out.push_str("\"}}\n");
        out
    }
}

/// Appends `s` to `out` escaped for the inside of a JSON string literal.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

// ---------------------------------------------------------------------------
// histograms
// ---------------------------------------------------------------------------

/// Upper bounds (microseconds) of the fixed display buckets; the last
/// bucket is open-ended. Chosen to straddle the simulated LAN/WAN chain
/// range: tens of microseconds to seconds.
pub const BUCKET_BOUNDS_US: [u64; 14] =
    [10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000];

/// A latency histogram with fixed display buckets **and** exact
/// percentiles: every recorded value is retained, so `p50`/`p95`/`p99`
/// are computed by nearest-rank over the sorted values rather than
/// interpolated from bucket edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKET_BOUNDS_US.len() + 1],
    values: Vec<u64>,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn record(&mut self, d: Duration) {
        self.record_ns(as_ns(d));
    }

    pub fn record_ns(&mut self, ns: u64) {
        let us = ns / 1_000;
        let idx = BUCKET_BOUNDS_US.iter().position(|&b| us <= b).unwrap_or(BUCKET_BOUNDS_US.len());
        self.counts[idx] += 1;
        self.values.push(ns);
    }

    pub fn count(&self) -> u64 {
        self.values.len() as u64
    }

    /// `(upper_bound_us, count)` per display bucket; the final entry's
    /// bound is `u64::MAX` (the open-ended overflow bucket).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        BUCKET_BOUNDS_US
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
    }

    /// Exact nearest-rank percentile (`p` in `[0, 100]`) over everything
    /// recorded. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(Duration::from_nanos(sorted[rank.clamp(1, sorted.len()) - 1]))
    }

    pub fn p50(&self) -> Option<Duration> {
        self.percentile(50.0)
    }

    pub fn p95(&self) -> Option<Duration> {
        self.percentile(95.0)
    }

    pub fn p99(&self) -> Option<Duration> {
        self.percentile(99.0)
    }

    /// A plain-text rendering: one line per non-empty bucket plus the
    /// exact percentile summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.count().max(1);
        for (bound, count) in self.buckets() {
            if count == 0 {
                continue;
            }
            let label = if bound == u64::MAX {
                format!("{:>9}", format!(">{}us", BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]))
            } else {
                format!("{:>9}", format!("<={bound}us"))
            };
            let bar = "#".repeat(((count * 40) / total) as usize);
            out.push_str(&format!("{label} {count:>6} {bar}\n"));
        }
        if let (Some(p50), Some(p95), Some(p99)) = (self.p50(), self.p95(), self.p99()) {
            out.push_str(&format!(
                "n={} p50={:?} p95={:?} p99={:?}\n",
                self.count(),
                p50,
                p95,
                p99
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submitted_builders_resolve_relative_offsets_depth_first() {
        let t = Tracer::new(7, "query", "query");
        let rung = SpanBuilder::new("failover.rung", "rpc")
            .at(Duration::from_micros(5))
            .lasting(Duration::from_micros(20))
            .child(
                SpanBuilder::new("rpc.attempt", "rpc")
                    .at(Duration::from_micros(2))
                    .lasting(Duration::from_micros(10))
                    .arg("peer", "p1"),
            );
        let call = SpanBuilder::new("rpc.call", "rpc").lasting(Duration::from_micros(30)).child(rung);
        let id = t.submit(1_000, ROOT_SPAN, call);
        t.advance(Duration::from_micros(30));
        let trace = t.finish();

        assert_eq!(id, 2);
        let spans = &trace.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[1].name, spans[1].parent, spans[1].start_ns), ("rpc.call", ROOT_SPAN, 1_000));
        assert_eq!((spans[2].name, spans[2].parent, spans[2].start_ns), ("failover.rung", 2, 6_000));
        assert_eq!((spans[3].name, spans[3].parent, spans[3].start_ns), ("rpc.attempt", 3, 8_000));
        assert_eq!(spans[3].args, vec![("peer", "p1".to_string())]);
        assert_eq!(trace.total_ns, 30_000);
        assert_eq!(trace.root().dur_ns, 30_000);
    }

    #[test]
    fn identical_submissions_yield_identical_bytes() {
        let build = || {
            let t = Tracer::new(99, "query", "query");
            t.event(ROOT_SPAN, "frontend.parse", "frontend", vec![("chars", "41".into())]);
            t.submit(
                0,
                ROOT_SPAN,
                SpanBuilder::new("rpc.call", "rpc")
                    .lasting(Duration::from_micros(123))
                    .arg("peer", "p\"1\\"),
            );
            t.advance(Duration::from_micros(123));
            t.finish()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_chrome(), b.to_chrome());
        assert!(a.to_json().contains("\\\"1\\\\"), "json escaping: {}", a.to_json());
    }

    #[test]
    fn coverage_counts_direct_children_of_root() {
        let t = Tracer::new(1, "query", "query");
        t.submit(0, ROOT_SPAN, SpanBuilder::new("a", "rpc").lasting(Duration::from_nanos(600)));
        t.advance(Duration::from_nanos(600));
        t.submit(600, ROOT_SPAN, SpanBuilder::new("b", "rpc").lasting(Duration::from_nanos(300)));
        t.advance(Duration::from_nanos(400));
        let trace = t.finish();
        assert_eq!(trace.total_ns, 1_000);
        assert!((trace.coverage() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentiles_are_exact() {
        let mut h = Histogram::new();
        for us in 1..=100u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), Some(Duration::from_micros(50)));
        assert_eq!(h.p95(), Some(Duration::from_micros(95)));
        assert_eq!(h.p99(), Some(Duration::from_micros(99)));
        assert_eq!(h.percentile(100.0), Some(Duration::from_micros(100)));
        let recorded: u64 = h.buckets().map(|(_, c)| c).sum();
        assert_eq!(recorded, 100);
        assert!(Histogram::new().p50().is_none());
    }

    #[test]
    fn chrome_export_is_object_format_with_complete_events() {
        let t = Tracer::new(3, "query", "query");
        t.submit(0, ROOT_SPAN, SpanBuilder::new("x", "rpc").lasting(Duration::from_nanos(1_500)));
        t.advance(Duration::from_nanos(1_500));
        let chrome = t.finish().to_chrome();
        assert!(chrome.starts_with("{\"traceEvents\": ["));
        assert!(chrome.contains("\"ph\": \"X\""));
        assert!(chrome.contains("\"ts\": 0.000"));
        assert!(chrome.contains("\"dur\": 1.500"));
        assert!(chrome.contains("\"pid\": 1"));
    }
}
