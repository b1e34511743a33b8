//! Distributed spans: the cross-host tracing vocabulary.
//!
//! A [`TraceContext`] is the 17 bytes carried in-band — through every
//! control-plane message and, for a deterministic 1-in-N sample, on the
//! data path — that lets the controller stitch per-host [`Span`]s into one
//! tree for an epoch update or a packet's life. Hosts record completed
//! spans into a bounded [`SpanSink`]; agents drain the sink back to the
//! controller (piggybacked on heartbeat replies and via `PullTrace`), and
//! the controller's [`TraceStore`] assembles the parent/child links.
//!
//! Span ids are namespaced by host (`host << 40 | seq`, the same scheme
//! the stack uses for trace packet ids) so two hosts' spans can be merged
//! without collisions and without coordination.

use crate::json::{Json, ToJson};
use crate::ring::Ring;

/// The in-band trace context: which trace a message belongs to, which
/// span caused it, and whether receivers should record spans at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Trace this message belongs to (0 = none).
    pub trace_id: u64,
    /// Span on the sender that caused this message (0 = root).
    pub parent_span: u64,
    /// Whether receivers should record spans for this trace.
    pub sampled: bool,
}

impl TraceContext {
    /// A sampled context rooted at `parent_span` within `trace_id`.
    pub fn sampled(trace_id: u64, parent_span: u64) -> TraceContext {
        TraceContext {
            trace_id,
            parent_span,
            sampled: true,
        }
    }
}

/// One completed unit of work on one host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace_id: u64,
    /// Unique within the trace: `host << 40 | per-host sequence`.
    pub span_id: u64,
    /// Parent span id (0 = trace root).
    pub parent_span: u64,
    /// Host that recorded the span (its IPv4 address; 0 = controller-less
    /// standalone use).
    pub host: u32,
    /// What the span covers (`"epoch"`, `"prepare"`, `"classify"`, ...).
    pub name: String,
    /// Virtual time the work started, nanoseconds.
    pub start_ns: u64,
    /// Virtual time the work ended, nanoseconds (>= start).
    pub end_ns: u64,
}

impl ToJson for Span {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("trace_id", self.trace_id.into()),
            ("span_id", self.span_id.into()),
            ("parent_span", self.parent_span.into()),
            ("host", self.host.into()),
            ("name", self.name.as_str().into()),
            ("start_ns", self.start_ns.into()),
            ("end_ns", self.end_ns.into()),
        ])
    }
}

/// Deterministic 1-in-N sampler: packet `k` is sampled iff
/// `k % every == 0`. `every == 0` disables sampling entirely; the check
/// is then a single always-false branch on the hot path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampler {
    every: u32,
    seq: u64,
}

impl Sampler {
    /// Sample one in `every` (0 = never).
    pub fn every(every: u32) -> Sampler {
        Sampler { every, seq: 0 }
    }

    /// Whether sampling is enabled at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.every != 0
    }

    /// Advance the sequence and decide whether this event is sampled.
    #[inline]
    pub fn sample(&mut self) -> bool {
        if self.every == 0 {
            return false;
        }
        let hit = self.seq % u64::from(self.every) == 0;
        self.seq += 1;
        hit
    }
}

/// An in-progress span held by a [`SpanSink`] until `end` is called —
/// these are what a flight-recorder dump lists as "open".
#[derive(Debug, Clone, PartialEq, Eq)]
struct OpenSpan {
    trace_id: u64,
    span_id: u64,
    parent_span: u64,
    name: String,
    start_ns: u64,
}

/// Bounded per-host store of completed spans awaiting collection.
///
/// Completion order is preserved; once `capacity` completed spans are
/// buffered the *oldest* are evicted (the controller prefers fresh data)
/// and [`dropped`](Self::dropped) counts the loss.
#[derive(Debug, Clone)]
pub struct SpanSink {
    host: u32,
    seq: u64,
    open: Vec<OpenSpan>,
    done: Ring<Span>,
}

impl SpanSink {
    /// A sink for `host` buffering at most `capacity` completed spans.
    pub fn new(host: u32, capacity: usize) -> SpanSink {
        SpanSink {
            host,
            seq: 0,
            open: Vec::new(),
            done: Ring::new(capacity.max(1)),
        }
    }

    /// The host address spans are stamped with.
    pub fn host(&self) -> u32 {
        self.host
    }

    /// Set the host address (agents learn theirs at install time).
    pub fn set_host(&mut self, host: u32) {
        self.host = host;
    }

    /// Allocate the next host-namespaced span id.
    pub fn next_span_id(&mut self) -> u64 {
        self.seq += 1;
        (u64::from(self.host) << 40) | self.seq
    }

    /// Open a span; returns its id for children and for [`SpanSink::end`].
    pub fn begin(&mut self, ctx: TraceContext, name: impl Into<String>, start_ns: u64) -> u64 {
        let span_id = self.next_span_id();
        self.open.push(OpenSpan {
            trace_id: ctx.trace_id,
            span_id,
            parent_span: ctx.parent_span,
            name: name.into(),
            start_ns,
        });
        span_id
    }

    /// Close an open span, moving it to the completed buffer.
    pub fn end(&mut self, span_id: u64, end_ns: u64) {
        if let Some(i) = self.open.iter().position(|s| s.span_id == span_id) {
            let o = self.open.swap_remove(i);
            self.push(Span {
                trace_id: o.trace_id,
                span_id: o.span_id,
                parent_span: o.parent_span,
                host: self.host,
                name: o.name,
                start_ns: o.start_ns,
                end_ns: end_ns.max(o.start_ns),
            });
        }
    }

    /// Record an already-completed span.
    pub fn push(&mut self, span: Span) {
        self.done.push(span);
    }

    /// Completed spans evicted because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.done.evicted()
    }

    /// Record a completed span in one call (the common agent path).
    pub fn record(
        &mut self,
        ctx: TraceContext,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let span_id = self.next_span_id();
        self.push(Span {
            trace_id: ctx.trace_id,
            span_id,
            parent_span: ctx.parent_span,
            host: self.host,
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        span_id
    }

    /// Completed spans waiting for collection.
    pub fn pending(&self) -> usize {
        self.done.len()
    }

    /// Remove and return up to `max` completed spans, oldest first.
    pub fn drain(&mut self, max: usize) -> Vec<Span> {
        self.done.drain(max).collect()
    }

    /// Snapshot of currently open spans (for flight-recorder dumps).
    pub fn open_spans(&self) -> Vec<Span> {
        self.open
            .iter()
            .map(|o| Span {
                trace_id: o.trace_id,
                span_id: o.span_id,
                parent_span: o.parent_span,
                host: self.host,
                name: o.name.clone(),
                start_ns: o.start_ns,
                end_ns: o.start_ns,
            })
            .collect()
    }
}

/// The controller's view: every collected span, queryable as trees.
#[derive(Debug, Clone)]
pub struct TraceStore {
    spans: Ring<Span>,
}

impl TraceStore {
    /// A store holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            spans: Ring::new(capacity.max(1)),
        }
    }

    /// Ingest one span (replaces a duplicate of the same id, so retried
    /// deliveries are idempotent).
    pub fn ingest(&mut self, span: Span) {
        if let Some(slot) = self
            .spans
            .iter_mut()
            .find(|s| s.span_id == span.span_id && s.trace_id == span.trace_id)
        {
            *slot = span;
            return;
        }
        self.spans.push(span);
    }

    /// Spans evicted because the store was full.
    pub fn dropped(&self) -> u64 {
        self.spans.evicted()
    }

    /// Total spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// All spans belonging to `trace_id`, in ingestion order.
    pub fn spans_of(&self, trace_id: u64) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .collect()
    }

    /// Distinct trace ids held, in first-seen order.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        for s in self.spans.iter() {
            if !ids.contains(&s.trace_id) {
                ids.push(s.trace_id);
            }
        }
        ids
    }

    /// The root span of a trace (parent id 0), if collected.
    pub fn root(&self, trace_id: u64) -> Option<&Span> {
        self.spans
            .iter()
            .find(|s| s.trace_id == trace_id && s.parent_span == 0)
    }

    /// Direct children of `span_id` within `trace_id`.
    pub fn children(&self, trace_id: u64, span_id: u64) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.trace_id == trace_id && s.parent_span == span_id)
            .collect()
    }

    /// Render one trace as a nested JSON tree rooted at its root span.
    /// `None` if the trace has no root yet.
    pub fn tree_json(&self, trace_id: u64) -> Option<Json> {
        let root = self.root(trace_id)?;
        Some(self.node_json(root))
    }

    fn node_json(&self, span: &Span) -> Json {
        let kids = self
            .children(span.trace_id, span.span_id)
            .into_iter()
            .map(|c| self.node_json(c))
            .collect();
        Json::obj(vec![
            ("span_id", span.span_id.into()),
            ("host", span.host.into()),
            ("name", span.name.as_str().into()),
            ("start_ns", span.start_ns.into()),
            ("end_ns", span.end_ns.into()),
            ("children", Json::Arr(kids)),
        ])
    }
}

impl ToJson for TraceStore {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "spans",
                Json::Arr(self.spans.iter().map(|s| s.to_json()).collect()),
            ),
            ("dropped", self.dropped().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_one_in_n() {
        let mut s = Sampler::every(4);
        let hits: Vec<bool> = (0..8).map(|_| s.sample()).collect();
        assert_eq!(
            hits,
            vec![true, false, false, false, true, false, false, false]
        );
        let mut off = Sampler::every(0);
        assert!(!off.enabled());
        assert!(!(0..100).any(|_| off.sample()));
    }

    #[test]
    fn sink_ids_are_host_namespaced_and_bounded() {
        let mut a = SpanSink::new(1, 2);
        let mut b = SpanSink::new(2, 2);
        let ctx = TraceContext::sampled(9, 0);
        let ia = a.record(ctx, "x", 0, 1);
        let ib = b.record(ctx, "x", 0, 1);
        assert_ne!(ia, ib, "same seq on two hosts must not collide");
        a.record(ctx, "y", 1, 2);
        a.record(ctx, "z", 2, 3);
        assert_eq!(a.pending(), 2, "capacity bound holds");
        assert_eq!(a.dropped(), 1);
        let drained = a.drain(10);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].name, "y", "oldest evicted, order preserved");
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn open_spans_complete_or_show_in_dump() {
        let mut sink = SpanSink::new(3, 16);
        let ctx = TraceContext::sampled(1, 0);
        let id = sink.begin(ctx, "walk", 100);
        assert_eq!(sink.open_spans().len(), 1);
        assert_eq!(sink.open_spans()[0].name, "walk");
        sink.end(id, 150);
        assert!(sink.open_spans().is_empty());
        let spans = sink.drain(10);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_ns, 100);
        assert_eq!(spans[0].end_ns, 150);
        assert_eq!(spans[0].host, 3);
    }

    #[test]
    fn store_assembles_parent_child_trees() {
        let mut store = TraceStore::new(64);
        store.ingest(Span {
            trace_id: 7,
            span_id: 100,
            parent_span: 0,
            host: 0,
            name: "epoch".into(),
            start_ns: 0,
            end_ns: 50,
        });
        for host in 1..=2u32 {
            store.ingest(Span {
                trace_id: 7,
                span_id: (u64::from(host) << 40) | 1,
                parent_span: 100,
                host,
                name: "prepare".into(),
                start_ns: 10,
                end_ns: 20,
            });
        }
        assert_eq!(store.trace_ids(), vec![7]);
        let root = store.root(7).expect("root present");
        assert_eq!(root.name, "epoch");
        assert_eq!(store.children(7, 100).len(), 2);
        let tree = store.tree_json(7).unwrap().render();
        assert!(tree.contains(r#""name":"epoch""#));
        assert!(tree.contains(r#""name":"prepare""#));
    }

    #[test]
    fn ingest_is_idempotent_per_span_id() {
        let mut store = TraceStore::new(4);
        let s = Span {
            trace_id: 1,
            span_id: 5,
            parent_span: 0,
            host: 1,
            name: "a".into(),
            start_ns: 0,
            end_ns: 1,
        };
        store.ingest(s.clone());
        store.ingest(s.clone());
        assert_eq!(store.len(), 1, "retried delivery must not duplicate");

        // past capacity the oldest span goes, order otherwise preserved
        for trace_id in 2..=5 {
            store.ingest(Span {
                trace_id,
                ..s.clone()
            });
        }
        assert_eq!(store.len(), 4, "capacity bound holds");
        assert_eq!(store.dropped(), 1);
        assert_eq!(store.trace_ids(), vec![2, 3, 4, 5]);
    }
}
