//! Span recorder for the traced run.
//!
//! Spans are recorded only from this package: around the trait boundaries
//! the workloads cross (`wrap.rs`) and around direct calls into a layer.
//! While no recorder is installed a span costs one thread-local check, so
//! the untraced run — the only source of end-to-end numbers — goes through
//! the same code.
//!
//! Spans land in a pre-allocated buffer. Between samples, when no span is
//! open, the harness may fold the buffer into per-name aggregates so that a
//! long run never grows memory; the first spans are kept for the span file.

use std::cell::RefCell;
use std::time::Instant;

use eden_telemetry::Json;

/// Where a span was recorded. One name per boundary, not per instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Tag {
    /// One timed sample: a packet chunk, a 1 ms slice, a push.
    #[default]
    Sample,
    NodeHost,
    NodeRoot,
    NodeAgg,
    NodeLeaf,
    App,
    AppRoot,
    AppAgg,
    HookEgress,
    HookEgressBatch,
    HookIngress,
    HookCtrl,
    CoreProcess,
    CoreBatch,
    CoreDigest,
    CoreStage,
    CoreCommit,
    CoreSnapshot,
    CoreInstall,
    TelemetryJson,
    TelemetryProm,
    ReplSync,
    LangCompile,
    VmVerify,
    CtrlSetDesired,
}

impl Tag {
    pub const COUNT: usize = Tag::CtrlSetDesired as usize + 1;

    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }
}

/// Span names, by `Tag` index.
const NAMES: [&str; Tag::COUNT] = [
    "sample",
    "node.host",
    "node.root",
    "node.agg",
    "node.leaf",
    "app",
    "app.root",
    "app.agg",
    "hook.egress",
    "hook.egress_batch",
    "hook.ingress",
    "hook.ctrl",
    "core.process",
    "core.process_batch",
    "core.config_digest",
    "core.stage_epoch",
    "core.commit_epoch",
    "core.stats_snapshot",
    "core.install",
    "telemetry.json",
    "telemetry.prom",
    "repl.sync",
    "lang.compile",
    "vm.verify",
    "ctrl.set_desired",
];

pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. `parent` indexes the buffer the span sits in;
/// `run` is the sample it belongs to, shared by every span of that sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    pub tag: Tag,
    pub run: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every folded span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Work items counted at the boundary (packets in a batch, frames).
    pub items: u64,
}

/// Self time of each span: its duration minus the part of it that its
/// children cover. `spans` must be in start order, which is the order a
/// single thread records them in. Children that overlap each other are
/// counted once, and a child is clipped to its parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    // per parent: end of the interval its earlier children already cover
    let mut cursor = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let lo = s.start_ns.max(spans[p].start_ns).max(cursor[p]);
        let hi = s.end_ns.min(spans[p].end_ns);
        if hi > lo {
            covered[p] += hi - lo;
            cursor[p] = hi;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns) - c)
        .collect()
}

/// Buffer capacity: a fullstack sample records about ten thousand spans.
const CAPACITY: usize = 1 << 20;
/// Spans written to the span file.
const KEEP: usize = 50_000;

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
    totals: [Agg; Tag::COUNT],
    kept: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, tag: Tag) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            self.open.push(NO_PARENT);
            return;
        }
        self.open.push(self.spans.len() as u32);
        let parent = match self.open.len() {
            1 => NO_PARENT,
            n => self.open[n - 2],
        };
        self.spans.push(Span {
            tag,
            run: self.run,
            parent,
            start_ns: self.now(),
            end_ns: 0,
        });
    }

    fn exit(&mut self) {
        match self.open.pop() {
            Some(NO_PARENT) | None => {}
            Some(i) => self.spans[i as usize].end_ns = self.now(),
        }
    }

    fn fold(&mut self) {
        assert!(self.open.is_empty(), "fold with a span open");
        for (s, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let a = &mut self.totals[s.tag as usize];
            a.count += 1;
            a.total_ns += s.end_ns - s.start_ns;
            a.self_ns += own;
        }
        if self.kept.is_empty() {
            self.kept
                .extend_from_slice(&self.spans[..self.spans.len().min(KEEP)]);
        }
        self.spans.clear();
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Closes its span when dropped.
pub struct SpanGuard(bool);

/// Open a span; a no-op unless [`start`] installed a recorder.
pub fn span(tag: Tag) -> SpanGuard {
    SpanGuard(RECORDER.with_borrow_mut(|r| r.as_mut().map(|r| r.enter(tag)).is_some()))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.0 {
            RECORDER.with_borrow_mut(|r| {
                if let Some(r) = r {
                    r.exit();
                }
            });
        }
    }
}

/// Count `n` work items against `tag`.
pub fn items(tag: Tag, n: u64) {
    RECORDER.with_borrow_mut(|r| {
        if let Some(r) = r {
            r.totals[tag as usize].items += n;
        }
    });
}

/// Install a recorder with its buffer allocated and touched.
pub fn start() {
    let mut spans = vec![Span::default(); CAPACITY];
    spans.clear();
    RECORDER.set(Some(Recorder {
        t0: Instant::now(),
        spans,
        open: Vec::with_capacity(64),
        run: 0,
        totals: [Agg::default(); Tag::COUNT],
        kept: Vec::new(),
        dropped: 0,
    }));
}

/// End of a sample: later spans belong to the next run, and a buffer more
/// than half full is folded. Call with no span open.
pub fn next_run() {
    RECORDER.with_borrow_mut(|r| {
        if let Some(r) = r {
            r.run += 1;
            if r.spans.len() > CAPACITY / 2 {
                r.fold();
            }
        }
    });
}

/// Fold what is buffered and return the totals so far, by `Tag` index.
pub fn totals() -> [Agg; Tag::COUNT] {
    RECORDER.with_borrow_mut(|r| {
        let r = r.as_mut().expect("tracing is on");
        r.fold();
        r.totals
    })
}

/// What a traced round recorded.
pub struct Report {
    pub totals: [Agg; Tag::COUNT],
    /// The first spans recorded, for the span file.
    pub kept: Vec<Span>,
    /// Spans lost to a full buffer; non-zero invalidates the self times.
    pub dropped: u64,
}

/// Remove the recorder and return what it holds.
pub fn stop() -> Report {
    let mut r = RECORDER.take().expect("tracing is on");
    r.fold();
    Report {
        totals: r.totals,
        kept: r.kept,
        dropped: r.dropped,
    }
}

impl Report {
    pub fn get(&self, tag: Tag) -> Agg {
        self.totals[tag as usize]
    }

    /// Summed total time of `tags`.
    pub fn total_ns(&self, tags: &[Tag]) -> u64 {
        tags.iter().map(|&t| self.get(t).total_ns).sum()
    }

    /// Summed self time of `tags`.
    pub fn self_ns(&self, tags: &[Tag]) -> u64 {
        tags.iter().map(|&t| self.get(t).self_ns).sum()
    }

    /// Mean span duration of `tag` in microseconds (0 when never recorded).
    pub fn mean_us(&self, tag: Tag) -> f64 {
        let a = self.get(tag);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.count as f64 / 1e3
        }
    }

    /// The span file: per-name aggregates over the whole traced round and
    /// the first [`KEEP`] spans as `{name, start_ns, end_ns, parent, run}`.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let aggregate = self
            .totals
            .iter()
            .zip(NAMES)
            .filter(|(a, _)| a.count > 0)
            .map(|(a, name)| {
                Json::obj(vec![
                    ("name", name.into()),
                    ("count", a.count.into()),
                    ("total_ns", a.total_ns.into()),
                    ("self_ns", a.self_ns.into()),
                    ("items", a.items.into()),
                ])
            });
        let spans = self.kept.iter().map(|s| {
            let parent = match s.parent {
                NO_PARENT => Json::Null,
                p => u64::from(p).into(),
            };
            Json::obj(vec![
                ("name", s.tag.name().into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("parent", parent),
                ("run", u64::from(s.run).into()),
            ])
        });
        Json::obj(vec![
            ("workload", workload.into()),
            ("seed", seed.into()),
            ("dropped", self.dropped.into()),
            ("aggregate", Json::Arr(aggregate.collect())),
            ("spans", Json::Arr(spans.collect())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            start_ns,
            end_ns,
            ..Span::default()
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ a 10..40 ⊃ b 20..30, and root ⊃ c 50..60
        let spans = [
            sp(NO_PARENT, 0, 100),
            sp(0, 10, 40),
            sp(1, 20, 30),
            sp(0, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_their_union() {
        // children 10..50 and 30..70 overlap: union 60; a third, 90..120,
        // overhangs the parent and is clipped to 10; a fourth, 40..45, lies
        // inside what is already covered
        let spans = [
            sp(NO_PARENT, 0, 100),
            sp(0, 10, 50),
            sp(0, 30, 70),
            sp(0, 40, 45),
            sp(0, 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn first_and_last_tag_are_named() {
        assert_eq!(Tag::Sample.name(), "sample");
        assert_eq!(Tag::CtrlSetDesired.name(), "ctrl.set_desired");
    }

    #[test]
    fn recorder_nests_folds_and_reports() {
        assert!(!span(Tag::Sample).0, "off until started");
        start();
        {
            let _s = span(Tag::Sample);
            {
                let _n = span(Tag::NodeHost);
                let _h = span(Tag::HookEgressBatch);
                items(Tag::HookEgressBatch, 7);
            }
            let _n = span(Tag::NodeHost);
        }
        next_run();
        {
            let _s = span(Tag::Sample);
        }
        let mid = totals();
        assert_eq!(mid[Tag::Sample as usize].count, 2);
        let r = stop();
        assert_eq!(r.dropped, 0);
        assert_eq!(r.get(Tag::NodeHost).count, 2);
        assert_eq!(r.get(Tag::HookEgressBatch).items, 7);
        assert_eq!(r.kept.len(), 5);
        assert_eq!(r.kept[2].parent, 1);
        assert_eq!(r.kept[3].parent, 0);
        assert_eq!((r.kept[0].run, r.kept[4].run), (0, 1));
        let sample = r.get(Tag::Sample);
        assert_eq!(
            sample.self_ns,
            sample.total_ns - r.get(Tag::NodeHost).total_ns
        );
        let json = r.to_json("w", 3);
        let parsed = Json::parse(&json).expect("span file parses");
        assert!(parsed.get("spans").is_some());
        assert!(!span(Tag::Sample).0, "off again after stop");
    }
}
