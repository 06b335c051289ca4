//! RAII span guards, optionally forming a hierarchical trace tree.
//!
//! `tele.span("step1")` times a region of code and, on drop, accumulates
//! the elapsed wall time under `span.step1` plus a `span.step1.count`
//! counter. With tracing on it also prints nested enter/exit lines to
//! stderr, indented per thread so concurrent threads stay readable.
//!
//! When the telemetry handle was built with span recording on
//! ([`crate::Telemetry::with_spans`]), every span additionally logs a
//! [`SpanRecord`] carrying a span ID, its parent's ID, a small thread ID,
//! start/duration in nanoseconds since the handle's epoch, and any
//! structured key/value fields attached via [`Span::field`]. Parent
//! linkage is thread-local: a span opened while another span is live on
//! the same thread becomes its child. Spans opened on a thread with no
//! live span (e.g. a benchmark's client threads) attach to the oldest live
//! *root* span instead, so their activity still lands inside the root's
//! trace tree. The record log is bounded; overflow increments a
//! `telemetry.spans_dropped` counter instead of growing without limit.

use crate::{Json, Telemetry};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    static TRACE_DEPTH: Cell<usize> = const { Cell::new(0) };
    /// ID of the innermost live span on this thread (0 = none).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// Small per-thread ID for trace output (0 until first use).
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// One finished span, as logged into the span log.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// This span's ID (always nonzero).
    pub id: u64,
    /// Parent span ID, 0 for a root.
    pub parent: u64,
    pub name: String,
    /// Small per-thread ID (stable within a process run).
    pub tid: u64,
    /// Start offset from the telemetry handle's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Structured fields attached with [`Span::field`], in insertion order.
    pub fields: Vec<(String, Json)>,
}

/// Default cap on retained span records per telemetry handle.
pub(crate) const SPAN_LOG_CAP: usize = 65_536;

/// Bounded log of finished spans plus the ID allocator, owned by an
/// enabled-with-spans [`Telemetry`].
pub(crate) struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    /// ID of the oldest live root span; orphan spans on other threads
    /// attach here so they land inside the job's trace tree.
    fallback_parent: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
    cap: usize,
}

impl SpanLog {
    pub(crate) fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            fallback_parent: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
            cap: SPAN_LOG_CAP,
        }
    }

    pub(crate) fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.records.lock().unwrap())
    }
}

struct SpanData {
    name: String,
    start: Instant,
    /// This span's ID in the span log; 0 when the log is off.
    id: u64,
    /// Parent span ID as resolved at open time.
    parent: u64,
    /// CURRENT_SPAN value to restore on drop (this thread's previous
    /// innermost span — equals `parent` unless the fallback root was used).
    prev_current: u64,
    /// Did this span install itself as the fallback root?
    owns_fallback: bool,
    fields: Vec<(String, Json)>,
}

/// Guard returned by [`Telemetry::span`]; records on drop. Inert (a single
/// `None`) when the telemetry handle is disabled.
pub struct Span<'a> {
    tele: &'a Telemetry,
    data: Option<SpanData>,
}

impl<'a> Span<'a> {
    pub(crate) fn open(tele: &'a Telemetry, name: &str) -> Span<'a> {
        if !tele.enabled() {
            return Span { tele, data: None };
        }
        if tele.tracing() {
            let depth = TRACE_DEPTH.with(|d| {
                let v = d.get();
                d.set(v + 1);
                v
            });
            eprintln!("trace: {:indent$}> {name}", "", indent = 2 * depth);
        }
        let mut data = SpanData {
            name: name.to_string(),
            start: Instant::now(),
            id: 0,
            parent: 0,
            prev_current: 0,
            owns_fallback: false,
            fields: Vec::new(),
        };
        if let Some(log) = tele.span_log() {
            data.id = log.next_id.fetch_add(1, Ordering::Relaxed);
            data.prev_current = CURRENT_SPAN.with(|c| c.get());
            data.parent = data.prev_current;
            if data.parent == 0 {
                // No live span on this thread: either claim the root slot
                // or attach to whoever holds it.
                match log.fallback_parent.compare_exchange(
                    0,
                    data.id,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => data.owns_fallback = true,
                    Err(root) => data.parent = root,
                }
            }
            CURRENT_SPAN.with(|c| c.set(data.id));
        }
        Span { tele, data: Some(data) }
    }

    /// The span's name, if active.
    pub fn name(&self) -> Option<&str> {
        self.data.as_ref().map(|d| d.name.as_str())
    }

    /// Attach a structured key/value field to this span's record (a no-op
    /// unless span recording is on).
    pub fn field(&mut self, key: &str, value: Json) {
        if let Some(data) = &mut self.data {
            if data.id != 0 {
                data.fields.push((key.to_string(), value));
            }
        }
    }

    /// This span's ID in the span log (None when not recording).
    pub fn id(&self) -> Option<u64> {
        match &self.data {
            Some(d) if d.id != 0 => Some(d.id),
            _ => None,
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else { return };
        let elapsed = data.start.elapsed();
        self.tele.add_time(&format!("span.{}", data.name), elapsed);
        self.tele.add(&format!("span.{}.count", data.name), 1);
        if data.id != 0 {
            if let Some(log) = self.tele.span_log() {
                CURRENT_SPAN.with(|c| c.set(data.prev_current));
                if data.owns_fallback {
                    let _ = log.fallback_parent.compare_exchange(
                        data.id,
                        0,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                }
                let record = SpanRecord {
                    id: data.id,
                    parent: data.parent,
                    name: data.name.clone(),
                    tid: thread_id(),
                    start_ns: duration_ns(data.start.duration_since(log.epoch)),
                    dur_ns: duration_ns(elapsed),
                    fields: data.fields,
                };
                let mut records = log.records.lock().unwrap();
                if records.len() < log.cap {
                    records.push(record);
                } else {
                    drop(records);
                    self.tele.add("telemetry.spans_dropped", 1);
                }
            }
        }
        if self.tele.tracing() {
            let depth = TRACE_DEPTH.with(|d| {
                let v = d.get().saturating_sub(1);
                d.set(v);
                v
            });
            eprintln!("trace: {:indent$}< {} {:.3?}", "", data.name, elapsed, indent = 2 * depth);
        }
    }
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use crate::{Json, Telemetry};

    #[test]
    fn nested_spans_record_independently() {
        let t = Telemetry::new();
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let snap = t.snapshot();
        assert_eq!(snap.counter("span.outer.count"), 1);
        assert_eq!(snap.counter("span.inner.count"), 1);
        assert!(snap.times["span.outer"] >= snap.times["span.inner"]);
    }

    #[test]
    fn disabled_span_has_no_name() {
        let t = Telemetry::off();
        let s = t.span("x");
        assert_eq!(s.name(), None);
    }

    #[test]
    fn span_records_link_parents_and_fields() {
        let t = Telemetry::with_spans(false);
        {
            let mut root = t.span("job");
            root.field("case", Json::from("toggle"));
            {
                let _s1 = t.span("step1");
                let _fx = t.span("fixpoint");
            }
            let _s2 = t.span("step2");
        }
        let records = t.take_spans();
        assert_eq!(records.len(), 4);
        let by_name =
            |n: &str| records.iter().find(|r| r.name == n).unwrap_or_else(|| panic!("{n}"));
        let job = by_name("job");
        assert_eq!(job.parent, 0);
        assert_eq!(job.fields[0].0, "case");
        assert_eq!(by_name("step1").parent, job.id);
        assert_eq!(by_name("step2").parent, job.id);
        assert_eq!(by_name("fixpoint").parent, by_name("step1").id);
        // Children finish before (or as) the root does.
        for r in &records {
            assert!(r.start_ns + r.dur_ns <= job.start_ns + job.dur_ns + 1_000);
        }
    }

    #[test]
    fn orphan_spans_attach_to_the_live_root() {
        let t = Telemetry::with_spans(false);
        {
            let _root = t.span("job");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let t = t.clone();
                    s.spawn(move || {
                        let _w = t.span("worker");
                    });
                }
            });
        }
        let records = t.take_spans();
        let root = records.iter().find(|r| r.name == "job").unwrap();
        let workers: Vec<_> = records.iter().filter(|r| r.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        for w in workers {
            assert_eq!(w.parent, root.id, "worker spans parent to the root");
            assert_ne!(w.tid, root.tid);
        }
    }

    #[test]
    fn take_spans_drains_the_log() {
        let t = Telemetry::with_spans(false);
        {
            let _s = t.span("a");
        }
        assert_eq!(t.take_spans().len(), 1);
        assert!(t.take_spans().is_empty());
    }

    #[test]
    fn plain_handles_record_no_spans() {
        let t = Telemetry::new();
        {
            let _s = t.span("a");
        }
        assert!(t.take_spans().is_empty());
    }
}
