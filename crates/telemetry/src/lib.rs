//! Observability layer for the repair pipeline.
//!
//! Three pieces, deliberately free of external dependencies so the crate can
//! sit below everything except `std`:
//!
//! * [`registry`] — a counter/gauge/histogram/timing registry whose hot
//!   paths (counter increments and histogram observations through
//!   pre-registered [`Counter`]/[`Histogram`] handles) are single relaxed
//!   atomic adds, safe to share across Step 2 worker threads;
//! * [`span`] — RAII span guards that accumulate per-phase wall time into
//!   the registry, with `--trace` print a nested call trace to stderr,
//!   and (when built via [`Telemetry::with_spans`]) log hierarchical
//!   [`SpanRecord`]s with parent IDs and structured fields;
//! * [`trace`] — 64-bit trace IDs and Chrome `trace_event` JSON export of
//!   a span log, viewable in Perfetto;
//! * [`prometheus`] — text exposition of a [`MetricsSnapshot`] in the
//!   Prometheus `# TYPE`/`_bucket`/`_sum`/`_count` format, plus a lint
//!   used by tests and CI to validate any exposition;
//! * [`json`] / [`report`] — a tiny JSON value type (writer *and* parser)
//!   and the versioned JSONL run-report schema shared by the CLI
//!   (`--metrics-out`) and `crates/bench`.
//!
//! The [`Telemetry`] handle ties them together. A disabled handle
//! ([`Telemetry::off`]) is a `None` inside — every instrumentation call is
//! a branch on that option and nothing else, which is what keeps the
//! overhead of compiled-in telemetry below noise when no sink is requested.

pub mod histogram;
pub mod json;
pub mod prometheus;
pub mod registry;
pub mod report;
pub mod span;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use json::Json;
pub use registry::{Counter, MetricsRegistry, MetricsSnapshot};
pub use report::{RunReport, SCHEMA_VERSION};
pub use span::{Span, SpanRecord};

use span::SpanLog;
use std::sync::Arc;
use std::time::Duration;

struct Inner {
    registry: MetricsRegistry,
    trace: bool,
    spans: Option<SpanLog>,
}

/// Cheaply clonable handle to a metrics registry plus trace switch.
///
/// Clones share the same registry, so handing a clone to each thread makes
/// them all feed one set of counters. The default handle is disabled and
/// turns every call into a no-op.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A disabled handle: every instrumentation call is a no-op.
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle collecting metrics, without stderr tracing.
    pub fn new() -> Self {
        Self::with_trace(false)
    }

    /// An enabled handle; `trace` additionally prints nested span
    /// enter/exit lines to stderr.
    pub fn with_trace(trace: bool) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner { registry: MetricsRegistry::new(), trace, spans: None })),
        }
    }

    /// An enabled handle that also logs hierarchical [`SpanRecord`]s with
    /// span/parent IDs and structured fields, for Chrome-trace export via
    /// [`trace::chrome_trace`]. `trace` controls stderr tracing as in
    /// [`Telemetry::with_trace`].
    pub fn with_spans(trace: bool) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: MetricsRegistry::new(),
                trace,
                spans: Some(SpanLog::new()),
            })),
        }
    }

    /// Is metric collection on at all?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Is stderr tracing on?
    pub fn tracing(&self) -> bool {
        self.inner.as_ref().map(|i| i.trace).unwrap_or(false)
    }

    /// Pre-register a counter and get a lock-free handle to it.
    ///
    /// On a disabled `Telemetry` the counter still works but is not
    /// registered anywhere, so incrementing it is harmless and invisible.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(i) => i.registry.counter(name),
            None => Counter::detached(),
        }
    }

    /// Pre-register a histogram and get a lock-free handle to it.
    ///
    /// On a disabled `Telemetry` the histogram still works but is not
    /// registered anywhere, so observing into it is harmless and invisible.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(i) => i.registry.histogram(name),
            None => Histogram::detached(),
        }
    }

    /// Add `n` to the named counter (slow path: looks the counter up).
    pub fn add(&self, name: &str, n: u64) {
        if let Some(i) = &self.inner {
            i.registry.add(name, n);
        }
    }

    /// Set a gauge to an absolute value.
    pub fn set_gauge(&self, name: &str, v: u64) {
        if let Some(i) = &self.inner {
            i.registry.set_gauge(name, v);
        }
    }

    /// Raise a gauge to `v` if `v` is larger than its current value.
    pub fn max_gauge(&self, name: &str, v: u64) {
        if let Some(i) = &self.inner {
            i.registry.max_gauge(name, v);
        }
    }

    /// Accumulate wall time under `name`.
    pub fn add_time(&self, name: &str, d: Duration) {
        if let Some(i) = &self.inner {
            i.registry.add_time(name, d);
        }
    }

    /// Append one sample (a row of named values) to a time series, e.g.
    /// per-outer-iteration BDD sizes.
    pub fn push_sample(&self, series: &str, fields: &[(&str, f64)]) {
        if let Some(i) = &self.inner {
            i.registry.push_sample(series, fields);
        }
    }

    /// Open a span; its wall time is recorded on drop. With tracing on,
    /// prints `> name` / `< name took` lines with per-thread indentation.
    pub fn span(&self, name: &str) -> Span<'_> {
        Span::open(self, name)
    }

    /// Snapshot the registry (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(i) => i.registry.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Merge a snapshot (e.g. from a detached worker registry) into this
    /// handle's registry.
    pub fn absorb_snapshot(&self, snap: &MetricsSnapshot) {
        if let Some(i) = &self.inner {
            i.registry.absorb(snap);
        }
    }

    /// Drain all recorded spans (empty unless built with
    /// [`Telemetry::with_spans`]).
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        match self.span_log() {
            Some(log) => log.take(),
            None => Vec::new(),
        }
    }

    pub(crate) fn span_log(&self) -> Option<&SpanLog> {
        self.inner.as_ref().and_then(|i| i.spans.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        assert!(!t.tracing());
        t.add("x", 5);
        t.set_gauge("g", 7);
        t.counter("c").add(3);
        {
            let _s = t.span("phase");
        }
        assert_eq!(t.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t.add("a", 1);
        t2.add("a", 2);
        assert_eq!(t.snapshot().counter("a"), 3);
    }

    #[test]
    fn spans_accumulate_time_and_count() {
        let t = Telemetry::new();
        for _ in 0..3 {
            let _s = t.span("work");
        }
        let snap = t.snapshot();
        assert_eq!(snap.counter("span.work.count"), 3);
        assert!(snap.times.contains_key("span.work"));
    }

    #[test]
    fn counters_are_shared_across_threads() {
        let t = Telemetry::new();
        let c = t.counter("hits");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                    t.max_gauge("peak", 42);
                });
            }
        });
        let snap = t.snapshot();
        assert_eq!(snap.counter("hits"), 4000);
        assert_eq!(snap.gauges["peak"], 42);
    }
}
