//! What one workload run measured, and its reduction to the metrics named
//! in `BENCHMARK.json`: every end-to-end metric in an untraced run, every
//! per-layer metric in a traced one.

use crate::stats::{geomean, median, percentile};
use ftrepair_telemetry::{Json, SpanRecord, Telemetry};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("latency_ms", "ms"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// Layers whose busy time is reported as `<layer>_pct`: percent of the
/// run's summed operation time spent inside the layer. A layer a workload
/// bypasses reads 0 %.
pub const SHARES: [&str; 28] = [
    "casestudies.build",
    "lang.parse",
    "lang.unparse",
    "store.sha256",
    "store.fingerprint",
    "lang.compile",
    "core.step1",
    "core.step1.ms_fixpoint",
    "core.step1.reachability",
    "core.step1.fixpoint",
    "core.step2",
    "core.outer",
    "core.verify",
    "program.render",
    "symbolic.count",
    "bdd.export",
    "bdd.import",
    "checkpoint.read",
    "checkpoint.aborted_run",
    "checkpoint.write",
    "client.connect",
    "server.queue_wait",
    "server.request",
    "server.accept_gap",
    "server.restart",
    "server.job.run",
    "server.job.repair",
    "server.job.post_repair",
];

/// Per-layer values reported as they are, `(name, unit)`. The first four
/// are derived from every run; a workload sets the ones its layers have.
pub const VALUES: [(&str, &str); 38] = [
    ("traced_latency_ms", "ms"),
    ("p99_ms", "ms"),
    ("samples", "count"),
    ("attributed_pct", "%"),
    ("core.outer_iterations", "count"),
    ("core.step2_picks", "count"),
    ("core.groups_kept", "count"),
    ("core.groups_dropped", "count"),
    ("core.expansions", "count"),
    ("core.cautious_over_lazy", "ratio"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.allocated_nodes", "count"),
    ("bdd.cache_entries", "count"),
    ("bdd.unique.lookups", "count"),
    ("bdd.unique.hit_rate_pct", "%"),
    ("bdd.cache.not.lookups", "count"),
    ("bdd.cache.not.hit_rate_pct", "%"),
    ("bdd.cache.apply.lookups", "count"),
    ("bdd.cache.apply.hit_rate_pct", "%"),
    ("bdd.cache.ite.lookups", "count"),
    ("bdd.cache.ite.hit_rate_pct", "%"),
    ("bdd.cache.quant.lookups", "count"),
    ("bdd.cache.quant.hit_rate_pct", "%"),
    ("bdd.cache.and_exists.lookups", "count"),
    ("bdd.cache.and_exists.hit_rate_pct", "%"),
    ("bdd.cache.rename.lookups", "count"),
    ("bdd.cache.rename.hit_rate_pct", "%"),
    ("bdd.gc_runs", "count"),
    ("bdd.reorder_runs", "count"),
    ("bdd.reorder_swaps", "count"),
    ("bdd.export_bytes", "B"),
    ("checkpoint.bytes", "B"),
    ("server.response_bytes", "B"),
    ("server.cache.hit_ratio_pct", "%"),
    ("store.promotions", "count"),
    ("store.writes", "count"),
    ("store.warm_lookups", "count"),
    ("store.bytes_per_entry", "B"),
];

/// Per-layer accounting of one run.
#[derive(Default)]
pub struct Layers {
    times: BTreeMap<&'static str, Duration>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Add `d` to `layer`'s busy time.
    pub fn add(&mut self, layer: &'static str, d: Duration) {
        debug_assert!(SHARES.contains(&layer), "unknown layer {layer}");
        *self.times.entry(layer).or_default() += d;
    }

    /// Busy time recorded for `layer` so far.
    fn time(&self, layer: &str) -> Duration {
        self.times.get(layer).copied().unwrap_or_default()
    }

    /// Set a per-layer value.
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(VALUES.iter().any(|(n, _)| *n == name), "unknown value {name}");
        self.values.insert(name, v);
    }

    /// Run `f` as one call into `layer`: timed, and inside a span of the
    /// layer's name when the run records spans.
    pub fn call<T>(&mut self, tele: &Telemetry, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = tele.span(layer);
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed());
        out
    }

    /// Fold the engine's own Step 1 phase spans into their layers.
    pub fn absorb_engine_spans(&mut self, records: &[SpanRecord]) {
        for r in records {
            let layer = match r.name.as_str() {
                "step1.ms_fixpoint" => "core.step1.ms_fixpoint",
                "step1.reachability" => "core.step1.reachability",
                "step1.fixpoint" => "core.step1.fixpoint",
                _ => continue,
            };
            self.add(layer, Duration::from_nanos(r.dur_ns));
        }
    }
}

/// The traced run's span log. Spans stay in memory; the first few
/// operations' trees are kept for the Chrome trace, so the file stays small
/// however long the run is.
pub struct TraceLog {
    tele: Telemetry,
    kept: Vec<SpanRecord>,
    keep_ops: usize,
}

impl TraceLog {
    /// `traced` selects span recording; off, every span is a no-op branch.
    pub fn new(traced: bool, keep_ops: usize) -> TraceLog {
        let tele = if traced { Telemetry::with_spans(false) } else { Telemetry::off() };
        TraceLog { tele, kept: Vec::new(), keep_ops }
    }

    pub fn tele(&self) -> &Telemetry {
        &self.tele
    }

    /// Close out one operation: drain its spans, keeping a copy while the
    /// trace still has room.
    pub fn end_op(&mut self) -> Vec<SpanRecord> {
        let records = self.tele.take_spans();
        if self.keep_ops > 0 {
            self.keep_ops -= 1;
            self.kept.extend(records.iter().cloned());
        }
        records
    }

    pub fn into_records(self) -> Vec<SpanRecord> {
        self.kept
    }
}

/// Everything a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations (jobs, requests, restarts, whole-run checks) attempted,
    /// and how many of them failed a check or got no correct reply.
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of each set-up repetition.
    pub setups: Vec<Duration>,
    /// Latency of every successful timed operation, by operation class.
    pub classes: BTreeMap<String, Vec<Duration>>,
    /// Summed time of all operations: the base of every `_pct` share.
    pub op_time: Duration,
    /// Wall time per successful timed operation of each round of the
    /// measuring loop. `ops_per_s` is the inverse of their median, so a
    /// round slowed by a noisy neighbour moves it less than a mean would.
    pub round_time_per_op: Vec<Duration>,
    /// Peak resident set (KiB) of the process that ran the repairs.
    pub peak_rss_kb: u64,
    pub layers: Layers,
    /// Top-level layers of this workload: disjoint, so their shares add up
    /// to `attributed_pct`.
    pub top_layers: &'static [&'static str],
    /// Span records for the traced run's Chrome trace.
    pub spans: Vec<SpanRecord>,
}

impl Outcome {
    /// Count one attempted operation; `problems` lists the checks it
    /// failed. Returns whether it passed.
    pub fn record(&mut self, op: &str, problems: &[String]) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("ledger: {op} failed: {}", problems.join("; "));
        }
        false
    }

    /// Count the checks of warm-up jobs, which ran into `warm` so that
    /// none of their times is kept.
    pub fn absorb_checks(&mut self, warm: &Outcome) {
        self.attempted += warm.attempted;
        self.failed += warm.failed;
    }

    /// Add one successful operation's latency to its class.
    pub fn sample(&mut self, class: &str, latency: Duration) {
        self.classes.entry(class.to_string()).or_default().push(latency);
    }

    /// Successful timed operations so far.
    pub fn timed_ops(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    /// Close one round of the measuring loop (a paper round, a chain or
    /// tiers cycle, or http_hot's whole window) that took `wall` and began
    /// when `ops_before` timed operations were on record.
    pub fn end_round(&mut self, wall: Duration, ops_before: usize) {
        let ops = self.timed_ops() - ops_before;
        if ops > 0 {
            self.round_time_per_op.push(wall / ops as u32);
        }
    }

    /// The workload's latency: geometric mean over operation classes of
    /// each class's median, in milliseconds.
    fn latency_ms(&self) -> f64 {
        let medians: Vec<f64> =
            self.classes.values().map(|v| median(v).as_secs_f64() * 1e3).collect();
        geomean(&medians)
    }

    /// The result's `metrics` object: end-to-end metrics untraced,
    /// per-layer metrics traced.
    pub fn metrics(&self, traced: bool) -> Json {
        let mut out = Json::obj();
        let mut put = |name: &str, value: f64, unit: &str| {
            let mut m = Json::obj();
            m.set("value", value.into());
            m.set("unit", unit.into());
            out.set(name, m);
        };
        let samples: Vec<Duration> = self.classes.values().flatten().copied().collect();
        if !traced {
            let values = [
                median(&self.setups).as_secs_f64(),
                self.latency_ms(),
                match median(&self.round_time_per_op) {
                    per_op if per_op.is_zero() => 0.0,
                    per_op => 1.0 / per_op.as_secs_f64(),
                },
                self.peak_rss_kb as f64 / 1024.0,
            ];
            for ((name, unit), value) in END_TO_END.iter().zip(values) {
                put(name, value, unit);
            }
            return out;
        }
        let share = |layer: &str| {
            100.0 * self.layers.time(layer).as_secs_f64() / self.op_time.as_secs_f64()
        };
        for layer in SHARES {
            put(&format!("{layer}_pct"), share(layer), "%");
        }
        for (name, unit) in VALUES {
            let value = match name {
                "traced_latency_ms" => self.latency_ms(),
                "p99_ms" => percentile(&samples, 99.0).as_secs_f64() * 1e3,
                "samples" => samples.len() as f64,
                "attributed_pct" => self.top_layers.iter().map(|l| share(l)).sum(),
                _ => self.layers.values.get(name).copied().unwrap_or(0.0),
            };
            put(name, value, unit);
        }
        out
    }
}
