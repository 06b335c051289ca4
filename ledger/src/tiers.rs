//! `http_tiers`: `ftrepair serve --store-dir --journal` through every
//! store tier. Each cycle starts a daemon on fresh directories and runs
//! four phases with two closed-loop clients: `miss` (every donor chain is
//! repaired and written through), `warm` (two one-action edits per donor
//! warm-start from it), a restart (SIGTERM, drain, respawn on the same
//! directories), and `disk_hit` (every key is promoted from disk).

use crate::client::{request, Reply, RequestError};
use crate::daemon::{Daemon, MetricsDelta};
use crate::hot::{without, CLIENTS};
use crate::report::{Outcome, TraceLog};
use crate::spec::chain_spec;
use crate::{Config, TempDir};
use ftrepair_bdd::SplitMix64;
use ftrepair_telemetry::{trace::format_trace_id, Json};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Donor chains `(cells, values, band)`. The `oracle` band is small
/// enough (at most 4096 states) that the daemon also builds the explicit
/// `/simulate` bundle on every miss and disk hit; the `large` bands are
/// not. The seed picks the edited cells and the trace IDs, never the sizes,
/// so every seed costs the same.
const DONORS: [(usize, u64, &str); 3] = [(5, 3, "oracle"), (8, 4, "large"), (10, 8, "large")];

const TOP: &[&str] = &[
    "client.connect",
    "server.queue_wait",
    "server.request",
    "server.accept_gap",
    "server.restart",
];

/// One spec of the population and what its replies must show.
struct Spec {
    /// `<band>.<cells>x<values>`; prefixed with the phase, a latency class.
    name: String,
    text: String,
    /// States in the repaired invariant and fault-span.
    counts: (f64, f64),
}

/// One reply, in the order the phase sent it.
struct Sent {
    spec: usize,
    trace_id: String,
    reply: Result<Reply, RequestError>,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut o = Outcome { top_layers: TOP, ..Outcome::default() };
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let mut specs = Vec::new();
    for (n, d, band) in DONORS {
        let counts = (d as f64, (d as f64).powi(n as i32));
        specs.push(Spec { name: format!("{band}.{n}x{d}"), text: chain_spec(n, d, None), counts });
    }
    for (n, d, band) in DONORS {
        let first = 1 + rng.gen_index(n - 1);
        let second = 1 + (first + rng.gen_index(n - 2)) % (n - 1);
        for cell in [first, second] {
            let counts = (d as f64, (d as f64).powi(n as i32));
            let name = format!("{band}.{n}x{d}");
            specs.push(Spec { name, text: chain_spec(n, d, Some(cell)), counts });
        }
    }

    let mut run = Tiers {
        o: &mut o,
        specs,
        rng,
        trace: TraceLog::new(cfg.trace, 1),
        delta: MetricsDelta::default(),
        connect: Duration::ZERO,
        cycles: 0,
    };
    let start = Instant::now();
    while run.cycles == 0 || start.elapsed() < cfg.window {
        let (round, ops_before) = (Instant::now(), run.o.timed_ops());
        run.cycle(cfg)?;
        run.o.end_round(round.elapsed(), ops_before);
        run.trace.end_op();
    }
    let Tiers { delta, connect, cycles, trace, .. } = run;
    o.spans = trace.into_records();
    if cfg.trace {
        let per_cycle = |name| delta.counter(name) as f64 / cycles as f64;
        for name in ["store.promotions", "store.writes", "store.warm_lookups"] {
            o.layers.set(name, per_cycle(name));
        }
        let requests: Duration = o.classes.values().flatten().sum();
        delta.charge(&mut o.layers, requests, connect);
    }
    Ok(o)
}

struct Tiers<'a> {
    o: &'a mut Outcome,
    specs: Vec<Spec>,
    rng: SplitMix64,
    trace: TraceLog,
    delta: MetricsDelta,
    /// Connect time of every successful request.
    connect: Duration,
    cycles: u64,
}

impl Tiers<'_> {
    fn cycle(&mut self, cfg: &Config) -> Result<(), String> {
        self.cycles += 1;
        let dir = TempDir::new(cfg, "tiers")?;
        let store = dir.path().join("store");
        let journal = dir.path().join("journal.jsonl");
        let flags: [&Path; 4] = ["--store-dir".as_ref(), &store, "--journal".as_ref(), &journal];

        // Client threads' request spans attach to this root.
        let tele = self.trace.tele().clone();
        let _cycle = tele.span("cycle");
        let t = Instant::now();
        let daemon = Daemon::start(&cfg.server, &flags)?;
        self.o.setups.push(t.elapsed());
        let before = daemon.get_json("/metrics")?;
        let donors: Vec<usize> = (0..DONORS.len()).collect();
        let misses = self.phase(&daemon, "miss", &donors, cfg.trace);
        let mut bodies = vec![Json::Null; self.specs.len()];
        for s in &misses {
            let problems = self.check(s, "miss", |body, spec| {
                expect_flags(body, false, false, spec)?;
                Ok(())
            });
            if problems.is_empty() {
                bodies[s.spec] = body_of(s);
            }
        }
        // Write-through is asynchronous: the warm phase needs the donors
        // on disk before it can find them.
        let waited = Instant::now();
        while daemon.counter("store.writes")? < DONORS.len() as u64 {
            if waited.elapsed() > Duration::from_secs(60) {
                return Err("donors never reached the store".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let edits: Vec<usize> = (DONORS.len()..self.specs.len()).collect();
        let warms = self.phase(&daemon, "warm", &edits, cfg.trace);
        for s in &warms {
            let donor = (s.spec - DONORS.len()) / 2;
            let donor_counts = counts_of(&bodies[donor]);
            let problems = self.check(s, "warm", |body, spec| {
                expect_flags(body, false, true, spec)?;
                if counts_of(body) != donor_counts {
                    return Err("warm start's counts differ from its donor's".into());
                }
                Ok(())
            });
            if problems.is_empty() {
                bodies[s.spec] = body_of(s);
            }
        }

        // Restart on the same directories: the drain flushes the store's
        // write queue, and the new process must find nothing to recover.
        self.delta.add(&before, &daemon.get_json("/metrics")?)?;
        self.o.peak_rss_kb = self.o.peak_rss_kb.max(daemon.stop()?);
        let t = Instant::now();
        let daemon = {
            let _span = tele.span("server.restart");
            Daemon::start(&cfg.server, &flags)?
        };
        let restart = t.elapsed();
        self.o.layers.add("server.restart", restart);
        self.o.op_time += restart;
        let health = daemon.get_json("/healthz")?;
        let pending = health.get("recovery").and_then(|r| r.get("pending_at_boot"));
        let problems = match pending.and_then(Json::as_u64) {
            Some(0) => vec![],
            other => vec![format!("pending_at_boot {other:?} after a clean drain")],
        };
        self.o.record("restart", &problems);

        let before = daemon.get_json("/metrics")?;
        let all: Vec<usize> = (0..self.specs.len()).collect();
        let hits = self.phase(&daemon, "disk_hit", &all, cfg.trace);
        for s in &hits {
            let expected = without(&bodies[s.spec], &["cached", "trace_id"]);
            self.check(s, "disk_hit", |body, _| {
                if body.get("cached").and_then(Json::as_bool) != Some(true) {
                    return Err("not served from the store".into());
                }
                if without(body, &["cached", "trace_id"]) != expected {
                    return Err("disk hit differs from the repair it stored".into());
                }
                Ok(())
            });
        }
        let after = daemon.get_json("/metrics")?;
        let count = |name| after.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64);
        let mut problems = Vec::new();
        if count("server.jobs.completed").unwrap_or(0) != 0 {
            problems.push("the restarted daemon recomputed a stored repair".to_string());
        }
        if count("store.promotions") != Some(self.specs.len() as u64) {
            problems.push(format!(
                "store.promotions {:?}, expected one per key",
                count("store.promotions")
            ));
        }
        self.o.record("disk_hit.counters", &problems);
        if cfg.trace {
            let gauge = |name| after.get("gauges").and_then(|g| g.get(name)).and_then(Json::as_u64);
            let (bytes, entries) = (gauge("store.bytes"), gauge("store.entries"));
            let per_entry = bytes.unwrap_or(0) as f64 / entries.unwrap_or(0).max(1) as f64;
            self.o.layers.set("store.bytes_per_entry", per_entry);
        }
        self.delta.add(&before, &after)?;
        self.o.peak_rss_kb = self.o.peak_rss_kb.max(daemon.stop()?);
        Ok(())
    }

    /// POST `which` specs with two closed-loop clients, largest chain
    /// first: a shuffled order would let the two largest jobs land on one
    /// client in some cycles and on both in others, and the phase's length
    /// would swing with that. Traced, each job's server-side split is read
    /// back from `/jobs/<trace-id>`.
    fn phase(&mut self, daemon: &Daemon, name: &str, which: &[usize], traced: bool) -> Vec<Sent> {
        let tele = self.trace.tele().clone();
        let _span = tele.span(&format!("phase.{name}"));
        let mut order = which.to_vec();
        order.sort_by(|&a, &b| self.specs[b].counts.1.total_cmp(&self.specs[a].counts.1));
        let ids: Vec<String> =
            order.iter().map(|_| format_trace_id(self.rng.next_u64().max(1))).collect();
        let next = AtomicUsize::new(0);
        let sent = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&spec) = order.get(i) else { break };
                    let mut span = tele.span("client.request");
                    span.field("trace_id", ids[i].as_str().into());
                    span.field("spec", self.specs[spec].name.as_str().into());
                    let reply = request(
                        daemon.addr,
                        "POST",
                        "/repair",
                        Some(&ids[i]),
                        &self.specs[spec].text,
                    );
                    let s = Sent { spec, trace_id: ids[i].clone(), reply };
                    sent.lock().expect("a client panicked").push(s);
                });
            }
        });
        let sent = sent.into_inner().expect("a client panicked");
        for s in &sent {
            let Ok(r) = &s.reply else { continue };
            if r.status != 200 {
                continue;
            }
            self.connect += r.connect;
            if traced {
                if let Ok(job) = daemon.get_json(&format!("/jobs/{}", s.trace_id)) {
                    self.charge_job(&job);
                }
            }
        }
        sent
    }

    /// Charge one job's server-side run: its repair phases, and the rest
    /// of its run (verify, render, simulation bundle, export — or, for a
    /// disk hit, the promotion).
    fn charge_job(&mut self, job: &Json) {
        let secs =
            |v: Option<&Json>| Duration::from_secs_f64(v.and_then(Json::as_f64).unwrap_or(0.0));
        let run = secs(job.get("run_s"));
        let detail = job.get("detail");
        let repair = secs(detail.and_then(|d| d.get("step1_s")))
            + secs(detail.and_then(|d| d.get("step2_s")));
        self.o.layers.add("server.job.run", run);
        self.o.layers.add("server.job.repair", repair);
        self.o.layers.add("server.job.post_repair", run.saturating_sub(repair));
    }

    /// Record one reply: it must be a 200 echoing its trace ID whose body
    /// passes `body_check`; its latency joins `<phase>.<spec class>`.
    fn check(
        &mut self,
        s: &Sent,
        phase: &str,
        body_check: impl FnOnce(&Json, &Spec) -> Result<(), String>,
    ) -> Vec<String> {
        let spec = &self.specs[s.spec];
        let class = format!("{phase}.{}", spec.name);
        let verdict = match &s.reply {
            Err(e) => Err(e.to_string()),
            Ok(r) if r.status != 200 => Err(format!("status {}", r.status)),
            Ok(r) if r.trace_id.as_deref() != Some(s.trace_id.as_str()) => {
                Err(format!("trace ID {:?} not echoed", r.trace_id))
            }
            Ok(r) => {
                Json::parse(&r.body).map_err(|e| e.to_string()).and_then(|b| body_check(&b, spec))
            }
        };
        let problems: Vec<String> = verdict.err().into_iter().collect();
        if self.o.record(&class, &problems) {
            let latency = s.reply.as_ref().map(|r| r.latency).unwrap_or_default();
            self.o.sample(&class, latency);
            self.o.op_time += latency;
        }
        problems
    }
}

fn body_of(s: &Sent) -> Json {
    s.reply.as_ref().ok().and_then(|r| Json::parse(&r.body).ok()).unwrap_or(Json::Null)
}

fn counts_of(body: &Json) -> (Option<f64>, Option<f64>) {
    let count = |k| body.get(k).and_then(Json::as_f64);
    (count("invariant_states"), count("span_states"))
}

/// A fresh repair: not cached, warm-started or not as expected, verified,
/// and with the chain's exact counts.
fn expect_flags(body: &Json, cached: bool, warm: bool, spec: &Spec) -> Result<(), String> {
    let flag = |k| body.get(k).and_then(Json::as_bool);
    if flag("cached") != Some(cached) || flag("warm_start") != Some(warm) {
        return Err(format!("cached {:?} warm_start {:?}", flag("cached"), flag("warm_start")));
    }
    if flag("verified") != Some(true) {
        return Err("not verified".into());
    }
    let (inv, span) = spec.counts;
    if counts_of(body) != (Some(inv), Some(span)) {
        return Err(format!("counts {:?}, expected ({inv}, {span})", counts_of(body)));
    }
    Ok(())
}
