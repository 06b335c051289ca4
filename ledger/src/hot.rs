//! `http_hot`: `ftrepair serve` without a store answers five specs from
//! its memory cache to two closed-loop clients. The repair engine does no
//! work here; the accept loop, request parsing, queueing, `job::prepare`
//! and response writing do all of it.

use crate::client::request;
use crate::daemon::{Daemon, MetricsDelta};
use crate::report::{Layers, Outcome, TraceLog};
use crate::spec::HOT_SPECS;
use crate::Config;
use ftrepair_bdd::SplitMix64;
use ftrepair_telemetry::{trace::format_trace_id, Json, Telemetry};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Closed-loop clients: each sends its next request when the last reply
/// ends. Two, like the machine's cores and the daemon's workers.
pub const CLIENTS: usize = 2;
/// Daemon starts per run, each timed until `/healthz` answers; the last one
/// is pre-warmed and serves the window. The pre-warm is left out of the
/// set-up time: it is one ≈1 s repair of `stabilizing_chain10` in a fresh
/// process, whose time swings by a quarter between runs.
const SETUPS: usize = 20;

const TOP: &[&str] =
    &["client.connect", "server.queue_wait", "server.request", "server.accept_gap"];

/// One completed request as a client saw it.
struct Sample {
    spec: usize,
    latency: Duration,
    connect: Duration,
    bytes: usize,
    problem: Option<String>,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut o = Outcome { top_layers: TOP, ..Outcome::default() };
    let mut serving: Option<Daemon> = None;
    for _ in 0..SETUPS {
        if let Some(old) = serving.take() {
            o.peak_rss_kb = o.peak_rss_kb.max(old.stop()?);
        }
        let t = Instant::now();
        serving = Some(Daemon::start(&cfg.server, &[])?);
        o.setups.push(t.elapsed());
    }
    let daemon = serving.expect("at least one set-up");
    let refs = prewarm(&daemon, &mut o, cfg.seed)?;

    let before = daemon.get_json("/metrics")?;
    let start = Instant::now();
    let deadline = start + cfg.window;
    let mut trace = TraceLog::new(cfg.trace, 1);
    let samples: Vec<Sample> = {
        // The clients' request spans attach to this root.
        let _window = trace.tele().span("window");
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (refs, tele) = (&refs, trace.tele());
                    s.spawn(move || client(daemon.addr, cfg.seed, c, deadline, refs, tele))
                })
                .collect();
            clients.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
        })
    };
    let window = start.elapsed();
    trace.end_op();
    o.spans = trace.into_records();
    let after = daemon.get_json("/metrics")?;
    o.peak_rss_kb = o.peak_rss_kb.max(daemon.stop()?);

    let ops_before = o.timed_ops();
    let mut counts = [0usize; HOT_SPECS.len()];
    let (mut connect, mut bytes) = (Duration::ZERO, 0);
    for s in &samples {
        let problems: Vec<String> = s.problem.iter().cloned().collect();
        if o.record(HOT_SPECS[s.spec].0, &problems) {
            o.sample("hit", s.latency);
            o.op_time += s.latency;
            counts[s.spec] += 1;
            connect += s.connect;
            bytes += s.bytes;
        }
    }
    o.end_round(window, ops_before);
    if cfg.trace {
        let mut delta = MetricsDelta::default();
        delta.add(&before, &after)?;
        delta.charge(&mut o.layers, o.op_time, connect);
        let hits = counts.iter().sum::<usize>().max(1);
        o.layers.set("server.response_bytes", bytes as f64 / hits as f64);
        replay_prepare(&mut o.layers, &counts)?;
    }
    Ok(o)
}

/// POST every spec twice: the first must be a verified miss, the second a
/// hit whose body equals the miss's apart from `cached` and `trace_id`.
/// Returns each spec's hit body with its trace ID cut out — the text every
/// later reply must match.
fn prewarm(daemon: &Daemon, o: &mut Outcome, seed: u64) -> Result<Vec<String>, String> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut refs = Vec::new();
    for (name, text) in HOT_SPECS {
        let mut bodies = Vec::new();
        for cached in [false, true] {
            let id = format_trace_id(rng.next_u64().max(1));
            let r = request(daemon.addr, "POST", "/repair", Some(&id), text)
                .map_err(|e| format!("{name}: {e}"))?;
            let body = Json::parse(&r.body).map_err(|e| format!("{name}: {e}"))?;
            let mut problems = Vec::new();
            if r.status != 200 || r.trace_id.as_deref() != Some(id.as_str()) {
                problems.push(format!("status {} trace {:?}", r.status, r.trace_id));
            }
            if body.get("cached").and_then(Json::as_bool) != Some(cached)
                || body.get("verified").and_then(Json::as_bool) != Some(true)
            {
                problems.push("not a verified reply with the expected cache flag".into());
            }
            o.record(name, &problems);
            bodies.push((without(&body, &["cached", "trace_id"]), r.body.replace(&id, "")));
        }
        let mut problems = Vec::new();
        if bodies[0].0 != bodies[1].0 {
            problems.push("cache hit differs from the repair it cached".to_string());
        }
        o.record(name, &problems);
        refs.push(bodies.pop().expect("two replies").1);
    }
    Ok(refs)
}

/// `j` without the given top-level keys.
pub fn without(j: &Json, keys: &[&str]) -> Json {
    match j {
        Json::Obj(entries) => Json::Obj(
            entries.iter().filter(|(k, _)| !keys.contains(&k.as_str())).cloned().collect(),
        ),
        other => other.clone(),
    }
}

/// One closed-loop client: its own seeded order over the specs, cycled
/// until the deadline. Every reply must be a 200 echoing the trace ID with
/// the reference body.
fn client(
    addr: SocketAddr,
    seed: u64,
    c: usize,
    deadline: Instant,
    refs: &[String],
    tele: &Telemetry,
) -> Vec<Sample> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9));
    let mut order: Vec<usize> = (0..HOT_SPECS.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    let mut out = Vec::new();
    for spec in order.into_iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let id = format_trace_id(rng.next_u64().max(1));
        let mut span = tele.span("client.request");
        span.field("trace_id", id.as_str().into());
        let sample = match request(addr, "POST", "/repair", Some(&id), HOT_SPECS[spec].1) {
            Err(e) => Sample {
                spec,
                latency: Duration::ZERO,
                connect: Duration::ZERO,
                bytes: 0,
                problem: Some(e.to_string()),
            },
            Ok(r) => {
                let problem = if r.status != 200 {
                    Some(format!("status {}", r.status))
                } else if r.trace_id.as_deref() != Some(id.as_str()) {
                    Some(format!("trace ID {:?} not echoed", r.trace_id))
                } else if r.body.replace(&id, "") != refs[spec] {
                    Some("reply differs from the cached repair".to_string())
                } else {
                    None
                };
                Sample {
                    spec,
                    latency: r.latency,
                    connect: r.connect,
                    bytes: r.body.len(),
                    problem,
                }
            }
        };
        out.push(sample);
    }
    out
}

/// The daemon runs `job::prepare` — parse, canonicalize, SHA-256 content
/// address, fingerprint — on every request before its cache lookup. Replay
/// those calls here on the same bodies and charge each spec's measured
/// cost once per request the window served for it.
fn replay_prepare(layers: &mut Layers, counts: &[usize]) -> Result<(), String> {
    const REPEATS: u32 = 200;
    for ((name, text), &n) in HOT_SPECS.iter().zip(counts) {
        let mut per_call = [Duration::ZERO; 4];
        for _ in 0..REPEATS {
            let t = Instant::now();
            let ast = ftrepair_lang::parse(text).map_err(|e| format!("{name}: {e}"))?;
            let t1 = Instant::now();
            let canonical = ftrepair_lang::unparse(&ast);
            let t2 = Instant::now();
            std::hint::black_box(ftrepair_store::content_key(&canonical, "lazy"));
            let t3 = Instant::now();
            std::hint::black_box(ftrepair_store::SpecFingerprint::of(&ast));
            let t4 = Instant::now();
            for (acc, d) in per_call.iter_mut().zip([t1 - t, t2 - t1, t3 - t2, t4 - t3]) {
                *acc += d / REPEATS;
            }
        }
        let layers_of = ["lang.parse", "lang.unparse", "store.sha256", "store.fingerprint"];
        for (layer, d) in layers_of.into_iter().zip(per_call) {
            layers.add(layer, d * n as u32);
        }
    }
    Ok(())
}
