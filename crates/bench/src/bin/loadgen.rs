//! `loadgen` — HTTP load generator for the `ftrepair serve` daemon.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7177 --spec examples/specs/toggle_pair.ftr
//!         [--spec more.ftr ...] [--conns 8] [--requests 64]
//!         [--mode lazy|cautious] [--endpoint repair|simulate]
//!         [--connect-timeout <secs>] [--retries <n>]
//!         [--metrics-out <path>]
//! ```
//!
//! Opens `--conns` worker threads, each issuing `POST /<endpoint>` requests
//! over raw TCP (one request per connection, matching the server's
//! `Connection: close` contract) until `--requests` total have completed,
//! rotating through the given specs. Connects are bounded by
//! `--connect-timeout` (a dead daemon fails fast instead of hanging the
//! batch), and a failed connect or a `429` is retried up to `--retries`
//! times with full-jitter exponential backoff, so the generator behaves
//! like a disciplined client instead of re-slamming a saturated queue in
//! lockstep. Every request carries a deterministically minted `X-Trace-Id`
//! header and checks that the daemon echoes it back, so any retained
//! sample can be looked up at `/jobs/<trace-id>` afterwards. The latency
//! of every `200` goes into a lock-free log-bucketed histogram (no
//! sampling); the report's percentiles are derived from it, and throughput
//! counts `200`s only, so shed or failed requests never make the daemon
//! look faster. Reports goodput, latency percentiles, retries, and
//! status/cache breakdowns,
//! with failures classified by kind — `shed` (429), `5xx`, `connect`,
//! `timeout`, `transport` — because each calls for a different reaction
//! (back off / inspect jobs / restart daemon / raise deadline / check the
//! network); `--metrics-out` appends the summary as one JSONL run report
//! in the same schema as the CLI and the bench tables, histogram included.
//!
//! `--restart-after N` splits the run into two phases for measuring the
//! persistent store's warm restart: the first N requests form the *cold*
//! phase, then the generator pauses `--restart-pause` seconds — long
//! enough for a harness to SIGTERM the daemon and restart it on the same
//! `--store-dir` — and the remaining requests form the *warm* phase
//! against the restarted daemon (connect retries absorb the gap). The
//! report then carries separate `cold_*`/`warm_*` latency percentiles, so
//! the post-restart p99 collapse is one JSONL line.

use ftrepair_telemetry::report::histogram_to_json;
use ftrepair_telemetry::trace::format_trace_id;
use ftrepair_telemetry::{Histogram, Json, RunReport};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    specs: Vec<(String, String)>, // (path, body)
    conns: usize,
    requests: usize,
    mode: String,
    endpoint: String,
    connect_timeout: Duration,
    max_retries: usize,
    metrics_out: Option<PathBuf>,
    restart_after: Option<usize>,
    restart_pause: Duration,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        addr: "127.0.0.1:7177".to_string(),
        specs: Vec::new(),
        conns: 8,
        requests: 64,
        mode: "lazy".to_string(),
        endpoint: "repair".to_string(),
        connect_timeout: Duration::from_secs(5),
        max_retries: 3,
        metrics_out: None,
        restart_after: None,
        restart_pause: Duration::from_secs(2),
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> Result<&String, String> {
            argv.get(i + 1).ok_or_else(|| format!("{} requires an argument", argv[i]))
        };
        match argv[i].as_str() {
            "--addr" => args.addr = value(i)?.clone(),
            "--spec" => {
                let path = value(i)?.clone();
                let body = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                args.specs.push((path, body));
            }
            "--conns" => args.conns = value(i)?.parse().map_err(|_| "--conns: not a number")?,
            "--requests" => {
                args.requests = value(i)?.parse().map_err(|_| "--requests: not a number")?
            }
            "--mode" => args.mode = value(i)?.clone(),
            "--endpoint" => args.endpoint = value(i)?.clone(),
            "--connect-timeout" => {
                let secs: f64 = value(i)?.parse().map_err(|_| "--connect-timeout: not a number")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--connect-timeout must be positive seconds".to_string());
                }
                args.connect_timeout = Duration::from_secs_f64(secs);
            }
            "--retries" => {
                args.max_retries = value(i)?.parse().map_err(|_| "--retries: not a number")?
            }
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value(i)?)),
            "--restart-after" => {
                args.restart_after =
                    Some(value(i)?.parse().map_err(|_| "--restart-after: not a number")?)
            }
            "--restart-pause" => {
                let secs: f64 = value(i)?.parse().map_err(|_| "--restart-pause: not a number")?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("--restart-pause must be non-negative seconds".to_string());
                }
                args.restart_pause = Duration::from_secs_f64(secs);
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += if argv[i].starts_with("--") { 2 } else { 1 };
    }
    if args.specs.is_empty() {
        return Err("at least one --spec <file.ftr> is required".to_string());
    }
    if !matches!(args.mode.as_str(), "lazy" | "cautious") {
        return Err(format!("--mode must be lazy or cautious, not {}", args.mode));
    }
    if !matches!(args.endpoint.as_str(), "repair" | "simulate") {
        return Err(format!("--endpoint must be repair or simulate, not {}", args.endpoint));
    }
    if args.conns == 0 || args.requests == 0 {
        return Err("--conns and --requests must be at least 1".to_string());
    }
    if let Some(n) = args.restart_after {
        if n == 0 || n >= args.requests {
            return Err("--restart-after must leave requests in both phases".to_string());
        }
    }
    Ok(args)
}

/// One completed request, as seen from the client.
struct Sample {
    latency: Duration,
    status: u16,
    cached: bool,
    /// Did the daemon echo our `X-Trace-Id` back unchanged?
    trace_echoed: bool,
}

/// Why a request produced no HTTP status, split at the source so the
/// summary can tell a dead daemon from a hung one from a torn reply.
enum RequestError {
    /// TCP connect (or name resolution) failed — the daemon is down,
    /// restarting, or its listen backlog overflowed. Retryable.
    Connect(String),
    /// The connection opened but a read or write hit its timeout — the
    /// daemon accepted us and then went quiet.
    Timeout(String),
    /// Everything else: reset mid-reply, malformed response, short read.
    Transport(String),
}

impl RequestError {
    fn class(&self) -> &'static str {
        match self {
            RequestError::Connect(_) => "connect",
            RequestError::Timeout(_) => "timeout",
            RequestError::Transport(_) => "transport",
        }
    }

    fn message(&self) -> &str {
        match self {
            RequestError::Connect(m) | RequestError::Timeout(m) | RequestError::Transport(m) => m,
        }
    }
}

/// Classify a post-connect I/O failure: blocking sockets with a deadline
/// report `TimedOut` or (on some platforms) `WouldBlock`.
fn io_error(stage: &str, e: std::io::Error) -> RequestError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => {
            RequestError::Timeout(format!("{stage}: {e}"))
        }
        _ => RequestError::Transport(format!("{stage}: {e}")),
    }
}

/// Issue one request and parse the status line + body out of the raw reply.
fn one_request(
    addr: &str,
    endpoint: &str,
    mode: &str,
    body: &str,
    trace_id: u64,
    connect_timeout: Duration,
) -> Result<Sample, RequestError> {
    use std::net::ToSocketAddrs;
    let started = Instant::now();
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| RequestError::Connect(format!("connect {addr}: {e}")))?
        .next()
        .ok_or_else(|| RequestError::Connect(format!("connect {addr}: no address resolved")))?;
    let mut stream = TcpStream::connect_timeout(&sock, connect_timeout)
        .map_err(|e| RequestError::Connect(format!("connect {addr}: {e}")))?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(60))).ok();
    let trace_hex = format_trace_id(trace_id);
    let request = format!(
        "POST /{endpoint}?mode={mode} HTTP/1.1\r\nHost: {addr}\r\nX-Trace-Id: {trace_hex}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(request.as_bytes()).map_err(|e| io_error("write", e))?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).map_err(|e| io_error("read", e))?;
    let latency = started.elapsed();

    let text = String::from_utf8_lossy(&reply);
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| {
            RequestError::Transport(format!(
                "malformed reply: {:?}",
                text.lines().next().unwrap_or("")
            ))
        })?;
    let (head, json_body) = match text.split_once("\r\n\r\n") {
        Some((h, b)) => (h, b),
        None => (text.as_ref(), ""),
    };
    let trace_echoed = head.lines().any(|line| {
        line.split_once(':').is_some_and(|(name, value)| {
            name.eq_ignore_ascii_case("x-trace-id") && value.trim() == trace_hex
        })
    });
    let cached = Json::parse(json_body)
        .ok()
        .and_then(|j| j.get("cached").and_then(Json::as_bool))
        .unwrap_or(false);
    Ok(Sample { latency, status, cached, trace_echoed })
}

/// One SplitMix64 step.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step mapped to `[0, 1)`.
fn next_unit(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Issue a request, retrying failed connects and `429`s up to
/// `args.max_retries` times. Returns the final result plus how many
/// retries it took.
fn request_with_retry(
    args: &Args,
    body: &str,
    rng: &mut u64,
) -> (Result<Sample, RequestError>, usize) {
    const BACKOFF_BASE: Duration = Duration::from_millis(50);
    // One trace ID per logical request (retries reuse it — they are the
    // same attempt from the client's point of view). `max(1)`: trace IDs
    // are nonzero by contract.
    let trace_id = next_u64(rng).max(1);
    let mut retries = 0;
    loop {
        let result = one_request(
            &args.addr,
            &args.endpoint,
            &args.mode,
            body,
            trace_id,
            args.connect_timeout,
        );
        let retryable = match &result {
            // Connects are retryable (daemon restarting, listen backlog
            // full); read/write errors are not — the job may have run, and
            // replaying it could double non-idempotent work downstream.
            Err(e) => matches!(e, RequestError::Connect(_)),
            Ok(s) => s.status == 429,
        };
        if !retryable || retries >= args.max_retries {
            return (result, retries);
        }
        // Full-jitter exponential backoff: sleep a uniform random slice of
        // base * 2^attempt, so the herd that saturated the queue does not
        // re-arrive in lockstep and saturate it again.
        let cap = BACKOFF_BASE.as_secs_f64() * (1u64 << retries.min(6)) as f64;
        std::thread::sleep(Duration::from_secs_f64((cap * next_unit(rng)).max(0.001)));
        retries += 1;
    }
}

/// Issue `count` requests over `args.conns` connections, rotating through
/// the spec list from index 0 (both phases of a restart run post the same
/// spec rotation — that is what makes the second phase warm). `phase`
/// seeds the jitter streams so the two phases do not replay identical
/// backoff schedules.
fn run_batch(args: &Args, count: usize, phase: u64) -> Vec<(Result<Sample, RequestError>, usize)> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.conns)
            .map(|conn| {
                let next = &next;
                scope.spawn(move || {
                    // Per-connection jitter stream, seeded distinctly so
                    // concurrent backoffs do not march in step.
                    let mut rng: u64 = 0x10AD_6E4E
                        ^ (conn as u64).wrapping_mul(0xA5A5_A5A5)
                        ^ phase.wrapping_mul(0x5EED_0CE1);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let (_, body) = &args.specs[i % args.specs.len()];
                        out.push(request_with_retry(args, body, &mut rng));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect()
    })
}

/// Latency percentiles of one phase's successful (`200`) requests.
fn phase_latency(results: &[(Result<Sample, RequestError>, usize)]) -> (Duration, Duration, u64) {
    let hist = Histogram::new();
    for s in results.iter().filter_map(|(r, _)| r.as_ref().ok()).filter(|s| s.status == 200) {
        hist.observe_duration(s.latency);
    }
    let snap = hist.snapshot();
    (snap.percentile_duration(50.0), snap.percentile_duration(99.0), snap.count)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };

    // `elapsed` sums the measuring windows only — the restart pause is not
    // the daemon's latency and must not dilute the throughput number.
    let cold_count = args.restart_after.unwrap_or(args.requests);
    let started = Instant::now();
    let cold_results = run_batch(&args, cold_count, 0);
    let mut elapsed = started.elapsed();
    let warm_results = if args.restart_after.is_some() {
        eprintln!(
            "loadgen: cold phase done ({} requests); pausing {:.2?} for the daemon restart",
            cold_results.len(),
            args.restart_pause,
        );
        std::thread::sleep(args.restart_pause);
        let warm_started = Instant::now();
        let warm = run_batch(&args, args.requests - cold_count, 1);
        elapsed += warm_started.elapsed();
        warm
    } else {
        Vec::new()
    };
    let results: Vec<&(Result<Sample, RequestError>, usize)> =
        cold_results.iter().chain(warm_results.iter()).collect();

    // Every 200's latency lands in the histogram — no sampling, fixed
    // memory — and the reported percentiles come straight out of its
    // buckets (≤6.25% relative error). A 429 or 5xx answers fast precisely
    // because no work was done, so it is counted below but not timed.
    let latency_hist = Histogram::new();
    let mut ok = 0usize;
    // Failure classes, kept apart because each calls for a different
    // reaction: `shed` (429) means the queue held — back off; `server_5xx`
    // means jobs are dying; `connect` means the daemon is down; `timeout`
    // means it accepted and hung; `transport` is a torn or malformed reply.
    let mut shed = 0usize;
    let mut server_5xx = 0usize;
    let mut other_status = 0usize;
    let mut connect_errors = 0usize;
    let mut timeout_errors = 0usize;
    let mut transport_errors = 0usize;
    let mut cached = 0usize;
    let mut retries = 0usize;
    let mut trace_mismatches = 0usize;
    for (r, tries) in results.iter().copied() {
        retries += tries;
        match r {
            Ok(s) => {
                match s.status {
                    200 => {
                        ok += 1;
                        latency_hist.observe_duration(s.latency);
                    }
                    429 => shed += 1,
                    500..=599 => server_5xx += 1,
                    _ => other_status += 1,
                }
                cached += s.cached as usize;
                trace_mismatches += !s.trace_echoed as usize;
            }
            Err(e) => {
                match e {
                    RequestError::Connect(_) => connect_errors += 1,
                    RequestError::Timeout(_) => timeout_errors += 1,
                    RequestError::Transport(_) => transport_errors += 1,
                }
                eprintln!("loadgen: request failed ({}): {}", e.class(), e.message());
            }
        }
    }
    let errors = connect_errors + timeout_errors + transport_errors;
    let latency = latency_hist.snapshot();
    let (p50, p90, p99, p999) = (
        latency.percentile_duration(50.0),
        latency.percentile_duration(90.0),
        latency.percentile_duration(99.0),
        latency.percentile_duration(99.9),
    );
    // Goodput: only 200s count as served.
    let throughput = ok as f64 / elapsed.as_secs_f64().max(1e-9);

    eprintln!(
        "loadgen: {} requests in {:.2?} over {} conns -> {:.1} ok req/s",
        results.len(),
        elapsed,
        args.conns,
        throughput,
    );
    eprintln!(
        "  status: {ok} ok, {shed} shed (429), {server_5xx} 5xx, {other_status} other; \
         failed: {connect_errors} connect, {timeout_errors} timeout, {transport_errors} transport; \
         {cached} cache hits; {retries} retries",
    );
    eprintln!("  latency: p50 {p50:.2?}, p90 {p90:.2?}, p99 {p99:.2?}, p999 {p999:.2?} (histogram, {} samples)", latency.count);
    if args.restart_after.is_some() {
        let (cold_p50, cold_p99, cold_n) = phase_latency(&cold_results);
        let (warm_p50, warm_p99, warm_n) = phase_latency(&warm_results);
        eprintln!(
            "  cold (before restart): p50 {cold_p50:.2?}, p99 {cold_p99:.2?} ({cold_n} samples)"
        );
        eprintln!(
            "  warm (after restart):  p50 {warm_p50:.2?}, p99 {warm_p99:.2?} ({warm_n} samples)"
        );
    }
    if trace_mismatches > 0 {
        eprintln!("  WARNING: {trace_mismatches} responses did not echo X-Trace-Id");
    }

    let mut report = RunReport::new("loadgen", &args.endpoint);
    report.set("addr", args.addr.as_str().into());
    report
        .set("specs", Json::Arr(args.specs.iter().map(|(p, _)| Json::from(p.as_str())).collect()));
    report.set("mode", args.mode.as_str().into());
    report.set("conns", args.conns.into());
    report.set("requests", results.len().into());
    report.set("elapsed_s", elapsed.as_secs_f64().into());
    report.set("throughput_rps", throughput.into());
    report.set("status_ok", ok.into());
    report.set("status_shed", shed.into());
    report.set("status_5xx", server_5xx.into());
    report.set("status_other", other_status.into());
    report.set("errors_connect", connect_errors.into());
    report.set("errors_timeout", timeout_errors.into());
    report.set("errors_transport", transport_errors.into());
    report.set("retries", retries.into());
    report.set("cache_hits", cached.into());
    report.set("trace_mismatches", trace_mismatches.into());
    report.set("latency_p50_s", p50.as_secs_f64().into());
    report.set("latency_p90_s", p90.as_secs_f64().into());
    report.set("latency_p99_s", p99.as_secs_f64().into());
    report.set("latency_p999_s", p999.as_secs_f64().into());
    report.set("latency_count", latency.count.into());
    if let Some(n) = args.restart_after {
        let (cold_p50, cold_p99, cold_n) = phase_latency(&cold_results);
        let (warm_p50, warm_p99, warm_n) = phase_latency(&warm_results);
        report.set("restart_after", n.into());
        report.set("restart_pause_s", args.restart_pause.as_secs_f64().into());
        report.set("cold_p50_s", cold_p50.as_secs_f64().into());
        report.set("cold_p99_s", cold_p99.as_secs_f64().into());
        report.set("cold_count", cold_n.into());
        report.set("warm_p50_s", warm_p50.as_secs_f64().into());
        report.set("warm_p99_s", warm_p99.as_secs_f64().into());
        report.set("warm_count", warm_n.into());
    }
    // The full histogram, in the same shape the schema-v2 run reports use,
    // so `ftrepair metrics-dump` can merge loadgen files too.
    let mut hists = Json::obj();
    hists.set("loadgen.request.seconds", histogram_to_json(&latency));
    report.set("histograms", hists);
    match &args.metrics_out {
        Some(path) => {
            if let Err(e) = report.append_to(path) {
                eprintln!("loadgen: cannot write metrics to {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!("metrics appended to {}", path.display());
        }
        None => println!("{}", report.to_json_line()),
    }

    if errors > 0 || server_5xx > 0 || other_status > 0 {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
