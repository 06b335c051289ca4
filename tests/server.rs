//! Integration tests for the repair daemon: in-process servers on ephemeral
//! ports exercised through real sockets, plus one binary-level test that
//! drives `ftrepair serve` through a SIGTERM shutdown.

use ftrepair::server::{Server, ServerConfig, ServerHandle};
use ftrepair::telemetry::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn spec(name: &str) -> String {
    let path = format!("{}/examples/specs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Bind on an ephemeral port and run the server on a background thread.
fn start(config: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        io_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

/// Raw one-shot HTTP client matching the server's `Connection: close`
/// contract. Returns (status, parsed JSON body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read response");
    let text = String::from_utf8(reply).expect("UTF-8 response");
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {:?}", text.lines().next()));
    let json_body = text.split("\r\n\r\n").nth(1).unwrap_or("");
    let json =
        Json::parse(json_body).unwrap_or_else(|e| panic!("unparseable body ({e}): {json_body:?}"));
    (status, json)
}

/// Like [`request`] but with caller-supplied request headers, returning the
/// response headers (lowercased names) and the raw body text — for tests
/// that care about `X-Trace-Id` echo or non-JSON bodies.
fn request_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\nConnection: close\r\n\r\n{body}", body.len()));
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read response");
    let text = String::from_utf8(reply).expect("UTF-8 response");
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {:?}", text.lines().next()));
    let (head, tail) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    let response_headers = head
        .lines()
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    (status, response_headers, tail.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

#[test]
fn repair_round_trips_both_example_specs() {
    let (addr, handle, join) = start(test_config());

    let (status, body) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("ok").and_then(Json::as_bool), Some(true), "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");
    assert_eq!(body.get("cached").and_then(Json::as_bool), Some(false), "{body}");
    let program = body.get("program").and_then(Json::as_str).expect("program text");
    assert!(program.contains("(x = 2) ->"), "recovery missing:\n{program}");

    let (status, body) = request(addr, "POST", "/repair", &spec("tmr_voter.ftr"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");
    let program = body.get("program").and_then(Json::as_str).expect("program text");
    assert!(
        program.contains("(r0 = 0) & (r1 = 0) & (r2 = 0) & (o = 2) -> o := 0;"),
        "unanimity decision missing:\n{program}"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn identical_posts_hit_the_cache_and_metrics_show_it() {
    let (addr, handle, join) = start(test_config());
    let toggle = spec("toggle_pair.ftr");

    let (status, first) = request(addr, "POST", "/repair", &toggle);
    assert_eq!(status, 200, "{first}");
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));

    // Different formatting (extra comment + indentation), same canonical
    // spec: still a cache hit.
    let reformatted = format!("// resubmitted\n{}", toggle.replace('\n', "\n  "));
    let (status, second) = request(addr, "POST", "/repair", &reformatted);
    assert_eq!(status, 200, "{second}");
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true), "{second}");
    assert_eq!(first.get("key"), second.get("key"), "same content address");

    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let counters = metrics.get("counters").expect("counters object");
    assert!(counters.get("server.cache.hits").and_then(Json::as_u64) >= Some(1), "{metrics}");
    assert!(counters.get("server.cache.misses").and_then(Json::as_u64) >= Some(1), "{metrics}");
    assert!(counters.get("server.jobs.completed").and_then(Json::as_u64) >= Some(1), "{metrics}");

    handle.shutdown();
    join.join().unwrap();
}

/// A gauge from `/metrics` (scrape-time gauges are stamped per scrape).
fn gauge(addr: SocketAddr, name: &str) -> Option<u64> {
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{metrics}");
    metrics.get("gauges").and_then(|g| g.get(name)).and_then(Json::as_u64)
}

fn counter(addr: SocketAddr, name: &str) -> u64 {
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{metrics}");
    metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
}

/// POST `body` to `path` under trace ID `id`; returns the raw reply body.
fn post_traced(addr: SocketAddr, path: &str, id: &str, body: &str) -> String {
    let (status, headers, reply) = request_full(addr, "POST", path, &[("X-Trace-Id", id)], body);
    assert_eq!(status, 200, "{reply}");
    assert_eq!(header(&headers, "x-trace-id"), Some(id), "{headers:?}");
    reply
}

/// The reply a cache entry gave before entries kept their serialized
/// body: the response document (the reply without its per-reply fields)
/// with `cached` and `trace_id` set, serialized.
fn set_and_serialize(reply: &Json, cached: bool, id: &str) -> String {
    let Json::Obj(fields) = reply else { panic!("reply is not an object: {reply}") };
    let fields = fields.iter().filter(|(k, _)| k != "cached" && k != "trace_id").cloned();
    let mut doc = Json::Obj(fields.collect());
    doc.set("cached", cached.into());
    doc.set("trace_id", id.into());
    doc.to_string()
}

#[test]
fn miss_memory_hit_and_disk_replies_are_byte_identical() {
    let dir = std::env::temp_dir().join(format!("ftrepair-server-splice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig { store_dir: Some(dir.clone()), ..test_config() };
    let toggle = spec("toggle_pair.ftr");

    let (addr, handle, join) = start(config.clone());
    let miss = post_traced(addr, "/repair", "00000000000000a1", &toggle);
    let hit = post_traced(addr, "/repair", "00000000000000a2", &toggle);
    // Shutdown drains the store writer, so the entry is on disk after it.
    handle.shutdown();
    join.join().unwrap();

    let (addr, handle, join) = start(config);
    let promoted = post_traced(addr, "/repair", "00000000000000a3", &toggle);
    let hit_after = post_traced(addr, "/repair", "00000000000000a4", &toggle);
    assert_eq!(counter(addr, "store.promotions"), 1);
    assert_eq!(counter(addr, "server.jobs.completed"), 0, "the restarted daemon recomputed");
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let replies = [
        (&miss, false, "00000000000000a1"),
        (&hit, true, "00000000000000a2"),
        (&promoted, true, "00000000000000a3"),
        (&hit_after, true, "00000000000000a4"),
    ];
    for (reply, cached, id) in replies {
        let parsed = Json::parse(reply).expect("JSON body");
        assert_eq!(parsed.get("cached").and_then(Json::as_bool), Some(cached), "{reply}");
        assert_eq!(parsed.get("verified").and_then(Json::as_bool), Some(true), "{reply}");
        assert_eq!(*reply, set_and_serialize(&parsed, cached, id));
    }
    let without_id = |(reply, _, id): (&String, bool, &str)| reply.replace(id, "");
    let [miss, hit, promoted, hit_after] = replies.map(without_id);
    assert_eq!(miss.replace("\"cached\":false", "\"cached\":true"), hit);
    assert_eq!(hit, promoted);
    assert_eq!(hit, hit_after);
}

#[test]
fn repeated_bodies_skip_prepare_and_still_count_as_cache_hits() {
    let (addr, handle, join) = start(test_config());
    let toggle = spec("toggle_pair.ftr");

    // A body that fails to parse never enters the memo.
    let (status, body) = request(addr, "POST", "/repair", "program oops");
    assert_eq!(status, 400, "{body}");
    assert_eq!(gauge(addr, "server.memo.entries"), Some(0));

    let miss: Json =
        Json::parse(&post_traced(addr, "/repair", "00000000000000b1", &toggle)).unwrap();
    assert_eq!(miss.get("cached").and_then(Json::as_bool), Some(false), "{miss}");
    assert_eq!(gauge(addr, "server.memo.entries"), Some(1));

    // The exact repeat is recalled from the memo: a memory hit, counted as
    // one, recorded as one.
    let hit = Json::parse(&post_traced(addr, "/repair", "00000000000000b2", &toggle)).unwrap();
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true), "{hit}");
    assert_eq!(counter(addr, "server.cache.hits"), 1);
    assert_eq!(counter(addr, "server.cache.misses"), 1);
    let (status, record) = request(addr, "GET", "/jobs/00000000000000b2", "");
    assert_eq!(status, 200, "{record}");
    assert_eq!(record.get("status").and_then(Json::as_str), Some("cache_hit"), "{record}");
    assert_eq!(record.get("case").and_then(Json::as_str), Some("toggle_pair"), "{record}");
    assert_eq!(record.get("key"), miss.get("key"), "{record}");

    // A reformatted copy misses the memo and still hits through prepare.
    let reformatted = format!("// resubmitted\n{toggle}");
    let copy =
        Json::parse(&post_traced(addr, "/repair", "00000000000000b3", &reformatted)).unwrap();
    assert_eq!(copy.get("cached").and_then(Json::as_bool), Some(true), "{copy}");
    assert_eq!(copy.get("key"), miss.get("key"));
    assert_eq!(gauge(addr, "server.memo.entries"), Some(2));
    assert_eq!(counter(addr, "server.cache.hits"), 2);

    // The same body in cautious mode is its own job, never the lazy entry.
    for (i, cached) in [false, true].into_iter().enumerate() {
        let id = format!("00000000000000c{i}");
        let reply = Json::parse(&post_traced(addr, "/repair?mode=cautious", &id, &toggle)).unwrap();
        assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(cached), "{reply}");
        assert_eq!(reply.get("mode").and_then(Json::as_str), Some("cautious"), "{reply}");
        assert_ne!(reply.get("key"), miss.get("key"), "{reply}");
    }
    let lazy = Json::parse(&post_traced(addr, "/repair", "00000000000000b4", &toggle)).unwrap();
    assert_eq!(lazy.get("mode").and_then(Json::as_str), Some("lazy"), "{lazy}");
    assert_eq!(lazy.get("key"), miss.get("key"));
    assert_eq!(counter(addr, "server.jobs.completed"), 2, "one lazy and one cautious repair");

    // /simulate recalls the same memo entry.
    let (status, sim) = request(addr, "POST", "/simulate?runs=20", &toggle);
    assert_eq!(status, 200, "{sim}");
    assert_eq!(sim.get("cached").and_then(Json::as_bool), Some(true), "{sim}");
    assert_eq!(sim.get("case").and_then(Json::as_str), Some("toggle_pair"), "{sim}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn the_prepare_memo_is_bounded_by_the_cache_capacity() {
    let config = ServerConfig { cache_cap: 4, ..test_config() };
    let (addr, handle, join) = start(config);
    let toggle = spec("toggle_pair.ftr");
    for i in 0..14 {
        let renamed = toggle.replacen("program toggle_pair", &format!("program toggle{i}"), 1);
        let (status, body) = request(addr, "POST", "/repair", &renamed);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("case").and_then(Json::as_str), Some(format!("toggle{i}").as_str()));
        assert!(gauge(addr, "server.memo.entries") <= Some(4));
    }
    assert_eq!(gauge(addr, "server.memo.entries"), Some(4));
    assert_eq!(gauge(addr, "server.cache.entries"), Some(4));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn cache_hits_do_not_wait_on_an_accept_timer() {
    let (addr, handle, join) = start(test_config());
    let toggle = spec("toggle_pair.ftr");
    let (status, body) = request(addr, "POST", "/repair", &toggle);
    assert_eq!(status, 200, "{body}");

    // Sequential hits, each on a fresh connection. An accept loop that
    // sleeps a fixed 5 ms whenever nothing is pending makes every one of
    // them wait out most of that sleep.
    let mut latencies: Vec<Duration> = (0..50)
        .map(|_| {
            let t = std::time::Instant::now();
            let (status, body) = request(addr, "POST", "/repair", &toggle);
            let elapsed = t.elapsed();
            assert_eq!(status, 200, "{body}");
            assert_eq!(body.get("cached").and_then(Json::as_bool), Some(true), "{body}");
            elapsed
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(median < Duration::from_micros(2500), "median hit latency {median:?}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn idle_server_shuts_down_promptly() {
    let server = Server::bind(&test_config()).expect("bind 127.0.0.1:0");
    let handle = server.handle();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let join = std::thread::spawn(move || {
        server.run().expect("server run");
        let _ = done_tx.send(());
    });
    std::thread::sleep(Duration::from_millis(50));

    // An accept loop that blocks until the next connection would never see
    // the flag on a daemon nobody talks to.
    handle.shutdown();
    assert!(
        done_rx.recv_timeout(Duration::from_millis(500)).is_ok(),
        "idle server did not stop within 500 ms of shutdown"
    );
    join.join().unwrap();
}

#[test]
fn malformed_specs_get_400_and_the_server_stays_up() {
    let (addr, handle, join) = start(test_config());

    let (status, body) = request(addr, "POST", "/repair", "program broken (((");
    assert_eq!(status, 400, "{body}");
    assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false));
    let error = body.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("parse error"), "{body}");

    let (status, body) = request(addr, "POST", "/repair", "");
    assert_eq!(status, 400, "{body}");

    // Semantically broken (unknown variable) is a compile error, also 400.
    let (status, body) = request(
        addr,
        "POST",
        "/repair",
        "program t; process p read x; write x; begin (x = 0) -> x := 1; end invariant true;",
    );
    assert_eq!(status, 400, "{body}");
    assert!(
        body.get("error").and_then(Json::as_str).unwrap_or("").contains("compile error"),
        "{body}"
    );

    // The workers survived all of it.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body.get("ok").and_then(Json::as_bool), Some(true));

    handle.shutdown();
    join.join().unwrap();
}

/// A chain `a = 1 & a = 1 & …` nests one level per term. As the largest
/// body the daemon reads (1 MiB), it once overflowed a worker's stack,
/// which no supervision catches: the process aborted. Past the parser's
/// depth bound it is a 400 like any other parse error.
#[test]
fn a_megabyte_chain_gets_400_and_the_server_stays_up() {
    let (addr, handle, join) = start(test_config());
    let (head, term) = ("program t; var a : boolean; invariant a = 1", " & a = 1");
    let terms = (ftrepair::server::http::MAX_BODY_BYTES - head.len() - 1) / term.len();
    let body = format!("{head}{};", term.repeat(terms));

    let (status, reply) = request(addr, "POST", "/repair", &body);
    assert_eq!(status, 400, "{reply}");
    let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("nesting exceeds"), "{reply}");
    let (status, reply) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn unknown_paths_and_methods_are_clean_errors() {
    let (addr, handle, join) = start(test_config());
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/repair", "");
    assert_eq!(status, 405);
    let (status, body) = request(addr, "POST", "/repair?mode=psychic", &spec("toggle_pair.ftr"));
    assert_eq!(status, 400);
    assert!(
        body.get("error").and_then(Json::as_str).unwrap_or("").contains("unknown mode"),
        "{body}"
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn simulate_replays_faults_against_the_cached_repair() {
    let (addr, handle, join) = start(test_config());
    let toggle = spec("toggle_pair.ftr");

    let (status, body) = request(addr, "POST", "/simulate?runs=50&seed=7", &toggle);
    assert_eq!(status, 200, "{body}");
    let sim = body.get("simulation").expect("simulation object");
    assert_eq!(sim.get("ok").and_then(Json::as_bool), Some(true), "{body}");
    assert_eq!(sim.get("runs").and_then(Json::as_u64), Some(50), "{body}");
    assert!(sim.get("faults_injected").and_then(Json::as_u64) > Some(0), "{body}");

    // The simulate call warmed the cache; a /repair on the same spec hits.
    let (status, body) = request(addr, "POST", "/repair", &toggle);
    assert_eq!(status, 200);
    assert_eq!(body.get("cached").and_then(Json::as_bool), Some(true), "{body}");

    let (status, body) = request(addr, "POST", "/simulate?runs=0", &toggle);
    assert_eq!(status, 400, "{body}");

    let (status, body) = request(addr, "POST", "/simulate?max-faults=1000000", &toggle);
    assert_eq!(status, 400, "{body}");
    assert!(
        body.get("error").and_then(Json::as_str).unwrap_or("").contains("max-faults"),
        "{body}"
    );

    // A malformed number is refused by name, not replaced by its default.
    for (query, name) in [
        ("runs=abc", "runs"),
        ("runs=-5", "runs"),
        ("max-faults=lots", "max-faults"),
        ("seed=xyz", "seed"),
    ] {
        let (status, body) = request(addr, "POST", &format!("/simulate?{query}"), &toggle);
        assert_eq!(status, 400, "{query}: {body}");
        let error = body.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(error.starts_with(name), "{query}: {body}");
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn full_queue_sheds_load_with_429() {
    let config = ServerConfig { workers: 1, queue_cap: 1, ..test_config() };
    let (addr, handle, join) = start(config);

    // Occupy the single worker, then the single queue slot, with idle
    // connections that never send a request.
    let idle1 = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200)); // worker pops idle1
    let idle2 = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200)); // idle2 sits in the queue

    let (status, body) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 429, "{body}");
    assert!(body.get("error").and_then(Json::as_str).unwrap_or("").contains("busy"), "{body}");

    // Freeing the connections restores service.
    drop(idle1);
    drop(idle2);
    std::thread::sleep(Duration::from_millis(200));
    let (status, body) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200, "{body}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn thirty_two_concurrent_posts_all_succeed() {
    let (addr, handle, join) = start(test_config());
    let toggle = spec("toggle_pair.ftr");
    let tmr = spec("tmr_voter.ftr");

    let results: Vec<(u16, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..32)
            .map(|i| {
                let body = if i % 2 == 0 { &toggle } else { &tmr };
                scope.spawn(move || request(addr, "POST", "/repair", body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    for (status, body) in &results {
        assert_eq!(*status, 200, "{body}");
        assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");
    }
    // With 32 requests over 2 distinct specs, single-flight guarantees the
    // repair runs once per spec: every other request either waits for the
    // leader and reads the cache, or arrives later and hits directly.
    let hits = results
        .iter()
        .filter(|(_, b)| b.get("cached").and_then(Json::as_bool) == Some(true))
        .count();
    assert_eq!(hits, 30, "exactly one miss per distinct spec");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn exhausted_job_timeout_answers_503_and_is_never_cached() {
    let config = ServerConfig { job_timeout: Duration::ZERO, ..test_config() };
    let (addr, handle, join) = start(config);
    let toggle = spec("toggle_pair.ftr");

    let (status, body) = request(addr, "POST", "/repair", &toggle);
    assert_eq!(status, 503, "{body}");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("timeout"), "{body}");

    // The failure was not cached: the same spec times out again instead of
    // serving a pinned 503 (a retry may run under a larger budget).
    let (status, body) = request(addr, "POST", "/repair", &toggle);
    assert_eq!(status, 503, "{body}");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("timeout"), "{body}");

    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let counters = metrics.get("counters").expect("counters object");
    assert_eq!(counters.get("server.jobs.timed_out").and_then(Json::as_u64), Some(2), "{metrics}");
    assert_eq!(metrics.get("cache_entries").and_then(Json::as_u64), Some(0), "{metrics}");

    // Timeouts are transient conditions, not worker faults: still healthy.
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"), "{health}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn cancel_jobs_aborts_repairs_with_503_cancelled() {
    let (addr, handle, join) = start(test_config());
    handle.cancel_jobs();

    let (status, body) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 503, "{body}");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("cancelled"), "{body}");

    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let counters = metrics.get("counters").expect("counters object");
    assert_eq!(counters.get("server.jobs.cancelled").and_then(Json::as_u64), Some(1), "{metrics}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn metrics_out_gets_per_job_reports_and_a_shutdown_summary() {
    let dir = std::env::temp_dir().join("ftrepair-server-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("server.jsonl");
    let _ = std::fs::remove_file(&path);

    let config = ServerConfig { metrics_out: Some(path.clone()), ..test_config() };
    let (addr, handle, join) = start(config);
    let (status, _) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200);
    handle.shutdown();
    join.join().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).expect("JSONL line")).collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert_eq!(lines[0].get("case").and_then(Json::as_str), Some("toggle_pair"));
    assert!(lines[0].get("server_key").is_some(), "job line carries the content address");
    assert_eq!(lines[1].get("case").and_then(Json::as_str), Some("server"));
    assert_eq!(lines[1].get("mode").and_then(Json::as_str), Some("summary"));
}

#[test]
fn trace_ids_round_trip_and_jobs_expose_records() {
    let (addr, handle, join) = start(test_config());
    let toggle = spec("toggle_pair.ftr");

    // A well-formed X-Trace-Id header is adopted: echoed in the response
    // header and body, and used as the /jobs key.
    let hex = "00000000deadbeef";
    let (status, headers, body) =
        request_full(addr, "POST", "/repair", &[("X-Trace-Id", hex)], &toggle);
    assert_eq!(status, 200, "{body}");
    assert_eq!(header(&headers, "x-trace-id"), Some(hex), "{headers:?}");
    let body = Json::parse(&body).expect("JSON body");
    assert_eq!(body.get("trace_id").and_then(Json::as_str), Some(hex), "{body}");

    let (status, record) = request(addr, "GET", &format!("/jobs/{hex}"), "");
    assert_eq!(status, 200, "{record}");
    assert_eq!(record.get("ok").and_then(Json::as_bool), Some(true), "{record}");
    assert_eq!(record.get("trace_id").and_then(Json::as_str), Some(hex));
    assert_eq!(record.get("case").and_then(Json::as_str), Some("toggle_pair"));
    assert_eq!(record.get("status").and_then(Json::as_str), Some("done"), "{record}");
    let detail = record.get("detail").expect("detail object");
    assert!(detail.get("outer_iterations").and_then(Json::as_u64) >= Some(1), "{record}");
    assert_eq!(detail.get("verified").and_then(Json::as_bool), Some(true), "{record}");

    // A resubmission is a cache hit under its own server-minted ID; /jobs
    // lists both records newest-first.
    let (status, body) = request(addr, "POST", "/repair", &toggle);
    assert_eq!(status, 200, "{body}");
    let minted = body.get("trace_id").and_then(Json::as_str).expect("minted id").to_string();
    assert_ne!(minted, hex, "server must mint when no header is sent");
    let (status, listing) = request(addr, "GET", "/jobs", "");
    assert_eq!(status, 200, "{listing}");
    let jobs = match listing.get("jobs").expect("jobs array") {
        Json::Arr(v) => v,
        other => panic!("jobs not an array: {other:?}"),
    };
    assert_eq!(jobs.len(), 2, "{listing}");
    assert_eq!(jobs[0].get("trace_id").and_then(Json::as_str), Some(minted.as_str()));
    assert_eq!(jobs[0].get("status").and_then(Json::as_str), Some("cache_hit"), "{listing}");
    assert_eq!(jobs[1].get("trace_id").and_then(Json::as_str), Some(hex));

    // Unknown and malformed IDs are clean errors, not 500s.
    let (status, _) = request(addr, "GET", "/jobs/0000000000000001", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/jobs/not-a-trace-id", "");
    assert_eq!(status, 400);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn prometheus_exposition_lints_clean_and_metrics_json_is_v2() {
    let (addr, handle, join) = start(test_config());
    let (status, _) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200);

    let (status, headers, text) = request_full(addr, "GET", "/metrics?format=prometheus", &[], "");
    assert_eq!(status, 200, "{text}");
    assert!(
        header(&headers, "content-type").unwrap_or("").contains("version=0.0.4"),
        "{headers:?}"
    );
    let violations = ftrepair::telemetry::prometheus::lint(&text);
    assert!(violations.is_empty(), "lint violations {violations:?} in:\n{text}");
    assert!(text.contains("# TYPE ftr_server_request_seconds histogram"), "{text}");
    assert!(text.contains("ftr_server_request_seconds_bucket{le=\"+Inf\"}"), "{text}");
    assert!(text.contains("ftr_server_cache_misses_total"), "{text}");
    assert!(text.contains("ftr_server_uptime_seconds"), "{text}");

    let (status, _, body) = request_full(addr, "GET", "/metrics?format=csv", &[], "");
    assert_eq!(status, 400, "unknown formats must be rejected: {body}");

    // The JSON shape: schema v2 with first-class histogram objects, built
    // from a direct registry snapshot (no synthetic RunReport).
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metrics.get("schema_version").and_then(Json::as_u64), Some(2), "{metrics}");
    let hists = metrics.get("histograms").expect("histograms object");
    let req = hists.get("server.request.seconds").expect("request latency histogram");
    assert!(req.get("count").and_then(Json::as_u64) >= Some(1), "{metrics}");
    assert!(hists.get("server.queue_wait.seconds").is_some(), "{metrics}");

    handle.shutdown();
    join.join().unwrap();
}

/// Start `ftrepair serve` on an ephemeral port with `envs` added to its
/// environment, and parse the address it announces.
fn serve_binary(envs: &[(&str, &str)]) -> (std::process::Child, SocketAddr) {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_ftrepair"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .envs(envs.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ftrepair serve");

    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let announce = lines.next().expect("announce line").expect("read stdout");
    let addr: SocketAddr = announce
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line {announce:?}"))
        .parse()
        .expect("parse announced address");
    (child, addr)
}

/// Binary-level: `ftrepair serve` announces its address, serves traffic,
/// and drains cleanly on SIGTERM.
#[test]
#[cfg(unix)]
fn serve_binary_shuts_down_gracefully_on_sigterm() {
    use std::process::Command;

    let (mut child, addr) = serve_binary(&[]);
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let (status, body) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200, "{body}");

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    // wait() has no timeout in std; poll with a deadline instead.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "server exited with {status}");
                break;
            }
            None if std::time::Instant::now() > deadline => {
                let _ = child.kill();
                panic!("server did not exit within 30s of SIGTERM");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(stderr.contains("drained and stopped"), "{stderr}");
}

/// `RUST_MIN_STACK` sets the default stack of spawned threads, but the
/// daemon's workers ask for the stack the parser's depth bound is argued
/// for: a legal spec whose invariant is a 250-term chain still repairs,
/// and the process stays up.
#[test]
#[cfg(unix)]
fn a_small_rust_min_stack_does_not_shrink_the_workers() {
    let chain = vec!["(x = 0) | (x = 1)"; 125].join(" | ");
    let deep = spec("toggle_pair.ftr")
        .lines()
        .map(|line| {
            if line.starts_with("invariant") {
                format!("invariant {chain};")
            } else {
                line.into()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(deep.contains(&chain), "toggle_pair.ftr has a one-line invariant");

    let (mut child, addr) = serve_binary(&[("RUST_MIN_STACK", "65536")]);
    let (status, body) = request(addr, "POST", "/repair", &deep);
    let (health, _) = request(addr, "GET", "/healthz", "");
    let _ = child.kill();
    let _ = child.wait();
    assert_eq!(status, 200, "{body}");
    assert_eq!(health, 200);
}
