//! Chaos tests: drive the daemon's supervision machinery on purpose —
//! injected job panics under concurrent load, forced queue saturation, and
//! injected delays against the job deadline — and assert the metrics
//! account for every fault exactly.
//!
//! These only compile under the `chaos` cargo feature (see CI's
//! `cargo test --features chaos -p ftrepair-server` step); a plain
//! `cargo test` builds this file down to nothing.
#![cfg(feature = "chaos")]

use ftrepair_core::RepairOptions;
use ftrepair_server::job::{self, Mode};
use ftrepair_server::{Chaos, Server, ServerConfig, ServerHandle};
use ftrepair_telemetry::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A minimal repairable spec; `tag` varies the program name so each call
/// yields a distinct content key.
fn toggle_spec(tag: usize) -> String {
    format!(
        "program toggle{tag};\n\
         var x : 0..2;\n\
         process p read x; write x;\n\
         begin\n  (x = 0) -> x := 1;\n  (x = 1) -> x := 0;\nend\n\
         fault hit begin (x = 1) -> x := 2; end\n\
         invariant (x = 0) | (x = 1);\n"
    )
}

/// The content key the server will compute for `source` POSTed to
/// `/repair` with no query parameters.
fn key_of(source: &str) -> String {
    job::prepare(source, Mode::Lazy, RepairOptions::default()).expect("valid spec").key
}

fn start(config: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn chaos_config(chaos: &Arc<Chaos>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        io_timeout: Duration::from_secs(2),
        chaos: Some(Arc::clone(chaos)),
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

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
}

/// A quarantined spec stays refused however it comes back: its exact
/// repeat is recalled from the prepare memo and a reformatted copy reaches
/// the same key through `prepare`, and both meet the quarantine (422)
/// before any worker runs it again.
#[test]
fn quarantined_specs_stay_refused_through_the_prepare_memo() {
    let chaos = Arc::new(Chaos::new());
    let spec = toggle_spec(7);
    chaos.panic_on_key(&key_of(&spec));
    let (addr, handle, join) = start(chaos_config(&chaos));

    let (status, body) = request(addr, "POST", "/repair", &spec);
    assert_eq!(status, 500, "{body}");
    let reformatted = format!("// resubmitted\n{spec}");
    for (path, body) in [("/repair", &spec), ("/simulate", &spec), ("/repair", &reformatted)] {
        let (status, reply) = request(addr, "POST", path, body);
        assert_eq!(status, 422, "{path}: {reply}");
        let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(error.contains("quarantined"), "{reply}");
    }

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(counter(&metrics, "server.workers.panics"), 1, "{metrics}");
    assert_eq!(counter(&metrics, "server.http.status.422"), 3, "{metrics}");
    let memo = metrics.get("gauges").and_then(|g| g.get("server.memo.entries"));
    assert_eq!(memo.and_then(Json::as_u64), Some(2), "{metrics}");

    handle.shutdown();
    join.join().unwrap();
}

/// The ISSUE's acceptance scenario: panics injected on 5 distinct content
/// keys while 32 concurrent clients hammer the server. Every request must
/// get a response, the pool must return to full strength, health must
/// degrade during the fault window and recover after it, and the metrics
/// must account for the faults exactly.
#[test]
fn panic_storm_under_concurrent_load_is_absorbed_and_accounted() {
    let chaos = Arc::new(Chaos::new());
    let specs: Vec<String> = (0..5).map(toggle_spec).collect();
    for spec in &specs {
        chaos.panic_on_key(&key_of(spec));
    }
    let config =
        ServerConfig { degraded_window: Duration::from_millis(800), ..chaos_config(&chaos) };
    let (addr, handle, join) = start(config);

    // 32 concurrent POSTs spread across the 5 poisoned specs. Single-flight
    // makes the outcome deterministic: per key, exactly one request leads
    // and eats the injected panic (500); every other request — follower or
    // late arrival — is refused by the quarantine (422).
    let results: Vec<(u16, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..32)
            .map(|i| {
                let body = &specs[i % specs.len()];
                scope.spawn(move || request(addr, "POST", "/repair", body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    assert_eq!(results.len(), 32, "every request got a response");
    let count = |code: u16| results.iter().filter(|(s, _)| *s == code).count();
    assert_eq!(count(500), 5, "exactly one panic per poisoned key: {results:?}");
    assert_eq!(count(422), 27, "everyone else refused by the quarantine: {results:?}");
    for (status, body) in &results {
        let error = body.get("error").and_then(Json::as_str).unwrap_or("");
        match status {
            500 => assert!(error.contains("panicked"), "{body}"),
            _ => assert!(error.contains("quarantined"), "{body}"),
        }
    }

    // Fresh fault window: health is degraded (but still 200), and the
    // supervisor has already restored the pool to full strength.
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "degraded is not down");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("degraded"), "{health}");
    assert_eq!(health.get("workers_alive").and_then(Json::as_u64), Some(4), "{health}");

    // The books balance exactly.
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(counter(&metrics, "server.workers.panics"), 5, "{metrics}");
    assert_eq!(counter(&metrics, "server.jobs.quarantined"), 5, "{metrics}");
    assert_eq!(counter(&metrics, "server.workers.respawned"), 5, "{metrics}");
    assert_eq!(counter(&metrics, "server.http.status.500"), 5, "{metrics}");
    assert_eq!(counter(&metrics, "server.http.status.422"), 27, "{metrics}");
    assert_eq!(metrics.get("quarantined_keys").and_then(Json::as_u64), Some(5), "{metrics}");
    assert_eq!(
        metrics.get("gauges").and_then(|g| g.get("server.workers.alive")).and_then(Json::as_u64),
        Some(4),
        "{metrics}"
    );

    // A resubmission of a poisoned spec never reaches a worker again.
    let (status, body) = request(addr, "POST", "/repair", &specs[0]);
    assert_eq!(status, 422, "{body}");

    // A clean spec still repairs: the pool survived the storm.
    let clean = toggle_spec(99);
    let (status, body) = request(addr, "POST", "/repair", &clean);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");

    // After the degraded window passes with no new faults, health recovers.
    std::thread::sleep(Duration::from_millis(900));
    let (_, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"), "{health}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn forced_queue_saturation_degrades_health_then_recovers() {
    let chaos = Arc::new(Chaos::new());
    let config =
        ServerConfig { degraded_window: Duration::from_millis(500), ..chaos_config(&chaos) };
    let (addr, handle, join) = start(config);

    chaos.force_queue_full(true);
    let (status, body) = request(addr, "POST", "/repair", &toggle_spec(0));
    assert_eq!(status, 429, "{body}");
    assert!(body.get("error").and_then(Json::as_str).unwrap_or("").contains("busy"), "{body}");

    chaos.force_queue_full(false);
    let (_, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("degraded"), "{health}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(counter(&metrics, "server.queue.saturated"), 1, "{metrics}");

    // Service is already back; health follows once the window expires.
    let (status, body) = request(addr, "POST", "/repair", &toggle_spec(0));
    assert_eq!(status, 200, "{body}");
    std::thread::sleep(Duration::from_millis(600));
    let (_, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"), "{health}");

    handle.shutdown();
    join.join().unwrap();
}

/// An injected delay must not pin a worker past the job budget: the sliced
/// chaos sleep watches the token, and the abort surfaces as a plain 503
/// timeout — no panic, no quarantine, nothing cached.
#[test]
fn injected_delay_is_cut_short_by_the_job_deadline() {
    let chaos = Arc::new(Chaos::new());
    chaos.delay_all(Some(Duration::from_secs(30)));
    let config = ServerConfig { job_timeout: Duration::from_millis(200), ..chaos_config(&chaos) };
    let (addr, handle, join) = start(config);

    let started = std::time::Instant::now();
    let (status, body) = request(addr, "POST", "/repair", &toggle_spec(0));
    assert_eq!(status, 503, "{body}");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("timeout"), "{body}");
    assert!(started.elapsed() < Duration::from_secs(10), "delay must not outlive the budget");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(counter(&metrics, "server.jobs.timed_out"), 1, "{metrics}");
    assert_eq!(counter(&metrics, "server.workers.panics"), 0, "{metrics}");
    assert_eq!(metrics.get("cache_entries").and_then(Json::as_u64), Some(0), "{metrics}");

    handle.shutdown();
    join.join().unwrap();
}
