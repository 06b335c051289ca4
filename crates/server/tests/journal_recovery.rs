//! Crash-recovery integration: the durable job journal, boot-time replay,
//! checkpoint-seeded resume, and the bounded shutdown drain — driven
//! through real sockets against in-process servers sharing one disk
//! volume across simulated reboots.
//!
//! The cancel flag stands in for `kill -9` here: a cancelled job has its
//! journal start record on disk but no completion record (cancellation is
//! deliberately left pending — that is the checkpoint-and-exit contract),
//! which is exactly the state a hard kill leaves behind. The true
//! binary-level kill -9 test lives in `tests/journal_recovery.rs` at the
//! workspace root.

use ftrepair_server::{Server, ServerConfig, ServerHandle};
use ftrepair_telemetry::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftrepair-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(config: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

/// A journaled, store-backed config rooted at `dir` — the same volume can
/// be handed to a second server to simulate a reboot.
fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        io_timeout: Duration::from_secs(2),
        store_dir: Some(dir.join("store")),
        journal: Some(dir.join("journal.jsonl")),
        ..ServerConfig::default()
    }
}

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

/// Poll `/metrics` until `name` reaches `want` — boot recovery runs on a
/// background thread, so its effects land shortly after bind.
fn wait_counter(addr: SocketAddr, name: &str, want: u64) -> Json {
    let mut last = Json::Null;
    for _ in 0..500 {
        let (_, metrics) = request(addr, "GET", "/metrics", "");
        if counter(&metrics, name) >= want {
            return metrics;
        }
        last = metrics;
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("counter {name} never reached {want}: {last}");
}

/// The tentpole scenario end to end: a job that dies after its journal
/// start record (the cancel flag stands in for the kill) is replayed to
/// completion by the next boot, and later requests for the same spec are
/// served cached — no client ever re-pays the repair. The replay runs
/// cold: the flag is raised before the POST, so the job aborts at its
/// first token check, before any checkpoint offer, and leaves no slot.
#[test]
fn cancelled_job_is_replayed_on_reboot_and_later_requests_hit_the_cache() {
    let dir = temp_dir("replay");

    // Boot 1: cancel aborts the job after journal_start, before journal_done.
    let (addr, handle, join) = start(config(&dir));
    handle.cancel_jobs();
    let (status, body) = request(addr, "POST", "/repair", &toggle_spec(0));
    assert_eq!(status, 503, "{body}");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("cancelled"), "{body}");
    handle.shutdown();
    join.join().unwrap();

    // Boot 2 on the same volume: the recovery scan finds the incomplete
    // record and replays it to completion in the background.
    let (addr, handle, join) = start(config(&dir));
    let metrics = wait_counter(addr, "server.jobs.replayed", 1);
    assert_eq!(counter(&metrics, "server.jobs.recovered"), 1, "{metrics}");

    // /healthz narrates the recovery.
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    let recovery = health.get("recovery").expect("recovery section");
    assert_eq!(recovery.get("journal").and_then(Json::as_bool), Some(true), "{health}");
    assert_eq!(recovery.get("pending_at_boot").and_then(Json::as_u64), Some(1), "{health}");
    assert_eq!(recovery.get("recovered").and_then(Json::as_u64), Some(1), "{health}");
    assert_eq!(recovery.get("checkpointing").and_then(Json::as_bool), Some(true), "{health}");

    // The replay completed and cached the result: the client's retry is a
    // hit, not a recompute.
    let (status, body) = request(addr, "POST", "/repair", &toggle_spec(0));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("cached").and_then(Json::as_bool), Some(true), "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");

    handle.shutdown();
    join.join().unwrap();

    // Boot 3: the journal was compacted/settled — nothing pending, nothing
    // replayed twice.
    let (addr, handle, join) = start(config(&dir));
    let (_, health) = request(addr, "GET", "/healthz", "");
    let recovery = health.get("recovery").expect("recovery section");
    assert_eq!(recovery.get("pending_at_boot").and_then(Json::as_u64), Some(0), "{health}");
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job aborted by its node budget leaves a checkpoint slot under
/// `--store-dir` (no journal needed), and the retry without the budget
/// resumes from it, verifies, and retires it.
#[test]
fn budget_aborted_job_resumes_from_its_slot() {
    let dir = temp_dir("slot");
    let spec_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs/stabilizing_chain10.ftr");
    let spec = std::fs::read_to_string(spec_path).unwrap();
    let slots = || {
        std::fs::read_dir(dir.join("store").join("checkpoints"))
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "ckpt"))
            .count()
    };
    let (addr, handle, join) = start(ServerConfig { journal: None, ..config(&dir) });

    let (status, body) = request(addr, "POST", "/repair?max-nodes=2000", &spec);
    assert_eq!(status, 503, "{body}");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("node budget exhausted"), "{body}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(counter(&metrics, "server.jobs.checkpoints_written"), 1, "{metrics}");
    assert_eq!(slots(), 1, "the abort left one slot");

    let (status, body) = request(addr, "POST", "/repair", &spec);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("warm_start").and_then(Json::as_bool), Some(true), "{body}");
    assert_eq!(body.get("warm_neighbor").and_then(Json::as_str), Some("checkpoint@1"), "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(counter(&metrics, "server.jobs.checkpoint_resumes"), 1, "{metrics}");
    assert_eq!(slots(), 0, "the finished run retired the slot");

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pending journal record whose result already sits in the disk store is
/// recovered without recompute: counted `recovered` but not `replayed`,
/// retired as `recovered-cached`.
#[test]
fn pending_record_with_a_stored_result_recovers_without_recompute() {
    let dir = temp_dir("cached");

    // Boot 1 (journaled): cancel leaves a pending record for toggle1.
    let (addr, handle, join) = start(config(&dir));
    handle.cancel_jobs();
    let (status, _) = request(addr, "POST", "/repair", &toggle_spec(1));
    assert_eq!(status, 503);
    handle.shutdown();
    join.join().unwrap();

    // Boot 2 (journal off, same store): the spec completes and persists.
    let no_journal = ServerConfig { journal: None, ..config(&dir) };
    let (addr, handle, join) = start(no_journal);
    let (status, body) = request(addr, "POST", "/repair", &toggle_spec(1));
    assert_eq!(status, 200, "{body}");
    wait_counter(addr, "store.writes", 1);
    handle.shutdown();
    join.join().unwrap();

    // Boot 3 (journaled): the pending record is satisfied straight from
    // the store — recovered, not replayed.
    let (addr, handle, join) = start(config(&dir));
    let metrics = wait_counter(addr, "server.jobs.recovered", 1);
    assert_eq!(counter(&metrics, "server.jobs.replayed"), 0, "no recompute: {metrics}");
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bounded drain: a job still queued when the drain deadline passes is
/// answered `503` (error mentions the drain) instead of its socket being
/// dropped on the floor, and the shutdown summary counts it abandoned.
#[test]
fn drain_deadline_abandons_queued_jobs_with_503() {
    let dir = temp_dir("drain");
    let metrics_path = dir.join("metrics.jsonl");
    let cfg = ServerConfig {
        workers: 1,
        drain_timeout: Duration::from_millis(200),
        metrics_out: Some(metrics_path.clone()),
        journal: None,
        store_dir: None,
        ..config(&dir)
    };
    let (addr, handle, join) = start(cfg);

    // Occupy the single worker with an idle connection, then queue a real
    // request behind it.
    let idle = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let queued = std::thread::spawn(move || request(addr, "POST", "/repair", &toggle_spec(2)));
    std::thread::sleep(Duration::from_millis(200));

    // Shutdown: the worker is stuck reading the idle socket, so the queued
    // job cannot start before the 200ms drain deadline.
    handle.shutdown();
    let (status, body) = queued.join().expect("queued client");
    assert_eq!(status, 503, "{body}");
    let error = body.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("draining"), "{body}");
    drop(idle);
    join.join().unwrap();

    // The shutdown summary line carries the abandonment count.
    let text = std::fs::read_to_string(&metrics_path).unwrap();
    let summary = text
        .lines()
        .map(|l| Json::parse(l).expect("JSONL line"))
        .find(|j| j.get("mode").and_then(Json::as_str) == Some("summary"))
        .expect("summary line");
    let abandoned =
        summary.get("counters").and_then(|c| c.get("server.jobs.abandoned")).and_then(Json::as_u64);
    assert_eq!(abandoned, Some(1), "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}
