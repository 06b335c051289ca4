//! Binary-level crash recovery: `ftrepair serve --journal` is killed with
//! SIGKILL mid-repair and restarted on the same volume. The second boot
//! must find the orphaned journal record, replay it to completion in the
//! background, and serve the same spec from cache — the client never
//! re-pays the repair it already submitted.
//!
//! This is the real-process counterpart of the in-process recovery tests
//! in `crates/server/tests/journal_recovery.rs` (where the cancel flag
//! stands in for the kill): here nothing stands in — the process dies with
//! `kill -9`, with no destructors, no drain, and no flush beyond what the
//! journal's write discipline already guaranteed.

#![cfg(unix)]

use ftrepair::telemetry::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn slow_spec() -> String {
    let path = format!("{}/examples/specs/stabilizing_chain20.ftr", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftrepair-kill9-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn `ftrepair serve` journaled and store-backed on `dir`, and parse
/// the announced ephemeral address off its first stdout line.
fn spawn_serve(dir: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftrepair"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .arg("--journal")
        .arg(dir.join("journal.jsonl"))
        .arg("--store-dir")
        .arg(dir.join("store"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ftrepair serve");
    let stdout = child.stdout.take().unwrap();
    let announce = BufReader::new(stdout).lines().next().expect("announce line").expect("stdout");
    let addr = announce
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line {announce:?}"))
        .parse()
        .expect("parse announced address");
    (child, addr)
}

/// One-shot HTTP exchange that reports I/O failure instead of panicking —
/// the mid-repair POST's connection dies with the killed server, and that
/// is expected.
fn try_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, Json)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(raw.as_bytes())?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    let text = String::from_utf8(reply).map_err(|e| io::Error::other(e.to_string()))?;
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::other(format!("malformed status: {:?}", text.lines().next())))?;
    let json_body = text.split("\r\n\r\n").nth(1).unwrap_or("");
    let json = Json::parse(json_body).map_err(|e| io::Error::other(e.to_string()))?;
    Ok((status, json))
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    try_request(addr, method, path, body).expect("request against a live server")
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
}

/// Poll `/metrics` until `name` reaches `want` — recovery and replay run
/// on a background thread, and the replayed repair itself takes seconds in
/// a debug build.
fn wait_counter(addr: SocketAddr, name: &str, want: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut last = Json::Null;
    while Instant::now() < deadline {
        let (_, metrics) = request(addr, "GET", "/metrics", "");
        if counter(&metrics, name) >= want {
            return metrics;
        }
        last = metrics;
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("counter {name} never reached {want}: {last}");
}

/// Poll the child with a deadline — `wait()` has no timeout in std.
fn wait_exit(child: &mut Child, what: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => return status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("server did not exit within 30s of {what}");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

#[test]
fn kill_nine_mid_repair_is_recovered_by_the_next_boot() {
    let dir = temp_dir("recover");
    let spec = slow_spec();

    // Boot 1: submit the slow spec and wait until its job is actually
    // running (journal start record on disk, repair in flight).
    let (mut child, addr) = spawn_serve(&dir);
    let poster = {
        let spec = spec.clone();
        std::thread::spawn(move || {
            // The connection dies with the process; any outcome is fine.
            let _ = try_request(addr, "POST", "/repair", &spec);
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = request(addr, "GET", "/jobs", "");
        let running = body.get("jobs").and_then(Json::as_arr).is_some_and(|jobs| {
            jobs.iter().any(|j| j.get("status").and_then(Json::as_str) == Some("running"))
        });
        if running {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // kill -9: no drain, no destructors, no goodbye.
    let kill =
        Command::new("kill").args(["-9", &child.id().to_string()]).status().expect("send SIGKILL");
    assert!(kill.success());
    let status = wait_exit(&mut child, "SIGKILL");
    assert!(!status.success(), "SIGKILL cannot look like a clean exit");
    poster.join().unwrap();

    // Boot 2 on the same volume: the scan finds the orphaned record and
    // the healthz recovery section narrates it.
    let (mut child, addr) = spawn_serve(&dir);
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    let recovery = health.get("recovery").expect("recovery section");
    assert_eq!(recovery.get("journal").and_then(Json::as_bool), Some(true), "{health}");
    assert_eq!(recovery.get("pending_at_boot").and_then(Json::as_u64), Some(1), "{health}");

    // The record is recovered, replayed to completion, and persisted.
    let metrics = wait_counter(addr, "server.jobs.recovered", 1);
    assert_eq!(counter(&metrics, "server.jobs.recovered"), 1, "{metrics}");
    wait_counter(addr, "server.jobs.replayed", 1);
    wait_counter(addr, "store.writes", 1);

    // The client's retry is served from cache — no recompute.
    let (status, body) = request(addr, "POST", "/repair", &spec);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("cached").and_then(Json::as_bool), Some(true), "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");

    // This boot dies politely, and a third one has nothing left to do.
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    assert!(wait_exit(&mut child, "SIGTERM").success());

    let (mut child, addr) = spawn_serve(&dir);
    let (_, health) = request(addr, "GET", "/healthz", "");
    let recovery = health.get("recovery").expect("recovery section");
    assert_eq!(recovery.get("pending_at_boot").and_then(Json::as_u64), Some(0), "{health}");
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    assert!(wait_exit(&mut child, "SIGTERM").success());
    let _ = std::fs::remove_dir_all(&dir);
}
