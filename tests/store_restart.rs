//! Integration tests for the persistent result store: repairs must survive
//! a daemon restart (served from disk, not recomputed), near-key neighbors
//! must warm-start edited specs, and a corrupted store must degrade to
//! clean recomputation — never crash, never serve poison.

use ftrepair::server::{Server, ServerConfig, ServerHandle};
use ftrepair::telemetry::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn spec(name: &str) -> String {
    let path = format!("{}/examples/specs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// `toggle_pair` with one extra (harmless) action in `py`: same variables
/// and faults, fingerprint distance 1 — a warm-start near-neighbor of the
/// original, but a different content key.
fn edited_spec() -> String {
    let base = spec("toggle_pair.ftr");
    let edited = base.replace("  (y = 1) -> y := 0;", "  (y = 1) -> y := 0;\n  (y = 1) -> y := 1;");
    assert_ne!(base, edited, "edit must apply");
    edited
}

/// A unique, self-cleaning store directory per test.
struct TempStore(PathBuf);

impl TempStore {
    fn new(tag: &str) -> TempStore {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ftrepair-store-it-{tag}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed),
        ));
        TempStore(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        io_timeout: Duration::from_secs(2),
        store_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
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

/// Block until the async writer has persisted `n` entries (the write-through
/// is deliberately off the response path, so tests must wait for it).
fn wait_for_writes(addr: SocketAddr, n: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, metrics) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        if counter(&metrics, "store.writes") >= n {
            return metrics;
        }
        assert!(Instant::now() < deadline, "store writer never persisted {n} entries: {metrics}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The entry directory for the single stored key under `dir`.
fn only_entry_dir(dir: &Path) -> PathBuf {
    let entries: Vec<PathBuf> = std::fs::read_dir(dir.join("entries"))
        .expect("entries dir")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one stored entry: {entries:?}");
    entries.into_iter().next().unwrap()
}

#[test]
fn restart_serves_repairs_from_disk_without_recomputation() {
    let store = TempStore::new("restart");

    // First incarnation: repair, then wait for the write-through.
    let (addr, handle, join) = start(store_config(store.path()));
    let (status, body) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("cached").and_then(Json::as_bool), Some(false), "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");
    let metrics = wait_for_writes(addr, 1);
    assert_eq!(counter(&metrics, "server.jobs.completed"), 1, "{metrics}");
    handle.shutdown();
    join.join().unwrap();

    // Second incarnation on the same directory: the repair must come off
    // disk — a store hit, a promotion, and zero completed jobs.
    let (addr, handle, join) = start(store_config(store.path()));
    let (status, body) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("cached").and_then(Json::as_bool), Some(true), "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");
    let program = body.get("program").and_then(Json::as_str).expect("program text");
    assert!(program.contains("(x = 2) ->"), "stored program lost its recovery:\n{program}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(counter(&metrics, "store.hits") >= 1, "{metrics}");
    assert_eq!(counter(&metrics, "store.promotions"), 1, "{metrics}");
    assert_eq!(counter(&metrics, "server.jobs.completed"), 0, "{metrics}");

    // The promoted entry must be fully functional: /simulate rebuilds its
    // explicit bundle from the stored artifacts.
    let (status, sim) = request(addr, "POST", "/simulate?runs=50", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200, "{sim}");
    assert_eq!(
        sim.get("simulation").and_then(|s| s.get("ok")).and_then(Json::as_bool),
        Some(true),
        "{sim}"
    );

    // /healthz reports the store tier.
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let store_health = health.get("store").expect("store section");
    assert_eq!(store_health.get("enabled").and_then(Json::as_bool), Some(true), "{health}");
    assert!(store_health.get("entries").and_then(Json::as_u64).unwrap_or(0) >= 1, "{health}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn edited_spec_warm_starts_from_stored_neighbor() {
    let store = TempStore::new("warm");

    // Persist the original spec's repair.
    let (addr, handle, join) = start(store_config(store.path()));
    let (status, _) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200);
    wait_for_writes(addr, 1);
    handle.shutdown();
    join.join().unwrap();

    // Resubmit a one-action edit after a restart: different content key
    // (so no exact hit), but the stored neighbor donates warm seeds — and
    // the result must still verify against the independent checkers.
    let (addr, handle, join) = start(store_config(store.path()));
    let (status, body) = request(addr, "POST", "/repair", &edited_spec());
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("cached").and_then(Json::as_bool), Some(false), "{body}");
    assert_eq!(body.get("warm_start").and_then(Json::as_bool), Some(true), "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");
    assert_eq!(body.get("warm_distance").and_then(Json::as_u64), Some(1), "{body}");
    let neighbor = body.get("warm_neighbor").and_then(Json::as_str).expect("neighbor key");
    assert_eq!(neighbor.len(), 64, "neighbor is a content key");
    let program = body.get("program").and_then(Json::as_str).expect("program text");
    assert!(program.contains("(x = 2) ->"), "warm repair lost its recovery:\n{program}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(counter(&metrics, "repair.warm_starts") >= 1, "{metrics}");
    assert_eq!(counter(&metrics, "server.jobs.warm_started"), 1, "{metrics}");
    assert_eq!(counter(&metrics, "repair.warm_verify_failures"), 0, "{metrics}");
    // Every verify registers the counter, so a present 0 means the
    // warm-seeded span certified.
    let fallbacks = metrics.get("counters").and_then(|c| c.get("repair.verify_fallbacks"));
    assert_eq!(fallbacks.and_then(Json::as_u64), Some(0), "{metrics}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn warm_start_can_be_disabled() {
    let store = TempStore::new("nowarm");

    let (addr, handle, join) = start(store_config(store.path()));
    let (status, _) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200);
    wait_for_writes(addr, 1);
    handle.shutdown();
    join.join().unwrap();

    let config = ServerConfig { warm_start: false, ..store_config(store.path()) };
    let (addr, handle, join) = start(config);
    let (status, body) = request(addr, "POST", "/repair", &edited_spec());
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("warm_start").and_then(Json::as_bool), Some(false), "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn truncated_manifest_is_quarantined_and_recomputed() {
    let store = TempStore::new("truncmanifest");

    let (addr, handle, join) = start(store_config(store.path()));
    let (status, _) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200);
    wait_for_writes(addr, 1);
    handle.shutdown();
    join.join().unwrap();

    // Torn write: the manifest loses its tail.
    let manifest = only_entry_dir(store.path()).join("manifest.json");
    let bytes = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &bytes[..bytes.len() / 2]).unwrap();

    // The restarted daemon must detect it at open, quarantine the entry,
    // and serve the resubmission by recomputing — never crash, never serve
    // a half-read result.
    let (addr, handle, join) = start(store_config(store.path()));
    let (status, body) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("cached").and_then(Json::as_bool), Some(false), "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(counter(&metrics, "store.corrupt") >= 1, "{metrics}");
    assert_eq!(counter(&metrics, "store.hits"), 0, "{metrics}");
    assert_eq!(counter(&metrics, "server.jobs.completed"), 1, "{metrics}");
    assert!(
        store.path().join("quarantine").read_dir().unwrap().next().is_some(),
        "corrupt entry should be moved to quarantine/"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn flipped_artifact_byte_reads_as_miss_and_recomputes() {
    let store = TempStore::new("bitflip");

    let (addr, handle, join) = start(store_config(store.path()));
    let (status, _) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200);
    wait_for_writes(addr, 1);
    handle.shutdown();
    join.join().unwrap();

    // Silent corruption: one flipped bit in the artifact container. The
    // manifest still parses, so the entry survives the open scan — the
    // checksum check at read time must catch it.
    let artifacts = only_entry_dir(store.path()).join("artifacts.bin");
    let mut bytes = std::fs::read(&artifacts).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&artifacts, &bytes).unwrap();

    let (addr, handle, join) = start(store_config(store.path()));
    let (status, body) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("cached").and_then(Json::as_bool), Some(false), "{body}");
    assert_eq!(body.get("verified").and_then(Json::as_bool), Some(true), "{body}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(counter(&metrics, "store.corrupt") >= 1, "{metrics}");
    assert_eq!(counter(&metrics, "store.hits"), 0, "no poison served: {metrics}");
    assert_eq!(counter(&metrics, "server.jobs.completed"), 1, "{metrics}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn stray_tmp_file_is_swept_not_counted_as_corruption() {
    let store = TempStore::new("tmpsweep");

    let (addr, handle, join) = start(store_config(store.path()));
    let (status, _) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200);
    wait_for_writes(addr, 1);
    handle.shutdown();
    join.join().unwrap();

    // A writer that died mid-stage leaves debris under tmp/ — the next
    // open sweeps it silently; it is not a corrupt *entry*.
    let stray = store.path().join("tmp").join("deadbeef.1234.partial");
    std::fs::write(&stray, b"half-written stage directory debris").unwrap();

    let (addr, handle, join) = start(store_config(store.path()));
    assert!(!stray.exists(), "tmp debris should be swept at open");
    let (status, body) = request(addr, "POST", "/repair", &spec("toggle_pair.ftr"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("cached").and_then(Json::as_bool), Some(true), "{body}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(counter(&metrics, "store.corrupt"), 0, "{metrics}");
    assert!(counter(&metrics, "store.hits") >= 1, "{metrics}");

    handle.shutdown();
    join.join().unwrap();
}
