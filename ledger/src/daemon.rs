//! The `ftrepair serve` child process the HTTP workloads measure.

use crate::client::request;
use crate::report::Layers;
use ftrepair_telemetry::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long start-up or a graceful stop may take before it counts as hung.
const PATIENCE: Duration = Duration::from_secs(60);

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawn `ftrepair serve` on an ephemeral loopback port with two
    /// workers plus `extra` flags, and return once `/healthz` answers 200.
    pub fn start(server: &Path, extra: &[&Path]) -> Result<Daemon, String> {
        let mut child = Command::new(server)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", server.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let listening = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening on ").and_then(|a| a.parse().ok()));
        let Some(addr) = listening else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not report its address (said {line:?})"));
        };
        let daemon = Daemon { child, addr, _stdout: stdout };
        let deadline = Instant::now() + PATIENCE;
        loop {
            match request(daemon.addr, "GET", "/healthz", None, "") {
                Ok(r) if r.status == 200 => return Ok(daemon),
                _ if Instant::now() > deadline => return Err("daemon never became healthy".into()),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// `GET path`, which must answer 200 with a JSON body.
    pub fn get_json(&self, path: &str) -> Result<Json, String> {
        let r =
            request(self.addr, "GET", path, None, "").map_err(|e| format!("GET {path}: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET {path}: status {}", r.status));
        }
        Json::parse(&r.body).map_err(|e| format!("GET {path}: {e}"))
    }

    /// One counter from `/metrics` (0 when the daemon has not created it).
    pub fn counter(&self, name: &str) -> Result<u64, String> {
        let m = self.get_json("/metrics")?;
        Ok(m.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0))
    }

    /// Graceful stop: SIGTERM, then wait for the drain to finish. Returns
    /// the peak resident set (KiB) read just before the signal.
    pub fn stop(mut self) -> Result<u64, String> {
        let rss = crate::vm_hwm_kb(&self.child.id().to_string())?;
        let pid = i32::try_from(self.child.id()).map_err(|_| "pid out of range")?;
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: kill(2) reads no memory of ours. `pid` is our own child,
        // not yet waited for, so it cannot name a recycled process.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            return Err(format!("SIGTERM: {}", std::io::Error::last_os_error()));
        }
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(rss),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() > deadline => return Err("daemon did not drain".into()),
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

/// How far the daemon's `/metrics` moved over the measured requests,
/// summed over every snapshot pair (one pair per daemon process).
#[derive(Default)]
pub struct MetricsDelta {
    queue_wait: Duration,
    handled: Duration,
    counters: BTreeMap<String, u64>,
}

impl MetricsDelta {
    pub fn add(&mut self, before: &Json, after: &Json) -> Result<(), String> {
        let histogram_sum = |m: &Json, name: &str| {
            m.get("histograms")
                .and_then(|h| h.get(name))
                .and_then(|h| h.get("sum"))
                .and_then(Json::as_f64)
                .map(|ns| Duration::from_nanos(ns as u64))
                .ok_or_else(|| format!("/metrics has no histogram {name}"))
        };
        let moved = |name: &str| {
            Ok::<_, String>(
                histogram_sum(after, name)?.saturating_sub(histogram_sum(before, name)?),
            )
        };
        self.queue_wait += moved("server.queue_wait.seconds")?;
        self.handled += moved("server.request.seconds")?;
        let count = |m: &Json, name: &str| {
            m.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
        };
        for (name, _) in after.get("counters").and_then(Json::as_obj).unwrap_or_default() {
            let moved = count(after, name).saturating_sub(count(before, name));
            *self.counters.entry(name.clone()).or_default() += moved;
        }
        Ok(())
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Split the requests' summed client latency: connecting, queueing for
    /// a worker, and handling (the daemon's own histograms), with the
    /// remainder — the wait between connect and accept — charged to
    /// `server.accept_gap`.
    pub fn charge(&self, layers: &mut Layers, client_time: Duration, connect: Duration) {
        layers.add("client.connect", connect);
        layers.add("server.queue_wait", self.queue_wait);
        layers.add("server.request", self.handled);
        let rest = client_time.saturating_sub(connect + self.queue_wait + self.handled);
        layers.add("server.accept_gap", rest);
        let hits = self.counter("server.cache.hits");
        let lookups = hits + self.counter("server.cache.misses");
        layers.set("server.cache.hit_ratio_pct", 100.0 * hits as f64 / lookups.max(1) as f64);
    }
}

impl Drop for Daemon {
    /// A daemon not stopped gracefully (an error path) is killed and
    /// reaped, so no run leaves a process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
