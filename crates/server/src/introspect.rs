//! Live job introspection: a bounded ring of the most recent job records,
//! served at `GET /jobs` and `GET /jobs/<trace-id>`.
//!
//! Every request that reaches the repair pipeline (cache hits included)
//! gets a [`JobRecord`] keyed by its trace ID. The record is pushed into
//! the ring *before* the job runs and mutated in place as it progresses,
//! so `/jobs` shows running jobs too — status `running` with a live
//! elapsed time — not just finished ones. The ring holds the last
//! [`JOB_RING_CAP`] records; older ones are overwritten, which bounds
//! memory no matter how long the daemon lives.
//!
//! Concurrency: the ring claims a slot with one `fetch_add` and each slot
//! is its own tiny mutex, so concurrent workers never contend on a shared
//! lock for more than a pointer swap. Record fields that change after
//! publication (`status`, `run_ns`) are atomics; the one-shot `detail`
//! document sits behind a per-record mutex taken exactly twice (fill,
//! render).

use ftrepair_telemetry::{trace::format_trace_id, Json};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many recent jobs `GET /jobs` can see.
pub const JOB_RING_CAP: usize = 256;

/// Where a job is in its lifecycle, or how it ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum JobStatus {
    /// Still executing (or waiting on the single-flight leader).
    Running = 0,
    /// Finished with a repair; response cached.
    Done = 1,
    /// Served from the content-addressed cache.
    CacheHit = 2,
    /// The algorithm proved no repair exists.
    Unrepairable = 3,
    /// The spec failed semantic checks (HTTP 400).
    Invalid = 4,
    /// Refused because the spec previously crashed the engine (HTTP 422).
    Quarantined = 5,
    /// Aborted by the job deadline (HTTP 503).
    Timeout = 6,
    /// Aborted by the server-wide cancel flag (HTTP 503).
    Cancelled = 7,
    /// The repair engine panicked on this spec (HTTP 500).
    Panicked = 8,
    /// Served from the on-disk store (promoted into the memory cache).
    DiskHit = 9,
    /// Aborted by the BDD node budget (HTTP 503) — the memory analogue of
    /// `Timeout`, reported instead of an OOM kill.
    Exhausted = 10,
    /// Completed by boot recovery without recompute: the journal said the
    /// job was in flight when the previous process died, but its result was
    /// already durable in the disk store.
    Recovered = 11,
}

impl JobStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::CacheHit => "cache_hit",
            JobStatus::Unrepairable => "unrepairable",
            JobStatus::Invalid => "invalid",
            JobStatus::Quarantined => "quarantined",
            JobStatus::Timeout => "timeout",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Panicked => "panicked",
            JobStatus::DiskHit => "disk_hit",
            JobStatus::Exhausted => "exhausted",
            JobStatus::Recovered => "recovered",
        }
    }

    fn from_u8(v: u8) -> JobStatus {
        match v {
            1 => JobStatus::Done,
            2 => JobStatus::CacheHit,
            3 => JobStatus::Unrepairable,
            4 => JobStatus::Invalid,
            5 => JobStatus::Quarantined,
            6 => JobStatus::Timeout,
            7 => JobStatus::Cancelled,
            8 => JobStatus::Panicked,
            9 => JobStatus::DiskHit,
            10 => JobStatus::Exhausted,
            11 => JobStatus::Recovered,
            _ => JobStatus::Running,
        }
    }
}

/// One job as the introspection endpoints see it. Identity fields are
/// immutable; progress fields are atomics so readers never block a worker.
#[derive(Debug)]
pub struct JobRecord {
    /// The request's trace ID (client-supplied or minted).
    pub trace_id: u64,
    /// Program name from the spec.
    pub case: String,
    /// `"lazy"` or `"cautious"`.
    pub mode: &'static str,
    /// Content address of spec + options.
    pub key: String,
    /// Time the connection spent queued before a worker picked it up.
    pub queue_wait: Duration,
    started: Instant,
    status: AtomicU8,
    /// Nanoseconds from record creation to finish; 0 while running.
    run_ns: AtomicU64,
    detail: Mutex<Json>,
}

impl JobRecord {
    pub fn new(
        trace_id: u64,
        case: &str,
        mode: &'static str,
        key: &str,
        queue_wait: Duration,
    ) -> Arc<JobRecord> {
        Arc::new(JobRecord {
            trace_id,
            case: case.to_string(),
            mode,
            key: key.to_string(),
            queue_wait,
            started: Instant::now(),
            status: AtomicU8::new(JobStatus::Running as u8),
            run_ns: AtomicU64::new(0),
            detail: Mutex::new(Json::Null),
        })
    }

    pub fn status(&self) -> JobStatus {
        JobStatus::from_u8(self.status.load(Ordering::Acquire))
    }

    /// Mark the job finished: stamps the run time and the final status.
    pub fn finish(&self, status: JobStatus) {
        let ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.run_ns.store(ns.max(1), Ordering::Relaxed);
        self.status.store(status as u8, Ordering::Release);
    }

    /// Attach the outcome document (iteration counts, phase timings, BDD
    /// peaks, verification flags) shown under `"detail"`.
    pub fn set_detail(&self, detail: Json) {
        *self.detail.lock().unwrap() = detail;
    }

    /// Render for the `/jobs` endpoints. `run_s` is the finished run time,
    /// or the live elapsed time while the job is still running.
    pub fn to_json(&self) -> Json {
        let status = self.status();
        let run_ns = self.run_ns.load(Ordering::Relaxed);
        let run_s = if run_ns == 0 {
            self.started.elapsed().as_secs_f64()
        } else {
            Duration::from_nanos(run_ns).as_secs_f64()
        };
        let mut j = Json::obj();
        j.set("trace_id", format_trace_id(self.trace_id).into());
        j.set("case", self.case.as_str().into());
        j.set("mode", self.mode.into());
        j.set("key", self.key.as_str().into());
        j.set("status", status.as_str().into());
        j.set("queue_wait_s", self.queue_wait.as_secs_f64().into());
        j.set("run_s", run_s.into());
        let detail = self.detail.lock().unwrap();
        if !matches!(*detail, Json::Null) {
            j.set("detail", detail.clone());
        }
        j
    }
}

/// The bounded ring itself. `push` claims a slot with one `fetch_add`;
/// `recent`/`find` walk the slots without stopping writers.
pub struct JobRing {
    slots: Vec<Mutex<Option<Arc<JobRecord>>>>,
    head: AtomicUsize,
}

impl JobRing {
    pub fn new(capacity: usize) -> JobRing {
        let capacity = capacity.max(1);
        JobRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
        }
    }

    /// Publish a record, overwriting the oldest one once the ring is full.
    pub fn push(&self, record: Arc<JobRecord>) {
        let seq = self.head.fetch_add(1, Ordering::AcqRel);
        *self.slots[seq % self.slots.len()].lock().unwrap() = Some(record);
    }

    /// The retained records, newest first.
    pub fn recent(&self) -> Vec<Arc<JobRecord>> {
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(self.slots.len());
        (1..=n)
            .filter_map(|k| self.slots[(head - k) % self.slots.len()].lock().unwrap().clone())
            .collect()
    }

    /// Look a retained record up by trace ID (newest match wins).
    pub fn find(&self, trace_id: u64) -> Option<Arc<JobRecord>> {
        self.recent().into_iter().find(|r| r.trace_id == trace_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> Arc<JobRecord> {
        JobRecord::new(id, "ring", "lazy", "k", Duration::from_millis(2))
    }

    #[test]
    fn ring_keeps_the_last_n_newest_first() {
        let ring = JobRing::new(3);
        for id in 1..=5u64 {
            ring.push(record(id));
        }
        let ids: Vec<u64> = ring.recent().iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![5, 4, 3]);
        assert!(ring.find(5).is_some());
        assert!(ring.find(1).is_none(), "overwritten records are gone");
    }

    #[test]
    fn record_reports_running_then_finished() {
        let r = record(7);
        assert_eq!(r.status(), JobStatus::Running);
        let live = r.to_json();
        assert_eq!(live.get("status").unwrap().as_str(), Some("running"));
        assert!(live.get("run_s").unwrap().as_f64().unwrap() >= 0.0);
        assert!(live.get("detail").is_none(), "no detail until one is set");

        let mut d = Json::obj();
        d.set("outer_iterations", 2u64.into());
        r.set_detail(d);
        r.finish(JobStatus::Done);

        let done = r.to_json();
        assert_eq!(done.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(done.get("trace_id").unwrap().as_str(), Some("0000000000000007"));
        assert_eq!(done.get("detail").unwrap().get("outer_iterations").unwrap().as_u64(), Some(2));
        let frozen = done.get("run_s").unwrap().as_f64().unwrap();
        assert!(frozen > 0.0);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(r.to_json().get("run_s").unwrap().as_f64(), Some(frozen), "run_s frozen");
    }

    #[test]
    fn concurrent_pushes_lose_nothing_recent() {
        let ring = Arc::new(JobRing::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..16u64 {
                        ring.push(record(t * 100 + i));
                    }
                });
            }
        });
        let recent = ring.recent();
        assert_eq!(recent.len(), 64, "64 pushes into 64 slots retain all");
        for t in 0..4u64 {
            for i in 0..16u64 {
                assert!(ring.find(t * 100 + i).is_some());
            }
        }
    }
}
