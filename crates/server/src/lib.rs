//! # ftrepair-server — repair as a service
//!
//! The CLI repairs one spec per invocation and rebuilds the BDD world from
//! scratch every time. This crate turns the pipeline into a long-running
//! daemon that amortizes that cost: accept `.ftr` specs over HTTP, queue
//! and schedule repair jobs across a `std::thread` worker pool, and serve
//! cached results keyed by the content hash of the canonicalized spec plus
//! its [`RepairOptions`](ftrepair_core::RepairOptions).
//!
//! Like the rest of the workspace the crate is dependency-free: the HTTP
//! layer is hand-rolled over [`std::net::TcpListener`] ([`http`]), the
//! bounded MPMC queue is a mutex/condvar pair ([`queue`]), and signal
//! handling goes through libc's `signal(2)` directly ([`signal`]).
//!
//! ## Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /repair` | body = `.ftr` spec; returns repaired guarded commands + run report (JSON). Query: `mode=lazy\|cautious`, `pure-lazy`, `iterative-step2`, `strict-terminal`, `max-nodes=N`. |
//! | `POST /simulate` | same body/query, plus `runs=N`, `max-faults=K`, `seed=S`; replays fault-injection batches against the (cached) repair. |
//! | `GET /healthz` | liveness + uptime + degraded/ok verdict; the `store` block reports the disk tier's entry count, I/O errors, and circuit-breaker state, and each poll doubles as the breaker's half-open probe. |
//! | `GET /metrics` | telemetry registry snapshot (cache hits/misses, queue depth, per-status counts, span times, latency histograms). `?format=prometheus` renders the Prometheus 0.0.4 text exposition instead of JSON. |
//! | `GET /jobs` | the most recent jobs (bounded ring), newest first — running jobs included, each keyed by its trace ID. |
//! | `GET /jobs/<trace-id>` | one retained job record: status, queue wait, run time, iteration/phase/BDD detail. |
//!
//! Every request carries a 64-bit trace ID — taken from a well-formed
//! `X-Trace-Id` header or minted server-side — echoed back in the
//! `X-Trace-Id` response header and in `/repair` / `/simulate` bodies,
//! and used as the `/jobs` key.
//!
//! One lifecycle serves every job, whether a request or a journal replay
//! at boot: poison check, memory cache, single-flight, store tier,
//! journal, seed, the guarded [`job::execute`], and one classification of
//! how it ended. A request whose exact body was prepared before enters it
//! through the [`cache::PrepareMemo`] without being parsed again. The
//! durable tiers around the repair — the store lookup, the checkpoint or
//! neighbor seed, the checkpoint sink, slot retirement and write-through
//! — are one [`job::Tiers`], which the CLI's `repair` and `simulate` and
//! the tables' warm-start and checkpoint-resume ablations run too, around
//! the same [`job::prepare`] → [`job::execute`] pipeline.
//!
//! Backpressure: the job queue is bounded; when it is full new connections
//! are answered `429` immediately. Shutdown: SIGTERM/ctrl-c stops the
//! accept loop, queued jobs are drained, then the process exits (writing a
//! summary JSONL line when `--metrics-out` is set).
//!
//! Robustness: every repair job runs under a deadline
//! ([`ServerConfig::job_timeout`], CLI `--job-timeout`, default 30s), a
//! BDD live-node budget ([`ServerConfig::job_max_nodes`], CLI
//! `--job-max-nodes`, tightened but never relaxed by a `?max-nodes=`
//! query), and inside a panic boundary. A job that exhausts its time
//! budget answers `503 {"error":"timeout"}`; one that exhausts its node
//! budget answers `503 {"error":"node budget exhausted"}` instead of
//! being OOM-killed; neither is cached. A job that panics answers `500`,
//! quarantines its content key in a bounded [`PoisonList`] (resubmission
//! → `422`), and retires the worker, which the supervisor respawns. The
//! disk store sits behind a circuit [`breaker`]: consecutive I/O failures
//! trip the daemon into memory-only degraded mode (ENOSPC first triggers
//! an emergency eviction and a retry), and half-open probes driven by
//! `/healthz` re-enable it when the volume heals. `GET /healthz` stays
//! 200 but reports `"degraded"` while a worker died or the queue
//! saturated within the last [`ServerConfig::degraded_window`], and
//! reports the store degraded while the breaker is open. The `chaos`
//! module (tests and the `chaos` cargo feature only) injects panics,
//! delays, queue-full conditions, and — via the chaos-gated
//! `ServerConfig::store_vfs` hook — disk faults, to exercise all of this
//! on purpose. The full failure-domain matrix lives in the repository's
//! `DESIGN.md`.

pub mod breaker;
pub mod cache;
#[cfg(any(test, feature = "chaos"))]
pub mod chaos;
pub mod flight;
pub mod http;
pub mod introspect;
pub mod job;
pub mod queue;
pub mod server;
pub mod signal;

pub use cache::{content_key, CacheEntry, PoisonList, ResultCache};
#[cfg(any(test, feature = "chaos"))]
pub use chaos::Chaos;
pub use introspect::{JobRecord, JobRing, JobStatus};
pub use job::{JobResult, JobSpec, Mode, SimBundle};
pub use queue::{JobQueue, PushError};
pub use server::{Server, ServerConfig, ServerHandle};
