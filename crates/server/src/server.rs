//! The daemon: accept loop, worker pool, routing, and graceful shutdown.
//!
//! Control flow is deliberately boring:
//!
//! * the accept loop (caller's thread) accepts connections and `try_push`es
//!   them onto the bounded [`JobQueue`]; a full queue answers `429`
//!   immediately — backpressure, not unbounded latency;
//! * `workers` threads pop connections, read one HTTP request each, run the
//!   repair pipeline (through the content-addressed [`ResultCache`]), write
//!   the response, and close;
//! * SIGTERM / ctrl-c (or [`ServerHandle::shutdown`]) flips a flag; the
//!   accept loop stops, closes the queue, and the workers drain every job
//!   already accepted before the scope joins them.

use crate::cache::{CacheEntry, PoisonList, PrepareMemo, Prepared, ResultCache};
use crate::flight::InFlight;
use crate::http::{self, Request};
use crate::introspect::{JobRecord, JobRing, JobStatus, JOB_RING_CAP};
use crate::job::{self, ExecError, Mode, SimStatus, Tiers};
use crate::queue::{JobQueue, PushError};
use crate::signal;
use ftrepair_core::{RepairAborted, RepairOptions, Token};
use ftrepair_lang::parser::WORKER_STACK_SIZE;
use ftrepair_store::{
    CheckpointStore, DiskStore, JobJournal, JournalRecord, NewEntry as StoreWrite,
};
use ftrepair_telemetry::report::set_snapshot_fields;
use ftrepair_telemetry::trace::{format_trace_id, mint_trace_id, parse_trace_id};
use ftrepair_telemetry::{
    prometheus, Counter, Histogram, Json, RunReport, Telemetry, SCHEMA_VERSION,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything tunable about the daemon.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7177`. Port 0 picks an ephemeral port
    /// (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads running repairs. 0 means "number of CPUs".
    pub workers: usize,
    /// Bounded queue capacity; beyond it, `POST` gets `429`.
    pub queue_cap: usize,
    /// Result-cache capacity in entries.
    pub cache_cap: usize,
    /// Append one JSONL run report per repair job (plus a summary line on
    /// shutdown) to this path.
    pub metrics_out: Option<PathBuf>,
    /// Per-connection socket read/write timeout.
    pub io_timeout: Duration,
    /// Wall-clock budget for one repair job. A job that exhausts it is
    /// aborted at the next cancellation checkpoint and answered
    /// `503 {"error":"timeout"}` — never cached. `Duration::ZERO` expires
    /// immediately (every job times out; useful for tests).
    pub job_timeout: Duration,
    /// How long after a worker death or queue saturation `/healthz` keeps
    /// reporting `"degraded"`.
    pub degraded_window: Duration,
    /// Capacity of the poison list quarantining specs that panicked the
    /// engine.
    pub poison_cap: usize,
    /// Root directory of the on-disk result store (`serve --store-dir`);
    /// `None` runs memory-only, exactly as before the store existed.
    pub store_dir: Option<PathBuf>,
    /// Byte budget for the store's entries (0 = unlimited); beyond it the
    /// coldest entries are evicted.
    pub store_budget: u64,
    /// Warm-start lazy repairs from the nearest cached neighbor when the
    /// exact key misses (`serve --no-warm-start` clears this).
    pub warm_start: bool,
    /// Default BDD live-node budget per job (`serve --job-max-nodes`);
    /// 0 = unlimited. A job that exhausts it is aborted at the next
    /// cancellation checkpoint and answered
    /// `503 {"error":"node budget exhausted"}` — never cached, and the
    /// process survives where an unbounded arena would have been
    /// OOM-killed. Clients may lower (never raise) it per request with
    /// `?max-nodes=N`.
    pub job_max_nodes: usize,
    /// Consecutive store I/O failures that trip the store circuit breaker
    /// into memory-only degraded mode (see [`crate::breaker`]).
    pub breaker_threshold: u32,
    /// Base of the breaker's full-jitter backoff between half-open probes.
    pub breaker_backoff: Duration,
    /// Ceiling of the breaker's backoff.
    pub breaker_max_backoff: Duration,
    /// Durable job journal (`serve --journal`): every job is recorded
    /// before it executes and marked complete when it finishes, so a
    /// `kill -9` mid-repair loses no accepted work — the next boot scans
    /// the journal and replays whatever is incomplete. `None` disables
    /// journaling (no recovery, no WAL writes).
    pub journal: Option<PathBuf>,
    /// Bound on the graceful-shutdown drain. Jobs still *queued* when this
    /// deadline passes are answered `503` and counted under
    /// `server.jobs.abandoned`; jobs already *running* are cancelled at
    /// their next token checkpoint — which forces a final mid-repair
    /// checkpoint when checkpointing is on, and leaves journaled jobs
    /// pending so the next boot resumes them.
    pub drain_timeout: Duration,
    /// Filesystem implementation handed to the disk store — tests inject
    /// an `ErrInjFs` here to fault the volume on purpose.
    #[cfg(any(test, feature = "chaos"))]
    pub store_vfs: Option<Arc<dyn ftrepair_store::Vfs>>,
    /// Fault-injection plan (tests and the `chaos` feature only).
    #[cfg(any(test, feature = "chaos"))]
    pub chaos: Option<Arc<crate::chaos::Chaos>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7177".to_string(),
            workers: 0,
            queue_cap: 64,
            cache_cap: 256,
            metrics_out: None,
            io_timeout: Duration::from_secs(10),
            job_timeout: Duration::from_secs(30),
            degraded_window: Duration::from_secs(60),
            poison_cap: 64,
            store_dir: None,
            store_budget: 0,
            warm_start: true,
            job_max_nodes: 0,
            breaker_threshold: 3,
            breaker_backoff: Duration::from_millis(500),
            breaker_max_backoff: Duration::from_secs(30),
            journal: None,
            drain_timeout: Duration::from_secs(30),
            #[cfg(any(test, feature = "chaos"))]
            store_vfs: None,
            #[cfg(any(test, feature = "chaos"))]
            chaos: None,
        }
    }
}

struct Shared {
    /// Accepted connections, each paired with its enqueue instant so the
    /// worker that pops it can record the queue wait.
    queue: JobQueue<(TcpStream, Instant)>,
    cache: ResultCache,
    /// Exact request bodies already prepared, so a repeat skips
    /// `job::prepare` (bounded by the cache's capacity).
    memo: PrepareMemo,
    /// The durable tiers under the in-memory cache: the disk store
    /// (`--store-dir`) behind its breaker, whose half-open probes
    /// `/healthz` drives, and the checkpoint slots, present whenever the
    /// store or the journal gives them a home.
    tiers: Tiers,
    /// Completed repairs queued for asynchronous write-through — the
    /// response path never waits on disk.
    store_writes: JobQueue<StoreWrite>,
    poison: PoisonList,
    inflight: InFlight,
    /// Ring of the most recent jobs for `GET /jobs`.
    jobs: JobRing,
    tele: Telemetry,
    /// Pre-registered handles for the two per-request histograms — the
    /// hot path must not take the registry lock per connection.
    h_request: Histogram,
    h_queue_wait: Histogram,
    metrics_out: Option<PathBuf>,
    metrics_lock: Mutex<()>,
    shutdown: AtomicBool,
    /// Raised by [`ServerHandle::cancel_jobs`]; every job token carries it.
    cancel_jobs: Arc<AtomicBool>,
    io_timeout: Duration,
    job_timeout: Duration,
    job_max_nodes: usize,
    degraded_window: Duration,
    /// Write-ahead job journal (`--journal`); `None` disables recovery.
    journal: Option<JobJournal>,
    /// `server.jobs.recovered`: incomplete journal records found at boot
    /// (each is either completed from the store without recompute, or
    /// replayed).
    recovered: Counter,
    /// `server.jobs.replayed`: recovered records that actually re-executed.
    replayed: Counter,
    /// `server.jobs.abandoned`: jobs shed at the shutdown drain deadline.
    abandoned: Counter,
    /// Pending journal records the boot scan found (frozen at bind).
    pending_at_boot: u64,
    /// Connections (and boot replays) a worker is currently handling —
    /// what the bounded drain waits on.
    active: AtomicUsize,
    drain_timeout: Duration,
    workers: usize,
    /// Workers currently inside their serve loop (dips while the
    /// supervisor recycles one, returns to `workers` after).
    workers_alive: Mutex<usize>,
    last_worker_fault: Mutex<Option<Instant>>,
    last_saturation: Mutex<Option<Instant>>,
    started: Instant,
    #[cfg(any(test, feature = "chaos"))]
    chaos: Option<Arc<crate::chaos::Chaos>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::requested()
    }

    /// The token one repair job runs under, carrying every limit: the
    /// server-wide cancel flag, this job's deadline, and the node budget —
    /// the server's, tightened by the request's `max_nodes` (`0`: none; a
    /// client may lower the operator's OOM guard, never raise it) — plus
    /// the key's checkpoint sink ([`Tiers::arm`]).
    fn job_token(&self, key: &str, max_nodes: usize) -> Token {
        let token = Token::unbounded()
            .with_flag(Arc::clone(&self.cancel_jobs))
            .with_deadline_in(self.job_timeout)
            .with_node_budget(self.job_max_nodes)
            .with_node_budget(max_nodes);
        self.tiers.arm(token, key)
    }

    /// WAL a job before it executes (no-op without `--journal`). Once the
    /// fsynced append returns, a crash at any later point leaves the job
    /// recoverable from the journal alone. Append failures are counted and
    /// logged, never fatal — journaling is crash insurance, not a hard
    /// dependency of the response path.
    fn journal_start(&self, spec: &job::JobSpec, trace_id: u64) {
        if let Some(journal) = &self.journal {
            let rec = JournalRecord {
                key: spec.key.clone(),
                case: spec.name.clone(),
                mode: spec.mode.as_str().to_string(),
                trace_id: format_trace_id(trace_id),
                opts: job::options_fingerprint(spec.mode, &spec.opts),
                spec: spec.canonical.clone(),
            };
            if let Err(e) = journal.append_start(&rec) {
                self.tele.add("telemetry.write_errors", 1);
                eprintln!("ftrepair-server: journal start for {} failed: {e}", spec.key);
            }
        }
    }

    /// Journal a terminal outcome for `key` (no-op without `--journal`).
    /// Deliberately *not* called for `Cancelled` aborts: a drain-cancelled
    /// job stays pending so the next boot resumes it — that is the
    /// checkpoint-and-exit contract.
    fn journal_done(&self, key: &str, outcome: &str) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append_done(key, outcome) {
                self.tele.add("telemetry.write_errors", 1);
                eprintln!("ftrepair-server: journal done for {key} failed: {e}");
            }
        }
    }

    fn note_worker_fault(&self) {
        *self.last_worker_fault.lock().unwrap() = Some(Instant::now());
    }

    fn note_saturation(&self) {
        *self.last_saturation.lock().unwrap() = Some(Instant::now());
    }

    /// Did a worker die or the queue saturate within the degraded window?
    fn degraded(&self) -> bool {
        let recent = |slot: &Mutex<Option<Instant>>| {
            slot.lock().unwrap().is_some_and(|at| at.elapsed() < self.degraded_window)
        };
        recent(&self.last_worker_fault) || recent(&self.last_saturation)
    }

    fn worker_started(&self) {
        let mut alive = self.workers_alive.lock().unwrap();
        *alive += 1;
        self.tele.set_gauge("server.workers.alive", *alive as u64);
    }

    fn worker_stopped(&self) {
        let mut alive = self.workers_alive.lock().unwrap();
        *alive = alive.saturating_sub(1);
        self.tele.set_gauge("server.workers.alive", *alive as u64);
    }

    /// Record a job panic: count it, flag health, quarantine the key, and
    /// put the payload in the JSONL stream so a postmortem has it even
    /// after the process is gone.
    fn quarantine(&self, job: &JobRecord, why: &str) {
        self.tele.add("server.workers.panics", 1);
        self.note_worker_fault();
        if self.poison.insert(&job.key) {
            self.tele.add("server.jobs.quarantined", 1);
        }
        let mut report = RunReport::new(&job.case, "panic");
        report.set("server_key", job.key.as_str().into());
        report.set("panic", why.into());
        self.append_report(&report);
        eprintln!(
            "ftrepair-server: repair of {} panicked ({why}); key {} quarantined",
            job.case, job.key
        );
    }

    /// Serialize JSONL appends: lines can exceed the pipe-atomicity size,
    /// and interleaved lines would corrupt the file for every consumer.
    /// Failed appends are counted (`telemetry.write_errors`) as well as
    /// logged — a full disk shows up on `/metrics` scrapes, not only in a
    /// log nobody tails.
    fn append_report(&self, report: &RunReport) {
        if let Some(path) = &self.metrics_out {
            let _guard = self.metrics_lock.lock().unwrap();
            if let Err(e) = report.append_to(path) {
                self.tele.add("telemetry.write_errors", 1);
                eprintln!("ftrepair-server: cannot append metrics to {}: {e}", path.display());
            }
        }
    }
}

/// Handle for stopping a running server from another thread (tests, or an
/// embedding with its own signal story).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin a graceful shutdown: stop accepting, drain queued jobs, exit.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Abort every in-flight and future repair job at its next
    /// cancellation checkpoint (`503 {"error":"cancelled"}`). The flag is
    /// sticky — pair it with [`ServerHandle::shutdown`] when the drain
    /// must not wait out long-running fixpoints.
    pub fn cancel_jobs(&self) {
        self.shared.cancel_jobs.store(true, Ordering::SeqCst);
    }

    /// The server's telemetry (live; snapshot to read).
    pub fn telemetry(&self) -> Telemetry {
        self.shared.tele.clone()
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// Pending journal records the boot scan found; `run` replays them on
    /// a dedicated thread while the accept loop serves fresh traffic.
    recovery: Vec<JournalRecord>,
}

/// Bind with `SO_REUSEADDR` so a restarted daemon can reclaim its port
/// immediately. The daemon closes every connection (`Connection: close`),
/// which leaves server-side TIME_WAIT pairs behind; without the option a
/// warm restart on the same `--addr` fails with `EADDRINUSE` for up to a
/// minute — exactly the window the persistent store is meant to cover. The
/// workspace links no third-party crates, so the option is set through raw
/// `socket(2)`/`setsockopt(2)` (libc is always linked on Linux); on other
/// targets or non-IPv4 addresses this falls back to a plain bind.
fn bind_reusable(addr: &str) -> io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    {
        use std::net::{SocketAddr, ToSocketAddrs};
        use std::os::fd::FromRawFd;
        extern "C" {
            fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
            fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
            fn listen(fd: i32, backlog: i32) -> i32;
            fn close(fd: i32) -> i32;
        }
        const AF_INET: i32 = 2;
        const SOCK_STREAM: i32 = 1;
        const SOL_SOCKET: i32 = 1;
        const SO_REUSEADDR: i32 = 2;

        let v4 = addr.to_socket_addrs().ok().and_then(|mut addrs| {
            addrs.find_map(|a| match a {
                SocketAddr::V4(v4) => Some(v4),
                SocketAddr::V6(_) => None,
            })
        });
        if let Some(v4) = v4 {
            unsafe {
                let fd = socket(AF_INET, SOCK_STREAM, 0);
                if fd >= 0 {
                    let one: i32 = 1;
                    // struct sockaddr_in: family, port (BE), addr (BE), pad.
                    let mut sa = [0u8; 16];
                    sa[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
                    sa[2..4].copy_from_slice(&v4.port().to_be_bytes());
                    sa[4..8].copy_from_slice(&v4.ip().octets());
                    if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) == 0
                        && bind(fd, sa.as_ptr(), 16) == 0
                        && listen(fd, 128) == 0
                    {
                        return Ok(TcpListener::from_raw_fd(fd));
                    }
                    let err = io::Error::last_os_error();
                    close(fd);
                    return Err(err);
                }
            }
        }
    }
    TcpListener::bind(addr)
}

/// Longest the accept loop waits for a connection before it re-checks the
/// shutdown flag: the bound on SIGTERM and `ServerHandle::shutdown`
/// latency for an idle daemon.
const ACCEPT_RECHECK: Duration = Duration::from_millis(5);

/// Block until the listener has a pending connection or `timeout` passes,
/// through `poll(2)` on its fd (declared directly; the workspace links no
/// third-party crates). The listener stays non-blocking, so a spurious
/// wake only costs one more `accept` try.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut pfd = PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 };
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: one valid pollfd, and `listener` keeps the fd open.
    if unsafe { poll(&mut pfd, 1, ms) } < 0 {
        // A failing poll must not turn the loop into a busy spin.
        std::thread::sleep(timeout);
    }
}

/// Non-unix fallback: wait out the timeout; the next `accept` finds any
/// connection that arrived meanwhile.
#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

impl Server {
    /// Bind the listener and set up queue, cache, and telemetry.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let listener = bind_reusable(&config.addr)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            config.workers
        };
        let tele = Telemetry::new();
        let cache = ResultCache::new(config.cache_cap, &tele);
        let store = match &config.store_dir {
            Some(dir) => {
                #[cfg(any(test, feature = "chaos"))]
                let opened = match &config.store_vfs {
                    Some(vfs) => {
                        DiskStore::open_with_vfs(dir, config.store_budget, &tele, Arc::clone(vfs))?
                    }
                    None => DiskStore::open(dir, config.store_budget, &tele)?,
                };
                #[cfg(not(any(test, feature = "chaos")))]
                let opened = DiskStore::open(dir, config.store_budget, &tele)?;
                Some(opened)
            }
            None => None,
        };
        // The WAL: scan for work the previous incarnation accepted but
        // never finished. The scan also compacts the file, so journal
        // growth is bounded by the in-flight set.
        let mut recovery = Vec::new();
        let mut pending_at_boot = 0u64;
        let journal = match &config.journal {
            Some(path) => {
                let (journal, scan) = JobJournal::open(path)?;
                if !scan.pending.is_empty() || scan.dropped_lines > 0 {
                    eprintln!(
                        "ftrepair-server: journal {}: {} pending job(s) to recover, \
                         {} completed, {} torn line(s) dropped",
                        path.display(),
                        scan.pending.len(),
                        scan.completed,
                        scan.dropped_lines
                    );
                }
                pending_at_boot = scan.pending.len() as u64;
                recovery = scan.pending;
                Some(journal)
            }
            None => None,
        };
        // Checkpoint slots live beside the store when there is one, else
        // beside the journal; without either durable root, mid-repair
        // checkpointing is off (there is nowhere to resume from anyway).
        let ckpt_root = config
            .store_dir
            .as_ref()
            .map(|dir| dir.join("checkpoints"))
            .or_else(|| config.journal.as_ref().map(|p| p.with_file_name("checkpoints")));
        let ckpts = match ckpt_root {
            Some(root) => Some(CheckpointStore::open(&root)?),
            None => None,
        };
        let tiers = Tiers::new(store, ckpts, config, &tele);
        let h_request = tele.histogram("server.request.seconds");
        let recovered = tele.counter("server.jobs.recovered");
        let replayed = tele.counter("server.jobs.replayed");
        let abandoned = tele.counter("server.jobs.abandoned");
        let h_queue_wait = tele.histogram("server.queue_wait.seconds");
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_cap),
            cache,
            memo: PrepareMemo::new(config.cache_cap),
            tiers,
            // Same bound as the connection queue: a burst beyond it drops
            // writes (counted), never blocks a worker.
            store_writes: JobQueue::new(config.queue_cap.max(16)),
            poison: PoisonList::new(config.poison_cap),
            inflight: InFlight::new(),
            jobs: JobRing::new(JOB_RING_CAP),
            tele,
            h_request,
            h_queue_wait,
            metrics_out: config.metrics_out.clone(),
            metrics_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            cancel_jobs: Arc::new(AtomicBool::new(false)),
            io_timeout: config.io_timeout,
            job_timeout: config.job_timeout,
            job_max_nodes: config.job_max_nodes,
            degraded_window: config.degraded_window,
            journal,
            recovered,
            replayed,
            abandoned,
            pending_at_boot,
            active: AtomicUsize::new(0),
            drain_timeout: config.drain_timeout,
            workers,
            workers_alive: Mutex::new(0),
            last_worker_fault: Mutex::new(None),
            last_saturation: Mutex::new(None),
            started: Instant::now(),
            #[cfg(any(test, feature = "chaos"))]
            chaos: config.chaos.clone(),
        });
        Ok(Server { listener, shared, recovery })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server later.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Run until shutdown is requested (signal or handle), then drain
    /// in-flight jobs, write the summary report, and return.
    ///
    /// The accept loop sleeps in `poll(2)` on the listener, so a new
    /// connection is accepted as soon as it is ready rather than on a
    /// timer tick. The wait times out every `ACCEPT_RECHECK` (5 ms), so
    /// an idle daemon still notices a shutdown request within that bound.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, shared, recovery } = self;
        listener.set_nonblocking(true)?;
        let accepted = shared.tele.counter("server.http.accepted");
        let rejected = shared.tele.counter("server.http.rejected_busy");

        // The store writer drains the write-through queue into the tiers
        // until it closes. It outlives the worker scope (it must drain
        // writes the last workers enqueue), so it runs as a plain spawned
        // thread holding its own `Arc<Shared>` and is joined explicitly
        // after the scope — deterministic drain, no writes lost at
        // shutdown.
        let writer = shared.tiers.persists().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while let Some(entry) = shared.store_writes.pop() {
                    if let Err(e) = shared.tiers.write(&entry) {
                        eprintln!("ftrepair-server: store write for {} failed: {e}", entry.key);
                    }
                }
            })
        });

        // Boot recovery runs on its own thread so a slow replay never
        // delays the accept loop. Joined before the store-write queue
        // closes (replays enqueue write-throughs like any other job); the
        // bounded drain covers it via `active`, and a shutdown mid-replay
        // leaves the untouched records pending for the next boot. It and
        // the workers parse specs, so they get the stack the parser's depth
        // bound is argued for, whatever `RUST_MIN_STACK` says.
        let spec_thread = || std::thread::Builder::new().stack_size(WORKER_STACK_SIZE);
        let recoverer = (!recovery.is_empty()).then(|| {
            let shared = Arc::clone(&shared);
            spec_thread().spawn(move || recover_jobs(&shared, recovery)).expect("spawn recovery")
        });

        std::thread::scope(|scope| {
            for _ in 0..shared.workers {
                let shared = Arc::clone(&shared);
                spec_thread()
                    .spawn_scoped(scope, move || supervise_worker(&shared))
                    .expect("spawn worker");
            }

            while !shared.shutting_down() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        accepted.inc();
                        let _ = stream.set_read_timeout(Some(shared.io_timeout));
                        let _ = stream.set_write_timeout(Some(shared.io_timeout));
                        let item = (stream, Instant::now());
                        #[cfg(any(test, feature = "chaos"))]
                        let push = match &shared.chaos {
                            Some(chaos) if chaos.queue_forced_full() => {
                                Err((item, PushError::Full))
                            }
                            _ => shared.queue.try_push(item),
                        };
                        #[cfg(not(any(test, feature = "chaos")))]
                        let push = shared.queue.try_push(item);
                        if let Err(((mut stream, _queued_at), why)) = push {
                            rejected.inc();
                            if why == PushError::Full {
                                shared.note_saturation();
                                shared.tele.add("server.queue.saturated", 1);
                            }
                            let body = error_body(match why {
                                PushError::Full => "server busy: job queue is full, retry later",
                                PushError::Closed => "server is shutting down",
                            });
                            let _ = http::write_response(&mut stream, 429, JSON, &body);
                            discard_request_bytes(&mut stream);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        wait_for_connection(&listener, ACCEPT_RECHECK);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        eprintln!("ftrepair-server: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
            // Drain: no new connections, and every accepted job is served
            // — up to the drain deadline, after which still-queued jobs
            // are shed with a 503 and running repairs are cancelled at
            // their next checkpoint (leaving resume points behind).
            shared.queue.close();
            drain_with_deadline(&shared);
        });
        if let Some(handle) = recoverer {
            let _ = handle.join();
        }
        // Workers are done, so nothing can enqueue further writes: close
        // the write queue and wait for the writer to flush what is left.
        shared.store_writes.close();
        if let Some(handle) = writer {
            let _ = handle.join();
        }

        let mut summary = RunReport::new("server", "summary");
        summary.set("uptime_s", shared.started.elapsed().as_secs_f64().into());
        summary.set("workers", shared.workers.into());
        summary.set("cache_entries", shared.cache.len().into());
        summary.set_snapshot(&shared.tele.snapshot());
        shared.append_report(&summary);
        Ok(())
    }
}

const JSON: &str = "application/json";
/// Prometheus text exposition format 0.0.4.
const PROMETHEUS: &str = "text/plain; version=0.0.4";

fn error_body(message: &str) -> String {
    let mut j = Json::obj();
    j.set("ok", false.into());
    j.set("error", message.into());
    j.to_string()
}

/// How one incarnation of a worker's serve loop ended.
enum WorkerExit {
    /// The queue is closed and empty; the pool is draining for shutdown.
    Drained,
    /// A job panicked (absorbed, client answered). Retire this incarnation
    /// and start a fresh one: a panic mid-repair can leak or corrupt
    /// anything that was live on this thread, and the next job must not
    /// inherit that.
    Recycle,
}

/// Keep one worker slot alive until shutdown, restarting the serve loop
/// after every recycle or escaped panic.
///
/// The `catch_unwind` here is what keeps one hostile spec from taking the
/// whole daemon down at shutdown: a scoped thread that dies panicking
/// re-raises the panic when `std::thread::scope` joins it, so without this
/// boundary the server would absorb a panicking job, drain cleanly — and
/// then crash in the scope join. Absorbing the panic and looping means the
/// scope only ever joins threads that returned.
fn supervise_worker(shared: &Shared) {
    loop {
        shared.worker_started();
        let exit = catch_unwind(AssertUnwindSafe(|| worker_loop(shared)));
        shared.worker_stopped();
        match exit {
            Ok(WorkerExit::Drained) => return,
            Ok(WorkerExit::Recycle) => {}
            Err(payload) => {
                // A panic that escaped the per-job boundary (i.e. not a
                // repair panic — those are absorbed in `run_job`).
                shared.tele.add("server.workers.panics", 1);
                shared.note_worker_fault();
                eprintln!(
                    "ftrepair-server: worker died outside a job ({}); respawning",
                    panic_message(payload.as_ref())
                );
            }
        }
        shared.tele.add("server.workers.respawned", 1);
    }
}

fn worker_loop(shared: &Shared) -> WorkerExit {
    while let Some((stream, queued_at)) = shared.queue.pop() {
        // Guard, not a pair of calls: a panic escaping the connection
        // handler must still decrement, or the shutdown drain would wait
        // its full deadline on a phantom job.
        let _active = ActiveGuard::enter(&shared.active);
        if handle_connection(shared, stream, queued_at) {
            return WorkerExit::Recycle;
        }
        #[cfg(any(test, feature = "chaos"))]
        if let Some(chaos) = &shared.chaos {
            chaos.maybe_kill_worker();
        }
    }
    WorkerExit::Drained
}

/// RAII increment of the in-flight job count the bounded drain waits on.
struct ActiveGuard<'a>(&'a AtomicUsize);

impl<'a> ActiveGuard<'a> {
    fn enter(counter: &'a AtomicUsize) -> ActiveGuard<'a> {
        counter.fetch_add(1, Ordering::SeqCst);
        ActiveGuard(counter)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Read and discard whatever request bytes the client already sent on a
/// socket we are answering without serving: dropping a socket with unread
/// data provokes an RST that can destroy the just-written response before
/// the peer reads it. Bounded by a total deadline AND a byte budget — this
/// runs on the accept/drain thread, and per-read timeouts alone would let
/// a trickling client stall it indefinitely.
fn discard_request_bytes(stream: &mut std::net::TcpStream) {
    use io::Read;
    let deadline = Instant::now() + Duration::from_millis(100);
    let mut budget: usize = 64 << 10;
    let mut sink = [0u8; 4096];
    while budget > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => budget = budget.saturating_sub(n),
            _ => break,
        }
    }
}

/// Bound the shutdown drain. Wait for the queue to empty and every worker
/// (and boot replay) to go idle; at `drain_timeout`, cancel in-flight
/// repairs — their tokens force one final checkpoint on the way out — and
/// answer every still-queued connection `503`, counted under
/// `server.jobs.abandoned`, instead of dropping sockets on the floor.
fn drain_with_deadline(shared: &Shared) {
    let deadline = Instant::now() + shared.drain_timeout;
    loop {
        if shared.queue.is_empty() && shared.active.load(Ordering::SeqCst) == 0 {
            return;
        }
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    shared.cancel_jobs.store(true, Ordering::SeqCst);
    let shed = shared.queue.drain_remaining();
    if !shed.is_empty() {
        eprintln!(
            "ftrepair-server: drain deadline passed; abandoning {} queued job(s)",
            shed.len()
        );
    }
    for (mut stream, _queued_at) in shed {
        shared.abandoned.inc();
        let body = error_body("server draining: job abandoned before a worker picked it up");
        let _ = http::write_response(&mut stream, 503, JSON, &body);
        discard_request_bytes(&mut stream);
    }
    // In-flight repairs unwind at their next token poll; the worker scope
    // join (and the journal, which keeps cancelled jobs pending) covers
    // the rest.
}

/// Replay the journal's pending records. A key some tier already holds
/// completes as `recovered` without recompute; the rest re-execute
/// (`replayed`), seeded from their checkpoint slot when the previous
/// incarnation left one. Shutdown mid-recovery stops cleanly: untouched
/// records stay pending for the next boot.
fn recover_jobs(shared: &Shared, pending: Vec<JournalRecord>) {
    let _active = ActiveGuard::enter(&shared.active);
    for rec in pending {
        if shared.shutting_down() {
            break;
        }
        shared.recovered.inc();
        replay_job(shared, &rec);
    }
}

/// Re-run one journaled job exactly as it was submitted — same canonical
/// spec, same options (re-parsed from the fingerprint), fresh trace
/// honoring the recorded ID — through the same lifecycle as a request.
fn replay_job(shared: &Shared, rec: &JournalRecord) {
    let trace_id = parse_trace_id(&rec.trace_id).unwrap_or_else(mint_trace_id);
    let Some((mode, opts)) = job::options_from_fingerprint(&rec.opts) else {
        eprintln!(
            "ftrepair-server: journal record {} has unparseable options {:?}; retiring it",
            rec.key, rec.opts
        );
        shared.journal_done(&rec.key, "unparseable-options");
        return;
    };
    let spec = match job::prepare(&rec.spec, mode, opts) {
        Ok(spec) => spec,
        Err(message) => {
            eprintln!("ftrepair-server: journaled spec {} no longer parses ({message})", rec.key);
            shared.journal_done(&rec.key, "invalid");
            return;
        }
    };
    if spec.key != rec.key {
        // Canonicalization or fingerprint drift between incarnations —
        // the record cannot be completed under its own key; surface it
        // loudly and retire it rather than replaying into a boot loop.
        eprintln!(
            "ftrepair-server: journal key mismatch: recorded {} re-prepares to {}; retiring it",
            rec.key, spec.key
        );
        shared.journal_done(&rec.key, "key-mismatch");
        return;
    }

    let record =
        JobRecord::new(trace_id, &spec.name, spec.mode.as_str(), &spec.key, Duration::ZERO);
    shared.jobs.push(Arc::clone(&record));
    // Budgets are not journaled (they are not part of the content key), so
    // the replay runs under this server's own limits alone.
    match run_job(shared, &record, Origin::Replay, 0, || Ok(spec)) {
        // Already in a tier: the crash came after the result landed but
        // before the done record did, or a live client raced the replay.
        Ok((_, Tier::Memory | Tier::Disk)) => {
            record.finish(JobStatus::Recovered);
            shared.journal_done(&rec.key, "recovered-cached");
        }
        Ok((_, Tier::Computed)) => {}
        Err(reply) => {
            eprintln!(
                "ftrepair-server: replay of {} ended {} {}",
                rec.key, reply.status, reply.body
            )
        }
    }
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` unless someone panicked with an exotic value).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One HTTP response; `job_panicked` tells the worker loop to recycle
/// after the reply is written. Bodies are JSON except the Prometheus
/// exposition, which carries its own content type.
struct Reply {
    status: u16,
    content_type: &'static str,
    body: String,
    job_panicked: bool,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply { status, content_type: JSON, body, job_panicked: false }
    }

    fn error(status: u16, message: &str) -> Reply {
        Reply::json(status, error_body(message))
    }
}

/// Per-request context threaded from `handle_connection` down to the job
/// pipeline: the trace ID (client-supplied or minted) and how long the
/// connection waited in the queue.
struct ReqCtx {
    trace_id: u64,
    queue_wait: Duration,
}

/// Serve exactly one request on `stream`. Returns whether a repair job
/// panicked while producing the response.
fn handle_connection(shared: &Shared, mut stream: TcpStream, queued_at: Instant) -> bool {
    let queue_wait = queued_at.elapsed();
    shared.h_queue_wait.observe_duration(queue_wait);
    let started = Instant::now();
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) if e.status == 0 => return false, // peer went away; nothing to say
        Err(e) => {
            let _ = http::write_response(&mut stream, e.status, JSON, &error_body(&e.message));
            return false;
        }
    };

    // One trace ID per request: honor a well-formed `X-Trace-Id` header,
    // mint otherwise, and echo it back so the client can correlate its
    // request with `/jobs/<trace-id>` and any exported trace tree.
    let trace_id =
        request.header("x-trace-id").and_then(parse_trace_id).unwrap_or_else(mint_trace_id);
    let ctx = ReqCtx { trace_id, queue_wait };

    let _span = shared.tele.span("server.request");
    shared.tele.add("server.http.requests", 1);
    let reply = route(shared, &request, &ctx);
    shared.tele.add(&format!("server.http.status.{}", reply.status), 1);
    let trace_hex = format_trace_id(trace_id);
    let headers = [("X-Trace-Id", trace_hex.as_str())];
    if http::write_response_with_headers(
        &mut stream,
        reply.status,
        reply.content_type,
        &headers,
        &reply.body,
    )
    .is_err()
    {
        shared.tele.add("server.http.write_failures", 1);
    }
    shared.h_request.observe_duration(started.elapsed());
    reply.job_panicked
}

fn route(shared: &Shared, req: &Request, ctx: &ReqCtx) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(shared),
        ("GET", "/metrics") => handle_metrics(shared, req.query("format")),
        ("GET", "/jobs") => handle_jobs(shared),
        ("GET", path) if path.starts_with("/jobs/") => handle_job(shared, &path["/jobs/".len()..]),
        ("POST", "/repair") => handle_repair(shared, req, ctx),
        ("POST", "/simulate") => handle_simulate(shared, req, ctx),
        ("GET", "/repair" | "/simulate") | ("POST", "/healthz" | "/metrics" | "/jobs") => {
            Reply::error(405, "method not allowed for this path")
        }
        _ => Reply::error(404, &format!("no such endpoint {}", req.path)),
    }
}

fn handle_healthz(shared: &Shared) -> Reply {
    // Always 200: load balancers poll this, and a degraded-but-serving
    // daemon should keep receiving traffic. The `status` field carries the
    // nuance — "ok", "degraded" (a worker died or the queue saturated
    // within the degraded window), or "draining" (shutdown in progress).
    let status = if shared.shutting_down() {
        "draining"
    } else if shared.degraded() {
        "degraded"
    } else {
        "ok"
    };
    let mut j = Json::obj();
    j.set("ok", true.into());
    j.set("status", status.into());
    j.set("uptime_s", shared.started.elapsed().as_secs_f64().into());
    j.set("workers", shared.workers.into());
    j.set("workers_alive", (*shared.workers_alive.lock().unwrap()).into());
    let mut store = Json::obj();
    let breaker = shared.tiers.breaker();
    match shared.tiers.store() {
        Some(s) => {
            // `/healthz` is the daemon's only periodic traffic, so the
            // breaker's half-open probes ride it: once the backoff deadline
            // passes, the next poll writes/reads/deletes a probe file and
            // either closes the breaker or re-opens it with a longer wait.
            if breaker.try_probe() {
                match s.probe() {
                    Ok(()) => breaker.record_success(),
                    Err(_) => breaker.record_failure(),
                }
            }
            store.set("enabled", true.into());
            store.set("status", if breaker.degraded() { "degraded" } else { "ok" }.into());
            store.set("breaker", breaker.state_str().into());
            store.set("path", s.root().display().to_string().into());
            store.set("entries", s.len().into());
            store.set("bytes", s.bytes().into());
            store.set("write_queue_depth", shared.store_writes.len().into());
            store.set("io_errors", s.io_errors().into());
        }
        None => {
            store.set("enabled", false.into());
        }
    }
    j.set("store", store);
    let mut recovery = Json::obj();
    recovery.set("journal", shared.journal.is_some().into());
    if let Some(journal) = &shared.journal {
        recovery.set("journal_path", journal.path().display().to_string().into());
        recovery.set("pending_at_boot", shared.pending_at_boot.into());
        recovery.set("recovered", shared.recovered.get().into());
        recovery.set("replayed", shared.replayed.get().into());
    }
    let ckpts = shared.tiers.checkpoints();
    recovery.set("checkpointing", ckpts.is_some().into());
    if let Some(ckpts) = ckpts {
        recovery.set("checkpoint_slots", ckpts.len().into());
    }
    recovery.set("abandoned", shared.abandoned.get().into());
    j.set("recovery", recovery);
    Reply::json(200, j.to_string())
}

fn handle_metrics(shared: &Shared, format: Option<&str>) -> Reply {
    // Stamp the scrape-time gauges first so both renderings carry them.
    shared.tele.set_gauge("server.uptime_seconds", shared.started.elapsed().as_secs());
    shared.tele.set_gauge("server.queue.depth", shared.queue.len() as u64);
    shared.tele.set_gauge("server.cache.entries", shared.cache.len() as u64);
    shared.tele.set_gauge("server.memo.entries", shared.memo.len() as u64);
    shared.tele.set_gauge("server.jobs.quarantined_keys", shared.poison.len() as u64);
    if shared.tiers.persists() {
        // store.bytes / store.entries are published by the store itself on
        // every operation; only the queue depth is scrape-time state.
        shared.tele.set_gauge("store.write_queue.depth", shared.store_writes.len() as u64);
    }
    let snap = shared.tele.snapshot();

    match format {
        Some("prometheus") => Reply {
            status: 200,
            content_type: PROMETHEUS,
            body: prometheus::render(&snap),
            job_panicked: false,
        },
        None | Some("json") => {
            // The snapshot is rendered straight into the response — no
            // intermediate RunReport per scrape — but keeps the run-report
            // field shape (schema_version/case/mode + snapshot fields) so
            // consumers parse exactly one format.
            let mut j = Json::obj();
            j.set("schema_version", SCHEMA_VERSION.into());
            j.set("case", "server".into());
            j.set("mode", "metrics".into());
            j.set("uptime_s", shared.started.elapsed().as_secs_f64().into());
            j.set("workers", shared.workers.into());
            j.set("queue_depth", shared.queue.len().into());
            j.set("cache_entries", shared.cache.len().into());
            j.set("quarantined_keys", shared.poison.len().into());
            set_snapshot_fields(&mut j, &snap);
            Reply::json(200, j.to_string())
        }
        Some(other) => {
            Reply::error(400, &format!("unknown format {other:?} (use json or prometheus)"))
        }
    }
}

fn handle_jobs(shared: &Shared) -> Reply {
    let jobs: Vec<Json> = shared.jobs.recent().iter().map(|r| r.to_json()).collect();
    let mut j = Json::obj();
    j.set("ok", true.into());
    j.set("jobs", Json::Arr(jobs));
    Reply::json(200, j.to_string())
}

fn handle_job(shared: &Shared, id: &str) -> Reply {
    let Some(trace_id) = parse_trace_id(id) else {
        return Reply::error(400, &format!("malformed trace id {id:?} (want 16 hex chars)"));
    };
    match shared.jobs.find(trace_id) {
        Some(record) => {
            let mut j = record.to_json();
            j.set("ok", true.into());
            Reply::json(200, j.to_string())
        }
        None => Reply::error(404, "no retained job with that trace id"),
    }
}

/// Decode the repair knobs shared by `/repair` and `/simulate`: the mode,
/// the options, and the client's node budget (`?max-nodes=`, `0` when
/// absent). The budget is not part of the content key: like the deadline,
/// it bounds whether a job finishes, not what it computes.
fn job_params(req: &Request) -> Result<(Mode, RepairOptions, usize), String> {
    let mode = match req.query("mode") {
        None | Some("lazy") => Mode::Lazy,
        Some("cautious") => Mode::Cautious,
        Some(other) => return Err(format!("unknown mode {other:?} (use lazy or cautious)")),
    };
    let max_nodes = query_number(req, "max-nodes", 0)?;
    let opts = RepairOptions {
        restrict_to_reachable: !req.query_flag("pure-lazy"),
        step2_closed_form: !req.query_flag("iterative-step2"),
        allow_new_terminal_inside: !req.query_flag("strict-terminal"),
        ..Default::default()
    };
    Ok((mode, opts, max_nodes))
}

/// The numeric query parameter `name`: `default` when absent, and an error
/// naming it when it is not a non-negative integer.
fn query_number<T: std::str::FromStr>(req: &Request, name: &str, default: T) -> Result<T, String> {
    match req.query(name) {
        None => Ok(default),
        Some(v) => {
            v.parse().map_err(|_| format!("{name} must be a non-negative integer, got {v:?}"))
        }
    }
}

/// Who submitted a job.
#[derive(Clone, Copy)]
enum Origin {
    /// A live `/repair` or `/simulate` request, with its trace ID. It is
    /// journaled once it is about to execute.
    Request(u64),
    /// Boot recovery re-running a journal record that is already pending.
    Replay,
}

/// Which tier answered a job.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Memory,
    Disk,
    Computed,
}

/// How a job ended without a result.
enum Ending {
    /// The key is quarantined: the spec once panicked the engine.
    Quarantined,
    /// The engine panicked, with this message.
    Panicked(String),
    /// `job::execute` refused the spec or was aborted.
    Failed(ExecError),
}

/// Run a request through the cache: prepare (or recall an earlier prepare
/// of the same body), record, then the shared lifecycle. Returns the entry
/// plus whether a tier served it, or the error reply. Every request that
/// survives `prepare` — cache hits included — gets a [`JobRecord`] in the
/// introspection ring under its own trace ID.
fn cached_repair(
    shared: &Shared,
    req: &Request,
    ctx: &ReqCtx,
) -> Result<(Arc<CacheEntry>, bool), Reply> {
    let source =
        std::str::from_utf8(&req.body).map_err(|_| Reply::error(400, "spec must be UTF-8 text"))?;
    if source.trim().is_empty() {
        return Err(Reply::error(400, "empty request body: POST the .ftr spec text"));
    }
    let (mode, opts, max_nodes) = job_params(req).map_err(|m| Reply::error(400, &m))?;

    // A body prepared before under the same options is recalled from the
    // memo: its key and name are all the memory tier needs, and the
    // lifecycle parses the body again only if it has to execute it.
    let address = PrepareMemo::address(&job::options_fingerprint(mode, &opts), &req.body);
    let (known, spec) = match shared.memo.get(&address) {
        Some(known) => (known, None),
        None => {
            let spec = job::prepare(source, mode, opts).map_err(|m| Reply::error(400, &m))?;
            let known = Prepared { key: spec.key.clone(), name: spec.name.clone() };
            (shared.memo.insert(address, known), Some(spec))
        }
    };

    let record =
        JobRecord::new(ctx.trace_id, &known.name, mode.as_str(), &known.key, ctx.queue_wait);
    shared.jobs.push(Arc::clone(&record));
    let prepare = || spec.map_or_else(|| job::prepare(source, mode, opts), Ok);
    let origin = Origin::Request(ctx.trace_id);
    let (entry, tier) = run_job(shared, &record, origin, max_nodes, prepare)?;
    match tier {
        Tier::Memory => record.finish(JobStatus::CacheHit),
        Tier::Disk => record.finish(JobStatus::DiskHit),
        Tier::Computed => {}
    }
    Ok((entry, tier != Tier::Computed))
}

/// The one job lifecycle, shared by requests and journal replay: poison
/// check, memory cache, single-flight, poison re-check, store tier,
/// journal start, warm seed, token, the guarded `job::execute`, one
/// classification of how it ended, and `finalize_success`. A tier hit is
/// returned for the caller to record; every other ending is recorded here.
///
/// The job is `record.key`; `prepare` yields its parsed spec and is called
/// only once the memory tier has missed and this job leads the flight, so
/// a prepare-memo hit served from memory never parses. `max_nodes`
/// tightens the server's node budget for this job (`0`: no tightening).
fn run_job(
    shared: &Shared,
    record: &JobRecord,
    origin: Origin,
    max_nodes: usize,
    prepare: impl FnOnce() -> Result<job::JobSpec, String>,
) -> Result<(Arc<CacheEntry>, Tier), Reply> {
    // A replayed record is pending in the journal already, so every ending
    // settles it there; a request is journaled only once it executes.
    let journaled = matches!(origin, Origin::Replay);
    let key = record.key.as_str();

    // Single-flight: the first request for a key becomes the leader and
    // runs the repair; concurrent requests for the same key block in
    // `begin` until the leader finishes (guard drop), then find the entry
    // in the cache instead of duplicating the fixpoint computation. If the
    // leader errors out, one waiting follower claims leadership and tries.
    let _lead = loop {
        // The quarantine check sits on the cache path, before the cache
        // itself: a resubmission of a spec that panicked the engine — and
        // every follower woken by a panicking leader — is refused here
        // without ever reaching a worker again.
        if shared.poison.contains(key) {
            return Err(end_job(shared, record, journaled, Ending::Quarantined));
        }
        if let Some(entry) = shared.cache.get(key) {
            return Ok((entry, Tier::Memory));
        }
        match shared.inflight.begin(key) {
            Some(guard) => break guard,
            None => continue,
        }
    };
    // Re-check after winning leadership: a request that passed the poison
    // check while the previous leader was still running can acquire the
    // flight right after that leader panicked — without this it would
    // re-execute the crashing spec once per such race.
    if shared.poison.contains(key) {
        return Err(end_job(shared, record, journaled, Ending::Quarantined));
    }
    // `prepare` hands back the spec a memo miss or a replay prepared
    // already, or re-parses a memo hit's body, which prepared to this key
    // before and so does again; the error arm is only for completeness.
    let spec = match prepare() {
        Ok(spec) => spec,
        Err(message) => {
            let ending = Ending::Failed(ExecError::Invalid(message));
            return Err(end_job(shared, record, journaled, ending));
        }
    };
    debug_assert_eq!(spec.key, record.key, "a memo hit prepares to the key it recalled");
    let spec = &spec;

    // The durable tier: an exact key persisted by an earlier process
    // incarnation is promoted into the memory cache — no recomputation,
    // and followers of this flight find it there. With the breaker open
    // the lookup is skipped and the job recomputes — memory-only degraded
    // mode costs work, never availability.
    if let Some((response, sim)) = shared.tiers.lookup(spec, true) {
        let entry = shared.cache.insert(CacheEntry::new(spec.key.clone(), &response, sim));
        return Ok((entry, Tier::Disk));
    }

    match origin {
        // WAL: leadership is won and no tier has the result, so this job
        // will execute. Journal it first — once the fsynced append
        // returns, a crash at any later point (including mid-repair)
        // leaves the job recoverable at the next boot.
        Origin::Request(trace_id) => shared.journal_start(spec, trace_id),
        Origin::Replay => shared.replayed.inc(),
    }

    // Full miss: seed from a checkpoint slot or the nearest neighbor.
    let warm = shared.tiers.seed(spec);
    // Per-job telemetry keeps concurrent jobs' reports separate; the
    // snapshot is folded into the server registry afterwards so /metrics
    // still aggregates everything.
    let job_tele = Telemetry::new();
    let token = shared.job_token(&spec.key, max_nodes);
    // The per-job panic boundary: a crashing repair costs the client a 500
    // and the server one recycled worker — nothing more, and the response
    // is written by this (surviving) thread, so no connection is ever
    // dropped. `AssertUnwindSafe` is honest here: the job owns all of its
    // state (program, BDD manager, and telemetry are built inside
    // `job::execute` or are this job's own), and everything shared that we
    // touch afterwards is lock-protected.
    let run = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(any(test, feature = "chaos"))]
        if let Some(chaos) = &shared.chaos {
            chaos.before_execute(&spec.key, &token);
        }
        job::execute(spec, &job_tele, true, &token, warm.as_ref(), shared.tiers.persists())
    }));
    let job_snap = job_tele.snapshot();
    shared.tele.absorb_snapshot(&job_snap);
    let ending = match run {
        Ok(Ok(result)) => {
            let failed = result.failed;
            let entry = finalize_success(shared, spec, record, result, &job_snap);
            shared.journal_done(&spec.key, if failed { "unrepairable" } else { "completed" });
            return Ok((entry, Tier::Computed));
        }
        Ok(Err(e)) => Ending::Failed(e),
        Err(payload) => Ending::Panicked(panic_message(payload.as_ref())),
    };
    Err(end_job(shared, record, true, ending))
}

/// The one classification of a job that ended without a result: its
/// `/jobs` status, its counter, how its journal record settles, and its
/// HTTP reply, set together. `journaled` says whether the job has a
/// journal record to settle.
///
/// Aborted runs are never cached: the next attempt may run under a larger
/// budget (or after the cancel flag clears) and succeed, while a cached
/// failure would pin the 503 forever. Deadline and budget aborts settle
/// (an identical replay would abort identically at every boot); a
/// *cancel* is the shutdown drain and stays pending on purpose — the
/// forced checkpoint plus the pending record is exactly what the next
/// boot resumes from. A panic settles too: replaying a deterministic
/// panic at every boot would be a crash loop, not fault tolerance.
fn end_job(shared: &Shared, record: &JobRecord, journaled: bool, ending: Ending) -> Reply {
    let quarantined = "quarantined: this spec previously crashed the repair engine";
    let (status, counter, settle, reply) = match ending {
        Ending::Quarantined => {
            (JobStatus::Quarantined, None, Some("quarantined"), Reply::error(422, quarantined))
        }
        Ending::Panicked(why) => {
            shared.quarantine(record, &why);
            let message = "internal error: repair engine panicked; spec quarantined";
            let reply = Reply { job_panicked: true, ..Reply::error(500, message) };
            (JobStatus::Panicked, None, Some("panicked"), reply)
        }
        Ending::Failed(ExecError::Invalid(message)) => {
            (JobStatus::Invalid, None, Some("invalid"), Reply::error(400, &message))
        }
        Ending::Failed(ExecError::Aborted(RepairAborted::Timeout)) => (
            JobStatus::Timeout,
            Some("server.jobs.timed_out"),
            Some("timeout"),
            Reply::error(503, "timeout"),
        ),
        Ending::Failed(ExecError::Aborted(RepairAborted::Cancelled)) => (
            JobStatus::Cancelled,
            Some("server.jobs.cancelled"),
            None,
            Reply::error(503, "cancelled"),
        ),
        Ending::Failed(ExecError::Aborted(RepairAborted::ResourceExhausted)) => (
            JobStatus::Exhausted,
            Some("server.jobs.exhausted"),
            Some("exhausted"),
            Reply::error(503, "node budget exhausted"),
        ),
    };
    record.finish(status);
    if let Some(counter) = counter {
        shared.tele.add(counter, 1);
    }
    if let (true, Some(reason)) = (journaled, settle) {
        shared.journal_done(&record.key, reason);
    }
    reply
}

/// Everything a finished (non-aborted) execution does after the repair
/// returns: introspection detail, the JSONL report, counters,
/// checkpoint-slot retirement, the async store write-through, and the
/// cache insert.
fn finalize_success(
    shared: &Shared,
    spec: &job::JobSpec,
    record: &JobRecord,
    mut result: job::JobResult,
    job_snap: &ftrepair_telemetry::MetricsSnapshot,
) -> Arc<CacheEntry> {
    // The outcome document `/jobs` shows for this record: iteration and
    // phase data from the repair stats, BDD peaks from the job's own
    // telemetry (gauges would smear across jobs in the shared registry).
    let mut detail = Json::obj();
    detail.set("outer_iterations", (result.stats.outer_iterations as u64).into());
    detail.set("step1_s", result.stats.step1_time.as_secs_f64().into());
    detail.set("step2_s", result.stats.step2_time.as_secs_f64().into());
    detail.set("groups_kept", result.stats.groups_kept.into());
    detail.set("groups_dropped", result.stats.groups_dropped.into());
    detail.set("bdd_peak_live_nodes", job_snap.gauge("bdd.peak_live_nodes").into());
    detail.set("verified", result.verified().into());
    detail.set("warm_start", result.warm_used.into());
    record.set_detail(detail);
    record.finish(if result.failed { JobStatus::Unrepairable } else { JobStatus::Done });

    result.report.set("server_key", spec.key.as_str().into());
    shared.append_report(&result.report);
    shared.tele.add("server.jobs.completed", 1);
    if result.failed {
        shared.tele.add("server.jobs.unrepairable", 1);
    }
    if result.warm_used {
        shared.tele.add("server.jobs.warm_started", 1);
    }

    // The job reached a terminal result: retire its slot, and hand a
    // verified repair's write-through to the async writer. The response
    // path never blocks on disk; a full queue drops the write and counts
    // it.
    if let Some(write) = shared.tiers.settle(spec, &mut result) {
        if shared.store_writes.try_push(write).is_err() {
            shared.tele.add("telemetry.write_errors", 1);
            eprintln!("ftrepair-server: store write queue full; dropping write for {}", spec.key);
        }
    }

    shared.cache.insert(CacheEntry::new(spec.key.clone(), &result.response, result.sim))
}

fn handle_repair(shared: &Shared, req: &Request, ctx: &ReqCtx) -> Reply {
    match cached_repair(shared, req, ctx) {
        Ok((entry, cached)) => Reply::json(200, entry.reply(cached, ctx.trace_id)),
        Err(reply) => reply,
    }
}

fn handle_simulate(shared: &Shared, req: &Request, ctx: &ReqCtx) -> Reply {
    let params = (|| {
        let runs = query_number(req, "runs", 200)?;
        let max_faults = query_number(req, "max-faults", 3)?;
        let seed = query_number(req, "seed", 0xF7_5EED)?;
        Ok::<_, String>((job::sim_config(runs, max_faults)?, seed))
    })();
    let (config, seed) = match params {
        Ok(params) => params,
        Err(message) => return Reply::error(400, &message),
    };

    let (entry, cached) = match cached_repair(shared, req, ctx) {
        Ok(pair) => pair,
        Err(reply) => return reply,
    };
    if entry.failed {
        return Reply::error(422, "no repair exists for this spec; nothing to simulate");
    }
    let bundle = match &entry.sim {
        SimStatus::Ready(bundle) => bundle,
        refusal => return Reply::error(422, &refusal.refusal()),
    };

    let report = {
        let _span = shared.tele.span("server.simulate");
        job::run_simulation(bundle, &config, seed)
    };
    shared.tele.add("server.sim.batches", 1);
    shared.tele.add("server.sim.runs", report.runs as u64);
    shared.tele.add("server.sim.faults_injected", report.faults_injected);

    let mut body = Json::obj();
    body.set("ok", true.into());
    body.set("key", entry.key.as_str().into());
    body.set("cached", cached.into());
    body.set("trace_id", format_trace_id(ctx.trace_id).into());
    body.set("case", entry.case.clone());
    body.set("simulation", job::sim_report_json(&report, seed));
    Reply::json(200, body.to_string())
}
