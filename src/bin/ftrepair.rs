//! `ftrepair` — command-line front end, in the tradition of FTSyn/SYCRAFT.
//!
//! ```text
//! ftrepair repair   <file.ftr> [--cautious] [--pure-lazy] [--iterative-step2]
//!                              [--parallel] [--strict-terminal] [--timeout <secs>]
//!                              [--max-nodes <n>] [--reorder none|sift|auto]
//!                              [--store-dir <path>] [--metrics-out <path>]
//!                              [--checkpoint-dir <path>] [--resume]
//!                              [--trace] [--trace-out <path>]
//! ftrepair check    <file.ftr>
//! ftrepair info     <file.ftr>
//! ftrepair simulate <file.ftr> [--cautious] [--runs N] [--max-faults K] [--seed S]
//!                              [--timeout <secs>] [--max-nodes <n>]
//!                              [--reorder none|sift|auto]
//! ftrepair serve    [--addr host:port] [--workers N] [--queue-cap M]
//!                   [--cache-cap C] [--job-timeout <secs>] [--job-max-nodes <n>]
//!                   [--metrics-out <path>] [--reorder none|sift|auto]
//!                   [--store-dir <path>] [--store-budget-mb N] [--no-warm-start]
//!                   [--store-breaker-threshold N] [--store-breaker-backoff <secs>]
//!                   [--journal <path>] [--drain-timeout <secs>]
//! ftrepair store    <ls|verify|gc> --store-dir <path>
//! ftrepair metrics-dump <reports.jsonl>
//! ftrepair prom-lint    [<exposition.txt>|-]
//! ```
//!
//! `repair` adds masking fault-tolerance and prints the repaired program as
//! guarded commands; `check` validates the input (invariant closure, spec
//! inside the invariant, realizability as written); `info` summarizes the
//! model; `simulate` repairs, then replays random fault-injection batches
//! against the repaired program (the same code path as the daemon's
//! `POST /simulate`); `serve` runs the repair-as-a-service daemon (see the
//! README "Serving" section). `--metrics-out` appends one JSONL run report
//! (phase timings, telemetry counters/gauges, per-iteration BDD sizes,
//! op-cache hit rates, latency histograms) per repair; `--trace` streams
//! span open/close events to stderr; `--trace-out` writes the run's full
//! hierarchical span tree — outer iterations, Step 1/Step 2, fixpoint
//! iterations, with structured fields — as Chrome `trace_event` JSON,
//! viewable in Perfetto or `chrome://tracing`. `metrics-dump` merges a
//! `--metrics-out` JSONL file into one snapshot and prints it in the
//! Prometheus text exposition format; `prom-lint` validates such an
//! exposition (from a file or stdin) and exits non-zero on violations.
//! `--timeout` bounds the repair's wall clock — a run that
//! exhausts it stops at the next cancellation checkpoint and exits 124
//! (the `timeout(1)` convention); `serve --job-timeout` is the same budget
//! applied per job (default 30s, `503 {"error":"timeout"}`). `--max-nodes`
//! is the memory analogue: it bounds the BDD arena's live-node count, and
//! a run that a garbage collection cannot bring back under it exits 125
//! (`serve --job-max-nodes` per job, `503 {"error":"node budget
//! exhausted"}`) instead of being OOM-killed. `--reorder`
//! picks the BDD dynamic variable-reordering policy (default `auto`; see
//! the README's "Performance" section); for `serve` it sets the default a
//! job's `reorder` query parameter can override. `--store-dir` enables the
//! persistent result store (see the README "Persistence" section): `serve`
//! gains a durable tier under its memory cache plus warm-started repairs
//! from near-key neighbors; `repair --store-dir` serves exact hits from
//! disk and writes new repairs through; `store ls|verify|gc` inspect,
//! checksum-verify, and clean a store directory. The daemon's store sits
//! behind a circuit breaker: `--store-breaker-threshold` (default 3)
//! consecutive I/O failures trip it into memory-only degraded mode, and
//! half-open probes (full-jitter backoff from `--store-breaker-backoff`
//! seconds, default 0.5) re-enable it when the volume heals (see the
//! README "Robustness" section). `serve --journal` adds a durable job
//! journal: every accepted repair is recorded before it executes, so a
//! `kill -9` mid-repair loses no work — the next boot on the same journal
//! replays whatever is incomplete (seeded from mid-repair checkpoint
//! slots). `serve --drain-timeout` bounds the graceful shutdown: jobs
//! still queued at the deadline are answered `503` instead of having
//! their sockets dropped. `repair --checkpoint-dir` is the same
//! checkpoint machinery offline: a run that exits 124/125 leaves a
//! resume point behind, and rerunning with `--resume` continues from it
//! instead of starting cold.

use ftrepair::program::decompile::render_process;
use ftrepair::program::{realizability, semantics, DistributedProgram};
use ftrepair::repair::verify::verify_outcome;
use ftrepair::repair::{
    build_run_report, cautious_repair_traced, lazy_repair_traced, LazyOutcome, ReorderMode,
    RepairOptions,
};
use ftrepair::server::{job, signal, Server, ServerConfig};
use ftrepair::telemetry::Telemetry;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Exit code for a repair that exhausted `--timeout`, following the
/// convention of coreutils `timeout(1)`.
const EXIT_TIMED_OUT: u8 = 124;

/// Exit code for a repair that exhausted `--max-nodes` — the memory
/// analogue of 124, one past it and safely below the shell's reserved
/// 126/127. The process exits cleanly where an unbounded run would have
/// been OOM-killed (137).
const EXIT_EXHAUSTED: u8 = 125;

/// Map an abort reason to its exit code (124 deadline, 125 node budget).
fn abort_exit(why: ftrepair::repair::RepairAborted) -> ExitCode {
    match why {
        ftrepair::repair::RepairAborted::ResourceExhausted => ExitCode::from(EXIT_EXHAUSTED),
        _ => ExitCode::from(EXIT_TIMED_OUT),
    }
}

const USAGE: &str =
    "usage: ftrepair <repair|check|info|simulate|serve|store|metrics-dump|prom-lint> [<file>] [options]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command == "serve" {
        return serve(&args[1..]);
    }
    if command == "metrics-dump" {
        return metrics_dump(&args[1..]);
    }
    if command == "prom-lint" {
        return prom_lint(&args[1..]);
    }
    if command == "store" {
        return store_cmd(&args[1..]);
    }
    if !matches!(command.as_str(), "info" | "check" | "repair" | "simulate") {
        eprintln!("unknown command {command}");
        return ExitCode::from(2);
    }
    let Some(path) = args.get(1) else {
        eprintln!("missing input file");
        return ExitCode::from(2);
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if command == "simulate" {
        return simulate(&source, path, &args[2..]);
    }
    // `repair --store-dir` / `--checkpoint-dir` go through the store-aware
    // job pipeline, which needs the raw source for content addressing —
    // branch before `load`.
    // (`--resume` goes there too so its missing-`--checkpoint-dir` case
    // gets the proper usage error instead of being silently ignored.)
    if command == "repair"
        && args[2..]
            .iter()
            .any(|a| a == "--store-dir" || a == "--checkpoint-dir" || a == "--resume")
    {
        return repair_stored(&source, path, &args[2..]);
    }
    let mut prog = match ftrepair::lang::load(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };

    match command.as_str() {
        "info" => info(&mut prog),
        "check" => check(&mut prog),
        "repair" => repair(&mut prog, &args[2..]),
        _ => unreachable!("command validated above"),
    }
}

fn flag_value<'a>(flags: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match flags.iter().position(|a| a == name) {
        Some(i) => match flags.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(format!("{name} requires an argument")),
        },
        None => Ok(None),
    }
}

fn parsed_flag<T: std::str::FromStr>(
    flags: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(flags, name)? {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        None => Ok(default),
    }
}

/// Parse `--reorder none|sift|auto`; the engine default (`auto`) when the
/// flag is absent.
fn reorder_flag(flags: &[String]) -> Result<ReorderMode, String> {
    match flag_value(flags, "--reorder")? {
        Some(v) => ReorderMode::parse(v)
            .ok_or_else(|| format!("--reorder: unknown mode {v:?} (use none, sift or auto)")),
        None => Ok(ReorderMode::default()),
    }
}

/// Parse `name` as non-negative seconds (fractional allowed); `None` when
/// the flag is absent.
fn duration_flag(flags: &[String], name: &str) -> Result<Option<Duration>, String> {
    match flag_value(flags, name)? {
        Some(v) => match v.parse::<f64>() {
            Ok(secs) if secs.is_finite() && secs >= 0.0 => Ok(Some(Duration::from_secs_f64(secs))),
            _ => Err(format!("{name}: cannot parse {v:?} (non-negative seconds)")),
        },
        None => Ok(None),
    }
}

fn serve(flags: &[String]) -> ExitCode {
    let config = (|| -> Result<ServerConfig, String> {
        let defaults = ServerConfig::default();
        Ok(ServerConfig {
            addr: flag_value(flags, "--addr")?.unwrap_or(&defaults.addr).to_string(),
            workers: parsed_flag(flags, "--workers", defaults.workers)?,
            queue_cap: parsed_flag(flags, "--queue-cap", defaults.queue_cap)?,
            cache_cap: parsed_flag(flags, "--cache-cap", defaults.cache_cap)?,
            metrics_out: flag_value(flags, "--metrics-out")?.map(PathBuf::from),
            job_timeout: duration_flag(flags, "--job-timeout")?.unwrap_or(defaults.job_timeout),
            reorder: reorder_flag(flags)?,
            store_dir: flag_value(flags, "--store-dir")?.map(PathBuf::from),
            store_budget: parsed_flag(flags, "--store-budget-mb", 0u64)? * (1 << 20),
            warm_start: !flags.iter().any(|a| a == "--no-warm-start"),
            job_max_nodes: parsed_flag(flags, "--job-max-nodes", defaults.job_max_nodes)?,
            breaker_threshold: parsed_flag(
                flags,
                "--store-breaker-threshold",
                defaults.breaker_threshold,
            )?,
            breaker_backoff: duration_flag(flags, "--store-breaker-backoff")?
                .unwrap_or(defaults.breaker_backoff),
            journal: flag_value(flags, "--journal")?.map(PathBuf::from),
            drain_timeout: duration_flag(flags, "--drain-timeout")?
                .unwrap_or(defaults.drain_timeout),
            ..defaults
        })
    })();
    let config = match config {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    signal::install();
    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", config.addr);
            return ExitCode::from(2);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // Parseable by scripts and tests (especially with port 0).
            println!("listening on {addr}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("cannot resolve bound address: {e}");
            return ExitCode::from(2);
        }
    }
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        return ExitCode::from(1);
    }
    eprintln!("ftrepair-server: drained and stopped");
    ExitCode::SUCCESS
}

/// `metrics-dump <reports.jsonl>` — merge every run report in a JSONL file
/// into one metrics snapshot and print it as Prometheus text exposition.
/// Bridges offline `--metrics-out` files into the same format the daemon
/// serves at `/metrics?format=prometheus`.
fn metrics_dump(args: &[String]) -> ExitCode {
    use ftrepair::telemetry::report::{parse_jsonl, snapshot_from_json};
    let Some(path) = args.first() else {
        eprintln!("usage: ftrepair metrics-dump <reports.jsonl>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let lines = match parse_jsonl(&text) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    let mut snap = ftrepair::telemetry::MetricsSnapshot::default();
    for line in &lines {
        snap.merge(&snapshot_from_json(line));
    }
    print!("{}", ftrepair::telemetry::prometheus::render(&snap));
    eprintln!("merged {} report line(s) from {path}", lines.len());
    ExitCode::SUCCESS
}

/// `prom-lint [<file>|-]` — validate a Prometheus text exposition (`-` or
/// no argument reads stdin). Exits 1 listing every violation; this is what
/// CI runs against the live `/metrics?format=prometheus` scrape.
fn prom_lint(args: &[String]) -> ExitCode {
    let (name, text) = match args.first().map(String::as_str) {
        None | Some("-") => {
            let mut buf = String::new();
            use std::io::Read;
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("cannot read stdin: {e}");
                return ExitCode::from(2);
            }
            ("<stdin>".to_string(), buf)
        }
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => (path.to_string(), t),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let violations = ftrepair::telemetry::prometheus::lint(&text);
    if violations.is_empty() {
        eprintln!("prom-lint: {name}: ok");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("prom-lint: {name}: {v}");
        }
        ExitCode::from(1)
    }
}

/// `repair --store-dir <path>`: the CLI end of the persistent tier. An
/// exact content-key hit replays the stored response without recomputing;
/// a miss repairs (warm-started from the nearest stored neighbor when one
/// is close enough) and writes the verified result through synchronously,
/// so a later `serve --store-dir` or `repair --store-dir` run finds it.
///
/// `--checkpoint-dir <path>` is the offline end of the daemon's mid-repair
/// checkpointing: the repair loops snapshot their progress into a per-key
/// slot, so a run killed by `--timeout` (exit 124) or `--max-nodes` (exit
/// 125) leaves a resume point behind. Rerunning with `--resume` seeds the
/// repair from that slot instead of starting cold; a verified success
/// retires the slot.
fn repair_stored(source: &str, path: &str, flags: &[String]) -> ExitCode {
    use ftrepair::repair::{CheckpointPolicy, Checkpointer, Token};
    use ftrepair::store::{
        find_artifact, CheckpointStore, DiskStore, NewEntry, ART_INVARIANT, ART_MS, ART_SPAN,
    };
    use std::sync::Arc;

    let has = |f: &str| flags.iter().any(|a| a == f);
    type Params = (Option<PathBuf>, Option<PathBuf>, Option<Duration>, usize, ReorderMode);
    let params = (|| -> Result<Params, String> {
        Ok((
            flag_value(flags, "--store-dir")?.map(PathBuf::from),
            flag_value(flags, "--checkpoint-dir")?.map(PathBuf::from),
            duration_flag(flags, "--timeout")?,
            parsed_flag(flags, "--max-nodes", 0usize)?,
            reorder_flag(flags)?,
        ))
    })();
    let (store_dir, ckpt_dir, deadline, max_nodes, reorder) = match params {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if has("--resume") && ckpt_dir.is_none() {
        eprintln!("--resume requires --checkpoint-dir");
        return ExitCode::from(2);
    }
    let mode = if has("--cautious") { job::Mode::Cautious } else { job::Mode::Lazy };
    let opts = RepairOptions {
        restrict_to_reachable: !has("--pure-lazy"),
        step2_closed_form: !has("--iterative-step2"),
        parallel_step2: has("--parallel"),
        allow_new_terminal_inside: !has("--strict-terminal"),
        deadline,
        max_nodes,
        reorder,
        ..Default::default()
    };

    let spec = match job::prepare(source, mode, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    let store = match &store_dir {
        Some(dir) => match DiskStore::open(dir, 0, &Telemetry::off()) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("cannot open store {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let ckpts = match &ckpt_dir {
        Some(dir) => match CheckpointStore::open(dir) {
            Ok(c) => Some(Arc::new(c)),
            Err(e) => {
                eprintln!("cannot open checkpoint dir {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let print_response = |response: &ftrepair::telemetry::Json| {
        if let Some(program) = response.get("program").and_then(|j| j.as_str()) {
            print!("{program}");
        }
    };

    if let (Some(store), Some(dir)) = (&store, &store_dir) {
        if let Some(stored) = store.get(&spec.key) {
            eprintln!("served from store {} (key {})", dir.display(), &spec.key[..16]);
            if stored.response.get("failed").and_then(|j| j.as_bool()) == Some(true) {
                // Never stored by this code (failures are not persisted), but a
                // foreign entry could say so; honor it rather than lie.
                eprintln!("no masking fault-tolerant repair exists under these inputs");
                return ExitCode::from(1);
            }
            print_response(&stored.response);
            return ExitCode::SUCCESS;
        }
    }

    // `--resume`: this exact key's checkpoint slot beats any neighbor — it
    // is the interrupted run's own progress, distance zero by definition.
    let mut warm: Option<job::WarmInfo> = None;
    if has("--resume") && mode == job::Mode::Lazy {
        if let Some(ckpts) = &ckpts {
            warm = ckpts.get(&spec.key).and_then(|slot| {
                let invariant = find_artifact(&slot.artifacts, ART_INVARIANT)?.clone();
                let span = find_artifact(&slot.artifacts, ART_SPAN)?.clone();
                eprintln!("resuming from checkpoint at iteration {}", slot.iteration);
                Some(job::WarmInfo {
                    neighbor: format!("checkpoint@{}", slot.iteration),
                    distance: 0,
                    invariant,
                    span,
                })
            });
            if warm.is_none() {
                eprintln!("no checkpoint for this spec; starting cold");
            }
        }
    }
    // Miss: look for a warm-start donor before computing from scratch.
    if warm.is_none() && mode == job::Mode::Lazy {
        if let Some(store) = &store {
            warm = store.nearest(&spec.fingerprint(), 16).and_then(|(neighbor, distance)| {
                let donor = store.peek(&neighbor)?;
                let mut invariant = None;
                let mut span = None;
                for (name, bdd) in donor.artifacts {
                    match name.as_str() {
                        ART_INVARIANT => invariant = Some(bdd),
                        ART_SPAN => span = Some(bdd),
                        _ => {}
                    }
                }
                Some(job::WarmInfo { neighbor, distance, invariant: invariant?, span: span? })
            });
        }
    }

    let tele = Telemetry::new();
    let mut token = Token::from_options(&spec.opts);
    if let Some(ckpts) = &ckpts {
        // Same sink the daemon installs: policy-approved offers (and the
        // forced final offer when an abort is imminent) land the loop's
        // current (invariant, span, ms) in this key's slot, crash-safely.
        let ckpts = Arc::clone(ckpts);
        let key = spec.key.clone();
        token = token.with_checkpointer(Arc::new(Checkpointer::new(
            CheckpointPolicy::default(),
            move |img| {
                let arts = [
                    (ART_INVARIANT.to_string(), img.invariant.clone()),
                    (ART_SPAN.to_string(), img.span.clone()),
                    (ART_MS.to_string(), img.ms.clone()),
                ];
                if let Err(e) = ckpts.put(&key, img.iteration, &arts) {
                    eprintln!("warning: checkpoint write failed: {e}");
                }
            },
        )));
    }
    let result = match job::execute_store(&spec, &tele, false, &token, warm.as_ref(), true) {
        Ok(r) => r,
        Err(job::ExecError::Aborted(why)) => {
            eprintln!("{path}: {why}");
            if let (Some(ckpts), Some(dir)) = (&ckpts, &ckpt_dir) {
                if ckpts.get(&spec.key).is_some() {
                    eprintln!(
                        "checkpoint saved in {}; rerun with --resume to continue from it",
                        dir.display()
                    );
                }
            }
            return abort_exit(why);
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    if result.warm_used {
        if let Some(info) = &warm {
            eprintln!(
                "warm-started from neighbor {} (fingerprint distance {})",
                &info.neighbor[..info.neighbor.len().min(16)],
                info.distance,
            );
        }
    }
    if result.failed {
        eprintln!("no masking fault-tolerant repair exists under these inputs");
        return ExitCode::from(1);
    }
    eprintln!("repaired {} ({} mode), verified: {}", spec.name, mode.as_str(), result.verified);

    // The run is complete: its resume point is stale, retire it.
    if let Some(ckpts) = &ckpts {
        let _ = ckpts.clear(&spec.key);
    }

    // Synchronous write-through (the CLI has no async writer to hand off
    // to); only verified repairs carry artifacts.
    if let (Some(store), Some(artifacts)) = (&store, result.artifacts) {
        let entry = NewEntry {
            key: spec.key.clone(),
            case: spec.name.clone(),
            mode: mode.as_str().to_string(),
            warm_start: result.warm_used,
            fingerprint: spec.fingerprint(),
            response: result.response.clone(),
            artifacts,
        };
        match store.put(&entry) {
            Ok(true) => eprintln!("stored under key {}", &spec.key[..16]),
            Ok(false) => {}
            Err(e) => eprintln!("warning: store write failed: {e}"),
        }
    }
    print_response(&result.response);
    if result.verified {
        ExitCode::SUCCESS
    } else {
        eprintln!("INTERNAL ERROR: output failed verification");
        ExitCode::from(3)
    }
}

/// `store <ls|verify|gc> --store-dir <path>` — offline store maintenance.
fn store_cmd(args: &[String]) -> ExitCode {
    use ftrepair::store::DiskStore;

    const STORE_USAGE: &str = "usage: ftrepair store <ls|verify|gc> --store-dir <path>";
    let Some(action) = args.first().map(String::as_str) else {
        eprintln!("{STORE_USAGE}");
        return ExitCode::from(2);
    };
    if !matches!(action, "ls" | "verify" | "gc") {
        eprintln!("unknown store action {action}\n{STORE_USAGE}");
        return ExitCode::from(2);
    }
    let dir = match flag_value(&args[1..], "--store-dir") {
        Ok(Some(d)) => PathBuf::from(d),
        Ok(None) => {
            eprintln!("--store-dir is required\n{STORE_USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let store = match DiskStore::open(&dir, 0, &Telemetry::off()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open store {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };

    match action {
        "ls" => {
            let entries = store.ls();
            println!(
                "{:<20} {:<16} {:<8} {:>5} {:>12} {:>12}",
                "KEY", "CASE", "MODE", "WARM", "BYTES", "AGE_S"
            );
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            for e in &entries {
                println!(
                    "{:<20} {:<16} {:<8} {:>5} {:>12} {:>12}",
                    &e.key[..e.key.len().min(20)],
                    e.case,
                    e.mode,
                    e.warm_start,
                    e.bytes,
                    now.saturating_sub(e.created_unix),
                );
            }
            eprintln!("{} entries, {} bytes in {}", entries.len(), store.bytes(), dir.display());
            ExitCode::SUCCESS
        }
        "verify" => {
            let (ok, corrupt) = store.verify();
            for key in &corrupt {
                eprintln!("CORRUPT (quarantined): {key}");
            }
            eprintln!("{ok} entries verified, {} corrupt", corrupt.len());
            if corrupt.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        _ => match store.gc() {
            Ok(freed) => {
                eprintln!("freed {freed} bytes of quarantined/stale data from {}", dir.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gc failed: {e}");
                ExitCode::from(1)
            }
        },
    }
}

struct SimFlags {
    runs: usize,
    max_faults: usize,
    seed: u64,
    deadline: Option<Duration>,
    max_nodes: usize,
    reorder: ReorderMode,
}

fn simulate(source: &str, path: &str, flags: &[String]) -> ExitCode {
    let has = |f: &str| flags.iter().any(|a| a == f);
    let params = (|| -> Result<SimFlags, String> {
        Ok(SimFlags {
            runs: parsed_flag(flags, "--runs", 200usize)?,
            max_faults: parsed_flag(flags, "--max-faults", 3usize)?,
            seed: parsed_flag(flags, "--seed", 0xF7_5EEDu64)?,
            deadline: duration_flag(flags, "--timeout")?,
            max_nodes: parsed_flag(flags, "--max-nodes", 0usize)?,
            reorder: reorder_flag(flags)?,
        })
    })();
    let SimFlags { runs, max_faults, seed, deadline, max_nodes, reorder } = match params {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mode = if has("--cautious") { job::Mode::Cautious } else { job::Mode::Lazy };
    let opts = RepairOptions { deadline, max_nodes, reorder, ..Default::default() };

    let spec = match job::prepare(source, mode, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    let result = match job::execute(&spec, &Telemetry::off(), true) {
        Ok(r) => r,
        Err(job::ExecError::Aborted(why)) => {
            eprintln!("{path}: {why}");
            return abort_exit(why);
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    if result.failed {
        eprintln!("no masking fault-tolerant repair exists under these inputs");
        return ExitCode::from(1);
    }
    eprintln!("repaired {} ({} mode), verified: {}", spec.name, mode.as_str(), result.verified);
    let Some(bundle) = result.sim.ready() else {
        eprintln!("{}", result.sim.refusal());
        return ExitCode::from(1);
    };

    let config = ftrepair::explicit::simulate::SimConfig { runs, max_faults, ..Default::default() };
    let report = job::run_simulation(bundle, &config, seed);
    println!("{}", job::sim_report_json(&report, seed));
    if report.ok() {
        eprintln!(
            "simulation ok: {} runs, {} steps, {} faults injected",
            report.runs, report.steps, report.faults_injected
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("simulation FAILED: {:?}", report.failure);
        ExitCode::from(1)
    }
}

fn info(prog: &mut DistributedProgram) -> ExitCode {
    println!("program {}", prog.name);
    println!("variables:");
    for v in prog.cx.var_ids() {
        let i = prog.cx.info(v);
        println!("  {} : 0..{}", i.name, i.size - 1);
    }
    let universe = prog.cx.state_universe();
    println!("state space: {} states", prog.cx.count_states(universe));
    println!("invariant:   {} states", prog.cx.count_states(prog.invariant));
    println!("fault transitions: {}", prog.cx.count_transitions(prog.faults));
    for (j, p) in prog.processes.clone().iter().enumerate() {
        let n = prog.cx.count_transitions(p.trans);
        println!("process {} ({} transitions)", p.name, n);
        let _ = j;
    }
    ExitCode::SUCCESS
}

fn check(prog: &mut DistributedProgram) -> ExitCode {
    let mut ok = true;
    let t = prog.program_trans();
    let inv = prog.invariant;

    let closed = semantics::is_closed(&mut prog.cx, inv, t);
    println!("invariant closed under program transitions: {closed}");
    ok &= closed;

    let bad_inside = !prog.cx.mgr().disjoint(inv, prog.safety.bad_states);
    println!("bad states inside the invariant: {bad_inside}");
    ok &= !bad_inside;

    let inside = semantics::project(&mut prog.cx, t, inv);
    let bt_inside = !prog.cx.mgr().disjoint(inside, prog.safety.bad_trans);
    println!("bad transitions executable inside the invariant: {bt_inside}");
    ok &= !bt_inside;

    let realizable = realizability::program_realizable(prog);
    println!("program as written is realizable: {realizable}");
    ok &= realizable;

    let liveness = prog.liveness.clone();
    if !liveness.leads_to.is_empty() {
        let results = ftrepair::program::verify::check_liveness(&mut prog.cx, inv, t, &liveness);
        for (i, holds) in results.iter().enumerate() {
            println!("leadsto property {} holds inside the invariant: {holds}", i + 1);
            ok &= holds;
        }
    }

    if ok {
        println!("check passed");
        ExitCode::SUCCESS
    } else {
        println!("check FAILED");
        ExitCode::from(1)
    }
}

fn repair(prog: &mut DistributedProgram, flags: &[String]) -> ExitCode {
    let has = |f: &str| flags.iter().any(|a| a == f);
    let metrics_out: Option<PathBuf> = match flags.iter().position(|a| a == "--metrics-out") {
        Some(i) => match flags.get(i + 1) {
            Some(p) if !p.starts_with("--") => Some(PathBuf::from(p)),
            _ => {
                eprintln!("--metrics-out requires a path argument");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let deadline = match duration_flag(flags, "--timeout") {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let max_nodes = match parsed_flag(flags, "--max-nodes", 0usize) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let reorder = match reorder_flag(flags) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let trace_out: Option<PathBuf> = match flag_value(flags, "--trace-out") {
        Ok(v) => v.map(PathBuf::from),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let opts = RepairOptions {
        restrict_to_reachable: !has("--pure-lazy"),
        step2_closed_form: !has("--iterative-step2"),
        parallel_step2: has("--parallel"),
        allow_new_terminal_inside: !has("--strict-terminal"),
        deadline,
        max_nodes,
        reorder,
        ..Default::default()
    };
    // Telemetry costs nothing when off; turn it on whenever the run is
    // observed (a metrics sink, stderr tracing, or a trace export was
    // requested). `--trace-out` needs the hierarchical span log too.
    let trace = has("--trace");
    let tele = if trace_out.is_some() {
        Telemetry::with_spans(trace)
    } else if metrics_out.is_some() || trace {
        Telemetry::with_trace(trace)
    } else {
        Telemetry::off()
    };

    let mode = if has("--cautious") { "cautious" } else { "lazy" };
    // One trace ID per CLI run, same wire format as the server's
    // `X-Trace-Id`; it names the exported trace tree.
    let trace_id = ftrepair::telemetry::trace::mint_trace_id();
    let outcome = {
        // The root span every repair-phase span nests under in the export.
        let mut root = tele.span("job");
        root.field("case", prog.name.as_str().into());
        root.field("mode", mode.into());
        root.field("trace_id", ftrepair::telemetry::trace::format_trace_id(trace_id).into());
        if has("--cautious") {
            cautious_repair_traced(prog, &opts, &tele).map(|c| LazyOutcome {
                processes: c.processes,
                invariant: c.invariant,
                span: c.span,
                trans: c.trans,
                failed: c.failed,
                stats: c.stats,
            })
        } else {
            lazy_repair_traced(prog, &opts, &tele)
        }
    };
    let emit_trace = |tele: &Telemetry, case: &str| -> ExitCode {
        if let Some(path) = &trace_out {
            let records = tele.take_spans();
            let doc = ftrepair::telemetry::trace::chrome_trace(&records, trace_id, case);
            if let Err(e) = std::fs::write(path, doc.to_string()) {
                eprintln!("cannot write trace to {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!(
                "trace {} ({} spans) written to {} (open in Perfetto or chrome://tracing)",
                ftrepair::telemetry::trace::format_trace_id(trace_id),
                records.len(),
                path.display(),
            );
        }
        ExitCode::SUCCESS
    };
    let out: LazyOutcome = match outcome {
        Ok(o) => o,
        Err(aborted) => {
            eprintln!("{aborted}");
            emit_trace(&tele, &prog.name);
            return abort_exit(aborted);
        }
    };

    // Report before verification, so the verifier's BDD traffic does not
    // pollute the run's cache hit rates.
    let mut report =
        build_run_report(&prog.name, mode, &opts, &out.stats, out.failed, &tele, &prog.cx);
    let emit_report = |report: &ftrepair::telemetry::RunReport| -> ExitCode {
        if let Some(path) = &metrics_out {
            if let Err(e) = report.append_to(path) {
                eprintln!("cannot write metrics to {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!("metrics appended to {}", path.display());
        }
        ExitCode::SUCCESS
    };

    if out.failed {
        eprintln!("no masking fault-tolerant repair exists under these inputs");
        emit_report(&report);
        emit_trace(&tele, &prog.name);
        return ExitCode::from(1);
    }

    let (m, r) = verify_outcome(prog, &out);
    report.set("verified", (m.ok() && r.ok()).into());
    if emit_report(&report) != ExitCode::SUCCESS {
        return ExitCode::from(2);
    }
    if emit_trace(&tele, &prog.name) != ExitCode::SUCCESS {
        return ExitCode::from(2);
    }
    eprintln!(
        "repaired in {:?} (step1 {:?}, step2 {:?}, {} outer iteration(s))",
        out.stats.total_time(),
        out.stats.step1_time,
        out.stats.step2_time,
        out.stats.outer_iterations,
    );
    eprintln!("verified: masking={} realizability={}", m.ok(), r.ok());
    if !(m.ok() && r.ok()) {
        eprintln!("INTERNAL ERROR: output failed verification: {m:?} {r:?}");
        return ExitCode::from(3);
    }

    println!("// repaired program {}", prog.name);
    println!(
        "// invariant: {} states, fault-span: {} states",
        prog.cx.count_states(out.invariant),
        prog.cx.count_states(out.span),
    );
    println!("// (behavior outside the fault-span is unreachable and omitted)\n");
    for (j, p) in out.processes.iter().enumerate() {
        // Restrict to transitions whose source lies in the fault-span: the
        // realizability construction pads groups with transitions from
        // unreachable states, which would only confuse the reader.
        let reachable_part = prog.cx.mgr().and(p.trans, out.span);
        let shown = ftrepair::program::Process {
            name: p.name.clone(),
            read: p.read.clone(),
            write: p.write.clone(),
            trans: reachable_part,
        };
        println!("{}", render_process(prog, &shown, j));
    }
    ExitCode::SUCCESS
}
