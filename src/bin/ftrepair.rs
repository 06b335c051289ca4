//! `ftrepair` — command-line front end, in the tradition of FTSyn/SYCRAFT.
//!
//! ```text
//! ftrepair repair   <file.ftr> [repair options] [--store-dir <path>]
//!                              [--checkpoint-dir <path>]
//!                              [--metrics-out <path>] [--trace] [--trace-out <path>]
//! ftrepair simulate <file.ftr> [repair options] [--runs N] [--max-faults K] [--seed S]
//! ftrepair check    <file.ftr>
//! ftrepair info     <file.ftr>
//! ftrepair serve    [--addr host:port] [--workers N] [--queue-cap M]
//!                   [--cache-cap C] [--job-timeout <secs>] [--job-max-nodes <n>]
//!                   [--metrics-out <path>]
//!                   [--store-dir <path>] [--store-budget-mb N] [--no-warm-start]
//!                   [--store-breaker-threshold N] [--store-breaker-backoff <secs>]
//!                   [--journal <path>] [--drain-timeout <secs>]
//! ftrepair store    <ls|verify|gc> --store-dir <path>
//! ftrepair metrics-dump <reports.jsonl>
//! ftrepair prom-lint    [<exposition.txt>|-]
//!
//! repair options: [--cautious] [--pure-lazy] [--iterative-step2]
//!                 [--strict-terminal] [--timeout <secs>] [--max-nodes <n>]
//! ```
//!
//! Every subcommand accepts only the flags listed for it; anything else is
//! a usage error (exit 2).
//!
//! * `repair` adds masking fault-tolerance. Stdout is the repaired program
//!   as guarded commands — the daemon's `program` text; stderr carries the
//!   summary (timings, both verification verdicts, invariant and
//!   fault-span sizes). Every repair goes through one job pipeline and the
//!   daemon's tiers, so the flags combine freely: `--store-dir` serves an
//!   exact hit from disk (no repair runs, no report is appended),
//!   warm-starts a miss from the nearest stored neighbor, and writes
//!   verified results through; `--checkpoint-dir` leaves a resume point
//!   when a run exits 124/125, and the next run of the same spec and
//!   options with that directory continues from it; `--metrics-out`
//!   appends one JSONL run report per computed repair; `--trace` streams
//!   span open/close events to stderr; `--trace-out` writes the span tree
//!   as Chrome `trace_event` JSON (Perfetto, `chrome://tracing`).
//! * `simulate` runs the same pipeline, then replays random
//!   fault-injection batches against the repair, like the daemon's
//!   `POST /simulate`.
//! * `check` validates the input (invariant closure, spec inside the
//!   invariant, realizability as written); `info` summarizes the model.
//! * `serve` runs the repair-as-a-service daemon (README "Serving",
//!   "Persistence", "Robustness", "Crash recovery"): `--store-dir` adds
//!   the durable tier and neighbor warm starts behind a circuit breaker
//!   (`--store-breaker-*`), `--journal` replays accepted jobs after a
//!   crash, and `--drain-timeout` bounds the graceful shutdown.
//! * `store ls|verify|gc` inspect, checksum-verify, and clean a store;
//!   `metrics-dump` renders `--metrics-out` reports as a Prometheus
//!   exposition, and `prom-lint` validates one.
//!
//! Budgets: `--timeout` bounds the wall clock (exit 124, the `timeout(1)`
//! convention; per job `serve --job-timeout`, answered `503`), and
//! `--max-nodes` the BDD arena's live nodes (exit 125 instead of an OOM
//! kill; per job `serve --job-max-nodes`).

use ftrepair::program::{realizability, semantics, DistributedProgram};
use ftrepair::repair::{RepairAborted, RepairOptions, Token};
use ftrepair::server::job::{self, SimStatus, Tiers};
use ftrepair::server::{signal, Server, ServerConfig};
use ftrepair::store::{CheckpointStore, DiskStore};
use ftrepair::telemetry::{trace, Json, Telemetry};
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
fn abort_exit(why: RepairAborted) -> ExitCode {
    match why {
        RepairAborted::ResourceExhausted => ExitCode::from(EXIT_EXHAUSTED),
        _ => ExitCode::from(EXIT_TIMED_OUT),
    }
}

const USAGE: &str =
    "usage: ftrepair <repair|check|info|simulate|serve|store|metrics-dump|prom-lint> [<file>] [options]";

/// A subcommand's flags: each name with its value placeholder, or `None`
/// for a switch.
type Flags = &'static [(&'static str, Option<&'static str>)];

/// The repair options, one parser for `repair` and `simulate` — as the
/// daemon's query parameters serve both `/repair` and `/simulate`.
const JOB_FLAGS: Flags = &[
    ("--cautious", None),
    ("--pure-lazy", None),
    ("--iterative-step2", None),
    ("--strict-terminal", None),
    ("--timeout", Some("<secs>")),
    ("--max-nodes", Some("<n>")),
];

/// Where a `repair` looks for its result, leaves it, and reports on it.
const REPAIR_FLAGS: Flags = &[
    ("--store-dir", Some("<path>")),
    ("--checkpoint-dir", Some("<path>")),
    ("--metrics-out", Some("<path>")),
    ("--trace", None),
    ("--trace-out", Some("<path>")),
];

const SIMULATE_FLAGS: Flags =
    &[("--runs", Some("N")), ("--max-faults", Some("K")), ("--seed", Some("S"))];

const SERVE_FLAGS: Flags = &[
    ("--addr", Some("host:port")),
    ("--workers", Some("N")),
    ("--queue-cap", Some("M")),
    ("--cache-cap", Some("C")),
    ("--job-timeout", Some("<secs>")),
    ("--job-max-nodes", Some("<n>")),
    ("--metrics-out", Some("<path>")),
    ("--store-dir", Some("<path>")),
    ("--store-budget-mb", Some("N")),
    ("--no-warm-start", None),
    ("--store-breaker-threshold", Some("N")),
    ("--store-breaker-backoff", Some("<secs>")),
    ("--journal", Some("<path>")),
    ("--drain-timeout", Some("<secs>")),
];

const STORE_FLAGS: Flags = &[("--store-dir", Some("<path>"))];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    // Each subcommand: its synopsis, how many positional arguments lead
    // its flags, and the flags it reads.
    let (synopsis, positional, tables): (&str, usize, &[Flags]) = match command.as_str() {
        "repair" => ("repair <file.ftr>", 1, &[JOB_FLAGS, REPAIR_FLAGS]),
        "simulate" => ("simulate <file.ftr>", 1, &[JOB_FLAGS, SIMULATE_FLAGS]),
        "check" => ("check <file.ftr>", 1, &[]),
        "info" => ("info <file.ftr>", 1, &[]),
        "serve" => ("serve", 0, &[SERVE_FLAGS]),
        "store" => ("store <ls|verify|gc>", 1, &[STORE_FLAGS]),
        "metrics-dump" => ("metrics-dump <reports.jsonl>", 1, &[]),
        "prom-lint" => ("prom-lint [<file>|-]", 1, &[]),
        _ => {
            eprintln!("unknown command {command}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_flags(synopsis, rest.get(positional..).unwrap_or(&[]), tables) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    match command.as_str() {
        "serve" => return serve(rest),
        "store" => return store_cmd(rest),
        "metrics-dump" => return metrics_dump(rest),
        "prom-lint" => return prom_lint(rest),
        _ => {}
    }

    let Some(path) = rest.first() else {
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
    let flags = &rest[1..];
    if command == "repair" {
        return match run_job(&source, path, flags, false) {
            Ok((response, _)) => {
                if let Some(program) = response.get("program").and_then(Json::as_str) {
                    print!("{program}");
                }
                ExitCode::SUCCESS
            }
            Err(code) => code,
        };
    }
    if command == "simulate" {
        return simulate(&source, path, flags);
    }
    let mut prog = match ftrepair::lang::load(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    if command == "info" {
        info(&mut prog)
    } else {
        check(&mut prog)
    }
}

/// Reject every argument a subcommand does not read, so a typo fails
/// loudly instead of running with defaults. A flag with a value
/// placeholder takes the next argument unless that looks like a flag too;
/// the flag's own parser then reports the missing value.
fn check_flags(synopsis: &str, args: &[String], tables: &[Flags]) -> Result<(), String> {
    let known = || tables.iter().flat_map(|t| t.iter());
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let Some((_, value)) = known().find(|(name, _)| name == arg) else {
            let listed: String = known()
                .map(|(name, value)| match value {
                    Some(v) => format!(" [{name} {v}]"),
                    None => format!(" [{name}]"),
                })
                .collect();
            return Err(format!("unknown flag {arg}\nusage: ftrepair {synopsis}{listed}"));
        };
        if value.is_some() && args.peek().is_some_and(|v| !v.starts_with("--")) {
            args.next();
        }
    }
    Ok(())
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

/// Parse the repair options ([`JOB_FLAGS`]), and the token carrying the
/// run's limits (`--timeout`, armed from now, and `--max-nodes`).
fn job_options(flags: &[String]) -> Result<(job::Mode, RepairOptions, Token), String> {
    let has = |f: &str| flags.iter().any(|a| a == f);
    let mode = if has("--cautious") { job::Mode::Cautious } else { job::Mode::Lazy };
    let opts = RepairOptions {
        restrict_to_reachable: !has("--pure-lazy"),
        step2_closed_form: !has("--iterative-step2"),
        allow_new_terminal_inside: !has("--strict-terminal"),
        ..Default::default()
    };
    let mut token = Token::unbounded().with_node_budget(parsed_flag(flags, "--max-nodes", 0)?);
    if let Some(budget) = duration_flag(flags, "--timeout")? {
        token = token.with_deadline_in(budget);
    }
    Ok((mode, opts, token))
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

fn simulate(source: &str, path: &str, flags: &[String]) -> ExitCode {
    let config = (|| -> Result<_, String> {
        let runs = parsed_flag(flags, "--runs", 200usize)?;
        let max_faults = parsed_flag(flags, "--max-faults", 3usize)?;
        let seed = parsed_flag(flags, "--seed", 0xF7_5EEDu64)?;
        // The bounds name their parameter, which is the flag's name.
        Ok((job::sim_config(runs, max_faults).map_err(|e| format!("--{e}"))?, seed))
    })();
    let (config, seed) = match config {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let sim = match run_job(source, path, flags, true) {
        Ok((_, sim)) => sim,
        Err(code) => return code,
    };
    let Some(bundle) = sim.ready() else {
        eprintln!("{}", sim.refusal());
        return ExitCode::from(1);
    };
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
    for p in &prog.processes {
        println!("process {} ({} transitions)", p.name, prog.cx.count_transitions(p.trans));
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

/// The one CLI job, behind both `repair` and `simulate`: prepare → the
/// daemon's [`Tiers`] (store lookup, then a checkpoint or neighbor seed)
/// → `job::execute` → one classification → settle and write through.
/// Returns the response document and the simulation bundle (built only
/// with `build_sim`), or the exit code.
///
/// `--store-dir`: an exact content-key hit is served from disk without
/// running a repair (and appends no run report); a miss warm-starts from
/// the nearest stored neighbor and writes its verified result through, so
/// a later `serve --store-dir` or `repair --store-dir` finds it.
/// `--checkpoint-dir`: the repair loops snapshot their progress into this
/// key's slot, so a run killed by `--timeout` (exit 124) or `--max-nodes`
/// (exit 125) leaves a resume point; the next run of the same spec and
/// options with that directory seeds from it, and any finished run
/// retires it.
fn run_job(
    source: &str,
    path: &str,
    flags: &[String],
    build_sim: bool,
) -> Result<(Json, SimStatus), ExitCode> {
    let usage = |e: String| {
        eprintln!("{e}");
        ExitCode::from(2)
    };
    let (mode, opts, token) = job_options(flags).map_err(usage)?;
    let path_flag = |name| flag_value(flags, name).map(|v| v.map(PathBuf::from));
    let metrics_out = path_flag("--metrics-out")
        .map_err(|_| usage("--metrics-out requires a path argument".to_string()))?;
    let trace_out = path_flag("--trace-out").map_err(usage)?;
    let store_dir = path_flag("--store-dir").map_err(usage)?;
    let ckpt_dir = path_flag("--checkpoint-dir").map_err(usage)?;
    let trace = flags.iter().any(|a| a == "--trace");

    let spec = job::prepare(source, mode, opts).map_err(|e| {
        eprintln!("{path}: {e}");
        ExitCode::from(1)
    })?;
    let cannot_open = |what: &str, dir: &std::path::Path, e: std::io::Error| {
        usage(format!("cannot open {what} {}: {e}", dir.display()))
    };
    let store = match &store_dir {
        Some(dir) => Some(
            DiskStore::open(dir, 0, &Telemetry::off()).map_err(|e| cannot_open("store", dir, e))?,
        ),
        None => None,
    };
    let ckpts = match &ckpt_dir {
        Some(dir) => {
            Some(CheckpointStore::open(dir).map_err(|e| cannot_open("checkpoint dir", dir, e))?)
        }
        None => None,
    };
    let tiers = Tiers::new(store, ckpts, &ServerConfig::default(), &Telemetry::off());

    // The store tier: an exact hit runs no repair.
    if let (Some(dir), Some((response, sim))) = (&store_dir, tiers.lookup(&spec, build_sim)) {
        eprintln!("served from store {} (key {})", dir.display(), &spec.key[..16]);
        summarize(&spec, &response)?;
        return Ok((response, sim));
    }
    // A miss seeds from this key's checkpoint slot — an interrupted run's
    // own progress — or else from the nearest stored neighbor.
    let warm = tiers.seed(&spec);
    if let Some(iteration) = warm.as_ref().and_then(|w| w.checkpoint) {
        eprintln!("resuming from checkpoint at iteration {iteration}");
    }

    // Telemetry costs nothing when off; turn it on whenever the run is
    // observed (a metrics sink, stderr tracing, or a trace export).
    // `--trace-out` needs the hierarchical span log too.
    let tele = if trace_out.is_some() {
        Telemetry::with_spans(trace)
    } else if metrics_out.is_some() || trace {
        Telemetry::with_trace(trace)
    } else {
        Telemetry::off()
    };
    let token = tiers.arm(token, &spec.key);
    // One trace ID per CLI run, same wire format as the server's
    // `X-Trace-Id`; it names the exported trace tree.
    let trace_id = trace::mint_trace_id();
    let run = {
        // The root span every repair-phase span nests under in the export.
        let mut root = tele.span("job");
        root.field("case", spec.name.as_str().into());
        root.field("mode", spec.mode.as_str().into());
        root.field("trace_id", trace::format_trace_id(trace_id).into());
        job::execute(&spec, &tele, build_sim, &token, warm.as_ref(), tiers.persists())
    };
    // A finished run's slot is stale: retire it before any output below
    // can fail, and keep a verified repair's store write for the end.
    let run = run.map(|mut result| {
        let write = tiers.settle(&spec, &mut result);
        (result, write)
    });

    // A trace is written however the run ended; a run report only when a
    // repair finished (aborts and compile errors have none).
    if let Some(out) = &trace_out {
        let records = tele.take_spans();
        let doc = trace::chrome_trace(&records, trace_id, &spec.name);
        std::fs::write(out, doc.to_string())
            .map_err(|e| usage(format!("cannot write trace to {}: {e}", out.display())))?;
        eprintln!(
            "trace {} ({} spans) written to {} (open in Perfetto or chrome://tracing)",
            trace::format_trace_id(trace_id),
            records.len(),
            out.display(),
        );
    }
    let (result, write) = match run {
        Ok(done) => done,
        Err(e) => {
            eprintln!("{path}: {e}");
            let job::ExecError::Aborted(why) = e else {
                return Err(ExitCode::from(1));
            };
            if let Some(ckpts) = tiers.checkpoints().filter(|c| c.get(&spec.key).is_some()) {
                eprintln!(
                    "checkpoint saved in {}; rerun with the same --checkpoint-dir to resume from it",
                    ckpts.root().display()
                );
            }
            return Err(abort_exit(why));
        }
    };
    if let Some(out) = &metrics_out {
        result
            .report
            .append_to(out)
            .map_err(|e| usage(format!("cannot write metrics to {}: {e}", out.display())))?;
        eprintln!("metrics appended to {}", out.display());
    }
    if let (true, Some(info)) = (result.warm_used, &warm) {
        eprintln!(
            "warm-started from neighbor {} (fingerprint distance {})",
            &info.neighbor[..info.neighbor.len().min(16)],
            info.distance,
        );
    }
    if !result.failed {
        eprintln!(
            "repaired in {:?} (step1 {:?}, step2 {:?}, {} outer iteration(s))",
            result.stats.total_time(),
            result.stats.step1_time,
            result.stats.step2_time,
            result.stats.outer_iterations,
        );
        eprintln!("verified: masking={} realizability={}", result.masking, result.realizable);
    }
    // Write-through, synchronously: the CLI has no writer thread.
    if let Some(entry) = write {
        match tiers.write(&entry) {
            Ok(true) => eprintln!("stored under key {}", &spec.key[..16]),
            Ok(false) => {}
            Err(e) => eprintln!("warning: store write failed: {e}"),
        }
    }
    summarize(&spec, &result.response)?;
    Ok((result.response, result.sim))
}

/// Close a job on stderr from its response document, whichever tier
/// produced it, and classify it: no repair exists (exit 1), a repair the
/// independent verifiers rejected (exit 3), or a response to print.
fn summarize(spec: &job::JobSpec, response: &Json) -> Result<(), ExitCode> {
    if response.get("failed").and_then(Json::as_bool) == Some(true) {
        eprintln!("no masking fault-tolerant repair exists under these inputs");
        return Err(ExitCode::from(1));
    }
    let count = |field| response.get(field).and_then(Json::as_f64).unwrap_or(0.0);
    eprintln!(
        "invariant: {} states, fault-span: {} states",
        count("invariant_states"),
        count("span_states")
    );
    let verified = response.get("verified").and_then(Json::as_bool) == Some(true);
    eprintln!("repaired {} ({} mode), verified: {verified}", spec.name, spec.mode.as_str());
    if !verified {
        eprintln!("INTERNAL ERROR: output failed verification");
        return Err(ExitCode::from(3));
    }
    Ok(())
}
