//! `ftrepair-ledger` — the repository's benchmark: one workload per run,
//! its end-to-end metrics (or, traced, its per-layer metrics) as the last
//! line of standard output.
//!
//! ```text
//! ftrepair-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 --server <path to ftrepair> --out-dir <dir>
//! ```
//!
//! `ledger/run.sh` builds the daemon and this binary and supplies the last
//! two flags; `BENCHMARK.json` names the workloads and metrics, and
//! `ledger/README.md` says what each one measures. The result line is
//! `{"correct", "attempted", "failed", "metrics"}`; any failed check makes
//! `correct` false and the exit code 1. A traced run also writes
//! `<out-dir>/<workload>.trace.json` (Chrome trace format).

mod chain;
mod client;
mod daemon;
mod hot;
mod inproc;
mod paper;
mod report;
mod spec;
mod stats;
mod tiers;

use ftrepair_telemetry::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// One run's settings.
pub struct Config {
    pub seed: u64,
    /// How long the run measures.
    pub window: Duration,
    /// Per-layer run: spans on, per-layer metrics out.
    pub trace: bool,
    /// The `ftrepair` binary the HTTP workloads serve from.
    pub server: PathBuf,
    /// Where traces and scratch directories go.
    pub out_dir: PathBuf,
}

/// One workload's run: its measurements, or why it could not finish.
type Workload = fn(&Config) -> Result<report::Outcome, String>;

const WORKLOADS: [(&str, Workload); 4] = [
    ("paper_tables", paper::run),
    ("chain", chain::run),
    ("http_hot", hot::run),
    ("http_tiers", tiers::run),
];

const USAGE: &str = "usage: ftrepair-ledger --workload <paper_tables|chain|http_hot|http_tiers> \
     --seed <n> --seconds <s> --trace <0|1> --server <ftrepair binary> --out-dir <dir>";

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let flag = |name: &str| -> Result<String, String> {
        let i = args.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        args.get(i + 1).cloned().ok_or(format!("{name} needs a value"))
    };
    let workload = flag("--workload")?;
    let seed = flag("--seed")?.parse().map_err(|_| "--seed: not a whole number")?;
    let seconds: f64 = flag("--seconds")?.parse().map_err(|_| "--seconds: not a number")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match flag("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let config = Config {
        seed,
        window: Duration::from_secs_f64(seconds),
        trace,
        server: flag("--server")?.into(),
        out_dir: flag("--out-dir")?.into(),
    };
    Ok((workload, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ftrepair-ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some((_, run)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        eprintln!("ftrepair-ledger: unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))
        .and_then(|()| run(&cfg));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ftrepair-ledger: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cfg.trace {
        let path = cfg.out_dir.join(format!("{name}.trace.json"));
        let doc = ftrepair_telemetry::trace::chrome_trace(&outcome.spans, cfg.seed.max(1), &name);
        if let Err(e) = std::fs::write(&path, doc.to_string()) {
            eprintln!("ftrepair-ledger: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("ftrepair-ledger: {} spans written to {}", outcome.spans.len(), path.display());
    }
    let correct = outcome.failed == 0;
    let mut result = Json::obj();
    result.set("correct", correct.into());
    result.set("attempted", outcome.attempted.into());
    result.set("failed", outcome.failed.into());
    result.set("metrics", outcome.metrics(cfg.trace));
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set size (`VmHWM`, KiB) of `/proc/<pid>` — `"self"` for
/// this process.
pub fn vm_hwm_kb(pid: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// A scratch directory under the output directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(cfg: &Config, name: &str) -> Result<TempDir, String> {
        let path = cfg.out_dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics a
    /// run prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside ledger/");
        let bench = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let o = report::Outcome::default();
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let printed: Vec<(String, String)> = o
                .metrics(traced)
                .as_obj()
                .unwrap()
                .iter()
                .map(|(n, m)| (n.clone(), m.get("unit").unwrap().as_str().unwrap().to_string()))
                .collect();
            assert_eq!(listed(key), printed, "{key}");
        }
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|(n, _)| n));
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = "--workload chain --seed 7 --seconds 2.5 --trace 1 --server s --out-dir o";
        let (name, cfg) = parse_args(&args(ok)).unwrap();
        assert_eq!((name.as_str(), cfg.seed, cfg.trace), ("chain", 7, true));
        assert_eq!(cfg.window, Duration::from_millis(2500));
        assert!(parse_args(&args(&ok.replace("--trace 1", "--trace 2"))).is_err());
        assert!(parse_args(&args(&ok.replace("2.5", "0"))).is_err());
        assert!(parse_args(&args("--workload chain")).is_err());
    }

    #[test]
    fn vm_hwm_reads_this_process() {
        assert!(vm_hwm_kb("self").unwrap() > 0);
    }
}
