//! Every workload, run through the built binary for the shortest window
//! (one round or cycle), untraced and traced: the run must pass its own
//! checks and print exactly the metrics `BENCHMARK.json` names, with their
//! units. The HTTP workloads need the `ftrepair` daemon built into the same
//! target directory, which `ledger/run.sh` does:
//!
//! ```text
//! cargo build --release --bin ftrepair
//! cargo test --release --manifest-path ledger/Cargo.toml
//! ```
//!
//! (with the same `CARGO_TARGET_DIR` for both, if one is set).

use ftrepair_telemetry::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const LEDGER: &str = env!("CARGO_BIN_EXE_ftrepair-ledger");

fn server() -> PathBuf {
    let path = Path::new(LEDGER).with_file_name("ftrepair");
    assert!(
        path.exists(),
        "{} is missing: build the daemon into this target directory first \
         (cargo build --release --bin ftrepair)",
        path.display()
    );
    path
}

fn run(workload: &str, trace: bool, server: &Path) -> Output {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    Command::new(LEDGER)
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.001"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--server")
        .arg(server)
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("ledger binary runs")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let field = |m: &Json, f| m.get(f).and_then(Json::as_str).unwrap().to_string();
    bench
        .get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Run `workload` both ways and check each result line; returns the traced
/// run's metrics.
fn check(workload: &str, server: &Path) -> Json {
    let mut traced = Json::Null;
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = run(workload, trace, server);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{workload} trace={trace}: {}\n{stderr}", out.status);
        let stdout = String::from_utf8(out.stdout).unwrap();
        let result = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{stderr}");
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let metrics = result.get("metrics").unwrap();
        let printed: Vec<(String, String)> = metrics
            .as_obj()
            .unwrap()
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert!(trace || value > 0.0, "{workload}: end-to-end {name} is 0");
                (name.clone(), m.get("unit").and_then(Json::as_str).unwrap().to_string())
            })
            .collect();
        assert_eq!(printed, listed(key), "{workload} trace={trace}");
        if trace {
            let file = Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("smoke-{workload}-true/{workload}.trace.json"));
            let doc = Json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
            assert!(doc.get("traceEvents").and_then(Json::as_arr).is_some_and(|e| !e.is_empty()));
            traced = metrics.clone();
        }
    }
    traced
}

fn value(metrics: &Json, name: &str) -> f64 {
    metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64).unwrap()
}

#[test]
fn paper_tables() {
    let m = check("paper_tables", Path::new("unused"));
    assert!(value(&m, "attributed_pct") >= 90.0);
}

#[test]
fn chain() {
    let m = check("chain", Path::new("unused"));
    assert!(value(&m, "attributed_pct") >= 90.0);
    assert!(value(&m, "checkpoint.bytes") > 0.0);
}

#[test]
fn http_hot() {
    let m = check("http_hot", &server());
    assert_eq!(value(&m, "server.cache.hit_ratio_pct"), 100.0);
}

#[test]
fn http_tiers() {
    let m = check("http_tiers", &server());
    assert!(value(&m, "store.promotions") > 0.0 && value(&m, "store.warm_lookups") > 0.0);
}

/// A run that cannot do its work exits non-zero and prints no result line.
#[test]
fn a_failed_run_prints_no_result() {
    let out = run("http_hot", false, Path::new("/nonexistent/ftrepair"));
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}
