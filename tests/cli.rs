//! Integration tests for the `ftrepair` command-line tool, driven through
//! the real binary on the shipped `.ftr` spec files.

use std::process::Command;

fn ftrepair(args: &[&str]) -> (String, String, bool) {
    let (stdout, stderr, code) = ftrepair_code(args);
    (stdout, stderr, code == Some(0))
}

/// Like [`ftrepair`] but reporting the raw exit code — for the tests that
/// pin the exit-code contract rather than just success/failure.
fn ftrepair_code(args: &[&str]) -> (String, String, Option<i32>) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_ftrepair")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn spec(name: &str) -> String {
    format!("{}/examples/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn info_reports_model_shape() {
    let (stdout, _, ok) = ftrepair(&["info", &spec("toggle_pair.ftr")]);
    assert!(ok);
    assert!(stdout.contains("program toggle_pair"));
    assert!(stdout.contains("x : 0..2"));
    assert!(stdout.contains("state space: 6 states"));
    assert!(stdout.contains("invariant:   4 states"));
}

#[test]
fn check_passes_on_well_formed_spec() {
    let (stdout, _, ok) = ftrepair(&["check", &spec("toggle_pair.ftr")]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("check passed"));
    assert!(stdout.contains("realizable: true"));
}

#[test]
fn repair_toggle_pair_produces_recovery() {
    let (stdout, stderr, ok) = ftrepair(&["repair", &spec("toggle_pair.ftr")]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("verified: masking=true realizability=true"));
    assert!(stdout.contains("(x = 2) ->"), "recovery missing:\n{stdout}");
}

#[test]
fn repair_tmr_synthesizes_safe_voter() {
    let (stdout, stderr, ok) = ftrepair(&["repair", &spec("tmr_voter.ftr")]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("verified: masking=true realizability=true"));
    // Unanimity decisions survive.
    assert!(stdout.contains("(r0 = 0) & (r1 = 0) & (r2 = 0) & (o = 2) -> o := 0;"), "{stdout}");
    // The naive copy-whatever-r0-says behavior is gone: no command decides
    // 1 from an all-zeros context or vice versa.
    assert!(!stdout.contains("(r0 = 1) & (r1 = 0) & (r2 = 0) & (o = 2) -> o := 1;"), "{stdout}");
}

#[test]
fn repair_with_cautious_flag_matches_lazy_verdict() {
    let (_, stderr, ok) = ftrepair(&["repair", &spec("toggle_pair.ftr"), "--cautious"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("verified: masking=true realizability=true"));
}

#[test]
fn repair_with_iterative_and_pure_lazy_flags() {
    for flag in ["--iterative-step2", "--pure-lazy"] {
        let (_, stderr, ok) = ftrepair(&["repair", &spec("toggle_pair.ftr"), flag]);
        assert!(ok, "{flag}: {stderr}");
        assert!(stderr.contains("masking=true"), "{flag}: {stderr}");
    }
}

/// Every subcommand accepts only the flags it reads: a typo, or the
/// removed `--parallel`, is a usage error rather than a silent default.
#[test]
fn unknown_flags_are_rejected_with_usage() {
    for flag in ["--parallel", "--reoder", "--reorder"] {
        let (_, stderr, code) = ftrepair_code(&["repair", &spec("toggle_pair.ftr"), flag, "sift"]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
        assert!(stderr.contains("usage: ftrepair repair"), "{stderr}");
    }
}

/// `--store-dir` combines with `--metrics-out` and `--trace-out`: a miss
/// repairs, reports, traces, and stores; the rerun is served from the
/// store without running a repair; stdout is the same program text on
/// every path.
#[test]
fn store_dir_runs_report_trace_and_serve_identical_stdout_on_rerun() {
    let dir = std::env::temp_dir().join(format!("ftrepair-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (store, metrics, trace) = (path("store"), path("m.jsonl"), path("t.json"));
    let args = [
        "repair",
        &spec("toggle_pair.ftr"),
        "--store-dir",
        &store,
        "--metrics-out",
        &metrics,
        "--trace-out",
        &trace,
    ];

    let (first, stderr, ok) = ftrepair(&args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("stored under key"), "{stderr}");
    let reports = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(reports.lines().count(), 1, "{reports}");
    assert!(reports.contains("\"verified\":true"), "{reports}");
    let doc = ftrepair::telemetry::Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let ftrepair::telemetry::Json::Arr(events) = doc.get("traceEvents").unwrap() else {
        panic!("traceEvents is not an array");
    };
    let field =
        |e: &ftrepair::telemetry::Json, k: &str| e.get("args").and_then(|a| a.get(k)).cloned();
    let spans: Vec<_> = events.iter().filter(|e| field(e, "span_id").is_some()).collect();
    let ids: Vec<_> = spans.iter().map(|e| field(e, "span_id")).collect();
    let roots: Vec<_> = spans.iter().filter(|e| !ids.contains(&field(e, "parent"))).collect();
    assert_eq!(roots.len(), 1, "one root span: {doc}");
    assert_eq!(roots[0].get("name").and_then(|n| n.as_str()), Some("job"));

    let (second, stderr, ok) = ftrepair(&args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("served from store"), "{stderr}");
    assert_eq!(second, first, "a store hit prints the same program");
    let reports = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(reports.lines().count(), 1, "a store hit runs no repair: {reports}");

    let (plain, stderr, ok) = ftrepair(&["repair", &spec("toggle_pair.ftr")]);
    assert!(ok, "{stderr}");
    assert_eq!(plain, first, "plain and stored runs print the same program");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repair_token_ring_ships_and_verifies() {
    let (stdout, stderr, ok) = ftrepair(&["repair", &spec("token_ring.ftr")]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("verified: masking=true realizability=true"));
    // The rotation inside the invariant survives in the output.
    assert!(stdout.contains("process p0"), "{stdout}");
}

#[test]
fn repair_with_metrics_out_appends_jsonl() {
    let dir = std::env::temp_dir().join("ftrepair-cli-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.jsonl");
    let _ = std::fs::remove_file(&path);
    let path_str = path.to_str().unwrap();

    let (_, stderr, ok) = ftrepair(&["repair", &spec("token_ring.ftr"), "--metrics-out", path_str]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("metrics appended to"), "{stderr}");
    // A second run appends rather than truncates.
    let (_, _, ok) = ftrepair(&["repair", &spec("toggle_pair.ftr"), "--metrics-out", path_str]);
    assert!(ok);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    let first = ftrepair::telemetry::Json::parse(lines[0]).unwrap();
    assert_eq!(first.get("case").unwrap().as_str(), Some("token_ring"));
    assert_eq!(first.get("mode").unwrap().as_str(), Some("lazy"));
    assert_eq!(first.get("verified").unwrap().as_bool(), Some(true));
    let second = ftrepair::telemetry::Json::parse(lines[1]).unwrap();
    assert_eq!(second.get("case").unwrap().as_str(), Some("toggle_pair"));
}

#[test]
fn repair_with_trace_streams_spans_to_stderr() {
    let (_, stderr, ok) = ftrepair(&["repair", &spec("toggle_pair.ftr"), "--trace"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("trace: > job"), "{stderr}");
    assert!(stderr.contains("> outer_iteration"), "{stderr}");
    assert!(stderr.contains("< step1"), "{stderr}");
    assert!(stderr.contains("< step2"), "{stderr}");
}

#[test]
fn simulate_replays_faults_against_the_repair() {
    let (stdout, stderr, ok) = ftrepair(&["simulate", &spec("toggle_pair.ftr"), "--runs", "50"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("repaired toggle_pair (lazy mode), verified: true"), "{stderr}");
    assert!(stderr.contains("simulation ok: 50 runs"), "{stderr}");
    let report = ftrepair::telemetry::Json::parse(stdout.trim()).unwrap();
    assert_eq!(report.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(report.get("runs").unwrap().as_u64(), Some(50));
    assert!(report.get("faults_injected").unwrap().as_u64() > Some(0));
}

#[test]
fn simulate_is_seed_deterministic() {
    let (a, _, ok_a) = ftrepair(&["simulate", &spec("toggle_pair.ftr"), "--seed", "42"]);
    let (b, _, ok_b) = ftrepair(&["simulate", &spec("toggle_pair.ftr"), "--seed", "42"]);
    assert!(ok_a && ok_b);
    assert_eq!(a, b, "same seed must replay the same batch");
}

/// A spec at the simulation cap: six chain cells over `0..3`, 4096 states,
/// so the bundle walks every variable of the largest program it serves.
#[test]
fn simulate_runs_on_a_spec_at_the_state_cap() {
    let text = ftrepair::casestudies::chain_spec(6, 4, None);
    let dir = std::env::temp_dir().join(format!("ftrepair-cli-cap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chain6x4.ftr");
    std::fs::write(&path, text).unwrap();

    let (stdout, stderr, ok) =
        ftrepair(&["simulate", path.to_str().unwrap(), "--runs", "50", "--seed", "7"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("verified: true"), "{stderr}");
    let report = ftrepair::telemetry::Json::parse(stdout.trim()).unwrap();
    assert_eq!(report.get("ok").unwrap().as_bool(), Some(true), "{stdout}");
    assert_eq!(report.get("runs").unwrap().as_u64(), Some(50));
}

#[test]
fn simulate_rejects_malformed_specs_cleanly() {
    let dir = std::env::temp_dir().join("ftrepair-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad-sim.ftr");
    std::fs::write(&bad, "program broken (((").unwrap();
    let (_, stderr, ok) = ftrepair(&["simulate", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn metrics_out_without_a_path_is_rejected() {
    let (_, stderr, ok) = ftrepair(&["repair", &spec("toggle_pair.ftr"), "--metrics-out"]);
    assert!(!ok);
    assert!(stderr.contains("--metrics-out requires a path"), "{stderr}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let (_, stderr, ok) = ftrepair(&["repair", "no-such-file.ftr"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn parse_errors_are_reported_with_position() {
    let dir = std::env::temp_dir().join("ftrepair-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ftr");
    std::fs::write(&bad, "program broken").unwrap();
    let (_, stderr, ok) = ftrepair(&["check", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn unknown_command_is_rejected() {
    let (_, stderr, ok) = ftrepair(&["frobnicate", &spec("toggle_pair.ftr")]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn metrics_dump_renders_prometheus_that_passes_prom_lint() {
    let dir = std::env::temp_dir().join("ftrepair-cli-promdump");
    std::fs::create_dir_all(&dir).unwrap();
    let runs = dir.join("runs.jsonl");
    let _ = std::fs::remove_file(&runs);
    let runs_str = runs.to_str().unwrap();

    let (_, _, ok) = ftrepair(&["repair", &spec("token_ring.ftr"), "--metrics-out", runs_str]);
    assert!(ok);
    let (_, _, ok) = ftrepair(&["repair", &spec("toggle_pair.ftr"), "--metrics-out", runs_str]);
    assert!(ok);

    let (exposition, stderr, ok) = ftrepair(&["metrics-dump", runs_str]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("merged 2 report line(s)"), "{stderr}");
    assert!(exposition.contains("# TYPE ftr_repair_step1_seconds histogram"), "{exposition}");
    assert!(exposition.contains("ftr_repair_step1_seconds_bucket{le=\"+Inf\"} 2"), "{exposition}");
    let violations = ftrepair::telemetry::prometheus::lint(&exposition);
    assert!(violations.is_empty(), "{violations:?}\n{exposition}");

    // The same text satisfies the in-tree linter subcommand (file and stdin
    // are both accepted; CI pipes the live /metrics scrape through `-`).
    let exposition_path = dir.join("exposition.txt");
    std::fs::write(&exposition_path, &exposition).unwrap();
    let (_, lint_stderr, ok) = ftrepair(&["prom-lint", exposition_path.to_str().unwrap()]);
    assert!(ok, "{lint_stderr}");
    assert!(lint_stderr.contains(": ok"), "{lint_stderr}");
}

#[test]
fn prom_lint_rejects_malformed_exposition() {
    let dir = std::env::temp_dir().join("ftrepair-cli-promdump");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad-exposition.txt");
    std::fs::write(&bad, "ftr_orphan_bucket{le=\"0.5\"} 3\nnot a sample line\n").unwrap();
    let (_, stderr, ok) = ftrepair(&["prom-lint", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("prom-lint"), "{stderr}");
}

#[test]
fn trace_out_without_a_path_is_rejected() {
    let (_, stderr, ok) = ftrepair(&["repair", &spec("toggle_pair.ftr"), "--trace-out"]);
    assert!(!ok);
    assert!(stderr.contains("--trace-out requires an argument"), "{stderr}");
}

/// The exit-code contract documented in the README's Quick start table:
/// 0 success, 1 failure, 2 usage, 124 deadline, 125 node budget. (3 —
/// produced-but-unverifiable — is deliberately unpinned: it only fires on
/// an internal bug.)
#[test]
fn exit_codes_are_a_contract() {
    let (_, _, code) = ftrepair_code(&["repair", &spec("toggle_pair.ftr")]);
    assert_eq!(code, Some(0), "success is 0");

    let dir = std::env::temp_dir().join("ftrepair-cli-exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ftr");
    std::fs::write(&bad, "program broken (((").unwrap();
    let (_, stderr, code) = ftrepair_code(&["repair", bad.to_str().unwrap()]);
    assert_eq!(code, Some(1), "unparseable spec is 1: {stderr}");

    let (_, stderr, code) = ftrepair_code(&["repair", "no-such-file.ftr"]);
    assert_eq!(code, Some(2), "unreadable input is a usage error: {stderr}");
    let (_, stderr, code) = ftrepair_code(&["repair", &spec("toggle_pair.ftr"), "--resume"]);
    assert_eq!(code, Some(2), "--resume without --checkpoint-dir is 2: {stderr}");
    assert!(stderr.contains("--resume requires --checkpoint-dir"), "{stderr}");

    let (_, stderr, code) = ftrepair_code(&["repair", &spec("token_ring.ftr"), "--timeout", "0"]);
    assert_eq!(code, Some(124), "deadline exhaustion is 124: {stderr}");

    let (_, stderr, code) = ftrepair_code(&["repair", &spec("token_ring.ftr"), "--max-nodes", "1"]);
    assert_eq!(code, Some(125), "node-budget exhaustion is 125: {stderr}");
}

/// The offline checkpoint round trip: a run starved into exit 125 leaves a
/// resume slot behind (and says so), `--resume` continues from it to a
/// verified repair, and success clears the slot. The starvation budget is
/// node-count based, so this is deterministic across build profiles.
#[test]
fn aborted_repair_checkpoints_and_resume_completes() {
    let dir = std::env::temp_dir().join(format!("ftrepair-cli-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().unwrap();
    let chain = spec("stabilizing_chain10.ftr");

    let (_, stderr, code) =
        ftrepair_code(&["repair", &chain, "--max-nodes", "2000", "--checkpoint-dir", dir_str]);
    assert_eq!(code, Some(125), "{stderr}");
    assert!(stderr.contains("rerun with --resume"), "{stderr}");
    let slots = || {
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
            .count()
    };
    assert_eq!(slots(), 1, "the abort left one checkpoint slot");

    let (_, stderr, code) =
        ftrepair_code(&["repair", &chain, "--checkpoint-dir", dir_str, "--resume"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("resuming from checkpoint at iteration"), "{stderr}");
    assert!(stderr.contains("verified: true"), "{stderr}");
    assert_eq!(slots(), 0, "success cleared the slot");

    // A fresh `--resume` with nothing on disk is honest about it and
    // still completes cold.
    let (_, stderr, code) =
        ftrepair_code(&["repair", &chain, "--checkpoint-dir", dir_str, "--resume"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("no checkpoint for this spec; starting cold"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
