//! Golden test for `--trace-out`: run the real binary on `token_ring.ftr`,
//! parse the emitted Chrome `trace_event` JSON, and check the span tree —
//! Step 1 / Step 2 and the fixpoint spans must all nest under one job root.
//! A traced in-process repair checks that Step 1's phase spans account for
//! its time.

use ftrepair::repair::{lazy_repair_traced, RepairOptions};
use ftrepair::telemetry::trace::parse_trace_id;
use ftrepair::telemetry::{Json, Telemetry};
use std::collections::HashMap;
use std::process::Command;

fn spec(name: &str) -> String {
    format!("{}/examples/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn trace_out_on_token_ring_nests_phases_under_one_job_root() {
    let dir = std::env::temp_dir().join("ftrepair-trace-export");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("token_ring.trace.json");
    let _ = std::fs::remove_file(&path);

    let out = Command::new(env!("CARGO_BIN_EXE_ftrepair"))
        .args(["repair", &spec("token_ring.ftr"), "--trace-out", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("trace "), "announce line missing: {stderr}");
    assert!(stderr.contains("Perfetto"), "{stderr}");

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let doc = Json::parse(&text).expect("trace file is valid JSON");
    let events = match doc.get("traceEvents").expect("traceEvents key") {
        Json::Arr(v) => v,
        other => panic!("traceEvents not an array: {other:?}"),
    };

    // The process-name metadata event carries the minted 16-hex trace ID,
    // and the same ID appears on the announce line.
    let meta = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .expect("process_name metadata event");
    let pname = meta.get("args").unwrap().get("name").unwrap().as_str().unwrap();
    let hex = pname.split_whitespace().last().unwrap();
    let trace_id = parse_trace_id(hex).unwrap_or_else(|| panic!("bad trace id in {pname:?}"));
    assert_ne!(trace_id, 0);
    assert!(stderr.contains(hex), "stderr does not echo the trace id: {stderr}");

    // Index the complete ("X") span events: span_id -> (name, parent).
    let mut spans: HashMap<u64, (String, u64)> = HashMap::new();
    for e in events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")) {
        let args = e.get("args").expect("span args");
        let id = args.get("span_id").and_then(Json::as_u64).expect("span_id");
        let parent = args.get("parent").and_then(Json::as_u64).unwrap_or(0);
        let name = e.get("name").and_then(Json::as_str).expect("span name").to_string();
        spans.insert(id, (name, parent));
    }

    // Exactly one root: the "job" span, whose parent id resolves to no span.
    let roots: Vec<&u64> =
        spans.iter().filter(|(_, (_, p))| !spans.contains_key(p)).map(|(id, _)| id).collect();
    assert_eq!(roots.len(), 1, "expected one root span, got {spans:?}");
    let root_id = *roots[0];
    assert_eq!(spans[&root_id].0, "job", "{spans:?}");

    // Walk each span's parent chain up to the root; every phase span must be
    // reachable from "job", and step1/step2 must sit under outer_iteration.
    let ancestry = |mut id: u64| -> Vec<String> {
        let mut names = Vec::new();
        while let Some((name, parent)) = spans.get(&id) {
            names.push(name.clone());
            id = *parent;
        }
        names
    };
    let find = |wanted: &str| -> u64 {
        *spans
            .iter()
            .find(|(_, (name, _))| name == wanted)
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("span {wanted:?} missing from {spans:?}"))
    };
    for phase in ["step1", "step2"] {
        let chain = ancestry(find(phase));
        assert_eq!(
            chain,
            vec![phase.to_string(), "outer_iteration".to_string(), "job".to_string()],
            "bad nesting for {phase}"
        );
    }
    for fix in ["step1.ms_fixpoint", "step1.reachability", "step1.fixpoint", "step1.ranking"] {
        let chain = ancestry(find(fix));
        assert!(chain.contains(&"step1".to_string()), "{fix} not under step1: {chain:?}");
        assert_eq!(chain.last().map(String::as_str), Some("job"), "{fix} chain: {chain:?}");
    }
    // Phases 1 and 3 run inside the prelude.
    for phase in ["step1.ms_fixpoint", "step1.reachability"] {
        let chain = ancestry(find(phase));
        assert_eq!(chain[1..3], ["step1.prelude", "step1"], "bad nesting for {phase}");
    }

    // Phase 5 reports its rounds, its rank diagram and its product's size.
    let ranking_args = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("step1.ranking"))
        .and_then(|e| e.get("args"))
        .expect("step1.ranking span args");
    for field in ["rounds", "rank_nodes", "descent_states"] {
        assert!(
            ranking_args.get(field).and_then(Json::as_u64).is_some(),
            "step1.ranking lacks {field}: {ranking_args:?}"
        );
    }

    // The job root carries the case and the trace id as structured fields.
    let job_args = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("job"))
        .and_then(|e| e.get("args"))
        .expect("job span args");
    assert_eq!(job_args.get("case").and_then(Json::as_str), Some("token_ring"));
    assert_eq!(job_args.get("trace_id").and_then(Json::as_str), Some(hex));
}

#[test]
fn step1_phase_spans_cover_a_byzantine_repair() {
    let (mut prog, _) = ftrepair::casestudies::byzantine_agreement(4);
    let tele = Telemetry::with_spans(false);
    let out = lazy_repair_traced(&mut prog, &RepairOptions::default(), &tele).unwrap();
    assert!(!out.failed);
    let spans = tele.take_spans();
    let step1: Vec<u64> = spans.iter().filter(|r| r.name == "step1").map(|r| r.id).collect();
    assert!(!step1.is_empty(), "no step1 span");
    let total: u64 = spans.iter().filter(|r| step1.contains(&r.id)).map(|r| r.dur_ns).sum();
    let children: Vec<_> = spans.iter().filter(|r| step1.contains(&r.parent)).collect();
    let covered: u64 = children.iter().map(|r| r.dur_ns).sum();
    let mut names: Vec<&str> = children.iter().map(|r| r.name.as_str()).collect();
    names.dedup();
    assert!(
        covered as f64 >= 0.95 * total as f64,
        "step1's child spans {names:?} cover {covered} of {total} ns"
    );
    assert!(names.contains(&"step1.prelude"), "{names:?}");
}
