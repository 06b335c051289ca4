//! Trace IDs and Chrome `trace_event` export.
//!
//! A trace ID is a nonzero 64-bit value identifying one job end to end:
//! minted by the client (sent as `X-Trace-Id`), or by the server for
//! requests without one, echoed in the response, and keyed into the
//! server's `/jobs/<trace-id>` introspection ring. IDs render as 16
//! lowercase hex digits — the in-tree JSON number is an `f64`, which only
//! holds 53 bits exactly, so IDs always travel as strings.
//!
//! [`chrome_trace`] serializes a span log as Chrome `trace_event` JSON
//! (the `{"traceEvents": [...]}` envelope with `"X"` complete events),
//! which opens directly in Perfetto (ui.perfetto.dev) or
//! `chrome://tracing`. Span nesting is carried twice: implicitly by
//! timestamp containment per track, and explicitly as `span_id`/`parent`
//! args so tools (and our tests) can reconstruct the exact tree.

use crate::span::SpanRecord;
use crate::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

static MINT_COUNTER: AtomicU64 = AtomicU64::new(0);

/// splitmix64 finalizer — a cheap, well-mixed bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mint a fresh, nonzero trace ID: wall-clock nanoseconds xor a process
/// counter, run through a mixer so consecutive mints don't share prefixes.
pub fn mint_trace_id() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5eed_5eed_5eed_5eed);
    let n = MINT_COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = mix(nanos ^ n.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Render a trace ID as 16 lowercase hex digits (the wire format).
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a trace ID from its wire format: hex digits, optionally
/// `0x`-prefixed, case-insensitive. Rejects empty, zero, overlong, and
/// non-hex input.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim();
    let s = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")).unwrap_or(s);
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// Serialize finished spans as Chrome `trace_event` JSON.
///
/// Each span becomes an `"X"` (complete) event with microsecond `ts`/`dur`
/// on its recording thread's track; `args` carries `span_id`, `parent`,
/// and the span's structured fields. Metadata events name the process
/// after `name` and the trace ID.
pub fn chrome_trace(records: &[SpanRecord], trace_id: u64, name: &str) -> Json {
    let mut events = Vec::new();

    let mut meta = Json::obj();
    meta.set("name", Json::from("process_name"));
    meta.set("ph", Json::from("M"));
    meta.set("pid", Json::from(1u64));
    meta.set("tid", Json::from(0u64));
    let mut margs = Json::obj();
    margs.set("name", Json::from(format!("{name} trace {}", format_trace_id(trace_id))));
    meta.set("args", margs);
    events.push(meta);

    let mut tids: Vec<u64> = records.iter().map(|r| r.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut tm = Json::obj();
        tm.set("name", Json::from("thread_name"));
        tm.set("ph", Json::from("M"));
        tm.set("pid", Json::from(1u64));
        tm.set("tid", Json::from(tid));
        let mut targs = Json::obj();
        targs.set("name", Json::from(format!("worker-{tid}")));
        tm.set("args", targs);
        events.push(tm);
    }

    for r in records {
        let mut ev = Json::obj();
        ev.set("name", Json::from(r.name.as_str()));
        ev.set("ph", Json::from("X"));
        ev.set("pid", Json::from(1u64));
        ev.set("tid", Json::from(r.tid));
        ev.set("ts", Json::from(r.start_ns as f64 / 1_000.0));
        ev.set("dur", Json::from(r.dur_ns as f64 / 1_000.0));
        let mut args = Json::obj();
        args.set("span_id", Json::from(r.id));
        args.set("parent", Json::from(r.parent));
        for (k, v) in &r.fields {
            args.set(k, v.clone());
        }
        ev.set("args", args);
        events.push(ev);
    }

    let mut root = Json::obj();
    root.set("traceEvents", Json::Arr(events));
    root.set("displayTimeUnit", Json::from("ms"));
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn trace_ids_mint_nonzero_and_distinct() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn trace_id_wire_format_round_trips() {
        for id in [1u64, 0xdead_beef, u64::MAX, mint_trace_id()] {
            let s = format_trace_id(id);
            assert_eq!(s.len(), 16);
            assert_eq!(parse_trace_id(&s), Some(id));
            assert_eq!(parse_trace_id(&format!("0x{s}")), Some(id));
            assert_eq!(parse_trace_id(&s.to_uppercase()), Some(id));
        }
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("0"), None);
        assert_eq!(parse_trace_id("0000000000000000"), None);
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("11112222333344445"), None, "17 digits");
    }

    #[test]
    fn chrome_trace_shape_is_valid() {
        let t = Telemetry::with_spans(false);
        {
            let mut root = t.span("job");
            root.field("case", Json::from("demo"));
            let _child = t.span("step1");
        }
        let records = t.take_spans();
        let id = mint_trace_id();
        let json = chrome_trace(&records, id, "demo");
        // Round-trip through the serializer/parser.
        let parsed = Json::parse(&json.to_string()).unwrap();
        let events = match parsed.get("traceEvents").unwrap() {
            Json::Arr(v) => v,
            other => panic!("traceEvents not an array: {other:?}"),
        };
        let xs: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
        assert_eq!(xs.len(), 2);
        let job = xs.iter().find(|e| e.get("name").unwrap().as_str() == Some("job")).unwrap();
        let step = xs.iter().find(|e| e.get("name").unwrap().as_str() == Some("step1")).unwrap();
        let job_id = job.get("args").unwrap().get("span_id").unwrap().as_u64().unwrap();
        assert_eq!(step.get("args").unwrap().get("parent").unwrap().as_u64(), Some(job_id));
        assert_eq!(job.get("args").unwrap().get("case").unwrap().as_str(), Some("demo"));
        // The process name metadata carries the trace id.
        let meta = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .unwrap();
        let pname = meta.get("args").unwrap().get("name").unwrap().as_str().unwrap();
        assert!(pname.contains(&format_trace_id(id)), "{pname}");
    }
}
