//! Prometheus text exposition (format version 0.0.4) of a
//! [`MetricsSnapshot`], plus a small lint over any exposition text.
//!
//! Mapping, all under the `ftr_` prefix with dots sanitized to
//! underscores:
//!
//! * counters → `ftr_<name>_total` (`# TYPE counter`); the per-status-code
//!   family `server.http.status.<code>` collapses into one
//!   `ftr_server_http_status_total{code="<code>"}` family;
//! * gauges → `ftr_<name>` (`# TYPE gauge`);
//! * accumulated span/phase times → `ftr_<name>_seconds_total`
//!   (`# TYPE counter`), converted from [`Duration`](std::time::Duration) to seconds;
//! * histograms → the standard `_bucket{le=…}`/`_sum`/`_count` triplet
//!   (`# TYPE histogram`). Histogram values are nanoseconds by workspace
//!   convention, so bucket bounds and sums convert to seconds here; the
//!   metric names themselves already end in `.seconds`.
//!
//! [`lint`] is the validity check CI runs against a live scrape: every
//! sample family is preceded by its `# TYPE`, histogram bucket counts are
//! cumulative and monotone in `le`, the `+Inf` bucket exists and equals
//! `_count`, and a `_sum` is present.

use crate::registry::MetricsSnapshot;

const NS_PER_SEC: f64 = 1.0e9;

/// Sanitize a dotted metric name into a Prometheus metric name chunk.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label value per the exposition format: backslash, quote, and
/// newline get backslash escapes.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Format a float the way Prometheus clients do: integral values without a
/// fraction, everything else in shortest round-trip form.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render a snapshot in the Prometheus text exposition format.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();

    // Counters. The server.http.status.<code> families fold into one
    // labeled family so status codes don't explode the metric namespace.
    let mut status_codes: Vec<(String, u64)> = Vec::new();
    let mut plain: Vec<(&String, &u64)> = Vec::new();
    for (name, value) in &snap.counters {
        match name.strip_prefix("server.http.status.") {
            Some(code) if !code.is_empty() && code.chars().all(|c| c.is_ascii_digit()) => {
                status_codes.push((code.to_string(), *value));
            }
            _ => plain.push((name, value)),
        }
    }
    for (name, value) in plain {
        let fam = format!("ftr_{}_total", sanitize(name));
        out.push_str(&format!("# TYPE {fam} counter\n{fam} {value}\n"));
    }
    if !status_codes.is_empty() {
        out.push_str("# TYPE ftr_server_http_status_total counter\n");
        for (code, value) in status_codes {
            out.push_str(&format!(
                "ftr_server_http_status_total{{code=\"{}\"}} {value}\n",
                escape_label_value(&code)
            ));
        }
    }

    for (name, value) in &snap.gauges {
        let fam = format!("ftr_{}", sanitize(name));
        out.push_str(&format!("# TYPE {fam} gauge\n{fam} {value}\n"));
    }

    for (name, d) in &snap.times {
        let fam = format!("ftr_{}_seconds_total", sanitize(name));
        out.push_str(&format!("# TYPE {fam} counter\n{fam} {}\n", fmt_value(d.as_secs_f64())));
    }

    for (name, h) in &snap.histograms {
        let fam = format!("ftr_{}", sanitize(name));
        out.push_str(&format!("# TYPE {fam} histogram\n"));
        let mut cumulative = 0u64;
        for &(upper, n) in &h.buckets {
            cumulative += n;
            out.push_str(&format!(
                "{fam}_bucket{{le=\"{}\"}} {cumulative}\n",
                fmt_value(upper as f64 / NS_PER_SEC)
            ));
        }
        out.push_str(&format!("{fam}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{fam}_sum {}\n", fmt_value(h.sum as f64 / NS_PER_SEC)));
        out.push_str(&format!("{fam}_count {}\n", h.count));
    }

    out
}

/// Split a sample line into (metric name, `le` label if any, value).
fn parse_sample(line: &str) -> Result<(String, Option<String>, f64), String> {
    let (name_part, value_part) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').ok_or_else(|| format!("unclosed label braces: {line}"))?;
            (&line[..open], line[close + 1..].trim())
        }
        None => {
            let mut it = line.splitn(2, ' ');
            (it.next().unwrap_or(""), it.next().unwrap_or("").trim())
        }
    };
    let le = line.find('{').and_then(|open| {
        let close = line.rfind('}')?;
        let labels = &line[open + 1..close];
        labels.split(',').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            if k.trim() == "le" {
                Some(v.trim().trim_matches('"').to_string())
            } else {
                None
            }
        })
    });
    let value: f64 = value_part
        .split_whitespace()
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| format!("unparseable sample value: {line}"))?;
    Ok((name_part.trim().to_string(), le, value))
}

/// Validate exposition text. Returns a list of violations; an empty list
/// means the text passes. Checks: every sample's family is declared with a
/// preceding `# TYPE`; histogram `_bucket` counts are cumulative
/// (monotone non-decreasing) with monotone `le` bounds; every histogram
/// has a `+Inf` bucket equal to its `_count` and has a `_sum`.
pub fn lint(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut types: std::collections::BTreeMap<String, String> = Default::default();
    // Per histogram family: ordered (le, cumulative count) plus sum/count.
    #[derive(Default)]
    struct HistSamples {
        buckets: Vec<(String, f64)>,
        sum: Option<f64>,
        count: Option<f64>,
    }
    let mut hists: std::collections::BTreeMap<String, HistSamples> = Default::default();

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(ty)) = (it.next(), it.next()) else {
                errors.push(format!("malformed TYPE line: {line}"));
                continue;
            };
            types.insert(name.to_string(), ty.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name, le, value) = match parse_sample(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        // Resolve the family: histogram samples use the base name's TYPE.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (types.get(base).map(String::as_str) == Some("histogram")).then(|| base.to_string())
            })
            .unwrap_or_else(|| name.clone());
        match types.get(&family) {
            None => errors.push(format!("sample without preceding # TYPE: {name}")),
            Some(ty) if ty == "histogram" => {
                let h = hists.entry(family.clone()).or_default();
                if name.ends_with("_bucket") {
                    match le {
                        Some(le) => h.buckets.push((le, value)),
                        None => errors.push(format!("{name} sample missing le label")),
                    }
                } else if name.ends_with("_sum") {
                    h.sum = Some(value);
                } else if name.ends_with("_count") {
                    h.count = Some(value);
                } else {
                    errors.push(format!("histogram family {family} has stray sample {name}"));
                }
            }
            Some(_) => {}
        }
    }

    for (family, h) in &hists {
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_count = f64::NEG_INFINITY;
        let mut inf: Option<f64> = None;
        for (le, count) in &h.buckets {
            let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(f64::NAN) };
            if bound.is_nan() {
                errors.push(format!("{family}: unparseable le bound {le:?}"));
                continue;
            }
            if bound < prev_le {
                errors.push(format!("{family}: le bounds not monotone at {le}"));
            }
            if *count < prev_count {
                errors.push(format!("{family}: bucket counts not cumulative at le={le}"));
            }
            prev_le = bound;
            prev_count = *count;
            if bound.is_infinite() {
                inf = Some(*count);
            }
        }
        match (inf, h.count) {
            (None, _) => errors.push(format!("{family}: no +Inf bucket")),
            (_, None) => errors.push(format!("{family}: no _count sample")),
            (Some(i), Some(c)) if i != c => {
                errors.push(format!("{family}: +Inf bucket {i} != _count {c}"))
            }
            _ => {}
        }
        if h.sum.is_none() {
            errors.push(format!("{family}: no _sum sample"));
        }
    }

    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use std::time::Duration;

    fn sample_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.add("bdd.ops.apply", 42);
        r.add("server.http.status.200", 7);
        r.add("server.http.status.429", 1);
        r.set_gauge("bdd.nodes.peak", 1234);
        r.add_time("span.step1", Duration::from_millis(1500));
        let h = r.histogram("server.request.seconds");
        for v in [5_000_000u64, 25_000_000, 25_000_000, 900_000_000] {
            h.observe(v);
        }
        r.snapshot()
    }

    #[test]
    fn render_produces_lintable_exposition() {
        let text = render(&sample_snapshot());
        let errs = lint(&text);
        assert!(errs.is_empty(), "{errs:?}\n{text}");
        assert!(
            text.contains("# TYPE ftr_bdd_ops_apply_total counter\nftr_bdd_ops_apply_total 42\n")
        );
        assert!(text.contains("ftr_server_http_status_total{code=\"200\"} 7\n"));
        assert!(text.contains("ftr_server_http_status_total{code=\"429\"} 1\n"));
        assert!(text.contains("# TYPE ftr_bdd_nodes_peak gauge\nftr_bdd_nodes_peak 1234\n"));
        assert!(text.contains("ftr_span_step1_seconds_total 1.5\n"));
        assert!(text.contains("# TYPE ftr_server_request_seconds histogram\n"));
        assert!(text.contains("ftr_server_request_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("ftr_server_request_seconds_count 4\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_seconds() {
        let text = render(&sample_snapshot());
        // The two 25ms observations share a bucket; its cumulative count
        // includes the earlier 5ms one.
        let bucket_lines: Vec<&str> =
            text.lines().filter(|l| l.starts_with("ftr_server_request_seconds_bucket")).collect();
        assert!(bucket_lines.len() >= 3, "{text}");
        let counts: Vec<f64> =
            bucket_lines.iter().map(|l| l.rsplit(' ').next().unwrap().parse().unwrap()).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(*counts.last().unwrap(), 4.0);
        // Bounds are in seconds: every le for these millisecond-scale
        // observations sits below 1.0 except +Inf.
        for l in &bucket_lines[..bucket_lines.len() - 1] {
            let le: f64 =
                l.split("le=\"").nth(1).unwrap().split('"').next().unwrap().parse().unwrap();
            assert!(le < 1.0, "{l}");
        }
    }

    #[test]
    fn sanitize_and_escape() {
        assert_eq!(sanitize("bdd.ops.apply"), "bdd_ops_apply");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("a-b c"), "a_b_c");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn lint_catches_violations() {
        assert_eq!(lint(""), Vec::<String>::new());
        let no_type = "ftr_x_total 3\n";
        assert!(lint(no_type).iter().any(|e| e.contains("without preceding # TYPE")), "{no_type}");

        let non_cumulative = "# TYPE ftr_h histogram\n\
                              ftr_h_bucket{le=\"0.1\"} 5\n\
                              ftr_h_bucket{le=\"0.2\"} 3\n\
                              ftr_h_bucket{le=\"+Inf\"} 5\n\
                              ftr_h_sum 1\nftr_h_count 5\n";
        assert!(lint(non_cumulative).iter().any(|e| e.contains("not cumulative")));

        let no_inf = "# TYPE ftr_h histogram\n\
                      ftr_h_bucket{le=\"0.1\"} 5\n\
                      ftr_h_sum 1\nftr_h_count 5\n";
        assert!(lint(no_inf).iter().any(|e| e.contains("no +Inf")));

        let inf_mismatch = "# TYPE ftr_h histogram\n\
                            ftr_h_bucket{le=\"+Inf\"} 4\n\
                            ftr_h_sum 1\nftr_h_count 5\n";
        assert!(lint(inf_mismatch).iter().any(|e| e.contains("!= _count")));

        let no_sum = "# TYPE ftr_h histogram\n\
                      ftr_h_bucket{le=\"+Inf\"} 5\nftr_h_count 5\n";
        assert!(lint(no_sum).iter().any(|e| e.contains("no _sum")));
    }
}
