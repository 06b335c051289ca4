//! Turning a finished repair run into a JSONL run-report line.
//!
//! Both the CLI's `--metrics-out` sink and `crates/bench`'s table harness
//! build their reports here, so the schema (and in particular the
//! cache-stats rendering) has exactly one producer.

use crate::options::RepairOptions;
use crate::stats::RepairStats;
use ftrepair_bdd::{CacheCounter, CacheStats};
use ftrepair_symbolic::SymbolicContext;
use ftrepair_telemetry::{Json, RunReport, Telemetry};

/// Build the run report for one repair: identification, phase timings (from
/// `stats`, so they equal what the experiment tables print), the full
/// telemetry snapshot (counters / gauges / span times / the `iterations`
/// series), and the BDD manager's cache hit rates.
pub fn build_run_report(
    case: &str,
    mode: &str,
    opts: &RepairOptions,
    stats: &RepairStats,
    failed: bool,
    tele: &Telemetry,
    cx: &SymbolicContext,
) -> RunReport {
    let mut r = RunReport::new(case, mode);
    r.set("failed", failed.into());
    r.set("outer_iterations", stats.outer_iterations.into());
    r.set("options", options_json(opts));
    r.set_phases(&[("step1", stats.step1_time), ("step2", stats.step2_time)]);
    r.set_snapshot(&tele.snapshot());
    r.set("caches", cache_stats_json(&cx.mgr_ref().cache_stats()));
    r.set("bdd", bdd_stats_json(cx));
    r
}

/// Node-count statistics from the manager: live nodes, their high-water
/// mark (the same number as the `bdd.peak_live_nodes` gauge), and the
/// garbage collections that bounded it.
pub fn bdd_stats_json(cx: &SymbolicContext) -> Json {
    let s = cx.mgr_ref().stats();
    let mut o = Json::obj();
    o.set("live_nodes", (s.live_nodes as u64).into());
    o.set("peak_live_nodes", (s.peak_live_nodes as u64).into());
    o.set("gc_runs", (s.gc_runs as u64).into());
    o
}

fn options_json(opts: &RepairOptions) -> Json {
    let mut o = Json::obj();
    o.set("restrict_to_reachable", opts.restrict_to_reachable.into());
    o.set("step2_closed_form", opts.step2_closed_form.into());
    o.set("use_expand_group", opts.use_expand_group.into());
    // Always false: the parallel Step 2 was removed, and the field stays
    // so run reports and `/repair` documents keep their shape.
    o.set("parallel_step2", false.into());
    o.set("allow_new_terminal_inside", opts.allow_new_terminal_inside.into());
    // Always "auto": variable reordering was removed (the order is fixed),
    // and the field stays so run reports keep their shape.
    o.set("reorder", "auto".into());
    o
}

/// The six op caches plus the unique table, each as
/// `{hits, misses, entries, hit_rate}` — rates are the headline number.
pub fn cache_stats_json(cs: &CacheStats) -> Json {
    fn counter_json(c: CacheCounter) -> Json {
        let mut o = Json::obj();
        o.set("hits", c.hits.into());
        o.set("misses", c.misses.into());
        o.set("entries", c.entries.into());
        o.set("hit_rate", c.hit_rate().into());
        o
    }
    let mut out = Json::obj();
    for (name, c) in cs.op_caches() {
        out.set(name, counter_json(c));
    }
    out.set("unique", counter_json(cs.unique));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::lazy_repair_traced;
    use ftrepair_program::{DistributedProgram, ProgramBuilder, Update};

    fn needs_recovery() -> DistributedProgram {
        let mut b = ProgramBuilder::new("needs-recovery");
        let x = b.var("x", 3);
        b.process("p", &[x], &[x]);
        let g0 = b.cx().assign_eq(x, 0);
        b.action(g0, &[(x, Update::Const(1))]);
        let g1 = b.cx().assign_eq(x, 1);
        b.action(g1, &[(x, Update::Const(0))]);
        let inv = {
            let a = b.cx().assign_eq(x, 0);
            let c = b.cx().assign_eq(x, 1);
            b.cx().mgr().or(a, c)
        };
        b.invariant(inv);
        let fg = b.cx().assign_eq(x, 1);
        b.fault_action(fg, &[(x, Update::Const(2))]);
        b.build()
    }

    #[test]
    fn report_counters_match_returned_stats() {
        let mut p = needs_recovery();
        let tele = Telemetry::new();
        let opts = RepairOptions::default();
        let out = lazy_repair_traced(&mut p, &opts, &tele).unwrap();
        assert!(!out.failed);
        let r = build_run_report("toy", "lazy", &opts, &out.stats, out.failed, &tele, &p.cx);
        let j = Json::parse(&r.to_json_line()).unwrap();
        let counters = j.get("counters").unwrap();
        let c = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
        assert_eq!(c("step2.groups_kept"), out.stats.groups_kept);
        assert_eq!(c("step2.groups_dropped"), out.stats.groups_dropped);
        assert_eq!(c("step2.expansions"), out.stats.expansions);
        assert_eq!(c("step2.picks"), out.stats.step2_picks);
        assert_eq!(c("repair.outer_iterations"), out.stats.outer_iterations as u64);
    }

    #[test]
    fn report_phases_sum_to_total() {
        let mut p = needs_recovery();
        let tele = Telemetry::new();
        let opts = RepairOptions::default();
        let out = lazy_repair_traced(&mut p, &opts, &tele).unwrap();
        let r = build_run_report("toy", "lazy", &opts, &out.stats, out.failed, &tele, &p.cx);
        let j = Json::parse(&r.to_json_line()).unwrap();
        let phases = j.get("phases_s").unwrap();
        let s1 = phases.get("step1").unwrap().as_f64().unwrap();
        let s2 = phases.get("step2").unwrap().as_f64().unwrap();
        let total = phases.get("total").unwrap().as_f64().unwrap();
        assert_eq!(s1 + s2, total);
        assert_eq!(s1, out.stats.step1_time.as_secs_f64());
    }

    #[test]
    fn report_includes_all_seven_cache_entries_and_iteration_series() {
        let mut p = needs_recovery();
        let tele = Telemetry::new();
        let opts = RepairOptions::default();
        let out = lazy_repair_traced(&mut p, &opts, &tele).unwrap();
        let r = build_run_report("toy", "lazy", &opts, &out.stats, out.failed, &tele, &p.cx);
        let j = Json::parse(&r.to_json_line()).unwrap();
        let caches = j.get("caches").unwrap().as_obj().unwrap();
        let names: Vec<&str> = caches.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["not", "apply", "ite", "quant", "and_exists", "rename", "unique"]);
        for (name, entry) in caches {
            let rate = entry.get("hit_rate").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&rate), "{name}: {rate}");
        }
        let iters = j.get("iterations").unwrap().as_arr().unwrap();
        assert_eq!(iters.len(), out.stats.outer_iterations);
        assert!(iters[0].get("invariant_nodes").unwrap().as_f64().unwrap() > 0.0);
        let gauges = j.get("gauges").unwrap();
        let peak = gauges.get("bdd.peak_live_nodes").unwrap().as_u64().unwrap();
        assert!(peak > 0);
        // One name, one quantity: the gauge is the manager's high-water
        // mark, the same number the report's `bdd` object carries.
        let bdd_peak = j.get("bdd").unwrap().get("peak_live_nodes").unwrap().as_u64();
        assert_eq!(Some(peak), bdd_peak);
    }

    #[test]
    fn disabled_telemetry_still_yields_a_valid_line() {
        let mut p = needs_recovery();
        let opts = RepairOptions::default();
        let out = lazy_repair_traced(&mut p, &opts, &Telemetry::off()).unwrap();
        let r = build_run_report(
            "toy",
            "lazy",
            &opts,
            &out.stats,
            out.failed,
            &Telemetry::off(),
            &p.cx,
        );
        let j = Json::parse(&r.to_json_line()).unwrap();
        assert_eq!(j.get("counters").unwrap().as_obj().unwrap().len(), 0);
        assert!(j.get("phases_s").unwrap().get("total").is_some());
    }
}
