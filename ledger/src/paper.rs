//! `paper_tables`: the rows of the paper's Tables I–III, one job at a time
//! in the bench process. A job builds the instance, repairs it, verifies
//! the output, and counts its invariant, fault-span and transitions.

use crate::inproc::{add_repair_time, verify, EngineCounts, KernelCounts};
use crate::report::{Outcome, TraceLog};
use crate::stats::median;
use crate::Config;
use ftrepair_bdd::SplitMix64;
use ftrepair_casestudies::{byzantine_agreement, byzantine_failstop, stabilizing_chain};
use ftrepair_core::{cautious_repair_traced, lazy_repair_traced, LazyOutcome, RepairOptions};
use ftrepair_program::DistributedProgram;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One table row: an instance, the algorithm, and the counts its output
/// must have (measured on the seed build; every later build must match).
pub struct Row {
    pub name: &'static str,
    pub build: fn() -> DistributedProgram,
    pub cautious: bool,
    pub pins: Pins,
}

/// Exact sizes of a verified repair: invariant and fault-span states, and
/// transitions of the repaired program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pins {
    pub invariant: f64,
    pub span: f64,
    pub transitions: f64,
}

pub const ROWS: [Row; 5] = [
    Row {
        name: "BA^8",
        build: || byzantine_agreement(8).0,
        cautious: false,
        pins: Pins { invariant: 234400.0, span: 303712.0, transitions: 61950386364.0 },
    },
    Row {
        name: "BA^5.cautious",
        build: || byzantine_agreement(5).0,
        cautious: true,
        pins: Pins { invariant: 5716.0, span: 7526.0, transitions: 17197512.0 },
    },
    Row {
        name: "BA^5",
        build: || byzantine_agreement(5).0,
        cautious: false,
        pins: Pins { invariant: 5692.0, span: 6972.0, transitions: 18652732.0 },
    },
    Row {
        name: "BAFS^5",
        build: || byzantine_failstop(5).0,
        cautious: false,
        pins: Pins { invariant: 35212.0, span: 42492.0, transitions: 782167000.0 },
    },
    Row {
        name: "Sc^10",
        build: || stabilizing_chain(10, 8).0,
        cautious: false,
        pins: Pins { invariant: 8.0, span: 1073741824.0, transitions: 8455716864.0 },
    },
];

/// Layers that partition a job.
const TOP: &[&str] = &[
    "casestudies.build",
    "core.step1",
    "core.step2",
    "core.outer",
    "core.verify",
    "symbolic.count",
];

/// Set-up repetitions, each a warm-up round of every row: checked, but not
/// kept as samples. A set-up that only built the instances would take a few
/// milliseconds, mostly page faults, whose cost swings with the host's load
/// far more than the jobs' own.
const SETUPS: usize = 3;

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut o = Outcome { top_layers: TOP, ..Outcome::default() };
    let (mut warm, mut quiet) = (Outcome::default(), TraceLog::new(false, 0));
    for _ in 0..SETUPS {
        let t = Instant::now();
        for row in &ROWS {
            let (mut engine, mut kernel) = Default::default();
            job(row, &mut warm, &mut quiet, &mut engine, &mut kernel);
        }
        o.setups.push(t.elapsed());
        if o.setups.len() == 1 {
            // A fresh process through one round, in table order. Later
            // rounds add allocator fragmentation, which differs from run
            // to run by several percent.
            o.peak_rss_kb = crate::vm_hwm_kb("self")?;
        }
    }
    o.absorb_checks(&warm);

    let mut trace = TraceLog::new(cfg.trace, ROWS.len());
    let mut engine = EngineCounts::default();
    let mut kernel = KernelCounts::default();
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let mut repair_times: BTreeMap<&str, Vec<Duration>> = BTreeMap::new();
    let start = Instant::now();
    // Whole rounds only, so every row has the same number of samples.
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < cfg.window {
        rounds += 1;
        let (round, ops_before) = (Instant::now(), o.timed_ops());
        let mut order: Vec<usize> = (0..ROWS.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_index(i + 1));
        }
        for i in order {
            if let Some(wall) = job(&ROWS[i], &mut o, &mut trace, &mut engine, &mut kernel) {
                repair_times.entry(ROWS[i].name).or_default().push(wall);
            }
        }
        o.end_round(round.elapsed(), ops_before);
    }

    // The paper compares repair times alone, without build, verify and count.
    let median_s = |row| repair_times.get(row).map_or(0.0, |v| median(v).as_secs_f64());
    let ratio = median_s("BA^5.cautious") / median_s("BA^5");
    o.layers.set("core.cautious_over_lazy", ratio);
    engine.report(&mut o.layers);
    kernel.report(&mut o.layers);
    o.spans = trace.into_records();
    Ok(o)
}

/// Run one row's job and record its latency and checks. Returns the
/// repair's wall time if the job passed them.
pub fn job(
    row: &Row,
    o: &mut Outcome,
    trace: &mut TraceLog,
    engine: &mut EngineCounts,
    kernel: &mut KernelCounts,
) -> Option<Duration> {
    let tele = trace.tele().clone();
    let opts = RepairOptions::default();
    let mut problems = Vec::new();
    let started = Instant::now();
    let mut root = tele.span("job");
    root.field("case", row.name.into());
    let mut prog = o.layers.call(&tele, "casestudies.build", row.build);
    let t = Instant::now();
    let repaired = {
        let _span = tele.span("core.repair");
        if row.cautious {
            cautious_repair_traced(&mut prog, &opts, &tele).map(|c| LazyOutcome {
                processes: c.processes,
                invariant: c.invariant,
                span: c.span,
                trans: c.trans,
                failed: c.failed,
                stats: c.stats,
            })
        } else {
            lazy_repair_traced(&mut prog, &opts, &tele)
        }
    };
    let wall = t.elapsed();
    match repaired {
        Err(aborted) => problems.push(format!("repair aborted: {aborted}")),
        Ok(out) if out.failed => problems.push("no repair found".to_string()),
        Ok(out) => {
            add_repair_time(&mut o.layers, &out.stats, wall);
            engine.absorb(&out.stats);
            if !verify(&mut o.layers, &tele, &mut prog, &out) {
                problems.push("output failed verification".to_string());
            }
            let counts = o.layers.call(&tele, "symbolic.count", || Pins {
                invariant: prog.cx.count_states(out.invariant),
                span: prog.cx.count_states(out.span),
                transitions: prog.cx.count_transitions(out.trans),
            });
            if counts != row.pins {
                problems.push(format!("counts {counts:?}, pinned {:?}", row.pins));
            }
        }
    }
    drop(root);
    let latency = started.elapsed();
    kernel.absorb(prog.cx.mgr_ref());
    o.layers.absorb_engine_spans(&trace.end_op());
    o.op_time += latency;
    let passed = o.record(row.name, &problems);
    if passed {
        o.sample(row.name, latency);
    }
    passed.then_some(wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_row(pins: Pins) -> Row {
        Row { name: "BA^2", build: || byzantine_agreement(2).0, cautious: false, pins }
    }

    fn run_one(row: &Row) -> Outcome {
        let mut o = Outcome { top_layers: TOP, ..Outcome::default() };
        let mut trace = TraceLog::new(true, 1);
        job(row, &mut o, &mut trace, &mut EngineCounts::default(), &mut KernelCounts::default());
        o.spans = trace.into_records();
        o
    }

    /// The counts BA^2 repairs to, read off a run; a row pinned to them
    /// passes, and one off by a single state fails.
    #[test]
    fn a_wrong_pinned_count_fails_the_job() {
        let mut prog = byzantine_agreement(2).0;
        let out =
            lazy_repair_traced(&mut prog, &RepairOptions::default(), &Default::default()).unwrap();
        let pins = Pins {
            invariant: prog.cx.count_states(out.invariant),
            span: prog.cx.count_states(out.span),
            transitions: prog.cx.count_transitions(out.trans),
        };
        let good = run_one(&small_row(pins));
        assert_eq!((good.attempted, good.failed), (1, 0));
        assert_eq!(good.classes["BA^2"].len(), 1);

        let wrong = Pins { span: pins.span + 1.0, ..pins };
        let bad = run_one(&small_row(wrong));
        assert_eq!((bad.attempted, bad.failed), (1, 1));
        assert!(bad.classes.is_empty(), "a failed job contributes no latency sample");
    }

    #[test]
    fn named_layers_account_for_the_job() {
        let o = run_one(&ROWS[2]);
        assert_eq!(o.failed, 0);
        let metrics = o.metrics(true);
        let attributed = metrics.get("attributed_pct").unwrap().get("value").unwrap();
        assert!(attributed.as_f64().unwrap() >= 90.0, "{attributed:?}");
        let names: Vec<&str> = o.spans.iter().map(|r| r.name.as_str()).collect();
        for name in ["job", "casestudies.build", "core.repair", "step1", "core.verify"] {
            assert!(names.contains(&name), "{name} missing from {names:?}");
        }
    }
}
