//! Regenerate the paper's tables.
//!
//! ```text
//! cargo run --release -p ftrepair-bench --bin tables -- \
//!     [table1|table2|table3|ablations|ablation_warm|ablation_checkpoint_resume|
//!      ablation_verify|ablation_reach|all|digests]
//!     [--large] [--huge] [--metrics-out <path>]
//! ```
//!
//! `--large` extends every sweep to the biggest instances (minutes of
//! runtime); without it each table completes in well under a minute.
//! `--huge` additionally runs Table I with both columns up to BA^24
//! (≈10^17 states) and the chain at Sc^20, Sc^25 and Sc^30 (up to ≈10^27
//! states).
//!
//! `digests` is not part of `all`: it measures nothing, and prints one
//! line per repair of a fixed 80-row set (lazy and cautious, heuristic on
//! and off) with its verdicts and the SHA-256 of its exported roots, then
//! one line per input program at every size the tables run with the
//! SHA-256 of its invariant, faults, safety specification and process
//! relations, so two builds can be diffed for bit-identical inputs and
//! results (`results/root_digests.txt`).
//!
//! `--metrics-out <path>` appends every measured row's JSONL run report —
//! the same schema the CLI's `ftrepair repair --metrics-out` emits — so
//! downstream tooling can consume table runs and CLI runs uniformly.
//!
//! Every selected table prints before any row decides the exit status,
//! which uses the CLI's codes for the same outcomes: 1 if a row failed to
//! repair, else 3 if a row repaired but did not verify, lost parity with
//! its cold repair, resumed less than [`MIN_RESUME_SPEEDUP`] times faster
//! than cold, had its fault-span certificate fall back or disagree
//! with the exact verifier, or reached a different set chained than
//! breadth-first; 2 for an argument `tables` does not
//! understand or a `--metrics-out` file it cannot append to. Pure lazy
//! repair may fail: Ablation A reports exactly that.

use ftrepair_bench::{
    ablation_checkpoint_resume, ablation_warm_start, input_digest, measure, measure_reach,
    measure_verify, render, render_checkpoint_resume, render_reach, render_verify,
    render_warm_start, root_digest, table1, table1_lazy_only, table2, table3, Row,
};
use ftrepair_casestudies::{
    byzantine_agreement, byzantine_failstop, stabilizing_chain, tmr, token_ring,
};
use ftrepair_core::RepairOptions;
use std::path::PathBuf;
use std::process::ExitCode;

/// The speedup over a cold repair that resuming from a mid-repair
/// checkpoint is sized for.
const MIN_RESUME_SPEEDUP: f64 = 2.0;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Size {
    Default,
    Large,
    Huge,
}

/// Measures and prints one table, adding its rows to the tally.
type RunTable = fn(&mut Tally, Size);

/// The selectors `all` runs, in its order.
const SELECTORS: [(&str, RunTable); 8] = [
    ("table1", run_table1),
    ("table2", run_table2),
    ("table3", run_table3),
    ("ablations", run_ablations),
    ("ablation_warm", run_ablation_warm),
    ("ablation_checkpoint_resume", run_ablation_checkpoint_resume),
    ("ablation_verify", run_ablation_verify),
    ("ablation_reach", run_ablation_reach),
];

/// The selectors `all` leaves out.
const ALONE: [(&str, RunTable); 1] = [("digests", run_digests)];

/// The rows measured so far, and every check that failed on them.
#[derive(Default)]
struct Tally {
    rows: Vec<Row>,
    /// Rows that failed to repair (exit 1).
    unrepaired: Vec<String>,
    /// Rows that repaired but got a wrong result (exit 3).
    wrong: Vec<String>,
}

impl Tally {
    /// Keep `row` for `--metrics-out` and check it: it must repair, unless
    /// `may_fail`, and what it repairs must verify.
    fn check(&mut self, row: Row, may_fail: bool) {
        if row.failed {
            if !may_fail {
                self.unrepaired.push(format!("{} did not repair", row.instance));
            }
        } else if !row.verified {
            self.wrong.push(format!("{} repaired but did not verify", row.instance));
        }
        self.rows.push(row);
    }

    fn exit_code(&self) -> u8 {
        if !self.unrepaired.is_empty() {
            1
        } else if !self.wrong.is_empty() {
            3
        } else {
            0
        }
    }
}

fn usage() -> String {
    let name = |&(name, _): &(&'static str, RunTable)| name;
    let names: Vec<&str> =
        SELECTORS.iter().map(name).chain(["all"]).chain(ALONE.iter().map(name)).collect();
    format!("usage: tables [{}] [--large] [--huge] [--metrics-out <path>]", names.join("|"))
}

/// The command line, checked: at most one selector (default `all`), known
/// flags only, and a path after `--metrics-out`.
fn parse_args(args: &[String]) -> Result<(Option<&str>, Size, Option<PathBuf>), String> {
    let (mut selector, mut size, mut metrics_out) = (None, Size::Default, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--large" => size = size.max(Size::Large),
            "--huge" => size = Size::Huge,
            "--metrics-out" => match args.next() {
                Some(path) if !path.starts_with("--") => metrics_out = Some(PathBuf::from(path)),
                _ => return Err("--metrics-out requires a path".into()),
            },
            name if name == "all" || SELECTORS.iter().chain(&ALONE).any(|&(s, _)| s == name) => {
                if let Some(first) = selector.replace(name) {
                    return Err(format!("one selector at a time, got {first} and {name}"));
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((selector.filter(|&s| s != "all"), size, metrics_out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selector, size, metrics_out) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let mut tally = Tally::default();
    match selector {
        None => SELECTORS.iter().for_each(|&(_, run)| run(&mut tally, size)),
        Some(s) => SELECTORS
            .iter()
            .chain(&ALONE)
            .filter(|&&(name, _)| name == s)
            .for_each(|&(_, run)| run(&mut tally, size)),
    }

    for why in tally.unrepaired.iter().chain(&tally.wrong) {
        eprintln!("tables: {why}");
    }
    if let Some(path) = metrics_out {
        for row in &tally.rows {
            if let Err(e) = row.report.append_to(&path) {
                eprintln!("failed to append metrics to {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        eprintln!("wrote {} JSONL report lines to {}", tally.rows.len(), path.display());
    }
    ExitCode::from(tally.exit_code())
}

fn run_table1(tally: &mut Tally, size: Size) {
    // Both columns up to the last size with a cautious run, then lazy-only
    // rows to keep the default and `--large` runs short. `--huge` runs both
    // columns to BA^24, past the paper's largest row (10^16 states).
    let (sizes, extension): (&[usize], &[usize]) = match size {
        Size::Huge => (&[2, 3, 4, 5, 6, 8, 12, 16, 20, 24], &[]),
        Size::Large => (&[2, 3, 4, 5, 6, 8], &[10, 12]),
        Size::Default => (&[2, 3, 4, 5], &[6, 8]),
    };
    let mut rows = table1(sizes);
    rows.extend(table1_lazy_only(extension));
    println!("{}", render(&rows, "Table I — Byzantine agreement: cautious vs lazy repair"));
    for row in rows {
        tally.check(row, false);
    }
}

fn run_table2(tally: &mut Tally, size: Size) {
    let sizes: &[usize] = if size >= Size::Large { &[2, 3, 4, 5, 6] } else { &[2, 3, 4] };
    let rows = table2(sizes);
    println!(
        "{}",
        render(&rows, "Table II — Byzantine agreement with fail-stop faults (lazy repair)")
    );
    for row in rows {
        tally.check(row, false);
    }
}

fn run_table3(tally: &mut Tally, size: Size) {
    let sizes: &[usize] = match size {
        Size::Huge => &[8, 10, 12, 14, 16, 20, 25, 30],
        Size::Large => &[8, 10, 12, 14, 16],
        Size::Default => &[6, 8, 10, 12],
    };
    let rows = table3(sizes, 8);
    println!("{}", render(&rows, "Table III — Stabilizing chain Sc^n (lazy repair, d = 8)"));
    for row in rows {
        tally.check(row, false);
    }
}

fn run_ablations(tally: &mut Tally, size: Size) {
    let large = size >= Size::Large;
    // Ablation A: the reachable-states heuristic (paper: "pure lazy repair
    // does not improve the performance"). On the fail-stop model the
    // difference is qualitative: without the heuristic the outer loop
    // churns on unreachable deadlock states and does not converge.
    let fs_n = if large { 4 } else { 3 };
    let with = measure(
        format!("BAFS^{fs_n} heuristic"),
        || ftrepair_casestudies::byzantine_failstop(fs_n).0,
        &RepairOptions::default(),
        false,
    );
    let without = measure(
        format!("BAFS^{fs_n} pure-lazy"),
        || ftrepair_casestudies::byzantine_failstop(fs_n).0,
        &RepairOptions::pure_lazy(),
        false,
    );
    let rows = [with, without];
    println!("{}", render(&rows, "Ablation A — reachable-states heuristic on/off (Section V-A)"));
    let [with, without] = rows;
    tally.check(with, false);
    tally.check(without, true);

    // Ablation B: Step 2 strategies — closed form vs Algorithm 2's loop
    // with and without ExpandGroup.
    let chain_n = if large { 8 } else { 6 };
    let closed = measure(
        format!("Sc^{chain_n} closed-form"),
        || stabilizing_chain(chain_n, 4).0,
        &RepairOptions::default(),
        false,
    );
    let iter_expand = measure(
        format!("Sc^{chain_n} iterative+expand"),
        || stabilizing_chain(chain_n, 4).0,
        &RepairOptions::iterative_step2(),
        false,
    );
    let iter_plain = measure(
        format!("Sc^{chain_n} iterative"),
        || stabilizing_chain(chain_n, 4).0,
        &RepairOptions { use_expand_group: false, ..RepairOptions::iterative_step2() },
        false,
    );
    let rows = [closed, iter_expand, iter_plain];
    println!(
        "{}",
        render(
            &rows,
            "Ablation B — Step 2 strategy: closed form vs Algorithm 2 loop ± ExpandGroup (Section V-B)"
        )
    );
    for row in rows {
        tally.check(row, false);
    }
}

type Factory = Box<dyn Fn() -> ftrepair_program::DistributedProgram>;

/// The case-study instances at the given sizes, labelled as in the
/// digest rows.
fn instances(ba: &[usize], bafs: &[usize], chains: &[(&[usize], u64)]) -> Vec<(String, Factory)> {
    let mut instances: Vec<(String, Factory)> = Vec::new();
    for &n in ba {
        instances.push((format!("BA^{n}"), Box::new(move || byzantine_agreement(n).0)));
    }
    for &n in bafs {
        instances.push((format!("BAFS^{n}"), Box::new(move || byzantine_failstop(n).0)));
    }
    for &(ns, d) in chains {
        for &n in ns {
            let label = format!("Sc^{n}(d={d})");
            instances.push((label, Box::new(move || stabilizing_chain(n, d).0)));
        }
    }
    for n in [2, 3] {
        instances.push((format!("TMR({n})"), Box::new(move || tmr(n).0)));
    }
    instances.push(("Ring(4,4)".into(), Box::new(|| token_ring(4, 4).0)));
    instances
}

/// Root parity: every instance of the set, lazy and cautious, with the
/// reachable-states heuristic on and off, one line each. A row that
/// repaired must verify; a row may fail, as pure lazy repair does on the
/// fail-stop model (Ablation A), and the line records it. Then input
/// parity: one line per instance at every size the tables run, with the
/// digests of the program itself. The sizes do not grow with `--large`.
fn run_digests(tally: &mut Tally, _size: Size) {
    let repaired =
        instances(&[2, 3, 4, 5, 6, 8], &[2, 3, 4, 5], &[(&[6, 8, 10, 12], 8), (&[4, 6, 8], 4)]);
    for (label, factory) in &repaired {
        for cautious in [false, true] {
            for heuristic in [true, false] {
                let row = root_digest(label.as_str(), factory(), cautious, heuristic);
                println!("{row}");
                if !row.failed && !row.verified {
                    let mode = if cautious { "cautious" } else { "lazy" };
                    let on = if heuristic { "on" } else { "off" };
                    tally.wrong.push(format!("{label} {mode} heuristic={on} did not verify"));
                }
            }
        }
    }

    let ba = [2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24];
    let chains: [(&[usize], u64); 2] = [(&[6, 8, 10, 12, 14, 16, 20, 25, 30], 8), (&[4, 6, 8], 4)];
    let mut inputs = instances(&ba, &[2, 3, 4, 5, 6], &chains);
    inputs.push(("Ring(5,5)".into(), Box::new(|| token_ring(5, 5).0)));
    for (label, factory) in &inputs {
        println!("{}", input_digest(label, factory()));
    }
}

/// Ablation E: warm-start repair from the disk store. A one-action edit of
/// a spec whose repair is already persisted seeds Step 1's reachability
/// from the stored neighbor's invariant/span BDDs; cold and warm results
/// are compared root-for-root (exact parity) and both re-verified.
fn run_ablation_warm(tally: &mut Tally, size: Size) {
    let sizes: &[(usize, u64)] = if size >= Size::Large {
        &[(6, 8), (8, 8), (10, 8), (12, 8)]
    } else {
        &[(6, 8), (8, 8), (10, 8)]
    };
    let measured = ablation_warm_start(sizes);
    println!(
        "{}",
        render_warm_start(&measured, "Ablation E — warm-start from stored neighbor (ours)")
    );
    for r in measured {
        if !r.parity {
            tally.wrong.push(format!("{} diverged from its cold repair", r.warm.instance));
        }
        tally.check(r.cold, false);
        tally.check(r.warm, false);
    }
}

/// Ablation F: resume from a mid-repair checkpoint. The chain is
/// cold-repaired, aborted halfway by a deadline (the forced write lands a
/// slot in an on-disk checkpoint store), and resumed from that slot; the
/// resumed repair must match the cold one root-for-root, verify, and beat
/// it by [`MIN_RESUME_SPEEDUP`]. The sizes do not grow with `--large`.
fn run_ablation_checkpoint_resume(tally: &mut Tally, _size: Size) {
    let rows = ablation_checkpoint_resume(&[(10, 8), (14, 8)]);
    println!(
        "{}",
        render_checkpoint_resume(&rows, "Ablation F — resume from a mid-repair checkpoint")
    );
    for r in rows {
        if !r.parity {
            tally.wrong.push(format!("{} resumed diverged from its cold repair", r.instance));
        }
        if !r.verified {
            tally.wrong.push(format!("{} resumed but did not verify", r.instance));
        }
        if r.speedup < MIN_RESUME_SPEEDUP {
            tally.wrong.push(format!(
                "{} resumed only {:.2}× faster than cold (cold {:.3}s, resumed {:.3}s)",
                r.instance,
                r.speedup,
                r.cold.as_secs_f64(),
                r.resumed.as_secs_f64(),
            ));
        }
    }
}

/// Ablation G: verify by fault-span certificate. Each row's masking
/// verification runs twice, on two fresh repairs: the least-fixpoint
/// oracle, and the certificate check on the repair's own span. The
/// certificate must hold and the reports must agree on every check.
fn run_ablation_verify(tally: &mut Tally, size: Size) {
    let mut rows = vec![
        measure_verify("BA^5", || byzantine_agreement(5).0, false),
        measure_verify("BA^5 cautious", || byzantine_agreement(5).0, true),
        measure_verify("BA^8", || byzantine_agreement(8).0, false),
        measure_verify("BAFS^5", || byzantine_failstop(5).0, false),
    ];
    let chains: &[usize] = if size >= Size::Large { &[10, 12, 14] } else { &[10] };
    for &n in chains {
        rows.push(measure_verify(format!("Sc^{n}(d=8)"), || stabilizing_chain(n, 8).0, false));
    }
    println!("{}", render_verify(&rows, "Ablation G — verify by fault-span certificate (ours)"));
    for r in rows {
        if !r.verified {
            tally.wrong.push(format!("{} repaired but did not verify", r.instance));
        }
        if !r.span_certified {
            tally.wrong.push(format!("{} fault-span certificate fell back", r.instance));
        }
        if !r.agree {
            tally.wrong.push(format!("{} certificate disagrees with verify_masking", r.instance));
        }
    }
}

/// Ablation H: Step 1's reachability from the invariant under `δ_P ∪ f`,
/// breadth-first over the union against chained over the writer parts,
/// each on a fresh instance. Both must reach the same root.
fn run_ablation_reach(tally: &mut Tally, size: Size) {
    let mut rows = vec![
        measure_reach("BA^8", || byzantine_agreement(8).0),
        measure_reach("BAFS^5", || byzantine_failstop(5).0),
        measure_reach("TMR(3)", || tmr(3).0),
        measure_reach("TokenRing(5,5)", || token_ring(5, 5).0),
    ];
    let chains: &[usize] = if size >= Size::Large { &[10, 12, 14] } else { &[10, 12] };
    for &n in chains {
        rows.push(measure_reach(format!("Sc^{n}(d=8)"), || stabilizing_chain(n, 8).0));
    }
    println!(
        "{}",
        render_reach(&rows, "Ablation H — reachability: breadth-first vs chained over writers")
    );
    for r in rows {
        if !r.same_root {
            tally
                .wrong
                .push(format!("{} chained reachability differs from breadth-first", r.instance));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_telemetry::RunReport;
    use std::time::Duration;

    fn row(failed: bool, verified: bool) -> Row {
        Row {
            instance: "X^1".into(),
            reachable_states: 1.0,
            cautious: None,
            step1: Duration::ZERO,
            step2: Duration::ZERO,
            outer_iterations: 1,
            verified,
            failed,
            report: RunReport::new("X^1", "lazy"),
        }
    }

    #[test]
    fn exit_code_is_the_worst_row_outcome() {
        let mut tally = Tally::default();
        tally.check(row(false, true), false);
        tally.check(row(true, false), true);
        assert_eq!(tally.exit_code(), 0, "pure lazy repair may fail");
        tally.check(row(false, false), true);
        assert_eq!(tally.exit_code(), 3, "a repair that does not verify is wrong");
        tally.check(row(true, false), false);
        assert_eq!(tally.exit_code(), 1, "a row that must repair did not");
        assert_eq!(tally.rows.len(), 4);
    }
}
