//! Regenerate the paper's tables.
//!
//! ```text
//! cargo run --release -p ftrepair-bench --bin tables -- \
//!     [table1|table2|table3|ablations|ablation_warm|all] [--large] [--metrics-out <path>]
//! ```
//!
//! `--large` extends every sweep to the biggest instances (minutes of
//! runtime); without it each table completes in well under a minute.
//! `--huge` additionally runs the chain at Sc^20 (≈10^18 states — several
//! minutes and ~10 GB of peak memory, measurement plus re-verification).
//! `--metrics-out <path>` appends every measured row's JSONL run report —
//! the same schema the CLI's `ftrepair repair --metrics-out` emits — so
//! downstream tooling can consume table runs and CLI runs uniformly.

use ftrepair_bench::{
    ablation_warm_start, measure, render, render_warm_start, table1, table1_lazy_only, table2,
    table3, Row,
};
use ftrepair_casestudies::stabilizing_chain;
use ftrepair_core::RepairOptions;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let huge = args.iter().any(|a| a == "--huge");
    let large = huge || args.iter().any(|a| a == "--large");
    let metrics_out: Option<PathBuf> =
        args.iter().position(|a| a == "--metrics-out").map(|i| match args.get(i + 1) {
            Some(p) if !p.starts_with("--") => PathBuf::from(p),
            _ => {
                eprintln!("--metrics-out requires a path argument");
                std::process::exit(1);
            }
        });
    let what = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && (i == 0 || args[i - 1] != "--metrics-out"))
        .map(|(_, a)| a.as_str())
        .next()
        .unwrap_or("all");

    let rows = match what {
        "table1" => run_table1(large),
        "table2" => run_table2(large),
        "table3" => run_table3(large, huge),
        "ablations" => run_ablations(large),
        "ablation_warm" => run_ablation_warm(large),
        "all" => {
            let mut rows = run_table1(large);
            rows.extend(run_table2(large));
            rows.extend(run_table3(large, huge));
            rows.extend(run_ablations(large));
            rows.extend(run_ablation_warm(large));
            rows
        }
        other => {
            eprintln!(
                "unknown selector {other}; use table1|table2|table3|ablations|ablation_warm|all"
            );
            std::process::exit(1);
        }
    };

    if let Some(path) = metrics_out {
        for row in &rows {
            if let Err(e) = row.report.append_to(&path) {
                eprintln!("failed to append metrics to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        eprintln!("wrote {} JSONL report lines to {}", rows.len(), path.display());
    }
}

fn run_table1(large: bool) -> Vec<Row> {
    let sizes: &[usize] = if large { &[2, 3, 4, 5, 6, 8] } else { &[2, 3, 4, 5] };
    let mut rows = table1(sizes);
    // Lazy-only extension, like the paper's largest rows where the cautious
    // baseline becomes impractical.
    let extension: &[usize] = if large { &[10, 12] } else { &[6, 8] };
    rows.extend(table1_lazy_only(extension));
    println!("{}", render(&rows, "Table I — Byzantine agreement: cautious vs lazy repair"));
    rows
}

fn run_table2(large: bool) -> Vec<Row> {
    let sizes: &[usize] = if large { &[2, 3, 4, 5, 6] } else { &[2, 3, 4] };
    let rows = table2(sizes);
    println!(
        "{}",
        render(&rows, "Table II — Byzantine agreement with fail-stop faults (lazy repair)")
    );
    rows
}

fn run_table3(large: bool, huge: bool) -> Vec<Row> {
    let sizes: &[usize] = if huge {
        &[8, 10, 12, 14, 16, 20]
    } else if large {
        &[8, 10, 12, 14, 16]
    } else {
        &[6, 8, 10, 12]
    };
    let rows = table3(sizes, 8);
    println!("{}", render(&rows, "Table III — Stabilizing chain Sc^n (lazy repair, d = 8)"));
    rows
}

fn run_ablations(large: bool) -> Vec<Row> {
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
    println!(
        "{}",
        render(
            &[with.clone(), without.clone()],
            "Ablation A — reachable-states heuristic on/off (Section V-A)"
        )
    );

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
    println!(
        "{}",
        render(
            &[closed.clone(), iter_expand.clone(), iter_plain.clone()],
            "Ablation B — Step 2 strategy: closed form vs Algorithm 2 loop ± ExpandGroup (Section V-B)"
        )
    );

    vec![with, without, closed, iter_expand, iter_plain]
}

/// Ablation E: warm-start repair from the disk store. A one-action edit of
/// a spec whose repair is already persisted seeds Step 1's reachability
/// from the stored neighbor's invariant/span BDDs; cold and warm results
/// are compared root-for-root (exact parity) and both re-verified.
fn run_ablation_warm(large: bool) -> Vec<Row> {
    let sizes: &[(usize, u64)] =
        if large { &[(6, 8), (8, 8), (10, 8), (12, 8)] } else { &[(6, 8), (8, 8), (10, 8)] };
    let measured = ablation_warm_start(sizes);
    println!(
        "{}",
        render_warm_start(&measured, "Ablation E — warm-start from stored neighbor (ours)")
    );
    measured.into_iter().flat_map(|r| [r.cold, r.warm]).collect()
}
