//! # ftrepair-bench — the experiment harness
//!
//! Regenerates every table of the paper's evaluation section:
//!
//! * **Table I** — byzantine agreement: cautious repair vs lazy repair
//!   (Step 1 / Step 2 split), over growing numbers of non-generals.
//! * **Table II** — byzantine agreement with fail-stop faults: lazy only,
//!   as in the paper.
//! * **Table III** — the stabilizing chain `Sc^n`: lazy Step 1 / Step 2
//!   times at state counts that grow by roughly a decade per row.
//!
//! plus the ablations the paper's narrative calls for (the
//! reachable-states heuristic and `ExpandGroup`/closed-form Step 2).
//!
//! Every measured repair is re-verified (masking + realizability) before a
//! row is reported; rows carry the measured reachable-state counts so the
//! tables are self-describing, and every row also carries the same JSONL
//! [`RunReport`] the CLI's `--metrics-out` emits (one schema, two
//! producers). Use `cargo run --release -p ftrepair-bench --bin tables --
//! all` for the paper-style output, or `cargo bench -p ftrepair-bench` for
//! median-of-N timings on the smaller instances.

pub mod harness;

use ftrepair_casestudies::{byzantine_agreement, byzantine_failstop, stabilizing_chain};
use ftrepair_core::{
    build_run_report, cautious_repair, lazy_repair_traced, verify::verify_outcome, LazyOutcome,
    RepairOptions,
};
use ftrepair_program::DistributedProgram;
use ftrepair_telemetry::{RunReport, Telemetry};
use std::time::Duration;

/// One row of an experiment table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Instance label (e.g. `BA^4`, `Sc^12`).
    pub instance: String,
    /// States reachable from the invariant under program ∪ faults.
    pub reachable_states: f64,
    /// Total cautious-repair time (`None` when not measured, as in the
    /// paper's Tables II/III).
    pub cautious: Option<Duration>,
    /// Lazy Step 1 (Add-Masking) time, summed over outer iterations.
    pub step1: Duration,
    /// Lazy Step 2 (realizability) time.
    pub step2: Duration,
    /// Outer iterations of Algorithm 1.
    pub outer_iterations: usize,
    /// Did the lazy output pass the independent verifiers?
    pub verified: bool,
    /// Did lazy repair declare failure (no repair found / did not
    /// converge)? `verified` is false in that case.
    pub failed: bool,
    /// The lazy run's JSONL report — identical schema to the CLI's
    /// `--metrics-out` lines.
    pub report: RunReport,
}

impl Row {
    /// Total lazy time.
    pub fn lazy_total(&self) -> Duration {
        self.step1 + self.step2
    }
}

/// Count the states reachable from the invariant under `δ_P ∪ f`.
pub fn reachable_states(prog: &mut DistributedProgram) -> f64 {
    let t = prog.program_trans();
    let combined = prog.cx.mgr().or(t, prog.faults);
    let inv = prog.invariant;
    let reach = prog.cx.forward_reachable(inv, combined);
    prog.cx.count_states(reach)
}

/// Run lazy repair on a fresh instance from `factory`, verify the result,
/// and measure the paper's quantities. Optionally also run cautious repair
/// (on another fresh instance, so BDD caches don't cross-contaminate).
pub fn measure(
    label: impl Into<String>,
    factory: impl Fn() -> DistributedProgram,
    opts: &RepairOptions,
    with_cautious: bool,
) -> Row {
    let label = label.into();
    let mut prog = factory();
    let reachable = reachable_states(&mut prog);

    let mut prog = factory();
    let tele = Telemetry::new();
    // Bench runs carry no deadline, so an abort is impossible here.
    let out: LazyOutcome =
        lazy_repair_traced(&mut prog, opts, &tele).expect("bench runs have no deadline");
    // Report before verification: the verifier's BDD traffic must not
    // pollute the run's cache hit rates.
    let mut report =
        build_run_report(&label, "lazy", opts, &out.stats, out.failed, &tele, &prog.cx);
    let verified = if out.failed {
        false
    } else {
        let (m, r) = verify_outcome(&mut prog, &out);
        m.ok() && r.ok()
    };
    report.set("reachable_states", reachable.into());
    report.set("verified", verified.into());

    let cautious = with_cautious.then(|| {
        let mut prog = factory();
        let c = cautious_repair(&mut prog, opts).expect("bench runs have no deadline");
        assert!(!c.failed, "cautious repair failed on {}", prog.name);
        c.stats.total_time()
    });

    Row {
        instance: label,
        reachable_states: reachable,
        cautious,
        step1: out.stats.step1_time,
        step2: out.stats.step2_time,
        outer_iterations: out.stats.outer_iterations,
        verified,
        failed: out.failed,
        report,
    }
}

/// Table I rows: byzantine agreement, cautious vs lazy.
pub fn table1(sizes: &[usize]) -> Vec<Row> {
    sizes
        .iter()
        .map(|&n| {
            measure(format!("BA^{n}"), || byzantine_agreement(n).0, &RepairOptions::default(), true)
        })
        .collect()
}

/// Table I lazy-only extension rows (sizes where cautious is impractical).
pub fn table1_lazy_only(sizes: &[usize]) -> Vec<Row> {
    sizes
        .iter()
        .map(|&n| {
            measure(
                format!("BA^{n}"),
                || byzantine_agreement(n).0,
                &RepairOptions::default(),
                false,
            )
        })
        .collect()
}

/// Table II rows: byzantine agreement with fail-stop, lazy only.
pub fn table2(sizes: &[usize]) -> Vec<Row> {
    sizes
        .iter()
        .map(|&n| {
            measure(
                format!("BAFS^{n}"),
                || byzantine_failstop(n).0,
                &RepairOptions::default(),
                false,
            )
        })
        .collect()
}

/// Table III rows: the stabilizing chain, lazy only. `d` is the cell
/// domain size (8 keeps encodings dense and matches the paper's state-count
/// growth of roughly a decade per pair of cells).
pub fn table3(sizes: &[usize], d: u64) -> Vec<Row> {
    sizes
        .iter()
        .map(|&n| {
            measure(
                format!("Sc^{n}"),
                || stabilizing_chain(n, d).0,
                &RepairOptions::default(),
                false,
            )
        })
        .collect()
}

/// One measurement of the warm-start ablation: the same one-action-edited
/// spec repaired cold and warm (seeded through the disk store's near-key
/// lookup), plus the exact parity verdict between the two results.
#[derive(Clone, Debug)]
pub struct WarmStartRow {
    /// Fingerprint distance between the edited spec and its stored donor.
    pub neighbor_distance: usize,
    /// The edited spec repaired from scratch.
    pub cold: Row,
    /// The edited spec repaired with the donor's invariant/span seeds.
    pub warm: Row,
    /// `cold total / warm total`.
    pub speedup: f64,
    /// Did warm and cold produce semantically identical invariant, span,
    /// and repaired transition relation? Checked exactly: the cold BDDs are
    /// exported, re-imported into the warm run's manager (canonicalizing
    /// them in its order), and compared root-for-root.
    pub parity: bool,
}

/// The stabilizing chain `Sc^n` written in the input language, so the
/// warm-start ablation exercises the same text → fingerprint → store →
/// seed pipeline the daemon uses. `edited` adds one action to the first
/// cell — a different content key at fingerprint distance 1.
pub fn warm_chain_spec(n: usize, d: u64, edited: bool) -> String {
    use std::fmt::Write;
    assert!(n >= 2 && d >= 2);
    let mut s = String::new();
    writeln!(s, "program warmchain{n}x{d}{};\n", if edited { "e" } else { "" }).unwrap();
    for i in 0..n {
        writeln!(s, "var x{i} : 0..{};", d - 1).unwrap();
    }
    for i in 1..n {
        writeln!(s, "\nprocess c{i}\n  read x{}, x{i};\n  write x{i};\nbegin", i - 1).unwrap();
        writeln!(s, "  !(x{i} = x{}) -> x{i} := x{};", i - 1, i - 1).unwrap();
        if edited && i == 1 {
            // The one-action edit: a distinct action whose transitions are
            // already covered by the copy action above, so the program's
            // behavior (and its repair) is unchanged — only the text, the
            // content key, and the fingerprint move.
            writeln!(s, "  (x1 < x0) -> x1 := x0;").unwrap();
        }
        writeln!(s, "end").unwrap();
    }
    let choices = (0..d).map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
    writeln!(s, "\nfault transient\nbegin").unwrap();
    for i in 0..n {
        writeln!(s, "  true -> x{i} := {{{choices}}};").unwrap();
    }
    writeln!(s, "end\n").unwrap();
    let inv = (1..n).map(|i| format!("(x{} = x{i})", i - 1)).collect::<Vec<_>>().join(" & ");
    writeln!(s, "invariant {inv};").unwrap();
    s
}

/// The warm-start ablation: persist the unedited chain's repair in a
/// throwaway [`DiskStore`], then repair the one-action-edited chain twice —
/// cold, and warm via the store's fingerprint nearest-neighbor lookup (the
/// full serialize → disk → decode → import round trip). Each row reports
/// the speedup and an exact parity check between the two repairs.
///
/// [`DiskStore`]: ftrepair_store::DiskStore
pub fn ablation_warm_start(sizes: &[(usize, u64)]) -> Vec<WarmStartRow> {
    use ftrepair_store::{
        DiskStore, NewEntry, SpecFingerprint, ART_INVARIANT, ART_SPAN, ART_TRANS,
    };

    let store_root =
        std::env::temp_dir().join(format!("ftrepair-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let tele = Telemetry::off();
    let store = DiskStore::open(&store_root, 0, &tele).expect("open bench store");

    let rows = sizes
        .iter()
        .map(|&(n, d)| {
            let instance = format!("Sc^{n}(d={d})");
            let opts = RepairOptions::default();

            // Donor: cold-repair the unedited spec, persist its artifacts.
            let donor_src = warm_chain_spec(n, d, false);
            let donor_ast = ftrepair_lang::parse(&donor_src).expect("donor parses");
            let mut donor = ftrepair_lang::compile(&donor_ast).expect("donor compiles");
            let donor_out = lazy_repair_traced(&mut donor, &opts, &Telemetry::off())
                .expect("bench runs have no deadline");
            assert!(!donor_out.failed, "donor repair failed on {instance}");
            let mgr = donor.cx.mgr_ref();
            store
                .put(&NewEntry {
                    key: ftrepair_store::content_key(&donor_src, "lazy"),
                    case: instance.clone(),
                    mode: "lazy".into(),
                    warm_start: false,
                    fingerprint: SpecFingerprint::of(&donor_ast),
                    response: ftrepair_telemetry::Json::obj(),
                    artifacts: vec![
                        (ART_TRANS.into(), mgr.export(donor_out.trans)),
                        (ART_INVARIANT.into(), mgr.export(donor_out.invariant)),
                        (ART_SPAN.into(), mgr.export(donor_out.span)),
                    ],
                })
                .expect("store donor entry");

            // Cold baseline on the edited spec.
            let edited_src = warm_chain_spec(n, d, true);
            let edited_ast = ftrepair_lang::parse(&edited_src).expect("edited parses");
            let factory = || ftrepair_lang::compile(&edited_ast).expect("edited compiles");
            let cold = measure(format!("{instance} cold"), factory, &opts, false);
            assert!(cold.verified, "cold repair unverified on {instance}");

            // Warm: fingerprint lookup → donor artifacts → seeded repair.
            let fp = SpecFingerprint::of(&edited_ast);
            let (donor_key, neighbor_distance) =
                store.nearest(&fp, 16).expect("donor is within warm distance");
            let stored = store.peek(&donor_key).expect("donor entry readable");
            let mut prog = factory();
            let seeds = ftrepair_core::WarmSeeds {
                invariant: ftrepair_store::find_artifact(&stored.artifacts, ART_INVARIANT)
                    .map(|a| prog.cx.mgr().try_import(a).expect("invariant imports")),
                span: ftrepair_store::find_artifact(&stored.artifacts, ART_SPAN)
                    .map(|a| prog.cx.mgr().try_import(a).expect("span imports")),
            };
            for root in seeds.roots() {
                prog.cx.mgr().protect(root);
            }
            let wtele = Telemetry::new();
            let winstance = format!("{instance} warm");
            let wout = ftrepair_core::lazy_repair_warm(
                &mut prog,
                &opts,
                &wtele,
                &ftrepair_core::Token::unbounded(),
                &seeds,
            )
            .expect("bench runs have no deadline");
            assert!(!wout.failed, "warm repair failed on {instance}");
            let mut wreport = build_run_report(
                &winstance,
                "lazy",
                &opts,
                &wout.stats,
                wout.failed,
                &wtele,
                &prog.cx,
            );
            let wverified = {
                let (m, r) = verify_outcome(&mut prog, &wout);
                m.ok() && r.ok()
            };
            assert!(wverified, "warm repair unverified on {instance}");
            wreport.set("reachable_states", cold.reachable_states.into());
            wreport.set("verified", wverified.into());

            // Exact parity: canonicalize the cold roots in the warm
            // manager and compare.
            let parity = {
                let cold_prog_exports = {
                    let mut cp = factory();
                    let cout = ftrepair_core::lazy_repair(&mut cp, &opts)
                        .expect("bench runs have no deadline");
                    let m = cp.cx.mgr_ref();
                    [m.export(cout.invariant), m.export(cout.span), m.export(cout.trans)]
                };
                let m = prog.cx.mgr();
                m.try_import(&cold_prog_exports[0]) == Ok(wout.invariant)
                    && m.try_import(&cold_prog_exports[1]) == Ok(wout.span)
                    && m.try_import(&cold_prog_exports[2]) == Ok(wout.trans)
            };

            let warm = Row {
                instance: winstance,
                reachable_states: cold.reachable_states,
                cautious: None,
                step1: wout.stats.step1_time,
                step2: wout.stats.step2_time,
                outer_iterations: wout.stats.outer_iterations,
                verified: wverified,
                failed: wout.failed,
                report: wreport,
            };
            let speedup =
                cold.lazy_total().as_secs_f64() / warm.lazy_total().as_secs_f64().max(f64::EPSILON);
            WarmStartRow { neighbor_distance, cold, warm, speedup, parity }
        })
        .collect();

    let _ = std::fs::remove_dir_all(&store_root);
    rows
}

/// Render warm-start ablation rows as a markdown table.
pub fn render_warm_start(rows: &[WarmStartRow], title: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "### {title}\n").unwrap();
    writeln!(
        out,
        "| Instance | Reachable states | Distance | Cold total | Warm total | Speedup | Parity | Verified |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            out,
            "| {} | 10^{:.1} | {} | {:.3}s | {:.3}s | {:.2}× | {} | {} |",
            r.cold.instance.trim_end_matches(" cold"),
            r.cold.reachable_states.log10(),
            r.neighbor_distance,
            r.cold.lazy_total().as_secs_f64(),
            r.warm.lazy_total().as_secs_f64(),
            r.speedup,
            if r.parity { "exact" } else { "DIVERGED" },
            if r.cold.verified && r.warm.verified { "yes" } else { "NO" },
        )
        .unwrap();
    }
    out
}

/// One measurement of the checkpoint-resume ablation: the same chain
/// repaired cold, aborted mid-repair by a deadline (leaving a checkpoint
/// slot behind), and resumed from that slot — through the same
/// serialize → disk → decode → import pipeline the CLI's
/// `repair --checkpoint-dir`/`--resume` and the daemon's journal replay
/// use.
#[derive(Clone, Debug)]
pub struct CheckpointResumeRow {
    /// Human-readable instance name, e.g. `Sc^14(d=8)`.
    pub instance: String,
    /// Wall-clock of the uninterrupted cold repair.
    pub cold: Duration,
    /// Deadline the aborted run was given (starts at half the cold time;
    /// widened if it fired before the first checkpointable boundary).
    pub abort_after: Duration,
    /// Offer index recorded in the slot the abort left behind.
    pub checkpoint_iteration: u64,
    /// Wall-clock of the repair resumed from the slot.
    pub resumed: Duration,
    /// `cold / resumed`.
    pub speedup: f64,
    /// Root-for-root parity between the resumed and the cold repair
    /// (cold roots exported, re-imported into the resumed manager, and
    /// compared — order-robust).
    pub parity: bool,
    /// Resumed repair independently re-verified (masking + realizability).
    pub verified: bool,
}

/// The checkpoint-resume ablation: cold-repair the chain, re-run it under
/// a deadline with a [`Checkpointer`] writing into a real
/// [`CheckpointStore`] (the abort's forced write lands the resume point),
/// then repair once more seeded from the reopened slot and compare.
///
/// [`Checkpointer`]: ftrepair_core::Checkpointer
/// [`CheckpointStore`]: ftrepair_store::CheckpointStore
pub fn ablation_checkpoint_resume(sizes: &[(usize, u64)]) -> Vec<CheckpointResumeRow> {
    use ftrepair_core::{lazy_repair_warm, CheckpointPolicy, Checkpointer, Token, WarmSeeds};
    use ftrepair_store::{
        content_key, find_artifact, CheckpointStore, ART_INVARIANT, ART_MS, ART_SPAN,
    };
    use std::sync::Arc;
    use std::time::Instant;

    let store_root =
        std::env::temp_dir().join(format!("ftrepair-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let ckpts = Arc::new(CheckpointStore::open(&store_root).expect("open bench checkpoint store"));
    let tele = Telemetry::off();

    let rows = sizes
        .iter()
        .map(|&(n, d)| {
            let instance = format!("Sc^{n}(d={d})");
            let opts = RepairOptions::default();
            let src = warm_chain_spec(n, d, false);
            let ast = ftrepair_lang::parse(&src).expect("chain parses");
            let factory = || ftrepair_lang::compile(&ast).expect("chain compiles");
            let key = content_key(&src, "lazy");

            // Cold baseline, roots exported for the parity check.
            let mut cold_prog = factory();
            let t0 = Instant::now();
            let cold_out = lazy_repair_warm(
                &mut cold_prog,
                &opts,
                &tele,
                &Token::unbounded(),
                &WarmSeeds::none(),
            )
            .expect("unbounded run cannot abort");
            let cold = t0.elapsed();
            assert!(!cold_out.failed, "cold repair failed on {instance}");
            let cold_exports = {
                let m = cold_prog.cx.mgr_ref();
                [m.export(cold_out.invariant), m.export(cold_out.span), m.export(cold_out.trans)]
            };
            drop(cold_prog);

            // Aborted run: a deadline at half the cold time; the offer
            // preceding the aborting governance check force-writes the
            // slot. A deadline that fires before the first boundary with
            // anything to save leaves no slot — widen and retry; one that
            // the whole repair beats (timer noise) is shrunk.
            let mut abort_after = cold / 2;
            for attempt in 0.. {
                assert!(attempt < 6, "no checkpoint slot after {attempt} attempts on {instance}");
                let _ = ckpts.clear(&key);
                let sink_store = Arc::clone(&ckpts);
                let sink_key = key.clone();
                let token = Token::deadline_in(abort_after).with_checkpointer(Arc::new(
                    Checkpointer::new(CheckpointPolicy::default(), move |img| {
                        let arts = [
                            (ART_INVARIANT.to_string(), img.invariant.clone()),
                            (ART_SPAN.to_string(), img.span.clone()),
                            (ART_MS.to_string(), img.ms.clone()),
                        ];
                        sink_store
                            .put(&sink_key, img.iteration, &arts)
                            .expect("bench checkpoint write");
                    }),
                ));
                let mut prog = factory();
                match lazy_repair_warm(&mut prog, &opts, &tele, &token, &WarmSeeds::none()) {
                    Err(_) if ckpts.get(&key).is_some() => break,
                    Err(_) => abort_after += cold / 4,
                    Ok(_) => abort_after = abort_after.mul_f64(0.5),
                }
            }
            let slot = ckpts.get(&key).expect("slot exists after the retry loop");

            // Resume: reopen the slot off disk, seed, run to completion.
            let mut prog = factory();
            let seeds = WarmSeeds {
                invariant: find_artifact(&slot.artifacts, ART_INVARIANT)
                    .map(|a| prog.cx.mgr().try_import(a).expect("invariant imports")),
                span: find_artifact(&slot.artifacts, ART_SPAN)
                    .map(|a| prog.cx.mgr().try_import(a).expect("span imports")),
            };
            assert!(!seeds.is_empty(), "slot for {instance} is missing its artifacts");
            for seed_root in seeds.roots() {
                prog.cx.mgr().protect(seed_root);
            }
            let t0 = Instant::now();
            let out = lazy_repair_warm(&mut prog, &opts, &tele, &Token::unbounded(), &seeds)
                .expect("unbounded run cannot abort");
            let resumed = t0.elapsed();
            assert!(!out.failed, "resumed repair failed on {instance}");
            let verified = {
                let (m, r) = verify_outcome(&mut prog, &out);
                m.ok() && r.ok()
            };
            let parity = {
                let m = prog.cx.mgr();
                m.try_import(&cold_exports[0]) == Ok(out.invariant)
                    && m.try_import(&cold_exports[1]) == Ok(out.span)
                    && m.try_import(&cold_exports[2]) == Ok(out.trans)
            };
            CheckpointResumeRow {
                instance,
                cold,
                abort_after,
                checkpoint_iteration: slot.iteration,
                resumed,
                speedup: cold.as_secs_f64() / resumed.as_secs_f64().max(f64::EPSILON),
                parity,
                verified,
            }
        })
        .collect();

    let _ = std::fs::remove_dir_all(&store_root);
    rows
}

/// Render checkpoint-resume ablation rows as a markdown table.
pub fn render_checkpoint_resume(rows: &[CheckpointResumeRow], title: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "### {title}\n").unwrap();
    writeln!(
        out,
        "| Instance | Cold total | Aborted after | Slot @ offer | Resumed total | Speedup | Parity | Verified |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            out,
            "| {} | {:.3}s | {:.3}s | {} | {:.3}s | {:.2}× | {} | {} |",
            r.instance,
            r.cold.as_secs_f64(),
            r.abort_after.as_secs_f64(),
            r.checkpoint_iteration,
            r.resumed.as_secs_f64(),
            r.speedup,
            if r.parity { "exact" } else { "DIVERGED" },
            if r.verified { "yes" } else { "NO" },
        )
        .unwrap();
    }
    out
}

/// Render rows as a markdown table (paper style).
pub fn render(rows: &[Row], title: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "### {title}\n").unwrap();
    writeln!(
        out,
        "| Instance | Reachable states | Cautious | Lazy Step 1 | Lazy Step 2 | Lazy total | Speedup | Verified |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        let cautious =
            r.cautious.map(|d| format!("{:.3}s", d.as_secs_f64())).unwrap_or_else(|| "—".into());
        let speedup = r
            .cautious
            .map(|c| format!("{:.1}×", c.as_secs_f64() / r.lazy_total().as_secs_f64()))
            .unwrap_or_else(|| "—".into());
        let verdict = if r.failed {
            "failed"
        } else if r.verified {
            "✓"
        } else {
            "✗"
        };
        writeln!(
            out,
            "| {} | 10^{:.1} | {} | {:.3}s | {:.3}s | {:.3}s | {} | {} |",
            r.instance,
            r.reachable_states.log10(),
            cautious,
            r.step1.as_secs_f64(),
            r.step2.as_secs_f64(),
            r.lazy_total().as_secs_f64(),
            speedup,
            verdict,
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_byzantine_row() {
        let row = measure("BA^1", || byzantine_agreement(1).0, &RepairOptions::default(), true);
        assert!(row.verified);
        assert!(row.cautious.is_some());
        assert!(row.reachable_states > 0.0);
        assert!(row.lazy_total() > Duration::ZERO);
        // The attached report is a valid JSONL line in the CLI schema.
        let j = ftrepair_telemetry::Json::parse(&row.report.to_json_line()).unwrap();
        assert_eq!(j.get("case").unwrap().as_str(), Some("BA^1"));
        assert_eq!(j.get("mode").unwrap().as_str(), Some("lazy"));
        assert_eq!(j.get("verified").unwrap().as_bool(), Some(true));
        assert_eq!(
            j.get("counters").unwrap().get("repair.outer_iterations").unwrap().as_u64(),
            Some(row.outer_iterations as u64)
        );
        assert!(j.get("caches").unwrap().get("apply").is_some());
    }

    #[test]
    fn reachable_count_for_chain() {
        let mut p = stabilizing_chain(3, 2).0;
        // Transient faults make everything reachable: 2^3 states.
        assert_eq!(reachable_states(&mut p), 8.0);
    }

    #[test]
    fn render_produces_markdown() {
        let rows = vec![Row {
            instance: "X^1".into(),
            reachable_states: 1000.0,
            cautious: Some(Duration::from_millis(60)),
            step1: Duration::from_millis(5),
            step2: Duration::from_millis(5),
            outer_iterations: 1,
            verified: true,
            failed: false,
            report: RunReport::new("X^1", "lazy"),
        }];
        let md = render(&rows, "Demo");
        assert!(md.contains("### Demo"));
        assert!(md.contains("X^1"));
        assert!(md.contains("10^3.0"));
        assert!(md.contains("6.0×"));
    }
}
