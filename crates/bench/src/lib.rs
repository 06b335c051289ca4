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
//! reachable-states heuristic and `ExpandGroup`/closed-form Step 2) and
//! four of our own: warm start from a stored neighbor, resume from a
//! mid-repair checkpoint, verification by fault-span certificate, and
//! Step 1's reachability breadth-first against chained over writer parts.
//!
//! Every measured repair is re-verified (masking + realizability) before a
//! row is reported, and every timed repair runs on a thread of its own, so
//! it starts from empty kernel tables whatever ran before it. Rows carry
//! the measured reachable-state counts so the tables are self-describing,
//! and every row also carries the same JSONL [`RunReport`] the CLI's
//! `--metrics-out` emits (one schema, two producers). Use `cargo run
//! --release -p ftrepair-bench --bin tables -- all` for the paper-style
//! output; the end-to-end and per-layer benchmark of the engine and the
//! daemon is the separate `ledger/` package.

use ftrepair_casestudies::{byzantine_agreement, byzantine_failstop, stabilizing_chain};
use ftrepair_core::{
    build_run_report, cautious_repair, lazy_repair_traced, verify::verify_outcome, LazyOutcome,
    RepairOptions, Token,
};
use ftrepair_program::DistributedProgram;
use ftrepair_server::job::{self, JobResult, JobSpec, Mode, Tiers, WarmInfo};
use ftrepair_server::ServerConfig;
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
    let reach = chained_reach(prog).reach;
    prog.cx.count_states(reach)
}

/// Step 1's reachability from the invariant under `δ_P ∪ f`: chained over
/// the program's writer parts, exactly as the repair's Phase 3 runs it.
fn chained_reach(prog: &mut DistributedProgram) -> Fixpoint {
    let t = prog.program_trans();
    let combined = prog.cx.mgr().or(t, prog.faults);
    let frames = prog.write_frames();
    let parts = prog.cx.split_by_frames(combined, &frames);
    let inv = prog.invariant;
    let (reach, sweeps) = prog.cx.forward_reachable_keep(inv, &parts, &[]);
    Fixpoint { reach, parts: parts.len(), sweeps }
}

/// Run `f` on a new thread, with a daemon worker's stack, and return what
/// it returns. A BDD manager starts from the tables the last manager
/// dropped on its thread left behind, so a repair timed on the harness's
/// own thread would be credited with whatever ran before it; on a new
/// thread every timed side starts from the same, empty tables.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(ftrepair_lang::parser::WORKER_STACK_SIZE)
            .spawn_scoped(scope, f)
            .expect("spawn a measuring thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// One chained reachability fixpoint: its result, the number of parts it
/// chained over, and its sweeps.
struct Fixpoint {
    reach: ftrepair_bdd::NodeId,
    parts: usize,
    sweeps: usize,
}

/// Run lazy repair on a fresh instance from `factory`, verify the result,
/// and measure the paper's quantities. Optionally also run cautious repair
/// (on another fresh instance, so BDD caches don't cross-contaminate).
/// Each repair runs on a thread of its own.
pub fn measure(
    label: impl Into<String>,
    factory: impl Fn() -> DistributedProgram + Sync,
    opts: &RepairOptions,
    with_cautious: bool,
) -> Row {
    let label = label.into();
    let mut prog = factory();
    let reachable = reachable_states(&mut prog);

    let (out, mut report, verified) = on_fresh_thread(|| {
        let mut prog = factory();
        let tele = Telemetry::new();
        // Bench runs carry no deadline, so an abort is impossible here.
        let out: LazyOutcome =
            lazy_repair_traced(&mut prog, opts, &tele).expect("bench runs have no deadline");
        // Report before verification: the verifier's BDD traffic must not
        // pollute the run's cache hit rates.
        let report =
            build_run_report(&label, "lazy", opts, &out.stats, out.failed, &tele, &prog.cx);
        let verified = if out.failed {
            false
        } else {
            let (m, r) = verify_outcome(&mut prog, &out);
            m.ok() && r.ok()
        };
        (out, report, verified)
    });
    report.set("reachable_states", reachable.into());
    report.set("verified", verified.into());

    let cautious = with_cautious.then(|| {
        on_fresh_thread(|| {
            let mut prog = factory();
            let c = cautious_repair(&mut prog, opts).expect("bench runs have no deadline");
            assert!(!c.failed, "cautious repair failed on {}", prog.name);
            c.stats.total_time()
        })
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

/// One row of the root-parity harness: a repair's verdicts and the
/// SHA-256 of its exported invariant, fault-span and relation. Two builds
/// that print the same rows computed the same roots.
#[derive(Clone, Debug)]
pub struct DigestRow {
    /// Instance label, e.g. `Sc^6(d=4)`.
    pub instance: String,
    /// Cautious repair rather than lazy.
    pub cautious: bool,
    /// The reachable-states heuristic (Section V-A) was on.
    pub heuristic: bool,
    /// The repair declared failure.
    pub failed: bool,
    /// The repair passed both verifiers (false when it failed).
    pub verified: bool,
    /// SHA-256 of the exported invariant, fault-span and relation, in
    /// that order.
    pub digests: [String; 3],
}

impl std::fmt::Display for DigestRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [invariant, span, trans] = &self.digests;
        write!(
            f,
            "{:<10} {:<8} heuristic={:<3} failed={:<5} verified={:<5} invariant={invariant} span={span} trans={trans}",
            self.instance,
            if self.cautious { "cautious" } else { "lazy" },
            if self.heuristic { "on" } else { "off" },
            self.failed,
            self.verified,
        )
    }
}

/// Repair `prog`, lazily or cautiously, with the reachable-states
/// heuristic on or off; verify the result and hash its exported roots.
pub fn root_digest(
    label: impl Into<String>,
    mut prog: DistributedProgram,
    cautious: bool,
    heuristic: bool,
) -> DigestRow {
    let opts = if heuristic { RepairOptions::default() } else { RepairOptions::pure_lazy() };
    let repair = if cautious { cautious_repair } else { ftrepair_core::lazy_repair };
    let out = repair(&mut prog, &opts).expect("bench runs have no deadline");
    let verified = !out.failed && {
        let (m, r) = verify_outcome(&mut prog, &out);
        m.ok() && r.ok()
    };
    let digests = [out.invariant, out.span, out.trans].map(|root| export_digest(&prog, root));
    DigestRow { instance: label.into(), cautious, heuristic, failed: out.failed, verified, digests }
}

/// SHA-256 of one root's manager-independent export.
fn export_digest(prog: &DistributedProgram, root: ftrepair_bdd::NodeId) -> String {
    ftrepair_store::sha256_hex(&prog.cx.mgr_ref().export(root).to_bytes())
}

/// One row of the input-parity set: the SHA-256 of an instance's
/// invariant, faults, bad states, bad transitions and every process's
/// relation, each conjoined with its state or transition universe. Two
/// builds that print the same row built the same program.
pub fn input_digest(label: &str, mut prog: DistributedProgram) -> String {
    let (states, transitions) = (prog.cx.state_universe(), prog.cx.transition_universe());
    let mut roots = vec![
        ("invariant".to_string(), prog.invariant, states),
        ("faults".to_string(), prog.faults, transitions),
        ("badstates".to_string(), prog.safety.bad_states, states),
        ("badtrans".to_string(), prog.safety.bad_trans, transitions),
    ];
    roots.extend(prog.processes.iter().map(|p| (p.name.clone(), p.trans, transitions)));
    let mut line = format!("{label:<10} input   ");
    for (name, root, universe) in roots {
        let root = prog.cx.mgr().and(root, universe);
        line += &format!(" {name}={}", export_digest(&prog, root));
    }
    line
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
    /// Did warm and cold produce the same invariant, span, and repaired
    /// transition relation? Checked exactly on their exports: equal
    /// functions export equal DAGs under one variable order.
    pub parity: bool,
}

/// The stabilizing chain `Sc^n` as the warm-start ablation repairs it, so
/// the ablation exercises the same text → fingerprint → store → seed
/// pipeline the daemon uses. `edited` adds one action to the first cell —
/// a different content key at fingerprint distance 1
/// ([`ftrepair_casestudies::chain_spec`]).
pub fn warm_chain_spec(n: usize, d: u64, edited: bool) -> String {
    ftrepair_casestudies::chain_spec(n, d, edited.then_some(1))
}

/// The exported roots of a verified repair (relation, invariant,
/// fault-span), for the ablations' parity checks.
type Roots = Option<Vec<(String, ftrepair_bdd::SerializedBdd)>>;

/// One lazy job of Ablation E or F, through the daemon's pipeline
/// ([`job::execute`]) under `token`, seeded with `warm`. It exports its
/// roots, so two runs have parity when their [`Roots`] are equal.
fn run_job(spec: &JobSpec, tele: &Telemetry, token: &Token, warm: Option<&WarmInfo>) -> JobResult {
    job::execute(spec, tele, false, token, warm, true).expect("bench runs have no deadline")
}

/// A finished job as the table row `instance`, with its exported roots.
fn job_row(instance: String, reachable_states: f64, result: JobResult) -> (Row, Roots) {
    let verified = result.verified();
    let mut report = result.report;
    report.set("case", instance.as_str().into());
    report.set("reachable_states", reachable_states.into());
    report.set("verified", verified.into());
    let row = Row {
        instance,
        reachable_states,
        cautious: None,
        step1: result.stats.step1_time,
        step2: result.stats.step2_time,
        outer_iterations: result.stats.outer_iterations,
        verified,
        failed: result.failed,
        report,
    };
    (row, result.artifacts)
}

/// The lazy job of a chain text, under the default options.
fn chain_job(text: &str) -> JobSpec {
    job::prepare(text, Mode::Lazy, RepairOptions::default()).expect("chain parses")
}

/// The warm-start ablation, through the daemon's [`Tiers`]: repair the
/// unedited chain and write it through to a throwaway
/// [`DiskStore`](ftrepair_store::DiskStore), then repair the
/// one-action-edited chain twice — cold, and warm from the seed the tiers'
/// fingerprint nearest-neighbor lookup finds (the full serialize → disk →
/// decode → import round trip). Each row reports the speedup and an exact
/// parity check between the two repairs.
pub fn ablation_warm_start(sizes: &[(usize, u64)]) -> Vec<WarmStartRow> {
    let store_root =
        std::env::temp_dir().join(format!("ftrepair-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let store = ftrepair_store::DiskStore::open(&store_root, 0, &Telemetry::off())
        .expect("open bench store");
    let tiers = Tiers::new(Some(store), None, &ServerConfig::default(), &Telemetry::off());
    let run = |spec: &JobSpec, warm: Option<&WarmInfo>| {
        on_fresh_thread(|| run_job(spec, &Telemetry::new(), &Token::unbounded(), warm))
    };

    let rows = sizes
        .iter()
        .map(|&(n, d)| {
            let instance = format!("Sc^{n}(d={d})");

            // Donor: the unedited chain, written through as the daemon
            // writes a verified miss.
            let donor = chain_job(&warm_chain_spec(n, d, false));
            let mut result = run(&donor, None);
            let write = tiers.settle(&donor, &mut result).expect("the donor repair verifies");
            tiers.write(&write).expect("store donor entry");

            // The edited spec, cold and then seeded by the tiers.
            let edited = chain_job(&warm_chain_spec(n, d, true));
            let mut prog = ftrepair_lang::compile(&edited.ast).expect("edited compiles");
            let reachable = reachable_states(&mut prog);
            let (cold, cold_roots) =
                job_row(format!("{instance} cold"), reachable, run(&edited, None));
            let seed = tiers.seed(&edited).expect("donor is within warm distance");
            let result = run(&edited, Some(&seed));
            assert!(result.warm_used, "the donor did not seed {instance}");
            let (warm, warm_roots) = job_row(format!("{instance} warm"), reachable, result);

            let speedup =
                cold.lazy_total().as_secs_f64() / warm.lazy_total().as_secs_f64().max(f64::EPSILON);
            let parity = cold_roots.is_some() && cold_roots == warm_roots;
            WarmStartRow { neighbor_distance: seed.distance, cold, warm, speedup, parity }
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
/// slot behind), and resumed from that slot — through the [`Tiers`] the
/// CLI's `repair --checkpoint-dir` and the daemon use, with their
/// serialize → disk → decode → import round trip.
#[derive(Clone, Debug)]
pub struct CheckpointResumeRow {
    /// Human-readable instance name, e.g. `Sc^14(d=8)`.
    pub instance: String,
    /// Repair time (Step 1 + Step 2) of the uninterrupted cold run.
    pub cold: Duration,
    /// Deadline the aborted run was given (starts at half the cold time;
    /// widened if it fired before the first checkpointable boundary).
    pub abort_after: Duration,
    /// Offer index recorded in the slot the abort left behind.
    pub checkpoint_iteration: u64,
    /// Repair time (Step 1 + Step 2) of the run resumed from the slot.
    pub resumed: Duration,
    /// `cold / resumed`.
    pub speedup: f64,
    /// Do the resumed and the cold repair export the same roots?
    pub parity: bool,
    /// Resumed repair independently re-verified (masking + realizability).
    pub verified: bool,
}

/// The checkpoint-resume ablation: cold-repair the chain, re-run it under
/// a deadline with the [`Tiers`]' checkpoint sink writing into a real
/// [`CheckpointStore`](ftrepair_store::CheckpointStore) (the abort's
/// forced write lands the resume point), then repair once more from the
/// seed the tiers read back from the slot, and compare.
pub fn ablation_checkpoint_resume(sizes: &[(usize, u64)]) -> Vec<CheckpointResumeRow> {
    let store_root =
        std::env::temp_dir().join(format!("ftrepair-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let ckpts =
        ftrepair_store::CheckpointStore::open(&store_root).expect("open bench checkpoint store");
    let tiers = Tiers::new(None, Some(ckpts), &ServerConfig::default(), &Telemetry::off());
    let slots = tiers.checkpoints().expect("the tiers hold the slots");
    let tele = Telemetry::off();

    let rows = sizes
        .iter()
        .map(|&(n, d)| {
            let instance = format!("Sc^{n}(d={d})");
            let spec = chain_job(&warm_chain_spec(n, d, false));

            // Cold baseline, roots exported for the parity check. Every
            // run, the aborted ones too, starts from empty tables.
            let cold = on_fresh_thread(|| run_job(&spec, &tele, &Token::unbounded(), None));
            assert!(!cold.failed, "cold repair failed on {instance}");
            let cold_time = cold.stats.total_time();

            // Aborted run: a deadline at half the cold time; the offer
            // preceding the aborting governance check force-writes the
            // slot. A deadline that fires before the first boundary with
            // anything to save leaves no slot — widen and retry; one that
            // the whole repair beats (timer noise) is shrunk.
            let mut abort_after = cold_time / 2;
            for attempt in 0.. {
                assert!(attempt < 6, "no checkpoint slot after {attempt} attempts on {instance}");
                let _ = slots.clear(&spec.key);
                let token = tiers.arm(Token::deadline_in(abort_after), &spec.key);
                match on_fresh_thread(|| job::execute(&spec, &tele, false, &token, None, false)) {
                    Err(_) if slots.get(&spec.key).is_some() => break,
                    Err(_) => abort_after += cold_time / 4,
                    Ok(_) => abort_after = abort_after.mul_f64(0.5),
                }
            }

            // Resume: the tiers seed the run from the slot on disk, and
            // retire it once the run finishes.
            let seed = tiers.seed(&spec).expect("the abort left a slot");
            let mut resumed =
                on_fresh_thread(|| run_job(&spec, &tele, &Token::unbounded(), Some(&seed)));
            assert!(resumed.warm_used, "the slot did not seed the resumed run on {instance}");
            let parity = cold.artifacts.is_some() && cold.artifacts == resumed.artifacts;
            tiers.settle(&spec, &mut resumed);
            let resumed_time = resumed.stats.total_time();
            CheckpointResumeRow {
                instance,
                cold: cold_time,
                abort_after,
                checkpoint_iteration: seed.checkpoint.expect("a slot seed has its offer index"),
                resumed: resumed_time,
                speedup: cold_time.as_secs_f64() / resumed_time.as_secs_f64().max(f64::EPSILON),
                parity,
                verified: resumed.verified(),
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

/// One measurement of the verify ablation: masking verification of the
/// same repair by the least-fixpoint oracle and by the fault-span
/// certificate, each on its own fresh repair with the repair's caches
/// still warm (as every job verifies).
#[derive(Clone, Debug)]
pub struct VerifyRow {
    /// Instance label, e.g. `BA^5 cautious`.
    pub instance: String,
    /// Wall-clock of the repair the certificate checked.
    pub repair: Duration,
    /// `verify_masking` (recomputes the fault-span).
    pub exact: Duration,
    /// `verify_masking_certified` (checks the repair's fault-span).
    pub certified: Duration,
    /// `exact / certified`.
    pub speedup: f64,
    /// The certificate held (no fallback to the least fixpoint).
    pub span_certified: bool,
    /// Both reports agree on every check field.
    pub agree: bool,
    /// The oracle's verdict.
    pub verified: bool,
}

/// Measure one verify-ablation row on two fresh instances from
/// `factory`, repaired lazily or, with `cautious`, by the baseline, each
/// on a thread of its own.
pub fn measure_verify(
    label: impl Into<String>,
    factory: impl Fn() -> DistributedProgram + Sync,
    cautious: bool,
) -> VerifyRow {
    use ftrepair_program::verify::{verify_masking, verify_masking_certified};
    use ftrepair_program::MaskingReport;
    use std::time::Instant;

    let instance = label.into();
    let run_repair = |prog: &mut DistributedProgram| {
        let opts = RepairOptions::default();
        let t0 = Instant::now();
        let out = if cautious {
            cautious_repair(prog, &opts)
        } else {
            lazy_repair_traced(prog, &opts, &Telemetry::off())
        }
        .expect("bench runs have no deadline");
        assert!(!out.failed, "repair failed on {instance}");
        (t0.elapsed(), out)
    };

    let (exact, exact_report) = on_fresh_thread(|| {
        let mut prog = factory();
        let (_, out) = run_repair(&mut prog);
        let t0 = Instant::now();
        let orig = prog.program_trans();
        let (inv, faults, safety) = (prog.invariant, prog.faults, prog.safety);
        let report =
            verify_masking(&mut prog.cx, orig, inv, out.trans, out.invariant, faults, &safety);
        (t0.elapsed(), report)
    });

    let (repair, certified, report) = on_fresh_thread(|| {
        let mut prog = factory();
        let (repair, out) = run_repair(&mut prog);
        let t0 = Instant::now();
        let report = verify_masking_certified(&mut prog, out.trans, out.invariant, out.span);
        (repair, t0.elapsed(), report)
    });

    VerifyRow {
        instance,
        repair,
        exact,
        certified,
        speedup: exact.as_secs_f64() / certified.as_secs_f64().max(f64::EPSILON),
        span_certified: report.span_certified,
        agree: MaskingReport { span_certified: false, ..report } == exact_report,
        verified: exact_report.ok(),
    }
}

/// Render verify-ablation rows as a markdown table.
pub fn render_verify(rows: &[VerifyRow], title: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "### {title}\n").unwrap();
    writeln!(
        out,
        "| Instance | Repair | verify_masking | Certificate | Speedup | Certified | Agrees | Verified |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            out,
            "| {} | {:.3}s | {:.1}ms | {:.1}ms | {:.1}× | {} | {} | {} |",
            r.instance,
            r.repair.as_secs_f64(),
            r.exact.as_secs_f64() * 1e3,
            r.certified.as_secs_f64() * 1e3,
            r.speedup,
            if r.span_certified { "yes" } else { "FELL BACK" },
            if r.agree { "yes" } else { "NO" },
            if r.verified { "yes" } else { "NO" },
        )
        .unwrap();
    }
    out
}

/// One measurement of the reachability ablation: the states reachable from
/// the invariant under `δ_P ∪ f`, computed breadth-first over the union
/// and chained over the writer parts, each on its own fresh instance.
#[derive(Clone, Debug)]
pub struct ReachRow {
    /// Instance label, e.g. `Sc^12(d=8)`.
    pub instance: String,
    /// Size of the reachable set.
    pub states: f64,
    /// Breadth-first iterations over the union, the last one included.
    pub bfs_iterations: usize,
    /// Wall-clock of the breadth-first fixpoint.
    pub bfs_time: Duration,
    /// Live-node high-water mark of the breadth-first instance.
    pub bfs_peak: usize,
    /// Parts the chained fixpoint applies in turn (writer parts, then the
    /// steps no single writer covers).
    pub parts: usize,
    /// Chained sweeps, the last one included.
    pub sweeps: usize,
    /// Wall-clock of the chained fixpoint, frames and split included.
    pub chained_time: Duration,
    /// Live-node high-water mark of the chained instance.
    pub chained_peak: usize,
    /// The chained root, exported and imported into the breadth-first
    /// manager, is the breadth-first root.
    pub same_root: bool,
}

/// Measure one reachability-ablation row on two fresh instances from
/// `factory`, each on a thread of its own. Each arms the repair's
/// garbage-collection trigger ([`ftrepair_core::GC_THRESHOLD`]), so the
/// peaks are what a repair's Phase 3 sees. The breadth-first side is
/// `forward_reachable_keep` over the single part `δ_P ∪ f`: it takes
/// exactly the images of the monolithic `forward_reachable`, and counts
/// them.
pub fn measure_reach(
    label: impl Into<String>,
    factory: impl Fn() -> DistributedProgram + Sync,
) -> ReachRow {
    use std::time::Instant;

    let fresh = || {
        let mut prog = factory();
        prog.cx.mgr().set_gc_threshold(ftrepair_core::GC_THRESHOLD);
        prog.protect_base();
        prog
    };

    let (mut bfs, bfs_reach, bfs_iterations, bfs_time) = on_fresh_thread(|| {
        let mut bfs = fresh();
        let t0 = Instant::now();
        let t = bfs.program_trans();
        let combined = bfs.cx.mgr().or(t, bfs.faults);
        let inv = bfs.invariant;
        let (reach, iterations) = bfs.cx.forward_reachable_keep(inv, &[combined], &[]);
        (bfs, reach, iterations, t0.elapsed())
    });

    let (chained, fix, chained_time) = on_fresh_thread(|| {
        let mut chained = fresh();
        let t0 = Instant::now();
        let fix = chained_reach(&mut chained);
        (chained, fix, t0.elapsed())
    });

    let exported = chained.cx.mgr_ref().export(fix.reach);
    ReachRow {
        instance: label.into(),
        states: bfs.cx.count_states(bfs_reach),
        bfs_iterations,
        bfs_time,
        bfs_peak: bfs.cx.mgr_ref().stats().peak_live_nodes,
        parts: fix.parts,
        sweeps: fix.sweeps,
        chained_time,
        chained_peak: chained.cx.mgr_ref().stats().peak_live_nodes,
        same_root: bfs.cx.mgr().try_import(&exported) == Ok(bfs_reach),
    }
}

/// Render reachability-ablation rows as a markdown table.
pub fn render_reach(rows: &[ReachRow], title: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "### {title}\n").unwrap();
    writeln!(
        out,
        "| Instance | Reachable states | BFS iterations | BFS time | BFS peak nodes | Parts | Chained sweeps | Chained time | Chained peak nodes | Speedup | Same root |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            out,
            "| {} | 10^{:.1} | {} | {:.1}ms | {} | {} | {} | {:.1}ms | {} | {:.1}× | {} |",
            r.instance,
            r.states.log10(),
            r.bfs_iterations,
            r.bfs_time.as_secs_f64() * 1e3,
            r.bfs_peak,
            r.parts,
            r.sweeps,
            r.chained_time.as_secs_f64() * 1e3,
            r.chained_peak,
            r.bfs_time.as_secs_f64() / r.chained_time.as_secs_f64().max(f64::EPSILON),
            if r.same_root { "yes" } else { "NO" },
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

    /// The hand-written example specs are the generated TMR(3) and 3×3
    /// token ring: the same invariant, faults, safety specification and
    /// process relations on the universe.
    #[test]
    fn example_specs_are_the_generated_instances() {
        let example = |name: &str| {
            let path = format!("{}/../../examples/specs/{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            ftrepair_lang::load(&text).unwrap()
        };
        let tmr = ftrepair_casestudies::tmr(3).0;
        assert_eq!(input_digest("TMR(3)", example("tmr_voter.ftr")), input_digest("TMR(3)", tmr));
        let ring = ftrepair_casestudies::token_ring(3, 3).0;
        assert_eq!(input_digest("Ring", example("token_ring.ftr")), input_digest("Ring", ring));
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
