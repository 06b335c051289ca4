//! The repair job pipeline shared by the daemon's requests, its journal
//! replay, and the CLI's `repair` and `simulate`: canonicalize a spec,
//! address it, seed it from the store tiers, run and verify the repair,
//! and (for small instances) build the explicit bundle that fault-injection
//! simulation replays.

use ftrepair_bdd::{NodeId, SerializedBdd};
use ftrepair_core::{
    build_run_report, cautious_repair_cancellable, lazy_repair_warm, verify::verify_outcome,
    CheckpointPolicy, Checkpointer, LazyOutcome, RepairAborted, RepairOptions, RepairStats, Token,
    WarmSeeds,
};
use ftrepair_explicit::extract::{bdd_to_edges, bdd_to_states, ExplicitProgram};
use ftrepair_explicit::simulate::{simulate, SimConfig, SimFailure, SimReport};
use ftrepair_lang::ast::Program as Ast;
use ftrepair_program::Process;
use ftrepair_store::{
    find_artifact, CheckpointStore, DiskStore, NewEntry, SpecFingerprint, ART_INVARIANT, ART_MS,
    ART_SPAN, ART_TRANS,
};
use ftrepair_telemetry::{Json, RunReport, Telemetry};
use std::collections::HashSet;
use std::sync::Arc;

/// Largest state space the simulation bundle is built for. The explicit
/// extraction is quadratic in the number of states, so it is reserved for
/// oracle-sized instances; larger specs still repair fine but answer
/// `/simulate` with an explanation instead.
pub const SIM_STATE_CAP: u64 = 4096;

/// Repair algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Algorithm 1 (the paper's contribution).
    Lazy,
    /// The cautious baseline of Section IV.
    Cautious,
}

impl Mode {
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Lazy => "lazy",
            Mode::Cautious => "cautious",
        }
    }
}

/// A validated, content-addressed job: spec in canonical form plus the
/// exact knobs the repair will run with.
#[derive(Debug)]
pub struct JobSpec {
    /// Program name from the spec.
    pub name: String,
    /// Canonical text (`parse` → `unparse`), the cache-key material.
    pub canonical: String,
    /// Parsed AST, kept so execution does not re-parse.
    pub ast: Ast,
    /// Algorithm.
    pub mode: Mode,
    /// Knobs (part of the content address — different options, different
    /// result).
    pub opts: RepairOptions,
    /// Content address (see [`crate::cache::content_key`]).
    pub key: String,
}

impl JobSpec {
    /// Structural fingerprint for near-key lookups in the disk store: a
    /// resubmitted spec that differs in a few actions can find its nearest
    /// cached neighbor and warm-start from its artifacts. Computed on
    /// demand, since only the miss paths (warm lookup, store write) read
    /// it and a cache hit should not pay for it.
    pub fn fingerprint(&self) -> SpecFingerprint {
        SpecFingerprint::of(&self.ast)
    }
}

/// The options half of the content key, a short stable string. It is an
/// *explicit* field list, not a derive over the whole struct: `deadline`
/// and `max_nodes` bound whether a job finishes, never what it computes,
/// and aborted runs are never cached — including them would fragment the
/// cache, and the same spec run under ten budgets would compute the same
/// repair ten times.
/// Two retired knobs stay in the text at their only remaining value, so
/// stores and journals written before their removal keep their keys: `p0`
/// (parallel Step 2, always off) and `:auto` (the reorder mode; the
/// variable order is now fixed).
pub fn options_fingerprint(mode: Mode, o: &RepairOptions) -> String {
    format!(
        "{}:r{}c{}e{}p0t{}m{}:auto",
        mode.as_str(),
        o.restrict_to_reachable as u8,
        o.step2_closed_form as u8,
        o.use_expand_group as u8,
        o.allow_new_terminal_inside as u8,
        o.max_outer_iterations,
    )
}

/// Invert [`options_fingerprint`]: parse `"lazy:r1c1e1p0t1m32:auto"` back
/// into the mode and options it encodes. Used by boot recovery to replay a
/// journaled job exactly as it was submitted — the journal stores the
/// fingerprint, not the options struct, so the two stay in lockstep by
/// construction (see the roundtrip test). Budgets (`deadline`,
/// `max_nodes`) are not in the fingerprint; the caller re-applies the
/// server's own limits. A `p1` (parallel Step 2) or a `:none`/`:sift`
/// reorder mode, both since removed, does not parse: that job cannot be
/// rerun under the key it was recorded with.
pub fn options_from_fingerprint(s: &str) -> Option<(Mode, RepairOptions)> {
    fn flag(rest: &str, tag: char) -> Option<(bool, &str)> {
        let rest = rest.strip_prefix(tag)?;
        let value = match rest.as_bytes().first()? {
            b'0' => false,
            b'1' => true,
            _ => return None,
        };
        Some((value, &rest[1..]))
    }
    let mut parts = s.split(':');
    let mode = match parts.next()? {
        "lazy" => Mode::Lazy,
        "cautious" => Mode::Cautious,
        _ => return None,
    };
    let flags = parts.next()?;
    if parts.next()? != "auto" || parts.next().is_some() {
        return None;
    }
    let (restrict_to_reachable, rest) = flag(flags, 'r')?;
    let (step2_closed_form, rest) = flag(rest, 'c')?;
    let (use_expand_group, rest) = flag(rest, 'e')?;
    let rest = rest.strip_prefix("p0")?;
    let (allow_new_terminal_inside, rest) = flag(rest, 't')?;
    let max_outer_iterations = rest.strip_prefix('m')?.parse().ok()?;
    Some((
        mode,
        RepairOptions {
            restrict_to_reachable,
            step2_closed_form,
            use_expand_group,
            allow_new_terminal_inside,
            max_outer_iterations,
            ..RepairOptions::default()
        },
    ))
}

/// Parse and canonicalize a spec. The error string is ready to serve as an
/// HTTP 400 body ("parse error: …").
pub fn prepare(source: &str, mode: Mode, opts: RepairOptions) -> Result<JobSpec, String> {
    let ast = ftrepair_lang::parse(source).map_err(|e| format!("parse error: {e}"))?;
    let canonical = ftrepair_lang::unparse(&ast);
    let key = crate::cache::content_key(&canonical, &options_fingerprint(mode, &opts));
    Ok(JobSpec { name: ast.name.clone(), canonical, ast, mode, opts, key })
}

/// Everything `/simulate` needs, explicit and manager-free so it can live
/// in the cache across jobs (BDD node ids die with their manager; state
/// indices do not).
#[derive(Clone, Debug)]
pub struct SimBundle {
    /// The original program, fully enumerated (faults, bad states/trans).
    pub explicit: ExplicitProgram,
    /// The repaired transition relation as edges.
    pub trans: Vec<(u32, u32)>,
    /// The repaired invariant as a state set.
    pub invariant: HashSet<u32>,
}

/// Whether a cached repair can answer `/simulate` — and when it cannot,
/// precisely why, so the refusal is an explained `422` rather than a
/// panic or a shrug. (This used to be `Option<SimBundle>`, which conflated
/// "state space over the cap" with "count overflowed u64" with "artifacts
/// would not rebuild".)
#[derive(Clone, Debug)]
pub enum SimStatus {
    /// The instance enumerated; simulation can run. Boxed: the bundle
    /// carries a full explicit program and dwarfs the other variants.
    Ready(Box<SimBundle>),
    /// The state space is over [`SIM_STATE_CAP`]. `states` carries the
    /// exact count when it fit in a `u64`, `None` when even the count
    /// overflowed.
    TooLarge {
        /// Exact state count, when representable.
        states: Option<u64>,
    },
    /// No bundle exists: it was not requested at repair time, or the
    /// stored artifacts could not be rebuilt into one.
    Unavailable,
}

impl SimStatus {
    /// The bundle, when simulation can run.
    pub fn ready(&self) -> Option<&SimBundle> {
        match self {
            SimStatus::Ready(bundle) => Some(bundle),
            _ => None,
        }
    }

    /// The `422` body explaining why `/simulate` cannot run against this
    /// entry. Meaningless for [`SimStatus::Ready`].
    pub fn refusal(&self) -> String {
        match self {
            SimStatus::Ready(_) => "simulation available".to_string(),
            SimStatus::TooLarge { states: Some(n) } => format!(
                "state space exceeds {SIM_STATE_CAP} states ({n}); \
                 simulation is reserved for oracle-sized instances"
            ),
            SimStatus::TooLarge { states: None } => format!(
                "state space exceeds {SIM_STATE_CAP} states (count overflows u64); \
                 simulation is reserved for oracle-sized instances"
            ),
            SimStatus::Unavailable => "simulation bundle unavailable for this entry; \
                 resubmit the spec with a fresh repair to rebuild it"
                .to_string(),
        }
    }
}

/// A finished repair job.
#[derive(Debug)]
pub struct JobResult {
    /// The `/repair` response document (no `cached` flag yet).
    pub response: Json,
    /// The per-job JSONL run report (same schema as `--metrics-out`).
    pub report: RunReport,
    /// Did the algorithm declare failure (no repair exists)?
    pub failed: bool,
    /// Did the output pass the independent masking verifier? (`false` when
    /// `failed`.)
    pub masking: bool,
    /// Did the output pass the independent realizability verifier?
    /// (`false` when `failed`.)
    pub realizable: bool,
    /// Explicit bundle for simulation, or the reason there is none.
    pub sim: SimStatus,
    /// Repair statistics (iterations, phase times) for job introspection.
    pub stats: RepairStats,
    /// Serialized BDD artifacts (repaired transition relation, invariant,
    /// fault-span) for the disk store; only exported on request and only
    /// for verified successful repairs.
    pub artifacts: Option<Vec<(String, SerializedBdd)>>,
    /// Did a near-key neighbor's artifacts actually seed this repair?
    pub warm_used: bool,
}

impl JobResult {
    /// Did the output pass both independent verifiers?
    pub fn verified(&self) -> bool {
        self.masking && self.realizable
    }

    /// The disk-store write for this result, taking its artifacts — `None`
    /// unless the repair was verified and artifacts were exported.
    pub fn take_store_entry(&mut self, spec: &JobSpec) -> Option<NewEntry> {
        let artifacts = self.artifacts.take()?;
        Some(NewEntry {
            key: spec.key.clone(),
            case: spec.name.clone(),
            mode: spec.mode.as_str().to_string(),
            warm_start: self.warm_used,
            fingerprint: spec.fingerprint(),
            response: self.response.clone(),
            artifacts,
        })
    }
}

/// A cached neighbor's artifacts, handed to [`execute`] to seed the
/// repair's first reachability fixpoint.
#[derive(Debug)]
pub struct WarmInfo {
    /// Content address of the donor entry (reported in the response).
    pub neighbor: String,
    /// Fingerprint distance between donor and job (number of differing
    /// action hashes).
    pub distance: usize,
    /// The donor's repaired invariant.
    pub invariant: SerializedBdd,
    /// The donor's fault-span.
    pub span: SerializedBdd,
}

/// Fingerprint distance (differing action hashes) up to which a stored
/// neighbor is close enough to donate warm-start seeds. One edited action
/// costs 2 (one hash removed, one added), so this admits a handful of
/// action edits — beyond that the seed's head start fades and the lookup
/// is just wasted imports.
pub const WARM_MAX_DISTANCE: usize = 16;

/// This key's own mid-repair checkpoint slot, repackaged as warm-start
/// seeds at distance 0: a resumed run seeds Step 1 from where the
/// interrupted one stopped instead of from zero. Returns the slot's
/// iteration beside the seeds. Lazy mode only — the cautious baseline has
/// no seedable phase.
pub fn checkpoint_seed(ckpts: &CheckpointStore, spec: &JobSpec) -> Option<(u64, WarmInfo)> {
    if spec.mode != Mode::Lazy {
        return None;
    }
    let slot = ckpts.get(&spec.key)?;
    let invariant = find_artifact(&slot.artifacts, ART_INVARIANT)?.clone();
    let span = find_artifact(&slot.artifacts, ART_SPAN)?.clone();
    let neighbor = format!("checkpoint@{}", slot.iteration);
    Some((slot.iteration, WarmInfo { neighbor, distance: 0, invariant, span }))
}

/// The nearest stored neighbor within [`WARM_MAX_DISTANCE`], as warm-start
/// seeds: a resubmitted spec differing in a few actions imports the
/// neighbor's invariant and fault-span and seeds the first reachability
/// fixpoint. Lazy mode only.
pub fn neighbor_seed(store: &DiskStore, spec: &JobSpec) -> Option<WarmInfo> {
    if spec.mode != Mode::Lazy {
        return None;
    }
    let (neighbor, distance) = store.nearest(&spec.fingerprint(), WARM_MAX_DISTANCE)?;
    let mut artifacts = store.peek(&neighbor)?.artifacts;
    let mut take = |name: &str| {
        let i = artifacts.iter().position(|(n, _)| n == name)?;
        Some(artifacts.swap_remove(i).1)
    };
    let invariant = take(ART_INVARIANT)?;
    let span = take(ART_SPAN)?;
    Some(WarmInfo { neighbor, distance, invariant, span })
}

/// The checkpoint sink for one job: every policy-approved offer from the
/// repair loops (and the forced final offer when an abort is imminent)
/// lands the job's current `(invariant, span, ms)` in its slot —
/// crash-safely, so the slot is always the previous or the new snapshot,
/// never a torn one. `written` hears the key and how each write went.
pub fn checkpoint_sink(
    ckpts: &Arc<CheckpointStore>,
    key: &str,
    written: impl Fn(&str, std::io::Result<()>) + Send + Sync + 'static,
) -> Arc<Checkpointer> {
    let ckpts = Arc::clone(ckpts);
    let key = key.to_string();
    Arc::new(Checkpointer::new(CheckpointPolicy::default(), move |img| {
        let result = ckpts.put(
            &key,
            img.iteration,
            &[
                (ART_INVARIANT.to_string(), img.invariant.clone()),
                (ART_SPAN.to_string(), img.span.clone()),
                (ART_MS.to_string(), img.ms.clone()),
            ],
        );
        written(&key, result)
    }))
}

/// Why a job produced no result.
#[derive(Debug)]
pub enum ExecError {
    /// The spec is semantically broken ("compile error: …") — a client
    /// error, ready to serve as an HTTP 400 body.
    Invalid(String),
    /// The job's deadline, node budget, or cancellation token fired
    /// mid-repair — a transient server condition (503), never cached.
    Aborted(RepairAborted),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Invalid(msg) => f.write_str(msg),
            ExecError::Aborted(why) => write!(f, "{why}"),
        }
    }
}

/// Compile, optionally warm-start, and run one repair. Seeds are accepted
/// only for [`Mode::Lazy`] (the cautious baseline has no seedable phase).
/// Returns the outcome plus whether the seeds were actually used.
fn run_repair(
    prog: &mut ftrepair_program::DistributedProgram,
    spec: &JobSpec,
    tele: &Telemetry,
    token: &Token,
    seeds: &WarmSeeds,
) -> Result<(LazyOutcome, bool), ExecError> {
    match spec.mode {
        Mode::Lazy => {
            let out = lazy_repair_warm(prog, &spec.opts, tele, token, seeds)
                .map_err(ExecError::Aborted)?;
            Ok((out, !seeds.is_empty()))
        }
        Mode::Cautious => {
            let out = cautious_repair_cancellable(prog, &spec.opts, tele, token)
                .map_err(ExecError::Aborted)?;
            Ok((out, false))
        }
    }
}

/// Compile, repair, and independently verify a prepared job — the one
/// execution path behind every front end.
///
/// `token` bounds the run (deadline, node budget, cancel flag, and an
/// optional checkpoint sink); a fired token surfaces as
/// [`ExecError::Aborted`], a compile-time semantic error ("compile error:
/// …") as [`ExecError::Invalid`]. `build_sim` additionally extracts the
/// explicit bundle when the state space is at most [`SIM_STATE_CAP`]
/// states.
///
/// `warm` carries a cached neighbor's invariant/fault-span artifacts; when
/// they import cleanly (and the mode is lazy) they seed Step 1's first
/// reachability fixpoint. Seeding never changes the result — the seeded
/// span is clamped and Phase 4 shrinks it back to the fixpoint — but the
/// output is belt-and-braces re-verified anyway, and on the (never yet
/// observed) event of a warm run failing verification the job is rerun
/// cold from a fresh compile. `export_artifacts` additionally serializes
/// the repaired transition relation, invariant, and fault-span for the
/// disk store (verified successful repairs only).
pub fn execute(
    spec: &JobSpec,
    tele: &Telemetry,
    build_sim: bool,
    token: &Token,
    warm: Option<&WarmInfo>,
    export_artifacts: bool,
) -> Result<JobResult, ExecError> {
    let mut prog = ftrepair_lang::compile(&spec.ast)
        .map_err(|e| ExecError::Invalid(format!("compile error: {e}")))?;

    let seeds = match (spec.mode, warm) {
        (Mode::Lazy, Some(info)) => {
            let invariant = prog.cx.mgr().try_import(&info.invariant);
            let span = prog.cx.mgr().try_import(&info.span);
            match (invariant, span) {
                (Ok(invariant), Ok(span)) => {
                    WarmSeeds { invariant: Some(invariant), span: Some(span) }
                }
                _ => {
                    // Artifacts from an incompatible manager shape (e.g. a
                    // different variable count) — run cold, don't fail.
                    tele.add("repair.warm_import_failures", 1);
                    WarmSeeds::none()
                }
            }
        }
        _ => WarmSeeds::none(),
    };

    let (mut out, mut warm_used) = run_repair(&mut prog, spec, tele, token, &seeds)?;

    // Snapshot the report before the verifier pollutes cache hit rates.
    let report_for = |out: &LazyOutcome, prog: &ftrepair_program::DistributedProgram| {
        build_run_report(
            &spec.name,
            spec.mode.as_str(),
            &spec.opts,
            &out.stats,
            out.failed,
            tele,
            &prog.cx,
        )
    };
    let mut report = report_for(&out, &prog);
    let verify = |prog: &mut ftrepair_program::DistributedProgram, out: &LazyOutcome| {
        if out.failed {
            return (false, false);
        }
        let (m, r) = verify_outcome(prog, out);
        (m.ok(), r.ok())
    };

    let (mut masking, mut realizable) = verify(&mut prog, &out);
    if warm_used && !(out.failed || masking && realizable) {
        // Warm seeding is proven sound, but a cached artifact is still
        // external input: if the seeded run somehow fails the independent
        // verifiers, distrust the seed and redo the job cold from scratch
        // rather than serving an unverified repair.
        tele.add("repair.warm_verify_failures", 1);
        prog = ftrepair_lang::compile(&spec.ast)
            .map_err(|e| ExecError::Invalid(format!("compile error: {e}")))?;
        (out, _) = run_repair(&mut prog, spec, tele, token, &WarmSeeds::none())?;
        warm_used = false;
        report = report_for(&out, &prog);
        (masking, realizable) = verify(&mut prog, &out);
    }
    let verified = masking && realizable;

    let mut response = Json::obj();
    response.set("ok", true.into());
    response.set("key", spec.key.as_str().into());
    response.set("case", spec.name.as_str().into());
    response.set("mode", spec.mode.as_str().into());
    response.set("failed", out.failed.into());
    response.set("warm_start", warm_used.into());
    if warm_used {
        if let Some(info) = warm {
            response.set("warm_neighbor", info.neighbor.as_str().into());
            response.set("warm_distance", (info.distance as u64).into());
            report.set("warm_neighbor", info.neighbor.as_str().into());
            report.set("warm_distance", (info.distance as u64).into());
        }
    }

    let mut sim = SimStatus::Unavailable;
    let mut artifacts = None;
    if !out.failed {
        report.set("verified", verified.into());
        response.set("invariant_states", prog.cx.count_states(out.invariant).into());
        response.set("span_states", prog.cx.count_states(out.span).into());
        response.set("program", render_repaired(&mut prog, &out).into());
        if build_sim {
            sim = build_sim_bundle(&mut prog, out.trans, out.invariant);
        }
        if export_artifacts && verified {
            artifacts = Some(vec![
                (ART_TRANS.to_string(), prog.cx.mgr_ref().export(out.trans)),
                (ART_INVARIANT.to_string(), prog.cx.mgr_ref().export(out.invariant)),
                (ART_SPAN.to_string(), prog.cx.mgr_ref().export(out.span)),
            ]);
        }
    }
    response.set("verified", verified.into());
    response.set("report", report.0.clone());

    Ok(JobResult {
        response,
        report,
        failed: out.failed,
        masking,
        realizable,
        sim,
        stats: out.stats,
        artifacts,
        warm_used,
    })
}

/// Render the repaired program as guarded commands, restricted to the
/// fault-span exactly as the CLI does (realizability padding from
/// unreachable states would only confuse the reader).
fn render_repaired(prog: &mut ftrepair_program::DistributedProgram, out: &LazyOutcome) -> String {
    use std::fmt::Write;
    let mut text = String::new();
    writeln!(text, "// repaired program {}", prog.name).unwrap();
    for (j, p) in out.processes.iter().enumerate() {
        let reachable_part = prog.cx.mgr().and(p.trans, out.span);
        let shown = Process {
            name: p.name.clone(),
            read: p.read.clone(),
            write: p.write.clone(),
            trans: reachable_part,
        };
        writeln!(text, "{}", ftrepair_program::decompile::render_process(prog, &shown, j)).unwrap();
    }
    text
}

/// Enumerate the repaired program if it is small enough; otherwise report
/// exactly how oversized it is (count, or `None` when the product of the
/// variable domains overflows `u64` — those are different refusals).
fn build_sim_bundle(
    prog: &mut ftrepair_program::DistributedProgram,
    trans: NodeId,
    invariant: NodeId,
) -> SimStatus {
    let mut states: Option<u64> = Some(1);
    for v in prog.cx.var_ids() {
        states = states.and_then(|s| s.checked_mul(prog.cx.info(v).size));
    }
    match states {
        Some(n) if n <= SIM_STATE_CAP => {
            let explicit = ExplicitProgram::from_symbolic(prog);
            let trans = bdd_to_edges(prog, &explicit.space, trans);
            let invariant = bdd_to_states(prog, &explicit.space, invariant);
            SimStatus::Ready(Box::new(SimBundle { explicit, trans, invariant }))
        }
        over => SimStatus::TooLarge { states: over },
    }
}

/// Reconstruct the `/simulate` bundle for a repair promoted from the disk
/// store: recompile the spec and import the stored transition-relation and
/// invariant artifacts. A missing artifact or an import mismatch yields
/// [`SimStatus::Unavailable`]; an oversized state space yields the same
/// [`SimStatus::TooLarge`] a fresh repair would — each refuses `/simulate`
/// with its own explanation.
pub fn rebuild_sim_bundle(ast: &Ast, artifacts: &[(String, SerializedBdd)]) -> SimStatus {
    let Ok(mut prog) = ftrepair_lang::compile(ast) else {
        return SimStatus::Unavailable;
    };
    let trans = find_artifact(artifacts, ART_TRANS).and_then(|a| prog.cx.mgr().try_import(a).ok());
    let invariant =
        find_artifact(artifacts, ART_INVARIANT).and_then(|a| prog.cx.mgr().try_import(a).ok());
    match (trans, invariant) {
        (Some(trans), Some(invariant)) => build_sim_bundle(&mut prog, trans, invariant),
        _ => SimStatus::Unavailable,
    }
}

/// Run one fault-injection batch against a bundle.
pub fn run_simulation(bundle: &SimBundle, config: &SimConfig, seed: u64) -> SimReport {
    let mut rng = ftrepair_bdd::SplitMix64::seed_from_u64(seed);
    simulate(&bundle.explicit, &bundle.trans, &bundle.invariant, config, &mut rng)
}

/// Render a simulation report as the `/simulate` response fragment.
pub fn sim_report_json(report: &SimReport, seed: u64) -> Json {
    let mut j = Json::obj();
    j.set("runs", report.runs.into());
    j.set("steps", report.steps.into());
    j.set("faults_injected", report.faults_injected.into());
    j.set("seed", seed.into());
    j.set("ok", report.ok().into());
    match &report.failure {
        None => {
            j.set("failure", Json::Null);
        }
        Some(f) => {
            let (kind, trace) = match f {
                SimFailure::BadState(t) => ("bad_state", t),
                SimFailure::BadTransition(t) => ("bad_transition", t),
                SimFailure::NoRecovery(t) => ("no_recovery", t),
            };
            let mut fj = Json::obj();
            fj.set("kind", kind.into());
            fj.set("trace", Json::Arr(trace.iter().map(|&s| Json::from(u64::from(s))).collect()));
            j.set("failure", fj);
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOGGLE: &str = r#"
    program toggle;
    var x : 0..2;
    process p read x; write x;
    begin
      (x = 0) -> x := 1;
      (x = 1) -> x := 0;
    end
    fault hit begin (x = 1) -> x := 2; end
    invariant (x = 0) | (x = 1);
    "#;

    #[test]
    fn prepare_is_formatting_insensitive() {
        let a = prepare(TOGGLE, Mode::Lazy, RepairOptions::default()).unwrap();
        let squashed = TOGGLE.split_whitespace().collect::<Vec<_>>().join(" ");
        let b = prepare(&squashed, Mode::Lazy, RepairOptions::default()).unwrap();
        assert_eq!(a.key, b.key, "whitespace must not fragment the cache");
        let c = prepare(TOGGLE, Mode::Cautious, RepairOptions::default()).unwrap();
        assert_ne!(a.key, c.key, "mode is part of the address");
        let d = prepare(TOGGLE, Mode::Lazy, RepairOptions::pure_lazy()).unwrap();
        assert_ne!(a.key, d.key, "options are part of the address");
    }

    #[test]
    fn budgets_do_not_fragment_the_content_address() {
        // Deadline and node budget bound whether a run finishes, not what
        // it computes; a budgeted rerun must hit the unbudgeted cache.
        let plain = prepare(TOGGLE, Mode::Lazy, RepairOptions::default()).unwrap();
        let budgeted = RepairOptions {
            deadline: Some(std::time::Duration::from_secs(5)),
            max_nodes: 10_000,
            ..Default::default()
        };
        let bounded = prepare(TOGGLE, Mode::Lazy, budgeted).unwrap();
        assert_eq!(plain.key, bounded.key, "budgets are not part of the address");
    }

    #[test]
    fn prepare_rejects_malformed_specs() {
        let err = prepare("program oops", Mode::Lazy, RepairOptions::default()).unwrap_err();
        assert!(err.starts_with("parse error:"), "{err}");
    }

    #[test]
    fn execute_repairs_verifies_and_builds_sim_bundle() {
        let spec = prepare(TOGGLE, Mode::Lazy, RepairOptions::default()).unwrap();
        let token = Token::from_options(&spec.opts);
        let result = execute(&spec, &Telemetry::off(), true, &token, None, false).unwrap();
        assert!(!result.failed);
        assert!(result.masking && result.realizable);
        assert_eq!(result.response.get("ok").unwrap().as_bool(), Some(true));
        assert!(result.response.get("program").unwrap().as_str().unwrap().contains("(x = 2) ->"));

        let bundle = match &result.sim {
            SimStatus::Ready(bundle) => bundle,
            other => panic!("3 states is well under the cap, got {}", other.refusal()),
        };
        let report = run_simulation(bundle, &SimConfig::default(), 7);
        assert!(report.ok(), "{:?}", report.failure);
        assert!(report.faults_injected > 0);
        let j = sim_report_json(&report, 7);
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("failure"), Some(&Json::Null));
    }

    #[test]
    fn oversized_state_space_degrades_to_too_large_not_a_panic() {
        // Same toggle program, but with a 10 000-value domain: far over
        // SIM_STATE_CAP, so the bundle must degrade to an explained
        // refusal instead of enumerating (or panicking a worker).
        let big = TOGGLE.replace("0..2", "0..9999");
        let ast = ftrepair_lang::parse(&big).unwrap();
        let mut prog = ftrepair_lang::compile(&ast).unwrap();
        let status = build_sim_bundle(&mut prog, ftrepair_bdd::FALSE, ftrepair_bdd::FALSE);
        match &status {
            SimStatus::TooLarge { states: Some(n) } => assert_eq!(*n, 10_000),
            other => panic!("expected TooLarge with an exact count, got {other:?}"),
        }
        assert!(status.refusal().contains("state space exceeds"), "{}", status.refusal());
        assert!(status.refusal().contains("10000"), "{}", status.refusal());
        assert!(status.ready().is_none());
    }

    #[test]
    fn sim_refusals_distinguish_their_causes() {
        let overflow = SimStatus::TooLarge { states: None };
        assert!(overflow.refusal().contains("overflows u64"), "{}", overflow.refusal());
        let missing = SimStatus::Unavailable;
        assert!(missing.refusal().contains("unavailable"), "{}", missing.refusal());
    }

    #[test]
    fn options_fingerprint_roundtrips_through_the_parser() {
        // Every (mode, flag) combination the fingerprint can encode must
        // replay to options that re-fingerprint identically —
        // this is what makes journal replay faithful to the original
        // submission.
        let variants = [
            RepairOptions::default(),
            RepairOptions::pure_lazy(),
            RepairOptions {
                step2_closed_form: false,
                allow_new_terminal_inside: false,
                max_outer_iterations: 7,
                ..RepairOptions::default()
            },
            RepairOptions { use_expand_group: false, ..Default::default() },
        ];
        for mode in [Mode::Lazy, Mode::Cautious] {
            for opts in &variants {
                let fp = options_fingerprint(mode, opts);
                let (mode2, opts2) =
                    options_from_fingerprint(&fp).unwrap_or_else(|| panic!("parses: {fp}"));
                assert_eq!(mode2, mode, "{fp}");
                assert_eq!(options_fingerprint(mode2, &opts2), fp, "roundtrip: {fp}");
            }
        }
        // The default options' key text is pinned: stores and journals
        // written by earlier builds must keep addressing the same entries.
        assert_eq!(
            options_fingerprint(Mode::Lazy, &RepairOptions::default()),
            "lazy:r1c1e1p0t1m32:auto"
        );
        // A record submitted with the removed parallel Step 2 cannot be
        // replayed under the key it was journaled with.
        assert!(options_from_fingerprint("lazy:r1c1e1p1t1m32:auto").is_none(), "retired p1");
        assert!(options_from_fingerprint("lazy:r1c1e1p0t1m32:none").is_none(), "retired none");
        assert!(options_from_fingerprint("lazy:r1c1e1p0t1m32:sift").is_none(), "retired sift");
        assert!(options_from_fingerprint("lazy:r1c1e1p0t1m32").is_none(), "missing reorder part");
        assert!(options_from_fingerprint("eager:r1c1e1p0t1m32:auto").is_none(), "unknown mode");
        assert!(options_from_fingerprint("lazy:r1c1e1p0t9m32:auto").is_none(), "bad flag bit");
    }

    #[test]
    fn execute_surfaces_compile_errors() {
        let spec = prepare(
            "program t; process p read x; write x; begin (x = 0) -> x := 1; end invariant true;",
            Mode::Lazy,
            RepairOptions::default(),
        )
        .unwrap();
        let token = Token::from_options(&spec.opts);
        let err = execute(&spec, &Telemetry::off(), false, &token, None, false).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ExecError::Invalid(_)), "{err:?}");
        assert!(msg.starts_with("compile error:"), "{msg}");
        assert!(msg.contains("unknown variable"), "{msg}");
    }

    #[test]
    fn execute_surfaces_deadline_aborts() {
        let opts =
            RepairOptions { deadline: Some(std::time::Duration::ZERO), ..RepairOptions::default() };
        let spec = prepare(TOGGLE, Mode::Lazy, opts).unwrap();
        let token = Token::from_options(&spec.opts);
        let err = execute(&spec, &Telemetry::off(), false, &token, None, false).unwrap_err();
        assert!(matches!(err, ExecError::Aborted(RepairAborted::Timeout)), "{err:?}");
        // The deadline is not part of the content address.
        let plain = prepare(TOGGLE, Mode::Lazy, RepairOptions::default()).unwrap();
        assert_eq!(spec.key, plain.key, "deadline must not fragment the cache");
    }
}
