//! The repair job pipeline shared by the daemon's requests, its journal
//! replay, the CLI's `repair` and `simulate`, and the tables' Ablations E
//! and F: canonicalize a spec, address it, look it up and seed it through
//! the durable [`Tiers`], run and verify the repair, and (for small
//! instances) build the explicit bundle that fault-injection simulation
//! replays.

use crate::breaker::Breaker;
use crate::server::ServerConfig;
use ftrepair_bdd::{NodeId, SerializedBdd};
use ftrepair_core::{
    build_run_report, cautious_repair_cancellable, lazy_repair_warm, verify::verify_outcome,
    CheckpointImage, CheckpointPolicy, Checkpointer, LazyOutcome, RepairAborted, RepairOptions,
    RepairStats, Token, WarmSeeds, MAX_OUTER_ITERATIONS,
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
use std::io;
use std::sync::Arc;

/// Largest state space the simulation bundle is built for. The bundle
/// holds every state and edge of the repaired program explicitly, so it is
/// reserved for oracle-sized instances; larger specs still repair fine but
/// answer `/simulate` with an explanation instead.
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

/// The options half of the content key, a short stable string. Budgets are
/// not options (they ride on the job's [`Token`]): they bound whether a job
/// finishes, never what it computes, so the same spec run under ten
/// budgets addresses one entry.
/// Two retired knobs stay in the text at their only remaining value, so
/// stores and journals written before their removal keep their keys: `p0`
/// (parallel Step 2, always off) and `:auto` (the reorder mode; the
/// variable order is now fixed). `m32` is the outer-iteration bound, now
/// the constant [`MAX_OUTER_ITERATIONS`].
pub fn options_fingerprint(mode: Mode, o: &RepairOptions) -> String {
    format!(
        "{}:r{}c{}e{}p0t{}m{}:auto",
        mode.as_str(),
        o.restrict_to_reachable as u8,
        o.step2_closed_form as u8,
        o.use_expand_group as u8,
        o.allow_new_terminal_inside as u8,
        MAX_OUTER_ITERATIONS,
    )
}

/// Invert [`options_fingerprint`]: parse `"lazy:r1c1e1p0t1m32:auto"` back
/// into the mode and options it encodes. Used by boot recovery to replay a
/// journaled job exactly as it was submitted — the journal stores the
/// fingerprint, not the options struct, so the two stay in lockstep by
/// construction (see the roundtrip test). Budgets are not in the
/// fingerprint; the caller's token carries its own limits. A `p1` (parallel Step 2), a `:none`/`:sift`
/// reorder mode or an outer-iteration bound other than
/// [`MAX_OUTER_ITERATIONS`], all since removed, does not parse: that job
/// cannot be rerun under the key it was recorded with.
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
    if rest.strip_prefix('m')?.parse::<usize>().ok()? != MAX_OUTER_ITERATIONS {
        return None;
    }
    Some((
        mode,
        RepairOptions {
            restrict_to_reachable,
            step2_closed_form,
            use_expand_group,
            allow_new_terminal_inside,
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
#[derive(Clone, Debug, PartialEq)]
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
    /// Did the [`Tiers::seed`] artifacts (a near-key neighbor's, or this
    /// key's checkpoint slot) actually seed this repair?
    pub warm_used: bool,
}

impl JobResult {
    /// Did the output pass both independent verifiers?
    pub fn verified(&self) -> bool {
        self.masking && self.realizable
    }
}

/// Stored artifacts handed to [`execute`] to seed the repair's first
/// reachability fixpoint: a neighbor's repair, or this key's own
/// checkpoint slot ([`Tiers::seed`]).
#[derive(Debug)]
pub struct WarmInfo {
    /// Content address of the donor entry, or `checkpoint@N` for a slot
    /// (reported in the response).
    pub neighbor: String,
    /// Fingerprint distance between donor and job (number of differing
    /// action hashes); 0 for a slot.
    pub distance: usize,
    /// The offer index the slot was written at, when the seed is this
    /// key's own checkpoint slot.
    pub checkpoint: Option<u64>,
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

/// `errno` for a full volume: a write-through that hits it sheds the
/// store's coldest entries and retries once.
const ENOSPC: i32 = 28;

/// The durable tiers around a repair job, and the one copy of their
/// policy: the daemon's requests and journal replay, the CLI's `repair`
/// and `simulate`, and the tables' Ablations E and F all go through them.
/// They hold the disk store, behind its circuit [`Breaker`], and the
/// per-key checkpoint slots; either may be absent, and without both every
/// job runs cold and leaves nothing behind.
///
/// A job asks them, in order: [`Tiers::lookup`] for an exact stored
/// result; on a miss, [`Tiers::seed`] for what to start from and
/// [`Tiers::arm`] for its checkpoint sink; once the repair has finished,
/// [`Tiers::settle`] for what to keep, which [`Tiers::write`] (at once or
/// from a writer thread) puts in the store. The store reports transient
/// volume errors in its own counter rather than in return values (a flaky
/// read is a miss, not data loss), so every read is classified by that
/// counter for the breaker; while the breaker is not closed, reads are
/// skipped and writes dropped, both counted.
pub struct Tiers {
    store: Option<DiskStore>,
    breaker: Breaker,
    ckpts: Option<Arc<CheckpointStore>>,
    /// Seed misses from the nearest stored neighbor?
    warm_start: bool,
    tele: Telemetry,
}

impl Tiers {
    /// Tiers over `store` and the checkpoint slots `ckpts`, counting into
    /// `tele`. `config` supplies the breaker's settings and whether stored
    /// neighbors seed misses (`warm_start`).
    pub fn new(
        store: Option<DiskStore>,
        ckpts: Option<CheckpointStore>,
        config: &ServerConfig,
        tele: &Telemetry,
    ) -> Tiers {
        // Seeded per process: a fleet sharing one sick volume must not
        // probe it in lockstep, which is the whole point of the jitter.
        let breaker = Breaker::new(
            config.breaker_threshold,
            config.breaker_backoff,
            config.breaker_max_backoff,
            u64::from(std::process::id()) ^ 0xB4EA_4E37_5EED_0001,
            tele,
        );
        let ckpts = ckpts.map(Arc::new);
        Tiers { store, breaker, ckpts, warm_start: config.warm_start, tele: tele.clone() }
    }

    /// The disk store, to report on or maintain.
    pub(crate) fn store(&self) -> Option<&DiskStore> {
        self.store.as_ref()
    }

    /// The store's circuit breaker, to report on or probe.
    pub(crate) fn breaker(&self) -> &Breaker {
        &self.breaker
    }

    /// The checkpoint slots, to report on or probe.
    pub fn checkpoints(&self) -> Option<&CheckpointStore> {
        self.ckpts.as_deref()
    }

    /// Is there a store for [`Tiers::write`]? [`execute`] exports a
    /// verified repair's artifacts only then.
    pub fn persists(&self) -> bool {
        self.store.is_some()
    }

    /// Run one read against the store under the breaker: skipped while it
    /// is not closed, and classified by the store's I/O error counter.
    fn read<T>(&self, f: impl FnOnce(&DiskStore) -> T) -> Option<T> {
        let store = self.store.as_ref()?;
        if !self.breaker.allow() {
            self.tele.add("store.breaker.skipped_reads", 1);
            return None;
        }
        let before = store.io_errors();
        let out = f(store);
        if store.io_errors() > before {
            self.breaker.record_failure();
        } else {
            self.breaker.record_success();
        }
        Some(out)
    }

    /// An exact stored result for `spec`: its response, and the
    /// `/simulate` bundle rebuilt from its artifacts when `build_sim` asks
    /// ([`SimStatus::Unavailable`] otherwise). Corrupt entries read as
    /// misses (counted and quarantined inside the store).
    pub fn lookup(&self, spec: &JobSpec, build_sim: bool) -> Option<(Json, SimStatus)> {
        let stored = self.read(|store| store.get(&spec.key)).flatten()?;
        self.tele.add("store.promotions", 1);
        let sim = if build_sim {
            rebuild_sim_bundle(&spec.ast, &stored.artifacts)
        } else {
            SimStatus::Unavailable
        };
        Some((stored.response, sim))
    }

    /// What seeds a miss of `spec`, in lazy mode only (the cautious
    /// baseline has no seedable phase): this key's own checkpoint slot,
    /// where an interrupted run of the same spec and options stopped
    /// (distance 0: resume, don't restart); else, with `warm_start`, the
    /// nearest stored neighbor within [`WARM_MAX_DISTANCE`] — a spec that
    /// differs in a few actions imports its invariant and fault-span. Any
    /// seed is sound: the repair's own fixpoints shrink it back, and
    /// [`execute`] re-verifies the result.
    pub fn seed(&self, spec: &JobSpec) -> Option<WarmInfo> {
        if spec.mode != Mode::Lazy {
            return None;
        }
        // The invariant and fault-span, moved out of stored artifacts.
        let seeds = |mut artifacts: Vec<(String, SerializedBdd)>| {
            let mut take = |name: &str| {
                let i = artifacts.iter().position(|(n, _)| n == name)?;
                Some(artifacts.swap_remove(i).1)
            };
            Some((take(ART_INVARIANT)?, take(ART_SPAN)?))
        };
        let resume = self.ckpts.as_ref().and_then(|ckpts| {
            let slot = ckpts.get(&spec.key)?;
            let (invariant, span) = seeds(slot.artifacts)?;
            let neighbor = format!("checkpoint@{}", slot.iteration);
            Some(WarmInfo {
                neighbor,
                distance: 0,
                checkpoint: Some(slot.iteration),
                invariant,
                span,
            })
        });
        if resume.is_some() {
            self.tele.add("server.jobs.checkpoint_resumes", 1);
            return resume;
        }
        if !self.warm_start {
            return None;
        }
        let warm = self
            .read(|store| {
                let (neighbor, distance) = store.nearest(&spec.fingerprint(), WARM_MAX_DISTANCE)?;
                let (invariant, span) = seeds(store.peek(&neighbor)?.artifacts)?;
                Some(WarmInfo { neighbor, distance, checkpoint: None, invariant, span })
            })
            .flatten()?;
        self.tele.add("store.warm_lookups", 1);
        Some(warm)
    }

    /// `token` with `key`'s checkpoint sink, when the slots have a home:
    /// every policy-approved offer from the repair loops (and the forced
    /// final offer when an abort is imminent) lands the job's current
    /// `(invariant, span, ms)` in its slot — crash-safely, so the slot is
    /// always the previous or the new snapshot, never a torn one.
    pub fn arm(&self, token: Token, key: &str) -> Token {
        let Some(ckpts) = &self.ckpts else {
            return token;
        };
        let (ckpts, key, tele) = (Arc::clone(ckpts), key.to_string(), self.tele.clone());
        let sink = move |img: &CheckpointImage| {
            let artifacts = [
                (ART_INVARIANT.to_string(), img.invariant.clone()),
                (ART_SPAN.to_string(), img.span.clone()),
                (ART_MS.to_string(), img.ms.clone()),
            ];
            match ckpts.put(&key, img.iteration, &artifacts) {
                Ok(()) => tele.add("server.jobs.checkpoints_written", 1),
                Err(e) => {
                    tele.add("telemetry.write_errors", 1);
                    eprintln!("warning: checkpoint write for {key} failed: {e}");
                }
            }
        };
        token.with_checkpointer(Arc::new(Checkpointer::new(CheckpointPolicy::default(), sink)))
    }

    /// What a finished run of `spec` leaves: its checkpoint slot is
    /// retired, whatever the result (a terminal result makes the snapshot
    /// stale), and a verified repair's store write is handed back for
    /// [`Tiers::write`], taking its artifacts. `None` without a store.
    pub fn settle(&self, spec: &JobSpec, result: &mut JobResult) -> Option<NewEntry> {
        if let Some(ckpts) = &self.ckpts {
            let _ = ckpts.clear(&spec.key);
        }
        self.store.as_ref()?;
        let artifacts = result.artifacts.take()?;
        Some(NewEntry {
            key: spec.key.clone(),
            case: spec.name.clone(),
            mode: spec.mode.as_str().to_string(),
            warm_start: result.warm_used,
            fingerprint: spec.fingerprint(),
            response: result.response.clone(),
            artifacts,
        })
    }

    /// Write a repair through to the store. While the breaker is open the
    /// write is dropped without touching the volume; `ENOSPC` first sheds
    /// the coldest entries and retries once; the outcome feeds the
    /// breaker. `Ok(true)`: stored. `Ok(false)`: not stored, because the
    /// key was there already or the breaker dropped it. `Err`: the write
    /// failed. Persistence is an optimization, so a failure is counted and
    /// left to the caller to log, never fatal.
    pub fn write(&self, entry: &NewEntry) -> io::Result<bool> {
        let Some(store) = &self.store else {
            return Ok(false);
        };
        if !self.breaker.allow() {
            self.tele.add("store.breaker.dropped_writes", 1);
            return Ok(false);
        }
        let mut result = store.put(entry);
        if result.as_ref().is_err_and(|e| e.raw_os_error() == Some(ENOSPC)) {
            self.tele.add("store.enospc", 1);
            if store.shed_coldest(2) > 0 {
                result = store.put(entry);
            }
        }
        match &result {
            Ok(stored) => {
                if *stored {
                    self.tele.add("store.writes", 1);
                }
                self.breaker.record_success();
            }
            Err(_) => {
                self.tele.add("telemetry.write_errors", 1);
                self.breaker.record_failure();
            }
        }
        result
    }
}

/// The fault-injection batch `/simulate` and `ftrepair simulate` run,
/// bounded: every run, and every injected fault (each re-arms the recovery
/// budget and grows the trace), costs worker time, so `runs` must be
/// 1–100,000 and `max_faults` at most 1,000. The error names the
/// parameter.
pub fn sim_config(runs: usize, max_faults: usize) -> Result<SimConfig, String> {
    if runs == 0 || runs > 100_000 {
        return Err("runs must be between 1 and 100000".into());
    }
    if max_faults > 1_000 {
        return Err("max-faults must be between 0 and 1000".into());
    }
    Ok(SimConfig { runs, max_faults, ..Default::default() })
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
/// `token` bounds the run (deadline, node budget, cancel flag, and the
/// checkpoint sink [`Tiers::arm`] adds); a fired token surfaces as
/// [`ExecError::Aborted`], a compile-time semantic error ("compile error:
/// …") as [`ExecError::Invalid`]. `build_sim` additionally extracts the
/// explicit bundle when the state space is at most [`SIM_STATE_CAP`]
/// states.
///
/// `warm` carries the invariant/fault-span artifacts [`Tiers::seed`]
/// found; when they import cleanly (and the mode is lazy) they seed Step
/// 1's first reachability fixpoint. Seeding never changes the result — the
/// seeded span is clamped and Phase 4 shrinks it back to the fixpoint —
/// but the output is belt-and-braces re-verified anyway, and on the (never
/// yet observed) event of a warm run failing verification the job is
/// rerun cold from a fresh compile. `export_artifacts` additionally
/// serializes the repaired transition relation, invariant, and fault-span
/// (verified successful repairs only), which [`Tiers::settle`] hands to
/// the store.
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
        // Adding 0 on a certified span still registers the counter, so
        // `/metrics` shows it from the first verified job on.
        tele.add("repair.verify_fallbacks", u64::from(!m.span_certified));
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

/// [`SimStatus::TooLarge`] when the state space, the product of these
/// variable domain sizes, exceeds [`SIM_STATE_CAP`]: with the exact count,
/// or with `None` when a size or the product overflows `u64` (a different
/// refusal). `None` when the space is within the cap.
fn too_large(sizes: impl IntoIterator<Item = Option<u64>>) -> Option<SimStatus> {
    match sizes.into_iter().try_fold(1u64, |states, size| states.checked_mul(size?)) {
        Some(n) if n <= SIM_STATE_CAP => None,
        states => Some(SimStatus::TooLarge { states }),
    }
}

/// Enumerate the repaired program if it is small enough; otherwise report
/// exactly how oversized it is.
fn build_sim_bundle(
    prog: &mut ftrepair_program::DistributedProgram,
    trans: NodeId,
    invariant: NodeId,
) -> SimStatus {
    if let Some(refusal) = too_large(prog.cx.var_ids().iter().map(|&v| Some(prog.cx.info(v).size)))
    {
        return refusal;
    }
    let explicit = ExplicitProgram::from_symbolic(prog);
    let trans = bdd_to_edges(prog, &explicit.space, trans);
    let invariant = bdd_to_states(prog, &explicit.space, invariant);
    SimStatus::Ready(Box::new(SimBundle { explicit, trans, invariant }))
}

/// Reconstruct the `/simulate` bundle for a repair promoted from the disk
/// store: recompile the spec and import the stored transition-relation and
/// invariant artifacts. An oversized state space yields the same
/// [`SimStatus::TooLarge`] a fresh repair would, decided from the spec's
/// declared domains before any of that work (the compiler sizes variable
/// `0..hi` as `hi + 1` values). A missing artifact or an import mismatch
/// yields [`SimStatus::Unavailable`]. Each refuses `/simulate` with its own
/// explanation.
fn rebuild_sim_bundle(ast: &Ast, artifacts: &[(String, SerializedBdd)]) -> SimStatus {
    if let Some(refusal) = too_large(ast.vars.iter().map(|decl| decl.hi.checked_add(1))) {
        return refusal;
    }
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
    use ftrepair_casestudies::chain_spec;

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
    fn prepare_rejects_malformed_specs() {
        let err = prepare("program oops", Mode::Lazy, RepairOptions::default()).unwrap_err();
        assert!(err.starts_with("parse error:"), "{err}");
    }

    /// The journal replays a job from its canonical text, so every spec
    /// that prepares must prepare again from that text to the same key:
    /// expressions at the parser's depth bound, a `!` under a comparison,
    /// and every case study at every size the tables run.
    #[test]
    fn canonical_texts_prepare_again_to_the_same_key() {
        use ftrepair_casestudies::{byzantine_spec, tmr_spec, token_ring_spec};
        let bound = ftrepair_lang::parser::MAX_EXPR_DEPTH;
        let program = |e: String| format!("program t; var a : 0..1; invariant {e};");
        let mut texts = vec![
            program(vec!["a = 1"; bound].join(" & ")),
            program(vec!["a = 1"; bound].join(" | ")),
            program(format!("{} = 1", vec!["a"; bound].join(" + "))),
            program(format!("{}a = 1", "!".repeat(bound - 1))),
            program("(!a) = (!(a - 1))".into()),
        ];
        texts.extend([2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24].map(|n| byzantine_spec(n, false)));
        texts.extend((2..=6).map(|n| byzantine_spec(n, true)));
        texts.extend([6, 8, 10, 12, 14, 16, 20, 25, 30].map(|n| chain_spec(n, 8, None)));
        texts.extend([4, 6, 8].map(|n| chain_spec(n, 4, None)));
        texts.extend([tmr_spec(2), tmr_spec(3), token_ring_spec(4, 4), token_ring_spec(5, 5)]);
        for text in &texts {
            let spec = prepare(text, Mode::Lazy, RepairOptions::default()).unwrap();
            let again = prepare(&spec.canonical, Mode::Lazy, RepairOptions::default())
                .unwrap_or_else(|e| panic!("{e}\n{}", spec.canonical));
            assert_eq!((again.key, again.canonical), (spec.key, spec.canonical));
        }
    }

    #[test]
    fn execute_repairs_verifies_and_builds_sim_bundle() {
        let spec = prepare(TOGGLE, Mode::Lazy, RepairOptions::default()).unwrap();
        let result =
            execute(&spec, &Telemetry::off(), true, &Token::unbounded(), None, false).unwrap();
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
    fn a_bundle_at_the_cap_holds_every_edge_and_invariant_state() {
        // Six cells over 0..3: exactly SIM_STATE_CAP states.
        let spec = prepare(&chain_spec(6, 4, None), Mode::Lazy, RepairOptions::default()).unwrap();
        let result =
            execute(&spec, &Telemetry::off(), true, &Token::unbounded(), None, true).unwrap();
        assert!(result.masking && result.realizable);
        let bundle = match &result.sim {
            SimStatus::Ready(bundle) => bundle,
            other => panic!("4096 states is at the cap, got {}", other.refusal()),
        };
        assert_eq!(bundle.explicit.space.num_states(), SIM_STATE_CAP);

        // The repaired relation and invariant, re-imported from the
        // artifacts the job exported, count what the bundle enumerated.
        let artifacts = result.artifacts.as_deref().expect("a verified repair exports");
        let mut prog = ftrepair_lang::compile(&spec.ast).unwrap();
        let mut import = |name| prog.cx.mgr().try_import(find_artifact(artifacts, name).unwrap());
        let (trans, invariant) = (import(ART_TRANS).unwrap(), import(ART_INVARIANT).unwrap());
        assert_eq!(bundle.trans.len() as f64, prog.cx.count_transitions(trans));
        assert_eq!(bundle.invariant.len() as f64, prog.cx.count_states(invariant));
        assert!(run_simulation(bundle, &SimConfig::default(), 7).ok());
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
    fn disk_rebuilds_give_the_bundle_or_refusal_of_the_miss_path() {
        let repaired = |text: &str| {
            let spec = prepare(text, Mode::Lazy, RepairOptions::default()).unwrap();
            let result =
                execute(&spec, &Telemetry::off(), true, &Token::unbounded(), None, true).unwrap();
            assert!(result.artifacts.is_some(), "a verified repair exports");
            (spec, result)
        };

        // Within the cap, the stored artifacts rebuild the very bundle the
        // repair built.
        let (spec, miss) = repaired(&chain_spec(4, 4, None));
        let rebuilt = rebuild_sim_bundle(&spec.ast, miss.artifacts.as_deref().unwrap());
        assert!(miss.sim.ready().is_some(), "256 states is under the cap");
        assert_eq!(rebuilt.ready(), miss.sim.ready());

        // Over the cap (4^7 states), the refusal is the miss path's and is
        // decided from the spec's domains alone: it needs no artifact.
        let (spec, miss) = repaired(&chain_spec(7, 4, None));
        let over = |status: &SimStatus| match status {
            SimStatus::TooLarge { states } => *states,
            other => panic!("expected TooLarge, got {other:?}"),
        };
        assert_eq!(over(&miss.sim), Some(16_384));
        assert_eq!(
            over(&rebuild_sim_bundle(&spec.ast, miss.artifacts.as_deref().unwrap())),
            Some(16_384)
        );
        assert_eq!(over(&rebuild_sim_bundle(&spec.ast, &[])), Some(16_384));

        // A count that overflows u64 is refused the same way.
        let wide = (0..5).map(|i| format!("var w{i} : 0..65535;\n")).collect::<String>();
        let ast = ftrepair_lang::parse(
            &TOGGLE.replace("var x : 0..2;", &format!("var x : 0..2;\n{wide}")),
        )
        .unwrap();
        assert_eq!(over(&rebuild_sim_bundle(&ast, &[])), None);
    }

    /// A worker runs jobs back to back, and each starts from the kernel
    /// tables the one before left on its thread. The answer and the
    /// exported roots must still be those of the same job run first on a
    /// fresh thread.
    #[test]
    fn a_job_after_another_on_one_thread_answers_as_if_alone() {
        use ftrepair_casestudies::{byzantine_spec, tmr_spec};
        type Answer = (Vec<(String, Json)>, Option<Vec<(String, SerializedBdd)>>, u64);
        fn answer(text: &str) -> Answer {
            let spec = prepare(text, Mode::Lazy, RepairOptions::default()).unwrap();
            let result =
                execute(&spec, &Telemetry::off(), false, &Token::unbounded(), None, true).unwrap();
            let response = result.response.as_obj().unwrap();
            let fields = response.iter().filter(|(k, _)| k != "report").cloned().collect();
            let bdd = result.report.0.get("bdd").unwrap();
            (fields, result.artifacts, bdd.get("table_growths").and_then(Json::as_u64).unwrap())
        }
        for text in [byzantine_spec(3, false), tmr_spec(3)] {
            let second = text.clone();
            let after = std::thread::spawn(move || {
                answer(&chain_spec(10, 8, None));
                answer(&second)
            });
            let after = after.join().unwrap();
            let alone = std::thread::spawn(move || answer(&text)).join().unwrap();
            assert!(after.1.is_some(), "setup: a verified repair exports its roots");
            assert_eq!((&after.0, &after.1), (&alone.0, &alone.1));
            assert!(after.2 < alone.2, "setup: the second job inherited the first one's tables");
        }
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
        assert!(options_from_fingerprint("lazy:r1c1e1p0t1m7:auto").is_none(), "retired m7");
    }

    #[test]
    fn execute_surfaces_compile_errors() {
        let spec = prepare(
            "program t; process p read x; write x; begin (x = 0) -> x := 1; end invariant true;",
            Mode::Lazy,
            RepairOptions::default(),
        )
        .unwrap();
        let err =
            execute(&spec, &Telemetry::off(), false, &Token::unbounded(), None, false).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ExecError::Invalid(_)), "{err:?}");
        assert!(msg.starts_with("compile error:"), "{msg}");
        assert!(msg.contains("unknown variable"), "{msg}");
    }

    #[test]
    fn execute_surfaces_deadline_aborts() {
        let spec = prepare(TOGGLE, Mode::Lazy, RepairOptions::default()).unwrap();
        let token = Token::deadline_in(std::time::Duration::ZERO);
        let err = execute(&spec, &Telemetry::off(), false, &token, None, false).unwrap_err();
        assert!(matches!(err, ExecError::Aborted(RepairAborted::Timeout)), "{err:?}");
    }

    /// The tiers' seed order: a miss seeds from the nearest stored
    /// neighbor until its key has a checkpoint slot, which then wins; a
    /// cautious job seeds from neither. A finished run retires the slot.
    #[test]
    fn tiers_seed_from_the_slot_before_a_neighbor() {
        let root = std::env::temp_dir().join(format!("ftrepair-tiers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let tele = Telemetry::new();
        let store = DiskStore::open(&root.join("store"), 0, &tele).unwrap();
        let ckpts = CheckpointStore::open(&root.join("checkpoints")).unwrap();
        let tiers = Tiers::new(Some(store), Some(ckpts), &ServerConfig::default(), &tele);
        let job = |edit, mode| prepare(&chain_spec(4, 4, edit), mode, RepairOptions::default());
        let run = |spec: &JobSpec, warm: Option<&WarmInfo>| {
            execute(spec, &Telemetry::off(), false, &Token::unbounded(), warm, true).unwrap()
        };

        let donor = job(None, Mode::Lazy).unwrap();
        let mut result = run(&donor, None);
        let write = tiers.settle(&donor, &mut result).expect("a verified repair is written");
        assert!(tiers.write(&write).unwrap());

        let edited = job(Some(1), Mode::Lazy).unwrap();
        assert!(tiers.lookup(&edited, false).is_none());
        let warm = tiers.seed(&edited).expect("the donor is a near neighbor");
        assert_eq!((warm.neighbor.as_str(), warm.checkpoint), (donor.key.as_str(), None));

        let slot = [(ART_INVARIANT.into(), warm.invariant), (ART_SPAN.into(), warm.span)];
        let cautious = job(Some(1), Mode::Cautious).unwrap();
        for key in [&edited.key, &cautious.key] {
            tiers.checkpoints().unwrap().put(key, 3, &slot).unwrap();
        }
        assert!(tiers.seed(&cautious).is_none());
        let resume = tiers.seed(&edited).expect("the slot seeds");
        assert_eq!((resume.neighbor.as_str(), resume.distance), ("checkpoint@3", 0));
        assert_eq!(resume.checkpoint, Some(3));

        let mut result = run(&edited, Some(&resume));
        assert!(result.warm_used && result.verified());
        assert!(tiers.settle(&edited, &mut result).is_some());
        assert!(tiers.checkpoints().unwrap().get(&edited.key).is_none(), "the slot was retired");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("store.warm_lookups"), 1);
        assert_eq!(snap.counter("server.jobs.checkpoint_resumes"), 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
