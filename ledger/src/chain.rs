//! `chain`: the stabilizing chain `Sc^11` (cells over `0..8`) through the
//! text path of the CLI's `repair`, plus checkpoint abort and resume. Each
//! cycle runs a cold job, a deterministically aborted run that leaves a
//! checkpoint slot, and a resume from that slot. The seed picks the cell
//! that carries a redundant extra action (see `chain_spec`): the text, its
//! content key and fingerprint vary with the seed; the repair and its
//! pinned counts do not.

use crate::inproc::{add_repair_time, verify, EngineCounts, KernelCounts};
use crate::paper::Pins;
use crate::report::{Layers, Outcome, TraceLog};
use crate::spec::chain_spec;
use crate::{Config, TempDir};
use ftrepair_bdd::{SerializedBdd, SplitMix64};
use ftrepair_core::{
    lazy_repair_traced, lazy_repair_warm, CheckpointImage, CheckpointPolicy, Checkpointer,
    LazyOutcome, RepairAborted, RepairOptions, Token, WarmSeeds,
};
use ftrepair_lang::ast::Program as Ast;
use ftrepair_program::{decompile::render_process, DistributedProgram, Process};
use ftrepair_store::{
    content_key, find_artifact, CheckpointStore, SpecFingerprint, ART_INVARIANT, ART_MS, ART_SPAN,
};
use ftrepair_telemetry::Telemetry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CELLS: usize = 11;
const DOMAIN: u64 = 8;
const PINS: Pins = Pins { invariant: 8.0, span: 8589934592.0, transitions: 75161927680.0 };

const TOP: &[&str] = &[
    "lang.parse",
    "lang.unparse",
    "store.sha256",
    "store.fingerprint",
    "lang.compile",
    "core.step1",
    "core.step2",
    "core.outer",
    "core.verify",
    "program.render",
    "symbolic.count",
    "bdd.export",
    "bdd.import",
    "checkpoint.read",
    "checkpoint.aborted_run",
];

/// Set-up repetitions, each a warm-up cold job: checked, but not kept as a
/// sample (see `paper::SETUPS`).
const SETUPS: usize = 3;

struct Cycle<'a> {
    o: &'a mut Outcome,
    trace: &'a mut TraceLog,
    engine: EngineCounts,
    kernel: KernelCounts,
    tele: Telemetry,
    src: String,
    ckpts: Arc<CheckpointStore>,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut o = Outcome { top_layers: TOP, ..Outcome::default() };
    let edit_cell = 1 + SplitMix64::seed_from_u64(cfg.seed).gen_index(CELLS - 1);
    let src = chain_spec(CELLS, DOMAIN, Some(edit_cell));
    let dir = TempDir::new(cfg, "chain")?;
    let ckpts = Arc::new(CheckpointStore::open(dir.path()).map_err(|e| e.to_string())?);

    let (mut warm, mut quiet) = (Outcome::default(), TraceLog::new(false, 0));
    let mut w = Cycle::new(&mut warm, &mut quiet, src.clone(), Arc::clone(&ckpts));
    for _ in 0..SETUPS {
        let t = Instant::now();
        w.cold();
        o.setups.push(t.elapsed());
        if o.setups.len() == 1 {
            // What `ftrepair repair` on this spec peaks at (see `paper`).
            o.peak_rss_kb = crate::vm_hwm_kb("self")?;
        }
    }
    o.absorb_checks(&warm);

    let mut trace = TraceLog::new(cfg.trace, 3);
    let mut c = Cycle::new(&mut o, &mut trace, src, ckpts);
    let start = Instant::now();
    let mut cycles = 0;
    while cycles == 0 || start.elapsed() < cfg.window {
        let (round, ops_before) = (Instant::now(), c.o.timed_ops());
        c.cycle();
        c.o.end_round(round.elapsed(), ops_before);
        cycles += 1;
    }
    c.engine.report(&mut c.o.layers);
    c.kernel.report(&mut c.o.layers);
    o.spans = trace.into_records();
    Ok(o)
}

/// The checkpoint sink's slot write: its time and bytes, or its error.
type SlotWrite = std::io::Result<(Duration, usize)>;

/// What the cold job leaves for the resume to be checked against.
struct Cold {
    ast: Ast,
    key: String,
    exports: [SerializedBdd; 3],
}

impl<'a> Cycle<'a> {
    fn new(
        o: &'a mut Outcome,
        trace: &'a mut TraceLog,
        src: String,
        ckpts: Arc<CheckpointStore>,
    ) -> Cycle<'a> {
        let tele = trace.tele().clone();
        let (engine, kernel) = Default::default();
        Cycle { o, trace, engine, kernel, tele, src, ckpts }
    }

    fn cycle(&mut self) {
        let Some(cold) = self.cold() else { return };
        if self.abort(&cold) {
            self.resume(&cold);
        }
        let _ = self.ckpts.clear(&cold.key);
    }

    /// Close out one operation: charge its time, check it, and keep its
    /// latency under `class` if it passed.
    fn finish(&mut self, class: Option<&str>, latency: Duration, problems: &[String]) -> bool {
        // The aborted run's engine phases belong to `checkpoint.aborted_run`,
        // not to the Step 1 of a finished repair.
        let spans = self.trace.end_op();
        if class.is_some() {
            self.o.layers.absorb_engine_spans(&spans);
        }
        self.o.op_time += latency;
        let ok = self.o.record(class.unwrap_or("abort"), problems);
        if let (true, Some(class)) = (ok, class) {
            self.o.sample(class, latency);
        }
        ok
    }

    /// Spec text to verified, rendered, counted and exported repair — the
    /// steps of `ftrepair repair`, plus the content address and
    /// fingerprint the store path computes.
    fn cold(&mut self) -> Option<Cold> {
        let (tele, layers) = (&self.tele, &mut self.o.layers);
        let started = Instant::now();
        let mut root = tele.span("job");
        root.field("class", "cold".into());
        let mut problems = Vec::new();
        let cold = (|| {
            let ast = layers
                .call(tele, "lang.parse", || ftrepair_lang::parse(&self.src))
                .map_err(|e| format!("parse: {e}"))?;
            let canonical = layers.call(tele, "lang.unparse", || ftrepair_lang::unparse(&ast));
            let key = layers.call(tele, "store.sha256", || content_key(&canonical, "lazy"));
            std::hint::black_box(
                layers.call(tele, "store.fingerprint", || SpecFingerprint::of(&ast)),
            );
            let mut prog = compile(layers, tele, &ast)?;
            let t = Instant::now();
            let out = {
                let _span = tele.span("core.repair");
                lazy_repair_traced(&mut prog, &RepairOptions::default(), tele)
            };
            let out = repaired(layers, out, t.elapsed())?;
            self.engine.absorb(&out.stats);
            check_output(layers, tele, &mut prog, &out, &mut problems);
            let text = layers.call(tele, "program.render", || render(&mut prog, &out));
            if !text.contains("process c1") {
                problems.push("rendered program lacks process c1".to_string());
            }
            let exports = layers.call(tele, "bdd.export", || {
                let m = prog.cx.mgr_ref();
                [m.export(out.invariant), m.export(out.span), m.export(out.trans)]
            });
            let bytes: usize = exports.iter().map(|e| e.to_bytes().len()).sum();
            layers.set("bdd.export_bytes", bytes as f64 / 3.0);
            self.kernel.absorb(prog.cx.mgr_ref());
            Ok(Cold { ast, key, exports })
        })();
        drop(root);
        let cold = cold.map_err(|e: String| problems.push(e)).ok();
        let ok = self.finish(Some("cold"), started.elapsed(), &problems);
        cold.filter(|_| ok)
    }

    /// Repair under a checkpointer that writes a real slot at the first
    /// boundary and then raises the cancel flag: the run aborts at the
    /// same point every time, with its state on disk.
    fn abort(&mut self, cold: &Cold) -> bool {
        let (tele, layers) = (&self.tele, &mut self.o.layers);
        let started = Instant::now();
        let mut root = tele.span("job");
        root.field("class", "abort".into());
        let mut problems = Vec::new();
        let written: Arc<Mutex<Option<SlotWrite>>> = Arc::default();
        let flag = Arc::new(AtomicBool::new(false));
        let sink = {
            let (store, key, written, flag) = (
                Arc::clone(&self.ckpts),
                cold.key.clone(),
                Arc::clone(&written),
                Arc::clone(&flag),
            );
            let tele = tele.clone();
            move |img: &CheckpointImage| {
                let _span = tele.span("checkpoint.write");
                let t = Instant::now();
                let arts = [
                    (ART_INVARIANT.to_string(), img.invariant.clone()),
                    (ART_SPAN.to_string(), img.span.clone()),
                    (ART_MS.to_string(), img.ms.clone()),
                ];
                let bytes = arts.iter().map(|(_, a)| a.to_bytes().len()).sum();
                let put = store.put(&key, img.iteration, &arts).map(|()| (t.elapsed(), bytes));
                *written.lock().expect("checkpoint sink poisoned") = Some(put);
                flag.store(true, Ordering::SeqCst);
            }
        };
        let policy =
            CheckpointPolicy { every_offers: 1, min_interval: Duration::ZERO, node_delta: 0 };
        let ckpt = Arc::new(Checkpointer::new(policy, sink));
        let token = Token::unbounded().with_flag(flag).with_checkpointer(Arc::clone(&ckpt));
        match compile(layers, tele, &cold.ast) {
            Err(e) => problems.push(e),
            Ok(mut prog) => {
                let t = Instant::now();
                let r = {
                    let _span = tele.span("checkpoint.aborted_run");
                    lazy_repair_warm(
                        &mut prog,
                        &RepairOptions::default(),
                        tele,
                        &token,
                        &WarmSeeds::none(),
                    )
                };
                layers.add("checkpoint.aborted_run", t.elapsed());
                if !matches!(r, Err(RepairAborted::Cancelled)) {
                    problems.push("run was not cancelled after its first checkpoint".into());
                }
                if ckpt.writes() != 1 {
                    problems.push(format!("{} checkpoint writes, expected 1", ckpt.writes()));
                }
            }
        }
        match written.lock().expect("checkpoint sink poisoned").take() {
            Some(Ok((took, bytes))) => {
                layers.add("checkpoint.write", took);
                layers.set("checkpoint.bytes", bytes as f64);
            }
            Some(Err(e)) => problems.push(format!("checkpoint write: {e}")),
            None => problems.push("no checkpoint written".into()),
        }
        drop(root);
        self.finish(None, started.elapsed(), &problems)
    }

    /// Slot read, import, repair and verify; then the result must equal
    /// the cold run's root for root.
    fn resume(&mut self, cold: &Cold) {
        let (tele, layers) = (&self.tele, &mut self.o.layers);
        let started = Instant::now();
        let mut root = tele.span("job");
        root.field("class", "resume".into());
        let mut problems = Vec::new();
        let resumed = (|| {
            let slot = layers
                .call(tele, "checkpoint.read", || self.ckpts.get(&cold.key))
                .ok_or("checkpoint slot missing or unreadable")?;
            let mut prog = compile(layers, tele, &cold.ast)?;
            let seeds = layers.call(tele, "bdd.import", || {
                let mut import = |name| {
                    find_artifact(&slot.artifacts, name)
                        .map(|a| prog.cx.mgr().try_import(a).map_err(|e| format!("{e:?}")))
                        .transpose()
                };
                Ok::<_, String>(WarmSeeds {
                    invariant: import(ART_INVARIANT)?,
                    span: import(ART_SPAN)?,
                })
            })?;
            if seeds.is_empty() {
                return Err("checkpoint slot has no seeds".to_string());
            }
            let t = Instant::now();
            let out = {
                let _span = tele.span("core.repair");
                lazy_repair_warm(
                    &mut prog,
                    &RepairOptions::default(),
                    tele,
                    &Token::unbounded(),
                    &seeds,
                )
            };
            let out = repaired(layers, out, t.elapsed())?;
            self.engine.absorb(&out.stats);
            if !verify(layers, tele, &mut prog, &out) {
                problems.push("output failed verification".to_string());
            }
            self.kernel.absorb(prog.cx.mgr_ref());
            Ok((prog, out))
        })();
        drop(root);
        let latency = started.elapsed();
        match resumed {
            Err(e) => problems.push(e.to_string()),
            Ok((mut prog, out)) => {
                let m = prog.cx.mgr();
                let roots = [out.invariant, out.span, out.trans];
                for (export, root) in cold.exports.iter().zip(roots) {
                    if m.try_import(export) != Ok(root) {
                        problems.push("resumed repair differs from the cold one".to_string());
                        break;
                    }
                }
            }
        }
        self.finish(Some("resume"), latency, &problems);
    }
}

fn compile(layers: &mut Layers, tele: &Telemetry, ast: &Ast) -> Result<DistributedProgram, String> {
    layers
        .call(tele, "lang.compile", || ftrepair_lang::compile(ast))
        .map_err(|e| format!("compile: {e}"))
}

/// Charge a finished repair's phases, or explain why there is nothing to
/// charge.
fn repaired(
    layers: &mut Layers,
    out: Result<LazyOutcome, RepairAborted>,
    wall: Duration,
) -> Result<LazyOutcome, String> {
    let out = out.map_err(|e| format!("repair aborted: {e}"))?;
    if out.failed {
        return Err("no repair found".to_string());
    }
    add_repair_time(layers, &out.stats, wall);
    Ok(out)
}

/// Verify the repair and compare its counts with the pinned ones.
fn check_output(
    layers: &mut Layers,
    tele: &Telemetry,
    prog: &mut DistributedProgram,
    out: &LazyOutcome,
    problems: &mut Vec<String>,
) {
    if !verify(layers, tele, prog, out) {
        problems.push("output failed verification".to_string());
    }
    let counts = layers.call(tele, "symbolic.count", || Pins {
        invariant: prog.cx.count_states(out.invariant),
        span: prog.cx.count_states(out.span),
        transitions: prog.cx.count_transitions(out.trans),
    });
    if counts != PINS {
        problems.push(format!("counts {counts:?}, pinned {PINS:?}"));
    }
}

/// The repaired program as guarded commands, restricted to the fault-span
/// exactly as `ftrepair repair` prints it.
fn render(prog: &mut DistributedProgram, out: &LazyOutcome) -> String {
    let mut text = String::new();
    for (j, p) in out.processes.iter().enumerate() {
        let shown = Process {
            name: p.name.clone(),
            read: p.read.clone(),
            write: p.write.clone(),
            trans: prog.cx.mgr().and(p.trans, out.span),
        };
        text.push_str(&render_process(prog, &shown, j));
        text.push('\n');
    }
    text
}
