//! Algorithm 1: adding masking fault-tolerance to a distributed program via
//! lazy repair — Step 1 (Add-Masking, no realizability), Step 2
//! (realizability by removal), and the deadlock-resolution outer loop.

use crate::add_masking::add_masking_seeded;
use crate::cancel::{RepairAborted, Token};
use crate::options::RepairOptions;
use crate::stats::RepairStats;
use crate::step2::step2_cancellable;
use crate::warm::WarmSeeds;
use ftrepair_bdd::{NodeId, FALSE};
use ftrepair_program::{DistributedProgram, Process};
use ftrepair_telemetry::{Json, Telemetry};
use std::time::Instant;

/// Output of lazy repair.
#[derive(Clone, Debug)]
pub struct LazyOutcome {
    /// Per-process realizable transition predicates (empty iff `failed`).
    pub processes: Vec<Process>,
    /// The repaired invariant `S'`.
    pub invariant: NodeId,
    /// The fault-span `T'`.
    pub span: NodeId,
    /// `δ_P'` — union of the per-process predicates.
    pub trans: NodeId,
    /// True iff the algorithm declared failure (Line 7 of Algorithm 1, or
    /// the outer-iteration bound was hit).
    pub failed: bool,
    /// Timings and group counters.
    pub stats: RepairStats,
}

/// Run Algorithm 1 on `prog`. Returns `Err(RepairAborted)` once
/// [`RepairOptions::deadline`] (if set) expires — "the algorithm declared
/// failure" stays an `Ok` outcome with `failed: true`; an abort means the
/// answer is unknown.
pub fn lazy_repair(
    prog: &mut DistributedProgram,
    opts: &RepairOptions,
) -> Result<LazyOutcome, RepairAborted> {
    lazy_repair_traced(prog, opts, &Telemetry::off())
}

/// [`lazy_repair`] with telemetry: spans around every outer iteration and
/// both steps, per-iteration BDD-size samples (the `iterations` series in
/// run reports), peak-size gauges, and counters that mirror the
/// [`RepairStats`] fields event-for-event. With a disabled handle every
/// instrumentation point is a single branch.
pub fn lazy_repair_traced(
    prog: &mut DistributedProgram,
    opts: &RepairOptions,
    tele: &Telemetry,
) -> Result<LazyOutcome, RepairAborted> {
    lazy_repair_warm(prog, opts, tele, &Token::from_options(opts), &WarmSeeds::none())
}

/// [`lazy_repair_traced`] against an externally owned [`Token`], with
/// warm-start seeds. The token lets a server cancel or deadline a run it
/// did not configure via options; it is checked on entry (an
/// already-expired deadline aborts before any transition is added) and at
/// every fixpoint iteration of both steps and the outer loop. The seeds —
/// a cached neighbor's invariant/fault-span BDDs, already imported into
/// `prog`'s manager — seed the first outer iteration's Step 1
/// reachability. Deadlock retries run
/// unseeded — their whole point is to shrink what the first pass grew. With
/// empty seeds this *is* the cold path. The caller is responsible for
/// verifying the outcome (e.g. `verify::verify_outcome`) exactly as for a
/// cold repair; soundness is argued in [`crate::warm`], verification is the
/// belt to those braces.
pub fn lazy_repair_warm(
    prog: &mut DistributedProgram,
    opts: &RepairOptions,
    tele: &Telemetry,
    token: &Token,
    seeds: &WarmSeeds,
) -> Result<LazyOutcome, RepairAborted> {
    if !seeds.is_empty() {
        tele.add("repair.warm_starts", 1);
        // Seeds must survive GC at the checkpoints (which collect down to
        // roots) until their one use in iteration 1; like `stutters`, the
        // protection simply persists for the manager's lifetime.
        for root in seeds.roots() {
            prog.cx.mgr().protect(root);
        }
    }
    let r = lazy_repair_inner(prog, opts, tele, token, seeds);
    if let Ok(out) = &r {
        let roots: Vec<NodeId> = [out.invariant, out.span, out.trans]
            .into_iter()
            .chain(out.processes.iter().map(|p| p.trans))
            .collect();
        crate::arena::protect_outcome(prog, roots);
    }
    // The peak flows into the run report whatever happened — success,
    // declared failure, or abort.
    crate::arena::emit_bdd_tele(tele, prog);
    r
}

fn lazy_repair_inner(
    prog: &mut DistributedProgram,
    opts: &RepairOptions,
    tele: &Telemetry,
    token: &Token,
    seeds: &WarmSeeds,
) -> Result<LazyOutcome, RepairAborted> {
    token.check()?;
    crate::arena::configure(prog, opts);
    let mut stats = RepairStats::default();
    let mut s_prime = prog.invariant;
    let mut safety = prog.safety;

    // Original stutter states: legal termination points inside the
    // invariant are not deadlocks (Definition 18).
    let stutters = {
        let delta_p = prog.program_trans();
        let universe = prog.cx.state_universe();
        prog.cx.deadlocks(universe, delta_p)
    };
    // `stutters` must survive the checkpoints inside Step 1/2 (they cannot
    // see it); the protection persists like the base roots'.
    prog.cx.mgr().protect(stutters);

    // Per-phase latency histograms: one observation per outer iteration,
    // so distributions across many jobs (server mode) stay meaningful.
    let h_step1 = tele.histogram("repair.step1.seconds");
    let h_step2 = tele.histogram("repair.step2.seconds");

    for _ in 0..opts.max_outer_iterations {
        let mut iter_span = tele.span("outer_iteration");
        stats.cancel_checks += 1;
        token.check_governed(&prog.cx)?;
        stats.outer_iterations += 1;
        iter_span.field("iter", Json::from(stats.outer_iterations as u64));
        tele.add("repair.outer_iterations", 1);

        // Step 1 (Line 3). Warm seeds apply to the first iteration only:
        // a deadlock retry re-enters with a mutated safety relation, and
        // re-widening the span there would fight the retry's shrinking.
        let iteration_seeds = if stats.outer_iterations == 1 { *seeds } else { WarmSeeds::none() };
        let t0 = Instant::now();
        let r1 = {
            let _s = tele.span("step1");
            add_masking_seeded(
                prog,
                s_prime,
                &safety,
                opts.restrict_to_reachable,
                tele,
                token,
                &iteration_seeds,
            )
        };
        let step1_elapsed = t0.elapsed();
        stats.step1_time += step1_elapsed;
        h_step1.observe_duration(step1_elapsed);
        let r1 = r1?;
        if r1.failed {
            return Ok(LazyOutcome {
                processes: Vec::new(),
                invariant: FALSE,
                span: FALSE,
                trans: FALSE,
                failed: true,
                stats,
            });
        }
        s_prime = r1.invariant;

        // Step 1's converged (invariant, span, ms) is the natural resume
        // point: offered as a checkpoint, it seeds a later run's Phase-3
        // reachability exactly like a warm-start neighbor would.
        token.offer_checkpoint(&prog.cx, s_prime, r1.span, r1.ms);

        // Per-iteration BDD shape: how big the invariant/fault-span grew
        // this round, and how full the arena is. Gated — `node_count`
        // walks the DAG, which is not free.
        if tele.enabled() {
            let mgr = prog.cx.mgr_ref();
            let inv_nodes = mgr.node_count(s_prime) as u64;
            let span_nodes = mgr.node_count(r1.span) as u64;
            let live = mgr.stats().live_nodes as u64;
            iter_span.field("invariant_nodes", Json::from(inv_nodes));
            iter_span.field("span_nodes", Json::from(span_nodes));
            iter_span.field("live_nodes", Json::from(live));
            tele.max_gauge("bdd.peak_invariant_nodes", inv_nodes);
            tele.max_gauge("bdd.peak_span_nodes", span_nodes);
            tele.push_sample(
                "iterations",
                &[
                    ("iter", stats.outer_iterations as f64),
                    ("invariant_nodes", inv_nodes as f64),
                    ("span_nodes", span_nodes as f64),
                    ("live_nodes", live as f64),
                ],
            );
        }

        // Step 2 (Line 9). Step 2's checkpoints root only its own values,
        // so the locals this loop still needs afterwards are protected
        // across the call.
        let step2_guard = [s_prime, safety.bad_states, safety.bad_trans];
        for r in step2_guard {
            prog.cx.mgr().protect(r);
        }
        let t1 = Instant::now();
        let r2 = {
            let _s = tele.span("step2");
            step2_cancellable(prog, r1.trans, r1.span, opts, tele, token)
        };
        let step2_elapsed = t1.elapsed();
        stats.step2_time += step2_elapsed;
        h_step2.observe_duration(step2_elapsed);
        for r in step2_guard {
            prog.cx.mgr().unprotect(r);
        }
        let r2 = r2?;
        stats.absorb(&r2.stats);

        // Line 10: deadlocks created by Step 2's removals, judged on the
        // states actually reachable in the presence of faults. Outside the
        // invariant a deadlock always blocks recovery; inside it, a state
        // that lost all its actions is (by default) a legal termination
        // point under stuttering semantics — see
        // `RepairOptions::allow_new_terminal_inside`.
        let dl = {
            // The fault-span over-approximates reachability and is exactly
            // the set the recovery obligation covers, so deadlocks are
            // judged against it (recomputing reachability under the
            // repaired relation would double Step 1's cost for nothing).
            let cx = &mut prog.cx;
            let dead = cx.deadlocks(r1.span, r2.trans);
            if opts.allow_new_terminal_inside {
                cx.mgr().diff(dead, s_prime)
            } else {
                let exempt = cx.mgr().and(stutters, s_prime);
                cx.mgr().diff(dead, exempt)
            }
        };

        if dl == FALSE {
            return Ok(LazyOutcome {
                processes: r2.processes,
                invariant: s_prime,
                span: r1.span,
                trans: r2.trans,
                failed: false,
                stats,
            });
        }

        tele.add("repair.deadlock_retries", 1);

        // Line 11: outlaw transitions into the deadlock states and
        // transitions leaving the fault-span, then repeat. A deadlock state
        // *inside* the invariant can never be entered-into-oblivion — it is
        // itself legitimate — so it is additionally evicted from S'
        // directly ("we make those states unreachable starting from the
        // invariant"); S' strictly shrinks, guaranteeing convergence.
        let cx = &mut prog.cx;
        let into_dl = cx.as_next(dl);
        let outside_span = cx.mgr().not(r1.span);
        let into_outside = cx.as_next(outside_span);
        let newly_bad = cx.mgr().or(into_dl, into_outside);
        safety = safety.with_bad_trans(cx, newly_bad);
        s_prime = cx.mgr().diff(s_prime, dl);
    }

    Ok(LazyOutcome {
        processes: Vec::new(),
        invariant: FALSE,
        span: FALSE,
        trans: FALSE,
        failed: true,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_outcome;
    use ftrepair_program::{ProgramBuilder, Update};

    /// Single-process system (reads/writes everything): lazy repair should
    /// behave exactly like Add-Masking since realizability is trivial.
    fn full_view() -> DistributedProgram {
        let mut b = ProgramBuilder::new("fullview");
        let x = b.var("x", 4);
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
        b.fault_action(fg, &[(x, Update::Choice(vec![2, 3]))]);
        b.build()
    }

    #[test]
    fn full_view_repairs_and_verifies() {
        let mut p = full_view();
        let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
        assert!(!out.failed);
        let (masking, realizability) = verify_outcome(&mut p, &out);
        assert!(masking.ok(), "{masking:?}");
        assert!(realizability.ok(), "{realizability:?}");
        assert_eq!(out.stats.outer_iterations, 1, "no deadlock retry expected");
    }

    /// Two processes with partial views. Process `a` sees x and flag,
    /// process `b` sees y and flag. Faults corrupt x. Recovery of x needs
    /// only x — realizable for `a` despite the partial view.
    fn partial_view() -> DistributedProgram {
        let mut b = ProgramBuilder::new("partialview");
        let x = b.var("x", 3);
        let y = b.var("y", 2);
        b.process("a", &[x], &[x]);
        let g0 = b.cx().assign_eq(x, 0);
        b.action(g0, &[(x, Update::Const(1))]);
        let g1 = b.cx().assign_eq(x, 1);
        b.action(g1, &[(x, Update::Const(0))]);
        b.process("b", &[y], &[y]);
        let h0 = b.cx().assign_eq(y, 0);
        b.action(h0, &[(y, Update::Const(1))]);
        let h1 = b.cx().assign_eq(y, 1);
        b.action(h1, &[(y, Update::Const(0))]);
        let inv = {
            let a0 = b.cx().assign_eq(x, 0);
            let a1 = b.cx().assign_eq(x, 1);
            b.cx().mgr().or(a0, a1)
        };
        b.invariant(inv);
        let fg = b.cx().assign_eq(x, 1);
        b.fault_action(fg, &[(x, Update::Const(2))]);
        b.build()
    }

    #[test]
    fn partial_view_repairs_and_verifies() {
        let mut p = partial_view();
        let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
        assert!(!out.failed);
        let (masking, realizability) = verify_outcome(&mut p, &out);
        assert!(masking.ok(), "{masking:?}");
        assert!(realizability.ok(), "{realizability:?}");
        // Recovery from x=2 exists and belongs to process a.
        let x = p.cx.find_var("x").unwrap();
        let s2 = p.cx.assign_eq(x, 2);
        let rec = p.cx.mgr().and(out.processes[0].trans, s2);
        assert_ne!(rec, FALSE);
    }

    #[test]
    fn pure_lazy_also_verifies() {
        let mut p = partial_view();
        let out = lazy_repair(&mut p, &RepairOptions::pure_lazy()).unwrap();
        assert!(!out.failed);
        let (masking, realizability) = verify_outcome(&mut p, &out);
        assert!(masking.ok(), "{masking:?}");
        assert!(realizability.ok(), "{realizability:?}");
    }

    #[test]
    fn hopeless_input_fails_cleanly() {
        let mut b = ProgramBuilder::new("hopeless");
        let x = b.var("x", 2);
        b.process("p", &[x], &[x]);
        let g = b.cx().assign_eq(x, 0);
        b.action(g, &[(x, Update::Const(0))]);
        let inv = b.cx().assign_eq(x, 0);
        b.invariant(inv);
        let fg = b.cx().assign_eq(x, 0);
        b.fault_action(fg, &[(x, Update::Const(1))]);
        let bad = b.cx().assign_eq(x, 1);
        b.bad_states(bad);
        let mut p = b.build();
        let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
        assert!(out.failed);
        assert_eq!(out.trans, FALSE);
    }

    /// A case where Step 2 *must* drop a group and the outer loop has to
    /// re-run: process `a` cannot read y, and the only recovery for x=2
    /// would need to depend on y (bad transitions forbid half the group).
    #[test]
    fn deadlock_retry_loop_converges() {
        let mut b = ProgramBuilder::new("retry");
        let x = b.var("x", 3);
        let y = b.var("y", 2);
        b.process("a", &[x], &[x]);
        let g0 = b.cx().assign_eq(x, 0);
        b.action(g0, &[(x, Update::Const(1))]);
        let g1 = b.cx().assign_eq(x, 1);
        b.action(g1, &[(x, Update::Const(0))]);
        b.process("b", &[x, y], &[y]);
        let inv = {
            let a0 = b.cx().assign_eq(x, 0);
            let a1 = b.cx().assign_eq(x, 1);
            b.cx().mgr().or(a0, a1)
        };
        b.invariant(inv);
        let fg = b.cx().assign_eq(x, 1);
        b.fault_action(fg, &[(x, Update::Const(2))]);
        // Forbid the specific recovery (x=2,y=1) → (x=0,y=1): process a's
        // recovery group 2→0 loses a member; it must fall back to 2→1 or
        // the run must still verify after the retry loop.
        let bt = b.cx().transition_cube(&[2, 1], &[0, 1]);
        b.bad_trans(bt);
        let mut p = b.build();
        let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
        assert!(!out.failed);
        let (masking, realizability) = verify_outcome(&mut p, &out);
        assert!(masking.ok(), "{masking:?}");
        assert!(realizability.ok(), "{realizability:?}");
    }

    #[test]
    fn expired_deadline_aborts_before_any_transition_is_added() {
        let mut p = partial_view();
        let opts =
            RepairOptions { deadline: Some(std::time::Duration::ZERO), ..RepairOptions::default() };
        let tele = Telemetry::new();
        let r = lazy_repair_traced(&mut p, &opts, &tele);
        assert_eq!(r.unwrap_err(), RepairAborted::Timeout);
        let snap = tele.snapshot();
        assert_eq!(snap.counter("repair.outer_iterations"), 0, "aborted before iteration 1");
        assert_eq!(snap.counter("step2.picks"), 0);
    }

    /// Default-options repair under an external token and seeds.
    fn run_under(
        p: &mut DistributedProgram,
        token: &Token,
        seeds: &WarmSeeds,
    ) -> Result<LazyOutcome, RepairAborted> {
        lazy_repair_warm(p, &RepairOptions::default(), &Telemetry::off(), token, seeds)
    }

    #[test]
    fn checkpoint_offers_fire_and_seed_a_resumed_run() {
        use crate::checkpoint::{CheckpointImage, CheckpointPolicy, Checkpointer};
        use std::sync::{Arc, Mutex};

        let images: Arc<Mutex<Vec<CheckpointImage>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_images = Arc::clone(&images);
        let policy = CheckpointPolicy {
            every_offers: 1,
            min_interval: std::time::Duration::ZERO,
            node_delta: 0,
        };
        let ck = Arc::new(Checkpointer::new(policy, move |img: &CheckpointImage| {
            sink_images.lock().unwrap().push(img.clone());
        }));
        let mut p = partial_view();
        let token = Token::unbounded().with_checkpointer(Arc::clone(&ck));
        let out = run_under(&mut p, &token, &WarmSeeds::none()).unwrap();
        assert!(!out.failed);
        assert!(ck.writes() >= 1, "every hooked boundary should have written");

        // Resume path: import the last image into a fresh manager and use
        // it as warm seeds — the exact mechanics of a post-crash resume.
        let last = images.lock().unwrap().last().unwrap().clone();
        let mut q = partial_view();
        let seeds = WarmSeeds {
            invariant: Some(q.cx.mgr().try_import(&last.invariant).expect("invariant imports")),
            span: Some(q.cx.mgr().try_import(&last.span).expect("span imports")),
        };
        let resumed = run_under(&mut q, &Token::unbounded(), &seeds).unwrap();
        assert!(!resumed.failed);
        let (masking, realizability) = verify_outcome(&mut q, &resumed);
        assert!(masking.ok(), "{masking:?}");
        assert!(realizability.ok(), "{realizability:?}");
        // Root-for-root parity with the uninterrupted run.
        assert_eq!(p.cx.count_states(out.invariant), q.cx.count_states(resumed.invariant));
        assert_eq!(p.cx.count_states(out.span), q.cx.count_states(resumed.span));
    }

    #[test]
    fn cancel_after_a_snapshot_unwinds_with_the_checkpoint_intact() {
        use crate::checkpoint::{CheckpointImage, CheckpointPolicy, Checkpointer};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // The drain scenario, scheduled deterministically: the sink raises
        // the cancel flag the moment the first snapshot lands, so the very
        // next `check_governed` at the same boundary aborts the run — and
        // the state it discards has already been captured.
        let flag = Arc::new(AtomicBool::new(false));
        let sink_flag = Arc::clone(&flag);
        let policy = CheckpointPolicy {
            every_offers: 1,
            min_interval: std::time::Duration::ZERO,
            node_delta: 0,
        };
        let ck = Arc::new(Checkpointer::new(policy, move |_img: &CheckpointImage| {
            sink_flag.store(true, Ordering::Relaxed);
        }));
        let mut p = partial_view();
        let token =
            Token::unbounded().with_flag(Arc::clone(&flag)).with_checkpointer(Arc::clone(&ck));
        let r = run_under(&mut p, &token, &WarmSeeds::none());
        assert_eq!(r.unwrap_err(), RepairAborted::Cancelled);
        assert_eq!(ck.writes(), 1, "exactly the snapshot that triggered the cancel");
    }

    #[test]
    fn raised_flag_cancels_mid_options_run() {
        let mut p = partial_view();
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let token = Token::unbounded().with_flag(flag);
        let r = run_under(&mut p, &token, &WarmSeeds::none());
        assert_eq!(r.unwrap_err(), RepairAborted::Cancelled);
    }
}
