//! Distributed programs, processes and the guarded-action builder.

use crate::spec::{Liveness, Safety};
use ftrepair_bdd::{NodeId, FALSE, TRUE};
use ftrepair_symbolic::{SymbolicContext, VarId};

/// One process of a distributed program (Definition 17): read set,
/// write set and transition predicate.
#[derive(Clone, Debug)]
pub struct Process {
    /// Human-readable name (diagnostics, DOT dumps).
    pub name: String,
    /// `R_j` — variables the process may read.
    pub read: Vec<VarId>,
    /// `W_j ⊆ R_j` — variables the process may write.
    pub write: Vec<VarId>,
    /// `δ_j` — the process's transition predicate (over current + next bits).
    pub trans: NodeId,
}

/// A distributed program `⟨V_P, P_P⟩` together with its repair inputs:
/// invariant `S`, faults `f` and safety specification `Sf`.
pub struct DistributedProgram {
    /// Name used in reports and table rows.
    pub name: String,
    /// The symbolic context owning all BDDs below.
    pub cx: SymbolicContext,
    /// The processes; `δ_P` is their union (plus stuttering, Definition 18).
    pub processes: Vec<Process>,
    /// The set of legitimate states `S`.
    pub invariant: NodeId,
    /// Fault transitions `f` (Definition 12).
    pub faults: NodeId,
    /// Safety specification (Definition 7).
    pub safety: Safety,
    /// Leads-to liveness properties (Definition 8) — checked, not
    /// synthesized for; see `verify::check_liveness`.
    pub liveness: Liveness,
}

impl DistributedProgram {
    /// `δ_P` — the union of all process transition predicates (without the
    /// stuttering completion; see [`crate::semantics`]).
    pub fn program_trans(&mut self) -> NodeId {
        let mut acc = FALSE;
        let parts: Vec<NodeId> = self.processes.iter().map(|p| p.trans).collect();
        for t in parts {
            acc = self.cx.mgr().or(acc, t);
        }
        acc
    }

    /// The per-process transition predicates `δ_j`, in process order. Step 2
    /// and the realizability checks work process by process. Step 1's
    /// forward reachability chains over writer parts instead
    /// ([`Self::write_frames`]), and every other image and fixpoint takes
    /// the monolithic union ([`Self::program_trans`]).
    pub fn partitions(&self) -> Vec<NodeId> {
        self.processes.iter().map(|p| p.trans).collect()
    }

    /// One frame `unchanged(V ∖ W_j)` per distinct write set `W_j`, in
    /// process order: the transitions some single process could take
    /// under the write restriction. Their union bounds recovery to one
    /// writer, and [`SymbolicContext::split_by_frames`] cuts a relation
    /// into the writer parts that chained reachability applies in turn.
    pub fn write_frames(&mut self) -> Vec<NodeId> {
        let mut frames = Vec::new();
        for j in 0..self.processes.len() {
            let unwritable = self.unwritable(j);
            let frame = self.cx.unchanged_all(&unwritable);
            if !frames.contains(&frame) {
                frames.push(frame);
            }
        }
        frames
    }

    /// Variables **not** writable by process `j` (the complement of `W_j`),
    /// i.e. the frame the write restriction forces on that process.
    pub fn unwritable(&self, j: usize) -> Vec<VarId> {
        let w = &self.processes[j].write;
        self.cx.var_ids().into_iter().filter(|v| !w.contains(v)).collect()
    }

    /// Variables **not** readable by process `j` — the ones its
    /// read-restriction groups quantify over.
    pub fn unreadable(&self, j: usize) -> Vec<VarId> {
        let r = &self.processes[j].read;
        self.cx.var_ids().into_iter().filter(|v| !r.contains(v)).collect()
    }

    /// Every BDD root the program itself owns: invariant, faults, the
    /// safety and liveness specification, and each process's transition
    /// predicate. A garbage collection during a repair must keep all of
    /// these alive for the program to stay meaningful.
    pub fn base_roots(&self) -> Vec<NodeId> {
        let mut roots =
            vec![self.invariant, self.faults, self.safety.bad_states, self.safety.bad_trans];
        roots.extend(self.processes.iter().map(|p| p.trans));
        for &(l, t) in &self.liveness.leads_to {
            roots.push(l);
            roots.push(t);
        }
        roots
    }

    /// Protect every base root in the manager (refcounted, see
    /// [`ftrepair_bdd::Manager::protect`]). Every repair entry point calls
    /// this once; the protections deliberately persist for the life of the
    /// program — the roots must stay valid for post-repair verification
    /// anyway.
    pub fn protect_base(&mut self) {
        for r in self.base_roots() {
            self.cx.mgr().protect(r);
        }
    }
}

impl std::fmt::Debug for DistributedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedProgram")
            .field("name", &self.name)
            .field("vars", &self.cx.num_program_vars())
            .field("processes", &self.processes.iter().map(|p| &p.name).collect::<Vec<_>>())
            .finish()
    }
}

/// How an action updates one variable.
#[derive(Clone, Debug)]
pub enum Update {
    /// `v := c`.
    Const(u64),
    /// `v := w` (copy another variable's current value).
    FromVar(VarId),
    /// `v := one of` the listed constants, chosen nondeterministically.
    Choice(Vec<u64>),
    /// An arbitrary relation over current bits and the **next** bits of the
    /// updated variable (escape hatch for anything the other forms can't
    /// say).
    Rel(NodeId),
}

/// Builder for [`DistributedProgram`]: declare variables, then processes,
/// then guarded actions / fault actions / specification parts.
///
/// ```
/// use ftrepair_program::{ProgramBuilder, Update};
///
/// let mut b = ProgramBuilder::new("toggle");
/// let x = b.var("x", 2);
/// b.process("p", &[x], &[x]);
/// let g = b.cx().assign_eq(x, 0);
/// b.action(g, &[(x, Update::Const(1))]);
/// let inv = ftrepair_bdd::TRUE;
/// b.invariant(inv);
/// let p = b.build();
/// assert_eq!(p.processes.len(), 1);
/// ```
pub struct ProgramBuilder {
    name: String,
    cx: SymbolicContext,
    processes: Vec<Process>,
    faults: NodeId,
    invariant: NodeId,
    bad_states: NodeId,
    bad_trans: NodeId,
    liveness: Liveness,
}

impl ProgramBuilder {
    /// Start a new program.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            cx: SymbolicContext::new(),
            processes: Vec::new(),
            faults: FALSE,
            invariant: TRUE,
            bad_states: FALSE,
            bad_trans: FALSE,
            liveness: Liveness::none(),
        }
    }

    /// Declare a finite-domain variable (domain `0..size`).
    pub fn var(&mut self, name: impl Into<String>, size: u64) -> VarId {
        self.cx.add_var(name, size)
    }

    /// The symbolic context, for building guards and custom relations.
    pub fn cx(&mut self) -> &mut SymbolicContext {
        &mut self.cx
    }

    /// Open a new process with the given read and write sets. Subsequent
    /// [`ProgramBuilder::action`] calls add to this process until the next
    /// `process` call. Enforces `W_j ⊆ R_j` (Definition 17).
    pub fn process(&mut self, name: impl Into<String>, read: &[VarId], write: &[VarId]) {
        let name = name.into();
        for w in write {
            assert!(
                read.contains(w),
                "process {name}: write set must be a subset of the read set (W ⊆ R)"
            );
        }
        self.processes.push(Process {
            name,
            read: read.to_vec(),
            write: write.to_vec(),
            trans: FALSE,
        });
    }

    /// Add a guarded action `guard → updates` to the current process.
    /// Every variable not named in `updates` is framed (left unchanged).
    /// Panics if no process is open or the action writes outside `W_j`.
    pub fn action(&mut self, guard: NodeId, updates: &[(VarId, Update)]) {
        let j = self.processes.len().checked_sub(1).expect("action before any process");
        {
            let p = &self.processes[j];
            for (v, _) in updates {
                assert!(
                    p.write.contains(v),
                    "process {}: action writes {} outside its write set",
                    p.name,
                    self.cx.info(*v).name
                );
            }
        }
        let t = self.action_trans(guard, updates);
        let p = &mut self.processes[j];
        // Borrow dance: `or` needs &mut cx while p.trans is read first.
        let old = p.trans;
        let merged = self.cx.mgr().or(old, t);
        self.processes[j].trans = merged;
    }

    /// Add a fault action (Definition 12). Faults are not bound by any
    /// process's read/write restrictions.
    pub fn fault_action(&mut self, guard: NodeId, updates: &[(VarId, Update)]) {
        let t = self.action_trans(guard, updates);
        self.faults = self.cx.mgr().or(self.faults, t);
    }

    /// Build the transition predicate for one guarded action with automatic
    /// framing of unmentioned variables.
    fn action_trans(&mut self, guard: NodeId, updates: &[(VarId, Update)]) -> NodeId {
        let mut t = guard;
        for (v, u) in updates {
            let constraint = match u {
                Update::Const(c) => self.cx.assign_const(*v, *c),
                Update::FromVar(w) => self.copy_var(*v, *w),
                Update::Choice(vals) => {
                    let mut acc = FALSE;
                    for &c in vals {
                        let e = self.cx.assign_const(*v, c);
                        acc = self.cx.mgr().or(acc, e);
                    }
                    acc
                }
                Update::Rel(r) => *r,
            };
            t = self.cx.mgr().and(t, constraint);
        }
        let updated: Vec<VarId> = updates.iter().map(|(v, _)| *v).collect();
        let framed: Vec<VarId> =
            self.cx.var_ids().into_iter().filter(|v| !updated.contains(v)).collect();
        let frame = self.cx.unchanged_all(&framed);
        let with_frame = self.cx.mgr().and(t, frame);
        // Keep next-state values inside their domains (matters for
        // non-power-of-two domains with relational updates).
        let universe = self.cx.transition_universe();
        self.cx.mgr().and(with_frame, universe)
    }

    /// `next(target) = cur(source)`.
    fn copy_var(&mut self, target: VarId, source: VarId) -> NodeId {
        let st = self.cx.info(target).size;
        let ss = self.cx.info(source).size;
        assert!(
            ss <= st,
            "cannot copy {} (size {ss}) into smaller {} (size {st})",
            self.cx.info(source).name,
            self.cx.info(target).name
        );
        let mut acc = FALSE;
        for val in 0..ss {
            let s = self.cx.assign_eq(source, val);
            let t = self.cx.assign_const(target, val);
            let both = self.cx.mgr().and(s, t);
            acc = self.cx.mgr().or(acc, both);
        }
        acc
    }

    /// Set the invariant `S` (the legitimate states).
    pub fn invariant(&mut self, s: NodeId) {
        self.invariant = s;
    }

    /// Add to the safety specification's bad states `Sf_bs`.
    pub fn bad_states(&mut self, bs: NodeId) {
        self.bad_states = self.cx.mgr().or(self.bad_states, bs);
    }

    /// Add to the safety specification's bad transitions `Sf_bt`.
    pub fn bad_trans(&mut self, bt: NodeId) {
        self.bad_trans = self.cx.mgr().or(self.bad_trans, bt);
    }

    /// Declare a leads-to liveness property `L ↝ T` (Definition 8).
    pub fn leads_to(&mut self, l: NodeId, t: NodeId) {
        self.liveness.add(l, t);
    }

    /// Finish building. The invariant is intersected with the state universe
    /// so non-power-of-two domains stay well-formed.
    pub fn build(mut self) -> DistributedProgram {
        let universe = self.cx.state_universe();
        let invariant = self.cx.mgr().and(self.invariant, universe);
        DistributedProgram {
            name: self.name,
            cx: self.cx,
            processes: self.processes,
            invariant,
            faults: self.faults,
            safety: Safety { bad_states: self.bad_states, bad_trans: self.bad_trans },
            liveness: self.liveness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two processes incrementing a shared-view counter pair.
    fn sample() -> DistributedProgram {
        let mut b = ProgramBuilder::new("sample");
        let x = b.var("x", 3);
        let y = b.var("y", 3);
        b.process("px", &[x, y], &[x]);
        for v in 0..2 {
            let g = b.cx().assign_eq(x, v);
            b.action(g, &[(x, Update::Const(v + 1))]);
        }
        b.process("py", &[x, y], &[y]);
        let g = b.cx().assign_eq(y, 0);
        b.action(g, &[(y, Update::FromVar(x))]);
        let inv = TRUE;
        b.invariant(inv);
        b.build()
    }

    #[test]
    fn actions_frame_unmentioned_vars() {
        let mut p = sample();
        let t = p.processes[0].trans;
        // Every px transition leaves y unchanged.
        let y = p.cx.find_var("y").unwrap();
        let uy = p.cx.unchanged(y);
        assert!(p.cx.mgr().leq(t, uy));
    }

    #[test]
    fn program_trans_is_union() {
        let mut p = sample();
        let t0 = p.processes[0].trans;
        let t1 = p.processes[1].trans;
        let expected = p.cx.mgr().or(t0, t1);
        assert_eq!(p.program_trans(), expected);
        assert_eq!(p.partitions(), vec![t0, t1]);
    }

    #[test]
    fn copy_var_copies_each_value() {
        let mut p = sample();
        // py's action: y=0 → y := x. Check transition (x=2,y=0) → (2,2).
        let t = p.processes[1].trans;
        let good = p.cx.transition_cube(&[2, 0], &[2, 2]);
        assert!(p.cx.mgr().leq(good, t));
        let bad = p.cx.transition_cube(&[2, 0], &[2, 1]);
        assert!(p.cx.mgr().disjoint(bad, t));
        // Guard y≠0 disables the action.
        let disabled = p.cx.transition_cube(&[2, 1], &[2, 2]);
        assert!(p.cx.mgr().disjoint(disabled, t));
    }

    #[test]
    fn transitions_respect_domains() {
        let mut p = sample();
        let t = p.program_trans();
        let universe = p.cx.transition_universe();
        assert!(p.cx.mgr().leq(t, universe));
    }

    #[test]
    fn unwritable_and_unreadable_sets() {
        let p = sample();
        let x = p.cx.find_var("x").unwrap();
        let y = p.cx.find_var("y").unwrap();
        assert_eq!(p.unwritable(0), vec![y]);
        assert_eq!(p.unwritable(1), vec![x]);
        assert_eq!(p.unreadable(0), vec![]); // px reads everything
    }

    #[test]
    #[should_panic(expected = "W ⊆ R")]
    fn write_outside_read_rejected() {
        let mut b = ProgramBuilder::new("bad");
        let x = b.var("x", 2);
        let y = b.var("y", 2);
        b.process("p", &[x], &[y]);
    }

    #[test]
    #[should_panic(expected = "outside its write set")]
    fn action_outside_write_set_rejected() {
        let mut b = ProgramBuilder::new("bad");
        let x = b.var("x", 2);
        let y = b.var("y", 2);
        b.process("p", &[x, y], &[x]);
        b.action(TRUE, &[(y, Update::Const(0))]);
    }

    #[test]
    #[should_panic(expected = "action before any process")]
    fn action_before_process_rejected() {
        let mut b = ProgramBuilder::new("bad");
        let x = b.var("x", 2);
        b.action(TRUE, &[(x, Update::Const(0))]);
    }

    #[test]
    fn choice_update_is_nondeterministic() {
        let mut b = ProgramBuilder::new("choice");
        let x = b.var("x", 4);
        b.process("p", &[x], &[x]);
        let g = b.cx().assign_eq(x, 0);
        b.action(g, &[(x, Update::Choice(vec![1, 3]))]);
        b.invariant(TRUE);
        let mut p = b.build();
        let t = p.processes[0].trans;
        assert_eq!(p.cx.count_transitions(t), 2.0);
        let s0 = p.cx.state_cube(&[0]);
        let img = p.cx.image(s0, t);
        let s1 = p.cx.state_cube(&[1]);
        let s3 = p.cx.state_cube(&[3]);
        let expected = p.cx.mgr().or(s1, s3);
        assert_eq!(img, expected);
    }

    #[test]
    fn fault_actions_accumulate_separately() {
        let mut b = ProgramBuilder::new("faulty");
        let x = b.var("x", 2);
        b.process("p", &[x], &[x]);
        let g = b.cx().assign_eq(x, 0);
        b.action(g, &[(x, Update::Const(1))]);
        let fg = b.cx().assign_eq(x, 1);
        b.fault_action(fg, &[(x, Update::Const(0))]);
        b.invariant(TRUE);
        let mut p = b.build();
        let prog = p.program_trans();
        assert!(p.cx.mgr().disjoint(prog, p.faults));
        assert_eq!(p.cx.count_transitions(p.faults), 1.0);
    }

    #[test]
    fn invariant_constrained_to_universe() {
        let mut b = ProgramBuilder::new("inv");
        let _x = b.var("x", 3); // 2 bits, one dead encoding
        b.invariant(TRUE);
        let mut p = b.build();
        assert_eq!(p.cx.count_states(p.invariant), 3.0);
        let universe = p.cx.state_universe();
        assert!(p.cx.mgr().leq(p.invariant, universe));
    }
}
