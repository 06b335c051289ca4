//! The BDD manager: node arena, unique table, computed table, garbage
//! collection, and the spare tables a dropped manager leaves to the next
//! one on its thread.

use crate::cache::{ComputedTable, Entry, Op, MIN_SLOTS};
use crate::hash::FxHashMap;
use crate::node::{Node, NodeId, FALSE, FREE_LEVEL, TERMINAL_LEVEL, TRUE};
use crate::unique::Subtable;
use std::cell::Cell;

/// Hit/miss tally of one operation's share of the computed table (or of
/// the unique table). Counters cover the manager's whole life: GC sweeps
/// and table growth drop or move entries, not history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounter {
    pub hits: u64,
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheCounter {
    /// Total probes.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits over probes, in `[0, 1]`; 0 when the cache was never probed.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Per-cache hit/miss snapshot covering the six operation families of the
/// computed table plus the unique table. Rates, not raw counts, are the
/// headline numbers
/// ([`CacheCounter::hit_rate`]); raw counts stay available for summing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub not: CacheCounter,
    pub apply: CacheCounter,
    pub ite: CacheCounter,
    pub quant: CacheCounter,
    pub and_exists: CacheCounter,
    pub rename: CacheCounter,
    pub unique: CacheCounter,
}

impl CacheStats {
    /// The six operation families of the computed table as
    /// `(name, counter)` pairs, excluding the unique table.
    pub fn op_caches(&self) -> [(&'static str, CacheCounter); 6] {
        [
            ("not", self.not),
            ("apply", self.apply),
            ("ite", self.ite),
            ("quant", self.quant),
            ("and_exists", self.and_exists),
            ("rename", self.rename),
        ]
    }
}

/// Counters exposed for benchmarking and regression tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Live (allocated, not freed) internal nodes, excluding terminals.
    pub live_nodes: usize,
    /// High-water mark of `live_nodes` over the manager's lifetime.
    pub peak_live_nodes: usize,
    /// Total arena capacity ever allocated, excluding terminals.
    pub allocated_nodes: usize,
    /// Slots currently on the free list.
    pub free_nodes: usize,
    /// Entries resident in the computed table.
    pub cache_entries: usize,
    /// Slots of the computed table: the most entries it can hold.
    pub cache_slots: usize,
    /// Slots across the unique subtables (4 bytes each, at most half
    /// full).
    pub unique_slots: usize,
    /// Number of garbage collections performed.
    pub gc_runs: usize,
    /// Computed-table doublings plus unique-subtable doublings. A manager
    /// that started from the tables of a larger job on its thread grows
    /// them rarely or never.
    pub table_growths: usize,
    /// `mk` calls that found an existing node in the unique table.
    pub unique_hits: u64,
    /// `mk` calls that created a fresh node.
    pub unique_misses: u64,
    /// Always 0: the variable order is fixed, so no reorder ever runs. Kept
    /// so readers of older reports and the benchmark ledger see the field.
    pub reorder_runs: u64,
    /// Always 0, like [`ManagerStats::reorder_runs`].
    pub reorder_swaps: u64,
}

/// Largest spare a thread keeps: a dropped manager whose tables take more
/// bytes than this frees them instead.
const SPARE_CAP_BYTES: usize = 64 << 20;

/// The tables a dropped manager leaves to the next [`Manager::new`] on its
/// thread: the node arena's allocation, the computed table's slots and the
/// unique subtables, each at the size it reached. Their contents are
/// stale; a manager empties what it takes before using it.
struct Spare {
    nodes: Vec<Node>,
    cache: Vec<Entry>,
    /// Subtables in reverse level order, so `pop` yields level 0 first and
    /// a job over the same variables gets back each level's size.
    unique: Vec<Subtable>,
}

impl Default for Spare {
    /// What a manager starts from on a thread without a spare.
    fn default() -> Self {
        Spare {
            nodes: Vec::with_capacity(1024),
            cache: vec![Entry::default(); MIN_SLOTS],
            unique: Vec::new(),
        }
    }
}

impl Spare {
    fn bytes(&self) -> usize {
        std::mem::size_of::<Node>() * self.nodes.capacity()
            + std::mem::size_of::<Entry>() * self.cache.len()
            + std::mem::size_of::<u32>() * self.unique.iter().map(Subtable::slots).sum::<usize>()
    }
}

thread_local! {
    /// The thread's one spare, if its last dropped manager left one.
    static SPARE: Cell<Option<Spare>> = const { Cell::new(None) };
}

/// Armed garbage-collection trigger (see [`Manager::maybe_gc`]).
#[derive(Clone, Copy, Debug)]
struct GcTrigger {
    /// Collect at the next checkpoint once the live-node count reaches this.
    threshold: usize,
    /// Configured floor the threshold never drops below.
    floor: usize,
}

/// A BDD manager owning the node arena for one fixed variable order.
///
/// Variables are identified by their index `0..num_vars`, and the index is
/// also the level: variable 0 is tested first. All [`NodeId`]s returned by
/// a manager are only valid with that manager; use [`crate::SerializedBdd`]
/// to move functions between managers.
///
/// A manager starts from the tables the last manager dropped on the same
/// thread left behind, emptied, unless they took more than 64 MB: the node
/// arena's allocation, the computed table and the unique subtables, at the
/// sizes they reached. Jobs run one after another on a thread therefore
/// neither regrow their tables nor fault their pages in again. Results do
/// not depend on it: only hit rates and the table-size statistics do.
pub struct Manager {
    pub(crate) nodes: Vec<Node>,
    /// The unique table: one open-addressed subtable of arena indices per
    /// level (see `unique.rs`).
    unique: Vec<Subtable>,
    /// Inherited subtables not yet given a level, for
    /// [`Manager::add_vars`]; in [`Spare`]'s order.
    spare_unique: Vec<Subtable>,
    /// Freed arena slots; a freed node's `var` is [`FREE_LEVEL`].
    pub(crate) free: Vec<u32>,
    num_vars: u32,
    /// The computed table every recursive operation memoizes in (see
    /// `cache.rs`).
    cache: ComputedTable,
    /// Externally protected roots (refcounted) that GC must keep alive.
    pub(crate) protected: FxHashMap<NodeId, u32>,
    /// Interned variable sets for quantification (see `quant.rs`), stored as
    /// sorted variable indices.
    pub(crate) varsets: Vec<Vec<u32>>,
    varset_ids: FxHashMap<Vec<u32>, u32>,
    /// Interned order-preserving variable maps for renaming (see
    /// `rename.rs`), as index pairs sorted by source (and so by target).
    pub(crate) varmaps: Vec<Vec<(u32, u32)>>,
    varmap_ids: FxHashMap<Vec<(u32, u32)>, u32>,
    gc_runs: usize,
    /// Unique-subtable doublings.
    unique_growths: usize,
    pub(crate) unique_hits: u64,
    pub(crate) unique_misses: u64,
    /// Live internal nodes, maintained incrementally by `mk` and GC.
    live_count: usize,
    /// High-water mark of `live_count`.
    peak_live: usize,
    /// Armed garbage-collection trigger, if any (see
    /// [`Manager::set_gc_threshold`]).
    gc_trigger: Option<GcTrigger>,
    /// Live-node budget (0 = unlimited; see [`Manager::set_node_budget`]).
    node_budget: usize,
    /// Sticky flag: the budget was exceeded and a GC could not help.
    budget_exhausted: bool,
}

impl Manager {
    /// Create a manager for `num_vars` boolean variables (levels
    /// `0..num_vars`), from the thread's spare tables if it has them.
    pub fn new(num_vars: u32) -> Self {
        let Spare { mut nodes, cache, unique } =
            SPARE.try_with(Cell::take).ok().flatten().unwrap_or_default();
        nodes.clear();
        // Terminal nodes occupy slots 0 and 1; their children are self-loops
        // that no traversal ever follows (guarded by `is_terminal`).
        nodes.push(Node { var: TERMINAL_LEVEL, lo: FALSE, hi: FALSE });
        nodes.push(Node { var: TERMINAL_LEVEL, lo: TRUE, hi: TRUE });
        let mut m = Manager {
            nodes,
            unique: Vec::new(),
            spare_unique: unique,
            free: Vec::new(),
            num_vars: 0,
            cache: ComputedTable::recycled(cache),
            protected: FxHashMap::default(),
            varsets: Vec::new(),
            varset_ids: FxHashMap::default(),
            varmaps: Vec::new(),
            varmap_ids: FxHashMap::default(),
            gc_runs: 0,
            unique_growths: 0,
            unique_hits: 0,
            unique_misses: 0,
            live_count: 0,
            peak_live: 0,
            gc_trigger: None,
            node_budget: 0,
            budget_exhausted: false,
        };
        m.add_vars(num_vars);
        m
    }

    /// Number of boolean variables this manager was created with.
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Grow the variable universe (new variables enter at the bottom of the
    /// order; existing BDDs are unaffected because the new levels sort below
    /// all existing nodes).
    pub fn add_vars(&mut self, extra: u32) {
        self.num_vars += extra;
        for _ in 0..extra {
            let mut table = self.spare_unique.pop().unwrap_or_default();
            table.reset_for(0);
            self.unique.push(table);
        }
    }

    /// The branching variable of a node, which is also its level
    /// (`TERMINAL_LEVEL` for terminals).
    #[inline]
    pub(crate) fn level(&self, f: NodeId) -> u32 {
        self.nodes[f.0 as usize].var
    }

    /// Low (else) child. Caller must ensure `f` is internal.
    #[inline]
    pub(crate) fn lo(&self, f: NodeId) -> NodeId {
        self.nodes[f.0 as usize].lo
    }

    /// High (then) child. Caller must ensure `f` is internal.
    #[inline]
    pub(crate) fn hi(&self, f: NodeId) -> NodeId {
        self.nodes[f.0 as usize].hi
    }

    /// Hash-consing constructor: the unique canonical node branching on
    /// `var` (equivalently, at level `var`).
    #[inline]
    pub(crate) fn mk(&mut self, var: u32, lo: NodeId, hi: NodeId) -> NodeId {
        debug_assert!(var < self.num_vars, "variable {var} out of range");
        if lo == hi {
            return lo; // reduction rule
        }
        debug_assert!(var < self.level(lo) && var < self.level(hi), "order violation");
        let slot = match self.unique[var as usize].find(&self.nodes, lo, hi) {
            Ok(id) => {
                self.unique_hits += 1;
                return id;
            }
            Err(slot) => slot,
        };
        self.unique_misses += 1;
        let node = Node { var, lo, hi };
        let id = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                NodeId(slot)
            }
            None => {
                let slot = u32::try_from(self.nodes.len()).expect("arena exceeds u32 indices");
                self.nodes.push(node);
                NodeId(slot)
            }
        };
        if self.unique[var as usize].insert_at(slot, id, &self.nodes) {
            self.unique_growths += 1;
        }
        self.live_count += 1;
        if self.live_count > self.peak_live {
            self.peak_live = self.live_count;
        }
        id
    }

    /// The function `var(v)` — true iff variable `v` is true.
    pub fn var(&mut self, v: u32) -> NodeId {
        self.mk(v, FALSE, TRUE)
    }

    /// The function `¬var(v)`.
    pub fn nvar(&mut self, v: u32) -> NodeId {
        self.mk(v, TRUE, FALSE)
    }

    /// The conjunction of literals described by `(variable, positive)` pairs.
    /// Pairs may be in any order; duplicate variables must agree (conflicting
    /// literals yield `FALSE`).
    pub fn cube(&mut self, literals: &[(u32, bool)]) -> NodeId {
        let mut lits: Vec<(u32, bool)> = literals.to_vec();
        lits.sort_unstable();
        for w in lits.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 != w[1].1 {
                return FALSE;
            }
        }
        lits.dedup();
        // Build bottom-up: deepest level first.
        let mut acc = TRUE;
        for &(v, pos) in lits.iter().rev() {
            acc = if pos { self.mk(v, FALSE, acc) } else { self.mk(v, acc, FALSE) };
        }
        acc
    }

    /// Protect a root from garbage collection (refcounted; pair with
    /// [`Manager::unprotect`]).
    pub fn protect(&mut self, f: NodeId) {
        *self.protected.entry(f).or_insert(0) += 1;
    }

    /// Drop one protection count added by [`Manager::protect`].
    pub fn unprotect(&mut self, f: NodeId) {
        match self.protected.get_mut(&f) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.protected.remove(&f);
            }
            None => panic!("unprotect of unprotected node {f:?}"),
        }
    }

    /// Look a key up in the computed table.
    #[inline]
    pub(crate) fn cache_get(&mut self, op: Op, a: NodeId, b: NodeId, c: u32) -> Option<NodeId> {
        self.cache.get(op, a, b, c)
    }

    /// Memoize `key ↦ r` in the computed table, which may grow while it is
    /// small next to the live-node count.
    #[inline]
    pub(crate) fn cache_insert(&mut self, op: Op, a: NodeId, b: NodeId, c: u32, r: NodeId) {
        self.cache.insert(op, a, b, c, r, self.live_count);
    }

    /// Arm (or, with 0, disarm) a live-node budget, clearing any latched
    /// exhaustion. The budget is enforced at the governance checkpoints
    /// (see [`Manager::maybe_gc`]): when the live count exceeds it, the
    /// checkpoint collects garbage first, and only if the arena is *still*
    /// over budget does it latch [`Manager::budget_exhausted`] — a repair
    /// layer then aborts cleanly at its next cancellation boundary instead
    /// of letting the arena grow until the OOM killer fires.
    pub fn set_node_budget(&mut self, budget: usize) {
        self.node_budget = budget;
        self.budget_exhausted = false;
    }

    /// The armed live-node budget (0 = unlimited).
    pub fn node_budget(&self) -> usize {
        self.node_budget
    }

    /// Has a governance checkpoint found the arena irrecoverably over
    /// budget? Sticky until [`Manager::set_node_budget`] re-arms.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// The budget half of the governance checkpoint ([`Manager::maybe_gc`]
    /// calls this first). `roots` must cover every external `NodeId` the
    /// caller still needs, exactly as for [`Manager::gc`].
    pub fn enforce_node_budget(&mut self, roots: &[NodeId]) {
        if self.node_budget == 0 || self.budget_exhausted || self.live_count <= self.node_budget {
            return;
        }
        // Over budget: garbage must never cause an abort, so collect and
        // re-measure before declaring exhaustion.
        self.gc(roots.iter().copied());
        if self.live_count > self.node_budget {
            self.budget_exhausted = true;
        }
    }

    /// Arm the garbage-collection trigger that [`Manager::maybe_gc`]
    /// checks. The threshold (at least 16) is also the floor the trigger
    /// never re-arms below.
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        let t = threshold.max(16);
        self.gc_trigger = Some(GcTrigger { threshold: t, floor: t });
    }

    /// The floor of the armed garbage-collection trigger, if one is armed.
    pub fn gc_floor(&self) -> Option<usize> {
        self.gc_trigger.map(|t| t.floor)
    }

    /// The governance checkpoint, called only between operations (the
    /// repair loops use the boundaries where the cancellation token is
    /// polled). It enforces the node budget, then, if the trigger is armed
    /// and the live-node count has reached its threshold, collects down to
    /// `roots` ∪ protected and re-arms at twice the survivors (never below
    /// the floor), so the next collection waits for the arena to double
    /// again. Arena growth during a fixpoint is mostly dead intermediates,
    /// which is why collecting here bounds the peak.
    ///
    /// `roots` must cover every external `NodeId` the caller intends to use
    /// again that is not covered by [`Manager::protect`]; anything
    /// unreachable from them is garbage.
    pub fn maybe_gc(&mut self, roots: &[NodeId]) {
        self.enforce_node_budget(roots);
        let Some(trigger) = self.gc_trigger else { return };
        if self.live_count < trigger.threshold {
            return;
        }
        self.gc(roots.iter().copied());
        let threshold = (2 * self.live_count).max(trigger.floor);
        self.gc_trigger = Some(GcTrigger { threshold, ..trigger });
    }

    /// Mark-and-sweep garbage collection.
    ///
    /// Keeps every node reachable from `roots` or from a
    /// [`Manager::protect`]ed root; all other slots go to the free list and
    /// node ids of survivors remain stable. Each unique subtable is emptied
    /// and refilled with its level's survivors, at its own size unless that
    /// is too small for them. Computed-table entries naming a dead node are
    /// dropped and the rest stay, so a GC mid-fixpoint does not force the
    /// next iteration to recompute everything from scratch.
    pub fn gc<I: IntoIterator<Item = NodeId>>(&mut self, roots: I) {
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        marked[1] = true;
        let mut stack: Vec<NodeId> = roots.into_iter().collect();
        stack.extend(self.protected.keys().copied());
        while let Some(f) = stack.pop() {
            let idx = f.0 as usize;
            if marked[idx] {
                continue;
            }
            marked[idx] = true;
            let node = self.nodes[idx];
            if !f.is_terminal() {
                stack.push(node.lo);
                stack.push(node.hi);
            }
        }
        // Propagation above is top-down only through pushed children, which is
        // complete because children are pushed exactly when the parent is
        // first marked.
        let mut survivors = vec![0usize; self.unique.len()];
        for (idx, &is_marked) in marked.iter().enumerate().skip(2) {
            let node = &mut self.nodes[idx];
            if is_marked {
                survivors[node.var as usize] += 1;
            } else if node.var != FREE_LEVEL {
                node.var = FREE_LEVEL;
                self.free.push(idx as u32);
            }
        }
        for (table, &n) in self.unique.iter_mut().zip(&survivors) {
            table.reset_for(n);
        }
        for (idx, &is_marked) in marked.iter().enumerate().skip(2) {
            if is_marked {
                let node = &self.nodes[idx];
                self.unique[node.var as usize].place(NodeId(idx as u32), node);
            }
        }
        self.live_count = self.nodes.len() - 2 - self.free.len();
        self.cache.retain_live(|f| marked[f as usize]);
        self.gc_runs += 1;
    }

    /// Number of nodes reachable from `f`, including terminals.
    pub fn node_count(&self, f: NodeId) -> usize {
        self.node_count_many(&[f])
    }

    /// Number of distinct nodes reachable from any of `roots`, including
    /// terminals — shared structure is counted once, so this measures what
    /// a joint export (e.g. a checkpoint's invariant + span + `ms`) would
    /// actually cost, not the sum of per-root counts.
    pub fn node_count_many(&self, roots: &[NodeId]) -> usize {
        let mut seen = crate::hash::FxHashSet::default();
        let mut stack = roots.to_vec();
        while let Some(g) = stack.pop() {
            if seen.insert(g) && !g.is_terminal() {
                stack.push(self.lo(g));
                stack.push(self.hi(g));
            }
        }
        seen.len()
    }

    /// Validate the structural invariants of the arena: every live node is
    /// reduced (`lo != hi`), ordered (children at strictly greater levels),
    /// canonical (present in the unique table exactly once), and refers only
    /// to live slots; every free-list slot is marked free. Panics with a
    /// description on the first violation. O(arena size); meant for tests
    /// and debugging, not hot paths.
    pub fn check_integrity(&self) {
        let free: crate::hash::FxHashSet<u32> = self.free.iter().copied().collect();
        assert_eq!(free.len(), self.free.len(), "duplicate slots on the free list");
        for idx in 2..self.nodes.len() {
            let id = NodeId(idx as u32);
            assert_eq!(
                free.contains(&(idx as u32)),
                self.nodes[idx].var == FREE_LEVEL,
                "free list and arena disagree on slot {id:?}"
            );
            if free.contains(&(idx as u32)) {
                continue;
            }
            let node = self.nodes[idx];
            assert!(node.lo != node.hi, "unreduced node {id:?}");
            assert!(node.var < self.num_vars, "node {id:?} variable out of range");
            for child in [node.lo, node.hi] {
                assert!(
                    (child.0 as usize) < self.nodes.len(),
                    "node {id:?} has dangling child {child:?}"
                );
                assert!(!free.contains(&child.0), "node {id:?} points to freed slot {child:?}");
                assert!(
                    node.var < self.level(child),
                    "order violation at {id:?}: level {} !< child {}",
                    node.var,
                    self.level(child)
                );
            }
            assert_eq!(
                self.unique[node.var as usize].find(&self.nodes, node.lo, node.hi),
                Ok(id),
                "node {id:?} missing from or duplicated in the unique table"
            );
        }
        assert_eq!(
            self.unique.iter().map(Subtable::len).sum::<usize>(),
            self.nodes.len() - 2 - self.free.len(),
            "unique table size does not match live node count"
        );
        assert_eq!(
            self.live_count,
            self.nodes.len() - 2 - self.free.len(),
            "incremental live counter out of sync"
        );
    }

    /// Per-cache hit/miss snapshot across the computed table's six
    /// operation families and the unique table (see [`CacheStats`]).
    pub fn cache_stats(&self) -> CacheStats {
        let [not, apply, ite, quant, and_exists, rename] = self.cache.counters();
        CacheStats {
            not,
            apply,
            ite,
            quant,
            and_exists,
            rename,
            unique: CacheCounter {
                hits: self.unique_hits,
                misses: self.unique_misses,
                entries: self.unique.iter().map(Subtable::len).sum(),
            },
        }
    }

    /// Snapshot of arena and cache counters.
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            live_nodes: self.nodes.len() - 2 - self.free.len(),
            peak_live_nodes: self.peak_live,
            allocated_nodes: self.nodes.len() - 2,
            free_nodes: self.free.len(),
            cache_entries: self.cache.len(),
            cache_slots: self.cache.slots(),
            unique_slots: self.unique.iter().map(Subtable::slots).sum(),
            gc_runs: self.gc_runs,
            table_growths: self.cache.growths() + self.unique_growths,
            unique_hits: self.unique_hits,
            unique_misses: self.unique_misses,
            reorder_runs: 0,
            reorder_swaps: 0,
        }
    }

    /// Intern a set of variable indices for quantification; sorted and
    /// deduped.
    pub fn varset(&mut self, vars: &[u32]) -> crate::quant::VarSetId {
        let mut vs: Vec<u32> = vars.to_vec();
        vs.sort_unstable();
        vs.dedup();
        for &v in &vs {
            assert!(v < self.num_vars, "varset variable {v} out of range");
        }
        if let Some(&id) = self.varset_ids.get(&vs) {
            return crate::quant::VarSetId(id);
        }
        let id = self.varsets.len() as u32;
        self.varsets.push(vs.clone());
        self.varset_ids.insert(vs, id);
        crate::quant::VarSetId(id)
    }

    /// The variable indices of an interned variable set (sorted ascending).
    pub fn varset_levels(&self, vs: crate::quant::VarSetId) -> &[u32] {
        &self.varsets[vs.0 as usize]
    }

    /// Intern an **order-preserving** variable map `from → to` for renaming.
    ///
    /// Order preservation (sources and targets sorted the same way) is what
    /// makes renaming a single linear rebuild; it is asserted here.
    pub fn varmap(&mut self, pairs: &[(u32, u32)]) -> crate::rename::VarMapId {
        let mut map: Vec<(u32, u32)> = pairs.to_vec();
        map.sort_unstable();
        map.dedup();
        for w in map.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate source variable {}", w[0].0);
        }
        for &(from, to) in &map {
            assert!(from < self.num_vars && to < self.num_vars, "varmap variable out of range");
        }
        for w in map.windows(2) {
            assert!(w[0].1 < w[1].1, "variable map is not order-preserving");
        }
        if let Some(&id) = self.varmap_ids.get(&map) {
            return crate::rename::VarMapId(id);
        }
        let id = self.varmaps.len() as u32;
        self.varmaps.push(map.clone());
        self.varmap_ids.insert(map, id);
        crate::rename::VarMapId(id)
    }
}

impl Drop for Manager {
    /// Leave the tables to the thread's next manager, in place of any spare
    /// it already has, unless they take more than 64 MB. A manager dropped
    /// while the thread's locals are torn down frees them instead.
    fn drop(&mut self) {
        let mut unique = std::mem::take(&mut self.spare_unique);
        unique.extend(self.unique.drain(..).rev());
        let spare = Spare {
            nodes: std::mem::take(&mut self.nodes),
            cache: self.cache.take_slots(),
            unique,
        };
        if spare.bytes() <= SPARE_CAP_BYTES {
            let _ = SPARE.try_with(|slot| slot.set(Some(spare)));
        }
    }
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager")
            .field("num_vars", &self.num_vars)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mk_reduces_equal_children() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        assert_eq!(m.mk(1, a, a), a);
    }

    #[test]
    fn node_count_many_counts_shared_structure_once() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        // `b` is literally `ab`'s hi-child, so jointly they cost exactly
        // what `ab` costs alone — strictly less than the per-root sum.
        let joint = m.node_count_many(&[ab, b]);
        assert_eq!(joint, m.node_count(ab));
        assert!(joint < m.node_count(ab) + m.node_count(b));
        // Duplicated roots change nothing; no roots count nothing.
        assert_eq!(m.node_count_many(&[ab, ab]), m.node_count(ab));
        assert_eq!(m.node_count_many(&[]), 0);
    }

    #[test]
    fn mk_hash_conses() {
        let mut m = Manager::new(2);
        let f = m.mk(0, FALSE, TRUE);
        let g = m.mk(0, FALSE, TRUE);
        assert_eq!(f, g);
        assert_eq!(m.stats().live_nodes, 1);
    }

    #[test]
    fn var_and_nvar() {
        let mut m = Manager::new(1);
        let v = m.var(0);
        let nv = m.nvar(0);
        assert_ne!(v, nv);
        assert_eq!(m.lo(v), FALSE);
        assert_eq!(m.hi(v), TRUE);
        assert_eq!(m.lo(nv), TRUE);
        assert_eq!(m.hi(nv), FALSE);
    }

    #[test]
    fn cube_builds_conjunction() {
        let mut m = Manager::new(3);
        let c = m.cube(&[(2, true), (0, false)]);
        // ¬x0 ∧ x2: evaluate all 8 assignments.
        for bits in 0..8u32 {
            let assignment = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let expected = !assignment[0] && assignment[2];
            assert_eq!(m.eval(c, &assignment), expected, "bits={bits:03b}");
        }
    }

    #[test]
    fn cube_conflicting_literals_is_false() {
        let mut m = Manager::new(1);
        assert_eq!(m.cube(&[(0, true), (0, false)]), FALSE);
    }

    #[test]
    fn cube_duplicate_literals_dedup() {
        let mut m = Manager::new(1);
        let c = m.cube(&[(0, true), (0, true)]);
        let v = m.var(0);
        assert_eq!(c, v);
    }

    #[test]
    fn gc_frees_unreachable_keeps_roots() {
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let keep = m.and(a, b);
        let drop1 = m.var(2);
        let drop2 = m.or(drop1, keep);
        let live_before = m.stats().live_nodes;
        m.gc([keep]);
        let stats = m.stats();
        assert!(stats.live_nodes < live_before, "something should be freed");
        assert_eq!(stats.gc_runs, 1);
        // keep must still be intact and correct.
        assert!(m.eval(keep, &[true, true, false, false]));
        assert!(!m.eval(keep, &[true, false, false, false]));
        let _ = drop2; // id may now be recycled; never dereferenced again
    }

    #[test]
    fn gc_respects_protected_roots() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        m.protect(f);
        m.gc([]);
        assert!(m.eval(f, &[true, false]));
        assert!(!m.eval(f, &[true, true]));
        m.unprotect(f);
    }

    #[test]
    fn gc_reuses_free_slots() {
        let mut m = Manager::new(8);
        let junk: Vec<NodeId> = (0..8).map(|i| m.var(i)).collect();
        let allocated = m.stats().allocated_nodes;
        drop(junk);
        m.gc([]);
        assert_eq!(m.stats().free_nodes, allocated);
        // New allocations should reuse freed slots, not grow the arena.
        let _ = m.var(3);
        assert_eq!(m.stats().allocated_nodes, allocated);
    }

    #[test]
    fn node_budget_collects_garbage_before_latching() {
        let mut m = Manager::new(8);
        let a = m.var(0);
        let b = m.var(1);
        let keep = m.and(a, b);
        // Garbage well past a tiny budget: the checkpoint must rescue via
        // GC rather than declare exhaustion.
        for i in 2..8 {
            let _ = m.var(i);
        }
        m.set_node_budget(4);
        assert!(m.stats().live_nodes > 4, "setup: arena over budget");
        m.enforce_node_budget(&[keep]);
        assert!(!m.budget_exhausted(), "GC alone recovers: no exhaustion");
        assert!(m.stats().live_nodes <= 4);
        assert!(m.eval(keep, &[true, true, false, false, false, false, false, false]));
    }

    #[test]
    fn node_budget_latches_when_live_nodes_exceed_it() {
        let mut m = Manager::new(8);
        let roots: Vec<NodeId> = (0..8).map(|i| m.var(i)).collect();
        m.set_node_budget(4);
        m.enforce_node_budget(&roots);
        assert!(m.budget_exhausted(), "8 live roots cannot fit a budget of 4");
        // Sticky until re-armed, and a zero budget disarms entirely.
        m.enforce_node_budget(&roots);
        assert!(m.budget_exhausted());
        m.set_node_budget(0);
        assert!(!m.budget_exhausted(), "re-arming clears the latch");
        m.enforce_node_budget(&roots);
        assert!(!m.budget_exhausted(), "budget 0 = unlimited");
    }

    #[test]
    fn maybe_gc_runs_the_budget_checkpoint_when_disarmed() {
        // The trigger is never armed: the budget must still latch.
        let mut m = Manager::new(8);
        let roots: Vec<NodeId> = (0..8).map(|i| m.var(i)).collect();
        m.set_node_budget(4);
        m.maybe_gc(&roots);
        assert!(m.budget_exhausted(), "checkpoint fires with the trigger disarmed");
    }

    #[test]
    fn gc_trigger_fires_and_rearms() {
        let mut m = Manager::new(16);
        m.set_gc_threshold(32);
        assert_eq!(m.gc_floor(), Some(32));
        m.maybe_gc(&[]);
        assert_eq!(m.stats().gc_runs, 0, "below threshold");
        let mut keep = FALSE;
        for i in 0..8 {
            let (a, b) = (m.var(i), m.var(8 + i));
            let ab = m.and(a, b);
            keep = m.or(keep, ab);
        }
        assert!(m.stats().live_nodes >= 32, "setup: arena at threshold");
        m.maybe_gc(&[keep]);
        assert_eq!(m.stats().gc_runs, 1, "should fire at threshold");
        let survivors = m.stats().live_nodes;
        assert_eq!(survivors, m.node_count(keep) - 2, "collected down to the root");
        m.check_integrity();
        // Re-armed at max(2 × survivors, floor): an immediate second call
        // must not fire again.
        m.maybe_gc(&[keep]);
        assert_eq!(m.stats().gc_runs, 1);
    }

    #[test]
    fn double_gc_does_not_double_free() {
        let mut m = Manager::new(4);
        let _junk = m.var(2);
        m.gc([]);
        let free_after_first = m.stats().free_nodes;
        m.gc([]);
        assert_eq!(m.stats().free_nodes, free_after_first);
    }

    #[test]
    #[should_panic(expected = "unprotect of unprotected")]
    fn unprotect_without_protect_panics() {
        let mut m = Manager::new(1);
        let v = m.var(0);
        m.unprotect(v);
    }

    #[test]
    fn integrity_holds_through_ops_and_gc() {
        let mut m = Manager::new(6);
        let mut fs = Vec::new();
        for i in 0..6 {
            let v = m.var(i);
            fs.push(v);
        }
        let mut acc = fs[0];
        for &f in &fs[1..] {
            let x = m.xor(acc, f);
            let a = m.and(acc, f);
            acc = m.or(x, a);
        }
        m.check_integrity();
        m.gc([acc]);
        m.check_integrity();
        // Rebuild on top of a post-GC arena with a free list.
        let b = m.var(3);
        let g = m.and(acc, b);
        m.check_integrity();
        assert_ne!(g, FALSE);
    }

    #[test]
    fn cache_stats_cover_all_six_op_caches() {
        let mut m = Manager::new(6);
        let (a, b, c) = (m.var(0), m.var(2), m.var(4));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let _ = m.not(f);
        let _ = m.ite(a, f, b);
        let vs = m.varset(&[0, 2]);
        let _ = m.exists(f, vs);
        let _ = m.and_exists(f, ab, vs);
        let map = m.varmap(&[(0, 1), (2, 3), (4, 5)]);
        let _ = m.rename(f, map);
        let cs = m.cache_stats();
        for (name, c) in cs.op_caches() {
            assert!(c.lookups() > 0, "cache {name} never probed");
            assert!((0.0..=1.0).contains(&c.hit_rate()), "cache {name} rate out of range");
        }
        assert!(cs.unique.lookups() > 0);
        // A repeated operation must be a pure cache hit.
        let before = m.cache_stats().apply;
        let ab2 = m.and(a, b);
        assert_eq!(ab2, ab);
        let after = m.cache_stats().apply;
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    /// OR `n` random minterms over `vars` variables into one function —
    /// thousands of live nodes and `or` results for `vars = 20`.
    fn random_minterms(m: &mut Manager, vars: u32, n: usize, seed: u64) -> NodeId {
        let mut rng = crate::SplitMix64::seed_from_u64(seed);
        let mut f = FALSE;
        for _ in 0..n {
            let lits: Vec<(u32, bool)> = (0..vars).map(|v| (v, rng.coin())).collect();
            let c = m.cube(&lits);
            f = m.or(f, c);
        }
        f
    }

    fn assert_resident_within_slots(m: &Manager) {
        let (s, cs) = (m.stats(), m.cache_stats());
        let per_op: usize = cs.op_caches().iter().map(|(_, c)| c.entries).sum();
        assert_eq!(per_op, s.cache_entries, "per-op entries must add up");
        assert!(
            s.cache_entries <= s.cache_slots,
            "{} entries in {} slots",
            s.cache_entries,
            s.cache_slots
        );
    }

    #[test]
    fn cache_counters_survive_growth_and_gc_sweeps() {
        let mut m = Manager::new(20);
        let mut seen = m.cache_stats();
        let mut grew = 0;
        let mut f = FALSE;
        for seed in 0..8 {
            let slots = m.stats().cache_slots;
            let g = random_minterms(&mut m, 20, 500, seed);
            f = m.or(f, g);
            grew += usize::from(m.stats().cache_slots > slots);
            let now = m.cache_stats();
            for ((name, a), (_, b)) in seen.op_caches().iter().zip(now.op_caches()) {
                assert!(b.hits >= a.hits && b.misses >= a.misses, "{name} counters went back");
            }
            seen = now;
        }
        assert!(grew > 0, "setup: the table must grow");
        let nf = m.not(f);
        let before = m.cache_stats();
        m.gc([f, nf]);
        let after = m.cache_stats();
        for ((name, a), (_, b)) in before.op_caches().iter().zip(after.op_caches()) {
            assert_eq!((a.hits, a.misses), (b.hits, b.misses), "{name} counters reset by GC");
            assert!(b.entries <= a.entries, "{name} entries grew in a sweep");
        }
        assert!(after.apply.entries < before.apply.entries, "dead `or` results swept");
        // Entries over surviving nodes stay: both negations are still hits.
        assert_eq!(m.not(f), nf);
        assert_eq!(m.not(nf), f);
        assert_eq!(m.cache_stats().not.hits, after.not.hits + 2);
        m.check_integrity();
    }

    #[test]
    fn resident_entries_never_exceed_slots() {
        let mut m = Manager::new(20);
        for seed in 0..6 {
            let f = random_minterms(&mut m, 20, 400, seed);
            assert_resident_within_slots(&m);
            let vs = m.varset(&[0, 3, 7]);
            let _ = m.exists(f, vs);
            assert_resident_within_slots(&m);
            m.gc([f]);
            assert_resident_within_slots(&m);
        }
        assert!(m.stats().cache_slots > MIN_SLOTS, "setup: the table must grow");
    }

    #[test]
    fn small_manager_table_stays_at_its_floor() {
        // Tens of thousands of stores, but never more live nodes than the
        // floor has slots: insert pressure alone must not grow the table.
        let mut m = Manager::new(10);
        for seed in 0..40 {
            let f = random_minterms(&mut m, 10, 200, seed);
            let _ = m.not(f);
            assert!(m.stats().live_nodes < MIN_SLOTS, "setup: a small manager");
            m.gc([]);
        }
        // Every `or` miss is a store.
        assert!(m.cache_stats().apply.misses > 4 * MIN_SLOTS as u64);
        assert_eq!(m.stats().cache_slots, MIN_SLOTS);
        assert_resident_within_slots(&m);
    }

    #[test]
    fn a_dropped_manager_leaves_its_tables_to_the_next_on_its_thread() {
        std::thread::spawn(|| {
            let mut m = Manager::new(20);
            let _ = random_minterms(&mut m, 20, 2000, 7);
            let (slots, arena) = (m.stats().cache_slots, m.nodes.capacity());
            assert!(slots > MIN_SLOTS, "setup: the table grew");
            drop(m);
            let m = Manager::new(3);
            assert_eq!((m.stats().cache_slots, m.nodes.capacity()), (slots, arena));
            // The spare is taken: a second manager alongside starts small.
            let other = Manager::new(3);
            assert_eq!(other.stats().cache_slots, MIN_SLOTS);
        })
        .join()
        .expect("the thread passes");
    }

    #[test]
    fn a_manager_over_the_cap_leaves_no_spare() {
        std::thread::spawn(|| {
            let mut m = Manager::new(20);
            let _ = random_minterms(&mut m, 20, 2000, 7);
            // Address space only: the reserved pages are never touched.
            m.nodes.reserve(SPARE_CAP_BYTES / std::mem::size_of::<Node>());
            drop(m);
            let m = Manager::new(3);
            assert_eq!(m.stats().cache_slots, MIN_SLOTS);
            assert_eq!(m.nodes.capacity(), 1024);
        })
        .join()
        .expect("the thread passes");
    }

    #[test]
    fn a_manager_in_a_thread_local_drops_at_thread_exit() {
        thread_local! {
            static HELD: std::cell::RefCell<Option<Manager>> =
                const { std::cell::RefCell::new(None) };
        }
        // Both orders in which the spare's slot and `HELD` can be set up:
        // whichever order the thread tears them down in, one of the two
        // threads drops its manager after the spare's slot is gone.
        for spare_first in [true, false] {
            std::thread::spawn(move || {
                let busy = || {
                    let mut m = Manager::new(20);
                    let _ = random_minterms(&mut m, 20, 500, 3);
                    m
                };
                if spare_first {
                    drop(busy());
                }
                HELD.with(|held| *held.borrow_mut() = Some(busy()));
            })
            .join()
            .expect("the thread exits without panicking");
        }
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        let m = Manager::new(1);
        let cs = m.cache_stats();
        assert_eq!(cs.ite.hit_rate(), 0.0);
        assert_eq!(cs.ite.lookups(), 0);
    }

    #[test]
    fn varset_interning_dedups() {
        let mut m = Manager::new(4);
        let a = m.varset(&[3, 1, 1]);
        let b = m.varset(&[1, 3]);
        assert_eq!(a, b);
        assert_eq!(m.varset_levels(a), &[1, 3]);
    }

    #[test]
    #[should_panic(expected = "not order-preserving")]
    fn varmap_rejects_order_violations() {
        let mut m = Manager::new(4);
        let _ = m.varmap(&[(0, 3), (1, 2)]);
    }

    #[test]
    fn add_vars_extends_universe() {
        let mut m = Manager::new(1);
        m.add_vars(2);
        assert_eq!(m.num_vars(), 3);
        let v = m.var(2); // would panic without add_vars
        assert_eq!(m.level(v), 2);
    }
}
