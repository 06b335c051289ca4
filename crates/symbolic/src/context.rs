//! The symbolic context: variable registry, bit allocation, variable sets
//! and rename maps.

use ftrepair_bdd::{Manager, VarMapId, VarSetId};

/// Identifier of a finite-domain program variable within a
/// [`SymbolicContext`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

/// Metadata for one finite-domain variable.
#[derive(Clone, Debug)]
pub struct VarInfo {
    /// Human-readable name (used in dumps, diagnostics, the input language).
    pub name: String,
    /// Domain is `0..size`.
    pub size: u64,
    /// Number of boolean bits (`⌈log₂ size⌉`, at least 1).
    pub bits: u32,
    /// Bit offset of this variable's first bit in the global bit order.
    pub offset: u32,
}

/// A BDD manager plus the finite-domain variable registry and the derived
/// bit layout.
///
/// Bit layout: program variable bits are concatenated in declaration order;
/// bit `k` (global index `g = offset + k`) owns BDD level `2g` for its
/// **current** copy and level `2g + 1` for its **next** copy.
pub struct SymbolicContext {
    m: Manager,
    vars: Vec<VarInfo>,
    total_bits: u32,
}

impl SymbolicContext {
    /// An empty context; add variables with [`SymbolicContext::add_var`].
    pub fn new() -> Self {
        SymbolicContext { m: Manager::new(0), vars: Vec::new(), total_bits: 0 }
    }

    /// Declare a finite-domain variable with domain `0..size`.
    /// Panics if `size < 2` (a constant is not a variable) or the name is
    /// already taken.
    pub fn add_var(&mut self, name: impl Into<String>, size: u64) -> VarId {
        let name = name.into();
        assert!(size >= 2, "domain of {name} must have at least 2 values");
        assert!(self.vars.iter().all(|v| v.name != name), "duplicate variable name {name}");
        let bits = 64 - (size - 1).leading_zeros();
        let info = VarInfo { name, size, bits, offset: self.total_bits };
        self.vars.push(info);
        self.total_bits += bits;
        self.m.add_vars(2 * bits);
        VarId((self.vars.len() - 1) as u32)
    }

    /// Direct access to the underlying BDD manager.
    #[inline]
    pub fn mgr(&mut self) -> &mut Manager {
        &mut self.m
    }

    /// Immutable access to the underlying BDD manager.
    #[inline]
    pub fn mgr_ref(&self) -> &Manager {
        &self.m
    }

    /// Variable metadata.
    #[inline]
    pub fn info(&self, v: VarId) -> &VarInfo {
        &self.vars[v.0 as usize]
    }

    /// All declared variables, in declaration order.
    pub fn var_ids(&self) -> Vec<VarId> {
        (0..self.vars.len() as u32).map(VarId).collect()
    }

    /// Number of declared program variables.
    pub fn num_program_vars(&self) -> usize {
        self.vars.len()
    }

    /// Total boolean bits per state copy.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Look up a variable by name.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.vars.iter().position(|v| v.name == name).map(|i| VarId(i as u32))
    }

    /// BDD level of the current-state copy of bit `k` of `v`.
    #[inline]
    pub fn cur_level(&self, v: VarId, k: u32) -> u32 {
        let info = &self.vars[v.0 as usize];
        debug_assert!(k < info.bits);
        2 * (info.offset + k)
    }

    /// BDD level of the next-state copy of bit `k` of `v`.
    #[inline]
    pub fn next_level(&self, v: VarId, k: u32) -> u32 {
        self.cur_level(v, k) + 1
    }

    /// All current-bit levels of the given program variables.
    pub fn cur_levels(&self, vars: &[VarId]) -> Vec<u32> {
        vars.iter()
            .flat_map(|&v| {
                let bits = self.vars[v.0 as usize].bits;
                (0..bits).map(move |k| (v, k))
            })
            .map(|(v, k)| self.cur_level(v, k))
            .collect()
    }

    /// All next-bit levels of the given program variables.
    pub fn next_levels(&self, vars: &[VarId]) -> Vec<u32> {
        self.cur_levels(vars).into_iter().map(|l| l + 1).collect()
    }

    /// Interned varset of all current bits (for image computation).
    pub fn all_cur_varset(&mut self) -> VarSetId {
        let levels: Vec<u32> = (0..self.total_bits).map(|g| 2 * g).collect();
        self.m.varset(&levels)
    }

    /// Interned varset of all next bits (for preimage computation).
    pub fn all_next_varset(&mut self) -> VarSetId {
        let levels: Vec<u32> = (0..self.total_bits).map(|g| 2 * g + 1).collect();
        self.m.varset(&levels)
    }

    /// Interned varset of the current bits of specific variables.
    pub fn cur_varset(&mut self, vars: &[VarId]) -> VarSetId {
        let levels = self.cur_levels(vars);
        self.m.varset(&levels)
    }

    /// Interned varset of the next bits of specific variables.
    pub fn next_varset(&mut self, vars: &[VarId]) -> VarSetId {
        let levels = self.next_levels(vars);
        self.m.varset(&levels)
    }

    /// Interned varset of both copies of the bits of specific variables —
    /// what the read-restriction *group* computation quantifies away.
    pub fn both_varset(&mut self, vars: &[VarId]) -> VarSetId {
        let mut levels = self.cur_levels(vars);
        levels.extend(self.next_levels(vars));
        self.m.varset(&levels)
    }

    /// Rename map `next → current` (order-preserving by construction).
    pub fn map_next_to_cur(&mut self) -> VarMapId {
        let pairs: Vec<(u32, u32)> = (0..self.total_bits).map(|g| (2 * g + 1, 2 * g)).collect();
        self.m.varmap(&pairs)
    }

    /// Rename map `current → next`.
    pub fn map_cur_to_next(&mut self) -> VarMapId {
        let pairs: Vec<(u32, u32)> = (0..self.total_bits).map(|g| (2 * g, 2 * g + 1)).collect();
        self.m.varmap(&pairs)
    }

    /// Trim the manager's memo caches when they exceed `max_entries`
    /// (see [`Manager::maybe_trim_caches`]).
    pub fn maybe_trim_caches(&mut self, max_entries: usize) -> bool {
        self.m.maybe_trim_caches(max_entries)
    }

    /// The manager's governance checkpoint ([`Manager::maybe_gc`]): enforce
    /// the node budget, then collect garbage if the armed trigger's
    /// threshold is reached. `roots` are kept alive in addition to the
    /// manager's protected set.
    pub fn maybe_gc(&mut self, roots: &[ftrepair_bdd::NodeId]) {
        self.m.maybe_gc(roots);
    }

    /// Arm (0 disarms) the manager's live-node budget — the memory half of
    /// the governance checkpoint [`SymbolicContext::maybe_gc`] runs.
    pub fn set_node_budget(&mut self, budget: usize) {
        self.m.set_node_budget(budget);
    }

    /// Has a governance checkpoint latched budget exhaustion? Repair loops
    /// poll this at their cancellation boundaries and abort cleanly.
    pub fn budget_exhausted(&self) -> bool {
        self.m.budget_exhausted()
    }

    /// Convenience: three-way conjunction.
    pub fn and3(
        &mut self,
        a: ftrepair_bdd::NodeId,
        b: ftrepair_bdd::NodeId,
        c: ftrepair_bdd::NodeId,
    ) -> ftrepair_bdd::NodeId {
        let ab = self.m.and(a, b);
        self.m.and(ab, c)
    }
}

impl Default for SymbolicContext {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SymbolicContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicContext")
            .field("vars", &self.vars.iter().map(|v| (&v.name, v.size)).collect::<Vec<_>>())
            .field("total_bits", &self.total_bits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_allocation_is_interleaved() {
        let mut cx = SymbolicContext::new();
        let a = cx.add_var("a", 2); // 1 bit
        let b = cx.add_var("b", 4); // 2 bits
        let c = cx.add_var("c", 3); // 2 bits (ceil log2 3)
        assert_eq!(cx.info(a).bits, 1);
        assert_eq!(cx.info(b).bits, 2);
        assert_eq!(cx.info(c).bits, 2);
        assert_eq!(cx.total_bits(), 5);
        assert_eq!(cx.cur_level(a, 0), 0);
        assert_eq!(cx.next_level(a, 0), 1);
        assert_eq!(cx.cur_level(b, 0), 2);
        assert_eq!(cx.cur_level(b, 1), 4);
        assert_eq!(cx.next_level(b, 1), 5);
        assert_eq!(cx.cur_level(c, 0), 6);
        assert_eq!(cx.mgr_ref().num_vars(), 10);
    }

    #[test]
    fn bits_for_exact_powers_of_two() {
        let mut cx = SymbolicContext::new();
        let v2 = cx.add_var("v2", 2);
        let v8 = cx.add_var("v8", 8);
        let v9 = cx.add_var("v9", 9);
        assert_eq!(cx.info(v2).bits, 1);
        assert_eq!(cx.info(v8).bits, 3);
        assert_eq!(cx.info(v9).bits, 4);
    }

    #[test]
    #[should_panic(expected = "at least 2 values")]
    fn unit_domain_rejected() {
        let mut cx = SymbolicContext::new();
        cx.add_var("x", 1);
    }

    #[test]
    #[should_panic(expected = "duplicate variable name")]
    fn duplicate_name_rejected() {
        let mut cx = SymbolicContext::new();
        cx.add_var("x", 2);
        cx.add_var("x", 3);
    }

    #[test]
    fn find_var_by_name() {
        let mut cx = SymbolicContext::new();
        let a = cx.add_var("alpha", 2);
        let b = cx.add_var("beta", 2);
        assert_eq!(cx.find_var("alpha"), Some(a));
        assert_eq!(cx.find_var("beta"), Some(b));
        assert_eq!(cx.find_var("gamma"), None);
    }

    #[test]
    fn varsets_cover_expected_levels() {
        let mut cx = SymbolicContext::new();
        let a = cx.add_var("a", 4); // bits at global 0,1 → levels 0,2 (cur), 1,3 (next)
        let b = cx.add_var("b", 2); // bit at global 2 → level 4 (cur), 5 (next)
        let cur = cx.all_cur_varset();
        assert_eq!(cx.mgr_ref().varset_levels(cur), &[0, 2, 4]);
        let next = cx.all_next_varset();
        assert_eq!(cx.mgr_ref().varset_levels(next), &[1, 3, 5]);
        let both_b = cx.both_varset(&[b]);
        assert_eq!(cx.mgr_ref().varset_levels(both_b), &[4, 5]);
        let cur_a = cx.cur_varset(&[a]);
        assert_eq!(cx.mgr_ref().varset_levels(cur_a), &[0, 2]);
    }

    #[test]
    fn var_ids_enumerates_in_order() {
        let mut cx = SymbolicContext::new();
        let a = cx.add_var("a", 2);
        let b = cx.add_var("b", 2);
        assert_eq!(cx.var_ids(), vec![a, b]);
        assert_eq!(cx.num_program_vars(), 2);
    }
}
