//! The computed table: one lossy, direct-mapped memo shared by every
//! recursive operation, as in CUDD.
//!
//! A key is an operation tag plus up to three 32-bit operands; it hashes to
//! exactly one slot, a lookup compares that slot only, and a store
//! overwrites whatever lived there. The table therefore never holds more
//! entries than it has slots, and its size is a policy rather than a
//! history: it starts at [`MIN_SLOTS`] and doubles under insert pressure
//! (a table's worth of stores since the last resize) only while it is
//! smaller than [`SLOTS_PER_LIVE_NODE`] times the manager's live-node count
//! and [`MAX_SLOTS`]. It never shrinks, and when its manager is dropped its
//! slots pass, emptied, to the next manager on the thread
//! ([`ComputedTable::recycled`]), so a thread's later jobs start at the size
//! its earlier ones reached.
//!
//! Losing an entry costs only recomputation, and results are canonical, so
//! every root is the same function it would be with an unbounded memo.
//! Garbage collection sweeps the table once ([`ComputedTable::retain_live`])
//! and drops exactly the entries that name a freed slot: a freed slot is
//! later reused for another function, so such an entry would be wrong, while
//! every entry over surviving nodes stays valid.

use crate::manager::CacheCounter;
use crate::node::NodeId;

/// Smallest (and initial) number of slots.
pub(crate) const MIN_SLOTS: usize = 1 << 12;
/// The table grows only while it has fewer slots than this many per live
/// node.
const SLOTS_PER_LIVE_NODE: usize = 1;
/// Hard cap on the number of slots (20 bytes each).
const MAX_SLOTS: usize = 1 << 21;

/// What an entry memoizes. No discriminant is 0, so `Option<Op>` is four
/// bytes and an empty slot is all zeros.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u32)]
pub(crate) enum Op {
    /// `¬a`.
    Not = 1,
    /// `a ∧ b`, normalized `a <= b`.
    And,
    /// `a ∨ b`, normalized `a <= b`.
    Or,
    /// `a ⊕ b`, normalized `a <= b`.
    Xor,
    /// `ite(a, b, c)`.
    Ite,
    /// `∃ c. a` for the interned variable set `c`.
    Exists,
    /// `∀ c. a` for the interned variable set `c`.
    Forall,
    /// `∃ c. a ∧ b`, normalized `a <= b`.
    AndExists,
    /// `a` renamed by the interned variable map `c`.
    Rename,
}

/// Named counters the table keeps: the six operation families of
/// [`crate::CacheStats::op_caches`], in that order.
const COUNTERS: usize = 6;

impl Op {
    /// Which of the named counters this operation is tallied under.
    fn counter(self) -> usize {
        match self {
            Op::Not => 0,
            Op::And | Op::Or | Op::Xor => 1,
            Op::Ite => 2,
            Op::Exists | Op::Forall => 3,
            Op::AndExists => 4,
            Op::Rename => 5,
        }
    }
}

/// One slot: `(op, a, b, c) ↦ r`, or empty (`op` is `None`). Operands `a`,
/// `b` and the result are node ids (an unused `b` is 0, the always-live
/// `FALSE`); `c` is a node id only for [`Op::Ite`] and otherwise an
/// interned set or map index, or 0.
#[derive(Clone, Copy, Default)]
pub(crate) struct Entry {
    op: Option<Op>,
    a: u32,
    b: u32,
    c: u32,
    r: u32,
}

/// The computed table with per-counter hit, miss and resident tallies.
pub(crate) struct ComputedTable {
    slots: Vec<Entry>,
    /// `64 - log2(slots.len())`: the hash keeps its top bits.
    shift: u32,
    /// Stores since the last resize (the insert pressure).
    stores: usize,
    hits: [u64; COUNTERS],
    misses: [u64; COUNTERS],
    /// Entries currently resident, per counter.
    resident: [usize; COUNTERS],
    /// Doublings over the table's life in this manager.
    growths: usize,
}

impl ComputedTable {
    /// An empty table over `slots` (a power of two, at least [`MIN_SLOTS`],
    /// of any content), at that size: every slot is emptied and every tally
    /// starts at zero.
    pub(crate) fn recycled(mut slots: Vec<Entry>) -> Self {
        debug_assert!(slots.len().is_power_of_two() && slots.len() >= MIN_SLOTS);
        slots.fill(Entry::default());
        ComputedTable {
            shift: 64 - slots.len().trailing_zeros(),
            slots,
            stores: 0,
            hits: [0; COUNTERS],
            misses: [0; COUNTERS],
            resident: [0; COUNTERS],
            growths: 0,
        }
    }

    /// Move the slots out, for [`ComputedTable::recycled`]; the table is
    /// left without slots and must not be probed again.
    pub(crate) fn take_slots(&mut self) -> Vec<Entry> {
        std::mem::take(&mut self.slots)
    }

    #[inline]
    fn index(&self, op: Op, a: u32, b: u32, c: u32) -> usize {
        let ab = u64::from(a) | u64::from(b) << 32;
        let tc = u64::from(c) | u64::from(op as u32) << 32;
        let h =
            (ab.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tc).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        (h >> self.shift) as usize
    }

    /// Look the key up, counting a hit or a miss.
    #[inline]
    pub(crate) fn get(&mut self, op: Op, a: NodeId, b: NodeId, c: u32) -> Option<NodeId> {
        let e = self.slots[self.index(op, a.0, b.0, c)];
        let counter = op.counter();
        if e.op == Some(op) && e.a == a.0 && e.b == b.0 && e.c == c {
            self.hits[counter] += 1;
            Some(NodeId(e.r))
        } else {
            self.misses[counter] += 1;
            None
        }
    }

    /// Store `key ↦ r`, overwriting the slot's previous entry. `live_nodes`
    /// is the manager's live-node count, which bounds growth.
    #[inline]
    pub(crate) fn insert(
        &mut self,
        op: Op,
        a: NodeId,
        b: NodeId,
        c: u32,
        r: NodeId,
        live_nodes: usize,
    ) {
        let i = self.index(op, a.0, b.0, c);
        let e = Entry { op: Some(op), a: a.0, b: b.0, c, r: r.0 };
        if let Some(old) = std::mem::replace(&mut self.slots[i], e).op {
            self.resident[old.counter()] -= 1;
        }
        self.resident[op.counter()] += 1;
        self.stores += 1;
        let len = self.slots.len();
        if self.stores >= len && len < MAX_SLOTS && len < SLOTS_PER_LIVE_NODE * live_nodes {
            self.grow();
        }
    }

    /// Double the slot count in place, keeping every entry. Doubling
    /// refines the mapping: the entry in slot `i` moves to slot `2i` or
    /// `2i + 1` (the next bit of its hash), which no other slot maps to, so
    /// walking down from the top finds both already vacated.
    fn grow(&mut self) {
        let n = self.slots.len();
        self.slots.resize(2 * n, Entry::default());
        self.shift -= 1;
        self.stores = 0;
        self.growths += 1;
        for i in (0..n).rev() {
            let e = std::mem::take(&mut self.slots[i]);
            if let Some(op) = e.op {
                let j = self.index(op, e.a, e.b, e.c);
                debug_assert_eq!(j >> 1, i, "doubling must refine the mapping");
                self.slots[j] = e;
            }
        }
    }

    /// Drop every entry that names a node `live` rejects, keep the rest.
    /// Interned set and map indices are never recycled, so the nodes an
    /// entry names are its only validity condition.
    pub(crate) fn retain_live(&mut self, live: impl Fn(u32) -> bool) {
        for e in self.slots.iter_mut() {
            let Some(op) = e.op else { continue };
            if !(live(e.a) && live(e.b) && live(e.r) && (op != Op::Ite || live(e.c))) {
                self.resident[op.counter()] -= 1;
                *e = Entry::default();
            }
        }
    }

    /// Hits, misses and resident entries per operation family, in
    /// [`crate::CacheStats::op_caches`] order.
    pub(crate) fn counters(&self) -> [CacheCounter; COUNTERS] {
        std::array::from_fn(|i| CacheCounter {
            hits: self.hits[i],
            misses: self.misses[i],
            entries: self.resident[i],
        })
    }

    /// Number of slots: the most entries the table can hold.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently resident across every operation.
    pub(crate) fn len(&self) -> usize {
        self.resident.iter().sum()
    }

    /// Doublings since the table was built or recycled.
    pub(crate) fn growths(&self) -> usize {
        self.growths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_twenty_bytes() {
        // The memory bound the docs quote: `Option<Op>` fits the tag word.
        assert_eq!(std::mem::size_of::<Entry>(), 20);
    }
}
