//! The unique table: one open-addressed subtable of arena indices per
//! level.
//!
//! With the variable order fixed a node's level never changes, so each
//! level keeps its own table of `u32` arena indices: 4 bytes a slot, 0 for
//! empty (the terminals never enter). A probe hashes `(lo, hi)` to a start
//! slot and walks forward (linear probing), comparing against the node in
//! the arena, until it finds the node or an empty slot. A subtable is kept
//! at most half full, so a probe reads about 1.5 arena nodes on a hit and
//! 2.5 on a miss. Nothing is ever deleted one entry at a time: garbage
//! collection empties every subtable and re-enters the surviving nodes
//! ([`Subtable::reset_for`]). A subtable never shrinks, so the next
//! manager on the thread, which inherits it emptied, starts at the size
//! this one reached.

use crate::node::{Node, NodeId};

/// Smallest subtable.
const MIN_SLOTS: usize = 8;

/// The unique subtable of one level.
pub(crate) struct Subtable {
    /// Arena indices, 0 = empty; the length is a power of two.
    slots: Vec<u32>,
    /// Occupied slots.
    len: usize,
}

impl Default for Subtable {
    fn default() -> Self {
        Subtable::sized_for(0)
    }
}

impl Subtable {
    /// An empty subtable that holds `n` nodes at most half full.
    pub(crate) fn sized_for(n: usize) -> Subtable {
        Subtable { slots: vec![0; (2 * n + 1).next_power_of_two().max(MIN_SLOTS)], len: 0 }
    }

    #[inline]
    fn start(&self, lo: NodeId, hi: NodeId) -> usize {
        let key = u64::from(lo.0) << 32 | u64::from(hi.0);
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The node `(lo, hi)` of this level, or the empty slot where it
    /// belongs.
    #[inline]
    pub(crate) fn find(&self, nodes: &[Node], lo: NodeId, hi: NodeId) -> Result<NodeId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.start(lo, hi);
        loop {
            let idx = self.slots[i];
            if idx == 0 {
                return Err(i);
            }
            let n = &nodes[idx as usize];
            if n.lo == lo && n.hi == hi {
                return Ok(NodeId(idx));
            }
            i = (i + 1) & mask;
        }
    }

    /// Empty the subtable for `n` nodes at most half full: at its own size
    /// if that holds them, else at [`Subtable::sized_for`]`(n)`.
    pub(crate) fn reset_for(&mut self, n: usize) {
        if self.slots.len() < 2 * n + 1 {
            *self = Subtable::sized_for(n);
        } else {
            self.slots.fill(0);
            self.len = 0;
        }
    }

    /// Enter node `id`, already in the arena, at the empty slot
    /// [`Subtable::find`] returned for it; past half full, double. Returns
    /// whether it doubled.
    #[inline]
    pub(crate) fn insert_at(&mut self, slot: usize, id: NodeId, nodes: &[Node]) -> bool {
        self.slots[slot] = id.0;
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let doubled = vec![0; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, doubled);
            self.len = 0;
            for idx in old.into_iter().filter(|&idx| idx != 0) {
                self.place(NodeId(idx), &nodes[idx as usize]);
            }
            return true;
        }
        false
    }

    /// Enter node `id`, known to be absent, without comparing: the first
    /// empty slot from its start is its place. The caller keeps the table
    /// at most half full.
    pub(crate) fn place(&mut self, id: NodeId, node: &Node) {
        let mask = self.slots.len() - 1;
        let mut i = self.start(node.lo, node.hi);
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = id.0;
        self.len += 1;
    }

    /// Nodes in the subtable.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Slots in the subtable (4 bytes each).
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }
}
