//! Node identifiers and the in-arena node representation.

/// A handle to a BDD node inside a [`crate::Manager`].
///
/// `NodeId` is a plain 32-bit index: copying it is free and ids remain stable
/// across garbage collections (the arena uses a free-list, never compaction).
/// A `NodeId` is only meaningful together with the manager that created it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// The constant-`false` BDD (terminal node `0`).
pub const FALSE: NodeId = NodeId(0);

/// The constant-`true` BDD (terminal node `1`).
pub const TRUE: NodeId = NodeId(1);

/// Sentinel level (and variable index) for the two terminal nodes; greater
/// than any variable level, so `min(level(f), level(g))` naturally picks the
/// branching variable.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// The `var` of a freed arena slot, so garbage collection can tell a slot
/// it freed earlier from one it frees now without a set of free slots.
pub(crate) const FREE_LEVEL: u32 = u32::MAX - 1;

impl NodeId {
    /// Whether this is one of the two terminal nodes.
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Raw index into the arena; exposed for serialization and debugging.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FALSE => write!(f, "⊥"),
            TRUE => write!(f, "⊤"),
            NodeId(i) => write!(f, "n{i}"),
        }
    }
}

/// An internal decision node: `ite(var, hi, lo)`.
///
/// Nodes store the branching variable index, which is also the node's
/// level: the manager's variable order is fixed.
///
/// Invariants maintained by `Manager::mk`:
/// * `lo != hi` (reduced),
/// * `var < var(lo)` and `var < var(hi)` (ordered),
/// * at most one node per `(var, lo, hi)` triple (hash-consed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Node {
    pub var: u32,
    pub lo: NodeId,
    pub hi: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_terminal() {
        assert!(FALSE.is_terminal());
        assert!(TRUE.is_terminal());
        assert!(!NodeId(2).is_terminal());
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{FALSE:?}"), "⊥");
        assert_eq!(format!("{TRUE:?}"), "⊤");
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
    }

    #[test]
    fn node_id_is_small() {
        // The arena stores tens of millions of nodes for the larger repair
        // instances; both the handle and the node must stay compact.
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::size_of::<Node>(), 12);
    }
}
