//! Serialization (manager-independent DAG form).
//!
//! [`SerializedBdd`] is how BDDs travel between managers: the disk store
//! and the mid-repair checkpoints persist repaired relations in this form,
//! and a later job imports them into its own manager. The blob records the
//! source variable order. Managers today always use the identity order,
//! but store entries and checkpoint slots written by earlier builds may
//! carry another one, so import replays the fast `mk` path when the nodes
//! respect the identity order and falls back to an `ite`-based rebuild
//! when they do not.

use crate::hash::FxHashMap;
use crate::manager::Manager;
use crate::node::{NodeId, FALSE, TRUE};

/// A manager-independent, topologically-ordered encoding of one BDD.
///
/// Nodes `0` and `1` are the implicit terminals; entry `i` of `nodes`
/// describes node `i + 2` as `(var, lo, hi)` where `var` is a stable
/// variable index and `lo`/`hi` index earlier nodes (or terminals). `root`
/// indexes the whole table the same way. `order` is the source manager's
/// level-to-variable permutation at export time (the identity for every
/// blob this build writes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SerializedBdd {
    /// Number of variables the source manager had (import target must have at
    /// least this many).
    pub num_vars: u32,
    /// The source variable order: `order[level] = variable index`. A
    /// permutation of `0..num_vars`.
    pub order: Vec<u32>,
    /// Internal nodes in topological (children-first) order.
    pub nodes: Vec<(u32, u32, u32)>,
    /// Index of the root (0/1 for terminals, `i + 2` for `nodes[i]`).
    pub root: u32,
}

/// Why a [`SerializedBdd`] failed validation on import — hostile or stale
/// blobs are rejected instead of indexing the arena unchecked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImportError {
    /// The blob needs more variables than the importing manager has.
    TooManyVars { needed: u32, have: u32 },
    /// `order` is not a permutation of `0..num_vars`.
    BadOrder,
    /// A node's variable index is out of `0..num_vars`.
    VarOutOfRange { node: u32, var: u32 },
    /// A node references itself or a later node (the table must be
    /// topological, children first).
    ForwardReference { node: u32, child: u32 },
    /// A node's child branches on a variable at or above the node's own
    /// level in the declared source order.
    OrderViolation { node: u32 },
    /// A node has `lo == hi` (unreduced).
    Unreduced { node: u32 },
    /// `root` indexes past the node table.
    BadRoot { root: u32 },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::TooManyVars { needed, have } => {
                write!(f, "import needs {needed} vars, manager has {have}")
            }
            ImportError::BadOrder => write!(f, "order is not a permutation of the variables"),
            ImportError::VarOutOfRange { node, var } => {
                write!(f, "node {node} branches on out-of-range variable {var}")
            }
            ImportError::ForwardReference { node, child } => {
                write!(f, "node {node} references non-earlier entry {child}")
            }
            ImportError::OrderViolation { node } => {
                write!(f, "node {node} violates the declared variable order")
            }
            ImportError::Unreduced { node } => write!(f, "node {node} has equal children"),
            ImportError::BadRoot { root } => write!(f, "root {root} indexes past the table"),
        }
    }
}

impl std::error::Error for ImportError {}

/// Why a binary [`SerializedBdd`] blob failed to decode. Decoding is purely
/// syntactic — a blob that decodes still goes through [`Manager::try_import`]
/// for structural validation, so a byte flip that survives decode is caught
/// there (or by the disk store's whole-file checksum before it ever gets
/// here).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the declared content.
    Truncated,
    /// The first four bytes are not the `FBDD` magic.
    BadMagic,
    /// Unknown format version.
    BadVersion { got: u32 },
    /// A declared length does not fit in the remaining buffer (rejected
    /// before allocating, so a hostile length prefix cannot balloon memory).
    Oversized,
    /// Bytes remain after the encoded root.
    TrailingBytes { extra: usize },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "blob truncated"),
            DecodeError::BadMagic => write!(f, "bad magic (not an FBDD blob)"),
            DecodeError::BadVersion { got } => write!(f, "unsupported FBDD version {got}"),
            DecodeError::Oversized => write!(f, "declared length exceeds the blob"),
            DecodeError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes after root"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Binary format magic: "FBDD".
const FBDD_MAGIC: [u8; 4] = *b"FBDD";
/// Binary format version.
const FBDD_VERSION: u32 = 1;

/// Little-endian u32 reader over a byte cursor.
fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    let end = pos.checked_add(4).ok_or(DecodeError::Truncated)?;
    let chunk = bytes.get(*pos..end).ok_or(DecodeError::Truncated)?;
    *pos = end;
    Ok(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]))
}

impl SerializedBdd {
    /// Encode as a self-describing little-endian binary blob:
    /// `"FBDD"` magic, version, `num_vars`, length-prefixed `order`,
    /// length-prefixed `nodes` (three u32 per node), `root`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + 4 * self.order.len() + 12 * self.nodes.len());
        out.extend_from_slice(&FBDD_MAGIC);
        out.extend_from_slice(&FBDD_VERSION.to_le_bytes());
        out.extend_from_slice(&self.num_vars.to_le_bytes());
        out.extend_from_slice(&(self.order.len() as u32).to_le_bytes());
        for &v in &self.order {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        for &(var, lo, hi) in &self.nodes {
            out.extend_from_slice(&var.to_le_bytes());
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        out.extend_from_slice(&self.root.to_le_bytes());
        out
    }

    /// Decode a blob produced by [`SerializedBdd::to_bytes`]. Length
    /// prefixes are checked against the remaining buffer before any
    /// allocation; the whole buffer must be consumed. The result is *not*
    /// structurally validated — pass it to [`Manager::try_import`].
    pub fn from_bytes(bytes: &[u8]) -> Result<SerializedBdd, DecodeError> {
        let mut pos = 0usize;
        if bytes.len() < 4 || bytes[..4] != FBDD_MAGIC {
            if bytes.len() < 4 {
                return Err(DecodeError::Truncated);
            }
            return Err(DecodeError::BadMagic);
        }
        pos += 4;
        let version = read_u32(bytes, &mut pos)?;
        if version != FBDD_VERSION {
            return Err(DecodeError::BadVersion { got: version });
        }
        let num_vars = read_u32(bytes, &mut pos)?;
        let order_len = read_u32(bytes, &mut pos)? as usize;
        if order_len > (bytes.len() - pos) / 4 {
            return Err(DecodeError::Oversized);
        }
        let mut order = Vec::with_capacity(order_len);
        for _ in 0..order_len {
            order.push(read_u32(bytes, &mut pos)?);
        }
        let node_len = read_u32(bytes, &mut pos)? as usize;
        if node_len > (bytes.len() - pos) / 12 {
            return Err(DecodeError::Oversized);
        }
        let mut nodes = Vec::with_capacity(node_len);
        for _ in 0..node_len {
            let var = read_u32(bytes, &mut pos)?;
            let lo = read_u32(bytes, &mut pos)?;
            let hi = read_u32(bytes, &mut pos)?;
            nodes.push((var, lo, hi));
        }
        let root = read_u32(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(DecodeError::TrailingBytes { extra: bytes.len() - pos });
        }
        Ok(SerializedBdd { num_vars, order, nodes, root })
    }

    /// Structural validation against an importing manager with `have` >=
    /// `num_vars` variables; every check `import` relies on.
    fn validate(&self, have: u32) -> Result<(), ImportError> {
        if self.num_vars > have {
            return Err(ImportError::TooManyVars { needed: self.num_vars, have });
        }
        // `order` must be a permutation of 0..num_vars.
        if self.order.len() != self.num_vars as usize {
            return Err(ImportError::BadOrder);
        }
        let mut seen = vec![false; self.num_vars as usize];
        for &v in &self.order {
            if v >= self.num_vars || seen[v as usize] {
                return Err(ImportError::BadOrder);
            }
            seen[v as usize] = true;
        }
        let src_level = |v: u32| self.order.iter().position(|&w| w == v).unwrap() as u32;
        for (i, &(var, lo, hi)) in self.nodes.iter().enumerate() {
            let id = (i + 2) as u32;
            if var >= self.num_vars {
                return Err(ImportError::VarOutOfRange { node: id, var });
            }
            if lo == hi {
                return Err(ImportError::Unreduced { node: id });
            }
            let my_level = src_level(var);
            for child in [lo, hi] {
                if child >= id {
                    return Err(ImportError::ForwardReference { node: id, child });
                }
                if child >= 2 {
                    let child_var = self.nodes[child as usize - 2].0;
                    if src_level(child_var) <= my_level {
                        return Err(ImportError::OrderViolation { node: id });
                    }
                }
            }
        }
        if self.root as usize >= self.nodes.len() + 2 {
            return Err(ImportError::BadRoot { root: self.root });
        }
        Ok(())
    }

    /// Whether every node branches above its children in the identity
    /// order — the condition for the fast `mk` replay path. Call only after
    /// [`SerializedBdd::validate`].
    fn identity_ordered(&self) -> bool {
        let var = |child: u32| if child < 2 { u32::MAX } else { self.nodes[child as usize - 2].0 };
        self.nodes.iter().all(|&(v, lo, hi)| v < var(lo) && v < var(hi))
    }
}

impl Manager {
    /// Export the function rooted at `f` as a portable DAG.
    pub fn export(&self, f: NodeId) -> SerializedBdd {
        let mut order: Vec<NodeId> = Vec::new();
        let mut index: FxHashMap<NodeId, u32> = FxHashMap::default();
        index.insert(FALSE, 0);
        index.insert(TRUE, 1);
        // Iterative post-order so children are numbered before parents.
        let mut stack: Vec<(NodeId, bool)> = vec![(f, false)];
        while let Some((g, expanded)) = stack.pop() {
            if index.contains_key(&g) {
                continue;
            }
            if expanded {
                let id = (order.len() + 2) as u32;
                index.insert(g, id);
                order.push(g);
            } else {
                stack.push((g, true));
                stack.push((self.hi(g), false));
                stack.push((self.lo(g), false));
            }
        }
        let nodes = order
            .iter()
            .map(|&g| (self.level(g), index[&self.lo(g)], index[&self.hi(g)]))
            .collect();
        SerializedBdd {
            num_vars: self.num_vars(),
            order: (0..self.num_vars()).collect(),
            nodes,
            root: index[&f],
        }
    }

    /// Import a serialized DAG into this manager, returning the root.
    ///
    /// Panics on a malformed blob; use [`Manager::try_import`] when the blob
    /// comes from an untrusted or possibly stale source.
    pub fn import(&mut self, s: &SerializedBdd) -> NodeId {
        match self.try_import(s) {
            Ok(root) => root,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validated import. When the blob's nodes respect this manager's
    /// (identity) order, every node replays through `mk` — linear time,
    /// hash-consed against everything already here. Otherwise the function
    /// is rebuilt bottom-up with `ite`, which re-expresses it in this
    /// manager's order.
    pub fn try_import(&mut self, s: &SerializedBdd) -> Result<NodeId, ImportError> {
        s.validate(self.num_vars())?;
        let mut ids: Vec<NodeId> = Vec::with_capacity(s.nodes.len() + 2);
        ids.push(FALSE);
        ids.push(TRUE);
        if s.identity_ordered() {
            for &(var, lo, hi) in &s.nodes {
                let lo = ids[lo as usize];
                let hi = ids[hi as usize];
                ids.push(self.mk(var, lo, hi));
            }
        } else {
            // Foreign order: Shannon-recombine each node in *this*
            // manager's order. Children are already rebuilt (topological
            // order), so `ite(var, hi, lo)` is correct regardless of where
            // `var` now sits.
            for &(var, lo, hi) in &s.nodes {
                let v = self.var(var);
                let lo = ids[lo as usize];
                let hi = ids[hi as usize];
                ids.push(self.ite(v, hi, lo));
            }
        }
        Ok(ids[s.root as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Manager;

    fn sample(m: &mut Manager) -> NodeId {
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let ab = m.xor(a, b);
        m.or(ab, c)
    }

    #[test]
    fn export_import_roundtrip_same_manager() {
        let mut m = Manager::new(3);
        let f = sample(&mut m);
        let s = m.export(f);
        let g = m.import(&s);
        assert_eq!(f, g); // canonicity: re-import hash-conses to the original
    }

    #[test]
    fn export_import_across_managers() {
        let mut m1 = Manager::new(3);
        let f = sample(&mut m1);
        let s = m1.export(f);
        let mut m2 = Manager::new(3);
        let g = m2.import(&s);
        // Semantics preserved: identical truth tables.
        for bits in 0..8u32 {
            let a: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(m1.eval(f, &a), m2.eval(g, &a), "bits={bits}");
        }
    }

    #[test]
    fn export_terminals() {
        let mut m = Manager::new(1);
        let s_false = m.export(FALSE);
        assert_eq!(s_false.root, 0);
        assert!(s_false.nodes.is_empty());
        assert_eq!(m.import(&s_false), FALSE);
        let s_true = m.export(TRUE);
        assert_eq!(s_true.root, 1);
        assert_eq!(m.import(&s_true), TRUE);
    }

    #[test]
    fn export_is_topologically_ordered() {
        let mut m = Manager::new(4);
        let f = {
            let (a, b, c, d) = (m.var(0), m.var(1), m.var(2), m.var(3));
            let ab = m.and(a, b);
            let cd = m.or(c, d);
            m.xor(ab, cd)
        };
        let s = m.export(f);
        for (i, &(_, lo, hi)) in s.nodes.iter().enumerate() {
            let my_id = (i + 2) as u32;
            assert!(lo < my_id && hi < my_id, "node {my_id} references a later node");
        }
        assert_eq!(s.root as usize, s.nodes.len() + 1);
        assert_eq!(s.order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn import_into_bigger_universe() {
        let mut m1 = Manager::new(2);
        let a = m1.var(0);
        let b = m1.var(1);
        let f = m1.and(a, b);
        let s = m1.export(f);
        let mut m2 = Manager::new(6);
        let g = m2.import(&s);
        assert_eq!(m2.sat_count_over(g, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "import needs")]
    fn import_into_smaller_universe_panics() {
        let mut m1 = Manager::new(4);
        let f = m1.var(3);
        let s = m1.export(f);
        let mut m2 = Manager::new(2);
        let _ = m2.import(&s);
    }

    #[test]
    fn import_from_reordered_manager() {
        // `(x0 ∧ x1) ∨ x2` written by a manager whose order was reversed
        // (`order[level] = var`): x2 on top, x0 at the bottom. The nodes
        // violate the identity order, so import must take the ite rebuild.
        let blob = SerializedBdd {
            num_vars: 3,
            order: vec![2, 1, 0],
            nodes: vec![(0, 0, 1), (1, 0, 2), (2, 3, 1)],
            root: 4,
        };
        let mut m = Manager::new(3);
        let g = m.try_import(&blob).expect("valid in its declared order");
        m.check_integrity();
        for bits in 0..8u32 {
            let a: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(m.eval(g, &a), (a[0] && a[1]) || a[2], "bits={bits:03b}");
        }
        // Canonicity: the same function built natively is the same node,
        // and re-exporting writes the identity order.
        let (x0, x1, x2) = (m.var(0), m.var(1), m.var(2));
        let x01 = m.and(x0, x1);
        let f = m.or(x01, x2);
        assert_eq!(g, f, "canonicity after cross-order import");
        assert_eq!(m.export(g).order, vec![0, 1, 2]);
        // Nodes that are fine under the identity order but contradict the
        // declared order are still rejected: the declaration is checked.
        let mut native = m.export(f);
        native.order = vec![2, 1, 0];
        assert!(matches!(m.try_import(&native), Err(ImportError::OrderViolation { .. })));
    }

    #[test]
    fn adversarial_order_not_permutation() {
        let blob =
            SerializedBdd { num_vars: 2, order: vec![0, 0], nodes: vec![(0, 0, 1)], root: 2 };
        let mut m = Manager::new(2);
        assert_eq!(m.try_import(&blob), Err(ImportError::BadOrder));
        let blob = SerializedBdd { num_vars: 2, order: vec![0], nodes: vec![], root: 0 };
        assert_eq!(m.try_import(&blob), Err(ImportError::BadOrder));
    }

    #[test]
    fn adversarial_var_out_of_range() {
        let blob =
            SerializedBdd { num_vars: 2, order: vec![0, 1], nodes: vec![(7, 0, 1)], root: 2 };
        let mut m = Manager::new(4);
        assert_eq!(m.try_import(&blob), Err(ImportError::VarOutOfRange { node: 2, var: 7 }));
    }

    #[test]
    fn adversarial_forward_reference() {
        // Node 2 points at node 3 (later) and at itself — both rejected.
        let blob = SerializedBdd {
            num_vars: 2,
            order: vec![0, 1],
            nodes: vec![(0, 3, 1), (1, 0, 1)],
            root: 2,
        };
        let mut m = Manager::new(2);
        assert_eq!(m.try_import(&blob), Err(ImportError::ForwardReference { node: 2, child: 3 }));
        let blob =
            SerializedBdd { num_vars: 2, order: vec![0, 1], nodes: vec![(0, 2, 1)], root: 2 };
        assert_eq!(m.try_import(&blob), Err(ImportError::ForwardReference { node: 2, child: 2 }));
    }

    #[test]
    fn adversarial_bad_root() {
        let blob = SerializedBdd { num_vars: 1, order: vec![0], nodes: vec![], root: 5 };
        let mut m = Manager::new(1);
        assert_eq!(m.try_import(&blob), Err(ImportError::BadRoot { root: 5 }));
    }

    #[test]
    fn adversarial_order_violation_and_unreduced() {
        // Child branches on a variable *above* its parent in the declared
        // order: structurally a DAG, but not an ordered BDD.
        let blob = SerializedBdd {
            num_vars: 2,
            order: vec![0, 1],
            nodes: vec![(0, 0, 1), (1, 2, 1)],
            root: 3,
        };
        let mut m = Manager::new(2);
        assert_eq!(m.try_import(&blob), Err(ImportError::OrderViolation { node: 3 }));
        let blob = SerializedBdd { num_vars: 1, order: vec![0], nodes: vec![(0, 1, 1)], root: 2 };
        assert_eq!(m.try_import(&blob), Err(ImportError::Unreduced { node: 2 }));
    }

    #[test]
    fn import_errors_display() {
        // Every variant renders a human-readable message (the server logs
        // these verbatim).
        let msgs = [
            ImportError::TooManyVars { needed: 4, have: 2 }.to_string(),
            ImportError::BadOrder.to_string(),
            ImportError::VarOutOfRange { node: 2, var: 9 }.to_string(),
            ImportError::ForwardReference { node: 2, child: 3 }.to_string(),
            ImportError::OrderViolation { node: 2 }.to_string(),
            ImportError::Unreduced { node: 2 }.to_string(),
            ImportError::BadRoot { root: 9 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn serde_json_like_roundtrip() {
        // serde derive works; round-trip through the serde data model using
        // a simple in-memory format check via Debug equality after clone.
        let mut m = Manager::new(3);
        let f = sample(&mut m);
        let s = m.export(f);
        let s2 = s.clone();
        assert_eq!(s, s2);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = Manager::new(3);
        let f = sample(&mut m);
        let s = m.export(f);
        let bytes = s.to_bytes();
        let back = SerializedBdd::from_bytes(&bytes).expect("decodes");
        assert_eq!(s, back);
        let mut m2 = Manager::new(3);
        let g = m2.try_import(&back).expect("imports");
        for bits in 0..8u32 {
            let a: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(m.eval(f, &a), m2.eval(g, &a), "bits={bits}");
        }
    }

    #[test]
    fn bytes_roundtrip_terminals() {
        let m = Manager::new(2);
        for t in [FALSE, TRUE] {
            let s = m.export(t);
            let back = SerializedBdd::from_bytes(&s.to_bytes()).expect("decodes");
            assert_eq!(s, back);
        }
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let mut m = Manager::new(2);
        let f = m.var(0);
        let mut bytes = m.export(f).to_bytes();
        bytes[0] = b'X';
        assert_eq!(SerializedBdd::from_bytes(&bytes), Err(DecodeError::BadMagic));
        let mut bytes = m.export(f).to_bytes();
        bytes[4] = 99;
        assert_eq!(SerializedBdd::from_bytes(&bytes), Err(DecodeError::BadVersion { got: 99 }));
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let mut m = Manager::new(4);
        let f = sample(&mut m);
        let bytes = m.export(f).to_bytes();
        for cut in 0..bytes.len() {
            let err = SerializedBdd::from_bytes(&bytes[..cut]).unwrap_err();
            // A cut inside a length-prefixed section reads back as
            // `Oversized` (the surviving prefix declares more content than
            // remains) — any of the three is a correct rejection.
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated | DecodeError::BadMagic | DecodeError::Oversized
                ),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut m = Manager::new(2);
        let f = m.var(1);
        let mut bytes = m.export(f).to_bytes();
        bytes.push(0);
        assert_eq!(SerializedBdd::from_bytes(&bytes), Err(DecodeError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn decode_rejects_hostile_length_prefix_before_allocating() {
        // A blob claiming u32::MAX order entries in a 32-byte buffer must be
        // rejected by the length-vs-remaining check, not by attempting a
        // 16 GiB allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"FBDD");
        bytes.extend_from_slice(&1u32.to_le_bytes()); // version
        bytes.extend_from_slice(&2u32.to_le_bytes()); // num_vars
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // order_len: hostile
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(SerializedBdd::from_bytes(&bytes), Err(DecodeError::Oversized));
        // Same for the node table.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"FBDD");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // num_vars
        bytes.extend_from_slice(&1u32.to_le_bytes()); // order_len
        bytes.extend_from_slice(&0u32.to_le_bytes()); // order[0]
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // node_len: hostile
        assert_eq!(SerializedBdd::from_bytes(&bytes), Err(DecodeError::Oversized));
    }

    #[test]
    fn decode_errors_display() {
        for e in [
            DecodeError::Truncated,
            DecodeError::BadMagic,
            DecodeError::BadVersion { got: 2 },
            DecodeError::Oversized,
            DecodeError::TrailingBytes { extra: 3 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
