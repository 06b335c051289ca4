//! Mixed-radix state indexing: a bijection between variable valuations and
//! dense state indices `0..num_states`.

/// The explicit state space of a program: radices (domain sizes) in variable
/// declaration order, and codecs between valuations and indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateSpace {
    radices: Vec<u64>,
    num_states: u64,
}

impl StateSpace {
    /// Build from the domain sizes of the declared variables.
    /// Panics if the product overflows or exceeds `u32::MAX` states (the
    /// explicit engine is an oracle for *small* instances by design).
    pub fn new(radices: Vec<u64>) -> Self {
        let mut n: u64 = 1;
        for &r in &radices {
            assert!(r >= 1, "radix must be positive");
            n = n.checked_mul(r).expect("state space overflows u64");
        }
        assert!(n <= u32::MAX as u64, "state space too large for the explicit engine ({n})");
        StateSpace { radices, num_states: n }
    }

    /// Total number of states.
    #[inline]
    pub fn num_states(&self) -> u64 {
        self.num_states
    }

    /// Domain sizes in declaration order.
    #[inline]
    pub fn radices(&self) -> &[u64] {
        &self.radices
    }

    /// Encode a valuation (values in declaration order) to a state index.
    pub fn encode(&self, values: &[u64]) -> u32 {
        assert_eq!(values.len(), self.radices.len(), "arity mismatch");
        let mut idx: u64 = 0;
        // Little-endian mixed radix: first variable varies fastest.
        for (i, (&v, &r)) in values.iter().zip(&self.radices).enumerate().rev() {
            assert!(v < r, "value {v} out of domain {r} at position {i}");
            idx = idx * r + v;
        }
        idx as u32
    }

    /// Decode a state index back to a valuation.
    pub fn decode(&self, idx: u32) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.radices.len());
        let mut rem = idx as u64;
        for &r in &self.radices {
            out.push(rem % r);
            rem /= r;
        }
        out
    }

    /// Iterate all states as indices.
    pub fn states(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.num_states as u32
    }

    /// All indices that agree with `values` except possibly at the variable
    /// positions in `free` (used by explicit group computation).
    pub fn vary(&self, values: &[u64], free: &[usize]) -> Vec<Vec<u64>> {
        let mut out = vec![values.to_vec()];
        for &pos in free {
            let r = self.radices[pos];
            let mut next = Vec::with_capacity(out.len() * r as usize);
            for base in &out {
                for v in 0..r {
                    let mut s = base.clone();
                    s[pos] = v;
                    next.push(s);
                }
            }
            out = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let sp = StateSpace::new(vec![3, 2, 4]);
        assert_eq!(sp.num_states(), 24);
        for idx in sp.states().collect::<Vec<_>>() {
            let values = sp.decode(idx);
            assert_eq!(sp.encode(&values), idx);
            for (v, r) in values.iter().zip(sp.radices()) {
                assert!(v < r);
            }
        }
    }

    #[test]
    fn first_variable_varies_fastest() {
        let sp = StateSpace::new(vec![2, 3]);
        assert_eq!(sp.decode(0), vec![0, 0]);
        assert_eq!(sp.decode(1), vec![1, 0]);
        assert_eq!(sp.decode(2), vec![0, 1]);
        assert_eq!(sp.decode(5), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn encode_rejects_out_of_domain() {
        let sp = StateSpace::new(vec![2]);
        sp.encode(&[2]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn encode_rejects_wrong_arity() {
        let sp = StateSpace::new(vec![2, 2]);
        sp.encode(&[0]);
    }

    #[test]
    fn vary_enumerates_combinations() {
        let sp = StateSpace::new(vec![2, 3, 2]);
        let variants = sp.vary(&[1, 2, 0], &[0, 2]);
        assert_eq!(variants.len(), 4);
        // Middle variable pinned at 2 in every variant.
        assert!(variants.iter().all(|v| v[1] == 2));
        // All four (v0, v2) combinations present.
        let mut pairs: Vec<(u64, u64)> = variants.iter().map(|v| (v[0], v[2])).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn vary_with_no_free_is_identity() {
        let sp = StateSpace::new(vec![2, 2]);
        assert_eq!(sp.vary(&[1, 0], &[]), vec![vec![1, 0]]);
    }
}
