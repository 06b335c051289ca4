//! Cross-order `SerializedBdd` round-trip property test — the path
//! warm-start repair depends on when a store entry or checkpoint slot was
//! written in a variable order other than the importing manager's.
//!
//! Each case: build a seeded random BDD and take its truth table; write the
//! same function by hand as a blob in a seeded random permutation of the
//! variables (nodes consistent with that order, as an earlier build's
//! manager would have exported it); import and check sat-count, evaluation
//! on every assignment, and canonicity against the natively built root.
//! Every blob also makes the trip through the binary codec
//! (`to_bytes`/`from_bytes`) first, since that is how the disk store moves
//! artifacts.

use ftrepair_bdd::{FxHashMap, Manager, NodeId, SerializedBdd, SplitMix64, FALSE, TRUE};

const NVARS: u32 = 10;
const CASES: u64 = 120;

fn random_bdd(m: &mut Manager, rng: &mut SplitMix64) -> NodeId {
    let mut f = if rng.coin() { TRUE } else { FALSE };
    for _ in 0..(4 + rng.gen_range(8)) {
        let a = m.var(rng.gen_range(NVARS as u64) as u32);
        let b = m.var(rng.gen_range(NVARS as u64) as u32);
        let g = match rng.gen_range(3) {
            0 => m.and(a, b),
            1 => m.or(a, b),
            _ => m.xor(a, b),
        };
        f = match rng.gen_range(3) {
            0 => m.and(f, g),
            1 => m.or(f, g),
            _ => m.xor(f, g),
        };
    }
    f
}

/// Assignment `bits` (bit `v` = variable `v`) as an `eval` argument.
fn assignment(bits: u32) -> Vec<bool> {
    (0..NVARS).map(|v| (bits >> v) & 1 == 1).collect()
}

/// A Fisher–Yates shuffle of `0..NVARS`.
fn random_order(rng: &mut SplitMix64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..NVARS).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// The reduced, ordered BDD of `truth` under `order` (`order[level] =
/// variable`), written directly as a blob: Shannon-expand level by level
/// and hash-cons `(var, lo, hi)` triples, children first.
fn blob_in_order(truth: &[bool], order: &[u32]) -> SerializedBdd {
    fn build(
        truth: &[bool],
        order: &[u32],
        level: usize,
        bits: u32,
        nodes: &mut Vec<(u32, u32, u32)>,
        unique: &mut FxHashMap<(u32, u32, u32), u32>,
    ) -> u32 {
        if level == order.len() {
            return truth[bits as usize] as u32;
        }
        let var = order[level];
        let lo = build(truth, order, level + 1, bits, nodes, unique);
        let hi = build(truth, order, level + 1, bits | 1 << var, nodes, unique);
        if lo == hi {
            return lo;
        }
        *unique.entry((var, lo, hi)).or_insert_with(|| {
            nodes.push((var, lo, hi));
            nodes.len() as u32 + 1
        })
    }
    let mut nodes = Vec::new();
    let root = build(truth, order, 0, 0, &mut nodes, &mut FxHashMap::default());
    SerializedBdd { num_vars: NVARS, order: order.to_vec(), nodes, root }
}

/// Whether some node tests a variable after one of its children in the
/// identity order, i.e. the blob needs the ite rebuild to import.
fn needs_rebuild(blob: &SerializedBdd) -> bool {
    let var = |child: u32| if child < 2 { u32::MAX } else { blob.nodes[child as usize - 2].0 };
    blob.nodes.iter().any(|&(v, lo, hi)| v > var(lo) || v > var(hi))
}

#[test]
fn foreign_order_blob_imports_as_the_same_function() {
    let mut rng = SplitMix64::seed_from_u64(0x0df7_0a5e_5107_e001);
    let mut rebuilt_cases = 0u64;
    for case in 0..CASES {
        let mut m = Manager::new(NVARS);
        let f = random_bdd(&mut m, &mut rng);
        let truth: Vec<bool> =
            (0..1u32 << NVARS).map(|bits| m.eval(f, &assignment(bits))).collect();

        // Through the binary codec, as the disk store would ship it.
        let blob = blob_in_order(&truth, &random_order(&mut rng));
        let decoded = SerializedBdd::from_bytes(&blob.to_bytes()).expect("codec round-trip");
        assert_eq!(blob, decoded, "case {case}: codec changed the blob");
        if needs_rebuild(&decoded) {
            rebuilt_cases += 1;
        }

        let mut dst = Manager::new(NVARS);
        let g = dst.try_import(&decoded).expect("import");
        dst.check_integrity();
        assert_eq!(dst.sat_count(g), m.sat_count(f), "case {case}: sat count lost on import");
        for (bits, &want) in truth.iter().enumerate() {
            assert_eq!(dst.eval(g, &assignment(bits as u32)), want, "case {case}: bits={bits}");
        }

        // Canonicity probe: imported into the manager that built `f`, the
        // foreign-order blob must hash-cons to the original root.
        assert_eq!(m.import(&decoded), f, "case {case}: function identity lost");
        m.check_integrity();
    }
    // The random orders must actually exercise the ite-rebuild path in a
    // healthy majority of cases, or this test would silently regress into
    // testing only the fast replay path.
    assert!(rebuilt_cases > CASES / 2, "only {rebuilt_cases}/{CASES} cases needed the rebuild");
}
