//! Property tests for rank diagrams and the rank-descent product.
//!
//! On managers with at most 4 current and 4 next bits (interleaved, the
//! current copy of bit `g` at level `2g` and the next copy at `2g + 1`),
//! random ascending nested state sets `A_0 ⊆ … ⊆ A_n` define the rank
//! `R(x) = min{k : x ∈ A_k}`, ∞ for states in no set. For random relations,
//! `rank_descent` must equal both the per-layer union
//! `⋃_k rel ∧ (A_k ∖ A_{k−1})(x) ∧ A_{k−1}(x')` that Phase 5 used to build
//! round by round, and a truth-table oracle; a garbage collection between
//! building the diagram and the product changes nothing. Seeds are fixed
//! ([`SplitMix64`]), so a failure reproduces exactly. The diagram's own
//! values and node sharing are unit-tested in `src/rank.rs`.

use ftrepair_bdd::{Manager, NodeId, SplitMix64, VarMapId, FALSE, TRUE};

const CASES: u64 = 400;

/// The assignment of the pair `(x, x')` of `bits`-bit states.
fn assignment(bits: u32, x: usize, x_next: usize) -> Vec<bool> {
    (0..2 * bits)
        .map(|level| {
            let state = if level % 2 == 0 { x } else { x_next };
            state >> (level / 2) & 1 == 1
        })
        .collect()
}

/// The set of pairs `(x, x')` where `holds(x, x')`, over both copies.
fn relation(m: &mut Manager, bits: u32, holds: impl Fn(usize, usize) -> bool) -> NodeId {
    let states = 1usize << bits;
    let mut f = FALSE;
    for x in 0..states {
        for x_next in (0..states).filter(|&y| holds(x, y)) {
            let lits: Vec<(u32, bool)> = assignment(bits, x, x_next)
                .into_iter()
                .enumerate()
                .map(|(l, v)| (l as u32, v))
                .collect();
            let c = m.cube(&lits);
            f = m.or(f, c);
        }
    }
    f
}

/// The set of states `x` (current copy) where `holds(x)`.
fn state_set(m: &mut Manager, bits: u32, holds: impl Fn(usize) -> bool) -> NodeId {
    let mut f = FALSE;
    for x in (0..1usize << bits).filter(|&x| holds(x)) {
        let lits: Vec<(u32, bool)> = (0..bits).map(|g| (2 * g, x >> g & 1 == 1)).collect();
        let c = m.cube(&lits);
        f = m.or(f, c);
    }
    f
}

fn cur_to_next(m: &mut Manager, bits: u32) -> VarMapId {
    m.varmap(&(0..bits).map(|g| (2 * g, 2 * g + 1)).collect::<Vec<_>>())
}

/// Phase 5's rounds, one product per layer.
fn per_layer_union(m: &mut Manager, rel: NodeId, nested: &[NodeId], map: VarMapId) -> NodeId {
    let mut union = FALSE;
    for k in 1..nested.len() {
        let layer = m.diff(nested[k], nested[k - 1]);
        let target = m.rename(nested[k - 1], map);
        let from_layer = m.and(rel, layer);
        let kept = m.and(from_layer, target);
        union = m.or(union, kept);
    }
    union
}

/// One random case: a rank per state (`None` = in no set) over `sets`
/// nested sets, and a relation of random density.
struct Case {
    bits: u32,
    ranks: Vec<Option<usize>>,
    sets: usize,
    pairs: Vec<bool>,
}

fn gen_case(rng: &mut SplitMix64, single_set: bool) -> Case {
    let bits = 1 + rng.gen_range(4) as u32;
    let states = 1usize << bits;
    let sets = if single_set { 1 } else { 1 + rng.gen_index(6) };
    // Some cases leave many states unranked, some none.
    let unranked = rng.gen_range(3) as f64 / 4.0;
    let ranks = (0..states)
        .map(|_| if rng.random_bool(unranked) { None } else { Some(rng.gen_index(sets)) })
        .collect();
    let density = (1 + rng.gen_range(7)) as f64 / 8.0;
    let pairs = (0..states * states).map(|_| rng.random_bool(density)).collect();
    Case { bits, ranks, sets, pairs }
}

fn check_case(case: &Case, seed: u64) {
    let Case { bits, ref ranks, sets, ref pairs } = *case;
    let states = 1usize << bits;
    let mut m = Manager::new(2 * bits);
    let nested: Vec<NodeId> =
        (0..sets).map(|k| state_set(&mut m, bits, |x| ranks[x].is_some_and(|r| r <= k))).collect();
    let rel = relation(&mut m, bits, |x, y| pairs[x * states + y]);
    let map = cur_to_next(&mut m, bits);

    let rank = m.rank_diagram(&nested);
    let descent = m.rank_descent(rel, &rank, map);
    let expected = per_layer_union(&mut m, rel, &nested, map);
    assert_eq!(descent, expected, "seed {seed}: differs from the per-layer union");
    let oracle = relation(&mut m, bits, |x, y| {
        pairs[x * states + y] && matches!((ranks[x], ranks[y]), (Some(rx), Some(ry)) if ry < rx)
    });
    assert_eq!(descent, oracle, "seed {seed}: differs from the truth table");
    m.check_integrity();
}

#[test]
fn rank_descent_equals_per_layer_union_and_truth_table() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let case = gen_case(&mut rng, false);
        check_case(&case, seed);
    }
}

#[test]
fn a_single_set_descends_nowhere() {
    for seed in 0..CASES / 4 {
        let mut rng = SplitMix64::seed_from_u64(0x5eed ^ seed);
        let case = gen_case(&mut rng, true);
        check_case(&case, seed);
        // Every ranked state has rank 0: no step lowers it.
        let mut m = Manager::new(2 * case.bits);
        let a0 = state_set(&mut m, case.bits, |x| case.ranks[x].is_some());
        let map = cur_to_next(&mut m, case.bits);
        let rank = m.rank_diagram(&[a0]);
        assert_eq!(m.rank_descent(TRUE, &rank, map), FALSE);
    }
}

#[test]
fn garbage_collection_between_build_and_descent_changes_nothing() {
    let mut rng = SplitMix64::seed_from_u64(7);
    let mut m = Manager::new(8);
    let ranks: Vec<Option<usize>> =
        (0..16).map(|x| (x % 5 != 4).then(|| rng.gen_index(4))).collect();
    let nested: Vec<NodeId> =
        (0..4).map(|k| state_set(&mut m, 4, |x| ranks[x].is_some_and(|r| r <= k))).collect();
    let pairs: Vec<bool> = (0..256).map(|_| rng.coin()).collect();
    let rel = relation(&mut m, 4, |x, y| pairs[x * 16 + y]);
    let map = cur_to_next(&mut m, 4);
    let expected = per_layer_union(&mut m, rel, &nested, map);

    let rank = m.rank_diagram(&nested);
    let live = m.stats().live_nodes;
    // The nested sets are not roots: the collection frees them.
    m.gc([rel, expected]);
    assert!(m.stats().live_nodes < live, "setup: the collection frees nodes");
    m.check_integrity();
    assert_eq!(m.rank_descent(rel, &rank, map), expected);
    assert!(rank.descent_states() > 0);
    m.check_integrity();
}
