//! Property-based validation of the symbolic image/preimage/reachability
//! machinery against a brute-force explicit evaluator.
//!
//! Random transition systems come from the in-tree deterministic
//! [`SplitMix64`] PRNG with fixed per-test seeds, so every run checks the
//! same instances and failures reproduce exactly.

use ftrepair_bdd::{NodeId, SplitMix64, FALSE};
use ftrepair_symbolic::{SymbolicContext, VarId};
use std::collections::HashSet;

const CASES: u64 = 96;

/// Blueprint: up to 3 variables with domains 2..=3 and a random edge list
/// given as concrete (from, to) value vectors.
#[derive(Clone, Debug)]
struct Blueprint {
    sizes: Vec<u64>,
    edges: Vec<(Vec<u64>, Vec<u64>)>,
    init: Vec<u64>,
}

fn gen_state(rng: &mut SplitMix64, sizes: &[u64]) -> Vec<u64> {
    sizes.iter().map(|&s| rng.gen_range(s)).collect()
}

fn gen_blueprint(rng: &mut SplitMix64) -> Blueprint {
    let nvars = 1 + rng.gen_range(3) as usize;
    let sizes: Vec<u64> = (0..nvars).map(|_| 2 + rng.gen_range(2)).collect();
    let nedges = rng.gen_range(12) as usize;
    let edges = (0..nedges).map(|_| (gen_state(rng, &sizes), gen_state(rng, &sizes))).collect();
    let init = gen_state(rng, &sizes);
    Blueprint { sizes, edges, init }
}

fn for_cases(test_tag: u64, mut case: impl FnMut(&Blueprint, u64)) {
    for i in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(test_tag.wrapping_mul(0x1000) + i);
        let bp = gen_blueprint(&mut rng);
        case(&bp, i);
    }
}

fn build(bp: &Blueprint) -> (SymbolicContext, Vec<VarId>, ftrepair_bdd::NodeId) {
    let mut cx = SymbolicContext::new();
    let vars: Vec<VarId> =
        bp.sizes.iter().enumerate().map(|(i, &s)| cx.add_var(format!("v{i}"), s)).collect();
    let mut trans = ftrepair_bdd::FALSE;
    for (from, to) in &bp.edges {
        let t = cx.transition_cube(from, to);
        trans = cx.mgr().or(trans, t);
    }
    (cx, vars, trans)
}

/// Brute-force reachability over the concrete edge list.
fn explicit_reach(bp: &Blueprint) -> HashSet<Vec<u64>> {
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    seen.insert(bp.init.clone());
    let mut frontier = vec![bp.init.clone()];
    while let Some(s) = frontier.pop() {
        for (from, to) in &bp.edges {
            if *from == s && seen.insert(to.clone()) {
                frontier.push(to.clone());
            }
        }
    }
    seen
}

/// A random split of the edge list into up to 4 parts that together hold
/// every edge: 1–3 parts get each edge, a third of the edges also land in
/// a second part (overlap), and one part is always empty.
fn random_parts(cx: &mut SymbolicContext, bp: &Blueprint, rng: &mut SplitMix64) -> Vec<NodeId> {
    let k = 1 + rng.gen_range(3) as usize;
    let mut parts = vec![FALSE; k];
    for (from, to) in &bp.edges {
        let t = cx.transition_cube(from, to);
        let first = rng.gen_range(k as u64) as usize;
        parts[first] = cx.mgr().or(parts[first], t);
        if rng.gen_range(3) == 0 {
            let second = rng.gen_range(k as u64) as usize;
            parts[second] = cx.mgr().or(parts[second], t);
        }
    }
    let empty_at = rng.gen_range(k as u64 + 1) as usize;
    parts.insert(empty_at, FALSE);
    parts
}

#[test]
fn forward_reachability_matches_bruteforce() {
    for_cases(1, |bp, i| {
        let (mut cx, vars, trans) = build(bp);
        let init = cx.state_cube(&bp.init);
        let expected = explicit_reach(bp);
        let reach = cx.forward_reachable(init, trans);
        let symbolic: HashSet<Vec<u64>> = cx.enumerate_states(reach, 10_000).into_iter().collect();
        assert_eq!(symbolic, expected, "case {i}: {bp:?}");
        let (_, breadth_first) = cx.forward_reachable_keep(init, &[trans], &[]);

        // Chained over one frame per variable: each part's steps change at
        // most that variable, and the last part holds the rest.
        let frames: Vec<NodeId> = vars
            .iter()
            .map(|&v| {
                let others: Vec<VarId> = vars.iter().copied().filter(|&w| w != v).collect();
                cx.unchanged_all(&others)
            })
            .collect();
        let parts = cx.split_by_frames(trans, &frames);
        assert_eq!(parts.len(), frames.len() + 1, "case {i}");
        let union = parts.iter().fold(FALSE, |acc, &p| cx.mgr().or(acc, p));
        assert_eq!(union, trans, "case {i}: the frame parts do not OR back to trans: {bp:?}");

        let mut rng = SplitMix64::seed_from_u64(0xC4A1_0000 + i);
        let random = random_parts(&mut cx, bp, &mut rng);
        for (kind, parts) in [("frame", parts), ("random", random)] {
            let (chained, sweeps) = cx.forward_reachable_keep(init, &parts, &[]);
            let symbolic: HashSet<Vec<u64>> =
                cx.enumerate_states(chained, 10_000).into_iter().collect();
            assert_eq!(symbolic, expected, "case {i}, {kind} parts {parts:?}: {bp:?}");
            assert!(sweeps <= breadth_first, "case {i}, {kind}: {sweeps} > {breadth_first}");
        }
    });
}

#[test]
fn image_matches_bruteforce() {
    for_cases(2, |bp, i| {
        let (mut cx, _, trans) = build(bp);
        let init = cx.state_cube(&bp.init);
        let img = cx.image(init, trans);
        let symbolic: HashSet<Vec<u64>> = cx.enumerate_states(img, 10_000).into_iter().collect();
        let expected: HashSet<Vec<u64>> =
            bp.edges.iter().filter(|(f, _)| *f == bp.init).map(|(_, t)| t.clone()).collect();
        assert_eq!(symbolic, expected, "case {i}: {bp:?}");
    });
}

#[test]
fn preimage_matches_bruteforce() {
    for_cases(3, |bp, i| {
        let (mut cx, _, trans) = build(bp);
        let target = cx.state_cube(&bp.init);
        let pre = cx.preimage(target, trans);
        let symbolic: HashSet<Vec<u64>> = cx.enumerate_states(pre, 10_000).into_iter().collect();
        let expected: HashSet<Vec<u64>> =
            bp.edges.iter().filter(|(_, t)| *t == bp.init).map(|(f, _)| f.clone()).collect();
        assert_eq!(symbolic, expected, "case {i}: {bp:?}");
    });
}

#[test]
fn deadlocks_match_bruteforce() {
    for_cases(4, |bp, i| {
        let (mut cx, _, trans) = build(bp);
        let universe = cx.state_universe();
        let dl = cx.deadlocks(universe, trans);
        let symbolic: HashSet<Vec<u64>> = cx.enumerate_states(dl, 10_000).into_iter().collect();
        let sources: HashSet<&Vec<u64>> = bp.edges.iter().map(|(f, _)| f).collect();
        let all = cx.enumerate_states(universe, 10_000);
        let expected: HashSet<Vec<u64>> =
            all.into_iter().filter(|s| !sources.contains(s)).collect();
        assert_eq!(symbolic, expected, "case {i}: {bp:?}");
    });
}

#[test]
fn count_transitions_matches_edge_count() {
    for_cases(5, |bp, i| {
        let (mut cx, _, trans) = build(bp);
        let mut unique: Vec<(Vec<u64>, Vec<u64>)> = bp.edges.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(cx.count_transitions(trans), unique.len() as f64, "case {i}: {bp:?}");
    });
}
