//! Microbenchmarks for the core BDD operations on transition-relation-shaped
//! workloads (interleaved variables, mod-2^k counters, a stabilizing chain)
//! — the op mix the repair fixpoints are made of.
//!
//! Self-contained timing harness (median of repeated runs after warmup) so
//! the bench builds offline; run with `cargo bench -p ftrepair-bdd`.

use ftrepair_bdd::{Manager, NodeId, RankDiagram, VarMapId, FALSE, TRUE};
use std::time::{Duration, Instant};

/// Build the transition relation of a k-bit binary counter over interleaved
/// current (even) / next (odd) levels.
fn counter_relation(m: &mut Manager, bits: u32) -> NodeId {
    let mut rel = ftrepair_bdd::TRUE;
    let mut carry = ftrepair_bdd::TRUE; // increment propagates while carry
    for i in 0..bits {
        let cur = m.var(2 * i);
        let next = m.var(2 * i + 1);
        // next = cur XOR carry
        let x = m.xor(cur, carry);
        let bit_ok = m.iff(next, x);
        rel = m.and(rel, bit_ok);
        carry = m.and(carry, cur);
    }
    rel
}

/// `x_a = x_b` over the current copies of two `bits`-bit cells.
fn cells_equal(m: &mut Manager, bits: u32, a: u32, b: u32) -> NodeId {
    let mut eq = TRUE;
    for j in 0..bits {
        let (xa, xb) = (m.var(2 * (a * bits + j)), m.var(2 * (b * bits + j)));
        let same = m.iff(xa, xb);
        eq = m.and(eq, same);
    }
    eq
}

/// The stabilizing chain of `cells` cells of `bits` bits (the repair's
/// `Sc^n` case study) over interleaved current/next levels: cell `i`
/// copies cell `i - 1` when they differ, every other cell unchanged.
/// Returns the relation and the legitimate states (all cells equal).
fn chain_relation(m: &mut Manager, cells: u32, bits: u32) -> (NodeId, NodeId) {
    let mut rel = FALSE;
    let mut legit = TRUE;
    for i in 1..cells {
        let eq = cells_equal(m, bits, i - 1, i);
        legit = m.and(legit, eq);
        let mut step = m.not(eq);
        for k in 0..cells {
            for j in 0..bits {
                let next = m.var(2 * (k * bits + j) + 1);
                let source = if k == i { i - 1 } else { k };
                let cur = m.var(2 * (source * bits + j));
                let bit = m.iff(next, cur);
                step = m.and(step, bit);
            }
        }
        rel = m.or(rel, step);
    }
    (rel, legit)
}

/// Phase 5's fallback BFS (`ranking::break_cycles`) on the chain, with
/// the manager its counters come from.
struct Phase5 {
    m: Manager,
    rel: NodeId,
    up: VarMapId,
    /// `nested[k]`: the states at most `k` layers from the legitimate ones.
    nested: Vec<NodeId>,
    rank: RankDiagram,
    /// The steps of `rel` that lower the layer rank.
    descent: NodeId,
}

/// Layer by layer toward the legitimate states, then keep every step of
/// the relation that lowers the layer rank in one rank-descent product.
fn phase5_layers(cells: u32, bits: u32) -> Phase5 {
    let mut m = Manager::new(2 * cells * bits);
    let (rel, legit) = chain_relation(&mut m, cells, bits);
    let next: Vec<u32> = (0..cells * bits).map(|g| 2 * g + 1).collect();
    let next_vs = m.varset(&next);
    let up = m.varmap(&(0..cells * bits).map(|g| (2 * g, 2 * g + 1)).collect::<Vec<_>>());
    let mut nested = vec![legit];
    loop {
        let assigned = nested[nested.len() - 1];
        let target = m.rename(assigned, up);
        let pre = m.and_exists(rel, target, next_vs);
        let layer = m.diff(pre, assigned);
        if layer == FALSE {
            break;
        }
        let assigned = m.or(assigned, layer);
        nested.push(assigned);
    }
    // Every state of the chain recovers: the layers cover the universe.
    assert_eq!(nested.last(), Some(&TRUE));
    let rank = m.rank_diagram(&nested);
    let descent = m.rank_descent(rel, &rank, up);
    Phase5 { m, rel, up, nested, rank, descent }
}

/// What the rank-descent product replaces: one
/// `rel ∧ layer ∧ next(assigned)` product per layer, ORed together.
fn per_layer_union(p: &mut Phase5) -> NodeId {
    let mut union = FALSE;
    for k in 1..p.nested.len() {
        let layer = p.m.diff(p.nested[k], p.nested[k - 1]);
        let target = p.m.rename(p.nested[k - 1], p.up);
        let from_layer = p.m.and(p.rel, layer);
        let kept = p.m.and(from_layer, target);
        union = p.m.or(union, kept);
    }
    union
}

/// Time `f` (median over `runs` after one warmup), print one line, and
/// return the last run's result.
fn bench<T>(name: &str, runs: usize, mut f: impl FnMut() -> T) -> T {
    let mut last = f();
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            last = std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    let (min, max) = (times[0], times[times.len() - 1]);
    println!("{name:<28} median {median:>10.3?}   min {min:>10.3?}   max {max:>10.3?}");
    last
}

fn main() {
    for &bits in &[16u32, 32, 64] {
        bench(&format!("build_counter/{bits}"), 10, || {
            let mut m = Manager::new(2 * bits);
            counter_relation(&mut m, bits)
        });
        bench(&format!("image_sweep/{bits}"), 10, || {
            // One BFS sweep of the counter's full 2^bits cycle would be
            // absurd; measure a fixed number of image steps instead.
            let mut m = Manager::new(2 * bits);
            let rel = counter_relation(&mut m, bits);
            let cur: Vec<u32> = (0..bits).map(|i| 2 * i).collect();
            let vs = m.varset(&cur);
            let map: Vec<(u32, u32)> = (0..bits).map(|i| (2 * i + 1, 2 * i)).collect();
            let vm = m.varmap(&map);
            let zeros: Vec<(u32, bool)> = (0..bits).map(|i| (2 * i, false)).collect();
            let mut s = m.cube(&zeros);
            for _ in 0..64 {
                let img = m.and_exists(s, rel, vs);
                s = m.rename(img, vm);
            }
            s
        });
        bench(&format!("exists_half/{bits}"), 10, || {
            let mut m = Manager::new(2 * bits);
            let rel = counter_relation(&mut m, bits);
            let half: Vec<u32> = (0..bits / 2).map(|i| 2 * i).collect();
            let vs = m.varset(&half);
            m.exists(rel, vs)
        });
    }
    for &cells in &[8u32, 10] {
        let mut p = bench(&format!("phase5_layers/{cells}x3"), 10, || phase5_layers(cells, 3));
        let (s, cs) = (p.m.stats(), p.m.cache_stats());
        let (hits, lookups) =
            cs.op_caches().iter().fold((0, 0), |(h, l), (_, c)| (h + c.hits, l + c.lookups()));
        println!(
            "  computed table: hit rate {:.1}% of {lookups} probes, {} of {} slots resident; \
             unique table: {} nodes in {} slots",
            100.0 * hits as f64 / lookups.max(1) as f64,
            s.cache_entries,
            s.cache_slots,
            s.live_nodes,
            s.unique_slots,
        );
        println!(
            "  {} layers; rank diagram: {} nodes; rank descent: {} states",
            p.nested.len() - 1,
            p.rank.node_count(),
            p.rank.descent_states(),
        );
        let union = per_layer_union(&mut p);
        assert_eq!(p.descent, union, "rank descent differs from the layers");
    }
}
