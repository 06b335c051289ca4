//! Random distributed programs for the randomized tests, driven by the
//! in-tree deterministic [`SplitMix64`] PRNG: every run checks the same 64
//! instances per property, and a failure's case index pins its exact seed.

use ftrepair_bdd::SplitMix64;
use ftrepair_program::{DistributedProgram, ProgramBuilder, Update};

const CASES: u64 = 64;

/// Blueprint for a random 2-variable, 2-process distributed program.
#[derive(Clone, Debug)]
pub struct RandomProgram {
    /// Domain sizes (2..=3 each).
    sizes: [u64; 2],
    /// For each process: can it read the other variable?
    reads_other: [bool; 2],
    /// Actions: (process, guard values per readable var, target value).
    actions: Vec<(usize, u64, Option<u64>, u64)>,
    /// Invariant: membership bit per state of the ≤9-state space.
    invariant_bits: u16,
    /// Faults: (var, from value, to value).
    faults: Vec<(usize, u64, u64)>,
    /// Bad states: membership bits.
    bad_bits: u16,
}

fn gen_program(rng: &mut SplitMix64) -> RandomProgram {
    let sizes = [2 + rng.gen_range(2), 2 + rng.gen_range(2)];
    let reads_other = [rng.coin(), rng.coin()];
    let actions = (0..1 + rng.gen_index(5))
        .map(|_| {
            let g_other = if rng.coin() { Some(rng.gen_range(3)) } else { None };
            (rng.gen_index(2), rng.gen_range(3), g_other, rng.gen_range(3))
        })
        .collect();
    let invariant_bits = rng.next_u64() as u16;
    let faults = (0..rng.gen_index(4))
        .map(|_| (rng.gen_index(2), rng.gen_range(3), rng.gen_range(3)))
        .collect();
    let bad_bits = rng.next_u64() as u16;
    RandomProgram { sizes, reads_other, actions, invariant_bits, faults, bad_bits }
}

pub fn for_random_programs(test_tag: u64, mut case: impl FnMut(&RandomProgram, u64)) {
    for i in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(test_tag.wrapping_mul(0x1000) + i);
        let rp = gen_program(&mut rng);
        // Captured by the harness; surfaces the failing blueprint on panic.
        eprintln!("case {i}: {rp:?}");
        case(&rp, i);
    }
}

pub fn build(rp: &RandomProgram) -> DistributedProgram {
    let mut b = ProgramBuilder::new("random");
    let v0 = b.var("v0", rp.sizes[0]);
    let v1 = b.var("v1", rp.sizes[1]);
    let vars = [v0, v1];
    for j in 0..2 {
        let own = vars[j];
        let other = vars[1 - j];
        let read = if rp.reads_other[j] { vec![own, other] } else { vec![own] };
        b.process(format!("p{j}"), &read, &[own]);
        for &(pj, g_own, g_other, target) in &rp.actions {
            if pj != j {
                continue;
            }
            let g_own = g_own % rp.sizes[j];
            let target = target % rp.sizes[j];
            if target == g_own {
                continue; // self-loop-ish action: skip for simplicity
            }
            let mut guard = b.cx().assign_eq(own, g_own);
            if rp.reads_other[j] {
                if let Some(go) = g_other {
                    let go = go % rp.sizes[1 - j];
                    let e = b.cx().assign_eq(other, go);
                    guard = b.cx().mgr().and(guard, e);
                }
            }
            b.action(guard, &[(own, Update::Const(target))]);
        }
    }
    // Invariant and bad states from membership bits over the flat space.
    let mut inv = ftrepair_bdd::FALSE;
    let mut bad = ftrepair_bdd::FALSE;
    let mut idx = 0;
    for a in 0..rp.sizes[0] {
        for c in 0..rp.sizes[1] {
            let s = b.cx().state_cube(&[a, c]);
            if rp.invariant_bits >> idx & 1 == 1 {
                inv = b.cx().mgr().or(inv, s);
            }
            if rp.bad_bits >> idx & 1 == 1 {
                bad = b.cx().mgr().or(bad, s);
            }
            idx += 1;
        }
    }
    b.invariant(inv);
    b.bad_states(bad);
    for &(v, from, to) in &rp.faults {
        let from = from % rp.sizes[v];
        let to = to % rp.sizes[v];
        if from == to {
            continue;
        }
        let g = b.cx().assign_eq(vars[v], from);
        b.fault_action(g, &[(vars[v], Update::Const(to))]);
    }
    b.build()
}
