//! The computed table against garbage collection: no stale entry survives.
//!
//! Random sequences of every memoized operation (`and`, `or`, `xor`, `not`,
//! `ite`, `exists`, `and_exists`, `rename`) run over a pool of live
//! functions, fed with fresh random functions, and interleaved with
//! collections that keep a random subset of the pool. The freed slots are reused by other functions, so a memo
//! entry that outlived a collection while naming a freed slot would hand
//! back the wrong function. Every result is checked against a truth-table
//! oracle, over thousands of distinct operations, enough to collide in the
//! table and to make it grow. Managers run one after another on a thread
//! share their tables, so the same runs also check that a manager that
//! inherits a busy one's tables sees none of its entries.
//!
//! The generator runs on the in-tree deterministic [`SplitMix64`] PRNG with
//! fixed seeds, so failures reproduce exactly.

use ftrepair_bdd::{CacheCounter, Manager, NodeId, SplitMix64, FALSE, TRUE};

const NVARS: u32 = 8;
/// A truth table over `NVARS` variables: bit `a` of the 256 is the value
/// at the assignment whose variable `v` is bit `v` of `a`.
type Table = [u64; 4];

fn bit(t: &Table, a: usize) -> bool {
    t[a / 64] >> (a % 64) & 1 == 1
}

fn tabulate(f: impl Fn(usize) -> bool) -> Table {
    let mut t = [0u64; 4];
    for a in 0..1usize << NVARS {
        if f(a) {
            t[a / 64] |= 1 << (a % 64);
        }
    }
    t
}

fn assignment(a: usize) -> Vec<bool> {
    (0..NVARS).map(|v| a >> v & 1 == 1).collect()
}

/// The truth table of a BDD, read by evaluation: independent of every
/// cache the operations under test use.
fn table_of(m: &Manager, f: NodeId) -> Table {
    tabulate(|a| m.eval(f, &assignment(a)))
}

/// `∃ vars. t`.
fn exists_table(t: &Table, vars: &[u32]) -> Table {
    tabulate(|a| {
        (0..1usize << vars.len()).any(|bits| {
            let mut b = a;
            for (i, &v) in vars.iter().enumerate() {
                b = (b & !(1 << v)) | (bits >> i & 1) << v;
            }
            bit(t, b)
        })
    })
}

/// `t` with each even variable `2i` read from the odd variable `2i + 1`
/// (`t` must not depend on the odd variables).
fn even_to_odd_table(t: &Table) -> Table {
    tabulate(|a| {
        let mut b = a;
        for i in 0..NVARS / 2 {
            let odd = a >> (2 * i + 1) & 1;
            b = (b & !(1 << (2 * i))) | odd << (2 * i);
        }
        bit(t, b)
    })
}

/// The function with truth table `t`, by Shannon expansion through `ite`
/// (variables below `v` fixed as in `a`).
fn from_table(m: &mut Manager, t: &Table, v: u32, a: usize) -> NodeId {
    if v == NVARS {
        return if bit(t, a) { TRUE } else { FALSE };
    }
    let lo = from_table(m, t, v + 1, a);
    let hi = from_table(m, t, v + 1, a | 1 << v);
    let x = m.var(v);
    m.ite(x, hi, lo)
}

/// `t` and `u` combined word by word.
fn zip(t: Table, u: Table, op: fn(u64, u64) -> u64) -> Table {
    [op(t[0], u[0]), op(t[1], u[1]), op(t[2], u[2]), op(t[3], u[3])]
}

fn random_table(rng: &mut SplitMix64) -> Table {
    [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()]
}

/// A random set of 1–3 variables.
fn random_vars(rng: &mut SplitMix64) -> Vec<u32> {
    let mut vs: Vec<u32> =
        (0..1 + rng.gen_range(3)).map(|_| rng.gen_range(u64::from(NVARS)) as u32).collect();
    vs.sort_unstable();
    vs.dedup();
    vs
}

/// One run: `ops` random operations over a pool of at most `pool_max`
/// functions, with a collection every `gc_every` operations that keeps
/// each pool member with probability `keep`. Returns the computed table's
/// initial and final slot counts.
fn run(seed: u64, ops: usize, pool_max: usize, gc_every: usize, keep: f64) -> (usize, usize) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut m = Manager::new(NVARS);
    let (s, cs) = (m.stats(), m.cache_stats());
    let untouched = cs.op_caches().iter().all(|(_, c)| *c == CacheCounter::default())
        && cs.unique == CacheCounter::default();
    assert!(
        untouched
            && (s.live_nodes, s.peak_live_nodes, s.cache_entries, s.table_growths) == (0, 0, 0, 0),
        "seed {seed}: a new manager starts empty: {s:?} {cs:?}"
    );
    let floor = s.cache_slots;
    let odd_vars: Vec<u32> = (0..NVARS / 2).map(|i| 2 * i + 1).collect();
    let odd = m.varset(&odd_vars);
    let up = m.varmap(&(0..NVARS / 2).map(|i| (2 * i, 2 * i + 1)).collect::<Vec<_>>());
    let down = m.varmap(&(0..NVARS / 2).map(|i| (2 * i + 1, 2 * i)).collect::<Vec<_>>());
    // Constants and literals rejoin the pool after every collection, so it
    // never collapses to a few trivial functions.
    let literals: Vec<(NodeId, Table)> = [(FALSE, [0; 4]), (TRUE, [!0; 4])]
        .into_iter()
        .chain((0..NVARS).map(|v| {
            let f = m.var(v);
            (f, table_of(&m, f))
        }))
        .collect();
    let mut pool = literals.clone();
    for step in 1..=ops {
        let pick = |rng: &mut SplitMix64, pool: &[(NodeId, Table)]| pool[rng.gen_index(pool.len())];
        let (f, tf) = pick(&mut rng, &pool);
        let (g, tg) = pick(&mut rng, &pool);
        let (h, th) = pick(&mut rng, &pool);
        let (name, r, tr) = match rng.gen_range(9) {
            0 => ("and", m.and(f, g), zip(tf, tg, |x, y| x & y)),
            1 => ("or", m.or(f, g), zip(tf, tg, |x, y| x | y)),
            2 => ("xor", m.xor(f, g), zip(tf, tg, |x, y| x ^ y)),
            3 => ("not", m.not(f), zip(tf, tf, |x, _| !x)),
            4 => (
                "ite",
                m.ite(f, g, h),
                zip(zip(tf, tg, |x, y| x & y), zip(tf, th, |x, y| !x & y), |x, y| x | y),
            ),
            5 => {
                let vars = random_vars(&mut rng);
                let vs = m.varset(&vars);
                ("exists", m.exists(f, vs), exists_table(&tf, &vars))
            }
            6 => {
                let vars = random_vars(&mut rng);
                let vs = m.varset(&vars);
                let conj = zip(tf, tg, |x, y| x & y);
                ("and_exists", m.and_exists(f, g, vs), exists_table(&conj, &vars))
            }
            7 => {
                let t = random_table(&mut rng);
                ("fresh", from_table(&mut m, &t, 0, 0), t)
            }
            _ => {
                // Rename needs a function free of the target variables:
                // project onto the even ones, shift them up, and back.
                let even = m.exists(f, odd);
                let shifted = m.rename(even, up);
                let back = m.rename(shifted, down);
                assert_eq!(back, even, "seed {seed} step {step}: rename round trip");
                ("rename", shifted, even_to_odd_table(&exists_table(&tf, &odd_vars)))
            }
        };
        assert_eq!(
            table_of(&m, r),
            tr,
            "seed {seed} step {step}: {name} disagrees with the oracle"
        );
        if pool.len() < pool_max {
            pool.push((r, tr));
        } else {
            let i = rng.gen_index(pool.len());
            pool[i] = (r, tr);
        }
        if step % gc_every == 0 {
            pool.retain(|_| rng.random_bool(keep));
            pool.extend(&literals);
            m.gc(pool.iter().map(|&(f, _)| f));
            m.check_integrity();
            for &(f, t) in &pool {
                assert_eq!(table_of(&m, f), t, "seed {seed} step {step}: a survivor changed");
            }
        }
    }
    let s = m.stats();
    assert_eq!(s.gc_runs, ops / gc_every, "setup: collections ran");
    assert!(s.free_nodes > 0, "setup: freed slots wait for reuse");
    (floor, s.cache_slots)
}

#[test]
fn no_stale_entry_survives_a_collection() {
    // A large pool: thousands of live nodes, so the table also grows (and
    // moves its entries) between collections. Each seed runs on a thread
    // of its own, so it starts from the smallest table rather than the one
    // the seed before left behind.
    for seed in 0..4 {
        let (floor, last) = std::thread::spawn(move || run(seed, 6000, 600, 500, 0.5))
            .join()
            .expect("the run passes");
        assert!(last > floor, "seed {seed}: the computed table must grow");
    }
}

#[test]
fn a_manager_on_a_busy_thread_inherits_no_entry() {
    // One thread: each run's manager starts from the tables the run before
    // left, at the size they reached, and must hold none of its entries.
    std::thread::spawn(|| {
        let mut last = run(200, 6000, 600, 500, 0.5).1;
        for seed in 201..204 {
            let (floor, end) = run(seed, 3000, 600, 250, 0.5);
            assert_eq!(floor, last, "seed {seed}: the run before left its table");
            last = end;
        }
    })
    .join()
    .expect("every run passes");
}

#[test]
fn frequent_small_collections_reuse_slots_at_once() {
    // A small pool collected every few dozen operations: freed slots are
    // reused almost at once, while entries naming them are still fresh.
    for seed in 100..104 {
        run(seed, 3000, 200, 37, 0.3);
    }
}
