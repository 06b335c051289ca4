//! Pieces shared by the in-process workloads: the repair and verify
//! calls, and the kernel and engine counters each job adds to.

use crate::report::Layers;
use ftrepair_bdd::{CacheCounter, Manager};
use ftrepair_core::{verify::verify_outcome, LazyOutcome, RepairStats};
use ftrepair_program::DistributedProgram;
use ftrepair_telemetry::Telemetry;
use std::time::Duration;

/// Split one repair call's wall time into Step 1, Step 2, and the outer
/// loop around them (the remainder).
pub fn add_repair_time(layers: &mut Layers, stats: &RepairStats, wall: Duration) {
    layers.add("core.step1", stats.step1_time);
    layers.add("core.step2", stats.step2_time);
    layers.add("core.outer", wall.saturating_sub(stats.step1_time + stats.step2_time));
}

/// Run the independent verifiers (masking and realizability).
pub fn verify(
    layers: &mut Layers,
    tele: &Telemetry,
    prog: &mut DistributedProgram,
    out: &LazyOutcome,
) -> bool {
    layers.call(tele, "core.verify", || {
        let (masking, realizability) = verify_outcome(prog, out);
        masking.ok() && realizability.ok()
    })
}

/// Repair-engine counters, averaged per repair.
#[derive(Default)]
pub struct EngineCounts {
    repairs: u64,
    outer_iterations: u64,
    step2_picks: u64,
    groups_kept: u64,
    groups_dropped: u64,
    expansions: u64,
}

impl EngineCounts {
    pub fn absorb(&mut self, s: &RepairStats) {
        self.repairs += 1;
        self.outer_iterations += s.outer_iterations as u64;
        self.step2_picks += s.step2_picks;
        self.groups_kept += s.groups_kept;
        self.groups_dropped += s.groups_dropped;
        self.expansions += s.expansions;
    }

    pub fn report(&self, layers: &mut Layers) {
        let per = |v: u64| v as f64 / self.repairs.max(1) as f64;
        layers.set("core.outer_iterations", per(self.outer_iterations));
        layers.set("core.step2_picks", per(self.step2_picks));
        layers.set("core.groups_kept", per(self.groups_kept));
        layers.set("core.groups_dropped", per(self.groups_dropped));
        layers.set("core.expansions", per(self.expansions));
    }
}

/// BDD-kernel counters over every job's manager: high-water marks as the
/// maximum over jobs, probes and collections averaged per job.
#[derive(Default)]
pub struct KernelCounts {
    jobs: u64,
    peak_live_nodes: usize,
    allocated_nodes: usize,
    cache_entries: usize,
    unique: CacheCounter,
    ops: [CacheCounter; 6],
    gc_runs: u64,
    reorder_runs: u64,
    reorder_swaps: u64,
}

const OP_CACHES: [(&str, &str); 6] = [
    ("bdd.cache.not.lookups", "bdd.cache.not.hit_rate_pct"),
    ("bdd.cache.apply.lookups", "bdd.cache.apply.hit_rate_pct"),
    ("bdd.cache.ite.lookups", "bdd.cache.ite.hit_rate_pct"),
    ("bdd.cache.quant.lookups", "bdd.cache.quant.hit_rate_pct"),
    ("bdd.cache.and_exists.lookups", "bdd.cache.and_exists.hit_rate_pct"),
    ("bdd.cache.rename.lookups", "bdd.cache.rename.hit_rate_pct"),
];

impl KernelCounts {
    /// Add one finished job's manager.
    pub fn absorb(&mut self, mgr: &Manager) {
        let s = mgr.stats();
        let c = mgr.cache_stats();
        self.jobs += 1;
        self.peak_live_nodes = self.peak_live_nodes.max(s.peak_live_nodes);
        self.allocated_nodes = self.allocated_nodes.max(s.allocated_nodes);
        self.cache_entries = self.cache_entries.max(s.cache_entries);
        self.unique.hits += c.unique.hits;
        self.unique.misses += c.unique.misses;
        for (acc, (_, op)) in self.ops.iter_mut().zip(c.op_caches()) {
            acc.hits += op.hits;
            acc.misses += op.misses;
        }
        self.gc_runs += s.gc_runs as u64;
        self.reorder_runs += s.reorder_runs;
        self.reorder_swaps += s.reorder_swaps;
    }

    pub fn report(&self, layers: &mut Layers) {
        let per = |v: u64| v as f64 / self.jobs.max(1) as f64;
        layers.set("bdd.peak_live_nodes", self.peak_live_nodes as f64);
        layers.set("bdd.allocated_nodes", self.allocated_nodes as f64);
        layers.set("bdd.cache_entries", self.cache_entries as f64);
        layers.set("bdd.unique.lookups", per(self.unique.lookups()));
        layers.set("bdd.unique.hit_rate_pct", 100.0 * self.unique.hit_rate());
        for ((lookups, rate), op) in OP_CACHES.iter().zip(&self.ops) {
            layers.set(lookups, per(op.lookups()));
            layers.set(rate, 100.0 * op.hit_rate());
        }
        layers.set("bdd.gc_runs", per(self.gc_runs));
        layers.set("bdd.reorder_runs", per(self.reorder_runs));
        layers.set("bdd.reorder_swaps", per(self.reorder_swaps));
    }
}
