//! Instrumentation collected during repair — what the experiment tables
//! report.

use std::time::Duration;

/// Counters and timings from one repair run: the engine's only tally. The
/// entry point owns it, the loops and Step 2 add into it, and
/// `arena::finish` publishes its counts to telemetry once, however the run
/// ended (`repair.outer_iterations` and `step2.*`).
#[derive(Clone, Debug, Default)]
pub struct RepairStats {
    /// Wall time spent in Step 1 (Add-Masking), summed over outer
    /// iterations.
    pub step1_time: Duration,
    /// Wall time spent in Step 2 (realizability enforcement), summed.
    pub step2_time: Duration,
    /// Iterations of Algorithm 1's outer repeat loop.
    pub outer_iterations: usize,
    /// Groups admitted into some process's `δ_j` during Step 2.
    pub groups_kept: u64,
    /// Groups removed because a member was missing.
    pub groups_dropped: u64,
    /// Successful `ExpandGroup` applications.
    pub expansions: u64,
    /// Iterations of Step 2's inner pick-a-transition loop (the quantity
    /// `ExpandGroup` exists to shrink).
    pub step2_picks: u64,
}

impl RepairStats {
    /// Total wall time across both steps.
    pub fn total_time(&self) -> Duration {
        self.step1_time + self.step2_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_sum_of_steps() {
        let s = RepairStats {
            step1_time: Duration::from_millis(30),
            step2_time: Duration::from_millis(12),
            ..Default::default()
        };
        assert_eq!(s.total_time(), Duration::from_millis(42));
    }
}
