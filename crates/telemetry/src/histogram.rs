//! A lock-free log-bucketed latency histogram.
//!
//! HDR-style log-linear bucketing: every power-of-two range is split into
//! `SUBBUCKETS` (16) linear sub-buckets, so the relative width of any bucket is
//! at most `1/SUBBUCKETS` (6.25%) of its value — percentiles read back from
//! the buckets are always within one bucket of the exact sorted-sample
//! percentile, at a fixed 7.6 KiB of memory per histogram no matter how
//! many samples arrive. Recording is a single relaxed `fetch_add` on a
//! pre-sized atomic array (plus one for the exact sum), so handles can be
//! shared freely across worker threads; there is no lock anywhere on the
//! record path and none on the snapshot path either.
//!
//! Values are plain `u64`s; by convention every histogram in this workspace
//! records **nanoseconds** (see [`Histogram::observe_duration`]), and the
//! JSON/Prometheus renderers convert to seconds at the edge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// log2 of the linear sub-bucket count per power-of-two range.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two range (16 → ≤6.25% bucket width).
const SUBBUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` domain: the identity range
/// `0..16` plus one group of 16 sub-buckets per exponent in
/// `SUB_BITS..=63` (60 groups).
const NUM_BUCKETS: usize = (SUBBUCKETS + (64 - SUB_BITS as u64) * SUBBUCKETS) as usize;

/// Bucket index for a value. Values below [`SUBBUCKETS`] map to themselves;
/// above, the top [`SUB_BITS`]+1 significant bits select the bucket.
fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (exp - SUB_BITS)) & (SUBBUCKETS - 1);
    ((exp - SUB_BITS) as u64 * SUBBUCKETS + SUBBUCKETS + sub) as usize
}

/// Largest value falling into bucket `i` (the `le` boundary the bucket is
/// reported under).
fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < SUBBUCKETS {
        return i;
    }
    let group = i / SUBBUCKETS; // >= 1
    let sub = i % SUBBUCKETS;
    let width_bits = (group - 1) as u32;
    ((SUBBUCKETS + sub) << width_bits) + ((1u64 << width_bits) - 1)
}

struct Core {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// Cheaply clonable, lock-free handle to a histogram. Clones share the same
/// buckets (like [`crate::Counter`]); the default handle is detached and
/// records into thin air.
#[derive(Clone)]
pub struct Histogram(Arc<Core>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(Core { buckets, sum: AtomicU64::new(0) }))
    }

    /// A histogram attached to no registry; observations go nowhere visible.
    pub fn detached() -> Histogram {
        Histogram::new()
    }

    /// Record one value (lock-free; two relaxed atomic adds).
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds — the workspace-wide convention for
    /// time-valued histograms.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Merge a snapshot into this live histogram (the registry absorb
    /// path). Snapshot bounds come from the same bucketing function, so
    /// each maps straight back onto its bucket; the sum stays exact.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        for &(upper, n) in &snap.buckets {
            self.0.buckets[bucket_index(upper)].fetch_add(n, Ordering::Relaxed);
        }
        self.0.sum.fetch_add(snap.sum, Ordering::Relaxed);
    }

    /// A point-in-time copy, mergeable with other snapshots. Count and sum
    /// are exact once writers quiesce; under concurrent writes the snapshot
    /// is consistent-enough (each bucket read once, relaxed).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                count += n;
                buckets.push((bucket_upper(i), n));
            }
        }
        HistogramSnapshot { buckets, count, sum: self.0.sum.load(Ordering::Relaxed) }
    }
}

/// Sparse snapshot of a histogram: only the non-empty buckets, as
/// `(upper_bound, count)` pairs in ascending bound order, plus the exact
/// total count and sum.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// `(inclusive upper bound, per-bucket count)`, ascending, no zeros.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The value at percentile `p` (0–100): the upper bound of the bucket
    /// holding the rank-`p` sample, using the same nearest-rank convention
    /// as a sorted-vector percentile (`round(p/100 * (n-1))`). Zero when
    /// empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen > rank {
                return upper;
            }
        }
        self.buckets.last().map(|&(upper, _)| upper).unwrap_or(0)
    }

    /// [`HistogramSnapshot::percentile`] as a `Duration`, under the
    /// values-are-nanoseconds convention.
    pub fn percentile_duration(&self, p: f64) -> Duration {
        Duration::from_nanos(self.percentile(p))
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merge another snapshot in: per-bound counts add, count/sum add.
    /// Bounds from the shared bucketing function always align; foreign
    /// bounds (e.g. parsed from an older report) are kept as-is.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ub, na)), Some(&&(vb, nb))) => {
                    if ub == vb {
                        merged.push((ub, na + nb));
                        a.next();
                        b.next();
                    } else if ub < vb {
                        merged.push((ub, na));
                        a.next();
                    } else {
                        merged.push((vb, nb));
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(a.by_ref().copied());
                    break;
                }
                (None, Some(_)) => {
                    merged.extend(b.by_ref().copied());
                    break;
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_contiguous_and_cover_u64() {
        // Every bucket's upper bound maps back to that bucket, and bucket
        // i+1 starts exactly one past bucket i's end.
        for i in 0..NUM_BUCKETS {
            let hi = bucket_upper(i);
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            if hi < u64::MAX {
                assert_eq!(
                    bucket_index(hi + 1),
                    i + 1,
                    "bucket {i} must end where {} begins",
                    i + 1
                );
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for v in [17u64, 100, 999, 123_456, u32::MAX as u64, 1 << 50] {
            let i = bucket_index(v);
            let hi = bucket_upper(i);
            assert!(hi >= v);
            // Bucket width ≤ v / SUBBUCKETS (6.25% relative error).
            assert!(hi - v <= v / SUBBUCKETS + 1, "v={v} hi={hi}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 16);
        assert_eq!(s.sum, (0..16).sum::<u64>());
        assert_eq!(s.percentile(0.0), 0);
        assert_eq!(s.percentile(100.0), 15);
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        // p50 of 1..=1000 is ~500; bucketed answer must be within one
        // bucket (≤ 6.25%) of it.
        let p50 = s.percentile(50.0);
        assert!((470..=540).contains(&p50), "{p50}");
        let p99 = s.percentile(99.0);
        assert!((980..=1055).contains(&p99), "{p99}");
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [3u64, 100, 100, 5000] {
            a.observe(v);
        }
        for v in [3u64, 7, 1 << 40] {
            b.observe(v);
        }
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 3 + 100 + 100 + 5000 + 3 + 7 + (1u64 << 40));
        let direct = {
            let h = Histogram::new();
            for v in [3u64, 100, 100, 5000, 3, 7, 1 << 40] {
                h.observe(v);
            }
            h.snapshot()
        };
        assert_eq!(s, direct);
    }

    #[test]
    fn clones_share_buckets() {
        let h = Histogram::new();
        let h2 = h.clone();
        h.observe(10);
        h2.observe(20);
        assert_eq!(h.snapshot().count, 2);
    }
}
