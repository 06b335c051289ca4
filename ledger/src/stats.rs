//! Order statistics over latency samples.

use std::time::Duration;

/// Median (mean of the middle two for an even count); zero when empty.
pub fn median(samples: &[Duration]) -> Duration {
    let mut v = samples.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => Duration::ZERO,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2,
    }
}

/// Nearest-rank percentile `p` (0–100), the convention the daemon's
/// histograms use: rank `round(p/100 * (n-1))`; zero when empty.
pub fn percentile(samples: &[Duration], p: f64) -> Duration {
    let mut v = samples.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return Duration::ZERO;
    }
    v[((p / 100.0) * (v.len() - 1) as f64).round() as usize]
}

/// Geometric mean of positive values; zero when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&ms(&[5, 1, 3])), Duration::from_millis(3));
        assert_eq!(median(&ms(&[4, 1, 3, 2])), Duration::from_micros(2500));
        assert_eq!(median(&[]), Duration::ZERO);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ms(&(1..=100).collect::<Vec<_>>());
        assert_eq!(percentile(&v, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&v, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&v, 100.0), Duration::from_millis(100));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
