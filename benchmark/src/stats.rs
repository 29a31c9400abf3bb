//! Order statistics for timing samples.

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest sample: what `wall_s` reports (see `run::untraced` for why).
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `p`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule: the
/// smallest sample with at least `p` of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based rank of the `p`-quantile among `count` sorted samples.
fn nearest_rank(count: usize, p: f64) -> usize {
    // The epsilon keeps 0.9 * 100 from rounding up to rank 91.
    let rank = (p * count as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, count)
}

/// A percentile is reported only when at least ten samples lie beyond it
/// (the repo's metric guide): with fewer, the figure is a property of a
/// handful of outliers, not of the distribution.
pub fn percentile_is_supported(count: usize, p: f64) -> bool {
    count > 0 && count - nearest_rank(count, p) >= 10
}

/// [`percentile`] when [`percentile_is_supported`], else `None`.
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    percentile_is_supported(samples.len(), p).then(|| percentile(samples, p))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("a timing sample is never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 99 samples leaves 9.9 beyond; of 100, exactly ten.
        assert!(!percentile_is_supported(99, 0.90));
        assert!(percentile_is_supported(100, 0.90));
        assert!(!percentile_is_supported(999, 0.99));
        assert!(percentile_is_supported(1000, 0.99));
        // Eleven wall-time samples support no tail percentile at all.
        assert_eq!(supported_percentile(&[1.0; 11], 0.90), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 0.99), Some(990.0));
    }
}
