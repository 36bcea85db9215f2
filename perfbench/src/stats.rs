//! Order statistics with the benchmark's percentile-support rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it: p50 needs 20 samples, p90 needs 100, p99 needs 1000.
//! Percentiles are nearest-rank and are given in per-mille, so the rule is
//! exact integer arithmetic (`0.9 * 100` in floating point is not 90).

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (per_mille as usize * n).div_ceil(1000).clamp(1, n)
}

/// True when `n` samples support the `per_mille` percentile.
pub fn supported(n: usize, per_mille: u32) -> bool {
    n > 0 && n - rank(n, per_mille) >= MIN_BEYOND
}

/// The nearest-rank `per_mille` percentile of `sorted` (ascending), or
/// `None` when the sample does not support it.
pub fn percentile(sorted: &[f64], per_mille: u32) -> Option<f64> {
    supported(sorted.len(), per_mille).then(|| nearest_rank(sorted, per_mille))
}

/// The nearest-rank `per_mille` percentile of a non-empty `sorted`
/// (ascending), whether or not the sample supports it.
pub fn nearest_rank(sorted: &[f64], per_mille: u32) -> f64 {
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// The percentile when supported, else the sample maximum: an upper bound
/// on the percentile, used only for per-layer figures. The flag says which
/// one was returned.
pub fn percentile_or_max(sorted: &[f64], per_mille: u32) -> (f64, bool) {
    match percentile(sorted, per_mille) {
        Some(v) => (v, true),
        None => (sorted.last().copied().unwrap_or(0.0), false),
    }
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for even counts; 0
/// for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.iter().copied());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn support_needs_ten_samples_beyond_the_percentile() {
        assert!(!supported(19, 500));
        assert!(supported(20, 500));
        assert!(!supported(99, 900));
        assert!(supported(100, 900));
        assert!(!supported(999, 990));
        assert!(supported(1000, 990));
        assert!(!supported(0, 500));
    }

    #[test]
    fn percentile_is_nearest_rank_and_respects_support() {
        assert_eq!(percentile(&ramp(100), 900), Some(90.0));
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        assert_eq!(percentile(&ramp(20), 500), Some(10.0));
        assert_eq!(percentile(&ramp(99), 900), None);
        assert_eq!(percentile_or_max(&ramp(99), 900), (99.0, false));
        assert_eq!(percentile_or_max(&ramp(100), 900), (90.0, true));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
