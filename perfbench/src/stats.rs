//! Order statistics over timing samples.

/// The `p`-quantile (`0 <= p <= 1`) of `samples`, interpolating
/// linearly between the two nearest ranks (the common "type 7"
/// definition). Interpolation matters where samples cluster: the
/// per-model latencies of an eight-model sweep put the median exactly
/// between two models, where a nearest-rank median would report one
/// model's slowest sample. `0.0` for an empty set.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    // Equal neighbours (also two failures counted as infinite latency)
    // need no interpolation.
    if lo == hi || sorted[lo] == sorted[hi] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median: the mean of the two middle samples for an even count.
/// `0.0` for an empty set.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean, `0.0` for an empty set.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_median() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert!((percentile(&xs, 0.95) - 4.8).abs() < 1e-9);
        assert_eq!(
            percentile(&[1.0, f64::INFINITY, f64::INFINITY], 0.95),
            f64::INFINITY
        );
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
