//! Order statistics over per-request samples.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`:
/// the smallest sample with at least `p` percent of all samples at or
/// below it. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The nearest-rank median; 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_samples() {
        // The textbook example: ranks ceil(p/100 * n) of 15 20 35 40 50.
        let samples = [35.0, 20.0, 50.0, 15.0, 40.0];
        assert_eq!(percentile(&samples, 5.0), Some(15.0));
        assert_eq!(percentile(&samples, 30.0), Some(20.0));
        assert_eq!(percentile(&samples, 40.0), Some(20.0));
        assert_eq!(percentile(&samples, 50.0), Some(35.0));
        assert_eq!(percentile(&samples, 90.0), Some(50.0));
        assert_eq!(percentile(&samples, 100.0), Some(50.0));
    }

    #[test]
    fn even_counts_take_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 90.0), Some(2.0));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn empty_samples_have_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
    }
}
