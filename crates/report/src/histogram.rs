//! Discrete histograms with ASCII rendering (the shape of Figure 5).

use std::collections::BTreeMap;
use std::fmt;

/// A histogram over discrete `u64` outcomes (e.g. `dmm(10)` values of
/// 1000 random priority assignments, as in the paper's Figure 5).
///
/// # Examples
///
/// ```
/// use twca_report::Histogram;
///
/// let h: Histogram = [0u64, 0, 3, 3, 3, 10].into_iter().collect();
/// assert_eq!(h.total(), 6);
/// assert_eq!(h.count(3), 3);
/// assert_eq!(h.mode(), Some(3));
/// let art = h.to_ascii(20);
/// assert!(art.contains('#'));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    bins: BTreeMap<u64, usize>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        *self.bins.entry(value).or_insert(0) += 1;
    }

    /// Number of observations of `value`.
    pub fn count(&self, value: u64) -> usize {
        self.bins.get(&value).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> usize {
        self.bins.values().sum()
    }

    /// The most frequent value (smallest wins ties), `None` when empty.
    pub fn mode(&self) -> Option<u64> {
        self.bins
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&v, _)| v)
    }

    /// The observed `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.bins.iter().map(|(&v, &c)| (v, c))
    }

    /// Fraction of observations at or below `value` (0.0 when empty).
    pub fn cumulative_fraction(&self, value: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let at_or_below: usize = self.bins.range(..=value).map(|(_, &c)| c).sum();
        at_or_below as f64 / total as f64
    }

    /// Renders bars of at most `width` characters, one line per value.
    pub fn to_ascii(&self, width: usize) -> String {
        let max = self.bins.values().copied().max().unwrap_or(0);
        let mut out = String::new();
        for (value, count) in self.iter() {
            let bar = if max == 0 {
                0
            } else {
                (count * width).div_ceil(max)
            };
            out.push_str(&format!("{value:>4}: {count:>5} {}\n", "#".repeat(bar)));
        }
        out
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii(60))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(3);
        h.record(0);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(99), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.mode(), Some(3));
    }

    #[test]
    fn empty_histogram_is_harmless() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.mode(), None);
        assert_eq!(h.cumulative_fraction(10), 0.0);
        assert_eq!(h.to_ascii(10), "");
    }

    #[test]
    fn cumulative_fraction_is_monotone() {
        let h: Histogram = [0u64, 0, 3, 3, 3, 10].into_iter().collect();
        assert!((h.cumulative_fraction(0) - 2.0 / 6.0).abs() < 1e-12);
        assert!((h.cumulative_fraction(3) - 5.0 / 6.0).abs() < 1e-12);
        assert!((h.cumulative_fraction(10) - 1.0).abs() < 1e-12);
        assert!(h.cumulative_fraction(2) <= h.cumulative_fraction(3));
    }

    #[test]
    fn ascii_bars_scale_to_width() {
        let h: Histogram = [1u64, 1, 1, 1, 2].into_iter().collect();
        let art = h.to_ascii(8);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with(&"#".repeat(8))); // the mode fills the width
        assert!(lines[1].matches('#').count() <= 8);
        assert!(lines[1].matches('#').count() >= 1);
    }

    #[test]
    fn mode_prefers_smaller_value_on_ties() {
        let h: Histogram = [4u64, 9].into_iter().collect();
        assert_eq!(h.mode(), Some(4));
    }

    #[test]
    fn extend_accumulates() {
        let mut h: Histogram = [1u64].into_iter().collect();
        h.extend([1u64, 2]);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 1);
    }
}
