//! Sample summaries: the median, and the highest percentile that still has
//! ten samples beyond it.

use serde::{Deserialize, Serialize};

/// Percentiles a summary may report, highest first, each with the `d`
/// such that one sample in `d` lies beyond it.
const LADDER: [(f64, usize); 5] = [(99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10), (75.0, 4)];

/// Samples that must lie beyond a percentile before it is reported.
const BEYOND: usize = 10;

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (must be non-empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Percentile `p` in `[0, 100]` of `samples` (must be non-empty).
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(samples), p / 100.0)
}

/// The highest percentile of the ladder that `n` samples can support: ten
/// of them must lie beyond it, so 21 samples support none (ten lie beyond
/// the median itself), 40 support p75 and 1000 support p99.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|(_, one_in)| n / one_in >= BEYOND)
        .map(|(p, _)| p)
}

/// What is kept of one metric's samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
    /// `(percentile, value)` of the highest supported percentile, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples` (must be non-empty).
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples);
        Self {
            median: quantile_sorted(&s, 0.5),
            min: s[0],
            max: s[s.len() - 1],
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            n: s.len(),
            tail: tail_percentile(s.len()).map(|p| (p, quantile_sorted(&s, p / 100.0))),
        }
    }

    /// Distance between the quartiles as a share of the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(20), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_order_statistics() {
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!((s.median, s.min, s.max, s.n), (51.0, 1.0, 101.0, 101));
        assert_eq!((s.q1, s.q3), (26.0, 76.0));
        assert_eq!(s.tail, Some((90.0, 91.0)));
        assert!((s.spread() - 50.0 / 51.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[5.0, 5.0]).tail, None);
    }
}
