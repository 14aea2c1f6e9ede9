//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Smallest sample; `NaN` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has at
/// least ten samples above it, with its value (nearest-rank). `None` when
/// fewer than twenty samples exist, so not even the median qualifies.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
        })
}

/// A timing series summarized the way the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSummary {
    /// Number of samples.
    pub count: usize,
    /// Fastest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Highest percentile with at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl TimingSummary {
    /// Summarize `xs`.
    pub fn of(xs: &[f64]) -> Self {
        TimingSummary {
            count: xs.len(),
            min: min(xs),
            median: median(xs),
            tail: tail_percentile(xs),
        }
    }

    /// One human-readable line.
    pub fn render(&self, name: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.6e}"),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        format!(
            "{name}: min {:.6e} median {:.6e} {tail} (n={})",
            self.min, self.median, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_min() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min(&[4.0, 1.0, 2.0]), 1.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
    }
}
