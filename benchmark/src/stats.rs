//! Order statistics for timing samples.

/// Median, quartiles and sample count of one timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartile distance as a share of the median (the spread the
    /// acceptance check compares against a metric's bound).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// The `i`-th of `n` cut points of `sorted`, by the rule of Python's
/// `statistics.quantiles(values, n)` (method "exclusive"), so numbers
/// printed here can be checked against the acceptance script.
fn cut(sorted: &[f64], i: usize, n: usize) -> f64 {
    let m = sorted.len();
    if m == 1 {
        return sorted[0];
    }
    let j = (i * (m + 1) / n).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

/// Summarise samples; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Summary {
        n: s.len(),
        q1: cut(&s, 1, 4),
        median: cut(&s, 2, 4),
        q3: cut(&s, 3, 4),
    })
}

/// Median of the samples (0 when empty, which callers treat as "no data").
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[20.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn single_sample_and_empty() {
        let s = summarize(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (4.0, 4.0, 4.0, 0.0));
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.spread(), 1.0);
    }
}
