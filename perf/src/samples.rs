//! Order statistics over one metric's samples.

/// A set of measurements of one quantity (latencies, run medians, …).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.values
    }

    /// The middle value, or the mean of the two middle values; 0 when
    /// empty.
    pub fn median(&mut self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The nearest-rank percentile: the smallest sample with at least
    /// `p` percent of the samples at or below it; 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        let rank = self.rank(p);
        match rank {
            0 => 0.0,
            r => self.sorted()[r - 1],
        }
    }

    /// 1-based nearest rank of percentile `p` (0 when empty).
    fn rank(&self, p: f64) -> usize {
        let n = self.values.len();
        if n == 0 {
            return 0;
        }
        ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Samples strictly beyond the nearest-rank percentile `p`: the
    /// evidence a reported percentile rests on.
    pub fn beyond(&self, p: f64) -> usize {
        self.values.len() - self.rank(p)
    }

    /// Whether at least ten samples lie beyond percentile `p`, the
    /// minimum for reporting it.
    pub fn supports(&self, p: f64) -> bool {
        self.beyond(p) >= 10
    }

    /// First and third quartile by the exclusive method (Python's
    /// `statistics.quantiles(values, n=4)`); `None` below 2 samples.
    pub fn quartiles(&mut self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let len = v.len();
        if len < 2 {
            return None;
        }
        let m = len + 1;
        let at = |i: usize| {
            let j = (i * m / 4).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some((at(1), at(3)))
    }

    /// The interquartile range as a share of the median: the
    /// run-to-run spread a bound is judged against. `None` below 2
    /// samples or at a zero median.
    pub fn relative_spread(&mut self) -> Option<f64> {
        let (q1, q3) = self.quartiles()?;
        let median = self.median();
        (median != 0.0).then(|| (q3 - q1) / median.abs())
    }

    /// Every sample, in insertion order until a statistic sorts them.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples {
            values: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        values.iter().copied().collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(of(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(of(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn nearest_rank_p90() {
        let mut s: Samples = (1..=100).map(f64::from).collect();
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.beyond(90.0), 10);
        assert!(s.supports(90.0));
        let mut small: Samples = (1..=10).map(f64::from).collect();
        assert_eq!(small.percentile(90.0), 9.0);
        assert_eq!(small.beyond(90.0), 1);
        assert!(!small.supports(90.0));
        // 101 samples: rank ceil(90.9) = 91, so 10 lie beyond it.
        let mut odd: Samples = (1..=101).map(f64::from).collect();
        assert_eq!(odd.percentile(90.0), 91.0);
        assert_eq!(odd.beyond(90.0), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let mut s: Samples = (1..=10).map(f64::from).collect();
        assert_eq!(s.quartiles(), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(of(&[3.0, 1.0, 2.0]).quartiles(), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(of(&[20.0, 10.0]).quartiles(), Some((7.5, 22.5)));
        assert_eq!(of(&[1.0]).quartiles(), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let mut s: Samples = (1..=10).map(f64::from).collect();
        let spread = s.relative_spread().unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(of(&[0.0, 0.0]).relative_spread(), None);
    }

    #[test]
    fn statistics_survive_later_pushes() {
        let mut s = of(&[5.0, 1.0]);
        assert_eq!(s.median(), 3.0);
        s.push(0.5);
        assert_eq!(s.median(), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
    }
}
