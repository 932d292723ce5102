//! Exact order statistics over raw samples (never histogram buckets).

/// A bag of raw observations.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

/// The fewest observations that must lie beyond a tail percentile for
/// it to be reported.
pub const MIN_BEYOND: usize = 10;

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Every value multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Samples {
        Samples { values: self.values.iter().map(|v| v * factor).collect(), sorted: self.sorted }
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank index of quantile `q` in the sorted values.
    fn rank(&self, q: f64) -> usize {
        let n = self.values.len();
        ((q * n as f64).ceil() as usize).clamp(1, n) - 1
    }

    /// The median (the mean of the two middle values for an even
    /// count). Reported at any sample count; the caller prints the
    /// count beside it.
    pub fn median(&mut self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        self.sort();
        let n = self.values.len();
        Some(if n % 2 == 1 {
            self.values[n / 2]
        } else {
            (self.values[n / 2 - 1] + self.values[n / 2]) / 2.0
        })
    }

    /// The tail quantile `q` (nearest rank), or `None` when fewer than
    /// [`MIN_BEYOND`] observations lie beyond it.
    pub fn tail(&mut self, q: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        self.sort();
        let rank = self.rank(q);
        (self.values.len() - 1 - rank >= MIN_BEYOND).then(|| self.values[rank])
    }
}

/// The median of a slice of plain values (used for per-run medians of
/// repeated set-ups).
pub fn median_of(values: &[f64]) -> Option<f64> {
    let mut s = Samples::new();
    values.iter().for_each(|&v| s.push(v));
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        values.into_iter().for_each(|v| s.push(v));
        s
    }

    #[test]
    fn median_is_exact_for_odd_and_even_counts() {
        assert_eq!(of([3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(of([4.0, 1.0, 3.0, 2.0]).median(), Some(2.5));
        assert_eq!(of([]).median(), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond it.
        let mut s = of((1..=1000).map(f64::from));
        assert_eq!(s.tail(0.99), Some(990.0));
        // 999 samples: only 9 beyond, so p99 is withheld.
        let mut s = of((1..=999).map(f64::from));
        assert_eq!(s.tail(0.99), None);
        assert_eq!(s.tail(0.9), Some(900.0));
    }

    #[test]
    fn distinct_values_are_not_bucketed() {
        // Two values a log2 histogram would merge stay apart.
        let mut s = of((0..50).map(|_| 1000.0).chain((0..50).map(|_| 1040.0)));
        assert_eq!(s.median(), Some(1020.0));
        assert_eq!(s.tail(0.8), Some(1040.0));
    }
}
