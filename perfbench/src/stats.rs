//! Exact-sample statistics.
//!
//! Latencies are kept as every measured value, and percentiles use the
//! nearest-rank rule on the sorted samples. Nothing is bucketed, so two
//! runs whose latencies differ by 10% report percentiles 10% apart.

/// A set of exact samples (milliseconds, or any other unit).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Nearest-rank percentile `p` (0 to 100): the smallest sample with
    /// at least `p`% of all samples at or below it, so `p = 0` gives the
    /// minimum. Zero when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.values[rank.clamp(1, n) - 1]
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

/// Self-test: two sample sets 10% apart must give percentiles 10% apart
/// (a power-of-two histogram would report the same bucket edge for both).
pub fn self_test() -> Result<(), String> {
    let base: Vec<f64> = (0..1000).map(|i| 0.4 + 0.0003 * i as f64).collect();
    let mut a: Samples = base.iter().copied().collect();
    let mut b: Samples = base.iter().map(|v| v * 1.1).collect();
    for p in [50.0, 90.0, 99.0] {
        let ratio = b.percentile(p) / a.percentile(p);
        if (ratio - 1.1).abs() > 1e-9 {
            return Err(format!(
                "percentile self-test: p{} ratio {} for sets 10% apart",
                p, ratio
            ));
        }
    }
    let mut small: Samples = [3.0, 1.0, 2.0].into_iter().collect();
    if small.percentile(50.0) != 2.0 || small.percentile(90.0) != 3.0 {
        return Err("percentile self-test: nearest rank is off".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn percentiles_resolve_ten_percent() {
        super::self_test().unwrap();
    }
}
