//! Order statistics over host-clock samples.
//!
//! Quantiles use the same rule as Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method: position
//! `q * (n + 1)` on the sorted sample, linear interpolation between the
//! two neighbours, the neighbour index clamped to the sample — so a
//! two-point sample extrapolates, as Python's does), because that is the
//! rule the PR driver applies to
//! the numbers this benchmark prints — a spread computed here is the
//! spread the driver will see.

/// The `q`-quantile (`0 < q < 1`) of `sorted`, which must be ascending
/// and non-empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = pos - j as f64;
    sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
}

/// Quartiles, spread and size of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Lower quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Upper quartile.
    pub p75: f64,
}

impl Summary {
    /// Summarises `values`; `None` when the sample is empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            p25: quantile_sorted(&v, 0.25),
            p50: quantile_sorted(&v, 0.50),
            p75: quantile_sorted(&v, 0.75),
        })
    }

    /// Inter-quartile range.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }

    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0) — the spread figure every noise decision here is made on.
    pub fn iqr_share(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            self.iqr() / self.p50.abs()
        }
    }
}

/// Median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.p25, s.p50, s.p75), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.p25, s.p50, s.p75), (1.0, 2.0, 3.0));
    }

    #[test]
    fn small_and_degenerate_samples() {
        assert!(Summary::of(&[]).is_none());
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.p25, one.p50, one.p75, one.iqr()), (7.0, 7.0, 7.0, 0.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let two = Summary::of(&[10.0, 20.0]).unwrap();
        assert_eq!((two.p25, two.p50, two.p75), (7.5, 15.0, 22.5));
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().iqr_share(), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }
}
