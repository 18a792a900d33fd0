//! Order statistics for timing samples.
//!
//! One estimator everywhere: linear interpolation between the two
//! closest ranks of the sorted sample (`h = (n − 1)·p`), so the median
//! of an even-sized sample is the mean of its middle pair and `p = 0` /
//! `p = 1` are the minimum / maximum.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `samples`; `NaN` for an empty
/// slice. Does not require the input to be sorted.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median of nanosecond samples, in nanoseconds.
pub fn median_ns(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&s| s as f64).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.25), 20.0);
        assert!((quantile(&v, 0.1) - 14.0).abs() < 1e-12);
        assert!((quantile(&v, 0.9) - 46.0).abs() < 1e-12);
        // Out-of-range p clamps instead of indexing out of bounds.
        assert_eq!(quantile(&v, 1.5), 50.0);
        assert_eq!(quantile(&v, -0.5), 10.0);
    }

    #[test]
    fn quantile_ignores_input_order() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let shuffled = [4.0, 6.0, 1.0, 3.0, 5.0, 2.0];
        for p in [0.1, 0.5, 0.9] {
            assert_eq!(quantile(&sorted, p), quantile(&shuffled, p));
        }
    }

    #[test]
    fn median_ns_converts() {
        assert_eq!(median_ns(&[100, 300, 200]), 200.0);
    }
}
