//! Summary statistics for latency samples: the mean, nearest-rank
//! percentiles and the tail percentile.

/// The arithmetic mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The nearest-rank `p`-th percentile of an ascending slice (NaN when
/// empty): the smallest sample with at least `p` % of samples at or
/// below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match rank(sorted.len(), p) {
        Some(k) => sorted[k],
        None => f64::NAN,
    }
}

/// Zero-based index of the nearest-rank `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let k = (p / 100.0 * n as f64).ceil() as usize;
    Some(k.clamp(1, n) - 1)
}

/// A tail latency with the percentile that gave it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest whole percentile, from p99 down to the median, that
/// leaves at least ten samples beyond it (the median when even that
/// leaves fewer). `None` when `sorted` is empty.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    let beyond = |p: f64| rank(n, p).map(|k| n - 1 - k);
    let percentile = (50..=99)
        .rev()
        .map(f64::from)
        .find(|&p| beyond(p).is_some_and(|b| b >= 10))
        .unwrap_or(50.0);
    Some(Tail {
        percentile,
        value: self::percentile(sorted, percentile),
        beyond: beyond(percentile)?,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for n in 1..3000usize {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&sorted).unwrap();
            assert_eq!(t.samples, n);
            let strictly_above = sorted.iter().filter(|&&v| v > t.value).count();
            assert_eq!(strictly_above, t.beyond, "n = {n}");
            if n >= 20 {
                assert!(
                    t.beyond >= 10,
                    "n = {n}: p{} leaves {}",
                    t.percentile,
                    t.beyond
                );
            }
            // No higher whole percentile would also have kept ten beyond it.
            for p in (t.percentile as u32 + 1)..=99 {
                let k = rank(n, f64::from(p)).unwrap();
                assert!(n - 1 - k < 10, "n = {n}: p{p} also qualifies");
            }
        }
        assert_eq!(
            tail(&(0..1000).map(f64::from).collect::<Vec<_>>())
                .unwrap()
                .percentile,
            99.0
        );
        assert_eq!(
            tail(&(0..200).map(f64::from).collect::<Vec<_>>())
                .unwrap()
                .percentile,
            95.0
        );
        assert_eq!(
            tail(&(0..40).map(f64::from).collect::<Vec<_>>())
                .unwrap()
                .percentile,
            75.0
        );
        assert_eq!(
            tail(&(0..90).map(f64::from).collect::<Vec<_>>())
                .unwrap()
                .percentile,
            88.0
        );
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(mean(&[]).is_nan());
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
    }
}
