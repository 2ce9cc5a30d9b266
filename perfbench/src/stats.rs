//! Exact order statistics over raw samples.
//!
//! The workspace's `Histogram` buckets by powers of two, so its quantiles
//! snap to bucket edges (a p50 of 8.39 ms is the 2^23 ns edge). Every
//! timing this benchmark reports is computed here instead, from the full
//! list of samples.

/// The fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median, tail and count of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Number of samples.
    pub count: usize,
    /// The median (nearest rank).
    pub p50: f64,
    /// The tail percentile actually reported: 99 when at least
    /// `100 * TAIL_SAMPLES` samples exist, otherwise the highest whole
    /// percentile that still leaves `TAIL_SAMPLES` samples beyond it.
    pub tail_pct: u32,
    /// The value at `tail_pct` (nearest rank).
    pub tail: f64,
}

/// The value at fraction `q` of sorted `xs`, by nearest rank.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Exact quantiles of `samples`; `None` when there are none.
pub fn quantiles(samples: &[f64]) -> Option<Quantiles> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Highest whole percentile p with n * (100 - p) / 100 >= TAIL_SAMPLES.
    let tail_pct = (100 - (100 * TAIL_SAMPLES).div_ceil(n).min(50)) as u32;
    let tail_pct = tail_pct.min(99);
    Some(Quantiles {
        count: n,
        p50: nearest_rank(&sorted, 0.5),
        tail_pct,
        tail: nearest_rank(&sorted, f64::from(tail_pct) / 100.0),
    })
}

/// Samples per window of [`windowed_tail`]: enough for p99 with
/// [`TAIL_SAMPLES`] samples beyond it.
pub const WINDOW: usize = 100 * TAIL_SAMPLES;

/// The tail of time-ordered `samples`, robust to one burst of stalls:
/// split them into as many consecutive windows of at least [`WINDOW`]
/// samples as fit (at least one), take each window's tail, and report the
/// median. Returns `(tail, tail_pct, windows)`.
pub fn windowed_tail(samples: &[f64]) -> Option<(f64, u32, usize)> {
    let n = samples.len();
    let w = (n / WINDOW).max(1);
    let tails: Vec<Quantiles> = (0..w)
        .filter_map(|i| quantiles(&samples[i * n / w..(i + 1) * n / w]))
        .collect();
    let values: Vec<f64> = tails.iter().map(|q| q.tail).collect();
    Some((median(&values), tails.first()?.tail_pct, w))
}

/// p50 and tail of `samples`, or zeros when there are none.
pub fn p50_tail(samples: &[f64]) -> (f64, f64) {
    quantiles(samples).map_or((0.0, 0.0), |q| (q.p50, q.tail))
}

/// The median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    quantiles(samples).map_or(0.0, |q| q.p50)
}

/// Arithmetic mean (0 for an empty set).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_only_with_enough_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let q = quantiles(&xs).unwrap();
        assert_eq!(
            (q.count, q.p50, q.tail_pct, q.tail),
            (1000, 500.0, 99, 990.0)
        );
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        let q = quantiles(&xs).unwrap();
        assert_eq!((q.tail_pct, q.tail), (98, 490.0));
        let xs: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quantiles(&xs).unwrap().tail_pct, 50);
        assert!(quantiles(&[]).is_none());
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        // Three windows of 1000; the middle one holds 50 stalls.
        let mut xs = vec![1.0; 3000];
        for x in &mut xs[1000..1050] {
            *x = 100.0;
        }
        assert_eq!(windowed_tail(&xs), Some((1.0, 99, 3)));
        assert_eq!(quantiles(&xs).unwrap().tail, 100.0);
        let xs: Vec<f64> = (1..=1999).map(f64::from).collect();
        assert_eq!(windowed_tail(&xs), Some((1980.0, 99, 1)));
        assert!(windowed_tail(&[]).is_none());
    }
}
