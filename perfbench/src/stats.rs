//! The harness's own arithmetic: medians, nearest-rank percentiles with
//! the "at least ten samples beyond" rule, and failure shares.

/// Percentiles the tail report may use, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value
/// at 1-based rank `ceil(p/100 * n)`, together with the number of
/// samples ranked after it.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let n = sorted.len();
    // The epsilon keeps a product such as 99.9 * 10_000 / 100, which
    // binary floating point may land a hair above 9990, on its rank.
    let rank = ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The highest percentile of [`TAIL_CANDIDATES`] with at least
/// [`MIN_BEYOND`] samples beyond it: `(percentile, value, beyond)`.
/// `None` when even the median has fewer than that many beyond it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let (v, beyond) = percentile(sorted, p);
        (beyond >= MIN_BEYOND).then_some((p, v, beyond))
    })
}

/// Median (mean of the middle pair for an even count). 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Ascending sort of finite samples.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    assert!(failed <= attempted, "more failures than attempts");
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentile() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), (50.0, 50));
        assert_eq!(percentile(&s, 95.0), (95.0, 5));
        assert_eq!(percentile(&s, 99.9), (100.0, 0));
        assert_eq!(percentile(&s, 0.0), (1.0, 99));
        assert_eq!(percentile(&[7.0], 50.0), (7.0, 0));
        // ceil(0.95 * 21) = 20: the 20th of 21 samples, one beyond.
        assert_eq!(percentile(&ramp(21), 95.0), (20.0, 1));
    }

    #[test]
    fn tail_needs_ten_beyond() {
        // 200 samples: p95 leaves exactly 10 beyond, p99 only 2.
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0, 10)));
        // 199 samples: p95 leaves 9, so p90 is the highest reportable.
        assert_eq!(tail(&ramp(199)), Some((90.0, 180.0, 19)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0, 10)));
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0, 10)));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_share_counts() {
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(0, 17), 0.0);
        assert_eq!(failed_share(1, 4), 0.25);
        assert_eq!(failed_share(3, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "more failures than attempts")]
    fn failed_share_rejects_impossible_counts() {
        failed_share(2, 1);
    }
}
