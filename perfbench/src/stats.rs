//! Order statistics over latency samples.

/// Nearest-rank percentile (the smallest sample with cumulative share
/// at least `p` percent) of an ascending sample; `0` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(p, sorted.len())]
}

/// Index of the nearest-rank `p` percentile among `n > 0` samples. The
/// small tolerance keeps `p * n` from rounding up past a whole rank
/// (0.999 * 10000 is 9990.000000000002 in floating point).
fn rank(p: f64, n: usize) -> usize {
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// How many samples of an ascending sample lie strictly above the
/// nearest-rank percentile `p` — the tail that backs it.
pub fn samples_beyond(sorted: &[u64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|&v| v <= cut)
}

/// Median of floating-point values (mean of the middle pair when the
/// count is even); `0` when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&s, 50.0), 30);
        assert_eq!(percentile(&s, 99.9), 50);
        assert_eq!(percentile(&s, 20.0), 10);
        assert_eq!(percentile(&s, 21.0), 20);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.9), 7);
    }

    #[test]
    fn p999_of_ten_thousand_leaves_ten_beyond() {
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&s, 99.9), 9_990);
        assert_eq!(samples_beyond(&s, 99.9), 10);
        let short: Vec<u64> = (1..=5_000).collect();
        assert_eq!(samples_beyond(&short, 99.9), 5);
    }

    #[test]
    fn samples_beyond_skips_ties_with_the_cut() {
        let s = [1, 2, 2, 2, 3];
        assert_eq!(percentile(&s, 50.0), 2);
        assert_eq!(samples_beyond(&s, 50.0), 1);
    }

    #[test]
    fn float_median() {
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_f64(&[2.0]), 2.0);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
