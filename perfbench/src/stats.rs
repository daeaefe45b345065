//! Order statistics used by every report: medians, nearest-rank
//! percentiles, and the tail-percentile rule.

/// Samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentile reported as `latency_tail_ms`. Higher rungs have the
/// samples (p99 keeps hundreds beyond it per slice), but on a shared
/// two-vCPU host they are set by how many multi-millisecond CPU stalls a
/// run happens to contain: p99 spread 0.15–0.5 (quartile distance over
/// median, ten seeds) where p90 stayed at 0.03–0.10.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Equal slices of the measured window. Every timing is computed per
/// slice and reported as the median over slices, so one stalled second
/// on a shared host moves a slice, not the result.
pub const SLICES: usize = 10;

/// Median of `xs` (mean of the two middle values for even lengths).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// 1-based nearest rank of percentile `p` (in `0..=100`) among `n` samples.
/// The product is nudged down before rounding up so that `p * n / 100`
/// landing a hair above an integer (99.9% of 10 000) keeps its exact rank.
pub fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank position of `p` among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether percentile `p` of `n` samples leaves at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Indices of samples by slice: sample `i` completed `done_s[i]` seconds
/// into the window and falls in slice `done_s[i] / slice_s` (clamped to
/// the last of `n`).
pub fn slices(done_s: &[f64], slice_s: f64, n: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); n];
    for (i, &t) in done_s.iter().enumerate() {
        out[((t / slice_s) as usize).min(n - 1)].push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten samples beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(tail_supported(1000, 99.0));
        // One sample fewer leaves only nine beyond (rank 990 of 999).
        assert!(!tail_supported(999, 99.0));
        // p99.9 needs ten thousand.
        assert!(tail_supported(10_000, 99.9));
        assert!(!tail_supported(9_999, 99.9));
        assert!(!tail_supported(0, 50.0));
    }

    #[test]
    fn samples_fall_into_their_slice() {
        let done = [0.1, 1.9, 2.0, 9.99, 10.0, 3.5];
        assert_eq!(
            slices(&done, 2.0, 5),
            vec![vec![0, 1], vec![2, 5], vec![], vec![], vec![3, 4]]
        );
    }
}
