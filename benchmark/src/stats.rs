//! Order statistics for the reported timings.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at rank `ceil(p × n / 100)`. A tail
//! percentile is only reported when at least [`TAIL_BEYOND`] samples lie
//! beyond it, so a single slow outlier cannot be the reported tail.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Highest tail percentile the benchmark reports.
pub const TAIL_CAP: u32 = 90;

/// Nearest rank (1-based) of the `p`-th percentile among `n` samples.
pub fn rank(p: u32, n: usize) -> usize {
    let r = (u64::from(p) * n as u64).div_ceil(100) as usize;
    r.clamp(1, n.max(1))
}

/// The `p`-th nearest-rank percentile of `xs` (need not be sorted).
/// Returns `None` for an empty slice.
pub fn percentile(xs: &[f64], p: u32) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(p, v.len()) - 1])
}

/// Median (nearest-rank p50) of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50).unwrap_or(0.0)
}

/// The highest whole percentile, capped at [`TAIL_CAP`], that has at
/// least [`TAIL_BEYOND`] of `n` samples beyond it, or `None` when `n` is
/// too small for any percentile above the median to qualify.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=TAIL_CAP)
        .rev()
        .find(|&p| n >= rank(p, n) + TAIL_BEYOND && n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(5.0));
        assert_eq!(percentile(&xs, 90), Some(9.0));
        assert_eq!(percentile(&xs, 100), Some(10.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 is rank 90, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(100), Some(90));
        // 99 samples: rank(90) = 90 leaves 9, rank(89) = 89 leaves 10.
        assert_eq!(tail_percentile(99), Some(89));
        // 40 samples: rank(75) = 30 leaves 10; rank(76) = 31 leaves 9.
        assert_eq!(tail_percentile(40), Some(75));
        // 1000 samples would allow p99, but the report caps at p90.
        assert_eq!(tail_percentile(1000), Some(90));
        // Too few samples: even the median leaves fewer than ten beyond.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in [20, 40, 57, 100, 123] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(n - rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            if p < TAIL_CAP {
                assert!(
                    n - rank(p + 1, n) < TAIL_BEYOND,
                    "p{p} is not the highest for n={n}"
                );
            }
        }
    }
}
