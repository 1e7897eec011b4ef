//! Order statistics over latency samples.

/// The median of `values`; reorders them. 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// The `p`-quantile (nearest rank) of ascending `sorted`; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles the benchmark reports, highest first.
const TAILS: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// The tail of ascending `sorted`: the highest percentile not above `wanted`
/// that still has at least ten samples beyond it, so a reported tail is never
/// one or two outliers. Falls back to the median when even p75 has fewer.
/// Returns the percentile chosen and its value.
pub fn tail(sorted: &[f64], wanted: f64) -> (f64, f64) {
    for p in TAILS.into_iter().filter(|p| *p <= wanted) {
        let beyond = sorted.len() - (p * sorted.len() as f64).ceil() as usize;
        if beyond >= 10 {
            return (p, percentile(sorted, p));
        }
    }
    (0.5, percentile(sorted, 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(percentile(&ramp(100), 0.99), 99.0);
        assert_eq!(percentile(&ramp(100), 1.0), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(1000), 0.99), (0.99, 990.0));
        // 999 samples: p99 leaves 9, p95 leaves 49.
        assert_eq!(tail(&ramp(999), 0.99).0, 0.95);
        // A workload that asks for p95 never reports p99.
        assert_eq!(tail(&ramp(100_000), 0.95).0, 0.95);
        // 40 samples: p75 leaves exactly 10.
        assert_eq!(tail(&ramp(40), 0.99), (0.75, 30.0));
        // Too few for any tail: the median.
        assert_eq!(tail(&ramp(20), 0.99), (0.5, 10.0));
        assert_eq!(tail(&[], 0.99), (0.5, 0.0));
    }
}
