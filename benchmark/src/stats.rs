//! Order statistics and the per-tick merge the timing metrics rest on.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile_sorted(sorted: &[f64], p: u32) -> f64 {
    debug_assert!(!sorted.is_empty() && p <= 100);
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Nearest-rank percentile of an unsorted slice (0.0 when empty).
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50)
}

/// The highest whole percentile (capped at `cap`) that still has at least
/// ten samples beyond its nearest-rank position among `n` samples — the
/// tail a sample of that size can support. Falls back to the median when
/// even that has fewer than ten samples beyond it.
pub fn tail_percentile(n: usize, cap: u32) -> u32 {
    (51..=cap)
        .rev()
        .find(|&p| n - (n * p as usize).div_ceil(100) >= 10)
        .unwrap_or(50)
}

/// Per-tick minimum over repetitions of the same deterministic tick
/// sequence: tick `i` does identical work in every repetition, so the
/// smallest observed time is the one least disturbed by the host.
/// Repetitions must have equal length; the result has that length.
pub fn min_merge(reps: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    let mut merged = first.clone();
    for rep in &reps[1..] {
        assert_eq!(rep.len(), merged.len(), "repetitions differ in tick count");
        for (m, &t) in merged.iter_mut().zip(rep) {
            *m = m.min(t);
        }
    }
    merged
}

/// `(max - min) / median` of the values, in percent (0 for fewer than two).
pub fn spread_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let mid = median(values);
    if mid > 0.0 {
        (max - min) / mid * 100.0
    } else {
        0.0
    }
}

/// `time_of_marked_tick - median(all ticks)`, averaged over the marked
/// ticks: what a periodic duty (rebalance fence, checkpoint) adds to the
/// ticks it runs on. 0 when no tick is marked.
pub fn excess_over_median(ticks_ms: &[f64], marked: impl Iterator<Item = usize>) -> f64 {
    let mid = median(ticks_ms);
    let (mut sum, mut n) = (0.0, 0usize);
    for i in marked {
        sum += ticks_ms[i] - mid;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50), 50.0);
        assert_eq!(percentile_sorted(&v, 90), 90.0);
        assert_eq!(percentile_sorted(&v, 100), 100.0);
        assert_eq!(percentile_sorted(&v, 0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), 2.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 100 ticks: rank 90 leaves exactly ten beyond, rank 91 only nine.
        assert_eq!(tail_percentile(100, 99), 90);
        assert_eq!(tail_percentile(200, 99), 95);
        assert_eq!(tail_percentile(1000, 99), 99);
        assert_eq!(tail_percentile(250, 90), 90);
        // Too few samples for any tail: the median is all there is.
        assert_eq!(tail_percentile(10, 99), 50);
        assert_eq!(tail_percentile(20, 99), 50);
        assert_eq!(tail_percentile(21, 99), 52);
    }

    #[test]
    fn min_merge_takes_the_per_tick_floor() {
        let merged = min_merge(&[
            vec![5.0, 2.0, 9.0],
            vec![4.0, 3.0, 9.5],
            vec![6.0, 2.5, 8.0],
        ]);
        assert_eq!(merged, vec![4.0, 2.0, 8.0]);
        assert_eq!(min_merge(&[vec![1.0, 2.0]]), vec![1.0, 2.0]);
        assert!(min_merge(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "repetitions differ")]
    fn min_merge_rejects_ragged_repetitions() {
        min_merge(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn spread_and_excess() {
        assert_eq!(spread_pct(&[10.0]), 0.0);
        assert!((spread_pct(&[9.0, 10.0, 11.0]) - 20.0).abs() < 1e-9);
        let ticks = [10.0, 10.0, 30.0, 10.0, 10.0, 50.0];
        assert!((excess_over_median(&ticks, [2usize, 5].into_iter()) - 30.0).abs() < 1e-9);
        assert_eq!(excess_over_median(&ticks, std::iter::empty()), 0.0);
    }
}
