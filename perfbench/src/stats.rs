//! The statistics the benchmark reports: nearest-rank percentiles, the tail
//! rule, open-loop latency and geometric means.

/// Nearest-rank percentile `p` (0–100] of ascending `sorted` samples: the
/// value at rank `ceil(p/100 · n)`, so at least `p` % of the samples are at
/// or below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 50.0)
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, `100 · rank / n`.
    pub percentile: f64,
    /// Sample value at that rank.
    pub value: f64,
    /// Samples ranked above it (always [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile that still has [`TAIL_BEYOND`] samples beyond it:
/// nearest rank `n − 10`. It is a tail only if it lies above the median
/// rank, so fewer than 21 samples give `None` and no tail is reported.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    let rank = n.checked_sub(TAIL_BEYOND)?;
    if rank <= n.div_ceil(2) {
        return None;
    }
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

/// Open-loop latency of one request: from when it was *due*, not when it was
/// sent, so a stalled generator charges the stall to every request it
/// delayed.
pub fn open_loop_latency(due: f64, done: f64) -> f64 {
    done - due
}

/// Geometric mean of positive values; `None` if empty or any value is not
/// positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Arithmetic mean; `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 10.0), Some(1.0));
        assert_eq!(percentile(&s, 11.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 20 samples: rank 10 is the median itself, so no tail.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), None);
        assert_eq!(tail(&[1.0; 5]), None);
        // 21 samples: rank 11 is the median rank ceil(21/2), still no tail.
        let s21: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&s21), None);
        let s22: Vec<f64> = (1..=22).rev().map(f64::from).collect();
        let t = tail(&s22).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (12.0, 10, 22));
        let s200: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&s200).unwrap();
        assert_eq!(t.value, 190.0);
        assert!((t.percentile - 95.0).abs() < 1e-12);
        // Exactly ten samples lie strictly beyond the reported value.
        assert_eq!(s200.iter().filter(|v| **v > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // Due at 1.0 s, sent late at 1.4 s, answered at 1.5 s: the
        // generator's 0.4 s stall is charged to the request.
        assert!((open_loop_latency(1.0, 1.5) - 0.5).abs() < 1e-12);
        // A request answered 0.1 s after it was sent on time.
        assert!((open_loop_latency(2.0, 2.1) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[8.0]).unwrap() - 8.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
