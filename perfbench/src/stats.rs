//! Sample statistics: medians, nearest-rank percentiles, and the tail rule
//! (report the highest percentile that still has at least ten samples
//! beyond it).

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles the tail rule may choose from, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 1-based nearest rank of percentile `q` in a sample of `n` (the small
/// epsilon keeps `99.9 * 10_000 / 100` from rounding up a whole rank).
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (0–100] of a non-empty sample.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    sorted(v)[rank(q, v.len()) - 1]
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median, or 0 for an empty sample (a phase whose every operation
/// failed reports 0; the failures fail the run).
pub fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Samples lying strictly beyond the nearest rank of `q`.
pub fn beyond(q: f64, n: usize) -> usize {
    n - rank(q, n)
}

/// The highest percentile, at most `cap`, that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it in a sample of `n`; `None` when
/// even the median does not.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .filter(|&q| q <= cap)
        .find(|&q| beyond(q, n) >= TAIL_MIN_BEYOND)
}

/// A tail metric: the percentile the rule chose, its value, and the
/// sample count. Falls back to the median (flagged by `honest = false`)
/// when the sample is too small for any percentile to qualify.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub q: f64,
    pub value: f64,
    pub n: usize,
    pub honest: bool,
}

pub fn tail(v: &[f64], cap: f64) -> Tail {
    match tail_percentile(v.len(), cap) {
        Some(q) => Tail {
            q,
            value: percentile(v, q),
            n: v.len(),
            honest: true,
        },
        None => Tail {
            q: 50.0,
            value: median(v),
            n: v.len(),
            honest: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        // 1000 samples: p99 leaves 10 beyond.
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(1000, 90.0), Some(90.0));
        // 10 000 samples: p99.9 qualifies but the cap stops at p99.
        assert_eq!(tail_percentile(10_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(10_000, 100.0), Some(99.9));
        // 999 samples: p99 leaves 9 beyond, so the rule drops to p98.
        assert_eq!(tail_percentile(999, 99.0), Some(98.0));
        // Too small for any percentile.
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
    }

    #[test]
    fn tail_reports_value_and_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert!(t.honest);
        assert_eq!((t.q, t.value, t.n), (99.0, 990.0, 1000));
        assert_eq!(beyond(t.q, t.n), 10);
        let small = tail(&[5.0, 1.0, 3.0], 99.0);
        assert!(!small.honest);
        assert_eq!(small.value, 3.0);
    }
}
