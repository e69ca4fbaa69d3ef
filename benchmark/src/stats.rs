//! Order statistics for timing samples: medians with quartiles, and the
//! rule for which tail percentile a sample count supports.

/// Percentiles a tail may be reported at, ascending.
const LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // Multiply before dividing: integral p keeps the rank exact.
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile with at least ten samples beyond it
/// among `n` samples; the median when no higher one qualifies.
pub fn tail_percentile(n: usize) -> f64 {
    let p = LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n * (100 - *p as usize) / 100 >= MIN_BEYOND);
    f64::from(p.unwrap_or(LADDER[0]))
}

/// Median, quartiles and count of one sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            q1: percentile(&s, 25.0),
            median: percentile(&s, 50.0),
            q3: percentile(&s, 75.0),
        }
    }
}

/// Median of a sample (0 for an empty one, so an unexercised layer
/// metric reads 0).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    Summary::of(samples).median
}

/// Median of column `i` of fixed-width rows.
pub fn column_median<const N: usize>(rows: &[[f64; N]], i: usize) -> f64 {
    median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(3000), 99.0);
    }

    #[test]
    fn summary_orders_its_input() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }
}
