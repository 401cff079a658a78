//! Order statistics over operation latencies.
//!
//! A failed operation enters every summary as `+∞`: it missed every
//! latency limit, so it drags medians and tails up instead of vanishing.

/// The conventional percentiles, in thousandths, lowest first.
const LADDER_MILLI: [u64; 4] = [50_000, 90_000, 99_000, 99_900];

/// Samples a percentile must leave above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A reported tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (50, 90, 99 or 99.9).
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so the spread
/// a result file records is the one the acceptance check computes.
/// `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The highest conventional percentile (p50, p90, p99, p99.9) that still
/// has at least [`MIN_BEYOND`] samples above its nearest rank, or `None`
/// (refused) when not even the median does.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len() as u64;
    LADDER_MILLI.iter().rev().find_map(|&milli| {
        let rank = (milli * n).div_ceil(100_000);
        (rank >= 1 && (n - rank) as usize >= MIN_BEYOND).then(|| Tail {
            pct: milli as f64 / 1000.0,
            value: v[rank as usize - 1],
        })
    })
}

/// Latencies of every attempted operation of one kind.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    samples: Vec<f64>,
}

impl Latencies {
    /// Records one operation: `Some(seconds)` when it succeeded, `None`
    /// when it failed (it then counts as `+∞`).
    pub fn record(&mut self, secs: Option<f64>) {
        self.samples.push(secs.unwrap_or(f64::INFINITY));
    }

    /// Median over every attempted operation.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// Tail percentile over every attempted operation.
    pub fn tail(&self) -> Option<Tail> {
        tail(&self.samples)
    }

    /// The raw samples (`+∞` for failures), in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 120 samples: p99 leaves 1 beyond, p90 leaves 12.
        let t = tail(&ramp(120)).expect("p90 qualifies");
        assert_eq!((t.pct, t.value), (90.0, 108.0));
        // Exactly 100: p90 leaves exactly 10.
        assert_eq!(tail(&ramp(100)).map(|t| t.pct), Some(90.0));
        // 99: p90 leaves 9, so the median is the highest that qualifies.
        assert_eq!(tail(&ramp(99)).map(|t| t.pct), Some(50.0));
        // 1000: p99 leaves 10.
        assert_eq!(tail(&ramp(1000)).map(|t| t.pct), Some(99.0));
        // Order of input is irrelevant.
        let mut rev = ramp(120);
        rev.reverse();
        assert_eq!(tail(&rev).map(|t| t.value), Some(108.0));
    }

    #[test]
    fn tail_refuses_when_no_percentile_has_ten_beyond() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(20)).map(|t| t.pct), Some(50.0));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn a_failed_operation_misses_every_latency_limit() {
        let mut lat = Latencies::default();
        for s in [0.1, 0.2, 0.3] {
            lat.record(Some(s));
        }
        lat.record(None);
        lat.record(None);
        let met = |limit: f64| lat.samples().iter().filter(|&&s| s <= limit).count();
        assert_eq!(lat.samples().len(), 5);
        // No limit, however generous, is met by a failed operation.
        assert_eq!(met(f64::MAX), 3);
        assert_eq!(met(0.2), 2);
        // The failures stay in the sample: they push the median up.
        assert_eq!(lat.median(), 0.3);
        lat.record(None);
        assert!(lat.median().is_infinite());
    }
}
