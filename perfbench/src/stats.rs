//! Order statistics for the benchmark: percentiles that only claim a
//! tail the sample supports, medians, and a bounded uniform sample.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A percentile read off a sample, with the rank actually used and the
/// sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The value at the percentile, in the sample's unit.
    pub value: f64,
    /// The percentile actually reported (at most the one asked for).
    pub p: f64,
    /// Samples in the set.
    pub n: usize,
}

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of `samples`, lowered to the
/// highest percentile that still has [`MIN_BEYOND`] samples beyond it.
/// `None` when the set is too small to have any such percentile.
/// Sorts `samples` in place.
#[must_use]
pub fn percentile(samples: &mut [f64], p: f64) -> Option<Pct> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least p% of the sample
    // at or below it.
    let wanted = ((p / 100.0) * n as f64).ceil().max(1.0) as usize - 1;
    let rank = wanted.min(n - 1 - MIN_BEYOND);
    let reported = if rank == wanted {
        p
    } else {
        (rank + 1) as f64 * 100.0 / n as f64
    };
    Some(Pct {
        value: samples[rank],
        p: reported,
        n,
    })
}

/// The `q`-quantile (`0..=1`) of `values`, interpolating between the
/// two nearest ranks; `None` for an empty set. Sorts in place.
#[must_use]
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    Some(values[lo] + (values[hi] - values[lo]) * (at - lo as f64))
}

/// The median of `values`; `None` for an empty set. Sorts in place.
#[must_use]
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Percentile `p` of `values`, only when the sample supports it as
/// asked (see [`percentile`]).
#[must_use]
pub fn exact_percentile(values: &mut [f64], p: f64) -> Option<f64> {
    percentile(values, p)
        .filter(|pct| (pct.p - p).abs() < f64::EPSILON)
        .map(|pct| pct.value)
}

/// A uniform random sample of at most `capacity` values from a stream
/// of unknown length (reservoir sampling): every value seen is equally
/// likely to be kept, so percentiles of the sample estimate those of
/// the whole stream, and memory does not grow with the stream.
#[derive(Debug)]
pub struct Reservoir {
    values: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: StdRng,
}

impl Reservoir {
    /// An empty reservoir keeping at most `capacity` values; `seed`
    /// fixes which ones.
    #[must_use]
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            values: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Offers `value` to the sample.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.values.len() < self.capacity {
            self.values.push(value);
        } else {
            let slot = self.rng.gen_range(0..self.seen);
            if let Some(kept) = self.values.get_mut(slot as usize) {
                *kept = value;
            }
        }
    }

    /// The values kept.
    pub fn values(&mut self) -> &mut [f64] {
        &mut self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_and_states_the_count() {
        // 2000 samples: p99 has 20 beyond it, so it is reported as asked.
        let mut samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        let p99 = percentile(&mut samples, 99.0).expect("large sample");
        assert_eq!(p99.value, 1980.0);
        assert_eq!(p99.p, 99.0);
        assert_eq!(p99.n, 2000);

        // 500 samples: p99 would leave 5 beyond; the helper falls back
        // to the highest percentile with 10 beyond (rank 490 -> p98).
        let mut samples: Vec<f64> = (1..=500).map(f64::from).collect();
        let tail = percentile(&mut samples, 99.0).expect("enough for a tail");
        assert_eq!(tail.value, 490.0);
        assert!((tail.p - 98.0).abs() < 1e-9, "{tail:?}");
        assert_eq!(tail.n, 500);
        let beyond = samples.iter().filter(|&&v| v > tail.value).count();
        assert_eq!(beyond, MIN_BEYOND);

        // The median is unaffected by the tail rule.
        let p50 = percentile(&mut samples, 50.0).expect("median");
        assert_eq!(p50.value, 250.0);
        assert_eq!(p50.p, 50.0);

        // Ten samples cannot support any percentile with ten beyond.
        let mut tiny: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&mut tiny, 50.0), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
        assert_eq!(quantile(&mut [4.0, 1.0, 2.0, 3.0, 5.0], 0.25), Some(2.0));
        assert_eq!(quantile(&mut [1.0, 2.0], 0.25), Some(1.25));
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut sample = Reservoir::new(1_000, 7);
        for v in 0..100_000 {
            sample.push(f64::from(v));
        }
        let kept = sample.values();
        assert_eq!(kept.len(), 1_000);
        // Uniform over the stream: the median of the sample is near the
        // stream's.
        let mid = median(kept).expect("non-empty");
        assert!((40_000.0..60_000.0).contains(&mid), "{mid}");
        let mut small = Reservoir::new(1_000, 7);
        small.push(3.0);
        assert_eq!(small.values(), &[3.0]);
    }

    #[test]
    fn exact_percentile_refuses_a_lowered_tail() {
        let mut large: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(exact_percentile(&mut large, 99.0), Some(1980.0));
        let mut small: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(exact_percentile(&mut small, 99.0), None);
        assert_eq!(exact_percentile(&mut small, 90.0), Some(450.0));
    }
}
