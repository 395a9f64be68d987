//! Order statistics over timing samples and the result digest.

use scp_workload::rng::mix;

/// Median and quartiles of one metric's samples, with the range and the
/// sample count stated beside them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Summary {
    pub(crate) median: f64,
    pub(crate) q1: f64,
    pub(crate) q3: f64,
    pub(crate) min: f64,
    pub(crate) max: f64,
    pub(crate) n: usize,
}

impl Summary {
    /// A metric measured once per run (no spread of its own).
    pub(crate) fn single(value: f64) -> Self {
        Self {
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// Summary of `samples`; `None` when there are none.
    pub(crate) fn of(samples: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let (min, max) = (*sorted.first()?, *sorted.last()?);
        let (q1, median, q3) = quartiles(&sorted)?;
        Some(Self {
            median,
            q1,
            q3,
            min,
            max,
            n: sorted.len(),
        })
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub(crate) fn spread(&self) -> f64 {
        if self.median.abs() > 0.0 {
            (self.q3 - self.q1).abs() / self.median.abs()
        } else {
            0.0
        }
    }
}

/// The three cut points of Python's `statistics.quantiles(data, n=4)`
/// (exclusive method) over ascending `sorted`, so spreads computed here
/// read the same as the ones an outside harness computes. A single
/// sample is its own quartiles.
pub(crate) fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let m = sorted.len();
    let first = *sorted.first()?;
    if m == 1 {
        return Some((first, first, first));
    }
    let cut = |i: usize| -> Option<f64> {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        let (lo, hi) = (*sorted.get(j - 1)?, *sorted.get(j)?);
        Some((lo * (4.0 - delta) + hi * delta) / 4.0)
    };
    Some((cut(1)?, cut(2)?, cut(3)?))
}

/// Median of unsorted samples (`None` when empty).
pub(crate) fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.median)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub(crate) fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied()
}

/// An order-sensitive fold of exact outputs: the same values in the same
/// order give the same digest, anything else a different one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0x5C9E_2E00_D16E_57ED)
    }

    pub(crate) fn u64(&mut self, value: u64) {
        self.0 = mix(&[self.0, value]);
    }

    /// Folds the bit pattern, so two gains differing in the last place
    /// differ in the digest.
    pub(crate) fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub(crate) fn all(&mut self, values: impl IntoIterator<Item = u64>) {
        for v in values {
            self.u64(v);
        }
    }

    pub(crate) fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 2.0, 4.0)));
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), Some((1.5, 6.0, 10.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 3.0, 5.0, 5));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::single(2.0).spread(), 0.0);
        assert_eq!(median(&[2.0, 8.0]), Some(5.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&data, 0.5), Some(20.0));
        assert_eq!(percentile(&data, 0.95), Some(40.0));
        assert_eq!(percentile(&data, 0.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let fold = |vals: &[u64]| {
            let mut d = Digest::new();
            d.all(vals.iter().copied());
            d
        };
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[1, 2, 4]));
        assert_ne!(fold(&[]), fold(&[0]));
        let (mut a, mut b) = (Digest::new(), Digest::new());
        a.f64(1.0);
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a, b);
        assert_eq!(a.hex().len(), 16);
    }
}
