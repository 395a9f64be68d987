//! Validated probability mass functions over key ranks.

use crate::error::WorkloadError;
use crate::Result;
use scp_json::Json;

/// Tolerance used when checking that probabilities sum to one.
pub const NORMALIZATION_TOLERANCE: f64 = 1e-6;

/// A validated probability mass function over ranks `0..len`.
///
/// Rank `i` is the `i`-th most popular key in an access pattern (the paper
/// orders keys by monotonically decreasing popularity, Eq. (2)). A `Pmf`
/// guarantees every entry is finite and non-negative and that the entries
/// sum to one within [`NORMALIZATION_TOLERANCE`].
///
/// # Example
///
/// ```
/// use scp_workload::Pmf;
///
/// let pmf = Pmf::uniform(4).unwrap();
/// assert_eq!(pmf.len(), 4);
/// assert!((pmf.get(0) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pmf {
    probs: Vec<f64>,
}

impl Pmf {
    /// Builds a pmf from explicit probabilities.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty, contains a negative or
    /// non-finite entry, or does not sum to one within tolerance.
    pub fn new(probs: Vec<f64>) -> Result<Self> {
        if probs.is_empty() {
            return Err(WorkloadError::EmptyDistribution);
        }
        for (index, &value) in probs.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(WorkloadError::InvalidProbability { index, value });
            }
        }
        let sum = kahan_sum(&probs);
        if (sum - 1.0).abs() > NORMALIZATION_TOLERANCE {
            return Err(WorkloadError::NotNormalized { sum });
        }
        Ok(Self { probs })
    }

    /// Builds a pmf by normalizing arbitrary non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty, contains a negative or
    /// non-finite weight, or sums to zero.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(WorkloadError::EmptyDistribution);
        }
        for (index, &value) in weights.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(WorkloadError::InvalidProbability { index, value });
            }
        }
        let sum = kahan_sum(&weights);
        if sum <= 0.0 {
            return Err(WorkloadError::NotNormalized { sum });
        }
        let probs = weights.into_iter().map(|w| w / sum).collect();
        Ok(Self { probs })
    }

    /// Uniform distribution over `len` ranks.
    ///
    /// # Errors
    ///
    /// Returns an error if `len == 0`.
    pub fn uniform(len: usize) -> Result<Self> {
        if len == 0 {
            return Err(WorkloadError::EmptyDistribution);
        }
        let p = 1.0 / len as f64;
        Ok(Self {
            probs: vec![p; len],
        })
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the pmf has no entries (never true for a constructed `Pmf`).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of rank `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic contract; see `# Panics`"
    )]
    pub fn get(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Iterates over probabilities in rank order.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.probs.iter()
    }

    /// Borrowed view of the raw probabilities.
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }

    /// Total probability mass of the `c` most popular ranks.
    ///
    /// This is the fraction of traffic a perfect cache of size `c` absorbs
    /// **if** the pmf is sorted in decreasing order (see
    /// [`Pmf::is_sorted_descending`]); otherwise it is just the mass of the
    /// first `c` ranks.
    #[expect(clippy::indexing_slicing, reason = "c is clamped to probs.len()")]
    pub fn head_mass(&self, c: usize) -> f64 {
        let c = c.min(self.probs.len());
        kahan_sum(&self.probs[..c])
    }

    /// Whether probabilities are monotonically non-increasing in rank.
    #[expect(
        clippy::indexing_slicing,
        reason = "windows(2) yields slices of exactly two elements"
    )]
    pub fn is_sorted_descending(&self) -> bool {
        self.probs.windows(2).all(|w| w[0] >= w[1])
    }

    /// Returns a copy sorted into canonical (descending popularity) order.
    pub fn to_sorted_descending(&self) -> Self {
        let mut probs = self.probs.clone();
        probs.sort_by(|a, b| f64::total_cmp(b, a));
        Self { probs }
    }

    /// Number of ranks with strictly positive probability.
    pub fn support_size(&self) -> usize {
        self.probs.iter().filter(|&&p| p > 0.0).count()
    }

    /// Shannon entropy in bits; a convenient skewness summary.
    pub fn entropy_bits(&self) -> f64 {
        self.probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.log2())
            .sum()
    }

    /// Serializes the pmf as a JSON array of probabilities.
    pub fn to_json(&self) -> Json {
        Json::arr(self.probs.iter().map(|&p| Json::Num(p)))
    }

    /// Rebuilds a pmf from its JSON array form, re-validating it.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is not an array of numbers or the
    /// probabilities fail validation.
    pub fn from_json(json: &Json) -> Result<Self> {
        let items = json.as_array().ok_or(WorkloadError::EmptyDistribution)?;
        let probs: Vec<f64> = items
            .iter()
            .enumerate()
            .map(|(index, v)| {
                v.as_f64().ok_or(WorkloadError::InvalidProbability {
                    index,
                    value: f64::NAN,
                })
            })
            .collect::<Result<_>>()?;
        Self::new(probs)
    }

    /// Consumes the pmf, returning the probability vector.
    pub fn into_inner(self) -> Vec<f64> {
        self.probs
    }
}

impl TryFrom<Vec<f64>> for Pmf {
    type Error = WorkloadError;

    fn try_from(value: Vec<f64>) -> Result<Self> {
        Pmf::new(value)
    }
}

impl From<Pmf> for Vec<f64> {
    fn from(value: Pmf) -> Self {
        value.probs
    }
}

impl<'a> IntoIterator for &'a Pmf {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.probs.iter()
    }
}

/// Compensated (Kahan) summation; keeps 1e6-entry pmfs accurate.
pub fn kahan_sum(values: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut comp = 0.0;
    for &v in values {
        let y = v - comp;
        let t = sum + y;
        comp = (t - sum) - y;
        sum = t;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_valid_pmf() {
        let pmf = Pmf::new(vec![0.5, 0.3, 0.2]).unwrap();
        assert_eq!(pmf.len(), 3);
        assert!(pmf.is_sorted_descending());
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(Pmf::new(vec![]), Err(WorkloadError::EmptyDistribution));
    }

    #[test]
    fn new_rejects_negative() {
        let err = Pmf::new(vec![0.5, -0.1, 0.6]).unwrap_err();
        assert!(matches!(
            err,
            WorkloadError::InvalidProbability { index: 1, .. }
        ));
    }

    #[test]
    fn new_rejects_nan() {
        let err = Pmf::new(vec![f64::NAN, 1.0]).unwrap_err();
        assert!(matches!(
            err,
            WorkloadError::InvalidProbability { index: 0, .. }
        ));
    }

    #[test]
    fn new_rejects_unnormalized() {
        let err = Pmf::new(vec![0.5, 0.3]).unwrap_err();
        assert!(matches!(err, WorkloadError::NotNormalized { .. }));
    }

    #[test]
    fn from_weights_normalizes() {
        let pmf = Pmf::from_weights(vec![2.0, 1.0, 1.0]).unwrap();
        assert!((pmf.get(0) - 0.5).abs() < 1e-12);
        assert!((kahan_sum(pmf.as_slice()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_weights_rejects_all_zero() {
        let err = Pmf::from_weights(vec![0.0, 0.0]).unwrap_err();
        assert!(matches!(err, WorkloadError::NotNormalized { .. }));
    }

    #[test]
    fn uniform_has_equal_mass() {
        let pmf = Pmf::uniform(1000).unwrap();
        assert!((pmf.get(999) - 1e-3).abs() < 1e-15);
        assert!((pmf.head_mass(100) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn head_mass_clamps_to_len() {
        let pmf = Pmf::uniform(4).unwrap();
        assert!((pmf.head_mass(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn support_size_ignores_zeros() {
        let pmf = Pmf::new(vec![0.7, 0.3, 0.0]).unwrap();
        assert_eq!(pmf.support_size(), 2);
        assert_eq!(pmf.len(), 3);
    }

    #[test]
    fn entropy_of_uniform_is_log2_n() {
        let pmf = Pmf::uniform(8).unwrap();
        assert!((pmf.entropy_bits() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        let pmf = Pmf::new(vec![1.0, 0.0]).unwrap();
        assert_eq!(pmf.entropy_bits(), 0.0);
    }

    #[test]
    fn sorted_descending_detection() {
        let unsorted = Pmf::new(vec![0.2, 0.5, 0.3]).unwrap();
        assert!(!unsorted.is_sorted_descending());
        let sorted = unsorted.to_sorted_descending();
        assert!(sorted.is_sorted_descending());
        assert_eq!(sorted.as_slice(), &[0.5, 0.3, 0.2]);
    }

    #[test]
    fn json_roundtrip() {
        let pmf = Pmf::new(vec![0.6, 0.4]).unwrap();
        let json = pmf.to_json().to_string();
        let back = Pmf::from_json(&scp_json::Json::parse(&json).unwrap()).unwrap();
        assert_eq!(pmf, back);
    }

    #[test]
    fn json_rejects_invalid() {
        let not_normalized = scp_json::Json::parse("[0.9, 0.9]").unwrap();
        assert!(Pmf::from_json(&not_normalized).is_err());
        let not_an_array = scp_json::Json::parse("{}").unwrap();
        assert!(Pmf::from_json(&not_an_array).is_err());
    }

    #[test]
    fn kahan_sum_is_accurate_for_many_small_values() {
        let v = vec![1e-6; 1_000_000];
        let sum = kahan_sum(&v);
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
