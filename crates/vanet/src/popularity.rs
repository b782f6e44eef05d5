//! Per-RSU content-popularity estimation.
//!
//! The paper's MDP state includes "the content population that each RSU
//! has"; this module estimates the request distribution `p^k_h(t)` from the
//! observed request stream with exponential forgetting, so the estimate
//! tracks the rapidly changing road environment.

use crate::road::RegionId;
use crate::VanetError;
use serde::{Deserialize, Serialize};

/// Exponentially-forgetting popularity estimator over one RSU's cached
/// regions.
///
/// Counts decay by `decay` per slot and new requests add 1; the popularity
/// vector is the Laplace-smoothed normalization of the counts, so it is
/// always a proper distribution even before any request arrives.
///
/// ```
/// use vanet::{PopularityEstimator, RegionId};
/// let mut est = PopularityEstimator::new(4, 0, 0.9).unwrap();
/// for _ in 0..50 {
///     est.record(RegionId(2));
///     est.end_slot();
/// }
/// let p = est.popularity();
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// assert!(p[2] > p[0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopularityEstimator {
    /// First region index of the RSU's coverage block.
    base_region: usize,
    counts: Vec<f64>,
    decay: f64,
    smoothing: f64,
}

impl PopularityEstimator {
    /// Creates an estimator over `n_regions` regions starting at
    /// `base_region`, with per-slot forgetting factor `decay ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`VanetError::BadParameter`] if `n_regions == 0` or
    /// `decay ∉ (0, 1]`.
    pub fn new(n_regions: usize, base_region: usize, decay: f64) -> Result<Self, VanetError> {
        if n_regions == 0 {
            return Err(VanetError::BadParameter {
                what: "n_regions",
                valid: ">= 1",
            });
        }
        if !decay.is_finite() || decay <= 0.0 || decay > 1.0 {
            return Err(VanetError::BadParameter {
                what: "decay",
                valid: "(0, 1]",
            });
        }
        Ok(PopularityEstimator {
            base_region,
            counts: vec![0.0; n_regions],
            decay,
            smoothing: 1.0,
        })
    }

    /// Number of regions tracked.
    pub fn n_regions(&self) -> usize {
        self.counts.len()
    }

    /// Records one request for `region`.
    ///
    /// Requests outside the tracked block are ignored (they belong to
    /// another RSU).
    pub fn record(&mut self, region: RegionId) {
        if let Some(idx) = region.0.checked_sub(self.base_region) {
            if idx < self.counts.len() {
                self.counts[idx] += 1.0;
            }
        }
    }

    /// Applies the per-slot exponential decay. Call once per slot after
    /// recording the slot's requests.
    pub fn end_slot(&mut self) {
        for c in &mut self.counts {
            *c *= self.decay;
        }
    }

    /// The current Laplace-smoothed popularity distribution over the
    /// tracked regions (local indices `0..n_regions`).
    pub fn popularity(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.popularity_into(&mut out);
        out
    }

    /// Writes the current popularity distribution into `out` (cleared and
    /// refilled) — the no-alloc path for per-slot callers that reuse one
    /// buffer across the whole simulation.
    pub fn popularity_into(&self, out: &mut Vec<f64>) {
        let total: f64 =
            self.counts.iter().sum::<f64>() + self.smoothing * self.counts.len() as f64;
        out.clear();
        out.extend(self.counts.iter().map(|c| (c + self.smoothing) / total));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_before_any_request() {
        let est = PopularityEstimator::new(5, 0, 0.9).unwrap();
        let p = est.popularity();
        for v in &p {
            assert!((v - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn popularity_is_always_a_distribution() {
        let mut est = PopularityEstimator::new(3, 10, 0.8).unwrap();
        for i in 0..30 {
            est.record(RegionId(10 + i % 3));
            if i % 2 == 0 {
                est.record(RegionId(11));
            }
            est.end_slot();
            let p = est.popularity();
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(p.iter().all(|v| *v > 0.0));
        }
    }

    #[test]
    fn hot_region_dominates() {
        let mut est = PopularityEstimator::new(4, 0, 0.95).unwrap();
        for _ in 0..100 {
            est.record(RegionId(1));
            est.record(RegionId(1));
            est.record(RegionId(3));
            est.end_slot();
        }
        let p = est.popularity();
        assert!(p[1] > p[3]);
        assert!(p[3] > p[0]);
    }

    #[test]
    fn decay_forgets_old_interest() {
        let mut est = PopularityEstimator::new(2, 0, 0.5).unwrap();
        for _ in 0..20 {
            est.record(RegionId(0));
            est.end_slot();
        }
        // Interest flips to region 1.
        for _ in 0..20 {
            est.record(RegionId(1));
            est.end_slot();
        }
        let p = est.popularity();
        assert!(p[1] > p[0], "estimator must track the shift: {p:?}");
    }

    #[test]
    fn out_of_block_requests_ignored() {
        let mut est = PopularityEstimator::new(2, 5, 0.9).unwrap();
        est.record(RegionId(0));
        est.record(RegionId(9));
        let p = est.popularity();
        assert_eq!(p.len(), 2, "only the tracked block has a popularity");
        assert!((p[0] - 0.5).abs() < 1e-12, "counts must be untouched");
    }

    #[test]
    fn validation() {
        assert!(PopularityEstimator::new(0, 0, 0.9).is_err());
        assert!(PopularityEstimator::new(2, 0, 0.0).is_err());
        assert!(PopularityEstimator::new(2, 0, 1.5).is_err());
        assert!(PopularityEstimator::new(2, 0, 1.0).is_ok());
    }

    #[test]
    fn n_regions_accessor() {
        let est = PopularityEstimator::new(7, 0, 0.9).unwrap();
        assert_eq!(est.n_regions(), 7);
    }
}
