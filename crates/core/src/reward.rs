//! The paper's utility function (Eqs. 1–3).
//!
//! ```text
//! U(t)        = w · U^RSU_AoI(t) − U^MBS_cost(t)                   (1)
//! U^RSU_AoI   = Σ_k Σ_h (A^max_h / A^R_{k,h}(x^k_h(t))) · p^k_h(t) (2)
//! U^MBS_cost  = Σ_k Σ_h C^k_h(x^k_h(t))                            (3)
//! ```
//!
//! The AoI term is evaluated on the **post-action** age `A(x)`: when the
//! update action fires, the RSU already holds the fresh MBS copy in that
//! slot.

use crate::aoi::{Age, AgeVector};
use crate::AoiCacheError;
use serde::{Deserialize, Serialize};

/// The reward model of one RSU: weight `w`, per-update cost, and the
/// per-content freshness limits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RewardModel {
    weight: f64,
    update_cost: f64,
    max_ages: Vec<Age>,
}

impl RewardModel {
    /// Creates a reward model.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadParameter`] if `weight` or `update_cost`
    /// is negative/non-finite or `max_ages` is empty.
    pub fn new(weight: f64, update_cost: f64, max_ages: Vec<Age>) -> Result<Self, AoiCacheError> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(AoiCacheError::BadParameter {
                what: "weight",
                valid: ">= 0 and finite",
            });
        }
        if !update_cost.is_finite() || update_cost < 0.0 {
            return Err(AoiCacheError::BadParameter {
                what: "update_cost",
                valid: ">= 0 and finite",
            });
        }
        if max_ages.is_empty() {
            return Err(AoiCacheError::BadParameter {
                what: "max_ages",
                valid: "non-empty",
            });
        }
        Ok(RewardModel {
            weight,
            update_cost,
            max_ages,
        })
    }

    /// The AoI-utility weight `w`.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The per-update communication cost `C^k_h`.
    pub fn update_cost(&self) -> f64 {
        self.update_cost
    }

    /// The freshness limits of the RSU's contents.
    pub fn max_ages(&self) -> &[Age] {
        &self.max_ages
    }

    /// Number of contents covered.
    pub fn n_contents(&self) -> usize {
        self.max_ages.len()
    }

    /// The Eq. 2 AoI utility of one RSU given post-action ages and
    /// popularity: `Σ_h (A^max_h / Ã_h) · p_h`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths of `ages`/`popularity` differ from the model.
    pub fn aoi_utility(&self, ages: &AgeVector, popularity: &[f64]) -> f64 {
        assert_eq!(ages.len(), self.max_ages.len(), "ages length mismatch");
        assert_eq!(
            popularity.len(),
            self.max_ages.len(),
            "popularity length mismatch"
        );
        ages.as_slice()
            .iter()
            .zip(&self.max_ages)
            .zip(popularity)
            .map(|((a, m), p)| a.utility(*m) * p)
            .sum()
    }

    /// The Eq. 3 cost of this slot's action (`updated` = whether the RSU
    /// pushed one content this slot).
    pub fn action_cost(&self, updated: bool) -> f64 {
        if updated {
            self.update_cost
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn age(v: u32) -> Age {
        Age::new(v).unwrap()
    }

    fn model() -> RewardModel {
        RewardModel::new(1.0, 2.0, vec![age(4), age(8)]).unwrap()
    }

    #[test]
    fn aoi_utility_matches_formula() {
        let m = model();
        let ages = AgeVector::from_ages(vec![age(2), age(4)], age(10)).unwrap();
        let p = [0.25, 0.75];
        // (4/2)*0.25 + (8/4)*0.75 = 0.5 + 1.5 = 2.0
        assert!((m.aoi_utility(&ages, &p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fresh_cache_maximizes_utility() {
        let m = model();
        let fresh = AgeVector::fresh(2, age(10));
        let p = [0.5, 0.5];
        // (4/1)*0.5 + (8/1)*0.5 = 6
        assert!((m.aoi_utility(&fresh, &p) - 6.0).abs() < 1e-12);
        let mut stale = fresh.clone();
        stale.advance();
        assert!(m.aoi_utility(&stale, &p) < 6.0);
    }

    #[test]
    fn action_cost_charged_only_when_updating() {
        let m = model();
        assert_eq!(m.action_cost(false), 0.0);
        assert_eq!(m.action_cost(true), 2.0);
    }

    #[test]
    fn weight_scales_aoi_term() {
        let heavy = RewardModel::new(3.0, 2.0, vec![age(4)]).unwrap();
        let ages = AgeVector::fresh(1, age(10));
        let p = [1.0];
        assert!((heavy.weight() * heavy.aoi_utility(&ages, &p) - 12.0).abs() < 1e-12);
    }

    /// Eq. 1 utility of refreshing content `h` now versus not updating:
    /// `w · (aoi_utility(refreshed) − aoi_utility(ages)) − C`.
    fn refresh_gain(m: &RewardModel, ages: &AgeVector, p: &[f64], h: usize) -> f64 {
        let mut refreshed = ages.clone();
        refreshed.refresh(h);
        m.weight() * (m.aoi_utility(&refreshed, p) - m.aoi_utility(ages, p)) - m.action_cost(true)
    }

    #[test]
    fn update_gain_grows_with_age_and_popularity() {
        let m = model();
        let young = AgeVector::from_ages(vec![age(2), age(2)], age(10)).unwrap();
        let old = AgeVector::from_ages(vec![age(4), age(4)], age(10)).unwrap();
        let p = [0.5, 0.5];
        assert!(refresh_gain(&m, &old, &p, 0) > refresh_gain(&m, &young, &p, 0));
        let p_hot = [0.9, 0.1];
        assert!(refresh_gain(&m, &old, &p_hot, 0) > refresh_gain(&m, &old, &p_hot, 1));
    }

    #[test]
    fn update_gain_of_fresh_content_is_negative() {
        let m = model();
        let fresh = AgeVector::fresh(2, age(10));
        let p = [0.5, 0.5];
        // No utility gain, pure cost.
        assert!((refresh_gain(&m, &fresh, &p, 0) + 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(RewardModel::new(-1.0, 0.0, vec![age(2)]).is_err());
        assert!(RewardModel::new(1.0, f64::NAN, vec![age(2)]).is_err());
        assert!(RewardModel::new(1.0, 1.0, vec![]).is_err());
        let m = model();
        assert_eq!(m.weight(), 1.0);
        assert_eq!(m.update_cost(), 2.0);
        assert_eq!(m.n_contents(), 2);
        assert_eq!(m.max_ages().len(), 2);
    }
}
