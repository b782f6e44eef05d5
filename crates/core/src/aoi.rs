//! Age-of-information primitives.
//!
//! AoI is measured in whole slots and is **at least 1**: a content delivered
//! in the slot it was generated has age 1 when used. Ages are capped at a
//! finite `A_cap` so that the cache-management MDP has a finite state space;
//! the cap is chosen above every content's freshness limit `A^max_h`, so
//! capping never hides a violation.

use crate::AoiCacheError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroU32;

/// An age-of-information value in slots (always ≥ 1).
///
/// ```
/// use aoi_cache::Age;
/// let age = Age::new(3).unwrap();
/// assert_eq!(age.get(), 3);
/// assert!(Age::new(0).is_none());
/// assert!(age.exceeds(Age::new(2).unwrap()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Age(NonZeroU32);

impl Age {
    /// The freshest possible age.
    pub const ONE: Age = Age(NonZeroU32::MIN);

    /// Creates an age; returns `None` for 0.
    pub fn new(slots: u32) -> Option<Age> {
        NonZeroU32::new(slots).map(Age)
    }

    /// The age in slots.
    pub fn get(self) -> u32 {
        self.0.get()
    }

    /// Ages by one slot, saturating at `cap`.
    #[must_use]
    pub fn aged(self, cap: Age) -> Age {
        let next = self.0.get().saturating_add(1).min(cap.get());
        // lint:allow(panic-hygiene): `next` is the min of two NonZero-backed
        // values, so it is always >= 1.
        Age(NonZeroU32::new(next).expect("ages are >= 1"))
    }

    /// Whether this age is beyond the freshness limit `max_age`
    /// (a *violation*: strictly older than allowed).
    pub fn exceeds(self, max_age: Age) -> bool {
        self.0 > max_age.0
    }

    /// `age / max_age` — the normalized staleness used in reports
    /// (1.0 = exactly at the limit).
    pub fn ratio_to(self, max_age: Age) -> f64 {
        f64::from(self.get()) / f64::from(max_age.get())
    }

    /// The paper's per-content AoI utility `A^max / A` (Eq. 2 term):
    /// maximal (= `A^max`) when fresh, 1 at the limit, < 1 beyond it.
    pub fn utility(self, max_age: Age) -> f64 {
        f64::from(max_age.get()) / f64::from(self.get())
    }
}

impl Default for Age {
    fn default() -> Self {
        Age::ONE
    }
}

impl fmt::Display for Age {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} slots", self.get())
    }
}

/// The AoI state of one RSU's cache: one age per cached content, all capped
/// at a common `A_cap`.
///
/// ```
/// use aoi_cache::{Age, AgeVector};
/// let mut ages = AgeVector::fresh(3, Age::new(10).unwrap());
/// ages.advance();           // everyone ages by one slot
/// ages.refresh(1);          // content 1 replaced by the MBS copy
/// assert_eq!(ages.age(1), Age::ONE);
/// assert_eq!(ages.age(0), Age::new(2).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgeVector {
    ages: Vec<Age>,
    cap: Age,
}

impl AgeVector {
    /// Creates a vector of `n` fresh (age-1) contents with the given cap.
    pub fn fresh(n: usize, cap: Age) -> Self {
        AgeVector {
            ages: vec![Age::ONE; n],
            cap,
        }
    }

    /// Creates a vector from explicit ages.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadParameter`] if any age exceeds the cap or
    /// the vector is empty.
    pub fn from_ages(ages: Vec<Age>, cap: Age) -> Result<Self, AoiCacheError> {
        if ages.is_empty() {
            return Err(AoiCacheError::BadParameter {
                what: "ages",
                valid: "non-empty",
            });
        }
        if ages.iter().any(|a| *a > cap) {
            return Err(AoiCacheError::BadParameter {
                what: "age",
                valid: "<= cap",
            });
        }
        Ok(AgeVector { ages, cap })
    }

    /// Number of tracked contents.
    pub fn len(&self) -> usize {
        self.ages.len()
    }

    /// Whether the vector tracks no contents.
    pub fn is_empty(&self) -> bool {
        self.ages.is_empty()
    }

    /// The common age cap `A_cap`.
    pub fn cap(&self) -> Age {
        self.cap
    }

    /// Age of content `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn age(&self, i: usize) -> Age {
        self.ages[i]
    }

    /// All ages in content order.
    pub fn as_slice(&self) -> &[Age] {
        &self.ages
    }

    /// Ages every content by one slot (capped).
    pub fn advance(&mut self) {
        for a in &mut self.ages {
            *a = a.aged(self.cap);
        }
    }

    /// Replaces content `i` with a fresh copy (age 1).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn refresh(&mut self, i: usize) {
        self.ages[i] = Age::ONE;
    }

    /// 0-based coordinates (age − 1 per content) for state-space encoding.
    pub fn coords(&self) -> Vec<usize> {
        self.coord_iter().collect()
    }

    /// Streams the 0-based coordinates without allocating — the per-slot
    /// state-encoding path of the simulators
    /// (pairs with [`ProductSpace::encode_iter`](mdp::ProductSpace::encode_iter)).
    pub fn coord_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ages.iter().map(|a| (a.get() - 1) as usize)
    }

    /// Reconstructs an `AgeVector` from 0-based coordinates.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is ≥ cap.
    pub fn from_coords(coords: &[usize], cap: Age) -> Self {
        let ages = coords
            .iter()
            .map(|c| {
                // lint:allow(panic-hygiene): documented panic — from_coords'
                // contract rejects out-of-range coordinates.
                let v = u32::try_from(*c + 1).expect("coordinate fits u32");
                assert!(v <= cap.get(), "coordinate {c} out of cap {cap}");
                Age::new(v).expect("v >= 1") // lint:allow(panic-hygiene): v = c + 1 >= 1
            })
            .collect();
        AgeVector { ages, cap }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn age(v: u32) -> Age {
        Age::new(v).unwrap()
    }

    #[test]
    fn age_basics() {
        assert_eq!(Age::ONE.get(), 1);
        assert_eq!(Age::default(), Age::ONE);
        assert!(Age::new(0).is_none());
        assert_eq!(age(5).to_string(), "5 slots");
    }

    #[test]
    fn aging_saturates_at_cap() {
        let cap = age(3);
        let mut a = Age::ONE;
        a = a.aged(cap);
        assert_eq!(a, age(2));
        a = a.aged(cap);
        assert_eq!(a, age(3));
        a = a.aged(cap);
        assert_eq!(a, age(3), "must saturate");
    }

    #[test]
    fn utility_and_ratio() {
        let max = age(8);
        assert_eq!(Age::ONE.utility(max), 8.0);
        assert_eq!(age(8).utility(max), 1.0);
        assert!(age(10).utility(max) < 1.0);
        assert_eq!(age(4).ratio_to(max), 0.5);
    }

    #[test]
    fn violation_is_strict() {
        let max = age(5);
        assert!(!age(5).exceeds(max));
        assert!(age(6).exceeds(max));
    }

    #[test]
    fn vector_dynamics() {
        let mut v = AgeVector::fresh(4, age(6));
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        v.advance();
        v.advance();
        assert!(v.as_slice().iter().all(|a| *a == age(3)));
        v.refresh(2);
        assert_eq!(v.age(2), Age::ONE);
    }

    #[test]
    fn coords_roundtrip() {
        let cap = age(7);
        let v = AgeVector::from_ages(vec![age(1), age(4), age(7)], cap).unwrap();
        let coords = v.coords();
        assert_eq!(coords, vec![0, 3, 6]);
        let back = AgeVector::from_coords(&coords, cap);
        assert_eq!(back, v);
    }

    #[test]
    fn from_ages_validates() {
        assert!(AgeVector::from_ages(vec![], age(5)).is_err());
        assert!(AgeVector::from_ages(vec![age(6)], age(5)).is_err());
        assert!(AgeVector::from_ages(vec![age(5)], age(5)).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of cap")]
    fn from_coords_validates_cap() {
        let _ = AgeVector::from_coords(&[7], age(7));
    }
}
