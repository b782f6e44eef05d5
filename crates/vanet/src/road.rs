//! The straight road and its regions.
//!
//! The paper's architecture (§II-A): a straight road divided into `L`
//! regions, each producing exactly one content (region `h` ↔ content `h`).

use crate::VanetError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a road region (and of the content that region produces).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct RegionId(pub usize);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

/// A straight one-way road of `length_m` meters divided into `n_regions`
/// equal regions.
///
/// ```
/// use vanet::Road;
/// let road = Road::new(1000.0, 10).unwrap();
/// assert_eq!(road.region_at(0.0).unwrap().0, 0);
/// assert_eq!(road.region_at(999.9).unwrap().0, 9);
/// assert!(road.region_at(1000.0).is_none()); // past the end
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Road {
    length_m: f64,
    n_regions: usize,
}

impl Road {
    /// Creates a road.
    ///
    /// # Errors
    ///
    /// Returns [`VanetError::BadParameter`] if `length_m` is not a positive
    /// finite number or `n_regions == 0`.
    pub fn new(length_m: f64, n_regions: usize) -> Result<Self, VanetError> {
        if !length_m.is_finite() || length_m <= 0.0 {
            return Err(VanetError::BadParameter {
                what: "length_m",
                valid: "> 0 and finite",
            });
        }
        if n_regions == 0 {
            return Err(VanetError::BadParameter {
                what: "n_regions",
                valid: ">= 1",
            });
        }
        Ok(Road {
            length_m,
            n_regions,
        })
    }

    /// Total length in meters.
    pub fn length_m(&self) -> f64 {
        self.length_m
    }

    /// Number of regions `L`.
    pub fn n_regions(&self) -> usize {
        self.n_regions
    }

    /// Length of one region in meters.
    pub fn region_length_m(&self) -> f64 {
        self.length_m / self.n_regions as f64
    }

    /// Region containing the position, or `None` if the position is off the
    /// road (`position < 0` or `position >= length_m`).
    pub fn region_at(&self, position_m: f64) -> Option<RegionId> {
        if !position_m.is_finite() || position_m < 0.0 || position_m >= self.length_m {
            return None;
        }
        let idx = (position_m / self.region_length_m()) as usize;
        Some(RegionId(idx.min(self.n_regions - 1)))
    }

    /// `[start, end)` bounds of a region in meters.
    ///
    /// # Panics
    ///
    /// Panics if the region index is out of range.
    pub fn region_bounds(&self, region: RegionId) -> (f64, f64) {
        assert!(region.0 < self.n_regions, "region out of range");
        let w = self.region_length_m();
        (region.0 as f64 * w, (region.0 + 1) as f64 * w)
    }

    /// Center of the road (where the MBS sits).
    pub fn center(&self) -> f64 {
        self.length_m / 2.0
    }

    /// Iterates all regions in order.
    pub fn regions(&self) -> impl Iterator<Item = RegionId> {
        (0..self.n_regions).map(RegionId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Road::new(0.0, 5).is_err());
        assert!(Road::new(-1.0, 5).is_err());
        assert!(Road::new(f64::NAN, 5).is_err());
        assert!(Road::new(100.0, 0).is_err());
        assert!(Road::new(100.0, 5).is_ok());
    }

    #[test]
    fn regions_partition_the_road() {
        let road = Road::new(1000.0, 8).unwrap();
        assert_eq!(road.region_length_m(), 125.0);
        for r in road.regions() {
            let (lo, hi) = road.region_bounds(r);
            assert_eq!(road.region_at(lo), Some(r));
            assert_eq!(road.region_at(hi - 1e-9), Some(r));
        }
    }

    #[test]
    fn off_road_positions() {
        let road = Road::new(100.0, 4).unwrap();
        assert_eq!(road.region_at(-0.1), None);
        assert_eq!(road.region_at(100.0), None);
        assert_eq!(road.region_at(f64::NAN), None);
    }

    #[test]
    fn centers() {
        let road = Road::new(100.0, 4).unwrap();
        assert_eq!(road.center(), 50.0);
        assert_eq!(road.region_bounds(RegionId(0)), (0.0, 25.0));
        assert_eq!(road.region_bounds(RegionId(3)), (75.0, 100.0));
    }

    #[test]
    fn region_display() {
        assert_eq!(RegionId(3).to_string(), "region#3");
    }

    #[test]
    #[should_panic(expected = "region out of range")]
    fn bounds_out_of_range_panics() {
        let road = Road::new(100.0, 2).unwrap();
        let _ = road.region_bounds(RegionId(2));
    }
}
