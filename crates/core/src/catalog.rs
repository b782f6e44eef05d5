//! The content catalog: one content per road region, each with its own
//! freshness limit `A^max_h`.

use crate::aoi::Age;
use crate::AoiCacheError;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use vanet::RegionId;

/// Static description of one content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentSpec {
    /// The region producing this content (content `h` ↔ region `h`).
    pub region: RegionId,
    /// Freshness limit `A^max_h`: ages beyond this are violations.
    pub max_age: Age,
}

/// The full catalog of `L` contents.
///
/// The paper: "all contents have the same file size and different maximum
/// AoI value limits" — sizes are uniform (and therefore not modelled),
/// `A^max_h` varies per content.
///
/// ```
/// use aoi_cache::Catalog;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let catalog = Catalog::random(10, 6, 6, &mut rng)?;
/// assert_eq!(catalog.len(), 10);
/// assert_eq!(catalog.max_age(3).get(), 6);
/// # Ok::<(), aoi_cache::AoiCacheError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Catalog {
    contents: Vec<ContentSpec>,
}

impl Catalog {
    /// Creates a catalog with per-content limits drawn uniformly from
    /// `[min_max_age, max_max_age]` (the paper randomizes the per-region
    /// maximum AoI).
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadParameter`] if `n == 0`, either bound is
    /// zero, or the bounds are inverted.
    pub fn random(
        n: usize,
        min_max_age: u32,
        max_max_age: u32,
        rng: &mut dyn RngCore,
    ) -> Result<Self, AoiCacheError> {
        if n == 0 {
            return Err(AoiCacheError::BadParameter {
                what: "n",
                valid: ">= 1",
            });
        }
        if min_max_age == 0 || max_max_age < min_max_age {
            return Err(AoiCacheError::BadParameter {
                what: "max-age bounds",
                valid: "1 <= min <= max",
            });
        }
        Ok(Catalog {
            contents: (0..n)
                .map(|h| ContentSpec {
                    region: RegionId(h),
                    // lint:allow(panic-hygiene): bounds checked >= 1 above.
                    max_age: Age::new(rng.gen_range(min_max_age..=max_max_age))
                        .expect("bounds are >= 1"),
                })
                .collect(),
        })
    }

    /// Number of contents `L`.
    pub fn len(&self) -> usize {
        self.contents.len()
    }

    /// Whether the catalog is empty (never true for constructed catalogs).
    pub fn is_empty(&self) -> bool {
        self.contents.is_empty()
    }

    /// The spec of content `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn spec(&self, h: usize) -> &ContentSpec {
        &self.contents[h]
    }

    /// Freshness limit of content `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn max_age(&self, h: usize) -> Age {
        self.contents[h].max_age
    }

    /// Freshness limits of a contiguous block of contents (an RSU's cached
    /// slice).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn max_ages(&self, range: std::ops::Range<usize>) -> Vec<Age> {
        self.contents[range].iter().map(|c| c.max_age).collect()
    }

    /// Iterates all content specs in region order.
    pub fn iter(&self) -> impl Iterator<Item = &ContentSpec> {
        self.contents.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_catalog() {
        // Equal bounds give every content the same freshness limit.
        let mut rng = StdRng::seed_from_u64(3);
        let c = Catalog::random(5, 7, 7, &mut rng).unwrap();
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
        for h in 0..5 {
            assert_eq!(c.max_age(h).get(), 7);
            assert_eq!(c.spec(h).region, RegionId(h));
        }
    }

    #[test]
    fn random_catalog_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = Catalog::random(50, 4, 12, &mut rng).unwrap();
        for spec in c.iter() {
            let m = spec.max_age.get();
            assert!((4..=12).contains(&m));
        }
    }

    #[test]
    fn random_catalog_varies() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = Catalog::random(50, 2, 20, &mut rng).unwrap();
        let first = c.max_age(0);
        assert!(
            c.iter().any(|s| s.max_age != first),
            "50 draws over [2,20] should vary"
        );
    }

    #[test]
    fn validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Catalog::random(0, 1, 5, &mut rng).is_err());
        assert!(Catalog::random(3, 0, 5, &mut rng).is_err());
        assert!(Catalog::random(3, 6, 5, &mut rng).is_err());
    }

    #[test]
    fn max_ages_slice() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = Catalog::random(10, 3, 3, &mut rng).unwrap();
        let ages = c.max_ages(2..7);
        assert_eq!(ages.len(), 5);
    }
}
