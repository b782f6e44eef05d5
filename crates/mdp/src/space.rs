//! Mixed-radix product state spaces.
//!
//! The AoI-caching MDP's state is a vector of per-content ages (each in
//! `1..=A_cap`, stored 0-based) optionally crossed with a popularity phase.
//! [`ProductSpace`] provides the bijection between such coordinate vectors
//! and flat `usize` state indices used by the solvers.

use serde::{Deserialize, Serialize};

/// A mixed-radix product space `D_0 × D_1 × … × D_{n-1}` with a bijective
/// mapping onto `0..len()`.
///
/// The first dimension varies slowest (big-endian digit order), so indices
/// enumerate lexicographically over coordinates.
///
/// ```
/// use mdp::ProductSpace;
/// let space = ProductSpace::new(vec![3, 4]).unwrap();
/// assert_eq!(space.len(), 12);
/// let idx = space.encode(&[2, 1]).unwrap();
/// assert_eq!(idx, 2 * 4 + 1);
/// assert_eq!(space.decode(idx), vec![2, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProductSpace {
    dims: Vec<usize>,
    len: usize,
}

impl ProductSpace {
    /// Creates a product space from per-dimension cardinalities.
    ///
    /// Returns `None` if any dimension is zero or the total size overflows
    /// `usize`.
    pub fn new(dims: Vec<usize>) -> Option<Self> {
        if dims.contains(&0) {
            return None;
        }
        let mut len: usize = 1;
        for &d in &dims {
            len = len.checked_mul(d)?;
        }
        Some(ProductSpace { dims, len })
    }

    /// Per-dimension cardinalities.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of points in the space.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the space has no points. Always `false`: [`new`](Self::new)
    /// rejects zero-sized dimensions, and a zero-dimensional space has
    /// exactly one point.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encodes a coordinate vector into a flat index.
    ///
    /// Returns `None` if the coordinate count or any coordinate is out of
    /// range.
    pub fn encode(&self, coords: &[usize]) -> Option<usize> {
        if coords.len() != self.dims.len() {
            return None;
        }
        let mut idx = 0usize;
        for (c, d) in coords.iter().zip(&self.dims) {
            if c >= d {
                return None;
            }
            idx = idx * d + c;
        }
        Some(idx)
    }

    /// Encodes a coordinate *stream* into a flat index without touching the
    /// heap — the no-alloc counterpart of [`encode`](ProductSpace::encode)
    /// for hot loops whose coordinates live in another representation (the
    /// cache simulators encode per-content ages every slot without first
    /// materializing a `Vec<usize>`).
    ///
    /// Returns `None` if the stream yields the wrong number of coordinates
    /// or any coordinate is out of range.
    pub fn encode_iter(&self, coords: impl IntoIterator<Item = usize>) -> Option<usize> {
        let mut idx = 0usize;
        let mut n = 0usize;
        for c in coords {
            let d = *self.dims.get(n)?;
            if c >= d {
                return None;
            }
            idx = idx * d + c;
            n += 1;
        }
        (n == self.dims.len()).then_some(idx)
    }

    /// Decodes a flat index into a coordinate vector.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn decode(&self, index: usize) -> Vec<usize> {
        let mut coords = vec![0; self.dims.len()];
        self.decode_into(index, &mut coords);
        coords
    }

    /// Decodes into a caller-provided buffer to avoid allocation in hot
    /// loops.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()` or `out.len() != dims().len()`.
    pub fn decode_into(&self, index: usize, out: &mut [usize]) {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        assert_eq!(out.len(), self.dims.len(), "buffer dimension mismatch");
        let mut rem = index;
        for i in (0..self.dims.len()).rev() {
            out[i] = rem % self.dims[i];
            rem /= self.dims[i];
        }
    }

    /// Iterates all coordinate vectors in index order.
    pub fn iter(&self) -> ProductSpaceIter<'_> {
        ProductSpaceIter {
            space: self,
            next: 0,
        }
    }
}

/// Iterator over all points of a [`ProductSpace`] in index order.
#[derive(Debug)]
pub struct ProductSpaceIter<'a> {
    space: &'a ProductSpace,
    next: usize,
}

impl Iterator for ProductSpaceIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.next >= self.space.len {
            return None;
        }
        let coords = self.space.decode(self.next);
        self.next += 1;
        Some(coords)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.space.len - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ProductSpaceIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let space = ProductSpace::new(vec![2, 3, 5]).unwrap();
        assert_eq!(space.len(), 30);
        for idx in 0..space.len() {
            let coords = space.decode(idx);
            assert_eq!(space.encode(&coords), Some(idx));
        }
    }

    #[test]
    fn lexicographic_order() {
        let space = ProductSpace::new(vec![2, 2]).unwrap();
        let all: Vec<Vec<usize>> = space.iter().collect();
        assert_eq!(all, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn rejects_zero_dims_and_overflow() {
        assert!(ProductSpace::new(vec![3, 0]).is_none());
        assert!(ProductSpace::new(vec![usize::MAX, 2]).is_none());
    }

    #[test]
    fn encode_rejects_out_of_range() {
        let space = ProductSpace::new(vec![2, 2]).unwrap();
        assert_eq!(space.encode(&[2, 0]), None);
        assert_eq!(space.encode(&[0]), None);
        assert_eq!(space.encode(&[0, 0, 0]), None);
    }

    #[test]
    fn encode_iter_matches_encode() {
        let space = ProductSpace::new(vec![2, 3, 5]).unwrap();
        for idx in 0..space.len() {
            let coords = space.decode(idx);
            assert_eq!(space.encode_iter(coords.iter().copied()), Some(idx));
        }
        // Same rejections as the slice path.
        assert_eq!(space.encode_iter([2, 0, 0]), None);
        assert_eq!(space.encode_iter([0, 0]), None);
        assert_eq!(space.encode_iter([0, 0, 0, 0]), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_out_of_range_panics() {
        let space = ProductSpace::new(vec![2]).unwrap();
        let _ = space.decode(2);
    }

    #[test]
    fn zero_dimensional_space_has_one_point() {
        let space = ProductSpace::new(vec![]).unwrap();
        assert_eq!(space.len(), 1);
        assert_eq!(space.encode(&[]), Some(0));
        assert_eq!(space.decode(0), Vec::<usize>::new());
    }

    #[test]
    fn decode_into_avoids_alloc() {
        let space = ProductSpace::new(vec![4, 4]).unwrap();
        let mut buf = [0usize; 2];
        space.decode_into(7, &mut buf);
        assert_eq!(buf, [1, 3]);
    }

    #[test]
    fn iterator_is_exact_size() {
        let space = ProductSpace::new(vec![3, 3]).unwrap();
        let it = space.iter();
        assert_eq!(it.len(), 9);
        assert_eq!(it.count(), 9);
    }
}
