//! Per-slot time-series recording.

use crate::stats::RunningStats;
use crate::time::TimeSlot;
use serde::{Deserialize, Serialize};

/// One recorded sample: the slot it was taken at and its value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Slot at which the sample was recorded.
    pub slot: TimeSlot,
    /// Sample value.
    pub value: f64,
}

/// A named sequence of `(slot, value)` samples recorded during a run.
///
/// Slots must be pushed in non-decreasing order (the usual simulation-loop
/// pattern); this is asserted in debug builds.
///
/// ```
/// use simkit::{TimeSeries, TimeSlot};
/// let mut s = TimeSeries::new("aoi");
/// s.push(TimeSlot::new(0), 1.0);
/// s.push(TimeSlot::new(1), 2.0);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.values().collect::<Vec<_>>(), vec![1.0, 2.0]);
/// assert_eq!(s.mean(), 1.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    points: Vec<SeriesPoint>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Creates an empty series with pre-allocated capacity.
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::with_capacity(capacity),
        }
    }

    /// The series name (used as a CSV column header / plot legend).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records a sample at `slot`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `slot` precedes the last recorded slot.
    pub fn push(&mut self, slot: TimeSlot, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|p| p.slot <= slot),
            "time series {} must be pushed in slot order",
            self.name
        );
        self.points.push(SeriesPoint { slot, value });
    }

    /// Drops the spare capacity left by growing the series.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.points.shrink_to_fit();
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over the recorded points.
    pub fn iter(&self) -> impl Iterator<Item = &SeriesPoint> {
        self.points.iter()
    }

    /// Iterates over just the values, in slot order.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|p| p.value)
    }

    /// The last recorded point, if any.
    pub fn last(&self) -> Option<SeriesPoint> {
        self.points.last().copied()
    }

    /// Mean of the recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        self.values().collect::<RunningStats>().mean()
    }

    /// Maximum of the recorded values, if any.
    pub fn max(&self) -> Option<f64> {
        self.values().collect::<RunningStats>().max()
    }

    /// Minimum of the recorded values, if any.
    pub fn min(&self) -> Option<f64> {
        self.values().collect::<RunningStats>().min()
    }

    /// Running cumulative-sum series (same slots, prefix sums of values).
    ///
    /// Useful for turning a per-slot reward series into the cumulative
    /// reward curve the paper plots in Fig. 1a.
    pub fn cumulative(&self) -> TimeSeries {
        let mut out = TimeSeries::with_capacity(format!("{} (cumulative)", self.name), self.len());
        let mut acc = 0.0;
        for p in &self.points {
            acc += p.value;
            out.push(p.slot, acc);
        }
        out
    }

    /// Downsamples to at most `max_points` points by striding, always keeping
    /// the first and last points. Returns a clone if already small enough.
    pub fn downsample(&self, max_points: usize) -> TimeSeries {
        if max_points == 0 || self.points.len() <= max_points {
            return self.clone();
        }
        let stride = self.points.len().div_ceil(max_points);
        let mut out = TimeSeries::with_capacity(self.name.clone(), max_points);
        for (i, p) in self.points.iter().enumerate() {
            if i % stride == 0 {
                out.push(p.slot, p.value);
            }
        }
        // lint:allow(panic-hygiene): the is_empty() fast path returned above.
        let last = *self.points.last().expect("non-empty by construction");
        if out.last() != Some(last) {
            out.push(last.slot, last.value);
        }
        out
    }
}

impl Extend<(TimeSlot, f64)> for TimeSeries {
    fn extend<T: IntoIterator<Item = (TimeSlot, f64)>>(&mut self, iter: T) {
        for (slot, value) in iter {
            self.push(slot, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new("test");
        for (i, v) in values.iter().enumerate() {
            s.push(TimeSlot::new(i as u64), *v);
        }
        s
    }

    #[test]
    fn push_and_read_back() {
        let s = series(&[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.last().unwrap().value, 3.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn cumulative_prefix_sums() {
        let c = series(&[1.0, 2.0, 3.0]).cumulative();
        assert_eq!(c.values().collect::<Vec<_>>(), vec![1.0, 3.0, 6.0]);
        assert!(c.name().contains("cumulative"));
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let s = series(&(0..1000).map(|i| i as f64).collect::<Vec<_>>());
        let d = s.downsample(50);
        assert!(d.len() <= 51, "len was {}", d.len());
        assert_eq!(d.iter().next().unwrap().value, 0.0);
        assert_eq!(d.last().unwrap().value, 999.0);
    }

    #[test]
    fn downsample_noop_when_small() {
        let s = series(&[1.0, 2.0]);
        assert_eq!(s.downsample(10), s);
        assert_eq!(s.downsample(0), s);
    }

    #[test]
    #[should_panic(expected = "slot order")]
    #[cfg(debug_assertions)]
    fn out_of_order_push_panics_in_debug() {
        let mut s = TimeSeries::new("x");
        s.push(TimeSlot::new(5), 1.0);
        s.push(TimeSlot::new(3), 1.0);
    }

    #[test]
    fn extend_from_tuples() {
        let mut s = TimeSeries::new("x");
        s.extend((0..3).map(|i| (TimeSlot::new(i), i as f64)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_series_stats() {
        let s = TimeSeries::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.last(), None);
    }
}
