//! Streaming statistics: Welford running moments and ensemble curve
//! summaries (mean/CI across replicate runs).

use crate::series::TimeSeries;
use crate::SimkitError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Numerically stable streaming mean/variance/min/max (Welford's algorithm).
///
/// ```
/// use simkit::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one sample.
    ///
    /// Non-finite samples are ignored (they would poison every derived
    /// statistic); callers that care should validate beforehand.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 if no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance (divides by `n`); 0 if fewer than 1 sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n-1`); 0 if fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest sample; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Snapshot of the accumulated statistics.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min(),
            max: self.max(),
            sum: self.sum,
        }
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Immutable snapshot of a [`RunningStats`] accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum sample; `None` if no samples were seen (a NaN sentinel here
    /// would poison `Display` output and JSON artifacts — `NaN` is not
    /// valid JSON).
    pub min: Option<f64>,
    /// Maximum sample; `None` if no samples were seen.
    pub max: Option<f64>,
    /// Sum of samples.
    pub sum: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4}",
            self.count, self.mean, self.std_dev
        )?;
        match (self.min, self.max) {
            (Some(min), Some(max)) => write!(f, " min={min:.4} max={max:.4}"),
            _ => write!(f, " min=n/a max=n/a"),
        }
    }
}

/// Two-sided 95% Student-t quantile for `df` degrees of freedom (exact
/// table through df = 30, the z quantile beyond). Replicate counts in
/// experiment ensembles are small — 3 to 10 seeds — where the normal
/// z = 1.96 would understate the band by a factor of up to 6.5.
fn t_quantile_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        _ => 1.96,
    }
}

/// Ensemble summary of replicate curves: the per-slot mean with a 95%
/// Student-t confidence band.
///
/// Produced by [`CurveAccumulator`] from the per-run [`TimeSeries`] of an
/// experiment grid (e.g. cumulative-reward curves across seed replicates —
/// the ensembles the paper's figures average over).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveSummary {
    /// Number of replicate curves aggregated.
    pub replicates: usize,
    /// Per-slot mean across replicates.
    pub mean: TimeSeries,
    /// Lower edge of the 95% confidence band (`mean − t·se`, Student-t
    /// quantile for `replicates − 1` degrees of freedom).
    pub lo: TimeSeries,
    /// Upper edge of the 95% confidence band (`mean + t·se`).
    pub hi: TimeSeries,
}

impl CurveSummary {
    /// Final value of the mean curve (0 if empty).
    pub fn final_mean(&self) -> f64 {
        self.mean.last().map_or(0.0, |p| p.value)
    }

    /// Half-width of the confidence band at the final slot (0 if empty).
    pub fn final_ci_half_width(&self) -> f64 {
        match (self.hi.last(), self.lo.last()) {
            (Some(hi), Some(lo)) => (hi.value - lo.value) / 2.0,
            _ => 0.0,
        }
    }
}

/// Streaming builder of a [`CurveSummary`]: replicate curves are folded in
/// one at a time, so the aggregation holds one [`RunningStats`] row per
/// slot — `O(horizon)` total — instead of materializing every replicate
/// curve side by side (`O(horizon × replicates)`), which is what lets an
/// experiment grid stream each cell's contribution and drop the cell.
///
/// The band is mean ± `t`·se, where `t` is the two-sided 95% Student-t
/// quantile for `n − 1` degrees of freedom: at the small replicate counts
/// experiments actually use, the normal 1.96 would claim far more
/// precision than the data has. It collapses onto the mean for a single
/// replicate.
///
/// Curves are aligned by position, with the first curve fixing the slot
/// axis. Every later curve must repeat that axis exactly — a replicate
/// with a different length or different slots would silently be averaged
/// against the wrong slots, so the mismatch is recorded and reported as an
/// error by [`finish`](CurveAccumulator::finish).
///
/// ```
/// use simkit::{CurveAccumulator, TimeSeries, TimeSlot};
///
/// let mut acc = CurveAccumulator::new("reward");
/// for offset in [0.0, 2.0] {
///     let mut curve = TimeSeries::new("run");
///     for t in 0..3 {
///         curve.push(TimeSlot::new(t), t as f64 + offset);
///     }
///     acc.push_curve(&curve);
/// }
/// let summary = acc.finish()?;
/// assert_eq!(summary.replicates, 2);
/// assert_eq!(summary.mean.values().collect::<Vec<_>>(), vec![1.0, 2.0, 3.0]);
/// # Ok::<(), simkit::SimkitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CurveAccumulator {
    name: String,
    slots: Vec<crate::time::TimeSlot>,
    stats: Vec<RunningStats>,
    replicates: usize,
    mismatched: bool,
}

impl CurveAccumulator {
    /// Creates an empty accumulator for curves summarized under `name`.
    pub fn new(name: impl Into<String>) -> Self {
        CurveAccumulator {
            name: name.into(),
            slots: Vec::new(),
            stats: Vec::new(),
            replicates: 0,
            mismatched: false,
        }
    }

    /// Folds one replicate curve into the per-slot statistics.
    ///
    /// The first curve fixes the slot axis; every later curve must have
    /// the identical axis (same length, same slots). A mismatched curve —
    /// e.g. a longer replicate whose tail would silently be dropped, or
    /// equal-length curves sampled at different slots — is detected here
    /// and turns [`finish`](CurveAccumulator::finish) into an error.
    pub fn push_curve(&mut self, curve: &TimeSeries) {
        if self.replicates == 0 {
            self.slots = curve.iter().map(|p| p.slot).collect();
            self.stats = vec![RunningStats::new(); curve.len()];
        } else if curve.len() != self.stats.len()
            || curve.iter().zip(&self.slots).any(|(p, s)| p.slot != *s)
        {
            self.mismatched = true;
        }
        for (stat, v) in self.stats.iter_mut().zip(curve.values()) {
            stat.push(v);
        }
        self.replicates += 1;
    }

    /// Curves folded in so far.
    pub fn replicates(&self) -> usize {
        self.replicates
    }

    /// Finishes the aggregation into mean/CI band curves.
    ///
    /// # Errors
    ///
    /// Returns [`SimkitError::Empty`] when no curve was pushed or any
    /// pushed curve had no samples, and [`SimkitError::Mismatch`] when any
    /// pushed curve disagreed with the first curve's slot axis.
    pub fn finish(&self) -> Result<CurveSummary, SimkitError> {
        if self.replicates == 0 {
            return Err(SimkitError::Empty { what: "curves" });
        }
        if self.mismatched {
            return Err(SimkitError::Mismatch {
                what: "curve slot axes",
            });
        }
        if self.stats.is_empty() {
            return Err(SimkitError::Empty {
                what: "curve samples",
            });
        }
        let len = self.stats.len();
        let mut mean = TimeSeries::with_capacity(format!("{} (mean)", self.name), len);
        let mut lo = TimeSeries::with_capacity(format!("{} (ci lo)", self.name), len);
        let mut hi = TimeSeries::with_capacity(format!("{} (ci hi)", self.name), len);
        let t_mult = t_quantile_975(self.replicates.saturating_sub(1) as u64);
        for (&slot, stats) in self.slots.iter().zip(&self.stats) {
            let m = stats.mean();
            let half = if stats.count() >= 2 {
                t_mult * (stats.sample_variance() / stats.count() as f64).sqrt()
            } else {
                0.0
            };
            mean.push(slot, m);
            lo.push(slot, m - half);
            hi.push(slot, m + half);
        }
        Ok(CurveSummary {
            replicates: self.replicates,
            mean,
            lo,
            hi,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeSlot;

    #[test]
    fn welford_matches_naive() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64 * 0.37).collect();
        let s: RunningStats = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.population_variance() - var).abs() < 1e-9);
        assert_eq!(s.min(), Some(0.37));
        assert_eq!(s.max(), Some(37.0));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn non_finite_samples_ignored() {
        let mut s = RunningStats::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let ys: Vec<f64> = (0..70).map(|i| (i as f64).cos() * 5.0).collect();
        let mut a: RunningStats = xs.iter().copied().collect();
        let b: RunningStats = ys.iter().copied().collect();
        a.merge(&b);
        let all: RunningStats = xs.iter().chain(ys.iter()).copied().collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_sides() {
        let xs: RunningStats = [1.0, 2.0, 3.0].into_iter().collect();
        let mut empty = RunningStats::new();
        empty.merge(&xs);
        assert_eq!(empty.count(), 3);
        let mut full = xs;
        full.merge(&RunningStats::new());
        assert_eq!(full.count(), 3);
    }

    fn curve(values: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new("c");
        for (i, v) in values.iter().enumerate() {
            s.push(TimeSlot::new(i as u64), *v);
        }
        s
    }

    /// Folds `curves` into a fresh accumulator and finishes it.
    fn fold(curves: &[&TimeSeries]) -> Result<CurveSummary, SimkitError> {
        let mut acc = CurveAccumulator::new("x");
        for c in curves {
            acc.push_curve(c);
        }
        acc.finish()
    }

    #[test]
    fn accumulator_mean_and_band() {
        let a = curve(&[1.0, 2.0, 3.0]);
        let b = curve(&[3.0, 4.0, 5.0]);
        let s = fold(&[&a, &b]).unwrap();
        assert_eq!(s.replicates, 2);
        assert_eq!(s.mean.values().collect::<Vec<_>>(), vec![2.0, 3.0, 4.0]);
        assert_eq!(s.final_mean(), 4.0);
        // se = sd/sqrt(2) = 1; half-width = t_{0.975, df=1} = 12.706.
        assert!((s.final_ci_half_width() - 12.706).abs() < 1e-9);
        let hi: Vec<f64> = s.hi.values().collect();
        let lo: Vec<f64> = s.lo.values().collect();
        assert!(hi.iter().zip(&lo).all(|(h, l)| h >= l));
    }

    #[test]
    fn summarize_single_replicate_collapses_band() {
        let a = curve(&[1.0, 2.0]);
        let s = fold(&[&a]).unwrap();
        assert_eq!(s.final_ci_half_width(), 0.0);
        for edge in [&s.lo, &s.hi] {
            assert_eq!(edge.values().collect::<Vec<_>>(), vec![1.0, 2.0]);
        }
    }

    #[test]
    fn t_quantiles_shrink_toward_z() {
        assert_eq!(t_quantile_975(0), f64::INFINITY);
        assert!((t_quantile_975(1) - 12.706).abs() < 1e-9);
        assert!((t_quantile_975(4) - 2.776).abs() < 1e-9);
        assert!((t_quantile_975(30) - 2.042).abs() < 1e-9);
        assert_eq!(t_quantile_975(1000), 1.96);
        // Monotone non-increasing in df.
        for df in 1..40 {
            assert!(t_quantile_975(df + 1) <= t_quantile_975(df));
        }
    }

    #[test]
    fn summarize_rejects_mismatched_axes() {
        // A shorter later curve would average the wrong slots together.
        let a = curve(&[1.0, 2.0, 3.0]);
        let b = curve(&[1.0, 2.0]);
        let err = SimkitError::Mismatch {
            what: "curve slot axes",
        };
        assert_eq!(fold(&[&a, &b]), Err(err.clone()));
        // A *longer* later curve used to silently drop its tail.
        assert_eq!(fold(&[&b, &a]), Err(err.clone()));
        // Equal lengths sampled at different slots are just as wrong.
        let mut shifted = TimeSeries::new("c");
        for (i, v) in [1.0, 2.0, 3.0].iter().enumerate() {
            shifted.push(TimeSlot::new(10 + i as u64), *v);
        }
        assert_eq!(fold(&[&a, &shifted]), Err(err));
    }

    #[test]
    fn accumulator_rejects_empty_input() {
        let acc = CurveAccumulator::new("x");
        assert_eq!(acc.replicates(), 0);
        assert!(acc.finish().is_err());
        let mut acc = CurveAccumulator::new("x");
        acc.push_curve(&TimeSeries::new("e"));
        assert_eq!(acc.replicates(), 1);
        assert!(acc.finish().is_err());
    }

    #[test]
    fn summarize_rejects_empty() {
        assert_eq!(fold(&[]), Err(SimkitError::Empty { what: "curves" }));
        let empty = TimeSeries::new("e");
        assert_eq!(
            fold(&[&empty]),
            Err(SimkitError::Empty {
                what: "curve samples"
            })
        );
    }

    #[test]
    fn summary_display() {
        let s: RunningStats = [1.0, 2.0, 3.0].into_iter().collect();
        let text = s.summary().to_string();
        assert!(text.contains("n=3"));
        assert!(text.contains("mean=2.0000"));
        assert!(text.contains("min=1.0000"));
    }

    #[test]
    fn empty_summary_has_no_nan() {
        // Regression: an empty channel's summary carried NaN min/max,
        // which poisoned Display output and JSON artifacts.
        let s = RunningStats::new().summary();
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        let text = s.to_string();
        assert!(text.contains("min=n/a max=n/a"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }
}
