//! Discrete slotted time.
//!
//! All simulations in this workspace advance in unit **slots**; [`TimeSlot`]
//! is a newtype index of the current slot and [`SlotClock`] is the mutable
//! counter a simulation owns.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Index of a discrete simulation slot (0-based).
///
/// `TimeSlot` is a transparent `u64` newtype so that slot indices cannot be
/// confused with other integer quantities (ages, counts, ids).
///
/// ```
/// use simkit::TimeSlot;
/// let t = TimeSlot::ZERO + 3;
/// assert_eq!(t.index(), 3);
/// assert_eq!(t - TimeSlot::new(1), 2);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct TimeSlot(u64);

impl TimeSlot {
    /// The first slot.
    pub const ZERO: TimeSlot = TimeSlot(0);

    /// Creates a slot with the given 0-based index.
    pub const fn new(index: u64) -> Self {
        TimeSlot(index)
    }

    /// Returns the 0-based slot index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the next slot.
    #[must_use]
    pub const fn next(self) -> Self {
        TimeSlot(self.0 + 1)
    }
}

impl fmt::Display for TimeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl From<u64> for TimeSlot {
    fn from(index: u64) -> Self {
        TimeSlot(index)
    }
}

impl From<TimeSlot> for u64 {
    fn from(slot: TimeSlot) -> Self {
        slot.0
    }
}

impl Add<u64> for TimeSlot {
    type Output = TimeSlot;
    fn add(self, rhs: u64) -> TimeSlot {
        TimeSlot(self.0 + rhs)
    }
}

impl AddAssign<u64> for TimeSlot {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<TimeSlot> for TimeSlot {
    type Output = u64;
    /// Number of slots between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self` (underflow).
    fn sub(self, rhs: TimeSlot) -> u64 {
        self.0 - rhs.0
    }
}

/// A monotonically advancing slot counter owned by a simulation loop.
///
/// ```
/// use simkit::{SlotClock, TimeSlot};
/// let mut clock = SlotClock::new();
/// assert_eq!(clock.now(), TimeSlot::ZERO);
/// clock.tick();
/// clock.tick();
/// assert_eq!(clock.now().index(), 2);
/// assert_eq!(clock.elapsed(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SlotClock {
    now: TimeSlot,
}

impl SlotClock {
    /// Creates a clock at slot 0.
    pub fn new() -> Self {
        SlotClock::default()
    }

    /// The current slot.
    pub fn now(&self) -> TimeSlot {
        self.now
    }

    /// Advances the clock by one slot and returns the new current slot.
    pub fn tick(&mut self) -> TimeSlot {
        self.now = self.now.next();
        self.now
    }

    /// Number of slots elapsed since slot 0.
    pub fn elapsed(&self) -> u64 {
        self.now.index()
    }
}

/// A wall-clock stopwatch for throughput headlines.
///
/// Simulation *results* never depend on wall time (that invariant is
/// machine-checked by `aoi-lint`'s wall-clock rule, and this module is one
/// of the few places allowed to touch it). What benchmarks may report is
/// how fast a deterministic computation ran — `Stopwatch` measures exactly
/// that: elapsed real time around a workload, turned into an events/second
/// rate.
///
/// ```
/// let watch = simkit::Stopwatch::start();
/// let work: u64 = (0..10_000).sum();
/// assert!(work > 0);
/// assert!(watch.elapsed_seconds() >= 0.0);
/// assert!(watch.per_second(work) >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: std::time::Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: std::time::Instant::now(),
        }
    }

    /// Seconds elapsed since [`start`](Stopwatch::start).
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Events per second: `count` over the elapsed time, `0.0` if no time
    /// has measurably passed (never a division by zero).
    pub fn per_second(&self, count: u64) -> f64 {
        let seconds = self.elapsed_seconds();
        if seconds <= 0.0 {
            return 0.0;
        }
        count as f64 / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeslot_ordering_and_arithmetic() {
        let a = TimeSlot::new(5);
        let b = TimeSlot::new(8);
        assert!(a < b);
        assert_eq!(b - a, 3);
        assert_eq!(a + 3, b);
        assert_eq!(a.next(), TimeSlot::new(6));
    }

    #[test]
    fn timeslot_display() {
        assert_eq!(TimeSlot::new(7).to_string(), "t=7");
    }

    #[test]
    fn timeslot_conversions() {
        let t: TimeSlot = 9u64.into();
        assert_eq!(u64::from(t), 9);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SlotClock::new();
        let mut prev = c.now();
        for _ in 0..10 {
            let next = c.tick();
            assert!(next > prev);
            prev = next;
        }
        assert_eq!(c.elapsed(), 10);
    }

    #[test]
    fn add_assign_works() {
        let mut t = TimeSlot::ZERO;
        t += 4;
        assert_eq!(t.index(), 4);
    }
}
