//! Backlog and virtual queues with the standard Lyapunov update dynamics.

use serde::{Deserialize, Serialize};

/// A non-negative backlog queue with dynamics
/// `Q[t+1] = max(Q[t] − departures, 0) + arrivals`.
///
/// In the paper this models the accumulated latency of user-vehicle requests
/// waiting at an RSU (Eq. 4's `Q[t]`).
///
/// ```
/// use lyapunov::Queue;
/// let mut q = Queue::with_backlog(2.0);
/// q.step(3.0, 1.0); // serve 1 from the backlog, then admit 3 arrivals
/// assert_eq!(q.backlog(), 4.0);
/// q.step(0.0, 5.0); // over-service clamps at zero
/// assert_eq!(q.backlog(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Queue {
    backlog: f64,
}

impl Queue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Queue::default()
    }

    /// Creates a queue with an initial backlog.
    ///
    /// # Panics
    ///
    /// Panics if `backlog` is negative or non-finite.
    pub fn with_backlog(backlog: f64) -> Self {
        assert!(
            backlog.is_finite() && backlog >= 0.0,
            "initial backlog must be finite and non-negative"
        );
        Queue { backlog }
    }

    /// Current backlog `Q[t]`.
    pub fn backlog(&self) -> f64 {
        self.backlog
    }

    /// Applies one slot of dynamics: serve then admit.
    ///
    /// Returns the amount actually drained (≤ `departures`).
    ///
    /// # Panics
    ///
    /// Panics if `arrivals`/`departures` are negative or non-finite.
    pub fn step(&mut self, arrivals: f64, departures: f64) -> f64 {
        assert!(
            arrivals.is_finite() && arrivals >= 0.0,
            "arrivals must be finite and non-negative"
        );
        assert!(
            departures.is_finite() && departures >= 0.0,
            "departures must be finite and non-negative"
        );
        let drained = departures.min(self.backlog);
        self.backlog = (self.backlog - departures).max(0.0) + arrivals;
        drained
    }
}

/// A virtual queue enforcing a time-average constraint `E[y] ≤ 0` via
/// `Z[t+1] = max(Z[t] + y[t], 0)`.
///
/// The paper's AoI requirement (`Σ A(α[t]) ≤ A^max`) is enforced this way in
/// the extended controller: `y[t] = A(α[t]) − A^max`.
///
/// ```
/// use lyapunov::VirtualQueue;
/// let mut z = VirtualQueue::new();
/// z.step(2.0);  // violation
/// z.step(-5.0); // over-satisfaction clamps at zero
/// assert_eq!(z.value(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VirtualQueue {
    value: f64,
    steps: u64,
}

impl VirtualQueue {
    /// Creates a zero virtual queue.
    pub fn new() -> Self {
        VirtualQueue::default()
    }

    /// Current queue value `Z[t]`.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Applies `Z ← max(Z + violation, 0)`.
    ///
    /// # Panics
    ///
    /// Panics if `violation` is non-finite.
    pub fn step(&mut self, violation: f64) {
        assert!(violation.is_finite(), "violation must be finite");
        self.value = (self.value + violation).max(0.0);
        self.steps += 1;
    }

    /// `Z[T] / T` — tends to zero iff the time-average constraint is met.
    pub fn rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.value / self.steps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_dynamics_match_max_formula() {
        let mut q = Queue::new();
        q.step(5.0, 0.0);
        assert_eq!(q.backlog(), 5.0);
        let drained = q.step(1.0, 3.0);
        assert_eq!(drained, 3.0);
        assert_eq!(q.backlog(), 3.0);
        let drained = q.step(0.0, 10.0);
        assert_eq!(drained, 3.0, "cannot drain more than the backlog");
        assert_eq!(q.backlog(), 0.0);
    }

    #[test]
    fn queue_serve_then_admit_ordering() {
        // Arrivals of the same slot cannot be served in that slot.
        let mut q = Queue::new();
        q.step(4.0, 4.0);
        assert_eq!(q.backlog(), 4.0);
    }

    #[test]
    fn queue_accounting() {
        // The drained amounts `step` returns account for every unit of work
        // that left: initial backlog + arrivals = final backlog + drained.
        let mut q = Queue::with_backlog(2.0);
        let drained = q.step(3.0, 1.0) + q.step(0.0, 4.0);
        assert_eq!(drained, 5.0);
        assert_eq!(q.backlog(), 0.0);
    }

    #[test]
    fn stable_queue_rate_vanishes() {
        let mut q = Queue::new();
        for _ in 0..10_000 {
            q.step(1.0, 2.0);
        }
        assert!(q.backlog() / 10_000.0 < 1e-3);
    }

    #[test]
    fn overloaded_queue_rate_is_positive() {
        let mut q = Queue::new();
        for _ in 0..10_000 {
            q.step(2.0, 1.0);
        }
        assert!((q.backlog() / 10_000.0 - 1.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "arrivals")]
    fn queue_rejects_negative_arrivals() {
        Queue::new().step(-1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn queue_rejects_negative_initial() {
        let _ = Queue::with_backlog(-2.0);
    }

    #[test]
    fn virtual_queue_clamps_and_averages() {
        let mut z = VirtualQueue::new();
        z.step(3.0);
        assert_eq!(z.value(), 3.0);
        z.step(-1.0);
        assert_eq!(z.value(), 2.0);
        assert_eq!(z.rate(), 1.0, "Z[T] / T after two steps");
        z.step(-10.0);
        assert_eq!(z.value(), 0.0);
        assert_eq!(z.rate(), 0.0);
    }

    #[test]
    fn satisfied_constraint_keeps_rate_near_zero() {
        let mut z = VirtualQueue::new();
        for t in 0..10_000 {
            // Alternating violation averaging to -0.25.
            let y = if t % 2 == 0 { 0.5 } else { -1.0 };
            z.step(y);
        }
        assert!(z.rate() < 1e-3);
    }
}
