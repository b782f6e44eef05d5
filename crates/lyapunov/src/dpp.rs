//! Drift-plus-penalty decision rule (the paper's Eq. 5).

use crate::LyapunovError;
use serde::{Deserialize, Serialize};

/// One candidate decision `α`, described by its penalty `C(α)` and the
/// departures (service) `b(α)` it produces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionOption {
    /// Penalty / communication cost `C(α)` of taking this decision.
    pub cost: f64,
    /// Departure (processing speed) `b(α)` this decision drains from the
    /// backlog queue.
    pub service: f64,
}

impl DecisionOption {
    /// Convenience constructor.
    pub fn new(cost: f64, service: f64) -> Self {
        DecisionOption { cost, service }
    }
}

/// A candidate decision for the multi-queue rule: a penalty plus one service
/// (or constraint-violation, for virtual queues) term per queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedOption {
    /// Penalty of taking this decision.
    pub cost: f64,
    /// Per-queue drift terms: positive values *drain* the corresponding
    /// queue (service); negative values grow it (violations).
    pub services: Vec<f64>,
}

/// The drift-plus-penalty controller of Lyapunov optimization.
///
/// Each slot it selects, from a finite decision set,
///
/// ```text
/// α*[t] = argmin_α  V · C(α) − Q[t] · b(α)          (paper Eq. 5)
/// ```
///
/// The tradeoff coefficient `V ≥ 0` buys lower time-average cost at the
/// price of a linearly larger time-average backlog (`O(1/V)` cost gap,
/// `O(V)` queue).
///
/// ```
/// use lyapunov::{DriftPlusPenalty, DecisionOption};
///
/// let dpp = DriftPlusPenalty::new(10.0).unwrap();
/// let idle = DecisionOption::new(0.0, 0.0);
/// let serve = DecisionOption::new(1.0, 2.0);
///
/// // Empty queue: minimizing V·C alone picks the free idle decision.
/// assert_eq!(dpp.decide(0.0, &[idle, serve]).unwrap(), 0);
/// // Huge backlog: the −Q·b term dominates and the controller serves.
/// assert_eq!(dpp.decide(1e6, &[idle, serve]).unwrap(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftPlusPenalty {
    v: f64,
}

impl DriftPlusPenalty {
    /// Creates a controller with tradeoff coefficient `v`.
    ///
    /// # Errors
    ///
    /// Returns [`LyapunovError::BadParameter`] if `v` is negative or
    /// non-finite.
    pub fn new(v: f64) -> Result<Self, LyapunovError> {
        if !v.is_finite() || v < 0.0 {
            return Err(LyapunovError::BadParameter {
                what: "V",
                valid: ">= 0 and finite",
            });
        }
        Ok(DriftPlusPenalty { v })
    }

    /// The tradeoff coefficient `V`.
    pub fn v(&self) -> f64 {
        self.v
    }

    /// Picks `argmin_α V·cost(α) − queue·service(α)`; ties break to the
    /// lowest index (by convention the "cheapest"/idle decision first).
    ///
    /// The options are read in place: any `Copy` menu entry that converts
    /// into a [`DecisionOption`] (such as a caller's service level) is
    /// accepted without building a `DecisionOption` slice first.
    ///
    /// # Errors
    ///
    /// Returns [`LyapunovError::NoDecisions`] for an empty option set and
    /// [`LyapunovError::BadQuantity`] for a negative/non-finite backlog.
    pub fn decide<O>(&self, queue: f64, options: &[O]) -> Result<usize, LyapunovError>
    where
        O: Copy + Into<DecisionOption>,
    {
        if options.is_empty() {
            return Err(LyapunovError::NoDecisions);
        }
        if !queue.is_finite() || queue < 0.0 {
            return Err(LyapunovError::BadQuantity { what: "queue" });
        }
        let mut best = 0;
        let mut best_obj = f64::INFINITY;
        for (i, &opt) in options.iter().enumerate() {
            let opt: DecisionOption = opt.into();
            let obj = self.v * opt.cost - queue * opt.service;
            if obj < best_obj {
                best_obj = obj;
                best = i;
            }
        }
        Ok(best)
    }

    /// Multi-queue rule: `argmin_α V·cost(α) − Σ_j Q_j·service_j(α)`.
    ///
    /// Virtual queues enforcing time-average constraints enter with their
    /// violation as a *negative* service.
    ///
    /// # Errors
    ///
    /// Returns [`LyapunovError::NoDecisions`] for an empty option set,
    /// [`LyapunovError::BadQuantity`] for invalid queue values, and
    /// [`LyapunovError::BadParameter`] if an option's service vector length
    /// differs from the queue vector length.
    pub fn decide_weighted(
        &self,
        queues: &[f64],
        options: &[WeightedOption],
    ) -> Result<usize, LyapunovError> {
        if options.is_empty() {
            return Err(LyapunovError::NoDecisions);
        }
        if queues.iter().any(|q| !q.is_finite() || *q < 0.0) {
            return Err(LyapunovError::BadQuantity { what: "queue" });
        }
        let mut best = 0;
        let mut best_obj = f64::INFINITY;
        for (i, opt) in options.iter().enumerate() {
            if opt.services.len() != queues.len() {
                return Err(LyapunovError::BadParameter {
                    what: "services length",
                    valid: "one service term per queue",
                });
            }
            let drift: f64 = queues.iter().zip(&opt.services).map(|(q, s)| q * s).sum();
            let obj = self.v * opt.cost - drift;
            if obj < best_obj {
                best_obj = obj;
                best = i;
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_serve() -> [DecisionOption; 2] {
        [DecisionOption::new(0.0, 0.0), DecisionOption::new(1.0, 2.0)]
    }

    #[test]
    fn empty_queue_minimizes_cost() {
        // Paper sanity check 1: Q[t] = 0 => pure cost minimization (idle).
        let dpp = DriftPlusPenalty::new(5.0).unwrap();
        assert_eq!(dpp.decide(0.0, &idle_serve()).unwrap(), 0);
    }

    #[test]
    fn saturated_queue_maximizes_service() {
        // Paper sanity check 2: Q[t] ≈ ∞ => maximize b(α).
        let dpp = DriftPlusPenalty::new(5.0).unwrap();
        assert_eq!(dpp.decide(1e9, &idle_serve()).unwrap(), 1);
    }

    #[test]
    fn threshold_is_v_cost_over_service() {
        // With options (0,0) and (c,b), serving wins iff Q > V*c/b.
        let v = 10.0;
        let dpp = DriftPlusPenalty::new(v).unwrap();
        let opts = [DecisionOption::new(0.0, 0.0), DecisionOption::new(3.0, 2.0)];
        let threshold = v * 3.0 / 2.0;
        assert_eq!(dpp.decide(threshold - 0.1, &opts).unwrap(), 0);
        assert_eq!(dpp.decide(threshold + 0.1, &opts).unwrap(), 1);
    }

    #[test]
    fn larger_v_waits_longer() {
        let opts = idle_serve();
        let q = 30.0;
        let low_v = DriftPlusPenalty::new(1.0).unwrap();
        let high_v = DriftPlusPenalty::new(1_000.0).unwrap();
        assert_eq!(low_v.decide(q, &opts).unwrap(), 1);
        assert_eq!(high_v.decide(q, &opts).unwrap(), 0);
    }

    #[test]
    fn v_zero_is_pure_drift_minimization() {
        let dpp = DriftPlusPenalty::new(0.0).unwrap();
        // Any positive backlog immediately serves, regardless of cost.
        let opts = [
            DecisionOption::new(0.0, 0.0),
            DecisionOption::new(99.0, 0.5),
        ];
        assert_eq!(dpp.decide(1.0, &opts).unwrap(), 1);
    }

    #[test]
    fn larger_v_trades_queue_for_cost() {
        // The O(1/V) cost / O(V) backlog tradeoff on one fixed workload.
        let options = [
            DecisionOption::new(0.0, 0.0),
            DecisionOption::new(0.5, 1.0),
            DecisionOption::new(2.0, 3.0),
        ];
        let run = |v: f64| {
            let dpp = DriftPlusPenalty::new(v).unwrap();
            let mut queue = crate::Queue::new();
            let (mut cost, mut backlog) = (0.0, 0.0);
            for _ in 0..20_000 {
                let chosen = options[dpp.decide(queue.backlog(), &options).unwrap()];
                queue.step(0.8, chosen.service);
                cost += chosen.cost;
                backlog += queue.backlog();
            }
            (cost / 20_000.0, backlog / 20_000.0)
        };
        let (cost_low_v, queue_low_v) = run(1.0);
        let (cost_high_v, queue_high_v) = run(200.0);
        assert!(
            cost_high_v <= cost_low_v + 1e-9,
            "cost {cost_high_v} vs {cost_low_v}"
        );
        assert!(
            queue_high_v > queue_low_v,
            "queue {queue_high_v} vs {queue_low_v}"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(DriftPlusPenalty::new(-1.0).is_err());
        assert!(DriftPlusPenalty::new(f64::NAN).is_err());
        let dpp = DriftPlusPenalty::new(1.0).unwrap();
        assert!(matches!(
            dpp.decide::<DecisionOption>(0.0, &[]),
            Err(LyapunovError::NoDecisions)
        ));
        assert!(dpp.decide(-1.0, &idle_serve()).is_err());
        assert!(dpp.decide(f64::NAN, &idle_serve()).is_err());
    }

    #[test]
    fn ties_break_low() {
        let dpp = DriftPlusPenalty::new(1.0).unwrap();
        let opts = [DecisionOption::new(1.0, 1.0), DecisionOption::new(1.0, 1.0)];
        assert_eq!(dpp.decide(3.0, &opts).unwrap(), 0);
    }

    #[test]
    fn weighted_combines_queues() {
        let dpp = DriftPlusPenalty::new(1.0).unwrap();
        let opts = [
            WeightedOption {
                cost: 0.0,
                services: vec![0.0, 0.0],
            },
            WeightedOption {
                cost: 1.0,
                services: vec![2.0, -0.5], // serves queue 0, violates queue 1
            },
        ];
        // Queue 1 pressure large: violation dominates, stay idle.
        assert_eq!(dpp.decide_weighted(&[1.0, 100.0], &opts).unwrap(), 0);
        // Queue 0 pressure large: service dominates.
        assert_eq!(dpp.decide_weighted(&[100.0, 1.0], &opts).unwrap(), 1);
    }

    #[test]
    fn weighted_validates_lengths() {
        let dpp = DriftPlusPenalty::new(1.0).unwrap();
        let opts = [WeightedOption {
            cost: 0.0,
            services: vec![0.0],
        }];
        assert!(dpp.decide_weighted(&[1.0, 2.0], &opts).is_err());
        assert!(dpp.decide_weighted(&[], &[]).is_err());
    }

    #[test]
    fn accessor() {
        assert_eq!(DriftPlusPenalty::new(7.5).unwrap().v(), 7.5);
    }
}
