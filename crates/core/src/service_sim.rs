//! Stage-2 simulator: delay-aware content service (the paper's Fig. 1b).
//!
//! One RSU queue under Poisson request arrivals; a [`ServicePolicy`] picks a
//! service level each slot. All policies compared on a scenario face the
//! **identical arrival trace** (drawn once from the scenario seed), so
//! differences are purely due to the decision rule.

use crate::engine::RsuServiceEngine;
use crate::service::{ServiceLevel, ServicePolicy, ServicePolicyKind};
use crate::AoiCacheError;
use lyapunov::analysis::{check_stability, StabilityVerdict};
use serde::{Deserialize, Serialize};
use simkit::{sample_poisson, SeedSequence, SlotClock, TimeSeries};

/// Configuration of a stage-2 service-control experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceScenario {
    /// Mean request arrivals per slot (Poisson); ignored when
    /// `external_arrivals` is set.
    pub arrival_rate: f64,
    /// The service-level menu.
    pub levels: Vec<ServiceLevel>,
    /// Lyapunov tradeoff coefficient used by the proposed policy.
    pub v: f64,
    /// Simulation length in slots (the paper runs 1000).
    pub horizon: usize,
    /// Initial backlog.
    pub initial_backlog: f64,
    /// Root seed for the arrival trace.
    pub seed: u64,
    /// Externally supplied per-slot arrivals (e.g. one RSU's stream from a
    /// recorded [`vanet::RequestTrace`]); overrides the Poisson process and
    /// the horizon is clamped to its length.
    pub external_arrivals: Option<Vec<f64>>,
}

impl Default for ServiceScenario {
    /// Fig. 1b setup: moderate load against the standard three-level menu.
    fn default() -> Self {
        ServiceScenario {
            arrival_rate: 0.9,
            levels: ServiceLevel::standard_menu(),
            v: 20.0,
            horizon: 1000,
            initial_backlog: 0.0,
            seed: 11,
            external_arrivals: None,
        }
    }
}

impl ServiceScenario {
    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadParameter`] for invalid settings.
    pub fn validate(&self) -> Result<(), AoiCacheError> {
        if !self.arrival_rate.is_finite() || self.arrival_rate < 0.0 {
            return Err(AoiCacheError::BadParameter {
                what: "arrival_rate",
                valid: ">= 0 and finite",
            });
        }
        ServiceLevel::validate_menu(&self.levels)?;
        if self.horizon == 0 {
            return Err(AoiCacheError::BadParameter {
                what: "horizon",
                valid: ">= 1",
            });
        }
        if !self.initial_backlog.is_finite() || self.initial_backlog < 0.0 {
            return Err(AoiCacheError::BadParameter {
                what: "initial_backlog",
                valid: ">= 0 and finite",
            });
        }
        if let Some(trace) = &self.external_arrivals {
            if trace.is_empty() {
                return Err(AoiCacheError::BadParameter {
                    what: "external_arrivals",
                    valid: "non-empty when set",
                });
            }
            if trace.iter().any(|a| !a.is_finite() || *a < 0.0) {
                return Err(AoiCacheError::BadParameter {
                    what: "external_arrivals",
                    valid: ">= 0 and finite",
                });
            }
        }
        Ok(())
    }

    /// The arrival trace all policies share: the external trace when set
    /// (clamped to the horizon), otherwise Poisson draws deterministic in
    /// the seed.
    pub fn arrival_trace(&self) -> Vec<f64> {
        if let Some(trace) = &self.external_arrivals {
            return trace.iter().copied().take(self.horizon).collect();
        }
        let mut seeds = SeedSequence::new(self.seed);
        let mut rng = seeds.rng("arrivals");
        (0..self.horizon)
            .map(|_| sample_poisson(self.arrival_rate, &mut rng) as f64)
            .collect()
    }
}

/// Everything measured in one stage-2 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceRunReport {
    /// Label of the policy that produced this run.
    pub policy: String,
    /// Backlog `Q[t]` after each slot (the paper's Fig. 1b curve).
    pub queue: TimeSeries,
    /// Cost incurred each slot.
    pub cost: TimeSeries,
    /// Time-average backlog.
    pub mean_queue: f64,
    /// Time-average cost.
    pub mean_cost: f64,
    /// Total requests served.
    pub total_served: f64,
    /// How often each service level was chosen.
    pub level_counts: Vec<u64>,
    /// Rate-stability verdict of the backlog trajectory.
    pub stability: StabilityVerdict,
}

/// Runs one policy on the scenario.
///
/// # Errors
///
/// Propagates scenario validation and policy-construction errors.
pub fn run_service(
    scenario: &ServiceScenario,
    kind: ServicePolicyKind,
) -> Result<ServiceRunReport, AoiCacheError> {
    scenario.validate()?;
    let policy = kind.build()?;
    run_service_with(scenario, policy)
}

/// Runs a caller-constructed policy on the scenario.
///
/// # Errors
///
/// Propagates scenario validation errors.
pub fn run_service_with(
    scenario: &ServiceScenario,
    policy: Box<dyn ServicePolicy>,
) -> Result<ServiceRunReport, AoiCacheError> {
    scenario.validate()?;
    let arrivals = scenario.arrival_trace();
    let mut seeds = SeedSequence::new(scenario.seed);
    let _ = seeds.rng("arrivals");
    let mut rng = seeds.rng("policy");

    let name = policy.name().to_string();
    let mut engine = RsuServiceEngine::with_backlog(policy, scenario.initial_backlog);
    let mut clock = SlotClock::new();
    let mut queue_series = TimeSeries::with_capacity("queue", scenario.horizon);
    let mut cost_series = TimeSeries::with_capacity("cost", scenario.horizon);
    let mut level_counts = vec![0u64; scenario.levels.len()];
    let mut cost_sum = 0.0;
    let mut queue_sum = 0.0;
    let mut served = 0.0;

    for a in &arrivals {
        let now = clock.now();
        let decision = engine.decide(now, &scenario.levels, &mut rng)?;
        let level = scenario.levels[decision];
        served += engine.apply(*a, level);
        level_counts[decision] += 1;
        cost_sum += level.cost;
        queue_sum += engine.backlog();
        queue_series.push(now, engine.backlog());
        cost_series.push(now, level.cost);
        clock.tick();
    }

    let effective_horizon = arrivals.len().max(1) as f64;
    let backlogs: Vec<f64> = queue_series.values().collect();
    Ok(ServiceRunReport {
        policy: name,
        stability: check_stability(&backlogs, 0.05),
        queue: queue_series,
        cost: cost_series,
        mean_queue: queue_sum / effective_horizon,
        mean_cost: cost_sum / effective_horizon,
        total_served: served,
        level_counts,
    })
}

/// Runs several policies on the identical arrival trace (the paper's
/// Fig. 1b comparison of the proposed rule against two baselines).
///
/// # Errors
///
/// Propagates per-run errors.
pub fn compare_service(
    scenario: &ServiceScenario,
    kinds: &[ServicePolicyKind],
) -> Result<Vec<ServiceRunReport>, AoiCacheError> {
    kinds.iter().map(|k| run_service(scenario, *k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> ServiceScenario {
        ServiceScenario {
            horizon: 2000,
            ..ServiceScenario::default()
        }
    }

    #[test]
    fn arrival_trace_is_deterministic_and_plausible() {
        let s = scenario();
        let a = s.arrival_trace();
        let b = s.arrival_trace();
        assert_eq!(a, b);
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - s.arrival_rate).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn lyapunov_is_stable_under_feasible_load() {
        let report = run_service(&scenario(), ServicePolicyKind::Lyapunov { v: 20.0 }).unwrap();
        assert_eq!(report.stability, StabilityVerdict::Stable);
        assert_eq!(report.policy, "lyapunov");
    }

    #[test]
    fn cost_greedy_queue_blows_up() {
        let report = run_service(&scenario(), ServicePolicyKind::CostGreedy).unwrap();
        assert_eq!(report.stability, StabilityVerdict::Unstable);
        // Idle forever: nothing served, queue ≈ total arrivals.
        assert_eq!(report.total_served, 0.0);
    }

    #[test]
    fn always_serve_has_lowest_queue_and_highest_cost() {
        let s = scenario();
        let always = run_service(&s, ServicePolicyKind::AlwaysServe).unwrap();
        let lyap = run_service(&s, ServicePolicyKind::Lyapunov { v: 20.0 }).unwrap();
        assert!(always.mean_queue <= lyap.mean_queue + 1e-9);
        assert!(always.mean_cost >= lyap.mean_cost - 1e-9);
    }

    #[test]
    fn lyapunov_sits_between_extremes() {
        // The paper's point: the proposed rule trades off cost and latency
        // *between* the two extremes.
        let s = scenario();
        let reports = compare_service(
            &s,
            &[
                ServicePolicyKind::Lyapunov { v: 20.0 },
                ServicePolicyKind::AlwaysServe,
                ServicePolicyKind::CostGreedy,
            ],
        )
        .unwrap();
        let (lyap, always, greedy) = (&reports[0], &reports[1], &reports[2]);
        assert!(lyap.mean_cost < always.mean_cost);
        assert!(lyap.mean_queue < greedy.mean_queue);
        assert_eq!(lyap.queue.len(), s.horizon);
    }

    #[test]
    fn larger_v_lowers_cost_and_grows_queue() {
        let s = scenario();
        let small = run_service(&s, ServicePolicyKind::Lyapunov { v: 2.0 }).unwrap();
        let large = run_service(&s, ServicePolicyKind::Lyapunov { v: 200.0 }).unwrap();
        assert!(large.mean_cost <= small.mean_cost + 1e-9);
        assert!(large.mean_queue >= small.mean_queue);
    }

    #[test]
    fn level_counts_total_horizon() {
        let report = run_service(&scenario(), ServicePolicyKind::Periodic { period: 2 }).unwrap();
        assert_eq!(report.level_counts.iter().sum::<u64>(), 2000);
        // Half the slots at full rate.
        assert_eq!(report.level_counts[2], 1000);
    }

    #[test]
    fn external_arrival_trace_is_used_verbatim() {
        let mut s = scenario();
        s.external_arrivals = Some(vec![2.0; 500]);
        s.horizon = 500;
        assert_eq!(s.arrival_trace(), vec![2.0; 500]);
        let report = run_service(&s, ServicePolicyKind::AlwaysServe).unwrap();
        assert_eq!(report.queue.len(), 500);
        // Service rate 3 > arrivals 2: everything except the in-flight slot
        // gets served.
        assert!(report.total_served > 900.0);
    }

    #[test]
    fn external_trace_clamps_horizon() {
        let mut s = scenario();
        s.external_arrivals = Some(vec![1.0; 100]);
        s.horizon = 10_000;
        let report = run_service(&s, ServicePolicyKind::AlwaysServe).unwrap();
        assert_eq!(report.queue.len(), 100);
        assert!(
            (report.mean_cost - 2.0).abs() < 1e-9,
            "normalized by the trace length"
        );
    }

    #[test]
    fn external_trace_validation() {
        let mut s = scenario();
        s.external_arrivals = Some(vec![]);
        assert!(run_service(&s, ServicePolicyKind::AlwaysServe).is_err());
        let mut s = scenario();
        s.external_arrivals = Some(vec![-1.0]);
        assert!(run_service(&s, ServicePolicyKind::AlwaysServe).is_err());
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        let mut s = scenario();
        s.arrival_rate = -1.0;
        assert!(run_service(&s, ServicePolicyKind::AlwaysServe).is_err());
        let mut s = scenario();
        s.levels.clear();
        assert!(run_service(&s, ServicePolicyKind::AlwaysServe).is_err());
        let mut s = scenario();
        s.horizon = 0;
        assert!(run_service(&s, ServicePolicyKind::AlwaysServe).is_err());
        let mut s = scenario();
        s.initial_backlog = f64::NAN;
        assert!(run_service(&s, ServicePolicyKind::AlwaysServe).is_err());
        let mut s = scenario();
        s.levels[0].cost = -2.0;
        assert!(run_service(&s, ServicePolicyKind::AlwaysServe).is_err());
    }
}
