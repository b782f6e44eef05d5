//! AoI-constrained service control — the full Eq. 4 of the paper.
//!
//! The paper's stage-2 problem is
//!
//! ```text
//! min  lim (1/T) Σ C(α[t])
//! s.t. queue stability           (lim (1/T) Σ Q[t] < ∞)
//!      AoI requirement           (Σ_h A(α[t]) ≤ A^max_h)
//! ```
//!
//! Fig. 1b exercises the stability part; this module implements the AoI
//! requirement too, with the standard virtual-queue technique: a virtual
//! queue `Z[t]` accumulates the per-slot freshness violation
//! `y(α) = b(α)·(age(α) − A^target)` and joins the drift-plus-penalty
//! argmin, so the time-average served age provably meets the target
//! whenever it is feasible.
//!
//! Each slot the RSU chooses a service level **and a source**: the cached
//! copy (cheap, current cache age — a stage-1 sawtooth) or an MBS
//! fetch-through (surcharged, always fresh).

use crate::service::ServiceLevel;
use crate::AoiCacheError;
use lyapunov::analysis::{check_stability, StabilityVerdict};
use lyapunov::{DriftPlusPenalty, Queue, VirtualQueue, WeightedOption};
use serde::{Deserialize, Serialize};
use simkit::{sample_poisson, SeedSequence, SlotClock, TimeSeries};

/// Where a served request's content comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServingSource {
    /// The RSU's cached copy, at its current age.
    Cache,
    /// A fetch-through from the MBS: always age 1, surcharged.
    Mbs,
}

/// Configuration of an AoI-constrained service experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FreshnessScenario {
    /// Mean request arrivals per slot (Poisson).
    pub arrival_rate: f64,
    /// Base service-level menu (must include an idle level).
    pub levels: Vec<ServiceLevel>,
    /// Multiplicative surcharge for MBS-fresh serving
    /// (`cost × (1 + surcharge)`).
    pub mbs_surcharge: f64,
    /// The AoI requirement `A^target`: the time-average served age must not
    /// exceed this.
    pub age_target: f64,
    /// The cached copy's age cycles `1..=period` (a stage-1 refresh
    /// sawtooth).
    pub cache_refresh_period: u32,
    /// Lyapunov tradeoff coefficient.
    pub v: f64,
    /// Slots simulated.
    pub horizon: usize,
    /// Root seed for the arrival trace.
    pub seed: u64,
}

impl Default for FreshnessScenario {
    fn default() -> Self {
        FreshnessScenario {
            arrival_rate: 0.9,
            levels: ServiceLevel::standard_menu(),
            mbs_surcharge: 1.0,
            age_target: 3.0,
            cache_refresh_period: 8,
            v: 20.0,
            horizon: 5000,
            seed: 31,
        }
    }
}

impl FreshnessScenario {
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
        if !self.mbs_surcharge.is_finite() || self.mbs_surcharge < 0.0 {
            return Err(AoiCacheError::BadParameter {
                what: "mbs_surcharge",
                valid: ">= 0 and finite",
            });
        }
        if !self.age_target.is_finite() || self.age_target < 1.0 {
            return Err(AoiCacheError::BadParameter {
                what: "age_target",
                valid: ">= 1 (ages are >= 1)",
            });
        }
        if self.cache_refresh_period == 0 {
            return Err(AoiCacheError::BadParameter {
                what: "cache_refresh_period",
                valid: ">= 1",
            });
        }
        if self.horizon == 0 {
            return Err(AoiCacheError::BadParameter {
                what: "horizon",
                valid: ">= 1",
            });
        }
        Ok(())
    }

    /// Mean cache age over one refresh cycle: `(period + 1) / 2`.
    pub fn mean_cache_age(&self) -> f64 {
        f64::from(self.cache_refresh_period + 1) / 2.0
    }
}

/// How the controller is allowed to source content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SourcingMode {
    /// Full menu: cache and MBS variants of every level (the proposed
    /// controller).
    Adaptive,
    /// Cache only (violates the age target when the cache cycle is long).
    CacheOnly,
    /// MBS only (always fresh, maximally expensive).
    MbsOnly,
}

impl SourcingMode {
    /// Short display label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            SourcingMode::Adaptive => "adaptive",
            SourcingMode::CacheOnly => "cache-only",
            SourcingMode::MbsOnly => "mbs-only",
        }
    }
}

/// Everything measured in one AoI-constrained run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FreshnessReport {
    /// Sourcing mode of the run.
    pub mode: SourcingMode,
    /// Backlog trajectory.
    pub queue: TimeSeries,
    /// Virtual (freshness) queue trajectory.
    pub virtual_queue: TimeSeries,
    /// Time-average cost.
    pub mean_cost: f64,
    /// Time-average backlog.
    pub mean_queue: f64,
    /// Requests served from the cache.
    pub served_cache: f64,
    /// Requests served via MBS fetch-through.
    pub served_mbs: f64,
    /// Request-weighted mean served age.
    pub mean_served_age: f64,
    /// Rate-stability verdict of the backlog.
    pub stability: StabilityVerdict,
    /// Whether the freshness virtual queue is rate-stable (the constraint
    /// holds in time average).
    pub constraint_met: bool,
}

impl FreshnessReport {
    /// Fraction of served requests that needed an MBS fetch.
    pub fn mbs_fraction(&self) -> f64 {
        let total = self.served_cache + self.served_mbs;
        if total == 0.0 {
            0.0
        } else {
            self.served_mbs / total
        }
    }
}

/// Runs the AoI-constrained controller.
///
/// # Errors
///
/// Propagates scenario validation and controller errors.
pub fn run_freshness_service(
    scenario: &FreshnessScenario,
    mode: SourcingMode,
) -> Result<FreshnessReport, AoiCacheError> {
    scenario.validate()?;
    let dpp = DriftPlusPenalty::new(scenario.v)?;
    let mut seeds = SeedSequence::new(scenario.seed);
    let mut rng = seeds.rng("arrivals");

    let mut queue = Queue::new();
    let mut freshness = VirtualQueue::new();
    let mut clock = SlotClock::new();
    let mut queue_series = TimeSeries::with_capacity("queue", scenario.horizon);
    let mut z_series = TimeSeries::with_capacity("freshness debt", scenario.horizon);

    let mut cost_sum = 0.0;
    let mut queue_sum = 0.0;
    let mut served_cache = 0.0;
    let mut served_mbs = 0.0;
    let mut age_weighted = 0.0;

    // Candidate decisions rebuilt each slot (the cache age changes).
    #[derive(Clone, Copy)]
    struct Candidate {
        cost: f64,
        rate: f64,
        age: f64,
        source: ServingSource,
    }

    for t in 0..scenario.horizon {
        let now = clock.now();
        let cache_age = f64::from((t as u32 % scenario.cache_refresh_period) + 1);

        let mut candidates: Vec<Candidate> = Vec::new();
        for level in &scenario.levels {
            if level.rate == 0.0 {
                candidates.push(Candidate {
                    cost: level.cost,
                    rate: 0.0,
                    age: 0.0,
                    source: ServingSource::Cache,
                });
                continue;
            }
            if mode != SourcingMode::MbsOnly {
                candidates.push(Candidate {
                    cost: level.cost,
                    rate: level.rate,
                    age: cache_age,
                    source: ServingSource::Cache,
                });
            }
            if mode != SourcingMode::CacheOnly {
                candidates.push(Candidate {
                    cost: level.cost * (1.0 + scenario.mbs_surcharge),
                    rate: level.rate,
                    age: 1.0,
                    source: ServingSource::Mbs,
                });
            }
        }
        let options: Vec<WeightedOption> = candidates
            .iter()
            .map(|c| {
                // Price decisions by the *effective* drain min(b, Q): paying
                // for service capacity an empty queue cannot use would let
                // freshness pressure burn cost without reducing anything.
                let effective = c.rate.min(queue.backlog());
                WeightedOption {
                    cost: c.cost,
                    // Queue 0 (backlog): drained by the effective rate.
                    // Queue 1 (freshness): grown by b_eff·(age − target),
                    // i.e. "service" −y(α).
                    services: vec![effective, -(effective * (c.age - scenario.age_target))],
                }
            })
            .collect();

        // Only the adaptive controller sees the freshness debt; the
        // baselines run plain backlog-only drift-plus-penalty (they are
        // freshness-oblivious, which is the point of comparing them).
        let z_pressure = if mode == SourcingMode::Adaptive {
            freshness.value()
        } else {
            0.0
        };
        let chosen = candidates[dpp.decide_weighted(&[queue.backlog(), z_pressure], &options)?];

        let arrivals = sample_poisson(scenario.arrival_rate, &mut rng) as f64;
        let drained = queue.step(arrivals, chosen.rate);
        freshness.step(drained * (chosen.age - scenario.age_target));
        match chosen.source {
            ServingSource::Cache => served_cache += drained,
            ServingSource::Mbs => served_mbs += drained,
        }
        age_weighted += drained * chosen.age;
        cost_sum += chosen.cost;
        queue_sum += queue.backlog();
        queue_series.push(now, queue.backlog());
        z_series.push(now, freshness.value());
        clock.tick();
    }

    let horizon = scenario.horizon as f64;
    let total_served = served_cache + served_mbs;
    let backlogs: Vec<f64> = queue_series.values().collect();
    Ok(FreshnessReport {
        mode,
        stability: check_stability(&backlogs, 0.05),
        constraint_met: freshness.rate() < 0.05,
        queue: queue_series,
        virtual_queue: z_series,
        mean_cost: cost_sum / horizon,
        mean_queue: queue_sum / horizon,
        served_cache,
        served_mbs,
        mean_served_age: if total_served == 0.0 {
            0.0
        } else {
            age_weighted / total_served
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> FreshnessScenario {
        FreshnessScenario::default()
    }

    #[test]
    fn adaptive_controller_meets_age_target() {
        let s = scenario();
        // The cache cycle averages age 4.5 > target 3, so cache-only cannot
        // satisfy the requirement; the adaptive controller must mix MBS
        // fetches until the served-age average is at or under target.
        let report = run_freshness_service(&s, SourcingMode::Adaptive).unwrap();
        assert!(report.constraint_met, "virtual queue rate not vanishing");
        assert!(
            report.mean_served_age <= s.age_target + 0.25,
            "mean served age {} exceeds target {}",
            report.mean_served_age,
            s.age_target
        );
        assert_eq!(report.stability, StabilityVerdict::Stable);
        assert!(report.mbs_fraction() > 0.0, "must use some MBS fetches");
    }

    #[test]
    fn cache_only_violates_the_target() {
        let s = scenario();
        let report = run_freshness_service(&s, SourcingMode::CacheOnly).unwrap();
        assert!(
            report.mean_served_age > s.age_target,
            "cache-only mean age {} should exceed target {}",
            report.mean_served_age,
            s.age_target
        );
        assert!(!report.constraint_met);
        assert_eq!(report.mbs_fraction(), 0.0);
    }

    #[test]
    fn mbs_only_is_fresh_but_expensive() {
        let s = scenario();
        let adaptive = run_freshness_service(&s, SourcingMode::Adaptive).unwrap();
        let mbs = run_freshness_service(&s, SourcingMode::MbsOnly).unwrap();
        assert!((mbs.mean_served_age - 1.0).abs() < 1e-9);
        assert!(
            mbs.mean_cost >= adaptive.mean_cost,
            "mbs-only {} should cost at least adaptive {}",
            mbs.mean_cost,
            adaptive.mean_cost
        );
        assert_eq!(mbs.mbs_fraction(), 1.0);
    }

    #[test]
    fn freshness_premium_ordering() {
        // cache-only <= adaptive <= mbs-only on cost: freshness is paid for.
        let s = scenario();
        let cache = run_freshness_service(&s, SourcingMode::CacheOnly).unwrap();
        let adaptive = run_freshness_service(&s, SourcingMode::Adaptive).unwrap();
        let mbs = run_freshness_service(&s, SourcingMode::MbsOnly).unwrap();
        assert!(cache.mean_cost <= adaptive.mean_cost + 1e-9);
        assert!(adaptive.mean_cost <= mbs.mean_cost + 1e-9);
    }

    #[test]
    fn loose_target_needs_no_mbs() {
        let s = FreshnessScenario {
            age_target: 10.0, // above the worst cache age (period 8)
            ..scenario()
        };
        let report = run_freshness_service(&s, SourcingMode::Adaptive).unwrap();
        assert!(report.constraint_met);
        assert!(
            report.mbs_fraction() < 0.05,
            "no reason to pay the surcharge: {}",
            report.mbs_fraction()
        );
    }

    #[test]
    fn accounting_adds_up() {
        let s = scenario();
        let report = run_freshness_service(&s, SourcingMode::Adaptive).unwrap();
        let total = report.served_cache + report.served_mbs;
        // Everything served came out of the arrivals.
        assert!(total > 0.0);
        assert!(total <= s.arrival_rate * s.horizon as f64 * 1.2);
        assert_eq!(report.queue.len(), s.horizon);
        assert_eq!(report.virtual_queue.len(), s.horizon);
    }

    #[test]
    fn validation() {
        let mut s = scenario();
        s.age_target = 0.5;
        assert!(run_freshness_service(&s, SourcingMode::Adaptive).is_err());
        let mut s = scenario();
        s.cache_refresh_period = 0;
        assert!(run_freshness_service(&s, SourcingMode::Adaptive).is_err());
        let mut s = scenario();
        s.mbs_surcharge = -1.0;
        assert!(run_freshness_service(&s, SourcingMode::Adaptive).is_err());
        let mut s = scenario();
        s.levels.push(ServiceLevel::new(1.0, f64::INFINITY));
        assert!(run_freshness_service(&s, SourcingMode::Adaptive).is_err());
        assert_eq!(scenario().mean_cache_age(), 4.5);
        assert_eq!(SourcingMode::Adaptive.label(), "adaptive");
    }
}
