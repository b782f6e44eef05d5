//! Content-service policies: the paper's Lyapunov drift-plus-penalty rule
//! (Eq. 5) and the two baseline extremes it is compared against in Fig. 1b.

use crate::AoiCacheError;
use lyapunov::{DecisionOption, DriftPlusPenalty};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use simkit::TimeSlot;

/// One service intensity an RSU can choose in a slot: a bandwidth cost
/// `C(α)` and the requests it serves `b(α)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceLevel {
    /// Communication cost of running at this level for one slot.
    pub cost: f64,
    /// Requests served (departures) at this level per slot.
    pub rate: f64,
}

impl ServiceLevel {
    /// Convenience constructor.
    pub fn new(cost: f64, rate: f64) -> Self {
        ServiceLevel { cost, rate }
    }

    /// A conventional three-level menu: idle (free), low (1 request at cost
    /// 0.5), high (3 requests at cost 2).
    pub fn standard_menu() -> Vec<ServiceLevel> {
        vec![
            ServiceLevel::new(0.0, 0.0),
            ServiceLevel::new(0.5, 1.0),
            ServiceLevel::new(2.0, 3.0),
        ]
    }

    /// Validates a service menu: at least one level, every cost and rate
    /// finite and non-negative. Every stage-2 driver checks its menu here
    /// before the first slot, so policies and the backlog queue may rely
    /// on it.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadParameter`] for an empty menu or a
    /// negative or non-finite cost or rate.
    pub fn validate_menu(levels: &[ServiceLevel]) -> Result<(), AoiCacheError> {
        if levels.is_empty() {
            return Err(AoiCacheError::BadParameter {
                what: "levels",
                valid: "non-empty",
            });
        }
        if levels
            .iter()
            .any(|l| !l.cost.is_finite() || l.cost < 0.0 || !l.rate.is_finite() || l.rate < 0.0)
        {
            return Err(AoiCacheError::BadParameter {
                what: "service levels",
                valid: ">= 0 and finite",
            });
        }
        Ok(())
    }
}

impl From<ServiceLevel> for DecisionOption {
    fn from(level: ServiceLevel) -> Self {
        DecisionOption::new(level.cost, level.rate)
    }
}

/// Everything a service policy may inspect when deciding.
#[derive(Debug, Clone, Copy)]
pub struct ServiceDecisionContext<'a> {
    /// Current slot.
    pub slot: TimeSlot,
    /// Current request backlog `Q[t]` of this RSU.
    pub backlog: f64,
    /// The available service levels.
    pub levels: &'a [ServiceLevel],
}

/// A per-RSU service decision rule: picks a service level each slot.
pub trait ServicePolicy: Send {
    /// Short display name (used in experiment tables).
    fn name(&self) -> &str;

    /// Picks the index of a level in `ctx.levels`.
    fn decide(&mut self, ctx: &ServiceDecisionContext<'_>, rng: &mut dyn RngCore) -> usize;
}

/// The paper's Eq. 5: `α* = argmin V·C(α) − Q[t]·b(α)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LyapunovServicePolicy {
    dpp: DriftPlusPenalty,
}

impl LyapunovServicePolicy {
    /// Creates the policy with tradeoff coefficient `v`.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::Controller`] if `v` is negative/non-finite.
    pub fn new(v: f64) -> Result<Self, AoiCacheError> {
        Ok(LyapunovServicePolicy {
            dpp: DriftPlusPenalty::new(v)?,
        })
    }

    /// The tradeoff coefficient.
    pub fn v(&self) -> f64 {
        self.dpp.v()
    }
}

impl ServicePolicy for LyapunovServicePolicy {
    fn name(&self) -> &str {
        "lyapunov"
    }

    fn decide(&mut self, ctx: &ServiceDecisionContext<'_>, _rng: &mut dyn RngCore) -> usize {
        self.dpp
            .decide(ctx.backlog, ctx.levels)
            // lint:allow(panic-hygiene): every driver passes a menu that
            // ServiceLevel::validate_menu accepted (non-empty), and the
            // backlog is its queue's own state (finite, non-negative).
            .expect("levels are non-empty and backlog is valid")
    }
}

/// Latency-greedy baseline: always run at the highest service rate
/// (cheapest on ties). Minimal delay, maximal cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlwaysServePolicy;

impl ServicePolicy for AlwaysServePolicy {
    fn name(&self) -> &str {
        "always-serve"
    }

    fn decide(&mut self, ctx: &ServiceDecisionContext<'_>, _rng: &mut dyn RngCore) -> usize {
        let mut best = 0;
        for (i, l) in ctx.levels.iter().enumerate() {
            let b = ctx.levels[best];
            if l.rate > b.rate || (l.rate == b.rate && l.cost < b.cost) {
                best = i;
            }
        }
        best
    }
}

/// Cost-greedy baseline: always pick the cheapest level (idle when idling
/// is free). Minimal cost, unbounded delay under load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostGreedyPolicy;

impl ServicePolicy for CostGreedyPolicy {
    fn name(&self) -> &str {
        "cost-greedy"
    }

    fn decide(&mut self, ctx: &ServiceDecisionContext<'_>, _rng: &mut dyn RngCore) -> usize {
        let mut best = 0;
        for (i, l) in ctx.levels.iter().enumerate() {
            let b = ctx.levels[best];
            if l.cost < b.cost || (l.cost == b.cost && l.rate > b.rate) {
                best = i;
            }
        }
        best
    }
}

/// Duty-cycle baseline: run at the highest rate every `period`-th slot and
/// idle (cheapest level) otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodicServePolicy {
    period: u64,
}

impl PeriodicServePolicy {
    /// Creates a policy serving every `period ≥ 1` slots.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u64) -> Self {
        assert!(period >= 1, "period must be at least 1");
        PeriodicServePolicy { period }
    }
}

impl ServicePolicy for PeriodicServePolicy {
    fn name(&self) -> &str {
        "periodic-serve"
    }

    fn decide(&mut self, ctx: &ServiceDecisionContext<'_>, rng: &mut dyn RngCore) -> usize {
        if ctx.slot.index().is_multiple_of(self.period) {
            AlwaysServePolicy.decide(ctx, rng)
        } else {
            CostGreedyPolicy.decide(ctx, rng)
        }
    }
}

/// Declarative service-policy selection for simulators and benches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServicePolicyKind {
    /// The paper's drift-plus-penalty rule with coefficient `v`.
    Lyapunov {
        /// Cost/backlog tradeoff coefficient.
        v: f64,
    },
    /// Latency-greedy: always serve at the maximum rate.
    AlwaysServe,
    /// Cost-greedy: always pick the cheapest level.
    CostGreedy,
    /// Serve at full rate every `period`-th slot.
    Periodic {
        /// Slots between serving bursts.
        period: u64,
    },
}

impl ServicePolicyKind {
    /// Short display label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            ServicePolicyKind::Lyapunov { .. } => "lyapunov",
            ServicePolicyKind::AlwaysServe => "always-serve",
            ServicePolicyKind::CostGreedy => "cost-greedy",
            ServicePolicyKind::Periodic { .. } => "periodic-serve",
        }
    }

    /// Builds a policy instance.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::Controller`] for an invalid `v`.
    pub fn build(&self) -> Result<Box<dyn ServicePolicy>, AoiCacheError> {
        Ok(match *self {
            ServicePolicyKind::Lyapunov { v } => Box::new(LyapunovServicePolicy::new(v)?),
            ServicePolicyKind::AlwaysServe => Box::new(AlwaysServePolicy),
            ServicePolicyKind::CostGreedy => Box::new(CostGreedyPolicy),
            ServicePolicyKind::Periodic { period } => Box::new(PeriodicServePolicy::new(period)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx<'a>(slot: u64, backlog: f64, levels: &'a [ServiceLevel]) -> ServiceDecisionContext<'a> {
        ServiceDecisionContext {
            slot: TimeSlot::new(slot),
            backlog,
            levels,
        }
    }

    #[test]
    fn lyapunov_matches_paper_extremes() {
        let levels = ServiceLevel::standard_menu();
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = LyapunovServicePolicy::new(10.0).unwrap();
        // Q = 0: minimize cost -> idle (paper's first sanity case).
        assert_eq!(policy.decide(&ctx(0, 0.0, &levels), &mut rng), 0);
        // Q huge: maximize service -> highest rate (second sanity case).
        assert_eq!(policy.decide(&ctx(0, 1e9, &levels), &mut rng), 2);
        assert_eq!(policy.v(), 10.0);
    }

    #[test]
    fn always_serve_picks_max_rate() {
        let levels = ServiceLevel::standard_menu();
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = AlwaysServePolicy;
        assert_eq!(policy.decide(&ctx(0, 0.0, &levels), &mut rng), 2);
    }

    #[test]
    fn always_serve_breaks_rate_ties_by_cost() {
        let levels = vec![ServiceLevel::new(3.0, 2.0), ServiceLevel::new(1.0, 2.0)];
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(AlwaysServePolicy.decide(&ctx(0, 5.0, &levels), &mut rng), 1);
    }

    #[test]
    fn cost_greedy_picks_cheapest() {
        let levels = ServiceLevel::standard_menu();
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = CostGreedyPolicy;
        assert_eq!(policy.decide(&ctx(0, 1e9, &levels), &mut rng), 0);
    }

    #[test]
    fn cost_greedy_breaks_cost_ties_by_rate() {
        let levels = vec![ServiceLevel::new(1.0, 1.0), ServiceLevel::new(1.0, 2.0)];
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(CostGreedyPolicy.decide(&ctx(0, 5.0, &levels), &mut rng), 1);
    }

    #[test]
    fn periodic_alternates() {
        let levels = ServiceLevel::standard_menu();
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = PeriodicServePolicy::new(3);
        assert_eq!(policy.decide(&ctx(0, 5.0, &levels), &mut rng), 2);
        assert_eq!(policy.decide(&ctx(1, 5.0, &levels), &mut rng), 0);
        assert_eq!(policy.decide(&ctx(2, 5.0, &levels), &mut rng), 0);
        assert_eq!(policy.decide(&ctx(3, 5.0, &levels), &mut rng), 2);
    }

    #[test]
    fn kinds_build_and_label() {
        let kinds = [
            ServicePolicyKind::Lyapunov { v: 5.0 },
            ServicePolicyKind::AlwaysServe,
            ServicePolicyKind::CostGreedy,
            ServicePolicyKind::Periodic { period: 2 },
        ];
        for kind in kinds {
            let policy = kind.build().unwrap();
            assert_eq!(policy.name(), kind.label());
        }
        assert!(ServicePolicyKind::Lyapunov { v: -1.0 }.build().is_err());
    }

    #[test]
    fn standard_menu_shape() {
        let menu = ServiceLevel::standard_menu();
        assert_eq!(menu.len(), 3);
        assert_eq!(menu[0].rate, 0.0);
        assert!(menu[2].rate > menu[1].rate);
    }
}
