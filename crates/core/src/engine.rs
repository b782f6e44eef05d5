//! Clock-agnostic per-RSU engine cores shared by every driver.
//!
//! The stage-1/stage-2 state machines used to live inline in the
//! simulators' slot loops; this module extracts them into two cores with
//! **no internal time loop and no internal randomness for arrivals** —
//! slots, request popularity, arrivals and RNG streams are all inputs:
//!
//! * [`RsuCacheEngine`] — one RSU's stage-1 state (AoI vector + Eq. 1
//!   reward model + cache-update policy). `decide → apply_refresh →
//!   aoi_utility/action_cost → advance` is one slot.
//! * [`RsuServiceEngine`] — one RSU's stage-2 state (backlog queue +
//!   service policy). `decide → apply` is one slot.
//!
//! Four drivers compose the same ops in different clocks:
//! [`CacheSimulation::run`](crate::CacheSimulation::run) (stage 1 alone,
//! synthetic popularity), [`run_service`](crate::run_service) (stage 2
//! alone, one arrival trace), [`run_joint`](crate::run_joint) (both stages on
//! the live `vanet` substrate) and the online `aoi-serve` engine (both
//! stages against an **external** request stream). Because every driver
//! calls the identical core operations in the identical order, simulator
//! reports are bit-identical to the pre-extraction code — pinned by
//! `core/tests/engine_identity.rs` against goldens captured before the
//! refactor.

use crate::aoi::{Age, AgeVector};
use crate::policy::{CacheDecisionContext, CacheUpdatePolicy};
use crate::reward::RewardModel;
use crate::service::{ServiceDecisionContext, ServiceLevel, ServicePolicy};
use crate::AoiCacheError;
use lyapunov::Queue;
use rand::RngCore;
use simkit::TimeSlot;

/// One RSU's clock-agnostic stage-1 core: the AoI state vector, the Eq. 1
/// reward model and the cache-update policy, advanced strictly by
/// externally supplied events.
///
/// The engine owns what is *state* (ages, policy memory) and takes as
/// arguments what is *environment* (the slot index, the popularity
/// estimate, the per-update cost) — the standalone simulator passes its
/// static spec popularity, the joint simulator passes the live network
/// estimate, and the serving engine passes whatever its request stream
/// implies. Nothing here reads a clock or draws arrival randomness.
pub struct RsuCacheEngine {
    policy: Box<dyn CacheUpdatePolicy>,
    reward: RewardModel,
    ages: AgeVector,
    max_ages: Vec<Age>,
    weight: f64,
    update_cost: f64,
}

impl RsuCacheEngine {
    /// Assembles an engine from its parts. `weight` and `update_cost` are
    /// the values presented to the policy's decision context each slot
    /// (drivers may still override the cost per decision, e.g. congestion
    /// pricing).
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadParameter`] if the age vector and
    /// freshness-limit vector lengths disagree.
    pub fn new(
        policy: Box<dyn CacheUpdatePolicy>,
        reward: RewardModel,
        ages: AgeVector,
        max_ages: Vec<Age>,
        weight: f64,
        update_cost: f64,
    ) -> Result<Self, AoiCacheError> {
        if ages.len() != max_ages.len() {
            return Err(AoiCacheError::BadParameter {
                what: "max_ages",
                valid: "one per cached content",
            });
        }
        Ok(RsuCacheEngine {
            policy,
            reward,
            ages,
            max_ages,
            weight,
            update_cost,
        })
    }

    /// Number of contents this RSU caches.
    pub fn contents(&self) -> usize {
        self.ages.len()
    }

    /// The current AoI vector.
    pub fn ages(&self) -> &AgeVector {
        &self.ages
    }

    /// The current AoI of local content `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn age(&self, h: usize) -> Age {
        self.ages.age(h)
    }

    /// The freshness limit `A^max_h` of local content `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn max_age(&self, h: usize) -> Age {
        self.max_ages[h]
    }

    /// The per-content freshness limits.
    pub fn max_ages(&self) -> &[Age] {
        &self.max_ages
    }

    /// Whether local content `h` is past its freshness limit (a request
    /// served from it is a *stale hit*).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn is_stale(&self, h: usize) -> bool {
        self.ages.age(h).exceeds(self.max_ages[h])
    }

    /// Asks the policy which content to refresh this slot (`None` = idle).
    /// `popularity` is the driver's current estimate and `update_cost` the
    /// cost the decision context advertises; `rng` is the driver's stream
    /// (the engine never owns randomness, so any driver interleaving
    /// reproduces the serial draw order).
    pub fn decide(
        &mut self,
        slot: TimeSlot,
        popularity: &[f64],
        update_cost: f64,
        rng: &mut dyn RngCore,
    ) -> Option<usize> {
        let ctx = CacheDecisionContext {
            slot,
            ages: &self.ages,
            max_ages: &self.max_ages,
            popularity,
            weight: self.weight,
            update_cost,
        };
        self.policy.decide(&ctx, rng)
    }

    /// [`decide`](RsuCacheEngine::decide) with the engine's own
    /// construction-time `update_cost` (the standalone stage-1 setting).
    pub fn decide_static(
        &mut self,
        slot: TimeSlot,
        popularity: &[f64],
        rng: &mut dyn RngCore,
    ) -> Option<usize> {
        let cost = self.update_cost;
        self.decide(slot, popularity, cost, rng)
    }

    /// Applies a refresh decision: content `h`'s age resets to 1.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadParameter`] if `h` is not a local
    /// content index (a buggy policy).
    pub fn apply_refresh(&mut self, h: usize) -> Result<(), AoiCacheError> {
        if h >= self.ages.len() {
            return Err(AoiCacheError::BadParameter {
                what: "cache decision",
                valid: "local content index",
            });
        }
        self.ages.refresh(h);
        Ok(())
    }

    /// The Eq. 2 AoI utility `Σ_h (A^max_h/A_h)·p_h` of the current ages
    /// under the given popularity.
    pub fn aoi_utility(&self, popularity: &[f64]) -> f64 {
        self.reward.aoi_utility(&self.ages, popularity)
    }

    /// The Eq. 3 action cost of this slot (`update_cost` if a refresh was
    /// pushed, else 0).
    pub fn action_cost(&self, updated: bool) -> f64 {
        self.reward.action_cost(updated)
    }

    /// Ends the slot: every age grows by one (saturating at the cap).
    pub fn advance(&mut self) {
        self.ages.advance();
    }
}

/// One RSU's clock-agnostic stage-2 core: the backlog queue and the
/// service policy, driven by externally supplied arrivals.
///
/// `decide` evaluates the policy on the pre-arrival backlog; `apply` runs
/// the queue dynamics for an (independently chosen) service level. The
/// split keeps arrivals and decisions inputs, so any driver — simulator
/// or online server — produces identical queue trajectories from
/// identical inputs. This is the workspace's one stage-2 core: every
/// driver keeps its own cost and backlog sums around it.
pub struct RsuServiceEngine {
    policy: Box<dyn ServicePolicy>,
    queue: Queue,
}

impl RsuServiceEngine {
    /// Wraps a service policy around an empty backlog queue.
    pub fn new(policy: Box<dyn ServicePolicy>) -> Self {
        Self::with_backlog(policy, 0.0)
    }

    /// Wraps a service policy around a queue already holding `backlog`
    /// (finite and non-negative).
    pub(crate) fn with_backlog(policy: Box<dyn ServicePolicy>, backlog: f64) -> Self {
        RsuServiceEngine {
            policy,
            queue: Queue::with_backlog(backlog),
        }
    }

    /// Current backlog.
    pub fn backlog(&self) -> f64 {
        self.queue.backlog()
    }

    /// Asks the policy which service level to run this slot, validating
    /// the answer against the menu.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadParameter`] if the policy picks an
    /// index outside `levels`.
    pub fn decide(
        &mut self,
        slot: TimeSlot,
        levels: &[ServiceLevel],
        rng: &mut dyn RngCore,
    ) -> Result<usize, AoiCacheError> {
        let decision = {
            let ctx = ServiceDecisionContext {
                slot,
                backlog: self.queue.backlog(),
                levels,
            };
            self.policy.decide(&ctx, rng)
        };
        if decision >= levels.len() {
            return Err(AoiCacheError::BadParameter {
                what: "service decision",
                valid: "level index",
            });
        }
        Ok(decision)
    }

    /// Runs the slot's queue dynamics: drain at `level.rate`, then admit
    /// `arrivals`. Returns the backlog actually served.
    pub fn apply(&mut self, arrivals: f64, level: ServiceLevel) -> f64 {
        self.queue.step(arrivals, level.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MyopicPolicy, NeverPolicy};
    use crate::service::AlwaysServePolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> RsuCacheEngine {
        let cap = Age::new(6).unwrap();
        let max_ages = vec![Age::new(4).unwrap(), Age::new(5).unwrap()];
        let reward = RewardModel::new(1.0, 0.25, max_ages.clone()).unwrap();
        let ages =
            AgeVector::from_ages(vec![Age::new(3).unwrap(), Age::new(6).unwrap()], cap).unwrap();
        RsuCacheEngine::new(Box::new(MyopicPolicy), reward, ages, max_ages, 1.0, 0.25).unwrap()
    }

    #[test]
    fn cache_engine_slot_cycle() {
        let mut e = engine();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(e.contents(), 2);
        assert!(e.is_stale(1) && !e.is_stale(0));
        let pop = [0.5, 0.5];
        let decision = e.decide_static(TimeSlot::ZERO, &pop, &mut rng);
        let h = decision.expect("a stale popular content must be refreshed");
        e.apply_refresh(h).unwrap();
        assert_eq!(e.age(h).get(), 1);
        let with_update = e.action_cost(true);
        assert_eq!(with_update, 0.25);
        assert_eq!(e.action_cost(false), 0.0);
        assert!(e.aoi_utility(&pop) > 0.0);
        let before = e.age(0).get();
        e.advance();
        assert_eq!(e.age(0).get(), (before + 1).min(6));
    }

    #[test]
    fn cache_engine_rejects_bad_inputs() {
        let cap = Age::new(6).unwrap();
        let max_ages = vec![Age::new(4).unwrap()];
        let reward = RewardModel::new(1.0, 0.25, max_ages.clone()).unwrap();
        let ages = AgeVector::fresh(2, cap);
        assert!(
            RsuCacheEngine::new(Box::new(NeverPolicy), reward, ages, max_ages, 1.0, 0.25).is_err()
        );
        let mut e = engine();
        assert!(e.apply_refresh(9).is_err());
    }

    #[test]
    fn service_engine_slot_cycle() {
        let mut e = RsuServiceEngine::new(Box::new(AlwaysServePolicy));
        let mut rng = StdRng::seed_from_u64(2);
        let levels = [ServiceLevel::new(0.0, 0.0), ServiceLevel::new(1.0, 2.0)];
        let d = e.decide(TimeSlot::ZERO, &levels, &mut rng).unwrap();
        assert_eq!(d, 1, "always-serve picks the fastest level");
        let served = e.apply(3.0, levels[d]);
        assert_eq!(served, 0.0, "empty queue had nothing to drain");
        assert_eq!(e.backlog(), 3.0);
        assert!(e.decide(TimeSlot::ZERO, &[], &mut rng).is_err());
    }
}
