//! Cache-update policies: the paper's MDP-derived policy and the baselines
//! it is compared against.

use crate::aoi::{Age, AgeVector};
use crate::mdp_model::{PopularityModel, RsuCacheMdp};
use crate::reward::RewardModel;
use crate::AoiCacheError;
use mdp::solver::{
    BackwardInduction, PolicyIteration, QLearning, RelativeValueIteration, Sarsa, SolveCounters,
    ValueIteration,
};
use mdp::{CompiledMdp, TabularPolicy};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use simkit::TimeSlot;

/// Everything a cache-update policy may inspect when deciding.
#[derive(Debug, Clone, Copy)]
pub struct CacheDecisionContext<'a> {
    /// Current slot.
    pub slot: TimeSlot,
    /// Start-of-slot ages of the RSU's cached contents.
    pub ages: &'a AgeVector,
    /// Per-content freshness limits.
    pub max_ages: &'a [Age],
    /// Current content popularity `p^k_h(t)` (sums to 1).
    pub popularity: &'a [f64],
    /// The Eq. 1 AoI weight `w`.
    pub weight: f64,
    /// Cost of pushing one update this slot.
    pub update_cost: f64,
}

/// A per-RSU cache-update decision rule.
///
/// Each slot the policy returns `Some(local content index)` to push a fresh
/// copy of that content, or `None` to skip the slot (the paper's binary
/// `x^k_h(t)` with the one-update-per-RSU constraint).
///
/// Policies are `Send` so per-RSU construction (MDP solves included) can
/// fan out across the shared executor.
pub trait CacheUpdatePolicy: Send {
    /// Short display name (used in experiment tables).
    fn name(&self) -> &str;

    /// Decides this slot's update.
    fn decide(&mut self, ctx: &CacheDecisionContext<'_>, rng: &mut dyn RngCore) -> Option<usize>;
}

/// Static description of one RSU's cache-control problem, used to build
/// policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RsuSpec {
    /// Freshness limits of the cached contents.
    pub max_ages: Vec<Age>,
    /// Popularity estimate at build time (sums to 1).
    pub popularity: Vec<f64>,
    /// Age cap `A_cap` of the state space.
    pub age_cap: Age,
    /// The Eq. 1 weight `w`.
    pub weight: f64,
    /// Per-update communication cost.
    pub update_cost: f64,
}

impl RsuSpec {
    /// Number of cached contents.
    pub fn n_contents(&self) -> usize {
        self.max_ages.len()
    }

    /// Builds the reward model for this RSU.
    ///
    /// # Errors
    ///
    /// Propagates [`RewardModel::new`] validation errors.
    pub fn reward_model(&self) -> Result<RewardModel, AoiCacheError> {
        RewardModel::new(self.weight, self.update_cost, self.max_ages.clone())
    }

    /// Builds the exact per-RSU MDP with static popularity.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors.
    pub fn mdp(&self) -> Result<RsuCacheMdp, AoiCacheError> {
        RsuCacheMdp::new(
            self.reward_model()?,
            self.age_cap,
            PopularityModel::Static(self.popularity.clone()),
        )
    }
}

/// A per-RSU cache MDP paired with its compiled solver kernel.
///
/// Simulators build one of these per RSU up front and hand it to every
/// policy construction ([`CachePolicyKind::build_with`]), so the model is
/// enumerated exactly once no matter how many solver families, discounts or
/// horizon steps run against it.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRsuMdp {
    /// The exact per-RSU model (state encoding/decoding lives here).
    pub model: RsuCacheMdp,
    /// The compiled kernel the solvers sweep on.
    pub kernel: CompiledMdp,
}

impl CompiledRsuMdp {
    /// Builds and compiles the spec's MDP.
    ///
    /// # Errors
    ///
    /// Propagates model-construction and compilation errors.
    pub fn from_spec(spec: &RsuSpec) -> Result<Self, AoiCacheError> {
        let model = spec.mdp()?;
        let kernel = model.compile()?;
        Ok(CompiledRsuMdp { model, kernel })
    }
}

/// A policy solved offline on the exact per-RSU MDP (value iteration,
/// policy iteration or Q-learning) and executed by table lookup.
#[derive(Debug, Clone)]
pub struct SolvedMdpPolicy {
    name: String,
    mdp: RsuCacheMdp,
    policy: TabularPolicy,
    counters: Option<SolveCounters>,
}

impl SolvedMdpPolicy {
    fn from_table(name: &str, compiled: &CompiledRsuMdp, policy: TabularPolicy) -> Self {
        SolvedMdpPolicy {
            name: name.to_string(),
            mdp: compiled.model.clone(),
            policy,
            counters: None,
        }
    }

    /// Value iteration on an already-compiled per-RSU MDP, through the
    /// policy-only solve ([`ValueIteration::solve_policy`], modified policy
    /// iteration): it stops as soon as the action gap proves the greedy
    /// policy optimal, and the
    /// policy is the one the full-tolerance solve would return. Its
    /// counters stay readable through
    /// [`solve_counters`](SolvedMdpPolicy::solve_counters).
    ///
    /// # Errors
    ///
    /// Propagates solver errors, and returns
    /// [`MdpError::NotConverged`](mdp::MdpError::NotConverged) when the
    /// solve hits its sweep cap before either stop rule holds: a truncated
    /// iterate never silently becomes a policy.
    pub fn value_iteration_on(
        compiled: &CompiledRsuMdp,
        gamma: f64,
    ) -> Result<Self, AoiCacheError> {
        let outcome = ValueIteration::new(gamma).solve_policy(&compiled.kernel)?;
        Ok(SolvedMdpPolicy {
            counters: Some(outcome.counters),
            ..Self::from_table("mdp-vi", compiled, outcome.policy)
        })
    }

    /// Policy iteration on an already-compiled per-RSU MDP.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn policy_iteration_on(
        compiled: &CompiledRsuMdp,
        gamma: f64,
    ) -> Result<Self, AoiCacheError> {
        let outcome = PolicyIteration::new(gamma).solve_compiled(&compiled.kernel)?;
        Ok(Self::from_table("mdp-pi", compiled, outcome.policy))
    }

    /// Q-learning on an already-compiled per-RSU MDP (the learner samples
    /// allocation-free from the kernel's rows).
    ///
    /// # Errors
    ///
    /// Propagates learner errors.
    pub fn q_learning_on(
        compiled: &CompiledRsuMdp,
        gamma: f64,
        steps: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Self, AoiCacheError> {
        let q = QLearning::new(gamma)
            .steps(steps)
            .learn(&compiled.kernel, rng)?;
        Ok(Self::from_table("mdp-ql", compiled, q.greedy_policy()))
    }

    /// SARSA on an already-compiled per-RSU MDP (allocation-free sampling
    /// from the kernel's rows).
    ///
    /// # Errors
    ///
    /// Propagates learner errors.
    pub fn sarsa_on(
        compiled: &CompiledRsuMdp,
        gamma: f64,
        steps: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Self, AoiCacheError> {
        let q = Sarsa::new(gamma)
            .steps(steps)
            .learn(&compiled.kernel, rng)?;
        Ok(Self::from_table("mdp-sarsa", compiled, q.greedy_policy()))
    }

    /// Solves an already-compiled per-RSU MDP for the **average-reward**
    /// criterion with relative value iteration — the exact match for the
    /// paper's long-run objective (the discounted solvers approximate it
    /// with γ → 1).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn average_reward_on(compiled: &CompiledRsuMdp) -> Result<Self, AoiCacheError> {
        let outcome = RelativeValueIteration::new()
            .tolerance(1e-10)
            .solve_compiled(&compiled.kernel)?;
        Ok(Self::from_table("mdp-avg", compiled, outcome.policy))
    }

    /// Receding-horizon control: solves an already-compiled per-RSU MDP
    /// over a finite lookahead of `horizon` slots (backward induction,
    /// undiscounted) and applies the first-stage decision rule every slot.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn receding_horizon_on(
        compiled: &CompiledRsuMdp,
        horizon: usize,
    ) -> Result<Self, AoiCacheError> {
        let solution = BackwardInduction::new(horizon).solve_compiled(&compiled.kernel)?;
        Ok(Self::from_table(
            "mdp-rh",
            compiled,
            solution.first_policy().clone(),
        ))
    }

    /// The underlying tabular policy.
    pub fn tabular(&self) -> &TabularPolicy {
        &self.policy
    }

    /// Deterministic counters of the solve that produced the policy
    /// (full and evaluation sweeps, stop rule, final action gap and span);
    /// `Some` for value iteration only.
    pub fn solve_counters(&self) -> Option<&SolveCounters> {
        self.counters.as_ref()
    }
}

impl CacheUpdatePolicy for SolvedMdpPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, ctx: &CacheDecisionContext<'_>, _rng: &mut dyn RngCore) -> Option<usize> {
        // One table lookup per slot; `encode_state` streams the age
        // coordinates (no per-decision heap allocation — the simulators'
        // step loops rely on this, see `core/tests/alloc_free.rs`).
        let state = self.mdp.encode_state(ctx.ages, 0);
        self.mdp.decode_action(self.policy.action(state))
    }
}

/// One-step-greedy policy: update the content with the largest immediate
/// Eq. 1 gain, if that gain is positive (equivalently, the MDP policy at
/// `γ = 0`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MyopicPolicy;

impl CacheUpdatePolicy for MyopicPolicy {
    fn name(&self) -> &str {
        "myopic"
    }

    fn decide(&mut self, ctx: &CacheDecisionContext<'_>, _rng: &mut dyn RngCore) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for h in 0..ctx.ages.len() {
            let max_age = ctx.max_ages[h];
            let gain = ctx.weight
                * ctx.popularity[h]
                * (Age::ONE.utility(max_age) - ctx.ages.age(h).utility(max_age))
                - ctx.update_cost;
            if gain > 0.0 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((h, gain));
            }
        }
        best.map(|(h, _)| h)
    }
}

/// Freshness-pressure index policy: update the content with the largest
/// `p_h · age_h / A^max_h` once that index exceeds a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndexPolicy {
    /// Minimum index value required to spend an update.
    pub threshold: f64,
}

impl CacheUpdatePolicy for IndexPolicy {
    fn name(&self) -> &str {
        "index"
    }

    fn decide(&mut self, ctx: &CacheDecisionContext<'_>, _rng: &mut dyn RngCore) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for h in 0..ctx.ages.len() {
            let index = ctx.popularity[h] * ctx.ages.age(h).ratio_to(ctx.max_ages[h]);
            if best.is_none_or(|(_, i)| index > i) {
                best = Some((h, index));
            }
        }
        best.filter(|(_, i)| *i >= self.threshold).map(|(h, _)| h)
    }
}

/// Deadline policy: update the content closest to (or past) its freshness
/// limit once it comes within `margin` slots of the limit; popularity
/// breaks ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgeThresholdPolicy {
    /// How many slots before the limit to refresh (0 = refresh only at the
    /// limit).
    pub margin: u32,
}

impl CacheUpdatePolicy for AgeThresholdPolicy {
    fn name(&self) -> &str {
        "threshold"
    }

    fn decide(&mut self, ctx: &CacheDecisionContext<'_>, _rng: &mut dyn RngCore) -> Option<usize> {
        let mut best: Option<(usize, u32, f64)> = None; // (h, slack, popularity)
        for h in 0..ctx.ages.len() {
            let age = ctx.ages.age(h).get();
            let limit = ctx.max_ages[h].get();
            let slack = limit.saturating_sub(age);
            if slack > self.margin {
                continue;
            }
            let p = ctx.popularity[h];
            let better = match best {
                None => true,
                Some((_, s, bp)) => slack < s || (slack == s && p > bp),
            };
            if better {
                best = Some((h, slack, p));
            }
        }
        best.map(|(h, _, _)| h)
    }
}

/// Blind periodic policy: every `period` slots, update the next content in
/// round-robin order (ignores ages, popularity and cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodicPolicy {
    period: u64,
    cursor: usize,
}

impl PeriodicPolicy {
    /// Creates a policy updating every `period ≥ 1` slots.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u64) -> Self {
        assert!(period >= 1, "period must be at least 1");
        PeriodicPolicy { period, cursor: 0 }
    }
}

impl CacheUpdatePolicy for PeriodicPolicy {
    fn name(&self) -> &str {
        "periodic"
    }

    fn decide(&mut self, ctx: &CacheDecisionContext<'_>, _rng: &mut dyn RngCore) -> Option<usize> {
        if !ctx.slot.index().is_multiple_of(self.period) {
            return None;
        }
        let h = self.cursor % ctx.ages.len();
        self.cursor = (self.cursor + 1) % ctx.ages.len();
        Some(h)
    }
}

/// Coin-flip policy: with probability `probability` update a uniformly
/// random content.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomPolicy {
    /// Per-slot update probability.
    pub probability: f64,
}

impl CacheUpdatePolicy for RandomPolicy {
    fn name(&self) -> &str {
        "random"
    }

    fn decide(&mut self, ctx: &CacheDecisionContext<'_>, rng: &mut dyn RngCore) -> Option<usize> {
        if rng.gen::<f64>() < self.probability {
            Some(rng.gen_range(0..ctx.ages.len()))
        } else {
            None
        }
    }
}

/// Never updates anything (lower bound on cost, upper bound on staleness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeverPolicy;

impl CacheUpdatePolicy for NeverPolicy {
    fn name(&self) -> &str {
        "never"
    }

    fn decide(&mut self, _ctx: &CacheDecisionContext<'_>, _rng: &mut dyn RngCore) -> Option<usize> {
        None
    }
}

/// Declarative policy selection, used by simulators and the benchmark
/// harness to build one policy instance per RSU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CachePolicyKind {
    /// Exact MDP policy via value iteration (the paper's approach).
    ValueIteration {
        /// Discount factor.
        gamma: f64,
    },
    /// Exact MDP policy via policy iteration.
    PolicyIteration {
        /// Discount factor.
        gamma: f64,
    },
    /// Model-free tabular Q-learning on the same MDP.
    QLearning {
        /// Discount factor.
        gamma: f64,
        /// Environment steps to learn for.
        steps: usize,
    },
    /// Model-free tabular SARSA (on-policy TD) on the same MDP.
    Sarsa {
        /// Discount factor.
        gamma: f64,
        /// Environment steps to learn for.
        steps: usize,
    },
    /// Exact average-reward policy via relative value iteration (the
    /// paper's long-run objective solved directly, no discounting).
    AverageReward,
    /// Receding-horizon control: undiscounted backward induction over a
    /// finite lookahead, first-stage rule applied every slot.
    RecedingHorizon {
        /// Lookahead depth in slots.
        horizon: usize,
    },
    /// One-step greedy on Eq. 1.
    Myopic,
    /// Freshness-pressure index rule.
    Index {
        /// Index threshold.
        threshold: f64,
    },
    /// Refresh within `margin` slots of the freshness limit.
    AgeThreshold {
        /// Slots of slack before the limit.
        margin: u32,
    },
    /// Blind round-robin refresh every `period` slots.
    Periodic {
        /// Slots between updates.
        period: u64,
    },
    /// Random refresh with the given per-slot probability.
    Random {
        /// Per-slot update probability.
        probability: f64,
    },
    /// Never refresh.
    Never,
}

impl CachePolicyKind {
    /// Short display label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicyKind::ValueIteration { .. } => "mdp-vi",
            CachePolicyKind::PolicyIteration { .. } => "mdp-pi",
            CachePolicyKind::QLearning { .. } => "mdp-ql",
            CachePolicyKind::Sarsa { .. } => "mdp-sarsa",
            CachePolicyKind::AverageReward => "mdp-avg",
            CachePolicyKind::RecedingHorizon { .. } => "mdp-rh",
            CachePolicyKind::Myopic => "myopic",
            CachePolicyKind::Index { .. } => "index",
            CachePolicyKind::AgeThreshold { .. } => "threshold",
            CachePolicyKind::Periodic { .. } => "periodic",
            CachePolicyKind::Random { .. } => "random",
            CachePolicyKind::Never => "never",
        }
    }

    /// Whether this kind solves the per-RSU MDP (and therefore benefits
    /// from a pre-compiled kernel).
    pub fn uses_mdp(&self) -> bool {
        matches!(
            self,
            CachePolicyKind::ValueIteration { .. }
                | CachePolicyKind::PolicyIteration { .. }
                | CachePolicyKind::QLearning { .. }
                | CachePolicyKind::Sarsa { .. }
                | CachePolicyKind::AverageReward
                | CachePolicyKind::RecedingHorizon { .. }
        )
    }

    /// Builds a policy instance for one RSU against a pre-compiled kernel
    /// (which embeds the per-RSU model, so no spec is needed here). Compile
    /// once with [`CompiledRsuMdp::from_spec`] and reuse the kernel for
    /// every policy kind and run.
    ///
    /// The MDP-based kinds solve on `compiled` (which therefore must be
    /// `Some` for them); the baselines ignore it.
    ///
    /// # Errors
    ///
    /// Propagates solver errors, and returns
    /// [`AoiCacheError::BadParameter`] when an MDP-based kind is built
    /// without a compiled model.
    pub fn build_with(
        &self,
        compiled: Option<&CompiledRsuMdp>,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn CacheUpdatePolicy>, AoiCacheError> {
        let need = || {
            compiled.ok_or(AoiCacheError::BadParameter {
                what: "compiled",
                valid: "Some(..) for MDP-based policy kinds",
            })
        };
        Ok(match *self {
            CachePolicyKind::ValueIteration { gamma } => {
                Box::new(SolvedMdpPolicy::value_iteration_on(need()?, gamma)?)
            }
            CachePolicyKind::PolicyIteration { gamma } => {
                Box::new(SolvedMdpPolicy::policy_iteration_on(need()?, gamma)?)
            }
            CachePolicyKind::QLearning { gamma, steps } => {
                Box::new(SolvedMdpPolicy::q_learning_on(need()?, gamma, steps, rng)?)
            }
            CachePolicyKind::Sarsa { gamma, steps } => {
                Box::new(SolvedMdpPolicy::sarsa_on(need()?, gamma, steps, rng)?)
            }
            CachePolicyKind::AverageReward => {
                Box::new(SolvedMdpPolicy::average_reward_on(need()?)?)
            }
            CachePolicyKind::RecedingHorizon { horizon } => {
                Box::new(SolvedMdpPolicy::receding_horizon_on(need()?, horizon)?)
            }
            CachePolicyKind::Myopic => Box::new(MyopicPolicy),
            CachePolicyKind::Index { threshold } => Box::new(IndexPolicy { threshold }),
            CachePolicyKind::AgeThreshold { margin } => Box::new(AgeThresholdPolicy { margin }),
            CachePolicyKind::Periodic { period } => Box::new(PeriodicPolicy::new(period)),
            CachePolicyKind::Random { probability } => Box::new(RandomPolicy { probability }),
            CachePolicyKind::Never => Box::new(NeverPolicy),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp::MdpError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn age(v: u32) -> Age {
        Age::new(v).unwrap()
    }

    fn spec() -> RsuSpec {
        RsuSpec {
            max_ages: vec![age(3), age(5)],
            popularity: vec![0.7, 0.3],
            age_cap: age(6),
            weight: 1.0,
            update_cost: 0.5,
        }
    }

    fn ctx<'a>(slot: u64, ages: &'a AgeVector, spec: &'a RsuSpec) -> CacheDecisionContext<'a> {
        CacheDecisionContext {
            slot: TimeSlot::new(slot),
            ages,
            max_ages: &spec.max_ages,
            popularity: &spec.popularity,
            weight: spec.weight,
            update_cost: spec.update_cost,
        }
    }

    #[test]
    fn myopic_skips_fresh_and_updates_stale() {
        let spec = spec();
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = MyopicPolicy;
        let fresh = AgeVector::fresh(2, spec.age_cap);
        assert_eq!(policy.decide(&ctx(0, &fresh, &spec), &mut rng), None);

        let stale = AgeVector::from_ages(vec![age(6), age(6)], spec.age_cap).unwrap();
        // Content 0: gain = 0.7*(3 - 0.5) - 0.5 = 1.25; content 1: 0.3*(5-5/6)-0.5 = 0.75.
        assert_eq!(policy.decide(&ctx(0, &stale, &spec), &mut rng), Some(0));
    }

    #[test]
    fn index_policy_honours_threshold() {
        let spec = spec();
        let mut rng = StdRng::seed_from_u64(0);
        let mut low = IndexPolicy { threshold: 0.0 };
        let mut high = IndexPolicy { threshold: 10.0 };
        let ages = AgeVector::from_ages(vec![age(3), age(2)], spec.age_cap).unwrap();
        // index0 = 0.7*3/3 = 0.7; index1 = 0.3*2/5 = 0.12.
        assert_eq!(low.decide(&ctx(0, &ages, &spec), &mut rng), Some(0));
        assert_eq!(high.decide(&ctx(0, &ages, &spec), &mut rng), None);
    }

    #[test]
    fn threshold_policy_waits_for_deadline() {
        let spec = spec();
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = AgeThresholdPolicy { margin: 0 };
        let young = AgeVector::from_ages(vec![age(2), age(2)], spec.age_cap).unwrap();
        assert_eq!(policy.decide(&ctx(0, &young, &spec), &mut rng), None);
        let deadline = AgeVector::from_ages(vec![age(3), age(2)], spec.age_cap).unwrap();
        assert_eq!(policy.decide(&ctx(0, &deadline, &spec), &mut rng), Some(0));
    }

    #[test]
    fn threshold_policy_prefers_tightest_deadline() {
        let spec = spec();
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = AgeThresholdPolicy { margin: 2 };
        // slack0 = 3-1 = 2, slack1 = 5-5 = 0 -> content 1 is tighter.
        let ages = AgeVector::from_ages(vec![age(1), age(5)], spec.age_cap).unwrap();
        assert_eq!(policy.decide(&ctx(0, &ages, &spec), &mut rng), Some(1));
    }

    #[test]
    fn periodic_policy_cycles() {
        let spec = spec();
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = PeriodicPolicy::new(2);
        let ages = AgeVector::fresh(2, spec.age_cap);
        assert_eq!(policy.decide(&ctx(0, &ages, &spec), &mut rng), Some(0));
        assert_eq!(policy.decide(&ctx(1, &ages, &spec), &mut rng), None);
        assert_eq!(policy.decide(&ctx(2, &ages, &spec), &mut rng), Some(1));
        assert_eq!(policy.decide(&ctx(4, &ages, &spec), &mut rng), Some(0));
    }

    #[test]
    fn random_policy_rate() {
        let spec = spec();
        let mut rng = StdRng::seed_from_u64(7);
        let mut policy = RandomPolicy { probability: 0.25 };
        let ages = AgeVector::fresh(2, spec.age_cap);
        let n = 10_000;
        let updates = (0..n)
            .filter(|i| policy.decide(&ctx(*i, &ages, &spec), &mut rng).is_some())
            .count();
        let rate = updates as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn never_policy_never_updates() {
        let spec = spec();
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = NeverPolicy;
        let stale = AgeVector::from_ages(vec![age(6), age(6)], spec.age_cap).unwrap();
        assert_eq!(policy.decide(&ctx(0, &stale, &spec), &mut rng), None);
    }

    #[test]
    fn solved_policy_refreshes_stale_popular_content() {
        let spec = spec();
        let mut rng = StdRng::seed_from_u64(1);
        let compiled = CompiledRsuMdp::from_spec(&spec).unwrap();
        let mut policy = SolvedMdpPolicy::value_iteration_on(&compiled, 0.95).unwrap();
        assert_eq!(policy.name(), "mdp-vi");
        let stale = AgeVector::from_ages(vec![age(6), age(6)], spec.age_cap).unwrap();
        let decision = policy.decide(&ctx(0, &stale, &spec), &mut rng);
        assert_eq!(decision, Some(0), "popular stale content first");
        let fresh = AgeVector::fresh(2, spec.age_cap);
        assert_eq!(policy.decide(&ctx(0, &fresh, &spec), &mut rng), None);
    }

    #[test]
    fn unconverged_value_iteration_is_an_error() {
        // At gamma = 0.9999 the sweep change still shrinks only by
        // ~e^-1 over the 10,000-sweep cap, far above the 1e-9 tolerance.
        let compiled = CompiledRsuMdp::from_spec(&spec()).unwrap();
        let err = SolvedMdpPolicy::value_iteration_on(&compiled, 0.9999).unwrap_err();
        match err {
            AoiCacheError::Solver(MdpError::NotConverged {
                iterations,
                residual,
            }) => {
                assert_eq!(iterations, 10_000);
                assert!(residual > 1e-9, "residual {residual}");
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn solvers_agree_on_small_spec() {
        let compiled = CompiledRsuMdp::from_spec(&spec()).unwrap();
        let vi = SolvedMdpPolicy::value_iteration_on(&compiled, 0.9).unwrap();
        let pi = SolvedMdpPolicy::policy_iteration_on(&compiled, 0.9).unwrap();
        assert_eq!(vi.tabular().actions(), pi.tabular().actions());
    }

    #[test]
    fn kind_builds_every_variant() {
        let compiled = CompiledRsuMdp::from_spec(&spec()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let kinds = [
            CachePolicyKind::ValueIteration { gamma: 0.9 },
            CachePolicyKind::PolicyIteration { gamma: 0.9 },
            CachePolicyKind::QLearning {
                gamma: 0.9,
                steps: 2_000,
            },
            CachePolicyKind::Sarsa {
                gamma: 0.9,
                steps: 2_000,
            },
            CachePolicyKind::AverageReward,
            CachePolicyKind::RecedingHorizon { horizon: 20 },
            CachePolicyKind::Myopic,
            CachePolicyKind::Index { threshold: 0.5 },
            CachePolicyKind::AgeThreshold { margin: 1 },
            CachePolicyKind::Periodic { period: 3 },
            CachePolicyKind::Random { probability: 0.3 },
            CachePolicyKind::Never,
        ];
        for kind in kinds {
            let policy = kind.build_with(Some(&compiled), &mut rng).unwrap();
            assert_eq!(policy.name(), kind.label());
        }
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_panics() {
        let _ = PeriodicPolicy::new(0);
    }
}
