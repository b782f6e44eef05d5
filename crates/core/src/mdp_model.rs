//! The paper's cache-management MDP (§II-B), factored per RSU.
//!
//! Both the reward (Eqs. 1–3) and the AoI dynamics separate across RSUs —
//! each RSU updates at most one of its own contents per slot and earns
//! utility only from its own cache — so the global MDP decomposes into
//! `N_R` independent per-RSU MDPs. This module builds the exact per-RSU
//! model:
//!
//! * **State**: the RSU's capped age vector (ages `1..=A_cap` per cached
//!   content), optionally crossed with a content-popularity phase (the
//!   paper's "content population" state component).
//! * **Action**: `0` = no update, `1+j` = push a fresh copy of local
//!   content `j` (at most one per slot, matching "only one content is
//!   updated at a time").
//! * **Reward**: Eq. 1 evaluated on the post-action ages.
//! * **Dynamics**: post-action ages all age by one slot, capped; the MBS
//!   copy is fresh every slot (the paper's assumption), so the age part of
//!   the transition is deterministic.

use crate::aoi::{Age, AgeVector};
use crate::reward::RewardModel;
use crate::AoiCacheError;
use mdp::{CompiledMdp, FiniteMdp, ProductSpace, Transition};
use serde::{Deserialize, Serialize};

/// Content-popularity dynamics of one RSU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PopularityModel {
    /// Fixed popularity vector `p_h` (the default; estimated popularity is
    /// frozen at solve time).
    Static(Vec<f64>),
    /// Two popularity phases (e.g. light/heavy traffic) switching with a
    /// per-slot probability — popularity becomes part of the MDP state.
    TwoPhase {
        /// The two popularity vectors.
        phases: [Vec<f64>; 2],
        /// Per-slot probability of switching phase.
        switch_probability: f64,
    },
}

impl PopularityModel {
    /// Number of popularity phases (1 or 2).
    pub fn n_phases(&self) -> usize {
        match self {
            PopularityModel::Static(_) => 1,
            PopularityModel::TwoPhase { .. } => 2,
        }
    }

    /// The popularity vector of a phase.
    ///
    /// # Panics
    ///
    /// Panics if `phase >= n_phases()`.
    pub fn popularity(&self, phase: usize) -> &[f64] {
        match self {
            PopularityModel::Static(p) => {
                assert_eq!(phase, 0, "static model has a single phase");
                p
            }
            PopularityModel::TwoPhase { phases, .. } => &phases[phase],
        }
    }

    fn validate(&self, n_contents: usize) -> Result<(), AoiCacheError> {
        let check = |p: &[f64]| -> Result<(), AoiCacheError> {
            if p.len() != n_contents {
                return Err(AoiCacheError::BadScenario {
                    why: "popularity length must equal the content count",
                });
            }
            if p.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(AoiCacheError::BadParameter {
                    what: "popularity",
                    valid: "finite and >= 0",
                });
            }
            let sum: f64 = p.iter().sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(AoiCacheError::BadParameter {
                    what: "popularity",
                    valid: "sums to 1",
                });
            }
            Ok(())
        };
        match self {
            PopularityModel::Static(p) => check(p),
            PopularityModel::TwoPhase {
                phases,
                switch_probability,
            } => {
                check(&phases[0])?;
                check(&phases[1])?;
                if !switch_probability.is_finite() || !(0.0..=1.0).contains(switch_probability) {
                    return Err(AoiCacheError::BadParameter {
                        what: "switch_probability",
                        valid: "[0, 1]",
                    });
                }
                Ok(())
            }
        }
    }
}

/// The exact per-RSU cache-management MDP.
///
/// ```
/// use aoi_cache::{Age, RewardModel, RsuCacheMdp, PopularityModel};
/// use mdp::FiniteMdp;
/// use mdp::solver::ValueIteration;
///
/// let reward = RewardModel::new(1.0, 0.5, vec![Age::new(4).unwrap(); 2])?;
/// let mdp = RsuCacheMdp::new(
///     reward,
///     Age::new(6).unwrap(),
///     PopularityModel::Static(vec![0.7, 0.3]),
/// )?;
/// assert_eq!(mdp.n_states(), 36);   // 6 ages ^ 2 contents
/// assert_eq!(mdp.n_actions(), 3);   // none | update 0 | update 1
/// let outcome = ValueIteration::new(0.95).solve(&mdp)?;
/// assert!(outcome.converged);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RsuCacheMdp {
    reward: RewardModel,
    age_cap: Age,
    popularity: PopularityModel,
    age_space: ProductSpace,
}

impl RsuCacheMdp {
    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadScenario`] when the age cap is below the
    /// largest freshness limit (violations would be unrepresentable) or the
    /// state space would overflow, and parameter errors for invalid
    /// popularity vectors.
    pub fn new(
        reward: RewardModel,
        age_cap: Age,
        popularity: PopularityModel,
    ) -> Result<Self, AoiCacheError> {
        let n = reward.n_contents();
        popularity.validate(n)?;
        let largest = reward
            .max_ages()
            .iter()
            .max()
            // lint:allow(panic-hygiene): RewardModel construction rejects empty
            // catalogs, so max_ages() is non-empty.
            .expect("reward model has contents");
        if age_cap < *largest {
            return Err(AoiCacheError::BadScenario {
                why: "age cap must be at least the largest max age",
            });
        }
        let age_space = ProductSpace::new(vec![age_cap.get() as usize; n]).ok_or(
            AoiCacheError::BadScenario {
                why: "state space too large",
            },
        )?;
        Ok(RsuCacheMdp {
            reward,
            age_cap,
            popularity,
            age_space,
        })
    }

    /// Compiles the model into its solver kernel (the dense layout under
    /// static popularity, CSR rows under two-phase popularity).
    ///
    /// Solvers sweep the compiled form without re-deriving the
    /// age/popularity arithmetic per `(state, action)` row, so anything
    /// solving this MDP more than once (different solver families, horizon
    /// steps, policy kinds) should compile once and share the kernel.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledMdp::compile`] validation errors.
    pub fn compile(&self) -> Result<CompiledMdp, AoiCacheError> {
        Ok(CompiledMdp::compile(self)?)
    }

    /// The reward model.
    pub fn reward_model(&self) -> &RewardModel {
        &self.reward
    }

    /// The age cap `A_cap`.
    pub fn age_cap(&self) -> Age {
        self.age_cap
    }

    /// Number of cached contents `L′`.
    pub fn n_contents(&self) -> usize {
        self.reward.n_contents()
    }

    /// The action index meaning "no update".
    pub const ACTION_NONE: usize = 0;

    /// Decodes an action index into `Some(local content)` or `None` for the
    /// no-update action.
    ///
    /// # Panics
    ///
    /// Panics if `action >= n_actions()`.
    pub fn decode_action(&self, action: usize) -> Option<usize> {
        assert!(action <= self.n_contents(), "action out of range");
        action.checked_sub(1)
    }

    /// Encodes an age vector (plus popularity phase) into a state index.
    ///
    /// # Panics
    ///
    /// Panics if the vector length, any age, or the phase is out of range.
    pub fn encode_state(&self, ages: &AgeVector, phase: usize) -> usize {
        assert!(phase < self.popularity.n_phases(), "phase out of range");
        // Stream the coordinates straight into the mixed-radix encoding:
        // this runs once per (RSU, slot) in the simulators, so it must not
        // materialize a coordinate vector.
        let idx = self
            .age_space
            .encode_iter(ages.coord_iter())
            // lint:allow(panic-hygiene): AgeVector keeps every age <= cap, and
            // the age space is sized by the same cap.
            .expect("ages within cap encode");
        phase * self.age_space.len() + idx
    }

    /// Decodes a state index into `(ages, phase)`.
    ///
    /// # Panics
    ///
    /// Panics if `state >= n_states()`.
    pub fn decode_state(&self, state: usize) -> (AgeVector, usize) {
        let phase = state / self.age_space.len();
        assert!(phase < self.popularity.n_phases(), "state out of range");
        let coords = self.age_space.decode(state % self.age_space.len());
        (AgeVector::from_coords(&coords, self.age_cap), phase)
    }

    /// Applies the action to the decoded age coordinates and computes the
    /// slot reward; returns `(post_action_coords, reward)`.
    fn apply(&self, coords: &mut [usize], phase: usize, action: usize) -> f64 {
        if let Some(j) = action.checked_sub(1) {
            coords[j] = 0; // fresh copy: age 1
        }
        let popularity = self.popularity.popularity(phase);
        let w = self.reward.weight();
        let mut utility = 0.0;
        for ((c, m), p) in coords.iter().zip(self.reward.max_ages()).zip(popularity) {
            let age = (*c + 1) as f64;
            utility += f64::from(m.get()) / age * p;
        }
        w * utility - self.reward.action_cost(action != Self::ACTION_NONE)
    }
}

/// Contents whose age coordinates [`RsuCacheMdp::transitions`] decodes
/// into a stack buffer; larger catalogs fall back to the heap. With an age
/// cap of at least 2, more contents than this make more than `u32::MAX`
/// states, which [`CompiledMdp::compile`] rejects anyway.
const STACK_CONTENTS: usize = 32;

impl FiniteMdp for RsuCacheMdp {
    fn n_states(&self) -> usize {
        self.popularity.n_phases() * self.age_space.len()
    }

    fn n_actions(&self) -> usize {
        self.n_contents() + 1
    }

    /// Allocation-free up to 32 contents (`STACK_CONTENTS`): compilation
    /// calls this once per `(state, action)` row.
    fn transitions(&self, state: usize, action: usize, out: &mut Vec<Transition>) {
        out.clear();
        let phase = state / self.age_space.len();
        let mut stack = [0usize; STACK_CONTENTS];
        let mut heap = Vec::new();
        let coords = if self.n_contents() <= STACK_CONTENTS {
            &mut stack[..self.n_contents()]
        } else {
            heap.resize(self.n_contents(), 0);
            &mut heap[..]
        };
        self.age_space
            .decode_into(state % self.age_space.len(), coords);
        let reward = self.apply(coords, phase, action);
        // Everyone ages by one slot, capped.
        let cap_coord = self.age_cap.get() as usize - 1;
        for c in coords.iter_mut() {
            *c = (*c + 1).min(cap_coord);
        }
        let age_next = self
            .age_space
            .encode(coords)
            // lint:allow(panic-hygiene): Age::aged saturates at the cap, so the
            // aged coordinates always encode.
            .expect("aged coordinates stay in range");
        match &self.popularity {
            PopularityModel::Static(_) => {
                out.push(Transition::new(age_next, 1.0, reward));
            }
            PopularityModel::TwoPhase {
                switch_probability, ..
            } => {
                let q = *switch_probability;
                let stay = phase * self.age_space.len() + age_next;
                let flip = (1 - phase) * self.age_space.len() + age_next;
                if q < 1.0 {
                    out.push(Transition::new(stay, 1.0 - q, reward));
                }
                if q > 0.0 {
                    out.push(Transition::new(flip, q, reward));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp::solver::ValueIteration;

    fn age(v: u32) -> Age {
        Age::new(v).unwrap()
    }

    fn small_mdp(weight: f64, cost: f64) -> RsuCacheMdp {
        let reward = RewardModel::new(weight, cost, vec![age(3), age(4)]).unwrap();
        RsuCacheMdp::new(reward, age(5), PopularityModel::Static(vec![0.6, 0.4])).unwrap()
    }

    #[test]
    fn shape() {
        let m = small_mdp(1.0, 0.5);
        assert_eq!(m.n_states(), 25);
        assert_eq!(m.n_actions(), 3);
        assert_eq!(m.n_contents(), 2);
        assert_eq!(RsuCacheMdp::ACTION_NONE, 0);
        assert_eq!(m.decode_action(0), None);
        assert_eq!(m.decode_action(2), Some(1));
    }

    #[test]
    fn state_roundtrip() {
        let m = small_mdp(1.0, 0.5);
        for s in 0..m.n_states() {
            let (ages, phase) = m.decode_state(s);
            assert_eq!(m.encode_state(&ages, phase), s);
        }
    }

    #[test]
    fn transition_ages_and_refreshes() {
        let m = small_mdp(1.0, 0.5);
        let ages = AgeVector::from_ages(vec![age(3), age(2)], age(5)).unwrap();
        let s = m.encode_state(&ages, 0);
        let mut buf = Vec::new();

        // No update: both age by one.
        m.transitions(s, RsuCacheMdp::ACTION_NONE, &mut buf);
        assert_eq!(buf.len(), 1);
        let (next, _) = m.decode_state(buf[0].next);
        assert_eq!(next.as_slice(), &[age(4), age(3)]);

        // Update content 0 (action 1): it lands at age 2 next slot (1 fresh
        // + 1 aging).
        m.transitions(s, 1, &mut buf);
        let (next, _) = m.decode_state(buf[0].next);
        assert_eq!(next.as_slice(), &[age(2), age(3)]);
    }

    #[test]
    fn ages_saturate_at_cap() {
        let m = small_mdp(1.0, 0.5);
        let ages = AgeVector::from_ages(vec![age(5), age(5)], age(5)).unwrap();
        let s = m.encode_state(&ages, 0);
        let mut buf = Vec::new();
        m.transitions(s, RsuCacheMdp::ACTION_NONE, &mut buf);
        let (next, _) = m.decode_state(buf[0].next);
        assert_eq!(next.as_slice(), &[age(5), age(5)]);
    }

    #[test]
    fn reward_matches_reward_model() {
        let m = small_mdp(2.0, 0.7);
        let ages = AgeVector::from_ages(vec![age(2), age(4)], age(5)).unwrap();
        let s = m.encode_state(&ages, 0);
        let mut buf = Vec::new();

        m.transitions(s, RsuCacheMdp::ACTION_NONE, &mut buf);
        // Post-action ages = [2, 4]; utility = 3/2*0.6 + 4/4*0.4 = 1.3.
        assert!((buf[0].reward - 2.0 * 1.3).abs() < 1e-12);

        m.transitions(s, 1, &mut buf);
        // Update content 0: post-action ages = [1, 4]; utility = 3*0.6 + 1*0.4 = 2.2; minus cost.
        assert!((buf[0].reward - (2.0 * 2.2 - 0.7)).abs() < 1e-12);
    }

    #[test]
    fn zero_cost_optimal_policy_always_updates() {
        let m = small_mdp(1.0, 0.0);
        let out = ValueIteration::new(0.9).solve(&m).unwrap();
        assert!(out.converged);
        // With free updates, never choosing "none" is optimal whenever any
        // content is stale: check a fully stale state.
        let stale = AgeVector::from_ages(vec![age(5), age(5)], age(5)).unwrap();
        let s = m.encode_state(&stale, 0);
        assert_ne!(out.policy.action(s), RsuCacheMdp::ACTION_NONE);
    }

    #[test]
    fn prohibitive_cost_never_updates() {
        let m = small_mdp(1.0, 1e9);
        let out = ValueIteration::new(0.9).solve(&m).unwrap();
        for s in 0..m.n_states() {
            assert_eq!(out.policy.action(s), RsuCacheMdp::ACTION_NONE);
        }
    }

    #[test]
    fn moderate_cost_yields_sawtooth_updates() {
        // With a moderate cost the optimal policy must update sometimes but
        // not always.
        let m = small_mdp(1.0, 0.8);
        let out = ValueIteration::new(0.95).solve(&m).unwrap();
        let actions: Vec<usize> = (0..m.n_states()).map(|s| out.policy.action(s)).collect();
        assert!(actions.contains(&RsuCacheMdp::ACTION_NONE));
        assert!(actions.iter().any(|&a| a != RsuCacheMdp::ACTION_NONE));
    }

    #[test]
    fn popular_content_is_updated_first() {
        let reward = RewardModel::new(1.0, 0.4, vec![age(4), age(4)]).unwrap();
        let m = RsuCacheMdp::new(reward, age(6), PopularityModel::Static(vec![0.9, 0.1])).unwrap();
        let out = ValueIteration::new(0.95).solve(&m).unwrap();
        // Both contents equally stale: the popular one (content 0, action
        // 1) gets the update.
        let stale = AgeVector::from_ages(vec![age(4), age(4)], age(6)).unwrap();
        let s = m.encode_state(&stale, 0);
        assert_eq!(out.policy.action(s), 1);
    }

    #[test]
    fn two_phase_transitions_split_probability() {
        let reward = RewardModel::new(1.0, 0.5, vec![age(3)]).unwrap();
        let m = RsuCacheMdp::new(
            reward,
            age(4),
            PopularityModel::TwoPhase {
                phases: [vec![1.0], vec![1.0]],
                switch_probability: 0.25,
            },
        )
        .unwrap();
        assert_eq!(m.n_states(), 8);
        let mut buf = Vec::new();
        m.transitions(0, 0, &mut buf);
        assert_eq!(buf.len(), 2);
        let mass: f64 = buf.iter().map(|t| t.probability).sum();
        assert!((mass - 1.0).abs() < 1e-12);
        // One outcome stays in phase 0, the other flips to phase 1.
        let phases: Vec<usize> = buf.iter().map(|t| m.decode_state(t.next).1).collect();
        assert!(phases.contains(&0) && phases.contains(&1));
    }

    #[test]
    fn validation() {
        let reward = RewardModel::new(1.0, 0.5, vec![age(6)]).unwrap();
        // Cap below the max age.
        assert!(
            RsuCacheMdp::new(reward.clone(), age(5), PopularityModel::Static(vec![1.0])).is_err()
        );
        // Bad popularity length.
        assert!(RsuCacheMdp::new(
            reward.clone(),
            age(6),
            PopularityModel::Static(vec![0.5, 0.5])
        )
        .is_err());
        // Popularity not summing to one.
        assert!(
            RsuCacheMdp::new(reward.clone(), age(6), PopularityModel::Static(vec![0.4])).is_err()
        );
        // Bad switch probability.
        assert!(RsuCacheMdp::new(
            reward,
            age(6),
            PopularityModel::TwoPhase {
                phases: [vec![1.0], vec![1.0]],
                switch_probability: 1.5
            }
        )
        .is_err());
    }

    #[test]
    fn accessors() {
        let m = small_mdp(1.0, 0.5);
        assert_eq!(m.age_cap(), age(5));
        assert_eq!(m.reward_model().update_cost(), 0.5);
    }
}
