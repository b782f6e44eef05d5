//! Tabular Q-learning (off-policy TD control).

use crate::model::FiniteMdp;
use crate::policy::QTable;
use crate::solver::validate_gamma;
use crate::MdpError;
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Scale of the harmonic step size `SCALE / (SCALE + visits(s, a))`,
/// which satisfies the Robbins–Monro conditions for tabular convergence.
const STEP_SCALE: f64 = 10.0;
/// Exploration rate ε at step 0.
const EPSILON_START: f64 = 1.0;
/// Exploration rate ε once the decay is over.
const EPSILON_END: f64 = 0.05;
/// Environment steps between random restarts.
pub(crate) const EPISODE_LENGTH: usize = 100;

/// The step size for the `visits`-th update of a state–action pair.
pub(crate) fn step_size(visits: u64) -> f64 {
    STEP_SCALE / (STEP_SCALE + visits as f64)
}

/// ε at environment step `step`: linear from [`EPSILON_START`] to
/// [`EPSILON_END`] over the first `decay_steps` steps, then constant.
pub(crate) fn exploration_rate(step: usize, decay_steps: usize) -> f64 {
    if step >= decay_steps {
        EPSILON_END
    } else {
        EPSILON_START + (EPSILON_END - EPSILON_START) * (step as f64 / decay_steps as f64)
    }
}

/// Picks an ε-greedy action among the *valid* actions of `state`.
///
/// Allocation-free: this runs once per environment step inside the learner
/// loops, so validity is scanned in place instead of collecting the valid
/// set into a temporary vector.
pub(crate) fn epsilon_greedy_valid<M: FiniteMdp>(
    mdp: &M,
    q: &QTable,
    state: usize,
    epsilon: f64,
    rng: &mut dyn RngCore,
) -> usize {
    let n_valid = (0..mdp.n_actions())
        .filter(|&a| mdp.is_action_valid(state, a))
        .count();
    assert!(n_valid > 0, "state {state} has no valid action");
    if rng.gen::<f64>() < epsilon {
        let k = rng.gen_range(0..n_valid);
        (0..mdp.n_actions())
            .filter(|&a| mdp.is_action_valid(state, a))
            .nth(k)
            // lint:allow(panic-hygiene): k < n_valid, counted over this very
            // filter one statement above.
            .expect("k indexes a valid action")
    } else {
        let mut best = None;
        let mut best_v = f64::NEG_INFINITY;
        for a in 0..mdp.n_actions() {
            if !mdp.is_action_valid(state, a) {
                continue;
            }
            let v = q.get(state, a);
            if best.is_none() || v > best_v {
                best_v = v;
                best = Some(a);
            }
        }
        // lint:allow(panic-hygiene): n_valid > 0 was asserted on entry.
        best.expect("at least one valid action")
    }
}

/// Tabular Q-learning configuration.
///
/// The learner interacts with a generative model (any [`FiniteMdp`] can be
/// sampled) for `steps` transitions, restarting from a uniformly random
/// state every 100 steps so that all states keep being visited. The
/// schedule is fixed: the `n`-th update of a state–action pair takes the
/// harmonic step size `10 / (10 + n)`, and actions are ε-greedy over the
/// valid actions with ε falling linearly from 1.0 to 0.05 over the first
/// `steps / 2` steps.
///
/// ```
/// use mdp::solver::{QLearning, ValueIteration};
/// use mdp::reference;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let (mdp, gamma) = reference::two_state();
/// let mut rng = StdRng::seed_from_u64(1);
/// let q = QLearning::new(gamma).steps(30_000).learn(&mdp, &mut rng).unwrap();
/// let vi = ValueIteration::new(gamma).solve(&mdp).unwrap();
/// // State 0 has a unique optimal action; state 1's actions are tied.
/// assert_eq!(q.greedy_action(0), vi.policy.action(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QLearning {
    /// Discount factor in `[0, 1)`.
    pub gamma: f64,
    /// Total environment steps.
    pub steps: usize,
}

impl QLearning {
    /// Creates a learner that runs 100k steps.
    pub fn new(gamma: f64) -> Self {
        QLearning {
            gamma,
            steps: 100_000,
        }
    }

    /// Sets the total environment steps.
    #[must_use]
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Runs Q-learning and returns the learned Q-table.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] for an invalid `gamma`, and
    /// [`MdpError::EmptyModel`] for empty models.
    pub fn learn<M: FiniteMdp>(&self, mdp: &M, rng: &mut dyn RngCore) -> Result<QTable, MdpError> {
        validate_gamma(self.gamma)?;
        if mdp.n_states() == 0 || mdp.n_actions() == 0 {
            return Err(MdpError::EmptyModel);
        }

        let mut q = QTable::zeros(mdp.n_states(), mdp.n_actions());
        let mut visits = vec![0u64; mdp.n_states() * mdp.n_actions()];
        let mut state = rng.gen_range(0..mdp.n_states());

        let decay_steps = self.steps / 2;
        for step in 0..self.steps {
            if step % EPISODE_LENGTH == 0 {
                state = rng.gen_range(0..mdp.n_states());
            }
            let eps = exploration_rate(step, decay_steps);
            let action = epsilon_greedy_valid(mdp, &q, state, eps, rng);
            let (next, reward) = mdp.sample(state, action, rng);

            // Bootstrapped target over *valid* next actions.
            let next_best = (0..mdp.n_actions())
                .filter(|&a| mdp.is_action_valid(next, a))
                .map(|a| q.get(next, a))
                .fold(f64::NEG_INFINITY, f64::max);
            let target = reward + self.gamma * next_best;

            let idx = state * mdp.n_actions() + action;
            visits[idx] += 1;
            let alpha = step_size(visits[idx]);
            let old = q.get(state, action);
            q.set(state, action, old + alpha * (target - old));
            state = next;
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::solver::ValueIteration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn learns_optimal_policy_on_two_state() {
        let (mdp, gamma) = reference::two_state();
        let mut rng = StdRng::seed_from_u64(42);
        let q = QLearning::new(gamma)
            .steps(30_000)
            .learn(&mdp, &mut rng)
            .unwrap();
        assert_eq!(q.greedy_action(0), 1);
        // Q-values should approximate the closed form.
        let v1 = 1.0 / (1.0 - gamma);
        assert!((q.max_value(1) - v1).abs() < 0.5, "{}", q.max_value(1));
    }

    #[test]
    fn learns_chain_walk() {
        let (mdp, gamma) = reference::chain(6, 0.9);
        let mut rng = StdRng::seed_from_u64(7);
        let q = QLearning::new(gamma)
            .steps(120_000)
            .learn(&mdp, &mut rng)
            .unwrap();
        let vi = ValueIteration::new(gamma).solve(&mdp).unwrap();
        // Interior states should all agree with the exact optimal policy.
        for s in 0..5 {
            assert_eq!(
                q.greedy_action(s),
                vi.policy.action(s),
                "policy mismatch at state {s}"
            );
        }
    }

    #[test]
    fn schedules_validate() {
        // The fixed schedule stays inside the ranges a TD update needs:
        // step sizes in (0, 1], exploration rates in [0, 1].
        for visits in [1, 10, 1_000_000] {
            let alpha = step_size(visits);
            assert!(0.0 < alpha && alpha <= 1.0, "step size {alpha}");
        }
        for step in [0, 1, 50, 99, 100, 10_000] {
            assert!((0.0..=1.0).contains(&exploration_rate(step, 100)));
        }
        let (mdp, _) = reference::two_state();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(QLearning::new(1.0).learn(&mdp, &mut rng).is_err());
    }

    #[test]
    fn linear_decay_interpolates() {
        assert_eq!(exploration_rate(0, 100), 1.0);
        assert!((exploration_rate(50, 100) - 0.525).abs() < 1e-12);
        assert_eq!(exploration_rate(100, 100), 0.05);
        assert_eq!(exploration_rate(10_000, 100), 0.05);
        assert_eq!(exploration_rate(0, 0), 0.05);
    }

    #[test]
    fn harmonic_rate_decays() {
        assert_eq!(step_size(0), 1.0);
        assert!(step_size(0) > step_size(10));
        assert!(step_size(1_000_000) < 1e-4);
    }

    #[test]
    fn respects_action_validity() {
        use crate::model::TabularMdp;
        // Two states; in state 1 only action 0 is valid.
        let mdp = TabularMdp::builder(2, 2)
            .transition(0, 0, 0, 1.0, 0.0)
            .transition(0, 1, 1, 1.0, 1.0)
            .transition(1, 0, 0, 1.0, 2.0)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let q = QLearning::new(0.9)
            .steps(20_000)
            .learn(&mdp, &mut rng)
            .unwrap();
        // Greedy among valid actions in state 1 must be action 0.
        assert!(mdp.is_action_valid(1, 0));
        assert!(!mdp.is_action_valid(1, 1));
        assert!(q.get(1, 1).abs() < 1e-12, "invalid action was updated");
    }
}
