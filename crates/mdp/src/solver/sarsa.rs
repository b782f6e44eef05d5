//! Tabular SARSA (on-policy TD control).

use crate::model::FiniteMdp;
use crate::policy::QTable;
use crate::solver::q_learning::{
    epsilon_greedy_valid, exploration_rate, step_size, EPISODE_LENGTH,
};
use crate::solver::validate_gamma;
use crate::MdpError;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Tabular SARSA configuration.
///
/// On-policy counterpart of [`QLearning`](crate::solver::QLearning): the TD
/// target bootstraps from the action the ε-greedy behaviour policy actually
/// takes next, rather than the greedy maximum. Restarts, step sizes and
/// exploration follow the same fixed schedule as `QLearning`: a random
/// restart every 100 steps, step size `10 / (10 + n)` on the `n`-th update
/// of a state–action pair, and ε falling linearly from 1.0 to 0.05 over
/// the first `steps / 2` steps.
///
/// ```
/// use mdp::solver::Sarsa;
/// use mdp::reference;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let (mdp, gamma) = reference::two_state();
/// let mut rng = StdRng::seed_from_u64(5);
/// let q = Sarsa::new(gamma).steps(30_000).learn(&mdp, &mut rng).unwrap();
/// assert_eq!(q.greedy_action(0), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sarsa {
    /// Discount factor in `[0, 1)`.
    pub gamma: f64,
    /// Total environment steps.
    pub steps: usize,
}

impl Sarsa {
    /// Creates a learner that runs 100k steps, like
    /// [`QLearning::new`](crate::solver::QLearning::new).
    pub fn new(gamma: f64) -> Self {
        Sarsa {
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

    /// Runs SARSA and returns the learned Q-table.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QLearning::learn`](crate::solver::QLearning::learn).
    pub fn learn<M: FiniteMdp>(&self, mdp: &M, rng: &mut dyn RngCore) -> Result<QTable, MdpError> {
        validate_gamma(self.gamma)?;
        if mdp.n_states() == 0 || mdp.n_actions() == 0 {
            return Err(MdpError::EmptyModel);
        }

        let mut q = QTable::zeros(mdp.n_states(), mdp.n_actions());
        let mut visits = vec![0u64; mdp.n_states() * mdp.n_actions()];
        let mut state = rng.gen_range(0..mdp.n_states());
        let decay_steps = self.steps / 2;
        let mut action =
            epsilon_greedy_valid(mdp, &q, state, exploration_rate(0, decay_steps), rng);

        for step in 0..self.steps {
            let eps = exploration_rate(step, decay_steps);
            if step > 0 && step % EPISODE_LENGTH == 0 {
                state = rng.gen_range(0..mdp.n_states());
                action = epsilon_greedy_valid(mdp, &q, state, eps, rng);
            }
            let (next, reward) = mdp.sample(state, action, rng);
            let next_action = epsilon_greedy_valid(mdp, &q, next, eps, rng);
            let target = reward + self.gamma * q.get(next, next_action);

            let idx = state * mdp.n_actions() + action;
            visits[idx] += 1;
            let alpha = step_size(visits[idx]);
            let old = q.get(state, action);
            q.set(state, action, old + alpha * (target - old));

            state = next;
            action = next_action;
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn learns_two_state_optimum() {
        let (mdp, gamma) = reference::two_state();
        let mut rng = StdRng::seed_from_u64(11);
        let q = Sarsa::new(gamma)
            .steps(40_000)
            .learn(&mdp, &mut rng)
            .unwrap();
        assert_eq!(q.greedy_action(0), 1);
    }

    #[test]
    fn learns_chain_direction() {
        let (mdp, gamma) = reference::chain(5, 0.9);
        let mut rng = StdRng::seed_from_u64(13);
        let q = Sarsa::new(gamma)
            .steps(120_000)
            .learn(&mdp, &mut rng)
            .unwrap();
        for s in 0..4 {
            assert_eq!(q.greedy_action(s), reference::CHAIN_FORWARD, "state {s}");
        }
    }

    #[test]
    fn validates_parameters() {
        let (mdp, _) = reference::two_state();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Sarsa::new(1.0).learn(&mdp, &mut rng).is_err());
    }
}
