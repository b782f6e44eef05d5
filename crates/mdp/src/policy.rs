//! Policies over finite state/action spaces.

use serde::{Deserialize, Serialize};

/// A deterministic tabular policy: one action per state.
///
/// ```
/// use mdp::TabularPolicy;
///
/// let policy = TabularPolicy::new(vec![1, 0, 1]);
/// assert_eq!(policy.action(0), 1);
/// assert_eq!(policy.action(1), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TabularPolicy {
    actions: Vec<usize>,
}

impl TabularPolicy {
    /// Wraps a per-state action table.
    pub fn new(actions: Vec<usize>) -> Self {
        TabularPolicy { actions }
    }

    /// The per-state action table.
    pub fn actions(&self) -> &[usize] {
        &self.actions
    }

    /// Action chosen in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn action(&self, state: usize) -> usize {
        self.actions[state]
    }

    /// Number of states covered.
    pub fn n_states(&self) -> usize {
        self.actions.len()
    }
}

/// A tabular state-action value function (Q-table) with greedy readout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QTable {
    n_states: usize,
    n_actions: usize,
    values: Vec<f64>,
}

impl QTable {
    /// Creates a zero-initialized Q-table.
    pub fn zeros(n_states: usize, n_actions: usize) -> Self {
        QTable {
            n_states,
            n_actions,
            values: vec![0.0; n_states * n_actions],
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of actions.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Q(s, a).
    pub fn get(&self, state: usize, action: usize) -> f64 {
        self.values[state * self.n_actions + action]
    }

    /// Sets Q(s, a).
    pub fn set(&mut self, state: usize, action: usize, value: f64) {
        self.values[state * self.n_actions + action] = value;
    }

    /// max_a Q(s, a).
    pub fn max_value(&self, state: usize) -> f64 {
        let row = &self.values[state * self.n_actions..(state + 1) * self.n_actions];
        row.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// argmax_a Q(s, a), first index on ties.
    pub fn greedy_action(&self, state: usize) -> usize {
        let row = &self.values[state * self.n_actions..(state + 1) * self.n_actions];
        let mut best = 0;
        let mut best_v = f64::NEG_INFINITY;
        for (a, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = a;
            }
        }
        best
    }

    /// Extracts the greedy deterministic policy.
    pub fn greedy_policy(&self) -> TabularPolicy {
        TabularPolicy::new((0..self.n_states).map(|s| self.greedy_action(s)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabular_policy_is_deterministic() {
        let p = TabularPolicy::new(vec![2, 0]);
        assert_eq!(p.action(0), 2);
        assert_eq!(p.action(1), 0);
        assert_eq!(p.n_states(), 2);
        assert_eq!(p.actions(), &[2, 0]);
    }

    #[test]
    fn qtable_greedy_readout() {
        let mut q = QTable::zeros(2, 3);
        q.set(0, 1, 5.0);
        q.set(0, 2, 3.0);
        q.set(1, 0, -1.0);
        q.set(1, 2, -0.5);
        assert_eq!(q.greedy_action(0), 1);
        assert_eq!(q.max_value(0), 5.0);
        // state 1: best is action 1 with q=0.0 (untouched)
        assert_eq!(q.greedy_action(1), 1);
        let p = q.greedy_policy();
        assert_eq!(p.actions(), &[1, 1]);
        assert_eq!(q.n_states(), 2);
        assert_eq!(q.n_actions(), 3);
    }

    #[test]
    fn qtable_ties_break_to_first() {
        let q = QTable::zeros(1, 4);
        assert_eq!(q.greedy_action(0), 0);
    }
}
