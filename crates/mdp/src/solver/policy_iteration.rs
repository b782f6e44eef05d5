//! Howard policy iteration.

use crate::compiled::{run_sweeps, sweep_workers, CompiledMdp};
use crate::model::FiniteMdp;
use crate::policy::TabularPolicy;
use crate::solver::{evaluate_policy_callback, q_value, validate_gamma};
use crate::MdpError;
use serde::{Deserialize, Serialize};

/// Sweep cap for each inner policy evaluation.
const MAX_EVAL_SWEEPS: usize = 10_000;
/// Cap on improvement rounds.
const MAX_IMPROVEMENTS: usize = 1_000;

/// Configuration for policy iteration (policy evaluation + greedy
/// improvement until the policy is stable).
///
/// [`solve`](PolicyIteration::solve) compiles the model into a
/// [`CompiledMdp`] once; every inner evaluation sweep and improvement pass
/// then runs on its flat arrays. Each policy evaluation may take up to
/// 10 000 sweeps, and the solve stops after 1 000 improvement rounds.
///
/// ```
/// use mdp::solver::PolicyIteration;
/// use mdp::reference;
///
/// let (mdp, gamma) = reference::two_state();
/// let outcome = PolicyIteration::new(gamma).solve(&mdp).unwrap();
/// assert_eq!(outcome.policy.action(0), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyIteration {
    /// Discount factor in `[0, 1)`.
    pub gamma: f64,
    /// Tolerance for the inner policy-evaluation sweeps.
    pub eval_tolerance: f64,
}

impl PolicyIteration {
    /// Creates a solver with `eval_tolerance = 1e-10`.
    pub fn new(gamma: f64) -> Self {
        PolicyIteration {
            gamma,
            eval_tolerance: 1e-10,
        }
    }

    /// Sets the inner evaluation tolerance.
    #[must_use]
    pub fn eval_tolerance(mut self, tolerance: f64) -> Self {
        self.eval_tolerance = tolerance;
        self
    }

    /// Runs policy iteration from the all-first-valid-action policy.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] for an invalid `gamma`, a
    /// compilation error ([`MdpError::EmptyModel`] and friends) for
    /// malformed models, or [`MdpError::NotConverged`] if an inner
    /// evaluation fails to converge.
    pub fn solve<M: FiniteMdp>(&self, mdp: &M) -> Result<PolicyIterationOutcome, MdpError> {
        validate_gamma(self.gamma)?;
        let compiled = CompiledMdp::compile(mdp)?;
        self.solve_compiled(&compiled)
    }

    /// Runs policy iteration on a pre-compiled kernel, parallel across
    /// states when the model is large enough and serial inside
    /// [`simkit::executor::serialized`] (bit-for-bit identical either way).
    ///
    /// The whole solve — every evaluation sweep of every improvement round
    /// — runs inside **one** sweep loop (one persistent worker pool per
    /// solve, like every other compiled solver): the
    /// sweep backup evaluates the current policy's actions, and the
    /// coordinator epilogue detects evaluation convergence, improves the
    /// policy greedily in place, and restarts the evaluation from zero —
    /// reproducing the classical evaluate/improve rounds bit for bit while
    /// allocating nothing per round.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] for an invalid `gamma` or
    /// [`MdpError::NotConverged`] if an inner evaluation fails to converge.
    pub fn solve_compiled(&self, mdp: &CompiledMdp) -> Result<PolicyIterationOutcome, MdpError> {
        validate_gamma(self.gamma)?;
        let n = mdp.n_states();
        // Current policy, shared between the sweep backup (pool workers
        // load it) and the epilogue's improvement step (the coordinator
        // stores it while the workers wait at the round barrier). Initial
        // policy: lowest valid action per state (compilation guarantees
        // one exists).
        let actions = mdp.policy_rows(|s| {
            (0..mdp.n_actions())
                .find(|&a| mdp.is_valid(s, a))
                // lint:allow(panic-hygiene): compile() rejects states with
                // no valid action.
                .expect("compiled models have a valid action per state")
        });
        let mut rounds = 0usize;
        let mut eval_sweeps = 0usize;
        let mut stable = false;
        let mut eval_failed = false;

        // Total sweep budget across all rounds.
        let outcome = run_sweeps(
            vec![0.0; n],
            sweep_workers(n),
            MAX_IMPROVEMENTS * MAX_EVAL_SWEEPS,
            |states, values, out, stats| {
                mdp.evaluate_block(states, values, out, self.gamma, &actions, stats)
            },
            |values, stats, _| {
                eval_sweeps += 1;
                if stats.max_abs >= self.eval_tolerance {
                    if eval_sweeps >= MAX_EVAL_SWEEPS {
                        eval_failed = true;
                        return true;
                    }
                    return false;
                }
                // Evaluation converged: greedy improvement on the fresh
                // values (strict margin avoids oscillating on ties).
                rounds += 1;
                stable = true;
                for s in 0..n {
                    let current = actions.action(s);
                    let mut best_a = current;
                    let mut best_q = mdp
                        .q_value(s, current, values, self.gamma)
                        // lint:allow(panic-hygiene): `current` came from the
                        // validity-checked initial policy or a prior improvement.
                        .expect("current policy action must be valid");
                    for a in 0..mdp.n_actions() {
                        if a == current {
                            continue;
                        }
                        if let Some(q) = mdp.q_value(s, a, values, self.gamma) {
                            if q > best_q + 1e-12 {
                                best_q = q;
                                best_a = a;
                            }
                        }
                    }
                    if best_a != current {
                        stable = false;
                        mdp.set_policy_row(&actions, s, best_a);
                    }
                }
                if stable || rounds >= MAX_IMPROVEMENTS {
                    return true;
                }
                // Next round's evaluation starts cold, exactly like
                // `solve_callback`'s one evaluation per round.
                values.fill(0.0);
                eval_sweeps = 0;
                false
            },
        );
        if eval_failed {
            return Err(MdpError::NotConverged {
                iterations: MAX_EVAL_SWEEPS,
                residual: outcome.last.max_abs,
            });
        }
        Ok(PolicyIterationOutcome {
            converged: stable,
            rounds,
            values: outcome.values,
            policy: actions.into_policy(),
        })
    }

    /// Trait-callback reference implementation, kept for differential
    /// testing and benchmarking against the compiled kernel.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve`](PolicyIteration::solve).
    pub fn solve_callback<M: FiniteMdp>(
        &self,
        mdp: &M,
    ) -> Result<PolicyIterationOutcome, MdpError> {
        validate_gamma(self.gamma)?;
        if mdp.n_states() == 0 || mdp.n_actions() == 0 {
            return Err(MdpError::EmptyModel);
        }
        // Initial policy: lowest valid action per state.
        let mut actions = Vec::with_capacity(mdp.n_states());
        for s in 0..mdp.n_states() {
            let a = (0..mdp.n_actions())
                .find(|&a| mdp.is_action_valid(s, a))
                .ok_or(MdpError::BadDistribution {
                    state: s,
                    action: 0,
                    mass: 0.0,
                })?;
            actions.push(a);
        }
        let mut policy = TabularPolicy::new(actions);
        let mut buf = Vec::new();
        let mut values = vec![0.0; mdp.n_states()];
        let mut rounds = 0;

        loop {
            rounds += 1;
            values = evaluate_policy_callback(
                mdp,
                &policy,
                self.gamma,
                self.eval_tolerance,
                MAX_EVAL_SWEEPS,
            )?;

            let mut stable = true;
            let mut improved = Vec::with_capacity(mdp.n_states());
            for s in 0..mdp.n_states() {
                let current = policy.action(s);
                let mut best_a = current;
                let mut best_q = q_value(mdp, s, current, &values, self.gamma, &mut buf)
                    // lint:allow(panic-hygiene): `current` came from the
                    // validity-checked initial policy or a prior improvement.
                    .expect("current policy action must be valid");
                for a in 0..mdp.n_actions() {
                    if a == current {
                        continue;
                    }
                    if let Some(q) = q_value(mdp, s, a, &values, self.gamma, &mut buf) {
                        // Strict improvement margin avoids oscillating on ties.
                        if q > best_q + 1e-12 {
                            best_q = q;
                            best_a = a;
                        }
                    }
                }
                if best_a != current {
                    stable = false;
                }
                improved.push(best_a);
            }
            policy = TabularPolicy::new(improved);
            if stable || rounds >= MAX_IMPROVEMENTS {
                return Ok(PolicyIterationOutcome {
                    converged: stable,
                    rounds,
                    values,
                    policy,
                });
            }
        }
    }
}

/// Result of a [`PolicyIteration`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyIterationOutcome {
    /// Values of the final policy.
    pub values: Vec<f64>,
    /// The final (optimal if `converged`) policy.
    pub policy: TabularPolicy,
    /// Whether the policy became stable within the round cap.
    pub converged: bool,
    /// Improvement rounds performed.
    pub rounds: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::solver::ValueIteration;

    #[test]
    fn agrees_with_value_iteration_on_two_state() {
        let (mdp, gamma) = reference::two_state();
        let pi = PolicyIteration::new(gamma).solve(&mdp).unwrap();
        let vi = ValueIteration::new(gamma)
            .tolerance(1e-12)
            .solve(&mdp)
            .unwrap();
        assert!(pi.converged);
        assert_eq!(pi.policy.actions(), vi.policy.actions());
        for (a, b) in pi.values.iter().zip(&vi.values) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn agrees_with_value_iteration_on_gridworld() {
        let (mdp, gamma) = reference::gridworld(4, 3, 0.15);
        let pi = PolicyIteration::new(gamma).solve(&mdp).unwrap();
        let vi = ValueIteration::new(gamma)
            .tolerance(1e-12)
            .solve(&mdp)
            .unwrap();
        assert!(pi.converged);
        for (a, b) in pi.values.iter().zip(&vi.values) {
            assert!((a - b).abs() < 1e-5, "value mismatch {a} vs {b}");
        }
    }

    #[test]
    fn converges_in_few_rounds_on_chain() {
        let (mdp, gamma) = reference::chain(10, 0.9);
        let out = PolicyIteration::new(gamma).solve(&mdp).unwrap();
        assert!(out.converged);
        // PI is famously fast: rounds should be far below the state count.
        assert!(out.rounds <= 10, "rounds was {}", out.rounds);
    }

    #[test]
    fn rejects_bad_gamma() {
        let (mdp, _) = reference::two_state();
        assert!(PolicyIteration::new(2.0).solve(&mdp).is_err());
    }
}
