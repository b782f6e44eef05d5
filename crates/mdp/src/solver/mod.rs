//! Solvers for finite MDPs.
//!
//! * [`ValueIteration`] — Bellman-optimality fixed point (the solver used for
//!   the paper's cache-management stage); its policy-only
//!   [`solve_policy`](ValueIteration::solve_policy) evaluates each greedy
//!   policy exactly on dense kernels (Howard's policy iteration) and stops
//!   as soon as the action gap certifies the greedy policy,
//! * [`PolicyIteration`] — Howard's algorithm,
//! * [`BackwardInduction`] — exact finite-horizon dynamic programming,
//! * [`RelativeValueIteration`] — average-reward (long-run gain) solving,
//! * [`QLearning`] / [`Sarsa`] — model-free tabular learners,
//! * [`evaluate_policy`] — iterative policy evaluation,
//! * [`bellman_residual`] — solution-quality diagnostic.
//!
//! ## Compile-then-solve
//!
//! Every sweep-based solver runs its fixed-point iteration on a
//! [`crate::CompiledMdp`] kernel: the generic
//! `solve(&impl FiniteMdp)` entry points compile the model once and forward
//! to the corresponding `solve_compiled(&CompiledMdp)` method, which
//! performs zero heap allocation per sweep. Every compiled solver runs the
//! same blocked Jacobi sweep loop: it fans the Bellman backups out across
//! worker threads once the model is large enough, and inside [`simkit::executor::serialized`] it stays on the
//! calling thread (there is no per-solver switch; results are bit-for-bit
//! identical either way). Callers who solve the same model repeatedly
//! should compile it themselves and call `solve_compiled` directly. The `solve_callback` methods retain
//! the original trait-callback implementations as a slow reference path for
//! differential tests and benchmarks.

mod finite_horizon;
mod policy_iteration;
mod q_learning;
mod relative_vi;
mod sarsa;
mod value_iteration;

pub use finite_horizon::{BackwardInduction, FiniteHorizonSolution};
pub use policy_iteration::{PolicyIteration, PolicyIterationOutcome};
pub use q_learning::QLearning;
pub use relative_vi::{AverageRewardOutcome, RelativeValueIteration};
pub use sarsa::Sarsa;
#[cfg(test)]
pub(crate) use value_iteration::certificate_slack;
pub use value_iteration::{
    PolicyOutcome, SolveCounters, StopReason, ValueIteration, ValueIterationOutcome,
};

use crate::compiled::{run_sweeps, sweep_workers, CompiledMdp};
use crate::model::{FiniteMdp, Transition};
use crate::policy::TabularPolicy;
use crate::MdpError;

/// Checks that `gamma` is a usable discount factor in `[0, 1)`.
pub(crate) fn validate_gamma(gamma: f64) -> Result<(), MdpError> {
    if !gamma.is_finite() || !(0.0..1.0).contains(&gamma) {
        return Err(MdpError::BadParameter {
            what: "gamma",
            valid: "[0, 1)",
        });
    }
    Ok(())
}

/// One-step lookahead value `Q(s, a) = Σ_s' p (r + γ V(s'))`, or `None` for
/// invalid actions (empty rows).
pub(crate) fn q_value<M: FiniteMdp>(
    mdp: &M,
    state: usize,
    action: usize,
    values: &[f64],
    gamma: f64,
    buf: &mut Vec<Transition>,
) -> Option<f64> {
    mdp.transitions(state, action, buf);
    if buf.is_empty() {
        return None;
    }
    Some(
        buf.iter()
            .map(|t| t.probability * (t.reward + gamma * values[t.next]))
            .sum(),
    )
}

/// Greedy policy with respect to a state-value function.
///
/// For each state picks `argmax_a Q(s, a)` over valid actions (ties break to
/// the lowest action index).
///
/// This is the trait-callback reference implementation; solver kernels use
/// the equivalent [`CompiledMdp::greedy_policy`] on the compiled form.
///
/// # Panics
///
/// Panics if `values.len() != mdp.n_states()` or a state has no valid action.
pub fn greedy_policy<M: FiniteMdp>(mdp: &M, values: &[f64], gamma: f64) -> TabularPolicy {
    assert_eq!(values.len(), mdp.n_states(), "value vector length mismatch");
    let mut buf = Vec::new();
    let actions = (0..mdp.n_states())
        .map(|s| {
            let mut best: Option<(usize, f64)> = None;
            for a in 0..mdp.n_actions() {
                if let Some(q) = q_value(mdp, s, a, values, gamma, &mut buf) {
                    if best.is_none_or(|(_, bq)| q > bq) {
                        best = Some((a, q));
                    }
                }
            }
            // lint:allow(panic-hygiene): models validate >= 1 valid action per
            // state at construction.
            best.expect("state must have at least one valid action").0
        })
        .collect();
    TabularPolicy::new(actions)
}

/// Sup-norm Bellman-optimality residual `‖T V − V‖_∞`: how far `values` is
/// from being the optimal fixed point. Zero (up to tolerance) certifies an
/// optimal value function.
///
/// This is the trait-callback reference implementation; use
/// [`CompiledMdp::bellman_residual`] when a compiled kernel is at hand.
pub fn bellman_residual<M: FiniteMdp>(mdp: &M, values: &[f64], gamma: f64) -> f64 {
    let mut buf = Vec::new();
    let mut residual: f64 = 0.0;
    for s in 0..mdp.n_states() {
        let mut best = f64::NEG_INFINITY;
        for a in 0..mdp.n_actions() {
            if let Some(q) = q_value(mdp, s, a, values, gamma, &mut buf) {
                best = best.max(q);
            }
        }
        residual = residual.max((best - values[s]).abs());
    }
    residual
}

/// Iterative policy evaluation: the value of following `policy` forever.
///
/// Compiles the model once and runs the allocation-free sweep kernel; when
/// a [`CompiledMdp`] is already at hand, call [`evaluate_policy_compiled`]
/// to skip the compilation.
///
/// # Errors
///
/// Returns [`MdpError::BadParameter`] for an invalid `gamma` and
/// [`MdpError::NotConverged`] if the sweep cap is hit first.
pub fn evaluate_policy<M: FiniteMdp>(
    mdp: &M,
    policy: &TabularPolicy,
    gamma: f64,
    tolerance: f64,
    max_sweeps: usize,
) -> Result<Vec<f64>, MdpError> {
    validate_gamma(gamma)?;
    let compiled = CompiledMdp::compile(mdp)?;
    evaluate_policy_compiled(&compiled, policy, gamma, tolerance, max_sweeps)
}

/// [`evaluate_policy`] on a pre-compiled kernel: zero heap allocation per
/// sweep, parallel across states when the model is large enough, serial
/// inside [`simkit::executor::serialized`].
///
/// # Errors
///
/// Returns [`MdpError::BadParameter`] for an invalid `gamma` and
/// [`MdpError::NotConverged`] if the sweep cap is hit first.
///
/// # Panics
///
/// Panics if the policy's state count differs from the model's or it picks
/// an invalid action.
pub fn evaluate_policy_compiled(
    mdp: &CompiledMdp,
    policy: &TabularPolicy,
    gamma: f64,
    tolerance: f64,
    max_sweeps: usize,
) -> Result<Vec<f64>, MdpError> {
    validate_gamma(gamma)?;
    assert_eq!(
        policy.n_states(),
        mdp.n_states(),
        "policy/model state-count mismatch"
    );
    let actions = policy.actions();
    // Validate up front (on this thread, with a precise message): an
    // invalid action would otherwise evaluate to a meaningless value.
    for (s, &a) in actions.iter().enumerate() {
        assert!(
            a < mdp.n_actions() && mdp.is_valid(s, a),
            "policy picks invalid action {a} in state {s}"
        );
    }
    let rows = mdp.policy_rows(|s| actions[s]);
    let n = mdp.n_states();
    let outcome = run_sweeps(
        vec![0.0; n],
        sweep_workers(n),
        max_sweeps,
        |states, values, out, stats| mdp.evaluate_block(states, values, out, gamma, &rows, stats),
        |_, stats, _| stats.max_abs < tolerance,
    );
    if outcome.converged {
        Ok(outcome.values)
    } else {
        // The sweep change the tolerance tests, not the optimality
        // residual (which stays large for any suboptimal policy).
        Err(MdpError::NotConverged {
            iterations: max_sweeps,
            residual: outcome.last.max_abs,
        })
    }
}

/// Trait-callback reference implementation of policy evaluation
/// (Gauss–Seidel, in-place), kept for differential testing against the
/// compiled kernel.
pub(crate) fn evaluate_policy_callback<M: FiniteMdp>(
    mdp: &M,
    policy: &TabularPolicy,
    gamma: f64,
    tolerance: f64,
    max_sweeps: usize,
) -> Result<Vec<f64>, MdpError> {
    validate_gamma(gamma)?;
    assert_eq!(
        policy.n_states(),
        mdp.n_states(),
        "policy/model state-count mismatch"
    );
    let mut values = vec![0.0; mdp.n_states()];
    let mut buf = Vec::new();
    for sweep in 0..max_sweeps {
        let mut delta: f64 = 0.0;
        for s in 0..mdp.n_states() {
            let a = policy.action(s);
            let q = q_value(mdp, s, a, &values, gamma, &mut buf)
                // lint:allow(panic-hygiene): the policy was produced by this
                // solver over the same model, so its actions are valid.
                .expect("policy must choose valid actions");
            delta = delta.max((q - values[s]).abs());
            values[s] = q;
        }
        if delta < tolerance {
            return Ok(values);
        }
        let _ = sweep;
    }
    Err(MdpError::NotConverged {
        iterations: max_sweeps,
        residual: bellman_residual(mdp, &values, gamma),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    #[test]
    fn greedy_policy_on_two_state() {
        let (mdp, gamma) = reference::two_state();
        // Optimal values from the closed form.
        let v1 = 1.0 / (1.0 - gamma);
        let v0 = gamma * v1;
        let policy = greedy_policy(&mdp, &[v0, v1], gamma);
        assert_eq!(policy.action(0), 1, "state 0 should jump to state 1");
    }

    #[test]
    fn bellman_residual_zero_at_fixed_point() {
        let (mdp, gamma) = reference::two_state();
        let v1 = 1.0 / (1.0 - gamma);
        let v0 = gamma * v1;
        assert!(bellman_residual(&mdp, &[v0, v1], gamma) < 1e-9);
        assert!(bellman_residual(&mdp, &[0.0, 0.0], gamma) > 0.5);
    }

    #[test]
    fn evaluate_policy_matches_closed_form() {
        let (mdp, gamma) = reference::two_state();
        // Policy: always action 1 (optimal).
        let policy = TabularPolicy::new(vec![1, 0]);
        let values = evaluate_policy(&mdp, &policy, gamma, 1e-12, 10_000).unwrap();
        let v1 = 1.0 / (1.0 - gamma);
        assert!((values[1] - v1).abs() < 1e-6, "v1 {} vs {}", values[1], v1);
        assert!((values[0] - gamma * v1).abs() < 1e-6);
    }

    #[test]
    fn evaluate_policy_rejects_bad_gamma() {
        let (mdp, _) = reference::two_state();
        let policy = TabularPolicy::new(vec![0, 0]);
        assert!(evaluate_policy(&mdp, &policy, 1.0, 1e-6, 10).is_err());
        assert!(evaluate_policy(&mdp, &policy, -0.1, 1e-6, 10).is_err());
    }

    #[test]
    fn evaluate_policy_reports_non_convergence() {
        let (mdp, gamma) = reference::two_state();
        let policy = TabularPolicy::new(vec![1, 0]);
        let err = evaluate_policy(&mdp, &policy, gamma, 1e-12, 1).unwrap_err();
        // One sweep from V = 0: state 1 collects reward 1, state 0 nothing,
        // so the last sweep's change is exactly 1 (the optimality residual
        // of that iterate would be γ = 0.9).
        assert!(matches!(
            err,
            MdpError::NotConverged {
                iterations: 1,
                residual
            } if residual == 1.0
        ));
        // Three sweeps, replayed by hand with the kernel's arithmetic.
        let (mut v0, mut v1, mut last_change) = (0.0f64, 0.0f64, 0.0f64);
        for _ in 0..3 {
            let next0 = 0.0 + gamma * (0.0 + 1.0 * v1);
            let next1 = 1.0 + gamma * (0.0 + 1.0 * v1);
            last_change = (next0 - v0).abs().max((next1 - v1).abs());
            (v0, v1) = (next0, next1);
        }
        let err = evaluate_policy(&mdp, &policy, gamma, 1e-12, 3).unwrap_err();
        assert!(matches!(
            err,
            MdpError::NotConverged {
                iterations: 3,
                residual
            } if residual == last_change
        ));
    }
}
