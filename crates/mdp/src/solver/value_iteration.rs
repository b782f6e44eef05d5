//! Value iteration (Bellman-optimality fixed point).

use crate::compiled::{run_sweeps, sweep_workers, CompiledMdp, SweepStats};
use crate::model::FiniteMdp;
use crate::policy::TabularPolicy;
use crate::solver::{greedy_policy, q_value, validate_gamma};
use crate::MdpError;
use serde::{Deserialize, Serialize};

/// Configuration for value iteration.
///
/// [`solve`](ValueIteration::solve) compiles the model into a
/// [`CompiledMdp`] CSR kernel and iterates on the flat arrays; use
/// [`solve_compiled`](ValueIteration::solve_compiled) to reuse an existing
/// kernel across solves.
///
/// ```
/// use mdp::solver::ValueIteration;
/// use mdp::reference;
///
/// let (mdp, gamma) = reference::two_state();
/// let outcome = ValueIteration::new(gamma).solve(&mdp).unwrap();
/// assert!(outcome.converged);
/// let v1 = 1.0 / (1.0 - gamma);
/// assert!((outcome.values[1] - v1).abs() < 1e-6);
/// assert_eq!(outcome.policy.action(0), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValueIteration {
    /// Discount factor in `[0, 1)`.
    pub gamma: f64,
    /// Stop once the sup-norm change of one sweep falls below this.
    pub tolerance: f64,
    /// Hard cap on sweeps.
    pub max_sweeps: usize,
}

impl ValueIteration {
    /// Creates a solver with defaults `tolerance = 1e-9`,
    /// `max_sweeps = 10_000`.
    pub fn new(gamma: f64) -> Self {
        ValueIteration {
            gamma,
            tolerance: 1e-9,
            max_sweeps: 10_000,
        }
    }

    /// Sets the convergence tolerance.
    #[must_use]
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the sweep cap.
    #[must_use]
    pub fn max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Runs value iteration to the Bellman-optimality fixed point.
    ///
    /// Compiles the model once, then iterates on the CSR kernel. Returns the
    /// final iterate even when the sweep cap was reached
    /// (`converged == false`), so callers can inspect partial progress.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] if `gamma ∉ [0, 1)`, or a
    /// compilation error ([`MdpError::EmptyModel`] and friends) for
    /// malformed models.
    pub fn solve<M: FiniteMdp>(&self, mdp: &M) -> Result<ValueIterationOutcome, MdpError> {
        validate_gamma(self.gamma)?;
        let compiled = CompiledMdp::compile(mdp)?;
        self.solve_compiled(&compiled)
    }

    /// Runs value iteration on a pre-compiled kernel: zero heap allocation
    /// per sweep, backups parallelized across worker threads when the model
    /// is large enough, and serial inside
    /// [`simkit::executor::serialized`] (bit-for-bit identical either way).
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] if `gamma ∉ [0, 1)`.
    pub fn solve_compiled(&self, mdp: &CompiledMdp) -> Result<ValueIterationOutcome, MdpError> {
        validate_gamma(self.gamma)?;
        let gamma = self.gamma;
        let tolerance = self.tolerance;
        let n = mdp.n_states();
        let outcome = run_sweeps(
            vec![0.0; n],
            sweep_workers(n),
            self.max_sweeps,
            |states, values, out, _| mdp.backup_block(states, values, out, gamma),
            |_, stats, _| stats.max_abs < tolerance,
        );
        let policy = mdp.greedy_policy(&outcome.values, gamma)?;
        Ok(ValueIterationOutcome {
            converged: outcome.converged,
            sweeps: outcome.sweeps,
            residual: outcome.last.max_abs,
            values: outcome.values,
            policy,
        })
    }

    /// Solves for the optimal **policy** only, stopping at the first sweep
    /// whose action gap proves the greedy policy optimal.
    ///
    /// Runs the same blocked sweeps as
    /// [`solve_compiled`](ValueIteration::solve_compiled) and additionally
    /// tracks, per sweep `k`, the smallest best-minus-runner-up margin
    /// `g_k` of `Q(s, ·)` over `V_{k−1}` and the span `[lo_k, hi_k]` of
    /// `V_k − V_{k−1}`. It stops once
    ///
    /// ```text
    /// g_k > 2γ (hi_k − lo_k) / (1 − γ) + slack
    /// ```
    ///
    /// By MacQueen's bounds (Puterman, *Markov Decision Processes*, 1994,
    /// §6.6), `V* − V_{k−1}` lies in `[lo_k, hi_k] / (1 − γ)`, so `Q*`
    /// differs from sweep `k`'s Q by a common shift plus at most
    /// `γ (hi_k − lo_k) / (1 − γ)`; the Q of every later iterate `V_j`
    /// differs from `Q*` by at most `γ` times that again. Each state's
    /// sweep-`k` argmax is therefore its unique optimal action and the
    /// strict greedy action of every later iterate: the returned policy
    /// equals `solve_compiled(..).policy` exactly. `slack` (a few ulps of the
    /// value bound `max |E[r]| / (1 − γ)`, scaled by `1 / (1 − γ)`)
    /// absorbs float rounding.
    ///
    /// The bound needs every valid row to carry probability mass 1
    /// ([`CompiledMdp::has_unit_mass_rows`]); on other kernels, and when
    /// the margin never clears the bound (exact action ties), the solve
    /// stops by the tolerance rule at the same sweep as `solve_compiled`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] if `gamma ∉ [0, 1)`, and
    /// [`MdpError::NotConverged`] if neither rule stops the solve within
    /// the sweep cap.
    pub fn solve_policy(&self, mdp: &CompiledMdp) -> Result<PolicyOutcome, MdpError> {
        validate_gamma(self.gamma)?;
        let gamma = self.gamma;
        let tolerance = self.tolerance;
        let certifiable = mdp.has_unit_mass_rows();
        let reward_bound = mdp.reward_bound();
        let certified =
            |stats: &SweepStats| certifiable && gap_certifies(stats, gamma, reward_bound);
        let n = mdp.n_states();
        let outcome = run_sweeps(
            vec![0.0; n],
            sweep_workers(n),
            self.max_sweeps,
            |states, values, out, stats| {
                mdp.backup_block_with_gap(states, values, out, gamma, stats)
            },
            |_, stats, _| certified(stats) || stats.max_abs < tolerance,
        );
        let last = outcome.last;
        if !outcome.converged {
            return Err(MdpError::NotConverged {
                iterations: outcome.sweeps,
                residual: last.max_abs,
            });
        }
        Ok(PolicyOutcome {
            policy: mdp.greedy_policy(&outcome.values, gamma)?,
            counters: SolveCounters {
                sweeps: outcome.sweeps,
                stop: if certified(&last) {
                    StopReason::Certified
                } else {
                    StopReason::Tolerance
                },
                margin: last.margin,
                span: last.span(),
            },
        })
    }

    /// Trait-callback reference implementation (Gauss–Seidel, in-place),
    /// kept for differential testing and benchmarking against the compiled
    /// kernel.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] if `gamma ∉ [0, 1)` or the model is
    /// empty.
    pub fn solve_callback<M: FiniteMdp>(&self, mdp: &M) -> Result<ValueIterationOutcome, MdpError> {
        validate_gamma(self.gamma)?;
        if mdp.n_states() == 0 || mdp.n_actions() == 0 {
            return Err(MdpError::EmptyModel);
        }
        let mut values = vec![0.0; mdp.n_states()];
        let mut buf = Vec::new();
        let mut sweeps = 0;
        let mut delta = f64::INFINITY;
        while sweeps < self.max_sweeps {
            sweeps += 1;
            delta = 0.0;
            for s in 0..mdp.n_states() {
                let mut best = f64::NEG_INFINITY;
                for a in 0..mdp.n_actions() {
                    if let Some(q) = q_value(mdp, s, a, &values, self.gamma, &mut buf) {
                        best = best.max(q);
                    }
                }
                debug_assert!(
                    best.is_finite(),
                    "state {s} has no valid action or non-finite backup"
                );
                delta = delta.max((best - values[s]).abs());
                values[s] = best;
            }
            if delta < self.tolerance {
                break;
            }
        }
        let policy = greedy_policy(mdp, &values, self.gamma);
        Ok(ValueIterationOutcome {
            converged: delta < self.tolerance,
            sweeps,
            residual: delta,
            values,
            policy,
        })
    }
}

/// Ulps of the value bound (per `1 − γ`) that the action-gap certificate
/// sets aside for float rounding: each Q carries a few ulps of error, and
/// rounding in every sweep compounds over the `1 / (1 − γ)` horizon.
const CERTIFICATE_ULPS: f64 = 16.0;

/// Whether one sweep's stats prove its argmax actions optimal:
/// `margin > 2γ·span/(1 − γ) + slack` (see
/// [`ValueIteration::solve_policy`]). `reward_bound / (1 − γ)` bounds every
/// value, and so the magnitude rounding scales with.
fn gap_certifies(stats: &SweepStats, gamma: f64, reward_bound: f64) -> bool {
    let horizon = 1.0 / (1.0 - gamma);
    let slack = CERTIFICATE_ULPS * f64::EPSILON * reward_bound * horizon * horizon;
    stats.margin > 2.0 * gamma * stats.span() * horizon + slack
}

/// Why a [`ValueIteration::solve_policy`] solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The action-gap certificate proved the greedy policy optimal.
    Certified,
    /// The sup-norm sweep change fell below the tolerance (the same stop as
    /// [`ValueIteration::solve_compiled`]).
    Tolerance,
}

/// Deterministic counters of a [`ValueIteration::solve_policy`] solve
/// (no wall-clock data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveCounters {
    /// Sweeps performed.
    pub sweeps: usize,
    /// Which rule stopped the solve.
    pub stop: StopReason,
    /// Smallest best-minus-runner-up Q margin of the final sweep (`+∞`
    /// when every state has a single valid action, `0` on an exact tie).
    pub margin: f64,
    /// Span `hi − lo` of the final sweep's change `V_k − V_{k−1}`.
    pub span: f64,
}

/// Result of [`ValueIteration::solve_policy`]: the optimal policy and how
/// the solve reached it.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// The optimal policy (identical to `solve_compiled(..).policy`).
    pub policy: TabularPolicy,
    /// Sweeps, stop rule, final margin and span.
    pub counters: SolveCounters,
}

/// Result of a [`ValueIteration`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValueIterationOutcome {
    /// Optimal (or best-found) state values.
    pub values: Vec<f64>,
    /// Greedy policy with respect to `values`.
    pub policy: TabularPolicy,
    /// Whether the tolerance was reached within the sweep cap.
    pub converged: bool,
    /// Sweeps performed.
    pub sweeps: usize,
    /// Final sup-norm sweep change.
    pub residual: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FnMdp;
    use crate::reference;
    use crate::solver::bellman_residual;

    #[test]
    fn two_state_closed_form() {
        let (mdp, gamma) = reference::two_state();
        let out = ValueIteration::new(gamma)
            .tolerance(1e-12)
            .solve(&mdp)
            .unwrap();
        assert!(out.converged);
        let v1 = 1.0 / (1.0 - gamma);
        assert!((out.values[1] - v1).abs() < 1e-6);
        assert!((out.values[0] - gamma * v1).abs() < 1e-6);
        assert_eq!(out.policy.action(0), 1);
    }

    #[test]
    fn chain_prefers_forward_action() {
        let (mdp, gamma) = reference::chain(8, 0.9);
        let out = ValueIteration::new(gamma).solve(&mdp).unwrap();
        assert!(out.converged);
        // Values must increase toward the rewarding end of the chain.
        for s in 1..8 {
            assert!(
                out.values[s] >= out.values[s - 1] - 1e-9,
                "values should be monotone along the chain"
            );
        }
        // Every interior state should walk forward.
        for s in 0..7 {
            assert_eq!(out.policy.action(s), reference::CHAIN_FORWARD);
        }
    }

    #[test]
    fn residual_certifies_solution() {
        let (mdp, gamma) = reference::gridworld(4, 4, 0.1);
        let out = ValueIteration::new(gamma)
            .tolerance(1e-10)
            .solve(&mdp)
            .unwrap();
        // ||TV - V|| <= tolerance * small factor near the fixed point.
        assert!(bellman_residual(&mdp, &out.values, gamma) < 1e-8);
    }

    #[test]
    fn sweep_cap_reports_partial() {
        let (mdp, gamma) = reference::chain(16, 0.99);
        let out = ValueIteration::new(gamma)
            .tolerance(1e-12)
            .max_sweeps(2)
            .solve(&mdp)
            .unwrap();
        assert!(!out.converged);
        assert_eq!(out.sweeps, 2);
        assert!(out.residual > 0.0);
    }

    #[test]
    fn rejects_bad_gamma() {
        let (mdp, _) = reference::two_state();
        assert!(ValueIteration::new(1.0).solve(&mdp).is_err());
        assert!(ValueIteration::new(f64::NAN).solve(&mdp).is_err());
    }

    /// Compiled solve and certified policy solve of one kernel.
    fn both_solves(
        mdp: &impl FiniteMdp,
        gamma: f64,
    ) -> (CompiledMdp, ValueIterationOutcome, PolicyOutcome) {
        let kernel = CompiledMdp::compile(mdp).unwrap();
        let vi = ValueIteration::new(gamma);
        let full = vi.solve_compiled(&kernel).unwrap();
        let certified = vi.solve_policy(&kernel).unwrap();
        (kernel, full, certified)
    }

    #[test]
    fn certified_solve_returns_the_full_solve_policy_sooner() {
        for (mdp, gamma) in [reference::chain(16, 0.9), reference::chain(8, 1.0)] {
            let (kernel, full, certified) = both_solves(&mdp, gamma);
            assert!(kernel.has_unit_mass_rows());
            assert_eq!(certified.policy, full.policy);
            assert_eq!(certified.counters.stop, StopReason::Certified);
            assert!(certified.counters.sweeps < full.sweeps);
        }
    }

    /// Action 2 duplicates the optimal forward move in every state: the
    /// action gap is exactly 0, no certificate can hold, and the solve stops
    /// by the tolerance rule at the full solve's sweep.
    #[test]
    fn exact_tie_falls_back_to_the_tolerance_rule() {
        let (chain, gamma) = reference::chain(8, 0.9);
        let tied = FnMdp::new(8, 3, |s, a, out| {
            let a = if a == 2 { reference::CHAIN_FORWARD } else { a };
            chain.transitions(s, a, out)
        });
        let (kernel, full, certified) = both_solves(&tied, gamma);
        assert!(kernel.has_unit_mass_rows());
        assert_eq!(certified.counters.stop, StopReason::Tolerance);
        assert_eq!(certified.counters.margin, 0.0);
        assert_eq!(certified.counters.sweeps, full.sweeps);
        assert_eq!(certified.policy, full.policy);
    }

    /// Rows that keep only 60% of their mass break the bound the
    /// certificate rests on, so compilation flags the kernel and the solve
    /// runs to tolerance even though its final gap clears the bound.
    #[test]
    fn substochastic_model_never_certifies() {
        let (chain, gamma) = reference::chain(8, 1.0);
        let leaky = FnMdp::new(8, 2, |s, a, out| {
            chain.transitions(s, a, out);
            for t in out.iter_mut() {
                t.probability *= 0.6;
            }
        });
        let (kernel, full, certified) = both_solves(&leaky, gamma);
        let counters = certified.counters;
        assert!(!kernel.has_unit_mass_rows());
        assert_eq!(counters.stop, StopReason::Tolerance);
        assert!(
            counters.margin > 2.0 * gamma * counters.span / (1.0 - gamma),
            "{counters:?}"
        );
        assert_eq!(counters.sweeps, full.sweeps);
        assert_eq!(certified.policy, full.policy);
    }

    #[test]
    fn policy_solve_errors_at_the_sweep_cap() {
        let (mdp, gamma) = reference::chain(16, 0.99);
        let kernel = CompiledMdp::compile(&mdp).unwrap();
        let err = ValueIteration::new(gamma)
            .max_sweeps(2)
            .solve_policy(&kernel)
            .unwrap_err();
        match err {
            MdpError::NotConverged {
                iterations,
                residual,
            } => {
                assert_eq!(iterations, 2);
                assert!(residual > 0.0);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn gamma_zero_is_myopic() {
        let (mdp, _) = reference::two_state();
        let out = ValueIteration::new(0.0).solve(&mdp).unwrap();
        // With no lookahead the value equals the best immediate reward.
        assert_eq!(out.values[1], 1.0);
        assert_eq!(out.values[0], 0.0);
    }
}
