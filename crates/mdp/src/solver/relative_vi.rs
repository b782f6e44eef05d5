//! Relative value iteration for average-reward MDPs.
//!
//! The paper's cache-management objective is a *long-run* utility; the
//! discounted solvers approximate it with γ → 1. Relative value iteration
//! (RVI) solves the average-reward criterion directly: it finds the gain
//! `ρ* = max_π lim (1/T) Σ r_t` and a bias vector `h` satisfying the
//! optimality equation `h(s) + ρ* = max_a Σ p (r + h(s'))`.

use crate::compiled::{run_sweeps, sweep_workers, CompiledMdp};
use crate::model::FiniteMdp;
use crate::policy::TabularPolicy;
use crate::solver::{greedy_policy, q_value};
use crate::MdpError;
use serde::{Deserialize, Serialize};

/// Relative value iteration configuration.
///
/// The bias `h` is unique up to one constant only when the MDP is
/// *unichain* (a single recurrent class) under the optimal policy. The
/// cache MDP need not be: a model can have several optimal recurrent
/// cycles (three of the eight fig1a models at seeds 1–2 have 2 to 5).
/// On such a multichain model the solve still converges and returns a
/// *gain-optimal* table — every state gets the optimal gain — but each
/// recurrent class leaves its own free constant in `h`. So in transient
/// states where several actions are gain-optimal, the chosen action
/// depends on where the damped iteration lands (the `damping` value and
/// the start values), not on a fixed tie rule. An aperiodicity transform
/// (damping) is applied internally so the iteration converges even on
/// periodic chains.
/// [`solve`](RelativeValueIteration::solve) compiles the model into a
/// [`CompiledMdp`] once and sweeps on its flat arrays.
///
/// ```
/// use mdp::solver::RelativeValueIteration;
/// use mdp::reference;
///
/// let (mdp, _) = reference::two_state();
/// let out = RelativeValueIteration::new().solve(&mdp).unwrap();
/// // Optimal long-run average reward: live in state 1 forever => 1/slot.
/// assert!((out.gain - 1.0).abs() < 1e-6);
/// assert_eq!(out.policy.action(0), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelativeValueIteration {
    /// Stop when the span of one sweep's change falls below this.
    pub tolerance: f64,
    /// Hard cap on sweeps.
    pub max_sweeps: usize,
    /// Aperiodicity damping `τ ∈ (0, 1]`: each backup mixes `τ` of the
    /// Bellman operator with `1 − τ` of the identity.
    pub damping: f64,
}

impl Default for RelativeValueIteration {
    fn default() -> Self {
        RelativeValueIteration {
            tolerance: 1e-9,
            max_sweeps: 100_000,
            damping: 0.5,
        }
    }
}

impl RelativeValueIteration {
    /// Creates a solver with default tolerance/damping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the span tolerance.
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

    fn validate(&self) -> Result<(), MdpError> {
        if !self.damping.is_finite() || self.damping <= 0.0 || self.damping > 1.0 {
            return Err(MdpError::BadParameter {
                what: "damping",
                valid: "(0, 1]",
            });
        }
        Ok(())
    }

    /// Runs RVI.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] for an invalid damping factor, a
    /// compilation error ([`MdpError::EmptyModel`] and friends) for
    /// malformed models, or [`MdpError::NotConverged`] if the span
    /// tolerance is not reached.
    pub fn solve<M: FiniteMdp>(&self, mdp: &M) -> Result<AverageRewardOutcome, MdpError> {
        self.validate()?;
        let compiled = CompiledMdp::compile(mdp)?;
        self.solve_compiled(&compiled)
    }

    /// Runs RVI on a pre-compiled kernel: zero heap allocation per sweep,
    /// parallel across states when the model is large enough, and serial
    /// inside [`simkit::executor::serialized`] (bit-for-bit identical
    /// either way).
    ///
    /// Each sweep is one pass over the iterate: every state's damped
    /// backup `(1 − τ)·h(s) + τ·max_a Q(s, a)` records its change (the span
    /// the stop rule tests, whose midpoint over `τ` is the gain) and is
    /// stored minus state 0's damped backup, which each sweep block
    /// computes for itself, so `bias[0] = 0` after every sweep.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] for an invalid damping factor or
    /// [`MdpError::NotConverged`] if the span tolerance is not reached.
    pub fn solve_compiled(&self, mdp: &CompiledMdp) -> Result<AverageRewardOutcome, MdpError> {
        self.validate()?;
        let damping = self.damping;
        let tolerance = self.tolerance;
        // Damped Bellman backup (gamma = 1), its change recorded and the
        // iterate re-anchored at the reference state 0, all in the backup's
        // one pass, so the bias stays bounded.
        let n = mdp.n_states();
        let outcome = run_sweeps(
            vec![0.0; n],
            sweep_workers(n),
            self.max_sweeps,
            |states, h, out, stats| mdp.relative_sweep_block(states, h, out, damping, stats),
            |_, stats, _| stats.span() < tolerance,
        );
        if !outcome.converged {
            return Err(MdpError::NotConverged {
                iterations: outcome.sweeps,
                residual: outcome.last.span(),
            });
        }
        // Gain: the per-sweep drift divided by the damping.
        let gain = (outcome.last.hi + outcome.last.lo) / 2.0 / damping;
        let policy = mdp.greedy_policy(&outcome.values, 1.0)?;
        Ok(AverageRewardOutcome {
            gain,
            bias: outcome.values,
            policy,
            sweeps: outcome.sweeps,
        })
    }

    /// Trait-callback reference implementation, kept for differential
    /// testing against the compiled kernel.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve`](RelativeValueIteration::solve).
    pub fn solve_callback<M: FiniteMdp>(&self, mdp: &M) -> Result<AverageRewardOutcome, MdpError> {
        self.validate()?;
        if mdp.n_states() == 0 || mdp.n_actions() == 0 {
            return Err(MdpError::EmptyModel);
        }
        let n = mdp.n_states();
        let mut h = vec![0.0; n];
        let mut buf = Vec::new();
        let reference_state = 0usize;
        let mut last_span = f64::INFINITY;

        for sweep in 1..=self.max_sweeps {
            let mut next = vec![0.0; n];
            for s in 0..n {
                let mut best = f64::NEG_INFINITY;
                for a in 0..mdp.n_actions() {
                    // gamma = 1: plain expected r + h(s').
                    if let Some(q) = q_value(mdp, s, a, &h, 1.0, &mut buf) {
                        best = best.max(q);
                    }
                }
                debug_assert!(best.is_finite(), "state {s} has no valid action");
                next[s] = (1.0 - self.damping) * h[s] + self.damping * best;
            }
            // Normalize by the reference state so h stays bounded.
            let offset = next[reference_state];
            let mut span_lo = f64::INFINITY;
            let mut span_hi = f64::NEG_INFINITY;
            for s in 0..n {
                let delta = next[s] - h[s];
                span_lo = span_lo.min(delta);
                span_hi = span_hi.max(delta);
                h[s] = next[s] - offset;
            }
            last_span = span_hi - span_lo;
            if last_span < self.tolerance {
                // Gain: the per-sweep drift divided by the damping.
                let gain = (span_hi + span_lo) / 2.0 / self.damping;
                let policy = greedy_policy(mdp, &h, 1.0);
                return Ok(AverageRewardOutcome {
                    gain,
                    bias: h,
                    policy,
                    sweeps: sweep,
                });
            }
        }
        Err(MdpError::NotConverged {
            iterations: self.max_sweeps,
            residual: last_span,
        })
    }
}

/// Result of average-reward solving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AverageRewardOutcome {
    /// Optimal long-run average reward per slot `ρ*`.
    pub gain: f64,
    /// Bias (relative value) vector, normalized to `bias[0] = 0`.
    pub bias: Vec<f64>,
    /// Gain-optimal stationary policy.
    pub policy: TabularPolicy,
    /// Sweeps performed.
    pub sweeps: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::solver::ValueIteration;
    use crate::TabularMdp;

    /// The gain of a fixed policy: RVI on the one-action model that keeps
    /// only the policy's row in every state.
    fn gain_of<M: FiniteMdp>(mdp: &M, policy: &TabularPolicy) -> f64 {
        let mut b = TabularMdp::builder(mdp.n_states(), 1);
        let mut row = Vec::new();
        for s in 0..mdp.n_states() {
            mdp.transitions(s, policy.action(s), &mut row);
            for t in &row {
                b = b.transition(s, 0, t.next, t.probability, t.reward);
            }
        }
        let restricted = b.build().unwrap();
        RelativeValueIteration::new()
            .solve(&restricted)
            .unwrap()
            .gain
    }

    #[test]
    fn two_state_gain_is_one() {
        let (mdp, _) = reference::two_state();
        let out = RelativeValueIteration::new().solve(&mdp).unwrap();
        assert!((out.gain - 1.0).abs() < 1e-6, "gain {}", out.gain);
        assert_eq!(out.policy.action(0), 1);
        assert_eq!(out.bias[0], 0.0, "bias normalized at state 0");
    }

    #[test]
    fn chain_gain_is_one_at_the_end() {
        // The chain's optimal long-run behaviour parks at the right end and
        // collects 1 per slot.
        let (mdp, _) = reference::chain(6, 1.0);
        let out = RelativeValueIteration::new().solve(&mdp).unwrap();
        assert!((out.gain - 1.0).abs() < 1e-6);
        for s in 0..5 {
            assert_eq!(out.policy.action(s), reference::CHAIN_FORWARD);
        }
    }

    #[test]
    fn agrees_with_high_gamma_discounted_policy() {
        let (mdp, _) = reference::gridworld(3, 3, 0.1);
        let rvi = RelativeValueIteration::new().solve(&mdp).unwrap();
        let vi = ValueIteration::new(0.999)
            .tolerance(1e-10)
            .solve(&mdp)
            .unwrap();
        // Blackwell optimality: for gamma close enough to 1 the discounted
        // optimal policy is gain-optimal. Compare achieved gains instead of
        // raw action tables (ties may differ).
        let g_rvi = gain_of(&mdp, &rvi.policy);
        let g_vi = gain_of(&mdp, &vi.policy);
        assert!((g_rvi - g_vi).abs() < 1e-4, "{g_rvi} vs {g_vi}");
        assert!((g_rvi - rvi.gain).abs() < 1e-3, "gain self-consistent");
    }

    #[test]
    fn rejects_bad_damping() {
        let (mdp, _) = reference::two_state();
        assert!(RelativeValueIteration {
            damping: 0.0,
            ..Default::default()
        }
        .solve(&mdp)
        .is_err());
        assert!(RelativeValueIteration {
            damping: 1.5,
            ..Default::default()
        }
        .solve(&mdp)
        .is_err());
    }

    #[test]
    fn reports_non_convergence() {
        let (mdp, _) = reference::chain(8, 0.7);
        let err = RelativeValueIteration::new()
            .tolerance(1e-15)
            .max_sweeps(3)
            .solve(&mdp)
            .unwrap_err();
        match err {
            MdpError::NotConverged {
                iterations,
                residual,
            } => {
                assert_eq!(iterations, 3);
                assert!(
                    residual.is_finite() && residual > 1e-15,
                    "residual {residual}"
                );
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }
}
