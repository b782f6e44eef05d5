//! Value iteration (Bellman-optimality fixed point).

use crate::compiled::{run_sweeps, sweep_workers, CompiledMdp, CycleWalk, SweepStats};
use crate::model::FiniteMdp;
use crate::policy::TabularPolicy;
use crate::solver::{greedy_policy, q_value, validate_gamma};
use crate::MdpError;
use serde::{Deserialize, Serialize};

/// Configuration for value iteration.
///
/// [`solve`](ValueIteration::solve) compiles the model into a
/// [`CompiledMdp`] kernel and iterates on the flat arrays; use
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
    /// Compiles the model once, then iterates on the compiled kernel. Returns the
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
            |states, values, out, stats| mdp.sweep_block(states, values, out, gamma, stats),
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

    /// Solves for the optimal **policy** only, stopping at the first full
    /// sweep whose action gap proves the greedy policy optimal.
    ///
    /// A full (greedy) sweep `V' = T V` runs the blocked Bellman backups of
    /// [`solve_compiled`](ValueIteration::solve_compiled) and additionally
    /// tracks each state's argmax, the smallest best-minus-runner-up margin
    /// `g` of `Q(s, ·)` over `V`, and the span `[lo, hi]` of `V' − V`. The
    /// solve stops at the first full sweep with
    ///
    /// ```text
    /// g > 2γ (hi − lo) / (1 − γ) + slack
    /// ```
    ///
    /// By MacQueen's bounds (Puterman, *Markov Decision Processes*, 1994,
    /// §6.6), which hold for **any** `V`, `V* − V` lies in
    /// `[lo, hi] / (1 − γ)`, so `Q*` differs from the sweep's Q by a common
    /// shift plus at most `γ (hi − lo) / (1 − γ)`; the Q of every later
    /// value-iteration iterate differs from `Q*` by at most `γ` times that
    /// again. Each state's sweep argmax is therefore its unique optimal
    /// action and the strict greedy action of every later iterate: the
    /// returned policy equals `solve_compiled(..).policy` exactly. `slack`
    /// (a few ulps of the value bound `max |E[r]| / (1 − γ)`, scaled by
    /// `1 / (1 − γ)`) absorbs float rounding.
    ///
    /// Because the certificate does not care how `V` was reached, the
    /// solve on a dense kernel ([`CompiledMdp::has_dense_layout`]) runs
    /// Howard's policy iteration inside the loop (Puterman §6.4): after
    /// each uncertified full sweep the iterate is replaced by the exact
    /// value `V_π` of that sweep's argmax `π`, computed in O(n) by walking
    /// `π`'s functional graph (see [`CompiledMdp`]'s module docs). A
    /// certificate from this phase must also clear the tolerance rule's
    /// error band (so the table is the one a tolerance stop would return
    /// too), and the returned policy is the certifying sweep's argmax.
    ///
    /// CSR kernels run plain value iteration with the certificate and the
    /// tolerance rule as stops. The bound needs every valid row to carry
    /// probability mass 1 ([`CompiledMdp::has_unit_mass_rows`]); other
    /// kernels stop by the tolerance rule at the same sweep as
    /// `solve_compiled`. The exact phase gives way to plain value iteration
    /// restarted from `V = 0` (certified or tolerance stop, the rules and
    /// counts of a plain solve) when its gap is exactly 0 on two
    /// consecutive full sweeps (exact action ties), when its full-sweep
    /// change falls below the tolerance without a certificate, or when it
    /// reaches the sweep cap. The whole solve, restart included, is one
    /// sweep loop with one worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] if `gamma ∉ [0, 1)`, and
    /// [`MdpError::NotConverged`] if the plain value iteration reaches the
    /// sweep cap before either rule stops it.
    pub fn solve_policy(&self, mdp: &CompiledMdp) -> Result<PolicyOutcome, MdpError> {
        validate_gamma(self.gamma)?;
        let (gamma, tolerance, max_sweeps) = (self.gamma, self.tolerance, self.max_sweeps);
        let certifiable = mdp.has_unit_mass_rows();
        let reward_bound = mdp.reward_bound();
        let certified =
            |stats: &SweepStats| certifiable && gap_certifies(stats, gamma, reward_bound);
        let outlasts_tolerance =
            |stats: &SweepStats| gap_outlasts_tolerance(stats, gamma, tolerance, reward_bound);
        let n = mdp.n_states();
        // Argmax of the latest full sweep, stored by the sweep workers
        // (which overwrite every placeholder action 0) and read by the
        // epilogue after the round barrier.
        let greedy = mdp.policy_rows(|_| 0);
        let mut exact = mdp.has_dense_layout();
        let mut walk = CycleWalk::new(if exact { n } else { 0 });
        let (mut sweeps, mut evaluations) = (0usize, 0usize);
        let mut last_gap_zero = false;
        let mut stop = None;
        let outcome = run_sweeps(
            vec![0.0; n],
            sweep_workers(n),
            // The exact phase runs at most `max_sweeps` full sweeps, the
            // plain phase `max_sweeps` more.
            max_sweeps.saturating_mul(2),
            |states, values, out, stats| {
                mdp.sweep_block_with_gap(states, values, out, gamma, stats, &greedy)
            },
            |values, stats, _| {
                sweeps += 1;
                if !exact {
                    if certified(stats) {
                        stop = Some(StopReason::Certified);
                    } else if stats.max_abs < tolerance {
                        stop = Some(StopReason::Tolerance);
                    }
                    return stop.is_some() || sweeps >= max_sweeps;
                }
                if certified(stats) && outlasts_tolerance(stats) {
                    stop = Some(StopReason::Certified);
                    return true;
                }
                let tied = stats.margin == 0.0 && last_gap_zero;
                last_gap_zero = stats.margin == 0.0;
                if tied || stats.max_abs < tolerance || sweeps >= max_sweeps {
                    // Restart as plain value iteration from zero, counted
                    // afresh.
                    exact = false;
                    (sweeps, evaluations) = (0, 0);
                    values.fill(0.0);
                    return false;
                }
                mdp.evaluate_exact(&greedy, gamma, values, &mut walk);
                evaluations += 1;
                false
            },
        );
        let last = outcome.last;
        let Some(stop) = stop else {
            return Err(MdpError::NotConverged {
                iterations: sweeps,
                residual: last.max_abs,
            });
        };
        let policy = match stop {
            // The certifying sweep's argmax is the unique optimal table.
            StopReason::Certified => greedy.into_policy(),
            StopReason::Tolerance => mdp.greedy_policy(&outcome.values, gamma)?,
        };
        Ok(PolicyOutcome {
            policy,
            counters: SolveCounters {
                sweeps,
                evaluations,
                stop,
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

/// The rounding allowance of the certificate tests: `reward_bound / (1 − γ)`
/// bounds every value-iteration iterate from `V = 0` and every policy's
/// exact value, and so the magnitude rounding scales with.
pub(crate) fn certificate_slack(gamma: f64, reward_bound: f64) -> f64 {
    let horizon = 1.0 / (1.0 - gamma);
    CERTIFICATE_ULPS * f64::EPSILON * reward_bound * horizon * horizon
}

/// Whether one sweep's stats prove its argmax actions optimal:
/// `margin > 2γ·span/(1 − γ) + slack` (see
/// [`ValueIteration::solve_policy`]).
fn gap_certifies(stats: &SweepStats, gamma: f64, reward_bound: f64) -> bool {
    let horizon = 1.0 / (1.0 - gamma);
    stats.margin > 2.0 * gamma * stats.span() * horizon + certificate_slack(gamma, reward_bound)
}

/// Whether a certified table is also the one a tolerance stop returns.
/// Every optimal-action margin of `Q*` exceeds `margin − γ·span/(1 − γ)`,
/// and a value iterate whose sweep change is below `tolerance` has Q
/// values within `γ²·tolerance/(1 − γ)` of `Q*`, so its greedy policy is
/// the optimal one once the margin clears both.
fn gap_outlasts_tolerance(
    stats: &SweepStats,
    gamma: f64,
    tolerance: f64,
    reward_bound: f64,
) -> bool {
    let horizon = 1.0 / (1.0 - gamma);
    stats.margin
        > gamma * horizon * (stats.span() + 2.0 * gamma * tolerance)
            + certificate_slack(gamma, reward_bound)
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
/// (no wall-clock data). A solve that fell back to plain value iteration
/// reports that run's counts only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveCounters {
    /// Full Bellman sweeps (every action of every state) performed.
    pub sweeps: usize,
    /// Exact evaluations of a full sweep's argmax between the full sweeps
    /// (dense kernels); 0 when the solve ran, or fell back to, plain value
    /// iteration.
    pub evaluations: usize,
    /// Which rule stopped the solve.
    pub stop: StopReason,
    /// Smallest best-minus-runner-up Q margin of the final full sweep
    /// (`+∞` when every state has a single valid action, `0` on an exact
    /// tie).
    pub margin: f64,
    /// Span `hi − lo` of the final full sweep's change `T V − V`.
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
