//! Exact finite-horizon dynamic programming (backward induction).

use crate::compiled::{run_sweeps, sweep_workers, CompiledMdp};
use crate::model::FiniteMdp;
use crate::policy::TabularPolicy;
use crate::solver::q_value;
use crate::MdpError;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Backward induction over a fixed horizon of `T` decisions.
///
/// Produces the non-stationary optimal policy `π_0, …, π_{T-1}` and the
/// optimal value-to-go at each stage. Undiscounted by default (`gamma = 1`
/// is allowed here because the horizon is finite).
/// [`solve`](BackwardInduction::solve) compiles the model into a
/// [`CompiledMdp`] once and runs every stage backup on its flat arrays.
///
/// ```
/// use mdp::solver::BackwardInduction;
/// use mdp::reference;
///
/// let (mdp, _) = reference::two_state();
/// let sol = BackwardInduction::new(3).solve(&mdp).unwrap();
/// // From state 0: move (reward 0), then collect 1 twice => value 2.
/// assert!((sol.stage_values[0][0] - 2.0).abs() < 1e-12);
/// // From state 1: collect 1 three times.
/// assert!((sol.stage_values[0][1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackwardInduction {
    /// Number of decision stages.
    pub horizon: usize,
    /// Per-stage discount (may be 1.0 for finite horizons).
    pub gamma: f64,
}

impl BackwardInduction {
    /// Creates an undiscounted solver over `horizon` stages.
    pub fn new(horizon: usize) -> Self {
        BackwardInduction {
            horizon,
            gamma: 1.0,
        }
    }

    /// Sets the per-stage discount.
    #[must_use]
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    fn validate(&self) -> Result<(), MdpError> {
        if self.horizon == 0 {
            return Err(MdpError::BadParameter {
                what: "horizon",
                valid: ">= 1",
            });
        }
        if !self.gamma.is_finite() || self.gamma <= 0.0 || self.gamma > 1.0 {
            return Err(MdpError::BadParameter {
                what: "gamma",
                valid: "(0, 1]",
            });
        }
        Ok(())
    }

    /// Solves the finite-horizon control problem.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] if the horizon is zero or `gamma`
    /// is not in `(0, 1]`, and a compilation error
    /// ([`MdpError::EmptyModel`] and friends) for malformed models.
    pub fn solve<M: FiniteMdp>(&self, mdp: &M) -> Result<FiniteHorizonSolution, MdpError> {
        self.validate()?;
        let compiled = CompiledMdp::compile(mdp)?;
        self.solve_compiled(&compiled)
    }

    /// Solves the finite-horizon control problem on a pre-compiled kernel.
    ///
    /// All stages run as sweeps of **one** sweep loop — one persistent
    /// worker pool per solve when the model is large enough, the calling
    /// thread inside [`simkit::executor::serialized`]: workers back their
    /// chunk of the packed value iterate up against the previous stage —
    /// publishing each state's argmax through a side array — and the
    /// coordinator harvests every stage's values and decision rule between
    /// sweeps. Thread-spawn cost is paid once per solve, not once per
    /// stage, and the schedule is bit-for-bit identical to the serial loop.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] if the horizon is zero or `gamma`
    /// is not in `(0, 1]`.
    pub fn solve_compiled(&self, mdp: &CompiledMdp) -> Result<FiniteHorizonSolution, MdpError> {
        self.validate()?;
        self.solve_compiled_on(mdp, sweep_workers(mdp.n_states()))
    }

    /// [`solve_compiled`](BackwardInduction::solve_compiled) with an
    /// explicit worker count (tests force the pooled path with it).
    fn solve_compiled_on(
        &self,
        mdp: &CompiledMdp,
        workers: usize,
    ) -> Result<FiniteHorizonSolution, MdpError> {
        let horizon = self.horizon;
        let gamma = self.gamma;
        let n = mdp.n_states();
        let mut stage_values = vec![Vec::new(); horizon];
        let mut stage_policies = Vec::with_capacity(horizon);

        // The argmax actions travel through a side array instead of an
        // interleaved (value, action) iterate, keeping the hot Q-value
        // gather on a packed &[f64]. Relaxed is enough: the pool's barrier
        // between the workers' stores and the epilogue's loads already
        // orders them.
        let actions: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();

        // Terminal value is zero; sweep r backs stage `horizon − r` up
        // against the sweep-(r−1) iterate.
        let _ = run_sweeps(
            vec![0.0; n],
            workers,
            horizon,
            |states, prev, out, _| {
                let lo = states.start;
                mdp.backup_block_ranked(states, prev, gamma, |s, value, _, action| {
                    actions[s].store(action, Ordering::Relaxed);
                    out[s - lo] = value;
                });
            },
            |iterate, _, sweep| {
                let stage = horizon - sweep;
                stage_values[stage] = iterate.to_vec();
                stage_policies.push(TabularPolicy::new(
                    actions.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
                ));
                false
            },
        );
        stage_policies.reverse();
        Ok(FiniteHorizonSolution {
            stage_values,
            stage_policies,
        })
    }

    /// Trait-callback reference implementation, kept for differential
    /// testing against the compiled kernel.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve`](BackwardInduction::solve).
    pub fn solve_callback<M: FiniteMdp>(&self, mdp: &M) -> Result<FiniteHorizonSolution, MdpError> {
        self.validate()?;
        if mdp.n_states() == 0 || mdp.n_actions() == 0 {
            return Err(MdpError::EmptyModel);
        }

        let n = mdp.n_states();
        let mut buf = Vec::new();
        // Terminal value is zero.
        let mut next_values = vec![0.0; n];
        let mut stage_values = vec![Vec::new(); self.horizon];
        let mut stage_policies = Vec::with_capacity(self.horizon);

        for stage in (0..self.horizon).rev() {
            let mut values = vec![0.0; n];
            let mut actions = vec![0; n];
            for s in 0..n {
                let mut best_q = f64::NEG_INFINITY;
                let mut best_a = None;
                for a in 0..mdp.n_actions() {
                    if let Some(q) = q_value(mdp, s, a, &next_values, self.gamma, &mut buf) {
                        if q > best_q {
                            best_q = q;
                            best_a = Some(a);
                        }
                    }
                }
                values[s] = best_q;
                // lint:allow(panic-hygiene): models validate >= 1 valid action per
                // state at construction.
                actions[s] = best_a.expect("state must have at least one valid action");
            }
            stage_values[stage] = values.clone();
            stage_policies.push(TabularPolicy::new(actions));
            next_values = values;
        }
        stage_policies.reverse();
        Ok(FiniteHorizonSolution {
            stage_values,
            stage_policies,
        })
    }
}

/// Optimal non-stationary solution of a finite-horizon MDP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FiniteHorizonSolution {
    /// `stage_values[t][s]` = optimal expected reward-to-go from state `s`
    /// with `horizon − t` decisions remaining.
    pub stage_values: Vec<Vec<f64>>,
    /// `stage_policies[t]` = optimal decision rule at stage `t`.
    pub stage_policies: Vec<TabularPolicy>,
}

impl FiniteHorizonSolution {
    /// The optimal first-stage decision rule (the one a receding-horizon
    /// controller would apply).
    pub fn first_policy(&self) -> &TabularPolicy {
        &self.stage_policies[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::solver::ValueIteration;

    #[test]
    fn horizon_one_is_myopic() {
        let (mdp, _) = reference::two_state();
        let sol = BackwardInduction::new(1).solve(&mdp).unwrap();
        assert_eq!(sol.stage_values[0], vec![0.0, 1.0]);
        assert_eq!(sol.stage_policies.len(), 1);
    }

    #[test]
    fn values_grow_with_horizon() {
        let (mdp, _) = reference::two_state();
        let short = BackwardInduction::new(2).solve(&mdp).unwrap();
        let long = BackwardInduction::new(5).solve(&mdp).unwrap();
        assert!(long.stage_values[0][1] > short.stage_values[0][1]);
    }

    #[test]
    fn long_discounted_horizon_approaches_infinite_horizon() {
        let (mdp, gamma) = reference::two_state();
        let fh = BackwardInduction::new(500)
            .gamma(gamma)
            .solve(&mdp)
            .unwrap();
        let vi = ValueIteration::new(gamma).solve(&mdp).unwrap();
        for (a, b) in fh.stage_values[0].iter().zip(&vi.values) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        let (mdp, _) = reference::two_state();
        assert!(BackwardInduction::new(0).solve(&mdp).is_err());
        assert!(BackwardInduction::new(3).gamma(0.0).solve(&mdp).is_err());
        assert!(BackwardInduction::new(3).gamma(1.5).solve(&mdp).is_err());
    }

    #[test]
    fn first_policy_accessor() {
        let (mdp, _) = reference::two_state();
        let sol = BackwardInduction::new(4).solve(&mdp).unwrap();
        assert_eq!(sol.first_policy().action(0), 1);
    }

    /// Forced pool fan-out must reproduce the serial stage loop bit for bit
    /// (exercised on any host, whatever its CPU count).
    #[test]
    fn pooled_stages_match_serial_bitwise() {
        let (mdp, _) = reference::gridworld(16, 16, 0.2);
        let compiled = CompiledMdp::compile(&mdp).unwrap();
        let solver = BackwardInduction::new(25).gamma(0.97);
        let serial = solver.solve_compiled_on(&compiled, 1).unwrap();
        for workers in [2, 5] {
            let pooled = solver.solve_compiled_on(&compiled, workers).unwrap();
            assert_eq!(
                serial.stage_values, pooled.stage_values,
                "{workers} workers"
            );
            assert_eq!(
                serial.stage_policies, pooled.stage_policies,
                "{workers} workers"
            );
        }
    }

    /// The compiled stage loop must agree with the callback reference
    /// implementation on values (policies can differ on floating-point
    /// near-ties, since the two paths sum the Bellman backup in different
    /// orders — same discipline as the VI/PI equivalence suites).
    #[test]
    fn compiled_matches_callback_reference() {
        let (mdp, _) = reference::gridworld(6, 7, 0.25);
        let solver = BackwardInduction::new(9).gamma(0.9);
        let fast = solver.solve(&mdp).unwrap();
        let slow = solver.solve_callback(&mdp).unwrap();
        assert_eq!(fast.stage_values.len(), slow.stage_values.len());
        for (a, b) in fast.stage_values.iter().zip(&slow.stage_values) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-10, "{x} vs {y}");
            }
        }
    }
}
