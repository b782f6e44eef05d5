//! Compile-once solver kernel for finite MDPs.
//!
//! Trait-backed models ([`FiniteMdp`]) describe their dynamics through the
//! `transitions` callback, which is convenient to write but expensive to
//! solve against: every Bellman sweep re-derives every `(state, action)` row
//! (for the cache MDP that means redoing the age/popularity arithmetic
//! thousands of times per solve). [`CompiledMdp`] enumerates the model once
//! into flat arrays, in exactly **one** of two layouts:
//!
//! * **dense** — for unit-mass deterministic models, whose every valid row
//!   is a single transition of probability exactly `1.0` (the cache MDP
//!   under static popularity): two action-major planes, the destinations
//!   and the expected rewards, with `-∞` expected rewards on invalid rows;
//! * **CSR** (compressed sparse rows) — for every other model:
//!   `row_ptr[state * n_actions + action] .. row_ptr[row + 1]` indexes the
//!   row's transitions inside flat `next` / `probability` / `reward`
//!   arrays, next to precomputed per-row expected rewards.
//!
//! Both layouts share a validity bitmap marking the rows of valid actions,
//! and every row-level accessor ([`q_value`](CompiledMdp::q_value),
//! [`expected_reward`](CompiledMdp::expected_reward), the [`FiniteMdp`]
//! impl, …) reads whichever layout the kernel has.
//!
//! Solvers then run on the compiled form with **zero heap allocation per
//! sweep**, and the per-state Bellman backup is embarrassingly parallel:
//! under the `parallel` feature (default) sweeps over a large enough model
//! fan out across the workspace's shared executor ([`simkit::executor`]) —
//! one persistent barrier-synchronized pool per solve — and stay on the
//! calling thread inside [`simkit::executor::serialized`]. Sweeps are
//! Jacobi-style (each state's backup reads only the previous iterate), so
//! serial and parallel runs are bit-for-bit identical.
//!
//! # Sweep kernels
//!
//! Sweeps walk the state space in cache-blocked ranges
//! ([`simkit::executor::run_rounds`]) so a block's output slice and
//! streamed row data stay cache-resident.
//!
//! On dense kernels blocked sweeps batch across *states*: action-outer /
//! state-inner, the inner loop streams `(expected, next)` contiguously with
//! one `values` gather per row and no per-row validity test (invalid rows
//! are `-∞`, which the over-actions max skips). A row's Q is
//! `expected + γ·(0.0 + V[next])`: the CSR gather of a single-transition
//! row accumulates `0.0 + p·V[next]`, and with `p == 1.0` the product
//! `1.0·x` is exactly `x`, so both layouts give a row the same Q to the
//! bit. Every other path gathers `Σ p·V(s')` through the CSR
//! row left to right, with the per-row validity bit test hoisted out of the
//! action loop (one bitmap word covers all of a state's rows until the row
//! index crosses a word boundary).
//!
//! Policy-evaluation sweeps (`V ← r_π + γ·P_π·V`: policy evaluation,
//! policy iteration, and the evaluation phase of the certified
//! value-iteration policy solve) read one row per state. On dense kernels
//! they stream per-state copies of the chosen rows, taken from the planes
//! whenever the policy changes; per row the arithmetic is the full sweep's,
//! so both agree exactly.
//!
//! ```
//! use mdp::{reference, CompiledMdp, FiniteMdp};
//! use mdp::solver::ValueIteration;
//!
//! let (model, gamma) = reference::two_state();
//! let compiled = CompiledMdp::compile(&model)?;
//! assert_eq!(compiled.n_states(), model.n_states());
//!
//! // Compile once, solve many times without touching the callback again.
//! let out = ValueIteration::new(gamma).solve_compiled(&compiled)?;
//! assert!(out.converged);
//! assert_eq!(out.policy.action(0), 1);
//! # Ok::<(), mdp::MdpError>(())
//! ```

use crate::model::{FiniteMdp, Transition};
use crate::policy::TabularPolicy;
use crate::MdpError;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// A finite MDP compiled into flat row arrays: the action-major dense
/// planes for unit-mass deterministic models, compressed sparse rows for
/// all others.
///
/// Implements [`FiniteMdp`] itself (with allocation-free `sample` /
/// `expected_reward`), so a compiled model can be handed to any consumer of
/// the trait — including the tabular learners, which gain allocation-free
/// generative sampling from the compiled rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledMdp {
    n_states: usize,
    n_actions: usize,
    /// Validity bitmap: bit `row % 64` of word `row / 64` marks a non-empty
    /// row `state * n_actions + action`.
    valid: Vec<u64>,
    /// The rows, in the kernel's one layout.
    rows: Rows,
}

/// The row storage of a [`CompiledMdp`]: exactly one layout per kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Rows {
    /// Every valid row is one transition with probability exactly `1.0`.
    Dense(DenseRows),
    /// Any other model.
    Sparse(SparseRows),
}

/// Action-major planes of a unit-mass deterministic model: slot
/// `action * n_states + state`. Neither a probability (always `1.0`) nor a
/// raw reward is stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DenseRows {
    /// Destinations, stored as `u32` to halve the gather bandwidth;
    /// compilation rejects models with more than `u32::MAX` states.
    next: Vec<u32>,
    /// `0.0 + 1.0·r` per valid row — the CSR expected reward bit for bit
    /// (so a `-0.0` reward reads back as `+0.0`); `-∞` on invalid rows, so
    /// the over-actions max skips them without a bitmap test.
    expected: Vec<f64>,
}

/// Compressed sparse rows, row `state * n_actions + action`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SparseRows {
    /// `row_ptr[row] .. row_ptr[row + 1]` bounds a row in the flat arrays;
    /// length `n_states · n_actions + 1`.
    row_ptr: Vec<usize>,
    /// Flat destination states.
    next: Vec<usize>,
    /// Flat transition probabilities.
    probability: Vec<f64>,
    /// Flat immediate rewards.
    reward: Vec<f64>,
    /// Precomputed `Σ p · r` per row (0 for invalid rows).
    expected: Vec<f64>,
    /// Whether every valid row's probabilities sum to exactly `1.0`. The
    /// action-gap certificate of
    /// [`ValueIteration::solve_policy`](crate::solver::ValueIteration::solve_policy)
    /// relies on `T(V + c) = T V + γc`, which only holds for such kernels.
    unit_mass: bool,
}

impl SparseRows {
    /// The expected next-state value `Σ p · V(s')` of one row, gathered
    /// left to right.
    #[inline]
    fn future(&self, row: usize, values: &[f64]) -> f64 {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        let mut future = 0.0;
        for (p, nx) in self.probability[lo..hi].iter().zip(&self.next[lo..hi]) {
            future += p * values[*nx];
        }
        future
    }
}

impl CompiledMdp {
    /// Enumerates every `(state, action)` row of `mdp` into the kernel's
    /// layout: dense while every non-empty row is a single transition of
    /// probability exactly `1.0`; the first row that is not switches
    /// compilation to CSR, which enumerates the model again from its first
    /// row (so no callback row is read more than twice).
    ///
    /// # Errors
    ///
    /// * [`MdpError::EmptyModel`] for zero states or actions,
    /// * [`MdpError::NonFiniteEntry`] for NaN/infinite rewards or negative
    ///   or non-finite probabilities,
    /// * [`MdpError::StateOutOfRange`] for out-of-range destinations,
    /// * [`MdpError::BadDistribution`] when a state has no valid action
    ///   (solvers need at least one),
    /// * [`MdpError::BadParameter`] for more than `u32::MAX` states.
    pub fn compile<M: FiniteMdp + ?Sized>(mdp: &M) -> Result<CompiledMdp, MdpError> {
        let n_states = mdp.n_states();
        let n_actions = mdp.n_actions();
        if n_states == 0 || n_actions == 0 {
            return Err(MdpError::EmptyModel);
        }
        // The dense planes store destinations as u32 to halve their gather
        // bandwidth; every practical model is orders of magnitude smaller.
        if u32::try_from(n_states).is_err() {
            return Err(MdpError::BadParameter {
                what: "n_states",
                valid: "at most u32::MAX states",
            });
        }
        let n_rows = n_states
            .checked_mul(n_actions)
            .ok_or(MdpError::BadParameter {
                what: "state-action space",
                valid: "n_states * n_actions must fit in usize",
            })?;

        let mut valid = vec![0u64; n_rows.div_ceil(64)];
        let mut buf = Vec::new();
        let rows = match compile_dense(mdp, n_states, n_actions, &mut valid, &mut buf)? {
            Some(dense) => Rows::Dense(dense),
            None => {
                valid.fill(0);
                Rows::Sparse(compile_sparse(
                    mdp, n_states, n_actions, &mut valid, &mut buf,
                )?)
            }
        };
        Ok(CompiledMdp {
            n_states,
            n_actions,
            valid,
            rows,
        })
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of actions.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Total transitions stored across all rows (one per valid row on a
    /// dense kernel).
    pub fn n_transitions(&self) -> usize {
        match &self.rows {
            Rows::Dense(_) => self.valid.iter().map(|w| w.count_ones() as usize).sum(),
            Rows::Sparse(csr) => csr.next.len(),
        }
    }

    /// Whether the kernel has the dense layout, i.e. the model is
    /// **unit-mass deterministic**: every valid row is a single transition
    /// of probability exactly `1.0`. Blocked sweeps then take the
    /// action-major fast path; deterministic rows of any other probability
    /// keep the CSR layout.
    pub fn has_dense_layout(&self) -> bool {
        matches!(self.rows, Rows::Dense(_))
    }

    /// Whether every valid row's transition probabilities sum to exactly
    /// `1.0` (in stored order; always true on a dense kernel).
    /// Substochastic or rounding-defective rows clear this flag, and with
    /// it the early stop of
    /// [`ValueIteration::solve_policy`](crate::solver::ValueIteration::solve_policy),
    /// which then runs to its tolerance.
    pub fn has_unit_mass_rows(&self) -> bool {
        match &self.rows {
            Rows::Dense(_) => true,
            Rows::Sparse(csr) => csr.unit_mass,
        }
    }

    /// Largest `|E[r]|` over the valid rows: with unit-mass rows every
    /// value iterate from `V = 0` stays within this bound times
    /// `1 / (1 − γ)`.
    pub(crate) fn reward_bound(&self) -> f64 {
        let fold = |m: f64, e: &f64| m.max(e.abs());
        match &self.rows {
            // Invalid dense rows hold -∞ (valid ones are finite by
            // validation), so only the valid rows enter the fold.
            Rows::Dense(dense) => dense
                .expected
                .iter()
                .filter(|e| e.is_finite())
                .fold(0.0, fold),
            // Invalid CSR rows hold 0, which cannot raise the bound.
            Rows::Sparse(csr) => csr.expected.iter().fold(0.0, fold),
        }
    }

    /// Whether the `(state, action)` row is non-empty.
    #[inline]
    pub fn is_valid(&self, state: usize, action: usize) -> bool {
        let row = state * self.n_actions + action;
        self.valid[row / 64] & (1 << (row % 64)) != 0
    }

    /// Precomputed expected immediate reward `Σ p · r` of `(state, action)`
    /// (0 for invalid actions).
    #[inline]
    pub fn expected_reward(&self, state: usize, action: usize) -> f64 {
        match &self.rows {
            Rows::Dense(dense) if self.is_valid(state, action) => {
                dense.expected[action * self.n_states + state]
            }
            Rows::Dense(_) => 0.0,
            Rows::Sparse(csr) => csr.expected[state * self.n_actions + action],
        }
    }

    /// `Q(s, a) = E[r] + γ Σ p · V(s')` of a row, without the validity
    /// test (an invalid dense row gives `-∞`, an invalid CSR row `0`).
    #[inline]
    fn q_row(&self, state: usize, action: usize, values: &[f64], gamma: f64) -> f64 {
        match &self.rows {
            Rows::Dense(dense) => {
                let i = action * self.n_states + state;
                dense.expected[i] + gamma * (0.0 + values[dense.next[i] as usize])
            }
            Rows::Sparse(csr) => {
                let row = state * self.n_actions + action;
                csr.expected[row] + gamma * csr.future(row, values)
            }
        }
    }

    /// One-step lookahead `Q(s, a) = E[r] + γ Σ p · V(s')`, or `None` for an
    /// invalid action.
    #[inline]
    pub fn q_value(&self, state: usize, action: usize, values: &[f64], gamma: f64) -> Option<f64> {
        if !self.is_valid(state, action) {
            return None;
        }
        Some(self.q_row(state, action, values, gamma))
    }

    /// Bellman-optimality backup of one state: `max_a Q(s, a)` over valid
    /// actions.
    #[inline]
    pub fn backup_state(&self, state: usize, values: &[f64], gamma: f64) -> f64 {
        self.backup_state_with_action(state, values, gamma).0
    }

    /// Backup of one state with its argmax action (ties break to the lowest
    /// action index).
    #[inline]
    pub(crate) fn backup_state_with_action(
        &self,
        state: usize,
        values: &[f64],
        gamma: f64,
    ) -> (f64, usize) {
        let (best, best_a, _) = self.backup_state_ranked(state, values, gamma);
        (best, best_a)
    }

    /// Backup of one state as `(best Q, argmax action, runner-up Q)`; the
    /// runner-up is `-∞` when only one action is valid and equals the best
    /// on an exact tie. The validity word is hoisted out of the action
    /// loop: a state's rows are consecutive, so one 64-bit bitmap word
    /// covers them until the row index crosses a word boundary (at most
    /// once per state for every model with ≤ 64 actions).
    #[inline]
    fn backup_state_ranked(&self, state: usize, values: &[f64], gamma: f64) -> (f64, usize, f64) {
        let base = state * self.n_actions;
        let mut word_idx = base / 64;
        let mut word = self.valid[word_idx];
        let mut best = f64::NEG_INFINITY;
        let mut runner_up = f64::NEG_INFINITY;
        let mut best_a = 0;
        for a in 0..self.n_actions {
            let row = base + a;
            let w = row / 64;
            if w != word_idx {
                word_idx = w;
                word = self.valid[w];
            }
            if word & (1 << (row % 64)) == 0 {
                continue;
            }
            let q = self.q_row(state, a, values, gamma);
            if q > best {
                runner_up = best;
                best = q;
                best_a = a;
            } else if q > runner_up {
                runner_up = q;
            }
        }
        (best, best_a, runner_up)
    }

    /// Bellman-optimality backups of a contiguous state range, written into
    /// `out` (`out[0]` is `states.start`). This is the sweep body of value
    /// and relative value iteration: row data streams linearly through the
    /// block while the iterate stays cache-hot.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `out.len() != states.len()`.
    pub fn backup_block(
        &self,
        states: std::ops::Range<usize>,
        values: &[f64],
        out: &mut [f64],
        gamma: f64,
    ) {
        let (stats, greedy) = (&mut SweepStats::new(), &PolicyRows::default());
        self.backup_block_tracked::<false>(states, values, out, gamma, stats, greedy);
    }

    /// [`backup_block`](Self::backup_block) that also folds each state's
    /// action gap (best minus runner-up Q, computed from `values`) into
    /// `stats.margin` and points each state's entry of `greedy` at its
    /// argmax action (ties break to the lowest index). The backed-up values
    /// are bit-identical to `backup_block`'s.
    pub(crate) fn backup_block_with_gap(
        &self,
        states: std::ops::Range<usize>,
        values: &[f64],
        out: &mut [f64],
        gamma: f64,
        stats: &mut SweepStats,
        greedy: &PolicyRows,
    ) {
        self.backup_block_tracked::<true>(states, values, out, gamma, stats, greedy);
    }

    #[inline(always)]
    fn backup_block_tracked<const GAP: bool>(
        &self,
        states: std::ops::Range<usize>,
        values: &[f64],
        out: &mut [f64],
        gamma: f64,
        stats: &mut SweepStats,
        greedy: &PolicyRows,
    ) {
        debug_assert_eq!(out.len(), states.len(), "output block length mismatch");
        if let Rows::Dense(dense) = &self.rows {
            return self
                .backup_block_dense::<GAP>(dense, states, values, out, gamma, stats, greedy);
        }
        for (slot, s) in out.iter_mut().zip(states) {
            let (best, best_a, runner_up) = self.backup_state_ranked(s, values, gamma);
            *slot = best;
            if GAP {
                stats.record_gap(best - runner_up);
                self.set_policy_row(greedy, s, best_a);
            }
        }
    }

    /// [`backup_block`](Self::backup_block) over the dense planes. When
    /// gaps are tracked it runs in pieces of at most [`SWEEP_BLOCK`] states
    /// (one piece per sweep block), whose runner-up Qs and argmax actions
    /// live in stack buffers, so the sweep stays allocation-free.
    #[allow(clippy::too_many_arguments)]
    fn backup_block_dense<const GAP: bool>(
        &self,
        dense: &DenseRows,
        states: std::ops::Range<usize>,
        values: &[f64],
        out: &mut [f64],
        gamma: f64,
        stats: &mut SweepStats,
        greedy: &PolicyRows,
    ) {
        if !GAP {
            return self.dense_pass::<false>(
                dense,
                states.start,
                values,
                out,
                gamma,
                &mut [],
                &mut [],
            );
        }
        let mut runner_up = [0.0; SWEEP_BLOCK];
        let mut argmax = [0usize; SWEEP_BLOCK];
        for (i, run) in out.chunks_mut(SWEEP_BLOCK).enumerate() {
            let lo = states.start + i * SWEEP_BLOCK;
            let second = &mut runner_up[..run.len()];
            let arg = &mut argmax[..run.len()];
            self.dense_pass::<true>(dense, lo, values, run, gamma, second, arg);
            for (j, &a) in arg.iter().enumerate() {
                self.set_policy_row(greedy, lo + j, a);
            }
            // Reduced in a register, not through `stats`, so the per-state
            // min is one compare.
            let run_margin = run
                .iter()
                .zip(second.iter())
                .map(|(&best, &second)| best - second)
                .fold(
                    f64::INFINITY,
                    |margin, gap| if gap < margin { gap } else { margin },
                );
            stats.record_gap(run_margin);
        }
    }

    /// The dense sweep kernel: action-outer / state-inner over the states
    /// `lo..lo + out.len()`, so the inner loop streams `(expected, next)`
    /// contiguously with exactly one `values` gather per row and folds
    /// validity into the data (invalid rows are `-∞ + γ·future`, which the
    /// strict max skips). Per row this is [`q_value`](Self::q_value)'s
    /// arithmetic, so the results agree exactly (`==`) with
    /// [`backup_state`](Self::backup_state); ties in the max resolve
    /// identically because both iterate actions in ascending order with
    /// strict improvement. With `GAP`, `second[j]` and `arg[j]` also end up
    /// holding state `lo + j`'s runner-up Q (`-∞` when only one action is
    /// valid) and argmax action; without it both are unused.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn dense_pass<const GAP: bool>(
        &self,
        dense: &DenseRows,
        lo: usize,
        values: &[f64],
        out: &mut [f64],
        gamma: f64,
        second: &mut [f64],
        arg: &mut [usize],
    ) {
        let n = out.len();
        let second = if GAP { &mut second[..n] } else { second };
        let arg = if GAP { &mut arg[..n] } else { arg };
        out.fill(f64::NEG_INFINITY);
        second.fill(f64::NEG_INFINITY);
        arg.fill(0);
        for a in 0..self.n_actions {
            let base = a * self.n_states + lo;
            let exp = &dense.expected[base..base + n];
            let next = &dense.next[base..base + n];
            for j in 0..n {
                // The CSR gather's single-term sum `0.0 + 1.0·V[next]`
                // (`1.0·x == x` exactly).
                let future = 0.0 + values[next[j] as usize];
                let q = exp[j] + gamma * future;
                let best = out[j];
                if GAP {
                    // The new runner-up is the larger of the old runner-up
                    // and whichever of (old best, q) loses.
                    let lower = if q > best { best } else { q };
                    second[j] = if lower > second[j] { lower } else { second[j] };
                    arg[j] = if q > best { a } else { arg[j] };
                }
                out[j] = if q > best { q } else { best };
            }
        }
    }

    /// The [`PolicyRows`] of the policy `action`. An invalid action
    /// evaluates to a meaningless value, never a panic, so callers validate
    /// the policy or overwrite its entries before evaluating.
    pub(crate) fn policy_rows(&self, action: impl Fn(usize) -> usize) -> PolicyRows {
        let dense = if self.has_dense_layout() {
            self.n_states
        } else {
            0
        };
        let rows = PolicyRows {
            action: (0..self.n_states).map(|_| AtomicUsize::new(0)).collect(),
            expected: (0..dense).map(|_| AtomicU64::new(0)).collect(),
            next: (0..dense).map(|_| AtomicU32::new(0)).collect(),
        };
        for s in 0..self.n_states {
            self.set_policy_row(&rows, s, action(s));
        }
        rows
    }

    /// Points `state`'s entry of `rows` (built by
    /// [`policy_rows`](Self::policy_rows)) at `action`.
    #[inline]
    pub(crate) fn set_policy_row(&self, rows: &PolicyRows, state: usize, action: usize) {
        rows.action[state].store(action, Ordering::Relaxed);
        if let Rows::Dense(dense) = &self.rows {
            let i = action * self.n_states + state;
            rows.expected[state].store(dense.expected[i].to_bits(), Ordering::Relaxed);
            rows.next[state].store(dense.next[i], Ordering::Relaxed);
        }
    }

    /// Policy-evaluation backups `Q(s, π(s))` of a contiguous state range,
    /// written into `out` (`out[0]` is `states.start`): one row per state
    /// instead of every action's. Dense kernels stream the rows' copies in
    /// `rows`, CSR kernels gather the row of `π(s)`; both perform the
    /// arithmetic of [`q_value`](Self::q_value) in the same order, so the
    /// result equals it bit for bit.
    pub(crate) fn evaluate_block(
        &self,
        states: std::ops::Range<usize>,
        values: &[f64],
        out: &mut [f64],
        gamma: f64,
        rows: &PolicyRows,
    ) {
        debug_assert_eq!(out.len(), states.len(), "output block length mismatch");
        if self.has_dense_layout() {
            let expected = &rows.expected[states.clone()];
            let next = &rows.next[states];
            for (j, slot) in out.iter_mut().enumerate() {
                let future = 0.0 + values[next[j].load(Ordering::Relaxed) as usize];
                *slot = f64::from_bits(expected[j].load(Ordering::Relaxed)) + gamma * future;
            }
            return;
        }
        for (slot, s) in out.iter_mut().zip(states) {
            *slot = self.q_row(s, rows.action(s), values, gamma);
        }
    }

    /// Greedy policy with respect to `values` (compiled counterpart of
    /// [`solver::greedy_policy`](crate::solver::greedy_policy)).
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] if `values.len() != n_states()`.
    pub fn greedy_policy(&self, values: &[f64], gamma: f64) -> Result<TabularPolicy, MdpError> {
        if values.len() != self.n_states {
            return Err(MdpError::BadParameter {
                what: "values",
                valid: "one value per state",
            });
        }
        let actions = (0..self.n_states)
            .map(|s| self.backup_state_with_action(s, values, gamma).1)
            .collect();
        Ok(TabularPolicy::new(actions))
    }

    /// Sup-norm Bellman-optimality residual `‖T V − V‖_∞` on the compiled
    /// form (compiled counterpart of
    /// [`solver::bellman_residual`](crate::solver::bellman_residual)).
    pub fn bellman_residual(&self, values: &[f64], gamma: f64) -> f64 {
        let mut residual: f64 = 0.0;
        for s in 0..self.n_states {
            residual = residual.max((self.backup_state(s, values, gamma) - values[s]).abs());
        }
        residual
    }
}

/// Validates one transition of row `(state, action)`: finite entries, a
/// non-negative probability and an in-range destination.
fn check_transition(
    t: &Transition,
    state: usize,
    action: usize,
    n_states: usize,
) -> Result<(), MdpError> {
    if !t.probability.is_finite() || !t.reward.is_finite() || t.probability < 0.0 {
        return Err(MdpError::NonFiniteEntry { state, action });
    }
    if t.next >= n_states {
        return Err(MdpError::StateOutOfRange {
            state: t.next,
            n_states,
        });
    }
    Ok(())
}

/// The error for a state whose every action is invalid (solvers need at
/// least one valid action per state).
fn no_valid_action(state: usize) -> MdpError {
    MdpError::BadDistribution {
        state,
        action: 0,
        mass: 0.0,
    }
}

/// The dense pass of [`CompiledMdp::compile`]: fills `valid` and the
/// action-major planes, or returns `None` at the first non-empty row that
/// is not a single transition of probability exactly `1.0`. Its allocations
/// are the two planes plus `buf`'s growth, whatever the model's size.
fn compile_dense<M: FiniteMdp + ?Sized>(
    mdp: &M,
    n_states: usize,
    n_actions: usize,
    valid: &mut [u64],
    buf: &mut Vec<Transition>,
) -> Result<Option<DenseRows>, MdpError> {
    let n_rows = n_states * n_actions;
    let mut next = vec![0u32; n_rows];
    let mut expected = vec![f64::NEG_INFINITY; n_rows];
    for s in 0..n_states {
        let mut any_valid = false;
        for a in 0..n_actions {
            mdp.transitions(s, a, buf);
            let t = match buf.as_slice() {
                [] => continue,
                [t] if t.probability == 1.0 => t,
                _ => return Ok(None),
            };
            check_transition(t, s, a, n_states)?;
            let row = s * n_actions + a;
            valid[row / 64] |= 1 << (row % 64);
            any_valid = true;
            let slot = a * n_states + s;
            // `compile` checked that every state index fits in u32.
            next[slot] = t.next as u32;
            // The CSR row's accumulation `0.0 + p·r`, kept bit for bit.
            expected[slot] = 0.0 + t.probability * t.reward;
        }
        if !any_valid {
            return Err(no_valid_action(s));
        }
    }
    Ok(Some(DenseRows { next, expected }))
}

/// The CSR pass of [`CompiledMdp::compile`]: validates every transition
/// and fills `valid` and the compressed sparse rows.
fn compile_sparse<M: FiniteMdp + ?Sized>(
    mdp: &M,
    n_states: usize,
    n_actions: usize,
    valid: &mut [u64],
    buf: &mut Vec<Transition>,
) -> Result<SparseRows, MdpError> {
    let n_rows = n_states * n_actions;
    let mut row_ptr = Vec::with_capacity(n_rows + 1);
    row_ptr.push(0);
    let mut next = Vec::new();
    let mut probability = Vec::new();
    let mut reward = Vec::new();
    let mut expected = Vec::with_capacity(n_rows);
    let mut unit_mass = true;
    for s in 0..n_states {
        let mut any_valid = false;
        for a in 0..n_actions {
            mdp.transitions(s, a, buf);
            let mut row_expected = 0.0;
            let mut row_mass = 0.0;
            for t in buf.iter() {
                check_transition(t, s, a, n_states)?;
                next.push(t.next);
                probability.push(t.probability);
                reward.push(t.reward);
                row_expected += t.probability * t.reward;
                row_mass += t.probability;
            }
            if !buf.is_empty() {
                let row = s * n_actions + a;
                valid[row / 64] |= 1 << (row % 64);
                any_valid = true;
                unit_mass &= row_mass == 1.0;
            }
            expected.push(row_expected);
            row_ptr.push(next.len());
        }
        if !any_valid {
            return Err(no_valid_action(s));
        }
    }
    Ok(SparseRows {
        row_ptr,
        next,
        probability,
        reward,
        expected,
        unit_mass,
    })
}

impl FiniteMdp for CompiledMdp {
    fn n_states(&self) -> usize {
        self.n_states
    }

    fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// The stored row; on a dense kernel its one transition has
    /// probability `1.0` and reward `0.0 + r` (equal to the callback's `r`
    /// under `==`).
    fn transitions(&self, state: usize, action: usize, out: &mut Vec<Transition>) {
        out.clear();
        match &self.rows {
            Rows::Dense(dense) => {
                if self.is_valid(state, action) {
                    let i = action * self.n_states + state;
                    out.push(Transition::new(
                        dense.next[i] as usize,
                        1.0,
                        dense.expected[i],
                    ));
                }
            }
            Rows::Sparse(csr) => {
                let row = state * self.n_actions + action;
                let (lo, hi) = (csr.row_ptr[row], csr.row_ptr[row + 1]);
                out.extend(
                    (lo..hi)
                        .map(|i| Transition::new(csr.next[i], csr.probability[i], csr.reward[i])),
                );
            }
        }
    }

    fn is_action_valid(&self, state: usize, action: usize) -> bool {
        self.is_valid(state, action)
    }

    fn expected_reward(&self, state: usize, action: usize) -> f64 {
        CompiledMdp::expected_reward(self, state, action)
    }

    /// Samples from the compiled row directly — no allocation, unlike the
    /// trait's default buffer-based implementation. Draws one uniform per
    /// call on both layouts, like the callback's row sampler.
    fn sample(&self, state: usize, action: usize, rng: &mut dyn RngCore) -> (usize, f64) {
        assert!(
            self.is_valid(state, action),
            "cannot sample from an empty transition row"
        );
        let u: f64 = rand::Rng::gen::<f64>(rng);
        let csr = match &self.rows {
            // `u < 1.0` always picks a probability-1.0 row's transition.
            Rows::Dense(dense) => {
                let i = action * self.n_states + state;
                return (dense.next[i] as usize, dense.expected[i]);
            }
            Rows::Sparse(csr) => csr,
        };
        let row = state * self.n_actions + action;
        let (lo, hi) = (csr.row_ptr[row], csr.row_ptr[row + 1]);
        let mut acc = 0.0;
        for i in lo..hi {
            acc += csr.probability[i];
            if u < acc {
                return (csr.next[i], csr.reward[i]);
            }
        }
        (csr.next[hi - 1], csr.reward[hi - 1])
    }
}

/// A policy laid out for evaluation sweeps: each state's action and, on
/// dense kernels, a copy of the row that action picks (expected reward and
/// destination) in state order, so [`CompiledMdp::evaluate_block`] streams
/// one contiguous row per state instead of hopping between action planes.
///
/// Entries are atomics because sweep workers store their own states'
/// entries (the full sweeps of
/// [`ValueIteration::solve_policy`](crate::solver::ValueIteration::solve_policy))
/// and epilogues rewrite them between rounds (policy improvement); the
/// round barrier orders every store before the next sweep's loads, so
/// `Relaxed` suffices. Entries change only through
/// [`CompiledMdp::set_policy_row`], which keeps each row copy in step with
/// its action.
#[derive(Debug, Default)]
pub(crate) struct PolicyRows {
    action: Vec<AtomicUsize>,
    /// `f64` bits of the expected rewards (dense kernels only).
    expected: Vec<AtomicU64>,
    /// Destinations (dense kernels only).
    next: Vec<AtomicU32>,
}

impl PolicyRows {
    /// The action of `state`.
    #[inline]
    pub(crate) fn action(&self, state: usize) -> usize {
        self.action[state].load(Ordering::Relaxed)
    }

    /// The policy the rows hold.
    pub(crate) fn into_policy(self) -> TabularPolicy {
        TabularPolicy::new(
            self.action
                .into_iter()
                .map(AtomicUsize::into_inner)
                .collect(),
        )
    }
}

/// Per-sweep change statistics shared by all sweep-based solvers: the
/// sup-norm change, the signed span (used by relative value iteration and
/// the action-gap certificate), and — for sweeps run through
/// [`CompiledMdp::backup_block_with_gap`] — the smallest action gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SweepStats {
    /// `max_s |new(s) − old(s)|`.
    pub max_abs: f64,
    /// `min_s (new(s) − old(s))`.
    pub lo: f64,
    /// `max_s (new(s) − old(s))`.
    pub hi: f64,
    /// `min_s` of best minus runner-up `Q(s, ·)` over `old` (`+∞` when no
    /// gap was recorded or every state has a single valid action).
    pub margin: f64,
}

impl SweepStats {
    pub(crate) fn new() -> Self {
        SweepStats {
            max_abs: 0.0,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            margin: f64::INFINITY,
        }
    }

    /// The stats reported when no sweep ran: every change unbounded and no
    /// gap proven.
    fn before_first_sweep() -> Self {
        SweepStats {
            max_abs: f64::INFINITY,
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            margin: 0.0,
        }
    }

    #[inline]
    fn record(&mut self, delta: f64) {
        self.max_abs = self.max_abs.max(delta.abs());
        self.lo = self.lo.min(delta);
        self.hi = self.hi.max(delta);
    }

    /// Folds an action gap (best minus runner-up Q of one state, or the
    /// smallest over a run of states) into the sweep's margin.
    #[inline]
    fn record_gap(&mut self, gap: f64) {
        if gap < self.margin {
            self.margin = gap;
        }
    }

    /// `hi − lo`: the span of one sweep's change.
    pub(crate) fn span(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Lets the shared executor reduce per-chunk sweep stats across workers.
/// Every field merges by `min` or `max`, so the reduction is independent of
/// the worker count and order.
impl simkit::executor::RoundStat for SweepStats {
    fn identity() -> Self {
        SweepStats::new()
    }

    fn merge(&mut self, other: &Self) {
        self.max_abs = self.max_abs.max(other.max_abs);
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        self.margin = self.margin.min(other.margin);
    }
}

/// Result of a [`run_sweeps`] fixed-point loop.
pub(crate) struct SweepOutcome {
    /// Final iterate.
    pub values: Vec<f64>,
    /// Sweeps performed.
    pub sweeps: usize,
    /// Stats of the final sweep
    /// ([`SweepStats::before_first_sweep`] when no sweep ran).
    pub last: SweepStats,
    /// Whether the epilogue signalled convergence.
    pub converged: bool,
}

/// Minimum states per worker before a sweep pool fans out (below this the
/// barrier synchronization dominates the backup work). The pool is
/// persistent across all rounds of one sweep loop — every value-iteration
/// sweep, policy-evaluation sweep, backward-induction stage, or
/// policy-iteration evaluate/improve round of that loop reuses it — so
/// spawn cost is amortized over the whole solve (one pool per solve for
/// every sweep-based solver; asserted by `tests/pool_per_solve.rs`).
const MIN_STATES_PER_WORKER: usize = 1024;

/// Workers a sweep loop over `n_states` states fans out across: parallel
/// when the model is large enough, serial inside
/// [`simkit::executor::serialized`] or without the `parallel` feature.
pub(crate) fn sweep_workers(n_states: usize) -> usize {
    simkit::executor::worker_count(n_states, true, MIN_STATES_PER_WORKER)
}

/// States per cache block in [`run_sweeps`]. 1024 states × 8 bytes keeps
/// one block's output slice (8 KiB) plus the row data streaming through it
/// comfortably inside a 32 KiB L1d, while the full previous iterate stays
/// L2-resident for the gather. Block boundaries never move work between
/// threads (chunking by worker happens above the block loop), so the
/// result is bitwise independent of this constant.
const SWEEP_BLOCK: usize = 1024;

/// The Jacobi sweep loop every compiled solver runs: per sweep, `backup`
/// fills contiguous state ranges of the fresh iterate from the previous one
/// (e.g. [`CompiledMdp::backup_block`]), `epilogue` post-processes the
/// fresh iterate (e.g. normalizes it) and decides convergence, and the
/// loop stops at `max_sweeps`.
///
/// Per-state change stats are recorded here, in state order, after each
/// block fills; `backup` also gets the block's stats, for reductions only
/// the kernel can see (the action gap of
/// [`CompiledMdp::backup_block_with_gap`]). This is a thin domain adapter
/// over [`simkit::executor::run_rounds`], the workspace's single
/// thread-pool implementation: one persistent barrier-synchronized pool
/// per solve when `workers >= 2`, no per-sweep allocation, and a schedule
/// that is bit-for-bit identical to the serial loop (every backup reads
/// only the previous iterate).
pub(crate) fn run_sweeps(
    values: Vec<f64>,
    workers: usize,
    max_sweeps: usize,
    backup: impl Fn(std::ops::Range<usize>, &[f64], &mut [f64], &mut SweepStats) + Sync,
    epilogue: impl FnMut(&mut [f64], &SweepStats, usize) -> bool,
) -> SweepOutcome {
    let outcome = simkit::executor::run_rounds(
        values,
        workers,
        max_sweeps,
        SWEEP_BLOCK,
        |range, old, out, stats: &mut SweepStats| {
            backup(range.clone(), old, out, stats);
            for (slot, s) in out.iter().zip(range) {
                stats.record(slot - old[s]);
            }
        },
        epilogue,
    );
    SweepOutcome {
        values: outcome.values,
        sweeps: outcome.rounds,
        last: outcome.last.unwrap_or_else(SweepStats::before_first_sweep),
        converged: outcome.converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn compile_preserves_shape_and_rows() {
        let (model, _) = reference::gridworld(4, 4, 0.2);
        let compiled = CompiledMdp::compile(&model).unwrap();
        assert_eq!(compiled.n_states(), model.n_states());
        assert_eq!(compiled.n_actions(), model.n_actions());
        assert!(compiled.n_transitions() > 0);

        let mut want = Vec::new();
        let mut got = Vec::new();
        for s in 0..model.n_states() {
            for a in 0..model.n_actions() {
                model.transitions(s, a, &mut want);
                compiled.transitions(s, a, &mut got);
                assert_eq!(want, got, "row ({s}, {a})");
                assert_eq!(model.is_action_valid(s, a), compiled.is_valid(s, a));
                assert!(
                    (model.expected_reward(s, a) - CompiledMdp::expected_reward(&compiled, s, a))
                        .abs()
                        < 1e-12
                );
            }
        }
    }

    #[test]
    fn q_values_match_callback_path() {
        let (model, gamma) = reference::chain(6, 0.7);
        let compiled = CompiledMdp::compile(&model).unwrap();
        let values: Vec<f64> = (0..6).map(|s| s as f64 * 0.3 - 1.0).collect();
        let mut buf = Vec::new();
        for s in 0..6 {
            for a in 0..2 {
                let reference_q = crate::solver::q_value(&model, s, a, &values, gamma, &mut buf);
                let compiled_q = compiled.q_value(s, a, &values, gamma);
                match (reference_q, compiled_q) {
                    (None, None) => {}
                    (Some(x), Some(y)) => assert!((x - y).abs() < 1e-12, "({s},{a}): {x} vs {y}"),
                    other => panic!("validity mismatch at ({s},{a}): {other:?}"),
                }
            }
        }
    }

    #[test]
    fn compile_rejects_bad_models() {
        use crate::model::FnMdp;
        // No states.
        let empty = FnMdp::new(0, 1, |_, _, _| {});
        assert!(matches!(
            CompiledMdp::compile(&empty),
            Err(MdpError::EmptyModel)
        ));
        // A state with no valid action.
        let stuck = FnMdp::new(2, 1, |s, _, out| {
            if s == 0 {
                out.push(Transition::new(0, 1.0, 0.0));
            }
        });
        assert!(matches!(
            CompiledMdp::compile(&stuck),
            Err(MdpError::BadDistribution { state: 1, .. })
        ));
        // Out-of-range destination.
        let escapee = FnMdp::new(1, 1, |_, _, out| out.push(Transition::new(7, 1.0, 0.0)));
        assert!(matches!(
            CompiledMdp::compile(&escapee),
            Err(MdpError::StateOutOfRange { state: 7, .. })
        ));
        // Non-finite probability.
        let nan = FnMdp::new(1, 1, |_, _, out| {
            out.push(Transition::new(0, f64::NAN, 0.0))
        });
        assert!(matches!(
            CompiledMdp::compile(&nan),
            Err(MdpError::NonFiniteEntry { .. })
        ));
    }

    #[test]
    fn sampling_is_distribution_faithful() {
        let (model, _) = reference::chain(5, 0.6);
        let compiled = CompiledMdp::compile(&model).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut forward = 0;
        let n = 20_000;
        for _ in 0..n {
            let (next, _) = compiled.sample(1, reference::CHAIN_FORWARD, &mut rng);
            if next == 2 {
                forward += 1;
            }
        }
        let frac = forward as f64 / n as f64;
        assert!((frac - 0.6).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn greedy_and_residual_match_callback_versions() {
        let (model, gamma) = reference::gridworld(3, 4, 0.15);
        let compiled = CompiledMdp::compile(&model).unwrap();
        let values: Vec<f64> = (0..model.n_states())
            .map(|s| (s as f64 * 0.37).sin())
            .collect();
        let reference_policy = crate::solver::greedy_policy(&model, &values, gamma);
        let compiled_policy = compiled.greedy_policy(&values, gamma).unwrap();
        assert_eq!(reference_policy.actions(), compiled_policy.actions());
        let r1 = crate::solver::bellman_residual(&model, &values, gamma);
        let r2 = compiled.bellman_residual(&values, gamma);
        assert!((r1 - r2).abs() < 1e-10, "{r1} vs {r2}");
    }

    /// Invalid dense rows hold `-∞`; the certificate's reward bound must
    /// fold over the valid rows only and stay finite.
    #[test]
    fn reward_bound_skips_invalid_dense_rows() {
        use crate::model::FnMdp;
        let model = FnMdp::new(3, 2, |s, a, out| {
            if a == 0 || s == 1 {
                out.push(Transition::new((s + 1) % 3, 1.0, -2.5 + s as f64));
            }
        });
        let compiled = CompiledMdp::compile(&model).unwrap();
        assert!(compiled.has_dense_layout());
        assert!(!compiled.is_valid(0, 1));
        assert_eq!(compiled.reward_bound(), 2.5);
    }

    #[test]
    fn greedy_policy_rejects_wrong_length() {
        let (model, gamma) = reference::chain(5, 0.6);
        let compiled = CompiledMdp::compile(&model).unwrap();
        assert!(matches!(
            compiled.greedy_policy(&[0.0; 3], gamma),
            Err(MdpError::BadParameter { what: "values", .. })
        ));
    }

    /// The blocked sweep loop must reproduce a plain per-state Jacobi loop
    /// bitwise — sweeps, final stats and values: stats are recorded in
    /// state order and block boundaries never change what a backup reads.
    #[test]
    fn blocked_and_per_state_sweeps_agree_bitwise() {
        let (model, gamma) = reference::gridworld(64, 64, 0.1);
        let compiled = CompiledMdp::compile(&model).unwrap();
        let n = compiled.n_states();
        let (max_sweeps, tolerance) = (60, 1e-9);

        let mut values = vec![0.0; n];
        let mut fresh = vec![0.0; n];
        let (mut sweeps, mut last) = (0, SweepStats::before_first_sweep());
        while sweeps < max_sweeps {
            sweeps += 1;
            last = SweepStats::new();
            for s in 0..n {
                fresh[s] = compiled.backup_state(s, &values, gamma);
                last.record(fresh[s] - values[s]);
            }
            std::mem::swap(&mut values, &mut fresh);
            if last.max_abs < tolerance {
                break;
            }
        }

        let swept = run_sweeps(
            vec![0.0; n],
            1,
            max_sweeps,
            |range, old, out, _| compiled.backup_block(range, old, out, gamma),
            |_, stats, _| stats.max_abs < tolerance,
        );
        assert_eq!(swept.sweeps, sweeps);
        assert_eq!(swept.converged, last.max_abs < tolerance);
        assert_eq!(swept.last, last);
        assert_eq!(swept.values, values, "blocked iterate must be identical");
    }

    /// Drives the sweep loop with forced worker counts so the pooled code
    /// path is exercised even on single-CPU hosts (where the executor's
    /// automatic sizing correctly refuses to fan out). 7 workers split the
    /// 4096 states into chunks smaller than one sweep block.
    #[test]
    fn run_sweeps_serial_and_pooled_agree_bitwise() {
        let (model, gamma) = reference::gridworld(64, 64, 0.1);
        let compiled = CompiledMdp::compile(&model).unwrap();
        let sweep = |workers| {
            run_sweeps(
                vec![0.0; compiled.n_states()],
                workers,
                60,
                |range, old, out, _| compiled.backup_block(range, old, out, gamma),
                |_, stats, _| stats.max_abs < 1e-9,
            )
        };
        let serial = sweep(1);
        for workers in [2, 3, 7] {
            let pooled = sweep(workers);
            assert_eq!(serial.sweeps, pooled.sweeps, "{workers} workers");
            assert_eq!(serial.converged, pooled.converged);
            assert_eq!(serial.last, pooled.last, "{workers} workers");
            assert_eq!(
                serial.values, pooled.values,
                "iterates must be identical with {workers} workers"
            );
        }
    }

    /// A panic inside a pool worker must surface as a panic on the calling
    /// thread, not leave the coordinator deadlocked on the barrier.
    #[cfg(feature = "parallel")]
    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let _ = run_sweeps(
            vec![0.0; 4096],
            3,
            5,
            |states, _, out, _| {
                if states.contains(&1234) {
                    panic!("boom");
                }
                out.fill(0.0);
            },
            |_, _, _| false,
        );
    }
}
