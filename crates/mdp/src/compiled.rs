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
//! sweeps over a large enough model fan out across the workspace's shared executor ([`simkit::executor`]) —
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
//! On dense kernels a block is backed up in register blocks of a few
//! consecutive states, action-outer: each action plane yields the register
//! block's `(expected, next)` contiguously with one `values` gather per
//! row, and every state's best Q (and, for the ranked backups of the
//! certified policy solve, its runner-up and argmax) stays in a register
//! across all actions. There is no per-row validity test: invalid rows are
//! `-∞`, which the over-actions max skips. A row's Q is
//! `expected + γ·(0.0 + V[next])`: the CSR gather of a single-transition
//! row accumulates `0.0 + p·V[next]`, and with `p == 1.0` the product
//! `1.0·x` is exactly `x`, so both layouts give a row the same Q to the
//! bit. Every other path gathers `Σ p·V(s')` through the CSR
//! row left to right, with the per-row validity bit test hoisted out of the
//! action loop (one bitmap word covers all of a state's rows until the row
//! index crosses a word boundary).
//!
//! Each state's backup then goes straight into its solver's per-state
//! step, in the same pass: value iteration stores it and records its
//! change; relative value iteration damps it, records the damped change
//! and stores it re-anchored; the certified policy solve also folds the
//! action gap and stores the argmax. So a sweep reads and writes the
//! iterate once. The re-anchor offset is state 0's damped backup, which
//! every block computes for itself from the previous iterate (one state's
//! backup, O(actions) per block); serial and pooled sweeps subtract the
//! same bits, and no pass over the whole iterate follows the sweep.
//!
//! Policy-evaluation sweeps (`V ← r_π + γ·P_π·V`: policy evaluation and
//! policy iteration) read one row per state. On dense kernels they stream
//! per-state copies of the chosen rows, taken from the planes whenever the
//! policy changes; per row the arithmetic is the full sweep's, so both
//! agree exactly.
//!
//! # Exact evaluation on dense kernels
//!
//! On a dense kernel a stationary policy π gives every state exactly one
//! successor, so its states form a functional graph: trees feeding
//! cycles. Its discounted value is then exact in O(n) (Howard's policy
//! iteration; Puterman 1994 §6.4): on each cycle `v_0 … v_{L−1}`,
//! `V(v_0) = Σ_k γ^k r(v_k) / (1 − γ^L)`, and every other state takes
//! `V(x) = r(x) + γ·(0.0 + V(π(x)))` back around the cycle and down
//! every tree. The certified value-iteration policy solve evaluates each
//! uncertified sweep's argmax this way, and
//! [`policy_gain`](CompiledMdp::policy_gain) walks the same graph for the
//! per-state cycle-mean gain.
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
        self.backup_state_ranked(state, values, gamma).0
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
    /// `out` (`out[0]` is `states.start`), each equal to
    /// [`backup_state`](Self::backup_state) bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `states` (in debug builds, if the
    /// lengths differ).
    pub fn backup_block(
        &self,
        states: std::ops::Range<usize>,
        values: &[f64],
        out: &mut [f64],
        gamma: f64,
    ) {
        debug_assert_eq!(out.len(), states.len(), "output block length mismatch");
        let lo = states.start;
        self.backup_each::<false>(states, values, gamma, |s, best, _, _| out[s - lo] = best);
    }

    /// Bellman-optimality backups of a contiguous state range with each
    /// state's ranking: calls `visit(state, best, runner_up, argmax)` once
    /// per state, in ascending order. `best` is
    /// [`backup_state`](Self::backup_state)'s value bit for bit, `runner_up`
    /// the second-largest Q (`-∞` when only one action is valid, `best`
    /// itself on an exact tie) and `argmax` the lowest action whose Q is
    /// `best`.
    pub fn backup_block_ranked(
        &self,
        states: std::ops::Range<usize>,
        values: &[f64],
        gamma: f64,
        visit: impl FnMut(usize, f64, f64, usize),
    ) {
        self.backup_each::<true>(states, values, gamma, visit);
    }

    /// One value-iteration sweep block: the backups of
    /// [`backup_block`](Self::backup_block), with each state's change from
    /// `values` recorded into `stats` in the same pass.
    pub(crate) fn sweep_block(
        &self,
        states: std::ops::Range<usize>,
        values: &[f64],
        out: &mut [f64],
        gamma: f64,
        stats: &mut SweepStats,
    ) {
        let lo = states.start;
        let mut change = *stats;
        self.backup_each::<false>(states, values, gamma, |s, best, _, _| {
            change.record(best - values[s]);
            out[s - lo] = best;
        });
        *stats = change;
    }

    /// One relative-value-iteration sweep block (`γ = 1`, damping `τ`) in
    /// one pass: each state's damped backup `(1 − τ)·h(s) + τ·max_a Q(s, a)`
    /// records its change from `h(s)` into `stats` and is stored re-anchored,
    /// minus state 0's damped backup, so a full sweep leaves `h(0) = 0`.
    /// Every block computes that offset itself from `h` (one state's
    /// backup), so all blocks of a sweep, serial or pooled, subtract the
    /// same bits.
    pub(crate) fn relative_sweep_block(
        &self,
        states: std::ops::Range<usize>,
        h: &[f64],
        out: &mut [f64],
        damping: f64,
        stats: &mut SweepStats,
    ) {
        let damp = |old: f64, best: f64| (1.0 - damping) * old + damping * best;
        let offset = damp(h[0], self.backup_state(0, h, 1.0));
        let lo = states.start;
        let mut change = *stats;
        self.backup_each::<false>(states, h, 1.0, |s, best, _, _| {
            let damped = damp(h[s], best);
            change.record(damped - h[s]);
            out[s - lo] = damped - offset;
        });
        *stats = change;
    }

    /// [`sweep_block`](Self::sweep_block) that also folds each state's
    /// action gap (best minus runner-up Q, computed from `values`) into
    /// `stats.margin` and points each state's entry of `greedy` at its
    /// argmax action (ties break to the lowest index). The backed-up values
    /// are bit-identical to `backup_block`'s.
    pub(crate) fn sweep_block_with_gap(
        &self,
        states: std::ops::Range<usize>,
        values: &[f64],
        out: &mut [f64],
        gamma: f64,
        stats: &mut SweepStats,
        greedy: &PolicyRows,
    ) {
        let lo = states.start;
        let mut change = *stats;
        self.backup_block_ranked(states, values, gamma, |s, best, runner_up, argmax| {
            change.record(best - values[s]);
            change.record_gap(best - runner_up);
            self.set_policy_row(greedy, s, argmax);
            out[s - lo] = best;
        });
        *stats = change;
    }

    /// The backup kernel of every optimality sweep: calls
    /// `visit(state, best, runner_up, argmax)` for each state of `states`
    /// in ascending order. Runner-up and argmax are tracked only when
    /// `RANKED` (otherwise they read `-∞` and `0`). CSR kernels back up one
    /// state at a time; dense kernels run [`dense_lanes`](Self::dense_lanes)
    /// over register blocks of [`LANES`] states, then one state at a time
    /// over the tail.
    #[inline(always)]
    fn backup_each<const RANKED: bool>(
        &self,
        states: std::ops::Range<usize>,
        values: &[f64],
        gamma: f64,
        mut visit: impl FnMut(usize, f64, f64, usize),
    ) {
        let Rows::Dense(dense) = &self.rows else {
            for s in states {
                let (best, argmax, runner_up) = self.backup_state_ranked(s, values, gamma);
                visit(s, best, runner_up, argmax);
            }
            return;
        };
        let mut s = states.start;
        while s + LANES <= states.end {
            self.dense_lanes::<RANKED, LANES>(dense, s, values, gamma, &mut visit);
            s += LANES;
        }
        for s in s..states.end {
            self.dense_lanes::<RANKED, 1>(dense, s, values, gamma, &mut visit);
        }
    }

    /// Backs up the `W` dense states `first..first + W`, action-outer: each
    /// action plane yields the `W` states' `(expected, next)` contiguously,
    /// one `values` gather per row, and every state's best Q (with
    /// `RANKED`, its runner-up and argmax too) stays in a register across
    /// all actions. Invalid rows are `-∞ + γ·future`, which the strict max
    /// skips, so no row tests validity. Per row this is
    /// [`q_value`](Self::q_value)'s arithmetic, and actions run in
    /// ascending order with strict improvement, as in
    /// [`backup_state`](Self::backup_state): the results, runner-ups and
    /// argmaxes agree exactly.
    #[inline(always)]
    fn dense_lanes<const RANKED: bool, const W: usize>(
        &self,
        dense: &DenseRows,
        first: usize,
        values: &[f64],
        gamma: f64,
        visit: &mut impl FnMut(usize, f64, f64, usize),
    ) {
        let mut best = [f64::NEG_INFINITY; W];
        let mut second = [f64::NEG_INFINITY; W];
        let mut arg = [0usize; W];
        for a in 0..self.n_actions {
            let row = a * self.n_states + first;
            let expected = &dense.expected[row..row + W];
            let next = &dense.next[row..row + W];
            for k in 0..W {
                // The CSR gather's single-term sum `0.0 + 1.0·V[next]`
                // (`1.0·x == x` exactly).
                let q = expected[k] + gamma * (0.0 + values[next[k] as usize]);
                if RANKED {
                    // The new runner-up is the larger of the old runner-up
                    // and whichever of (old best, q) loses.
                    let lower = if q > best[k] { best[k] } else { q };
                    second[k] = if lower > second[k] { lower } else { second[k] };
                    arg[k] = if q > best[k] { a } else { arg[k] };
                }
                best[k] = if q > best[k] { q } else { best[k] };
            }
        }
        for k in 0..W {
            visit(first + k, best[k], second[k], arg[k]);
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
    /// written into `out` (`out[0]` is `states.start`) with each state's
    /// change from `values` recorded into `stats`: one row per state
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
        stats: &mut SweepStats,
    ) {
        debug_assert_eq!(out.len(), states.len(), "output block length mismatch");
        let mut change = *stats;
        if self.has_dense_layout() {
            let expected = &rows.expected[states.clone()];
            let next = &rows.next[states.clone()];
            for (j, (slot, s)) in out.iter_mut().zip(states).enumerate() {
                let future = 0.0 + values[next[j].load(Ordering::Relaxed) as usize];
                *slot = f64::from_bits(expected[j].load(Ordering::Relaxed)) + gamma * future;
                change.record(*slot - values[s]);
            }
        } else {
            for (slot, s) in out.iter_mut().zip(states) {
                *slot = self.q_row(s, rows.action(s), values, gamma);
                change.record(*slot - values[s]);
            }
        }
        *stats = change;
    }

    /// Writes the exact discounted value `V_π` of the policy in `rows`
    /// into `values` by one walk of its functional graph (see the module
    /// docs). Off a cycle's entry state the arithmetic is
    /// [`evaluate_block`](Self::evaluate_block)'s, so there
    /// `T_π V == V` bit for bit. Dense kernels only: `rows` holds no row
    /// copies on a CSR kernel.
    pub(crate) fn evaluate_exact(
        &self,
        rows: &PolicyRows,
        gamma: f64,
        values: &mut [f64],
        walk: &mut CycleWalk,
    ) {
        debug_assert!(self.has_dense_layout(), "exact evaluation needs dense rows");
        walk.run(
            rows,
            values,
            |cycle| {
                let (mut sum, mut discount) = (0.0, 1.0);
                for &v in cycle {
                    sum += discount * rows.reward(v as usize);
                    discount *= gamma;
                }
                sum / (1.0 - discount)
            },
            |s, future| rows.reward(s) + gamma * (0.0 + future),
        );
    }

    /// The long-run average reward (gain) of following `policy` forever
    /// from each state: the mean reward of the cycle its path reaches in
    /// the policy's functional graph, summed from the first cycle state
    /// the walk meets.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadParameter`] on a CSR kernel (its policies
    /// are not functional graphs) and for a policy that does not pick one
    /// valid action per state.
    pub fn policy_gain(&self, policy: &TabularPolicy) -> Result<Vec<f64>, MdpError> {
        if !self.has_dense_layout() {
            return Err(MdpError::BadParameter {
                what: "kernel",
                valid: "a dense (unit-mass deterministic) kernel",
            });
        }
        let actions = policy.actions();
        let valid = actions.len() == self.n_states
            && actions
                .iter()
                .enumerate()
                .all(|(s, &a)| a < self.n_actions && self.is_valid(s, a));
        if !valid {
            return Err(MdpError::BadParameter {
                what: "policy",
                valid: "one valid action per state",
            });
        }
        let rows = self.policy_rows(|s| actions[s]);
        let mut gain = vec![0.0; self.n_states];
        CycleWalk::new(self.n_states).run(
            &rows,
            &mut gain,
            |cycle| {
                let total: f64 = cycle.iter().map(|&v| rows.reward(v as usize)).sum();
                total / cycle.len() as f64
            },
            |_, gain| gain,
        );
        Ok(gain)
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
        let mut actions = Vec::with_capacity(self.n_states);
        self.backup_block_ranked(0..self.n_states, values, gamma, |_, _, _, argmax| {
            actions.push(argmax)
        });
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

    /// The destination of `state`'s row copy (dense kernels only).
    #[inline]
    fn successor(&self, state: usize) -> usize {
        self.next[state].load(Ordering::Relaxed) as usize
    }

    /// The expected reward of `state`'s row copy (dense kernels only).
    #[inline]
    fn reward(&self, state: usize) -> f64 {
        f64::from_bits(self.expected[state].load(Ordering::Relaxed))
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

/// Scratch for walking a policy's functional graph on a dense kernel: a
/// mark per state and the current path, both sized to the state count
/// once, so a walk allocates nothing.
pub(crate) struct CycleWalk {
    /// [`UNSEEN`], [`ON_PATH`] or [`DONE`] per state.
    mark: Vec<u8>,
    /// The states of the current path, in walk order.
    path: Vec<u32>,
}

const UNSEEN: u8 = 0;
const ON_PATH: u8 = 1;
const DONE: u8 = 2;

impl CycleWalk {
    /// Scratch for walks over `n_states` states.
    pub(crate) fn new(n_states: usize) -> Self {
        CycleWalk {
            mark: vec![UNSEEN; n_states],
            path: Vec::with_capacity(n_states),
        }
    }

    /// Fills `out` with one value per state. States are walked in index
    /// order, each path followed through `rows`' successors until it meets
    /// a state already walked. When the path closes a new cycle, the state
    /// that closes it gets `cycle(states)`, the cycle's states in successor
    /// order from that one. Every other state `x` of the path, in reverse
    /// order, gets `link(x, out[successor(x)])`, back around the cycle and
    /// down the tree.
    fn run(
        &mut self,
        rows: &PolicyRows,
        out: &mut [f64],
        mut cycle: impl FnMut(&[u32]) -> f64,
        link: impl Fn(usize, f64) -> f64,
    ) {
        self.mark.fill(UNSEEN);
        for root in 0..out.len() {
            let mut x = root;
            while self.mark[x] == UNSEEN {
                self.mark[x] = ON_PATH;
                // `compile` checked that every state index fits in u32.
                self.path.push(x as u32);
                x = rows.successor(x);
            }
            if self.mark[x] == ON_PATH {
                // `x` closes a new cycle: the path's last `len` states.
                let mut len = 1;
                let mut v = rows.successor(x);
                while v != x {
                    v = rows.successor(v);
                    len += 1;
                }
                out[x] = cycle(&self.path[self.path.len() - len..]);
                self.mark[x] = DONE;
            }
            while let Some(v) = self.path.pop() {
                let v = v as usize;
                if self.mark[v] != DONE {
                    out[v] = link(v, out[rows.successor(v)]);
                    self.mark[v] = DONE;
                }
            }
        }
    }
}

/// Per-sweep change statistics shared by all sweep-based solvers: the
/// sup-norm change, the signed span (used by relative value iteration and
/// the action-gap certificate), and — for sweeps run through
/// [`CompiledMdp::sweep_block_with_gap`] — the smallest action gap. Each
/// sweep block records its own states' changes (see [`run_sweeps`]).
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

    /// Folds one state's change `new − old` into the stats. Compare and
    /// select, as `f64::max`/`min` would fold it: a NaN change is skipped
    /// and the fields never become NaN. The folds differ only on `±0.0`
    /// ties, and no sweep's change is `−0.0` (that takes `new = −0.0`
    /// against `old = +0.0`, and no backup of a `+0.0` iterate entry
    /// rounds to `−0.0`).
    #[inline]
    fn record(&mut self, delta: f64) {
        let size = delta.abs();
        self.max_abs = if size > self.max_abs {
            size
        } else {
            self.max_abs
        };
        self.lo = if delta < self.lo { delta } else { self.lo };
        self.hi = if delta > self.hi { delta } else { self.hi };
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
/// [`simkit::executor::serialized`].
pub(crate) fn sweep_workers(n_states: usize) -> usize {
    simkit::executor::worker_count(n_states, true, MIN_STATES_PER_WORKER)
}

/// States per register block of the dense backup kernel: each of them
/// keeps its best Q (and, ranked, its runner-up and argmax) in registers
/// across every action. Measured on the fig1a models, 4 ran RVI slower,
/// and 16 spills registers and ran slower still.
const LANES: usize = 8;

/// States per cache block in [`run_sweeps`]. 1024 states × 8 bytes keeps
/// one block's output slice (8 KiB) plus the row data streaming through it
/// comfortably inside a 32 KiB L1d, while the full previous iterate stays
/// L2-resident for the gather. Block boundaries never move work between
/// threads (chunking by worker happens above the block loop), so the
/// result is bitwise independent of this constant.
const SWEEP_BLOCK: usize = 1024;

/// The Jacobi sweep loop every compiled solver runs: per sweep, `backup`
/// fills contiguous state ranges of the fresh iterate from the previous one
/// and records each state's change `new − old` into the range's stats
/// (e.g. [`CompiledMdp::sweep_block`]); `epilogue` then reads the sweep's
/// merged stats, may post-process the fresh iterate, and decides
/// convergence; the loop stops at `max_sweeps`.
///
/// The loop itself never reads the iterate, so a sweep is one pass over
/// it: each backup folds its solver's per-state work (damping,
/// re-anchoring, action gaps, policy rows) into the pass that computes
/// the state's value. A backup whose epilogue reads no stats may skip
/// recording. This is a thin domain adapter over
/// [`simkit::executor::run_rounds`], the workspace's single thread-pool
/// implementation: one persistent barrier-synchronized pool per solve when
/// `workers >= 2`, no per-sweep allocation, and a schedule that is
/// bit-for-bit identical to the serial loop (every backup reads only the
/// previous iterate, and each chunk records its states in state order).
pub(crate) fn run_sweeps(
    values: Vec<f64>,
    workers: usize,
    max_sweeps: usize,
    backup: impl Fn(std::ops::Range<usize>, &[f64], &mut [f64], &mut SweepStats) + Sync,
    epilogue: impl FnMut(&mut [f64], &SweepStats, usize) -> bool,
) -> SweepOutcome {
    let outcome =
        simkit::executor::run_rounds(values, workers, max_sweeps, SWEEP_BLOCK, backup, epilogue);
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
            |range, old, out, stats| compiled.sweep_block(range, old, out, gamma, stats),
            |_, stats, _| stats.max_abs < tolerance,
        );
        assert_eq!(swept.sweeps, sweeps);
        assert_eq!(swept.converged, last.max_abs < tolerance);
        assert_eq!(swept.last, last);
        assert_eq!(swept.values, values, "blocked iterate must be identical");
    }

    /// Relative value iteration's one-pass sweep (backup, damping, change
    /// stats and re-anchor per block) reproduces the three-pass sweep it
    /// replaces bit for bit, serial and pooled: per-state backups, then
    /// damping, then `f64::max`/`min` stats in state order, then the
    /// whole iterate shifted by its state 0. The model is dense, spans
    /// three sweep blocks and ends on a short register-block tail.
    #[test]
    fn fused_relative_sweep_matches_the_three_pass_sweep_bitwise() {
        let kernel = shaped_model(5, 2_403, Shape::Forest);
        let n = kernel.n_states();
        let (damping, sweeps) = (0.7, 40);
        let mut h = vec![0.0; n];
        let mut last = SweepStats::new();
        for _ in 0..sweeps {
            let mut next: Vec<f64> = (0..n).map(|s| kernel.backup_state(s, &h, 1.0)).collect();
            last = SweepStats::new();
            for (slot, old) in next.iter_mut().zip(&h) {
                *slot = (1.0 - damping) * old + damping * *slot;
                let delta = *slot - old;
                last.max_abs = last.max_abs.max(delta.abs());
                last.lo = last.lo.min(delta);
                last.hi = last.hi.max(delta);
            }
            let offset = next[0];
            h = next.iter().map(|v| v - offset).collect();
        }
        for workers in [1, 3] {
            let fused = run_sweeps(
                vec![0.0; n],
                workers,
                sweeps,
                |range, old, out, stats| {
                    kernel.relative_sweep_block(range, old, out, damping, stats)
                },
                |_, _, _| false,
            );
            assert_eq!(fused.sweeps, sweeps);
            assert_eq!(fused.last, last, "{workers} workers");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused.values), bits(&h), "{workers} workers");
        }
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
                |range, old, out, stats| compiled.sweep_block(range, old, out, gamma, stats),
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

    /// Policy shapes of the exact-evaluation tests: the successor of each
    /// state under action 0, the policy every test evaluates.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// Every state loops on itself (cycles of length 1).
        SelfLoops,
        /// One cycle through every state.
        OneCycle,
        /// Planted cycles `0 → 1 → 2 → 0`, `3 ↔ 4` and `5 → 5` plus a
        /// random successor for every other state: several cycles with
        /// trees feeding them. State 5's only valid action is its loop.
        Forest,
    }

    /// A seeded dense `n`-state, 3-action model: action 0 follows
    /// `shape`, the other actions jump to random states, and every reward
    /// is random in `[-1, 1)`.
    fn shaped_model(seed: u64, n: usize, shape: Shape) -> CompiledMdp {
        use crate::model::FnMdp;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|s| {
                let policy_next = match shape {
                    Shape::SelfLoops => s,
                    Shape::OneCycle => (s + 1) % n,
                    Shape::Forest => match s {
                        0..=2 => (s + 1) % 3,
                        3 | 4 => 7 - s,
                        5 => 5,
                        _ => rng.gen_range(0..n),
                    },
                };
                let n_valid = if matches!(shape, Shape::Forest) && s == 5 {
                    1
                } else {
                    3
                };
                (0..n_valid)
                    .map(|a| {
                        let next = if a == 0 {
                            policy_next
                        } else {
                            rng.gen_range(0..n)
                        };
                        (next, rng.gen_range(-1.0..1.0))
                    })
                    .collect()
            })
            .collect();
        let kernel = CompiledMdp::compile(&FnMdp::new(n, 3, |s, a, out| {
            if let Some(&(next, reward)) = rows[s].get(a) {
                out.push(Transition::new(next, 1.0, reward));
            }
        }))
        .unwrap();
        assert!(kernel.has_dense_layout());
        kernel
    }

    /// The models of the exact-evaluation tests, with labels.
    fn shaped_models() -> Vec<(String, CompiledMdp)> {
        let mut models = Vec::new();
        for seed in 0..3 {
            for (shape, n) in [
                (Shape::SelfLoops, 17),
                (Shape::OneCycle, 41),
                (Shape::Forest, 300),
            ] {
                let label = format!("{shape:?} seed {seed}");
                models.push((label, shaped_model(seed, n, shape)));
            }
        }
        models
    }

    /// Exact evaluation agrees with iterated policy evaluation run to a
    /// tight tolerance, and is a fixed point of `T_π` to within the
    /// certificate's rounding slack.
    #[test]
    fn exact_evaluation_matches_iterated_evaluation() {
        let tolerance = 1e-12;
        for (label, kernel) in shaped_models() {
            let n = kernel.n_states();
            let policy = TabularPolicy::new(vec![0; n]);
            let rows = kernel.policy_rows(|_| 0);
            let mut walk = CycleWalk::new(n);
            for gamma in [0.0, 0.5, 0.9, 0.99] {
                let label = format!("{label} γ={gamma}");
                let mut exact = vec![f64::NAN; n];
                kernel.evaluate_exact(&rows, gamma, &mut exact, &mut walk);
                let iterated = crate::solver::evaluate_policy_compiled(
                    &kernel, &policy, gamma, tolerance, 1_000_000,
                )
                .unwrap();
                let slack = crate::solver::certificate_slack(gamma, kernel.reward_bound());
                let bound = 2.0 * tolerance / (1.0 - gamma) + slack;
                for s in 0..n {
                    let diff = (exact[s] - iterated[s]).abs();
                    assert!(diff <= bound, "{label} state {s}: {diff:e} > {bound:e}");
                }
                let mut backed_up = vec![0.0; n];
                let stats = &mut SweepStats::new();
                kernel.evaluate_block(0..n, &exact, &mut backed_up, gamma, &rows, stats);
                let residual = backed_up
                    .iter()
                    .zip(&exact)
                    .map(|(t, v)| (t - v).abs())
                    .fold(0.0, f64::max);
                assert!(
                    residual <= slack,
                    "{label}: ‖T_π V − V‖ {residual:e} > {slack:e}"
                );
            }
        }
    }

    /// A self-loop's value is `r / (1 − γ)` and a state whose only valid
    /// action loops keeps it whatever its other states do.
    #[test]
    fn exact_evaluation_of_a_lone_loop_is_closed_form() {
        let kernel = shaped_model(7, 300, Shape::Forest);
        assert!((0..3)
            .map(|a| kernel.is_valid(5, a))
            .eq([true, false, false]));
        let rows = kernel.policy_rows(|_| 0);
        let mut values = vec![0.0; 300];
        for gamma in [0.0, 0.5, 0.9, 0.99] {
            kernel.evaluate_exact(&rows, gamma, &mut values, &mut CycleWalk::new(300));
            assert_eq!(values[5], kernel.expected_reward(5, 0) / (1.0 - gamma));
        }
    }

    /// The gain of each state is the mean reward of the cycle its path
    /// reaches, found here by walking `n` steps (which always lands on the
    /// cycle) and then once around it.
    #[test]
    fn policy_gain_is_the_mean_reward_of_the_reached_cycle() {
        for (label, kernel) in shaped_models() {
            let n = kernel.n_states();
            let gain = kernel.policy_gain(&TabularPolicy::new(vec![0; n])).unwrap();
            let next = |s: usize| {
                let mut buf = Vec::new();
                kernel.transitions(s, 0, &mut buf);
                buf[0].next
            };
            let ulp = f64::EPSILON * kernel.reward_bound();
            for (s, &g) in gain.iter().enumerate() {
                let head = (0..n).fold(s, |x, _| next(x));
                let (mut x, mut total, mut len) = (head, 0.0, 0);
                loop {
                    total += kernel.expected_reward(x, 0);
                    len += 1;
                    x = next(x);
                    if x == head {
                        break;
                    }
                }
                let want = total / len as f64;
                assert!(
                    (g - want).abs() <= 4.0 * ulp * len as f64,
                    "{label} state {s}: {g} vs {want}"
                );
            }
        }
    }

    #[test]
    fn policy_gain_rejects_csr_kernels_and_bad_policies() {
        let (chain, _) = reference::chain(6, 0.7);
        let csr = CompiledMdp::compile(&chain).unwrap();
        assert!(matches!(
            csr.policy_gain(&TabularPolicy::new(vec![0; 6])),
            Err(MdpError::BadParameter { what: "kernel", .. })
        ));
        let dense = shaped_model(1, 300, Shape::Forest);
        for actions in [vec![0; 5], vec![1; 300], vec![3; 300]] {
            assert!(matches!(
                dense.policy_gain(&TabularPolicy::new(actions)),
                Err(MdpError::BadParameter { what: "policy", .. })
            ));
        }
    }

    /// A panic inside a pool worker must surface as a panic on the calling
    /// thread, not leave the coordinator deadlocked on the barrier.
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
