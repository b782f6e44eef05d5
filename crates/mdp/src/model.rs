//! Finite-MDP model traits and tabular/implicit implementations.

use crate::MdpError;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// One outgoing transition of a `(state, action)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Destination state index.
    pub next: usize,
    /// Probability of this transition (transitions of one `(s, a)` row sum
    /// to 1).
    pub probability: f64,
    /// Immediate reward collected on this transition.
    pub reward: f64,
}

impl Transition {
    /// Convenience constructor.
    pub fn new(next: usize, probability: f64, reward: f64) -> Self {
        Transition {
            next,
            probability,
            reward,
        }
    }
}

/// A finite Markov decision process with explicit transition distributions.
///
/// States are `0..n_states()`, actions `0..n_actions()`. The convention
/// throughout this workspace is **reward maximization** (the paper's Eq. 1
/// utility is maximized).
///
/// Implementors fill a caller-provided buffer in [`transitions`] so that hot
/// solver loops do not allocate; the buffer is cleared by the callee.
///
/// [`transitions`]: FiniteMdp::transitions
pub trait FiniteMdp {
    /// Number of states.
    fn n_states(&self) -> usize;

    /// Number of actions (the full action alphabet; use
    /// [`is_action_valid`](FiniteMdp::is_action_valid) for per-state
    /// restrictions).
    fn n_actions(&self) -> usize;

    /// Writes the transition distribution of `(state, action)` into `out`
    /// (clearing it first). Rows of invalid actions may be empty.
    fn transitions(&self, state: usize, action: usize, out: &mut Vec<Transition>);

    /// Whether `action` may be taken in `state`. Defaults to always valid.
    fn is_action_valid(&self, _state: usize, _action: usize) -> bool {
        true
    }

    /// Expected immediate reward of `(state, action)`.
    ///
    /// The default routes through a thread-local row buffer so learner and
    /// rollout loops calling it per step do not allocate; implementors with
    /// materialized rows ([`TabularMdp`], [`CompiledMdp`](crate::CompiledMdp))
    /// override it to read their storage directly.
    fn expected_reward(&self, state: usize, action: usize) -> f64 {
        with_row_buf(|buf| {
            self.transitions(state, action, buf);
            buf.iter().map(|t| t.probability * t.reward).sum()
        })
    }

    /// Samples `(next_state, reward)` from the transition distribution.
    ///
    /// The default routes through a thread-local row buffer (no per-call
    /// allocation); [`CompiledMdp`](crate::CompiledMdp) samples straight
    /// from its compiled rows.
    ///
    /// # Panics
    ///
    /// Panics if the `(state, action)` row is empty (invalid action).
    fn sample(&self, state: usize, action: usize, rng: &mut dyn RngCore) -> (usize, f64) {
        with_row_buf(|buf| {
            self.transitions(state, action, buf);
            sample_from(buf, rng)
        })
    }
}

thread_local! {
    /// Reusable transition-row buffer backing the default `expected_reward`
    /// and `sample` implementations.
    static ROW_BUF: std::cell::RefCell<Vec<Transition>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with the thread-local row buffer, falling back to a fresh
/// buffer on re-entrant use (a `transitions` implementation calling back
/// into a default trait method).
fn with_row_buf<R>(f: impl FnOnce(&mut Vec<Transition>) -> R) -> R {
    ROW_BUF.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => f(&mut buf),
        Err(_) => f(&mut Vec::new()),
    })
}

/// Samples a transition from an explicit distribution row.
///
/// # Panics
///
/// Panics if `row` is empty.
pub(crate) fn sample_from(row: &[Transition], rng: &mut dyn RngCore) -> (usize, f64) {
    assert!(
        !row.is_empty(),
        "cannot sample from an empty transition row"
    );
    let u: f64 = rand::Rng::gen::<f64>(rng);
    let mut acc = 0.0;
    for t in row {
        acc += t.probability;
        if u < acc {
            return (t.next, t.reward);
        }
    }
    // Floating-point slack: fall back to the last transition.
    // lint:allow(panic-hygiene): the caller just iterated this row, and rows
    // are validated non-empty at build().
    let last = row.last().expect("non-empty");
    (last.next, last.reward)
}

/// Dense tabular MDP with explicitly stored transition rows.
///
/// Built through [`TabularMdpBuilder`], which validates that every row is a
/// probability distribution.
///
/// ```
/// use mdp::{TabularMdp, FiniteMdp};
/// // A 2-state toggle: action 0 stays (reward 0), action 1 toggles (reward 1).
/// let mdp = TabularMdp::builder(2, 2)
///     .transition(0, 0, 0, 1.0, 0.0)
///     .transition(0, 1, 1, 1.0, 1.0)
///     .transition(1, 0, 1, 1.0, 0.0)
///     .transition(1, 1, 0, 1.0, 1.0)
///     .build()
///     .unwrap();
/// assert_eq!(mdp.n_states(), 2);
/// assert_eq!(mdp.expected_reward(0, 1), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TabularMdp {
    n_states: usize,
    n_actions: usize,
    /// Row-major `[state][action]` transition lists.
    rows: Vec<Vec<Transition>>,
}

impl TabularMdp {
    /// Starts building a tabular MDP with the given state/action counts.
    pub fn builder(n_states: usize, n_actions: usize) -> TabularMdpBuilder {
        TabularMdpBuilder {
            n_states,
            n_actions,
            rows: vec![Vec::new(); n_states * n_actions],
        }
    }

    fn row(&self, state: usize, action: usize) -> &[Transition] {
        &self.rows[state * self.n_actions + action]
    }
}

impl FiniteMdp for TabularMdp {
    fn n_states(&self) -> usize {
        self.n_states
    }

    fn n_actions(&self) -> usize {
        self.n_actions
    }

    fn transitions(&self, state: usize, action: usize, out: &mut Vec<Transition>) {
        out.clear();
        out.extend_from_slice(self.row(state, action));
    }

    fn is_action_valid(&self, state: usize, action: usize) -> bool {
        !self.row(state, action).is_empty()
    }

    fn expected_reward(&self, state: usize, action: usize) -> f64 {
        self.row(state, action)
            .iter()
            .map(|t| t.probability * t.reward)
            .sum()
    }

    fn sample(&self, state: usize, action: usize, rng: &mut dyn RngCore) -> (usize, f64) {
        sample_from(self.row(state, action), rng)
    }
}

/// Incremental builder for [`TabularMdp`].
#[derive(Debug, Clone)]
pub struct TabularMdpBuilder {
    n_states: usize,
    n_actions: usize,
    rows: Vec<Vec<Transition>>,
}

impl TabularMdpBuilder {
    /// Adds one transition `(state, action) → next` with the given
    /// probability and reward.
    ///
    /// # Panics
    ///
    /// Panics if `state`/`action` are out of range (the destination state is
    /// validated at [`build`](Self::build) time instead, to keep chained
    /// construction ergonomic).
    #[must_use]
    pub fn transition(
        mut self,
        state: usize,
        action: usize,
        next: usize,
        probability: f64,
        reward: f64,
    ) -> Self {
        assert!(state < self.n_states, "state out of range");
        assert!(action < self.n_actions, "action out of range");
        self.rows[state * self.n_actions + action].push(Transition::new(next, probability, reward));
        self
    }

    /// Validates all rows and produces the model.
    ///
    /// # Errors
    ///
    /// * [`MdpError::EmptyModel`] if there are no states or actions.
    /// * [`MdpError::NonFiniteEntry`] for NaN/infinite probabilities or
    ///   rewards, or negative probabilities.
    /// * [`MdpError::StateOutOfRange`] if a destination state is invalid.
    /// * [`MdpError::BadDistribution`] if a non-empty row does not sum to 1.
    ///
    /// Rows that are entirely empty are allowed and mark invalid actions,
    /// but every state must have at least one valid action.
    pub fn build(self) -> Result<TabularMdp, MdpError> {
        if self.n_states == 0 || self.n_actions == 0 {
            return Err(MdpError::EmptyModel);
        }
        for s in 0..self.n_states {
            let mut any_valid = false;
            for a in 0..self.n_actions {
                let row = &self.rows[s * self.n_actions + a];
                if row.is_empty() {
                    continue;
                }
                any_valid = true;
                let mut mass = 0.0;
                for t in row {
                    if !t.probability.is_finite() || !t.reward.is_finite() || t.probability < 0.0 {
                        return Err(MdpError::NonFiniteEntry {
                            state: s,
                            action: a,
                        });
                    }
                    if t.next >= self.n_states {
                        return Err(MdpError::StateOutOfRange {
                            state: t.next,
                            n_states: self.n_states,
                        });
                    }
                    mass += t.probability;
                }
                if (mass - 1.0).abs() > 1e-9 {
                    return Err(MdpError::BadDistribution {
                        state: s,
                        action: a,
                        mass,
                    });
                }
            }
            if !any_valid {
                return Err(MdpError::BadDistribution {
                    state: s,
                    action: 0,
                    mass: 0.0,
                });
            }
        }
        Ok(TabularMdp {
            n_states: self.n_states,
            n_actions: self.n_actions,
            rows: self.rows,
        })
    }
}

/// An implicit MDP defined by a transition closure — used when materializing
/// every row up-front would be wasteful (e.g. the factored AoI cache MDP,
/// whose rows are computed from age vectors on the fly).
///
/// ```
/// use mdp::{FnMdp, FiniteMdp, Transition};
/// // Deterministic cycle over 3 states, reward 1 on wrap-around.
/// let mdp = FnMdp::new(3, 1, |s, _a, out| {
///     let next = (s + 1) % 3;
///     out.push(Transition::new(next, 1.0, if next == 0 { 1.0 } else { 0.0 }));
/// });
/// assert_eq!(mdp.expected_reward(2, 0), 1.0);
/// ```
pub struct FnMdp<F> {
    n_states: usize,
    n_actions: usize,
    transition_fn: F,
}

impl<F> FnMdp<F>
where
    F: Fn(usize, usize, &mut Vec<Transition>),
{
    /// Creates an implicit MDP. The closure must push a valid probability
    /// distribution (or nothing, for invalid actions) into the buffer; the
    /// buffer is already cleared when the closure runs.
    pub fn new(n_states: usize, n_actions: usize, transition_fn: F) -> Self {
        FnMdp {
            n_states,
            n_actions,
            transition_fn,
        }
    }
}

impl<F> std::fmt::Debug for FnMdp<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnMdp")
            .field("n_states", &self.n_states)
            .field("n_actions", &self.n_actions)
            .finish_non_exhaustive()
    }
}

impl<F> FiniteMdp for FnMdp<F>
where
    F: Fn(usize, usize, &mut Vec<Transition>),
{
    fn n_states(&self) -> usize {
        self.n_states
    }

    fn n_actions(&self) -> usize {
        self.n_actions
    }

    fn transitions(&self, state: usize, action: usize, out: &mut Vec<Transition>) {
        out.clear();
        (self.transition_fn)(state, action, out);
    }
}

impl<M: FiniteMdp + ?Sized> FiniteMdp for &M {
    fn n_states(&self) -> usize {
        (**self).n_states()
    }
    fn n_actions(&self) -> usize {
        (**self).n_actions()
    }
    fn transitions(&self, state: usize, action: usize, out: &mut Vec<Transition>) {
        (**self).transitions(state, action, out);
    }
    fn is_action_valid(&self, state: usize, action: usize) -> bool {
        (**self).is_action_valid(state, action)
    }
    fn expected_reward(&self, state: usize, action: usize) -> f64 {
        (**self).expected_reward(state, action)
    }
    fn sample(&self, state: usize, action: usize, rng: &mut dyn RngCore) -> (usize, f64) {
        (**self).sample(state, action, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toggle() -> TabularMdp {
        TabularMdp::builder(2, 2)
            .transition(0, 0, 0, 1.0, 0.0)
            .transition(0, 1, 1, 1.0, 1.0)
            .transition(1, 0, 1, 1.0, 0.0)
            .transition(1, 1, 0, 1.0, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_accepts_valid_model() {
        let m = toggle();
        assert_eq!(m.n_states(), 2);
        assert_eq!(m.n_actions(), 2);
        let mut buf = Vec::new();
        m.transitions(0, 1, &mut buf);
        assert_eq!(buf, vec![Transition::new(1, 1.0, 1.0)]);
    }

    #[test]
    fn builder_rejects_bad_mass() {
        let err = TabularMdp::builder(1, 1)
            .transition(0, 0, 0, 0.5, 0.0)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, MdpError::BadDistribution { mass, .. } if (mass - 0.5).abs() < 1e-12)
        );
    }

    #[test]
    fn builder_rejects_bad_destination() {
        let err = TabularMdp::builder(1, 1)
            .transition(0, 0, 5, 1.0, 0.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, MdpError::StateOutOfRange { state: 5, .. }));
    }

    #[test]
    fn builder_rejects_non_finite() {
        let err = TabularMdp::builder(1, 1)
            .transition(0, 0, 0, f64::NAN, 0.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, MdpError::NonFiniteEntry { .. }));

        let err = TabularMdp::builder(1, 1)
            .transition(0, 0, 0, 1.0, f64::INFINITY)
            .build()
            .unwrap_err();
        assert!(matches!(err, MdpError::NonFiniteEntry { .. }));
    }

    #[test]
    fn builder_rejects_negative_probability() {
        let err = TabularMdp::builder(1, 1)
            .transition(0, 0, 0, -0.5, 0.0)
            .transition(0, 0, 0, 1.5, 0.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, MdpError::NonFiniteEntry { .. }));
    }

    #[test]
    fn builder_rejects_empty_model_and_stateless_rows() {
        assert!(matches!(
            TabularMdp::builder(0, 1).build(),
            Err(MdpError::EmptyModel)
        ));
        // State 1 has no valid action at all.
        let err = TabularMdp::builder(2, 1)
            .transition(0, 0, 0, 1.0, 0.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, MdpError::BadDistribution { state: 1, .. }));
    }

    #[test]
    fn empty_rows_mark_invalid_actions() {
        let m = TabularMdp::builder(1, 2)
            .transition(0, 0, 0, 1.0, 0.0)
            .build()
            .unwrap();
        assert!(m.is_action_valid(0, 0));
        assert!(!m.is_action_valid(0, 1));
    }

    #[test]
    fn expected_reward_weights_by_probability() {
        let m = TabularMdp::builder(2, 1)
            .transition(0, 0, 0, 0.25, 4.0)
            .transition(0, 0, 1, 0.75, 0.0)
            .transition(1, 0, 1, 1.0, 0.0)
            .build()
            .unwrap();
        assert!((m.expected_reward(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_distribution() {
        let m = TabularMdp::builder(3, 1)
            .transition(0, 0, 1, 0.2, 0.0)
            .transition(0, 0, 2, 0.8, 1.0)
            .transition(1, 0, 1, 1.0, 0.0)
            .transition(2, 0, 2, 1.0, 0.0)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut to2 = 0;
        let n = 20_000;
        for _ in 0..n {
            let (next, _) = m.sample(0, 0, &mut rng);
            if next == 2 {
                to2 += 1;
            }
        }
        let frac = to2 as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "frac was {frac}");
    }

    #[test]
    fn fn_mdp_delegates() {
        let m = FnMdp::new(3, 1, |s, _a, out| {
            out.push(Transition::new((s + 1) % 3, 1.0, s as f64));
        });
        assert_eq!(m.n_states(), 3);
        let mut buf = Vec::new();
        m.transitions(2, 0, &mut buf);
        assert_eq!(buf[0].next, 0);
        assert_eq!(m.expected_reward(1, 0), 1.0);
        let dbg = format!("{m:?}");
        assert!(dbg.contains("FnMdp"));
    }

    #[test]
    fn reference_impl_forwards() {
        let m = toggle();
        let r = &m;
        assert_eq!(FiniteMdp::n_states(&r), 2);
        assert_eq!(r.expected_reward(0, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty transition row")]
    fn sampling_empty_row_panics() {
        let m = FnMdp::new(1, 1, |_s, _a, _out| {});
        let mut rng = StdRng::seed_from_u64(0);
        let _ = m.sample(0, 0, &mut rng);
    }
}
