//! # mdp — finite Markov decision process toolkit
//!
//! Tabular MDP models and solvers used by the AoI-caching reproduction:
//! the paper's cache-management stage ("AoI-Aware Markov Decision Policies
//! for Caching", ICDCS 2022) formulates content refreshing at road-side
//! units as a finite MDP; this crate provides the machinery to define and
//! solve such MDPs exactly (value/policy iteration, backward induction) or
//! approximately (Q-learning, SARSA).
//!
//! Conventions:
//!
//! * states are `0..n_states`, actions `0..n_actions`,
//! * **rewards are maximized**,
//! * transition rows are explicit probability distributions,
//! * empty rows mark invalid `(state, action)` pairs.
//!
//! ## Compile-then-solve
//!
//! Models describe their dynamics through the [`FiniteMdp::transitions`]
//! callback, but the sweep-based solvers never iterate against that
//! callback: every `solve` entry point first compiles the model into a
//! [`CompiledMdp`] — flat compressed-sparse-row transition arrays with
//! precomputed per-row expected rewards and a validity bitmap — and then
//! runs its fixed point on the flat arrays with zero heap allocation per
//! sweep. Every such solver runs one blocked Jacobi sweep loop: with the
//! `parallel` feature (default) it fans the Bellman backups out across a
//! pool of scoped worker threads once the model is large enough, and
//! inside [`simkit::executor::serialized`] it stays on the calling thread
//! (no solver has a switch of its own). Sweeps are Jacobi-style, so serial
//! and parallel runs return bit-for-bit identical values and policies.
//!
//! Solving the same model repeatedly (different discounts, horizons or
//! solver families) should compile once and call the `solve_compiled`
//! methods:
//!
//! ```
//! use mdp::{reference, CompiledMdp};
//! use mdp::solver::{BackwardInduction, ValueIteration};
//!
//! let (model, gamma) = reference::two_state();
//! let kernel = CompiledMdp::compile(&model)?;
//! let infinite = ValueIteration::new(gamma).solve_compiled(&kernel)?;
//! let finite = BackwardInduction::new(50).solve_compiled(&kernel)?;
//! assert_eq!(infinite.policy.action(0), finite.first_policy().action(0));
//! # Ok::<(), mdp::MdpError>(())
//! ```
//!
//! The original trait-callback implementations remain available as
//! `solve_callback` reference paths for differential tests and benchmarks.
//!
//! ## Example
//!
//! ```
//! use mdp::{TabularMdp, FiniteMdp};
//! use mdp::solver::ValueIteration;
//!
//! // Two-state "charge/discharge" toy: action 1 in state 0 invests
//! // (no reward, move to state 1); state 1 pays 1 forever.
//! let mdp = TabularMdp::builder(2, 2)
//!     .transition(0, 0, 0, 1.0, 0.0)
//!     .transition(0, 1, 1, 1.0, 0.0)
//!     .transition(1, 0, 1, 1.0, 1.0)
//!     .transition(1, 1, 1, 1.0, 1.0)
//!     .build()?;
//!
//! let outcome = ValueIteration::new(0.9).solve(&mdp)?;
//! assert!(outcome.converged);
//! assert_eq!(outcome.policy.action(0), 1);
//! # Ok::<(), mdp::MdpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod error;
mod model;
mod policy;
pub mod reference;
mod rollout;
pub mod solver;
mod space;

pub use compiled::CompiledMdp;
pub use error::MdpError;
pub use model::{FiniteMdp, FnMdp, TabularMdp, TabularMdpBuilder, Transition};
pub use policy::{EpsilonGreedy, Policy, QTable, TabularPolicy, UniformRandomPolicy};
pub use rollout::{Rollout, RolloutResult, Step};
pub use space::{ProductSpace, ProductSpaceIter};
