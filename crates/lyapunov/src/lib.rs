//! # lyapunov — Lyapunov optimization framework
//!
//! Generic drift-plus-penalty control used by the paper's stage 2
//! ("delay-aware content service", Eqs. 4–5 of *AoI-Aware Markov Decision
//! Policies for Caching*, ICDCS 2022): minimize a time-average penalty
//! subject to queue stability by solving, each slot,
//!
//! ```text
//! α*[t] = argmin_α  V · C(α[t]) − Q[t] · b(α[t])
//! ```
//!
//! * [`Queue`] / [`VirtualQueue`] — the `max(Q − b, 0) + a` backlog dynamics
//!   and the `max(Z + y, 0)` constraint dynamics,
//! * [`DriftPlusPenalty`] — the argmin decision rule (single- and
//!   multi-queue forms),
//! * [`analysis`] — rate-stability verdicts and `O(1/V)`/`O(V)` tradeoff
//!   signature checks.
//!
//! Drivers keep their own time averages; `aoi_cache::RsuServiceEngine` is
//! the per-RSU core that binds a [`Queue`] to a service policy.
//!
//! ## Example
//!
//! ```
//! use lyapunov::{DecisionOption, DriftPlusPenalty, Queue};
//!
//! // An RSU that can idle (free) or serve two requests at unit cost.
//! let options = [DecisionOption::new(0.0, 0.0), DecisionOption::new(1.0, 2.0)];
//! let dpp = DriftPlusPenalty::new(25.0)?;
//! let mut queue = Queue::new();
//! let mut cost = 0.0;
//! for _ in 0..1_000 {
//!     let chosen = options[dpp.decide(queue.backlog(), &options)?];
//!     queue.step(1.0, chosen.service); // one request arrives per slot
//!     cost += chosen.cost;
//! }
//! assert!(queue.backlog() / 1_000.0 < 0.05); // stable
//! assert!(cost / 1_000.0 < 1.0);             // cheaper than always-on
//! # Ok::<(), lyapunov::LyapunovError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod dpp;
mod error;
mod queue;

pub use analysis::{StabilityVerdict, TradeoffPoint};
pub use dpp::{DecisionOption, DriftPlusPenalty, WeightedOption};
pub use error::LyapunovError;
pub use queue::{Queue, VirtualQueue};
