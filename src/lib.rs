//! # aoi-mdp-caching
//!
//! Umbrella crate of the reproduction of *AoI-Aware Markov Decision
//! Policies for Caching* (Park, Jung, Choi, Kim — ICDCS 2022,
//! arXiv:2204.13850): a two-stage scheme for providing fresh road contents
//! to connected vehicles,
//!
//! 1. **AoI-aware cache management** — a per-RSU Markov decision process
//!    decides which cached content the macro base station refreshes each
//!    slot (paper Eqs. 1–3), and
//! 2. **delay-aware content service** — Lyapunov drift-plus-penalty control
//!    decides when each road-side unit serves its queued vehicle requests
//!    (paper Eqs. 4–5).
//!
//! This crate re-exports the workspace's five libraries:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `aoi-cache` | the paper's algorithms, policies and simulators |
//! | [`mdp`] | `mdp` | finite-MDP models, the compiled solver kernel, and solvers |
//! | [`lyapunov`] | `lyapunov` | queues and drift-plus-penalty control |
//! | [`vanet`] | `vanet` | the synthetic connected-vehicle substrate |
//! | [`simkit`] | `simkit` | RNG streams, time series, stats, plots |
//!
//! ## Solving fast: compile-then-solve
//!
//! Every sweep-based MDP solver compiles its model into a
//! [`mdp::CompiledMdp`] (flat row arrays — action-major dense planes for
//! unit-mass deterministic models, CSR rows otherwise — and a validity
//! bitmap) and iterates on the flat arrays with zero heap
//! allocation per sweep; under the default `parallel` feature the per-state
//! Bellman backup fans out across worker threads with bit-for-bit identical
//! results. The simulators compile each RSU's MDP exactly once
//! ([`core::CompiledRsuMdp`]) and share the kernel across every policy
//! kind, horizon step and run.
//!
//! ## Scaling out: one executor, one experiment engine
//!
//! All parallelism funnels through [`simkit::executor`] — a persistent
//! barrier-synchronized round pool (one pool per sweep loop, shared by
//! every value-iteration sweep and backward-induction stage of a solve)
//! plus an ordered `parallel_map` for coarse jobs. The paper's ensemble figures come from
//! [`core::ExperimentPlan`]: declarative grids over scenarios × policy
//! menus × seed replicates whose cells run concurrently, share compiled
//! per-RSU kernels per `(scenario, seed)`, and aggregate into mean/95%-CI
//! [`simkit::CurveSummary`] bands. Grid reports are bit-identical for any
//! worker count — parallelism changes wall-clock time, never output.
//!
//! ## Offline dependency stand-ins
//!
//! The build environment has no crates.io access; `serde`, `rand`,
//! `proptest` and `criterion` are provided as
//! API-compatible local implementations under `crates/compat/`, declared in
//! one place (`[workspace.dependencies]`) so each can be swapped for its
//! real release by editing a single line.
//!
//! ## Quickstart
//!
//! ```
//! use aoi_mdp_caching::prelude::*;
//!
//! // Stage 1: a small Fig. 1a-style cache-management run.
//! let scenario = CacheScenario {
//!     n_rsus: 2,
//!     regions_per_rsu: 3,
//!     age_cap: 6,
//!     max_age_min: 3,
//!     max_age_max: 5,
//!     horizon: 200,
//!     ..CacheScenario::default()
//! };
//! let report = CacheSimulation::new(scenario)?
//!     .run(CachePolicyKind::ValueIteration { gamma: 0.9 })?;
//! assert!(report.final_cumulative_reward() > 0.0);
//!
//! // Stage 2: the Fig. 1b service-control comparison.
//! let reports = compare_service(&fig1b_scenario(), &fig1b_policies())?;
//! assert_eq!(reports.len(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `aoi-bench` crate for the binaries regenerating every figure of the
//! paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aoi_cache as core;
pub use lyapunov;
pub use mdp;
pub use simkit;
pub use vanet;

/// Convenient glob-import surface: the types used by virtually every
/// experiment.
pub mod prelude {
    pub use aoi_cache::persist::{read_artifact, Artifact, ArtifactWriter, Manifest};
    pub use aoi_cache::presets::{
        fig1a_ensemble, fig1a_policy, fig1a_scenario, fig1b_ensemble, fig1b_policies,
        fig1b_scenario, joint_scenario, smoke_grid,
    };
    pub use aoi_cache::{
        compare_service, run_joint, run_joint_artifact_with, run_service, Age, AgeVector,
        AoiCacheError, CachePolicyKind, CacheRunReport, CacheScenario, CacheSimulation,
        CacheUpdatePolicy, Catalog, CellOutcome, CellReport, CompiledRsuMdp, EnsembleSummary,
        ExperimentGrid, ExperimentPlan, ExperimentReport, JointReport, JointScenario,
        PopularityModel, RewardModel, RsuCacheMdp, RsuSpec, ServiceLevel, ServicePolicy,
        ServicePolicyKind, ServiceRunReport, ServiceScenario,
    };
    pub use lyapunov::{DecisionOption, DriftPlusPenalty, Queue, ServiceController};
    pub use mdp::solver::{PolicyIteration, QLearning, ValueIteration};
    pub use mdp::{CompiledMdp, FiniteMdp, Policy, TabularMdp};
    pub use simkit::{RecordingMode, SeedSequence, TimeSeries, TimeSlot};
    pub use vanet::{Network, NetworkConfig, Road, RsuLayout, Zipf};
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        let _ = crate::core::CacheScenario::default();
        let _ = crate::prelude::fig1a_scenario();
    }
}
