//! # aoi-cache — AoI-aware Markov decision policies for caching
//!
//! Reproduction of *AoI-Aware Markov Decision Policies for Caching*
//! (S. Park, S. Jung, M. Choi, J. Kim — ICDCS 2022, arXiv:2204.13850): a
//! two-stage scheme for cache-assisted connected vehicles.
//!
//! * **Stage 1 — cache management (MDP).** The macro base station decides
//!   each slot which content of each road-side unit to refresh, maximizing
//!   `U(t) = w · Σ (A^max/A)·p − Σ C` (Eqs. 1–3). The per-RSU problem is the
//!   exact finite MDP [`RsuCacheMdp`]; [`CachePolicyKind`] offers the solved
//!   policy (value/policy iteration, Q-learning) plus myopic/index/
//!   threshold/periodic/random/never baselines.
//! * **Stage 2 — content service (Lyapunov).** Each RSU drains its request
//!   queue with the drift-plus-penalty rule
//!   `α* = argmin V·C(α) − Q[t]·b(α)` (Eq. 5); [`ServicePolicyKind`] offers
//!   the rule plus latency-greedy / cost-greedy / duty-cycle baselines.
//!
//! Three simulators regenerate the paper's evaluation:
//! [`CacheSimulation`] (Fig. 1a), [`run_service`]/[`compare_service`]
//! (Fig. 1b) and [`run_joint`] (both stages on the `vanet` substrate).
//! The paper's *ensemble* figures — curves averaged over many seeded
//! runs and compared across policy menus — come from the
//! [`experiment`] engine: an [`ExperimentPlan`] grid over scenarios ×
//! policies × seed replicates whose cells run concurrently on the shared
//! executor and aggregate into mean/CI summary curves. With
//! [`ExperimentPlan::artifact_dir`] a grid **persists its artifacts**:
//! cells spill their traces to disk as they run (no full trace stays
//! resident, even in [`RecordingMode::Full`]) and each group's ensemble
//! curve lands in its own [`simkit::persist`] file, re-readable
//! bit-identically.
//!
//! ## Quickstart
//!
//! ```
//! use aoi_cache::{CacheScenario, CacheSimulation, CachePolicyKind};
//!
//! // A small instance of the paper's Fig. 1a experiment.
//! let scenario = CacheScenario {
//!     n_rsus: 2,
//!     regions_per_rsu: 3,
//!     age_cap: 6,
//!     max_age_min: 3,
//!     max_age_max: 5,
//!     horizon: 200,
//!     ..CacheScenario::default()
//! };
//! let sim = CacheSimulation::new(scenario)?;
//! let report = sim.run(CachePolicyKind::ValueIteration { gamma: 0.9 })?;
//! assert!(report.final_cumulative_reward() > 0.0);
//! println!(
//!     "{}: violation rate {:.3}, {:.2} updates/slot",
//!     report.policy,
//!     report.violation_rate(),
//!     report.updates_per_slot()
//! );
//! # Ok::<(), aoi_cache::AoiCacheError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aoi;
mod cache_sim;
mod catalog;
mod engine;
mod error;
pub mod experiment;
mod freshness_service;
mod joint_sim;
mod mdp_model;
mod policy;
pub mod presets;
mod reward;
mod service;
mod service_sim;

pub use aoi::{Age, AgeVector};
pub use cache_sim::{CacheRunReport, CacheScenario, CacheSimulation};
pub use catalog::{Catalog, ContentSpec};
pub use engine::{RsuCacheEngine, RsuServiceEngine};
pub use error::AoiCacheError;
pub use experiment::{
    headline_channel_for, parse_cell_coords, write_service_artifact_with, CellId, CellOutcome,
    CellReport, EnsembleFold, EnsembleSummary, ExperimentGrid, ExperimentPlan, ExperimentReport,
    ResumeReport, DEFAULT_LEASE_TTL_MS, DEFAULT_MAX_ATTEMPTS,
};
pub use freshness_service::{
    run_freshness_service, FreshnessReport, FreshnessScenario, ServingSource, SourcingMode,
};
pub use joint_sim::{
    run_joint, run_joint_artifact_with, run_joint_recorded, JointReport, JointScenario,
};
pub use mdp_model::{PopularityModel, RsuCacheMdp};
pub use policy::{
    AgeThresholdPolicy, CacheDecisionContext, CachePolicyKind, CacheUpdatePolicy, CompiledRsuMdp,
    IndexPolicy, MyopicPolicy, NeverPolicy, PeriodicPolicy, RandomPolicy, RsuSpec, SolvedMdpPolicy,
};
pub use reward::RewardModel;
pub use service::{
    AlwaysServePolicy, CostGreedyPolicy, LyapunovServicePolicy, PeriodicServePolicy,
    ServiceDecisionContext, ServiceLevel, ServicePolicy, ServicePolicyKind,
};
pub use service_sim::{
    compare_service, run_service, run_service_with, ServiceRunReport, ServiceScenario,
};
// Trace-retention and artifact vocabulary, re-exported so simulator
// callers need not depend on simkit directly.
pub use simkit::persist;
pub use simkit::persist::Compression;
pub use simkit::{RecordingMode, Summary, TraceRecorder, TraceSink};
