//! The multi-run experiment engine: grids over scenarios × policies × seed
//! replicates, executed in parallel on the shared executor.
//!
//! The paper's headline figures are *ensembles* — cumulative-reward and
//! AoI/backlog curves averaged over many seeded runs and compared across a
//! policy menu. An [`ExperimentPlan`] expresses such a grid declaratively;
//! [`ExperimentPlan::run`] expands it into cells (one `(scenario, seed,
//! policy)` triple each), runs the cells concurrently on
//! [`simkit::executor`], and aggregates each `(scenario, policy)` group's
//! replicate curves into mean/95%-CI [`CurveSummary`] bands. Each group
//! folds through one [`EnsembleFold`], which also writes the group's
//! ensemble artifact; `aoi-artifacts merge` rebuilds ensembles through the
//! same fold, so the engine and merge share one writer.
//!
//! Three properties make the engine safe to scale:
//!
//! * **Work sharing** — cells of the same `(scenario, seed)` share one
//!   [`CacheSimulation`], so each RSU's exact MDP is enumerated and
//!   compiled once per simulation instance no matter how many policy kinds
//!   run against it (and those per-RSU compiles themselves fan out across
//!   the executor).
//! * **Determinism** — every cell derives all randomness from its own
//!   scenario seed, so a grid run is bit-for-bit identical to running each
//!   cell alone, for *any* worker count (including a single worker on the
//!   calling thread).
//! * **Single-run compatibility** — the single-run APIs
//!   ([`CacheSimulation::run`], [`run_service`], [`crate::run_joint`]) are
//!   exactly
//!   the cell bodies the engine calls, so a one-cell plan and a direct call
//!   produce equal reports.
//!
//! ```
//! use aoi_cache::{CachePolicyKind, CacheScenario, ExperimentGrid, ExperimentPlan};
//!
//! let scenario = CacheScenario {
//!     n_rsus: 2,
//!     regions_per_rsu: 2,
//!     age_cap: 5,
//!     max_age_min: 3,
//!     max_age_max: 4,
//!     horizon: 60,
//!     ..CacheScenario::default()
//! };
//! let plan = ExperimentPlan::cache(
//!     vec![scenario],
//!     vec![CachePolicyKind::Myopic, CachePolicyKind::Never],
//! )
//! .replicate_seeds(vec![1, 2, 3]);
//! let report = plan.run()?;
//! assert_eq!(report.cells.len(), 6); // 1 scenario × 3 seeds × 2 policies
//! assert_eq!(report.ensembles.len(), 2); // one summary curve per policy
//! # Ok::<(), aoi_cache::AoiCacheError>(())
//! ```

use crate::cache_sim::{CacheRunReport, CacheScenario, CacheSimulation};
use crate::joint_sim::{run_joint_artifact_with, run_joint_recorded, JointReport, JointScenario};
use crate::policy::CachePolicyKind;
use crate::service::ServicePolicyKind;
use crate::service_sim::{run_service, ServiceRunReport, ServiceScenario};
use crate::AoiCacheError;
use serde::{Deserialize, Serialize};
use simkit::executor;
use simkit::lease;
use simkit::persist::{self, ArtifactKind, ArtifactWriter, Compression, Manifest, WriteOutcome};
use simkit::supervise;
use simkit::{CurveAccumulator, CurveSummary, RecordingMode, TimeSeries};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The policy/scenario axes of an experiment grid.
///
/// Joint scenarios embed their policy pair, so the joint grid has no
/// separate policy axis (each scenario is its own policy cell).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExperimentGrid {
    /// Stage-1 cache management: scenarios × cache-policy menu.
    Cache {
        /// Base scenarios (their `seed` field is replaced by replicates).
        scenarios: Vec<CacheScenario>,
        /// The policy menu every scenario runs under.
        policies: Vec<CachePolicyKind>,
    },
    /// Stage-2 content service: scenarios × service-policy menu.
    Service {
        /// Base scenarios (their `seed` field is replaced by replicates).
        scenarios: Vec<ServiceScenario>,
        /// The policy menu every scenario runs under.
        policies: Vec<ServicePolicyKind>,
    },
    /// The full two-stage scheme on the vehicular substrate.
    Joint {
        /// Base scenarios, each carrying its own policy pair.
        scenarios: Vec<JointScenario>,
    },
}

impl ExperimentGrid {
    fn n_scenarios(&self) -> usize {
        match self {
            ExperimentGrid::Cache { scenarios, .. } => scenarios.len(),
            ExperimentGrid::Service { scenarios, .. } => scenarios.len(),
            ExperimentGrid::Joint { scenarios } => scenarios.len(),
        }
    }

    fn n_policies(&self) -> usize {
        match self {
            ExperimentGrid::Cache { policies, .. } => policies.len(),
            ExperimentGrid::Service { policies, .. } => policies.len(),
            ExperimentGrid::Joint { .. } => 1,
        }
    }

    fn base_seed(&self, scenario: usize) -> u64 {
        match self {
            ExperimentGrid::Cache { scenarios, .. } => scenarios[scenario].seed,
            ExperimentGrid::Service { scenarios, .. } => scenarios[scenario].seed,
            ExperimentGrid::Joint { scenarios } => scenarios[scenario].seed,
        }
    }

    fn policy_label(&self, scenario: usize, policy: usize) -> String {
        match self {
            ExperimentGrid::Cache { policies, .. } => policies[policy].label().to_string(),
            ExperimentGrid::Service { policies, .. } => policies[policy].label().to_string(),
            ExperimentGrid::Joint { scenarios } => format!(
                "{}+{}",
                scenarios[scenario].cache_policy.label(),
                scenarios[scenario].service_policy.label()
            ),
        }
    }
}

/// A declarative multi-run experiment: a grid plus seed replicates and an
/// optional worker-count override.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPlan {
    /// The scenario × policy axes.
    pub grid: ExperimentGrid,
    /// Seed replicates substituted into every scenario's `seed` field.
    /// Empty means "one replicate per scenario, using its embedded seed".
    pub seeds: Vec<u64>,
    /// Worker-count override for the cell fan-out (`None` sizes
    /// automatically from the host; results are identical either way).
    pub workers: Option<usize>,
    /// Per-cell trace retention (AoI traces of cache cells, backlog traces
    /// of joint cells). Scalar statistics and every headline/ensemble curve
    /// are identical in all modes; [`RecordingMode::SummaryOnly`] shrinks
    /// each cell report from `O(horizon × contents)` to `O(horizon)`.
    pub recording: RecordingMode,
    /// When set, the grid **persists its run artifacts** into this
    /// directory: every cell spills its retained traces to
    /// `cell-s<scenario>-r<replicate>-p<policy>.trace.jsonl` as they are
    /// produced (so even [`RecordingMode::Full`] cells retain no trace in
    /// memory), and each `(scenario, policy)` group writes its mean/CI
    /// curve to `ensemble-s<scenario>-p<policy>.jsonl`. Every statistic
    /// and ensemble curve is identical with or without artifacts; re-read
    /// artifacts reconstruct the spilled traces bit-identically (see
    /// [`simkit::persist`]).
    ///
    /// Artifacts appear under their final names only when complete: every
    /// writer streams to a writer-unique `*.tmp-<pid>-<seq>` file and renames
    /// it into place on finish, so an interrupted run never leaves a
    /// half-written file where the resume pass (or another worker) would
    /// find it.
    pub artifacts: Option<PathBuf>,
    /// The encoding artifacts are written under. With
    /// [`Compression::Deflate`] every artifact streams through the codec
    /// of [`simkit::persist::compress`] and file names gain a `.z` suffix;
    /// results and re-read bit-identity are unaffected.
    pub compression: Compression,
    /// When `true` (and [`artifacts`](ExperimentPlan::artifacts) is set),
    /// [`run_ensembles`](ExperimentPlan::run_ensembles) **resumes** a
    /// previous run of the same plan from its artifact directory: any cell
    /// whose artifact already exists and verifies — intact footer,
    /// matching config hash and seed — is *skipped*, its headline curve
    /// re-read from disk instead of recomputed; every other cell
    /// (missing, truncated, corrupt, foreign or stale artifact) is re-run
    /// and its artifact rewritten. Because re-read curves are bit-identical
    /// to computed ones, the final ensembles are bit-identical whether the
    /// grid ran cold, warm, or half-interrupted. Ensemble artifacts are
    /// written only when their bytes would change ([`EnsembleFold::write`]),
    /// so a fully warm resume rewrites no file at all.
    pub resume: bool,
    /// When `true` (requires [`resume`](ExperimentPlan::resume) and an
    /// artifact directory), the run becomes one **worker of a distributed
    /// campaign**: before recomputing a cell it claims the cell's lease
    /// file ([`simkit::lease`]) and skips cells whose lease another live
    /// worker holds, so K independent processes sharing one directory
    /// partition the grid with no coordinator. A crashed worker's leases
    /// expire after [`lease_ttl_ms`](ExperimentPlan::lease_ttl_ms) and its
    /// cells are taken over. Leasing is the only part of the grid engine
    /// that claim mode switches on: each wave folds from the curves this
    /// worker computed plus those it verified on disk after another worker
    /// landed them, so the final ensembles are bit-identical to a cold
    /// single-process run.
    pub claim: bool,
    /// Owner id this worker claims leases under. `None` derives a
    /// process-unique id (`w<pid>-<hex wall-clock>`); set it explicitly to
    /// make crash-safety tests and logs deterministic.
    pub worker_id: Option<String>,
    /// Lease time-to-live in milliseconds for claim mode. A worker
    /// heartbeats each held lease every `lease_ttl_ms / 3`
    /// ([`simkit::lease::heartbeat_interval`]), so a lease
    /// only expires when its worker has been dead (or stalled) for a full
    /// TTL. Lower values recover crashed cells faster; higher values
    /// tolerate longer stalls without duplicated work.
    pub lease_ttl_ms: u64,
    /// Claim mode only: how many times a failing cell (a returned error
    /// *or* a panic — every cell runs under
    /// [`executor::parallel_map_supervised`] panic isolation) is attempted
    /// before the worker gives up and **quarantines** it. A quarantined
    /// cell leaves a `cell-s<scenario>-r<replicate>-p<policy>.quarantine.jsonl`
    /// diagnostic marker ([`simkit::supervise::Quarantine`]) beside its
    /// missing artifact, is excluded from the rest of this worker's
    /// campaign, and the final ensembles fold over the surviving cells —
    /// the gap is accounted in [`ResumeReport::quarantined`] and
    /// [`EnsembleSummary::quarantined`], never papered over. Retries wait
    /// on the worker's deterministic jittered backoff schedule
    /// ([`simkit::supervise::Backoff`]). Must be at least 1 in claim
    /// mode. Outside claim mode the knob is inert: a run returns the first
    /// cell error, or re-raises a cell's panic, with no retry.
    pub max_attempts: u32,
}

/// Default claim-mode lease TTL (30 s — generous against slow cells, yet
/// quick enough that a crashed worker's cells are recovered promptly).
pub const DEFAULT_LEASE_TTL_MS: u64 = 30_000;

/// Default claim-mode retry budget per failing cell (see
/// [`ExperimentPlan::max_attempts`]).
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

impl ExperimentPlan {
    /// A stage-1 cache-management grid.
    pub fn cache(scenarios: Vec<CacheScenario>, policies: Vec<CachePolicyKind>) -> Self {
        Self::over(ExperimentGrid::Cache {
            scenarios,
            policies,
        })
    }

    /// A stage-2 content-service grid.
    pub fn service(scenarios: Vec<ServiceScenario>, policies: Vec<ServicePolicyKind>) -> Self {
        Self::over(ExperimentGrid::Service {
            scenarios,
            policies,
        })
    }

    /// A joint two-stage grid (each scenario embeds its policy pair).
    pub fn joint(scenarios: Vec<JointScenario>) -> Self {
        Self::over(ExperimentGrid::Joint { scenarios })
    }

    /// A plan over `grid` with every other setting at its default.
    fn over(grid: ExperimentGrid) -> Self {
        ExperimentPlan {
            grid,
            seeds: Vec::new(),
            workers: None,
            recording: RecordingMode::Full,
            artifacts: None,
            compression: Compression::None,
            resume: false,
            claim: false,
            worker_id: None,
            lease_ttl_ms: DEFAULT_LEASE_TTL_MS,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        }
    }

    /// Replaces the seed replicates (each scenario runs once per seed).
    #[must_use]
    pub fn replicate_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the per-cell trace retention policy. Reports, scalar statistics
    /// and ensemble curves are identical in every mode; only the per-cell
    /// trace bulk ([`CacheRunReport::aoi_traces`], [`JointReport::queues`])
    /// changes. Large grids should run [`RecordingMode::SummaryOnly`] so a
    /// cell costs `O(horizon)`, not `O(horizon × contents)`.
    #[must_use]
    pub fn recording(mut self, recording: RecordingMode) -> Self {
        self.recording = recording;
        self
    }

    /// Persists run artifacts into `dir` (created on demand): per-cell
    /// trace artifacts, written **as the cells run** so no full trace is
    /// ever resident, plus one ensemble artifact per `(scenario, policy)`
    /// group. See [`artifacts`](ExperimentPlan::artifacts) for the layout.
    #[must_use]
    pub fn artifact_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifacts = Some(dir.into());
        self
    }

    /// Sets the artifact encoding (see
    /// [`compression`](ExperimentPlan::compression)). A `Full`-mode figure
    /// grid typically shrinks 3–6× under [`Compression::Deflate`]; every
    /// result and re-read series is identical under either encoding.
    #[must_use]
    pub fn compress(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Enables resuming from an existing artifact directory (see
    /// [`resume`](ExperimentPlan::resume)). Honored by
    /// [`run_ensembles`](ExperimentPlan::run_ensembles) /
    /// [`run_ensembles_resumable`](ExperimentPlan::run_ensembles_resumable);
    /// the batch engine ([`run`](ExperimentPlan::run)) rejects it, because
    /// its full per-cell reports cannot be reconstructed from artifacts.
    /// Ensemble artifacts whose bytes would not change are left in place,
    /// with or without this flag ([`EnsembleFold::write`]); the
    /// [`ResumeReport`] counts them.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Enables claim mode (see [`claim`](ExperimentPlan::claim)): this run
    /// becomes one worker of a multi-process campaign, claiming cells via
    /// lease files before recomputing them. Requires
    /// [`resume`](ExperimentPlan::resume) and an artifact directory.
    #[must_use]
    pub fn claim(mut self, claim: bool) -> Self {
        self.claim = claim;
        self
    }

    /// Sets the owner id this worker claims leases under (see
    /// [`worker_id`](ExperimentPlan::worker_id)).
    #[must_use]
    pub fn worker_id(mut self, id: impl Into<String>) -> Self {
        self.worker_id = Some(id.into());
        self
    }

    /// Sets the claim-mode lease TTL (see
    /// [`lease_ttl_ms`](ExperimentPlan::lease_ttl_ms)).
    #[must_use]
    pub fn lease_ttl_ms(mut self, ttl_ms: u64) -> Self {
        self.lease_ttl_ms = ttl_ms;
        self
    }

    /// Sets the claim-mode retry budget per failing cell (see
    /// [`max_attempts`](ExperimentPlan::max_attempts)).
    #[must_use]
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Overrides the horizon of **every** scenario in the grid — the knob
    /// CI smokes and quick local runs use to shrink a preset plan without
    /// redefining it.
    #[must_use]
    pub fn horizon(mut self, horizon: usize) -> Self {
        match &mut self.grid {
            ExperimentGrid::Cache { scenarios, .. } => {
                for s in scenarios {
                    s.horizon = horizon;
                }
            }
            ExperimentGrid::Service { scenarios, .. } => {
                for s in scenarios {
                    s.horizon = horizon;
                }
            }
            ExperimentGrid::Joint { scenarios } => {
                for s in scenarios {
                    s.horizon = horizon;
                }
            }
        }
        self
    }

    /// The artifact file of one cell under `dir` (plain encoding).
    pub fn cell_artifact_path(dir: &Path, id: CellId) -> PathBuf {
        Self::cell_artifact_path_with(dir, id, Compression::None)
    }

    /// The artifact file of one cell under `dir`, with the encoding's
    /// conventional suffix (`.z` under [`Compression::Deflate`]).
    pub fn cell_artifact_path_with(dir: &Path, id: CellId, compression: Compression) -> PathBuf {
        compression.apply_to(&dir.join(format!(
            "cell-s{}-r{}-p{}.trace.jsonl",
            id.scenario, id.replicate, id.policy
        )))
    }

    /// Parses a cell artifact's file name, as
    /// [`cell_artifact_path_with`](ExperimentPlan::cell_artifact_path_with)
    /// writes it in either encoding, into the cell's `(scenario,
    /// replicate, policy)` indices and the file's encoding. `None` for any
    /// other name.
    pub fn parse_cell_artifact_name(name: &str) -> Option<((usize, usize, usize), Compression)> {
        let (name, compression) = match name.strip_suffix(Compression::Deflate.suffix()) {
            Some(plain) => (plain, Compression::Deflate),
            None => (name, Compression::None),
        };
        let coords = name.strip_prefix("cell-")?.strip_suffix(".trace.jsonl")?;
        Some((parse_cell_coords(coords)?, compression))
    }

    /// The lease file a claim-mode worker writes beside the artifact of
    /// cell `id` while computing it (see [`simkit::lease`]). The name is
    /// compression-independent: workers agree on the claim regardless of
    /// their artifact encoding.
    pub fn cell_lease_path(dir: &Path, id: CellId) -> PathBuf {
        dir.join(format!(
            "cell-s{}-r{}-p{}.lease",
            id.scenario, id.replicate, id.policy
        ))
    }

    /// The quarantine marker a claim-mode worker writes beside the
    /// artifact of a cell that exhausted its retry budget (see
    /// [`max_attempts`](ExperimentPlan::max_attempts)). Like the lease
    /// path, the name is compression-independent.
    pub fn cell_quarantine_path(dir: &Path, id: CellId) -> PathBuf {
        dir.join(format!("cell-{}.quarantine.jsonl", id.coords()))
    }

    /// The artifact file of one `(scenario, policy)` ensemble under `dir`
    /// (plain encoding).
    pub fn ensemble_artifact_path(dir: &Path, scenario: usize, policy: usize) -> PathBuf {
        Self::ensemble_artifact_path_with(dir, scenario, policy, Compression::None)
    }

    /// The artifact file of one `(scenario, policy)` ensemble under `dir`,
    /// with the encoding's conventional suffix.
    pub fn ensemble_artifact_path_with(
        dir: &Path,
        scenario: usize,
        policy: usize,
        compression: Compression,
    ) -> PathBuf {
        compression.apply_to(&dir.join(format!("ensemble-s{scenario}-p{policy}.jsonl")))
    }

    /// Forces the cell fan-out to exactly `workers` workers. `1` means
    /// **fully serial**: the whole run — nested per-RSU compiles, solves
    /// and sweep pools included — stays on the calling thread. Reports are
    /// bit-for-bit identical for every choice; this only pins scheduling
    /// (tests use it to prove exactly that).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Number of seed replicates per scenario (at least 1).
    pub fn n_replicates(&self) -> usize {
        self.seeds.len().max(1)
    }

    /// Total number of cells the plan expands to.
    pub fn n_cells(&self) -> usize {
        self.grid.n_scenarios() * self.n_replicates() * self.grid.n_policies()
    }

    /// The seed of replicate `rep` of `scenario`.
    fn seed_of(&self, scenario: usize, rep: usize) -> u64 {
        if self.seeds.is_empty() {
            self.grid.base_seed(scenario)
        } else {
            self.seeds[rep]
        }
    }

    /// Expands the grid into cell identities, in report order (scenario ▸
    /// seed replicate ▸ policy).
    pub fn cell_ids(&self) -> Vec<CellId> {
        let mut ids = Vec::with_capacity(self.n_cells());
        for scenario in 0..self.grid.n_scenarios() {
            for rep in 0..self.n_replicates() {
                for policy in 0..self.grid.n_policies() {
                    ids.push(CellId {
                        scenario,
                        replicate: rep,
                        seed: self.seed_of(scenario, rep),
                        policy,
                    });
                }
            }
        }
        ids
    }

    fn validate(&self) -> Result<(), AoiCacheError> {
        if self.grid.n_scenarios() == 0 {
            return Err(AoiCacheError::BadParameter {
                what: "scenarios",
                valid: "non-empty",
            });
        }
        // Joint grids have no policy axis (one policy cell per scenario).
        if self.grid.n_policies() == 0 {
            return Err(AoiCacheError::BadParameter {
                what: "policies",
                valid: "non-empty",
            });
        }
        if self.claim && !(self.resume && self.artifacts.is_some()) {
            return Err(AoiCacheError::BadParameter {
                what: "claim",
                valid: "a plan with resume and an artifact directory",
            });
        }
        if self.claim && self.lease_ttl_ms == 0 {
            return Err(AoiCacheError::BadParameter {
                what: "lease_ttl_ms",
                valid: "a positive lease time-to-live",
            });
        }
        if self.claim && self.max_attempts == 0 {
            return Err(AoiCacheError::BadParameter {
                what: "max_attempts",
                valid: "a retry budget of at least 1",
            });
        }
        if let Some(dir) = &self.artifacts {
            std::fs::create_dir_all(dir)
                .map_err(|e| io_error("create artifact directory", dir, &e))?;
        }
        Ok(())
    }

    /// Runs every cell of the grid — concurrently on the shared executor
    /// unless pinned to one worker — and aggregates the replicate
    /// curves of each `(scenario, policy)` group.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadParameter`] for an empty grid or a plan
    /// with [`resume`](ExperimentPlan::resume) set (the batch engine
    /// materializes full per-cell reports, which artifacts do not carry —
    /// resume via [`run_ensembles`](ExperimentPlan::run_ensembles)), and
    /// propagates the first scenario/solver error any cell hits.
    pub fn run(&self) -> Result<ExperimentReport, AoiCacheError> {
        self.validate()?;
        if self.resume {
            return Err(AoiCacheError::BadParameter {
                what: "resume",
                valid: "the streamed engine (run_ensembles) with an artifact directory",
            });
        }
        if self.workers == Some(1) {
            // A 1-worker plan promises fully serial execution: suppress
            // the nested automatic fan-outs (per-RSU compiles/solves,
            // sweep pools) too, not just the cell loop.
            executor::serialized(|| self.run_cells())
        } else {
            self.run_cells()
        }
    }

    fn run_cells(&self) -> Result<ExperimentReport, AoiCacheError> {
        let ids = self.cell_ids();
        let results = self.run_cell_batch(&ids, None);
        let mut cells = Vec::with_capacity(ids.len());
        for (id, result) in ids.into_iter().zip(results) {
            cells.push(CellReport {
                label: self.grid.policy_label(id.scenario, id.policy),
                id,
                outcome: result.unwrap_or_else(|panic| reraise(panic))?,
            });
        }
        let ensembles = self.summarize(&cells)?;
        Ok(ExperimentReport { cells, ensembles })
    }

    /// Runs the grid **streamed**: one seed-replicate wave at a time, each
    /// cell's report dropped as soon as it is computed, and only its
    /// headline curve kept until the wave folds into its `(scenario,
    /// policy)` group's [`CurveAccumulator`]. The engine never holds more
    /// than one wave of reports (combine with [`RecordingMode::SummaryOnly`]
    /// to make each of those cells `O(horizon)`). Peak memory is
    /// `O(cells-per-wave × horizon + groups × horizon)` instead of
    /// [`run`](ExperimentPlan::run)'s whole-grid report.
    ///
    /// The returned ensembles are bit-identical to
    /// [`run`](ExperimentPlan::run)`()?.ensembles` for any worker count —
    /// waves only bound memory, never change results.
    ///
    /// With [`resume`](ExperimentPlan::resume) set, cells whose artifact
    /// already verifies are skipped (their headline curves load from
    /// disk); use
    /// [`run_ensembles_resumable`](ExperimentPlan::run_ensembles_resumable)
    /// to also learn which cells were skipped, recomputed or invalidated.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`run_ensembles_resumable`](ExperimentPlan::run_ensembles_resumable).
    pub fn run_ensembles(&self) -> Result<Vec<EnsembleSummary>, AoiCacheError> {
        Ok(self.run_ensembles_resumable()?.0)
    }

    /// [`run_ensembles`](ExperimentPlan::run_ensembles), also returning
    /// the [`ResumeReport`] describing what the [`resume`] flag did: which
    /// cells were skipped (artifact existed and verified), which were
    /// recomputed cold (no artifact), and which were invalidated (an
    /// artifact existed but failed verification — truncated, corrupt,
    /// foreign format or mismatched configuration — and was re-run).
    /// Without [`resume`] every cell is recomputed and the report lists
    /// all of them as such.
    ///
    /// Every invalidation re-runs the cell; a cell is **never** silently
    /// skipped on a bad artifact. The resumed ensembles are bit-identical
    /// to a cold run's.
    ///
    /// [`resume`]: ExperimentPlan::resume
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](ExperimentPlan::run), plus
    /// [`AoiCacheError::BadParameter`] when [`resume`] is set without an
    /// artifact directory.
    pub fn run_ensembles_resumable(
        &self,
    ) -> Result<(Vec<EnsembleSummary>, ResumeReport), AoiCacheError> {
        self.validate()?;
        if self.resume && self.artifacts.is_none() {
            return Err(AoiCacheError::BadParameter {
                what: "resume",
                valid: "a plan with an artifact directory (artifact_dir)",
            });
        }
        if self.workers == Some(1) {
            executor::serialized(|| self.run_waves())
        } else {
            self.run_waves()
        }
    }

    /// The grid engine: one seed-replicate wave at a time, each looping
    /// over passes until every cell is done or quarantined. A pass checks
    /// the pending cells' artifacts (under `resume`), acquires the rest,
    /// computes them as one batch, handles failures and backs off when it
    /// was blocked or a retry is pending. The wave then folds in cell-id
    /// order from its in-memory curves (computed, or verified on disk), so
    /// the ensembles are bit-identical to a cold run's however the cells
    /// were split across passes and workers. Leasing is the only optional
    /// part: [`Campaign`] exists only under
    /// [`claim`](ExperimentPlan::claim), and without it every pending cell
    /// is simply taken and the first failure aborts the run.
    fn run_waves(&self) -> Result<(Vec<EnsembleSummary>, ResumeReport), AoiCacheError> {
        let resume_dir = self.artifacts.as_deref().filter(|_| self.resume);
        let mut campaign = match resume_dir {
            Some(dir) if self.claim => Some(Campaign::open(self, dir)?),
            _ => None,
        };
        let mut report = ResumeReport::default();
        let mut groups = self.group_folds();
        let mut gaps = vec![0usize; groups.len()];
        let n_policies = self.grid.n_policies();
        let all_ids = self.cell_ids();
        for replicate in 0..self.n_replicates() {
            // A wave keeps cell-id order (scenario ▸ policy), so each
            // group's curves fold in ascending-replicate order.
            let mut wave: Vec<WaveCell> = all_ids
                .iter()
                .filter(|id| id.replicate == replicate)
                .map(|&id| WaveCell {
                    id,
                    curve: None,
                    quarantined: false,
                    attempts: 0,
                    saw_foreign_lease: false,
                })
                .collect();
            loop {
                let pending: Vec<usize> = (0..wave.len())
                    .filter(|&i| wave[i].curve.is_none() && !wave[i].quarantined)
                    .collect();
                if pending.is_empty() {
                    break;
                }
                // 1. Check: the verifications are independent reads, so
                //    they fan out on the executor like the cells do.
                let checks: Vec<CellResume> = match resume_dir {
                    Some(dir) => {
                        let ids: Vec<CellId> = pending.iter().map(|&i| wave[i].id).collect();
                        let workers = self
                            .workers
                            .unwrap_or_else(|| executor::worker_count(ids.len(), true, 1));
                        executor::parallel_map(workers, &ids, |_, id| {
                            self.check_cell_artifact(dir, *id)
                        })
                    }
                    None => pending.iter().map(|_| CellResume::Missing).collect(),
                };
                // 2. Acquire.
                let mut taken: Vec<usize> = Vec::with_capacity(pending.len());
                let mut guards = Vec::new();
                let (mut blocked, mut progress) = (false, false);
                for (&i, mut check) in pending.iter().zip(checks) {
                    let cell = &mut wave[i];
                    if let (Some(campaign), Some(dir)) = (campaign.as_mut(), resume_dir) {
                        if !matches!(check, CellResume::Valid(_)) {
                            let Some((guard, expired)) = campaign.acquire(cell.id)? else {
                                cell.saw_foreign_lease = true;
                                blocked = true;
                                continue;
                            };
                            // Re-check under the lease: a worker that landed
                            // the cell and released its lease between the
                            // check and the claim has already finished it.
                            check = self.check_cell_artifact(dir, cell.id);
                            if matches!(check, CellResume::Valid(_)) {
                                cell.saw_foreign_lease = true;
                                release_lease(guard)?;
                            } else {
                                campaign.book(cell.id, cell.attempts + 1, expired, &mut report);
                                guards.push(guard);
                            }
                        }
                    }
                    let invalid = match check {
                        CellResume::Valid(curve) => {
                            // A cell is accounted once: skipped now, or
                            // recomputed/invalidated when first taken.
                            if cell.attempts == 0 {
                                report.skipped.push(cell.id);
                                if cell.saw_foreign_lease {
                                    report.stolen.push(cell.id);
                                }
                            }
                            cell.curve = Some(curve);
                            progress = true;
                            continue;
                        }
                        CellResume::Invalid(why) => Some(why),
                        CellResume::Missing => None,
                    };
                    if cell.attempts == 0 {
                        match invalid {
                            Some(why) => report.invalidated.push((cell.id, why)),
                            None => report.recomputed.push(cell.id),
                        }
                    }
                    cell.attempts += 1;
                    taken.push(i);
                }
                // 3. Compute.
                let mut retry_pending = false;
                if !taken.is_empty() {
                    let batch: Vec<CellId> = taken.iter().map(|&i| wave[i].id).collect();
                    if let Some(dir) = resume_dir {
                        // Clear whatever sits where the recomputed
                        // artifacts will land, so the rewrite cannot fail
                        // on debris.
                        self.prepare_recompute(dir, &batch)?;
                    }
                    let keeper = campaign.as_ref().map(|c| c.keep(guards));
                    let results =
                        self.run_cell_batch(&batch, campaign.as_ref().and_then(|c| c.poison));
                    if let (Some(campaign), Some(keeper)) = (campaign.as_mut(), keeper) {
                        campaign.release(
                            keeper,
                            taken.iter().map(|&i| (wave[i].id, wave[i].attempts)),
                        )?;
                    }
                    // 4. Handle failures.
                    for (&i, result) in taken.iter().zip(results) {
                        let cell = &mut wave[i];
                        let (campaign, failure) = match (result, campaign.as_mut()) {
                            (Ok(Ok(outcome)), _) => {
                                cell.curve = Some(outcome.headline_curve().clone());
                                progress = true;
                                continue;
                            }
                            (Ok(Err(e)), None) => return Err(e),
                            (Err(panic), None) => reraise(panic),
                            (Ok(Err(e)), Some(campaign)) => (campaign, e.to_string()),
                            (Err(panic), Some(campaign)) => {
                                (campaign, format!("panic: {}", panic.message))
                            }
                        };
                        if cell.attempts < self.max_attempts {
                            // Budget left: the cell stays pending, and a
                            // later pass re-claims and re-runs it.
                            retry_pending = true;
                            campaign.record(
                                supervise::EventKind::Retry,
                                &cell.id.coords(),
                                cell.attempts,
                                &failure,
                            );
                        } else {
                            campaign.quarantine(cell.id, cell.attempts, &failure)?;
                            cell.quarantined = true;
                            report.quarantined.push((cell.id, failure));
                        }
                    }
                }
                // 5. Back off.
                if let Some(campaign) = campaign.as_mut() {
                    if retry_pending || (taken.is_empty() && blocked) {
                        campaign.back_off();
                    } else if progress {
                        campaign.backoff.reset();
                    }
                }
            }
            for cell in wave {
                let group = cell.id.scenario * n_policies + cell.id.policy;
                if cell.attempts > 1 {
                    report.attempts.push((cell.id, cell.attempts));
                }
                let hash = self.expected_cell_hash(cell.id);
                match cell.curve {
                    Some(curve) => groups[group].push(&curve, hash),
                    // Only a quarantined cell ends its wave without a
                    // curve. Another worker may have landed its artifact
                    // anyway; then its (bit-identical) curve folds in and
                    // there is no gap.
                    None => match resume_dir.map(|dir| self.check_cell_artifact(dir, cell.id)) {
                        Some(CellResume::Valid(curve)) => groups[group].push(&curve, hash),
                        _ => gaps[group] += 1,
                    },
                }
            }
        }
        if let Some(campaign) = campaign.as_mut() {
            campaign.sweep_stale_leases(&all_ids)?;
        }
        let ensembles = self.finish_groups(groups, &gaps, &mut report)?;
        Ok((ensembles, report))
    }

    /// The artifact channel holding a cell's headline curve (what
    /// [`CellOutcome::headline_curve`] returns for the grid's workload).
    fn headline_channel(&self) -> &'static str {
        let family = match &self.grid {
            ExperimentGrid::Cache { .. } => "cache",
            ExperimentGrid::Service { .. } => "service",
            ExperimentGrid::Joint { .. } => "joint",
        };
        // lint:allow(panic-hygiene): the three grid families are enumerated one
        // match above; a gap is a compile-time-visible programming error.
        headline_channel_for(family).expect("every grid family has a headline channel")
    }

    /// The recording mode a cell artifact of this grid is written under:
    /// the plan's for cache and joint grids; service cells hold only
    /// `O(horizon)` series and are always written
    /// [`Full`](RecordingMode::Full) ([`write_service_artifact_with`]).
    fn cell_recording(&self) -> RecordingMode {
        match &self.grid {
            ExperimentGrid::Service { .. } => RecordingMode::Full,
            ExperimentGrid::Cache { .. } | ExperimentGrid::Joint { .. } => self.recording,
        }
    }

    /// The `config_hash` a fresh artifact of cell `id` would be written
    /// under — must replicate exactly what the cell runners hash.
    fn expected_cell_hash(&self, id: CellId) -> u64 {
        match &self.grid {
            ExperimentGrid::Cache { scenarios, .. } => {
                let mut scenario = scenarios[id.scenario];
                scenario.seed = id.seed;
                persist::config_hash(&scenario)
            }
            ExperimentGrid::Service { scenarios, .. } => {
                let mut scenario = scenarios[id.scenario].clone();
                scenario.seed = id.seed;
                persist::config_hash(&scenario)
            }
            ExperimentGrid::Joint { scenarios } => {
                let mut scenario = scenarios[id.scenario].clone();
                scenario.seed = id.seed;
                persist::config_hash(&scenario)
            }
        }
    }

    /// Verifies one cell's on-disk artifact for resume: it must read back
    /// completely (intact footer / compressed end marker), carry the exact
    /// configuration hash and seed this plan would write, and hold the
    /// headline curve. Anything less forces a recompute — a bad artifact
    /// is never silently skipped.
    fn check_cell_artifact(&self, dir: &Path, id: CellId) -> CellResume {
        let path = Self::cell_artifact_path_with(dir, id, self.compression);
        if !path.exists() {
            return CellResume::Missing;
        }
        let artifact = match persist::read_artifact(&path) {
            Ok(artifact) => artifact,
            Err(e) => return CellResume::Invalid(e.to_string()),
        };
        if artifact.manifest.artifact != ArtifactKind::Trace {
            return CellResume::Invalid("not a trace artifact".to_string());
        }
        if artifact.manifest.seed != Some(id.seed) {
            return CellResume::Invalid(format!(
                "seed mismatch (artifact {:?}, cell {})",
                artifact.manifest.seed, id.seed
            ));
        }
        let want = self.expected_cell_hash(id);
        if artifact.manifest.config_hash != want {
            return CellResume::Invalid(format!(
                "config hash mismatch (artifact {:016x}, plan {want:016x}) — \
                 the scenario changed since the artifact was written",
                artifact.manifest.config_hash
            ));
        }
        // Move the series out of the artifact, which is dropped here.
        let headline = self.headline_channel();
        match artifact.channels.into_iter().find(|c| c.name == headline) {
            Some(channel) if !channel.series.is_empty() => CellResume::Valid(channel.series),
            _ => CellResume::Invalid(format!("missing headline channel \"{headline}\"")),
        }
    }

    /// Clears the landing zone for cells about to be recomputed: removes
    /// whatever sits at each cell's final artifact path (an invalidated
    /// file — or even a directory, which would make the finalizing rename
    /// fail) and sweeps orphaned in-flight `*.tmp-<pid>-<seq>` temporaries left
    /// for those cells by crashed writers. Temporaries of cells *not*
    /// being recomputed are left alone — a live worker may be streaming
    /// to them.
    fn prepare_recompute(&self, dir: &Path, ids: &[CellId]) -> Result<(), AoiCacheError> {
        if ids.is_empty() {
            return Ok(());
        }
        let mut finals = std::collections::BTreeSet::new();
        for id in ids {
            let path = Self::cell_artifact_path_with(dir, *id, self.compression);
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(_) => {
                    std::fs::remove_dir_all(&path)
                        .map_err(|e| io_error("clear stale artifact", &path, &e))?;
                }
            }
            if let Some(name) = path.file_name() {
                finals.insert(name.to_string_lossy().into_owned());
            }
            // A stale quarantine marker would contradict the artifact about
            // to be recomputed (and give the retried cell a spent budget's
            // worth of bad press) — clear it with the debris.
            let _ = std::fs::remove_file(Self::cell_quarantine_path(dir, *id));
        }
        let entries =
            std::fs::read_dir(dir).map_err(|e| io_error("sweep stale temporaries", dir, &e))?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(pos) = name.rfind(".tmp-") {
                let base = &name[..pos];
                if finals.contains(base) && persist::is_tmp_for(&name, base) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Runs one batch of cells (the whole grid for
    /// [`run`](ExperimentPlan::run), one pass of a replicate wave for
    /// [`run_ensembles`](ExperimentPlan::run_ensembles)) on the shared
    /// executor; results return in `ids` order. Every cell runs behind a
    /// panic fence ([`executor::parallel_map_supervised`]), so a failing
    /// cell yields its own result while the rest of the batch lands.
    ///
    /// Cache cells of one `(scenario, replicate)` share one
    /// [`CacheSimulation`], built — and its per-RSU MDP kernels compiled,
    /// if a cell of the batch runs an MDP policy — ahead of the fan-out,
    /// so cells never race the lazy kernel cache. Each build is fenced on
    /// the calling thread (its compiles still fan out) and fails only its
    /// own cells. `poison` is claim mode's test hook
    /// ([`Campaign::poison`]).
    fn run_cell_batch(
        &self,
        ids: &[CellId],
        poison: Option<(usize, usize, usize)>,
    ) -> Vec<CellResult> {
        let workers = self
            .workers
            .unwrap_or_else(|| executor::worker_count(ids.len(), true, 1));
        // `ids` is scenario-major then replicate-major, so the distinct
        // simulation keys are consecutive and sorted.
        let mut keys: Vec<(usize, usize)> =
            ids.iter().map(|id| (id.scenario, id.replicate)).collect();
        keys.dedup();
        let sims = match &self.grid {
            ExperimentGrid::Cache {
                scenarios,
                policies,
            } => {
                let uses_mdp = ids.iter().any(|id| policies[id.policy].uses_mdp());
                executor::parallel_map_supervised(1, &keys, |_, &(si, rep)| {
                    let mut scenario = scenarios[si];
                    scenario.seed = self.seed_of(si, rep);
                    let sim = CacheSimulation::new(scenario)?.with_recording(self.recording);
                    if uses_mdp {
                        sim.compiled()?;
                    }
                    Ok::<_, AoiCacheError>(sim)
                })
            }
            _ => Vec::new(),
        };
        executor::parallel_map_supervised(workers, ids, |_, id| {
            if poison == Some((id.scenario, id.replicate, id.policy)) {
                // lint:allow(panic-hygiene): deliberate test hook — the panic is
                // the supervised-campaign fault being injected.
                panic!("poisoned by AOI_POISON_CELL={}", id.coords());
            }
            let artifact = self
                .artifacts
                .as_deref()
                .map(|dir| Self::cell_artifact_path_with(dir, *id, self.compression));
            match &self.grid {
                ExperimentGrid::Cache { policies, .. } => {
                    let sim = match keys
                        .binary_search(&(id.scenario, id.replicate))
                        .map(|k| &sims[k])
                    {
                        Ok(Ok(Ok(sim))) => sim,
                        Ok(Ok(Err(e))) => return Err(e.clone()),
                        Ok(Err(panic)) => reraise(panic.clone()),
                        Err(_) => {
                            return Err(AoiCacheError::Internal {
                                what: "batch is missing this cell's shared simulation",
                            })
                        }
                    };
                    match &artifact {
                        Some(path) => {
                            sim.run_artifact_with(policies[id.policy], path, self.compression)
                        }
                        None => sim.run(policies[id.policy]),
                    }
                    .map(CellOutcome::Cache)
                }
                ExperimentGrid::Service {
                    scenarios,
                    policies,
                } => {
                    let mut scenario = scenarios[id.scenario].clone();
                    scenario.seed = id.seed;
                    let report = run_service(&scenario, policies[id.policy])?;
                    if let Some(path) = &artifact {
                        write_service_artifact_with(&scenario, &report, path, self.compression)?;
                    }
                    Ok(CellOutcome::Service(report))
                }
                ExperimentGrid::Joint { scenarios } => {
                    let mut scenario = scenarios[id.scenario].clone();
                    scenario.seed = id.seed;
                    match &artifact {
                        Some(path) => run_joint_artifact_with(
                            &scenario,
                            self.recording,
                            path,
                            self.compression,
                        ),
                        None => run_joint_recorded(&scenario, self.recording),
                    }
                    .map(CellOutcome::Joint)
                }
            }
        })
    }

    /// Aggregates each `(scenario, policy)` group's headline curves across
    /// seed replicates, streaming one curve at a time into the group's
    /// [`EnsembleFold`] (no side-by-side curve matrix).
    fn summarize(&self, cells: &[CellReport]) -> Result<Vec<EnsembleSummary>, AoiCacheError> {
        let mut folds = self.group_folds();
        let n_policies = self.grid.n_policies();
        for cell in cells {
            folds[cell.id.scenario * n_policies + cell.id.policy].push(
                cell.outcome.headline_curve(),
                self.expected_cell_hash(cell.id),
            );
        }
        self.finish_groups(folds, &[], &mut ResumeReport::default())
    }

    /// One empty fold per `(scenario, policy)` group, in ensemble-report
    /// order (scenario-major).
    fn group_folds(&self) -> Vec<EnsembleFold> {
        let mut folds = Vec::with_capacity(self.grid.n_scenarios() * self.grid.n_policies());
        for scenario in 0..self.grid.n_scenarios() {
            for policy in 0..self.grid.n_policies() {
                let label = self.grid.policy_label(scenario, policy);
                folds.push(EnsembleFold::new(scenario, policy, label));
            }
        }
        folds
    }

    /// `gaps` is the per-group count of replicates missing because a
    /// claim-mode campaign quarantined their cells (all zero, or empty,
    /// when every group folds its full complement). Each ensemble artifact
    /// written or left unchanged is counted in `report`.
    fn finish_groups(
        &self,
        folds: Vec<EnsembleFold>,
        gaps: &[usize],
        report: &mut ResumeReport,
    ) -> Result<Vec<EnsembleSummary>, AoiCacheError> {
        let mut ensembles = Vec::with_capacity(folds.len());
        for (i, fold) in folds.into_iter().enumerate() {
            let quarantined = gaps.get(i).copied().unwrap_or(0);
            let curve = match fold.finish() {
                Ok(curve) => curve,
                // Every replicate of the group was quarantined: there is
                // nothing to fold, so the group gets no ensemble (the gap
                // stays visible in the resume report).
                Err(_) if quarantined > 0 => continue,
                Err(_) => {
                    return Err(AoiCacheError::Internal {
                        what: "a group with zero quarantined cells is missing a replicate curve",
                    })
                }
            };
            if let Some(dir) = &self.artifacts {
                // An ensemble carries the recording of the cells it folds,
                // as `aoi-artifacts merge` reads it back from them.
                match fold.write(&curve, dir, self.cell_recording(), self.compression)? {
                    WriteOutcome::Unchanged => report.ensembles_unchanged += 1,
                    WriteOutcome::Written => report.ensembles_written += 1,
                }
            }
            ensembles.push(EnsembleSummary {
                scenario: fold.scenario,
                policy: fold.policy,
                label: fold.label,
                curve,
                quarantined,
            });
        }
        Ok(ensembles)
    }
}

/// One `(scenario, policy)` group's ensemble: the mean/CI fold of its
/// replicates' headline curves and the config hashes of the cells folded.
/// The grid engine and `aoi-artifacts merge` both build their ensemble
/// artifacts through it, so a merged directory holds exactly the bytes
/// the engine writes.
#[derive(Debug)]
pub struct EnsembleFold {
    scenario: usize,
    policy: usize,
    label: String,
    curves: CurveAccumulator,
    cell_hashes: Vec<u64>,
}

impl EnsembleFold {
    /// An empty fold for group `(scenario, policy)` of policy `label`; its
    /// curves are named `s<scenario>/<label>`.
    pub fn new(scenario: usize, policy: usize, label: String) -> Self {
        EnsembleFold {
            curves: CurveAccumulator::new(format!("s{scenario}/{label}")),
            scenario,
            policy,
            label,
            cell_hashes: Vec::new(),
        }
    }

    /// Folds one replicate: its headline curve and its cell artifact's
    /// `config_hash`. Call in ascending replicate order.
    pub fn push(&mut self, curve: &TimeSeries, cell_config_hash: u64) {
        self.curves.push_curve(curve);
        self.cell_hashes.push(cell_config_hash);
    }

    /// The mean/95%-CI band over the replicates folded so far.
    ///
    /// # Errors
    ///
    /// As [`CurveAccumulator::finish`]: nothing folded, or curves on
    /// different slot axes.
    pub fn finish(&self) -> Result<CurveSummary, simkit::SimkitError> {
        self.curves.finish()
    }

    /// Writes `curve` (this fold's [`finish`](EnsembleFold::finish)) as
    /// the group's ensemble artifact under `dir`
    /// ([`ExperimentPlan::ensemble_artifact_path_with`]), **only when its
    /// bytes would change**. The manifest's `config_hash` is an FNV-1a fold
    /// ([`persist::config_hash`]) over the hashes of the cells folded, in
    /// replicate order — so it can be recomputed from the cell artifacts in
    /// a directory alone.
    ///
    /// A file already at the path in `compression`'s encoding is compared,
    /// byte for byte and for `.z` after decoding, with what would be
    /// written ([`persist::write_if_changed`]) and left untouched when
    /// equal; otherwise the artifact is written to a temporary and renamed
    /// into place. The rule is the same in cold, resumed and claim-mode
    /// runs and in `aoi-artifacts merge`. It saves work only when the file
    /// is already there, as after a finished run; a file that differs
    /// costs the comparison on top of the write.
    ///
    /// # Errors
    ///
    /// Propagates artifact write failures.
    pub fn write(
        &self,
        curve: &CurveSummary,
        dir: &Path,
        recording: RecordingMode,
        compression: Compression,
    ) -> Result<WriteOutcome, persist::PersistError> {
        let manifest = Manifest {
            artifact: ArtifactKind::Ensemble,
            scenario: format!("s{}", self.scenario),
            policy: self.label.clone(),
            seed: None,
            recording,
            config_hash: persist::config_hash(&self.cell_hashes),
        };
        let path = ExperimentPlan::ensemble_artifact_path_with(
            dir,
            self.scenario,
            self.policy,
            compression,
        );
        persist::write_if_changed(&path, &manifest, compression, |writer| {
            writer.curve(&self.label, self.scenario, self.policy, curve)
        })
    }
}

/// The headline trace channel of a cell artifact, keyed by the manifest's
/// scenario family (`"cache"`, `"service"` or `"joint"`) — the channel
/// ensemble curves are folded from. `None` for an unknown family.
pub fn headline_channel_for(scenario_kind: &str) -> Option<&'static str> {
    match scenario_kind {
        "cache" => Some("reward (cumulative)"),
        "service" => Some("queue"),
        "joint" => Some("cache reward (cumulative)"),
        _ => None,
    }
}

/// Writes one service run's report as a trace artifact under the given
/// encoding (see [`simkit::persist::compress`]). The queue and cost series
/// a service run holds are already `O(horizon)`, so they are written after
/// the run rather than streamed through a recorder sink. Used for every
/// service cell of a grid with an artifact directory; public so standalone
/// Fig. 1b-style runs persist the identical layout.
///
/// # Errors
///
/// Propagates artifact write failures ([`AoiCacheError::Persist`]).
pub fn write_service_artifact_with(
    scenario: &ServiceScenario,
    report: &ServiceRunReport,
    path: &Path,
    compression: Compression,
) -> Result<(), AoiCacheError> {
    let manifest = Manifest {
        artifact: ArtifactKind::Trace,
        scenario: "service".to_string(),
        policy: report.policy.clone(),
        seed: Some(scenario.seed),
        recording: RecordingMode::Full,
        config_hash: persist::config_hash(scenario),
    };
    let mut writer =
        ArtifactWriter::create_with(path, &manifest, compression).map_err(AoiCacheError::from)?;
    writer.series(&report.queue).map_err(AoiCacheError::from)?;
    writer.series(&report.cost).map_err(AoiCacheError::from)?;
    writer.finish().map_err(AoiCacheError::from)
}

/// What the resume check decided about one cell's on-disk artifact.
enum CellResume {
    /// No artifact at the cell's path: compute it cold.
    Missing,
    /// The artifact verified; its headline curve, re-read bit-identically.
    Valid(TimeSeries),
    /// An artifact exists but failed verification (the reason is the
    /// human-readable `why`): recompute and rewrite it.
    Invalid(String),
}

/// One cell's result from a batch: its outcome, its error, or the panic
/// its fence caught.
type CellResult = Result<Result<CellOutcome, AoiCacheError>, executor::TaskPanic>;

/// Re-raises a cell's caught panic on the calling thread — the failure
/// policy of every run outside claim mode. The payload is the original
/// message; the panic hook already reported it where it first fired.
fn reraise(panic: executor::TaskPanic) -> ! {
    std::panic::resume_unwind(Box::new(panic.message))
}

/// An I/O failure of operation `op` on `path`, as an engine error.
fn io_error(op: &'static str, path: &Path, e: &std::io::Error) -> AoiCacheError {
    AoiCacheError::Persist(persist::PersistError::Io {
        op,
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Releases a lease. One another worker took over after a stall is
/// already gone, which is fine: that worker's artifact is bit-identical.
fn release_lease(guard: lease::LeaseGuard) -> Result<(), AoiCacheError> {
    match guard.release() {
        Ok(()) | Err(lease::LeaseError::Lost { .. }) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// One cell's progress through the passes of its replicate wave.
struct WaveCell {
    id: CellId,
    /// The headline curve, once computed or verified on disk.
    curve: Option<TimeSeries>,
    /// Claim mode: the retry budget is spent and the cell quarantined.
    quarantined: bool,
    /// Compute attempts made so far.
    attempts: u32,
    /// Claim mode: another live worker's lease blocked the cell on some
    /// pass (if it then verifies, it was stolen).
    saw_foreign_lease: bool,
}

/// Claim mode's per-worker state — the one optional part of the grid
/// engine (see [`ExperimentPlan::claim`]): the lease owner id, the health
/// journal (`events-<worker>.jsonl`) every claim, steal, release, retry,
/// backoff, quarantine and lost heartbeat is appended to, and the backoff
/// schedule waiting and retrying share.
struct Campaign {
    dir: PathBuf,
    owner: String,
    ttl_ms: u64,
    backoff: supervise::Backoff,
    journal: supervise::EventJournal,
    /// Test-only poison hook (see the supervision and crash-point suites):
    /// the cell named by `AOI_POISON_CELL=s<S>-r<R>-p<P>` panics inside
    /// its supervised compute, exercising retry and quarantine end to end.
    poison: Option<(usize, usize, usize)>,
}

impl Campaign {
    fn open(plan: &ExperimentPlan, dir: &Path) -> Result<Self, AoiCacheError> {
        // An explicit worker id, or a process-unique default.
        let owner = plan
            .worker_id
            .clone()
            .unwrap_or_else(|| format!("w{}-{:x}", std::process::id(), lease::wall_ms()));
        // The schedule starts near-instant and grows toward a quarter
        // TTL, with enough jitter to de-synchronize workers that fail or
        // block in lockstep.
        let backoff = supervise::Backoff::for_worker(
            &owner,
            Duration::from_millis((plan.lease_ttl_ms / 16).clamp(2, 250)),
            Duration::from_millis((plan.lease_ttl_ms / 4).clamp(5, 1_000)),
        );
        let journal_path = dir.join(supervise::journal_file_name(&owner));
        let journal = supervise::EventJournal::open(&journal_path, &owner)
            .map_err(|e| io_error("open health journal", &journal_path, &e))?;
        Ok(Campaign {
            dir: dir.to_path_buf(),
            owner,
            ttl_ms: plan.lease_ttl_ms,
            backoff,
            journal,
            poison: std::env::var("AOI_POISON_CELL")
                .ok()
                .and_then(|spec| parse_cell_coords(spec.trim())),
        })
    }

    /// Appends one event to the health journal. Journal writes are
    /// advisory telemetry: they never fail the campaign.
    fn record(&mut self, kind: supervise::EventKind, item: &str, attempt: u32, detail: &str) {
        let _ = self.journal.record(kind, item, attempt, detail);
    }

    /// Takes cell `id`'s lease, taking over an expired one (a dead or
    /// stalled worker's): the guard and whether it was a takeover, or
    /// `None` while another live worker holds the lease.
    fn acquire(&self, id: CellId) -> Result<Option<(lease::LeaseGuard, bool)>, AoiCacheError> {
        let path = ExperimentPlan::cell_lease_path(&self.dir, id);
        let expired = lease::inspect(&path)?
            .map(|info| info.expired_at(lease::wall_ms()))
            .unwrap_or(false);
        match lease::claim(&path, &self.owner, Duration::from_millis(self.ttl_ms)) {
            Ok(lease::Claim::Acquired(guard)) => Ok(Some((guard, expired))),
            Ok(lease::Claim::Held { .. }) | Err(lease::LeaseError::Contended) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Books a lease taken for the cell's `attempt`-th compute in the
    /// report and the journal.
    fn book(&mut self, id: CellId, attempt: u32, expired: bool, report: &mut ResumeReport) {
        report.claimed.push(id);
        let kind = if expired {
            report.expired.push(id);
            supervise::EventKind::Steal
        } else {
            supervise::EventKind::Claim
        };
        self.record(kind, &id.coords(), attempt, "");
    }

    /// Heartbeats a batch's leases while its cells compute, at the
    /// cadence the takeover grace of [`simkit::lease`] is derived from.
    fn keep(&self, guards: Vec<lease::LeaseGuard>) -> lease::Heartbeat {
        lease::Heartbeat::keep(guards, lease::heartbeat_interval(self.ttl_ms))
    }

    /// Stops the keeper and releases the leases it still holds. Each cell
    /// of the batch journals its release — or its lost heartbeat, when
    /// another worker took the lease over after a stall (that worker's
    /// artifact is bit-identical, so it stands).
    fn release(
        &mut self,
        keeper: lease::Heartbeat,
        cells: impl IntoIterator<Item = (CellId, u32)>,
    ) -> Result<(), AoiCacheError> {
        let mut kept = std::collections::BTreeSet::new();
        for guard in keeper.stop() {
            kept.insert(guard.path().to_path_buf());
            release_lease(guard)?;
        }
        for (id, attempt) in cells {
            if kept.contains(&ExperimentPlan::cell_lease_path(&self.dir, id)) {
                self.record(supervise::EventKind::Release, &id.coords(), attempt, "");
            } else {
                self.record(
                    supervise::EventKind::HeartbeatLost,
                    &id.coords(),
                    attempt,
                    "lease taken over mid-compute",
                );
            }
        }
        Ok(())
    }

    /// Gives up on a cell that failed `attempts` times: writes its
    /// quarantine marker beside the missing artifact and journals it.
    fn quarantine(&mut self, id: CellId, attempts: u32, error: &str) -> Result<(), AoiCacheError> {
        let marker = supervise::Quarantine {
            item: id.coords(),
            worker: self.owner.clone(),
            attempts,
            error: error.to_string(),
            wall_ms: lease::wall_ms(),
        };
        let path = ExperimentPlan::cell_quarantine_path(&self.dir, id);
        marker
            .write(&path)
            .map_err(|e| io_error("write quarantine marker", &path, &e))?;
        self.record(
            supervise::EventKind::Quarantine,
            &id.coords(),
            attempts,
            error,
        );
        Ok(())
    }

    /// Sleeps the next backoff delay: waiting for foreign artifacts to
    /// land, foreign leases to expire, or a retry's turn.
    fn back_off(&mut self) {
        let delay = self.backoff.next_delay();
        self.record(
            supervise::EventKind::Backoff,
            "",
            0,
            &format!("{} ms", delay.as_millis()),
        );
        std::thread::sleep(delay);
    }

    /// A worker that dies between landing a cell's artifact and releasing
    /// its lease leaves a lease no claimant would look at again: the valid
    /// artifact means the cell is skipped forever. Before the campaign
    /// completes, wait out each live holder (it releases on its own) and
    /// take over and release each expired lease.
    fn sweep_stale_leases(&mut self, ids: &[CellId]) -> Result<(), AoiCacheError> {
        self.backoff.reset();
        for &id in ids {
            let path = ExperimentPlan::cell_lease_path(&self.dir, id);
            loop {
                match lease::inspect(&path)? {
                    None => break,
                    Some(info) if info.expired_at(lease::wall_ms()) => {
                        // Losing the cleanup race is fine: the winner
                        // clears the lease.
                        if let Some((guard, _)) = self.acquire(id)? {
                            release_lease(guard)?;
                            self.record(
                                supervise::EventKind::Release,
                                &id.coords(),
                                0,
                                "cleared a dead worker's lease beside a finished cell",
                            );
                            break;
                        }
                    }
                    // Live holder mid-release (or re-verifying a cell that
                    // already landed): it deletes its own lease shortly.
                    Some(_) => {}
                }
                std::thread::sleep(self.backoff.next_delay());
            }
        }
        Ok(())
    }
}

/// What a resumed run did with each cell (see
/// [`ExperimentPlan::run_ensembles_resumable`]): skipped cells reused
/// their verified artifacts; recomputed cells had none; invalidated cells
/// had an artifact that failed verification and were re-run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResumeReport {
    /// Cells whose artifact existed and verified — not re-run.
    pub skipped: Vec<CellId>,
    /// Cells with no artifact — run cold.
    pub recomputed: Vec<CellId>,
    /// Cells whose artifact failed verification (with the reason) — re-run
    /// and rewritten, never silently skipped.
    pub invalidated: Vec<(CellId, String)>,
    /// Claim mode only: cells this worker claimed (lease acquired) and
    /// computed. Every claimed cell also appears in
    /// [`recomputed`](ResumeReport::recomputed) or
    /// [`invalidated`](ResumeReport::invalidated).
    pub claimed: Vec<CellId>,
    /// Claim mode only: claimed cells whose previous lease had expired —
    /// work taken over from a dead (or stalled) worker. A subset of
    /// [`claimed`](ResumeReport::claimed).
    pub expired: Vec<CellId>,
    /// Claim mode only: cells another worker completed while this one
    /// waited on their leases — skipped without computing. A subset of
    /// [`skipped`](ResumeReport::skipped).
    pub stolen: Vec<CellId>,
    /// Claim mode only: cells this worker gave up on after exhausting the
    /// retry budget ([`ExperimentPlan::max_attempts`]), with the final
    /// failure. Each left a `cell-….quarantine.jsonl` marker beside its
    /// missing artifact; the folded ensembles account the gap in
    /// [`EnsembleSummary::quarantined`]. Quarantined cells were claimed,
    /// so they also appear in [`recomputed`](ResumeReport::recomputed) or
    /// [`invalidated`](ResumeReport::invalidated).
    pub quarantined: Vec<(CellId, String)>,
    /// Claim mode only: cells that needed more than one compute attempt,
    /// with the total attempts this worker made (a quarantined cell shows
    /// the whole budget).
    pub attempts: Vec<(CellId, u32)>,
    /// Ensemble artifacts left in place because the file already held
    /// exactly the bytes this run would write ([`EnsembleFold::write`]).
    pub ensembles_unchanged: usize,
    /// Ensemble artifacts written: no file was there, or its bytes
    /// differed from this run's.
    pub ensembles_written: usize,
}

impl ResumeReport {
    /// Total cells the report accounts for. The claim-mode annotations
    /// ([`claimed`](ResumeReport::claimed), [`expired`](ResumeReport::expired),
    /// [`stolen`](ResumeReport::stolen)) overlap the three partitions and
    /// are not counted again.
    pub fn n_cells(&self) -> usize {
        self.skipped.len() + self.recomputed.len() + self.invalidated.len()
    }

    /// `true` when every cell was re-run (nothing reusable was found).
    pub fn is_cold(&self) -> bool {
        self.skipped.is_empty()
    }

    /// `true` when every cell was skipped (a fully warm re-run).
    pub fn is_warm(&self) -> bool {
        self.recomputed.is_empty() && self.invalidated.is_empty()
    }
}

impl fmt::Display for ResumeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cells: {} skipped (verified artifacts), {} recomputed, {} invalidated",
            self.n_cells(),
            self.skipped.len(),
            self.recomputed.len(),
            self.invalidated.len()
        )?;
        if !self.claimed.is_empty() || !self.stolen.is_empty() {
            write!(
                f,
                "; campaign: {} claimed ({} from expired leases), {} stolen by other workers",
                self.claimed.len(),
                self.expired.len(),
                self.stolen.len()
            )?;
        }
        if !self.attempts.is_empty() || !self.quarantined.is_empty() {
            write!(
                f,
                "; supervision: {} retried, {} quarantined",
                self.attempts.len(),
                self.quarantined.len()
            )?;
        }
        if self.ensembles_unchanged + self.ensembles_written > 0 {
            write!(
                f,
                "; ensembles: {} unchanged, {} written",
                self.ensembles_unchanged, self.ensembles_written
            )?;
        }
        for (id, why) in &self.invalidated {
            write!(f, "\n  {}: {why}", id.coords())?;
        }
        for (id, why) in &self.quarantined {
            write!(f, "\n  {} QUARANTINED: {why}", id.coords())?;
        }
        Ok(())
    }
}

/// Identity of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellId {
    /// Index into the plan's scenario list.
    pub scenario: usize,
    /// Index into the plan's seed replicates (0 when none were given).
    pub replicate: usize,
    /// The seed this cell ran under.
    pub seed: u64,
    /// Index into the plan's policy menu (0 for joint grids).
    pub policy: usize,
}

impl CellId {
    /// The cell's coordinate string `s<scenario>-r<replicate>-p<policy>`
    /// — the spelling used in artifact / lease / quarantine file names,
    /// health-journal items, reports and the `AOI_POISON_CELL` test hook.
    pub fn coords(&self) -> String {
        format!("s{}-r{}-p{}", self.scenario, self.replicate, self.policy)
    }
}

/// Parses a cell coordinate string (`s<S>-r<R>-p<P>`, the format
/// [`CellId::coords`] produces) into its `(scenario, replicate, policy)`
/// indices. `None` for anything malformed and for any spelling
/// `CellId::coords` never writes (signs, leading zeros, whitespace), so
/// no two file names alias one cell.
pub fn parse_cell_coords(spec: &str) -> Option<(usize, usize, usize)> {
    let rest = spec.strip_prefix('s')?;
    let (scenario, rest) = rest.split_once("-r")?;
    let (replicate, policy) = rest.split_once("-p")?;
    let (s, r, p): (usize, usize, usize) = (
        scenario.parse().ok()?,
        replicate.parse().ok()?,
        policy.parse().ok()?,
    );
    (format!("s{s}-r{r}-p{p}") == spec).then_some((s, r, p))
}

/// One cell's full single-run report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Which cell of the grid this is.
    pub id: CellId,
    /// Display label of the cell's policy.
    pub label: String,
    /// The underlying single-run report.
    pub outcome: CellOutcome,
}

/// A single-run report of whichever simulator the grid drives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellOutcome {
    /// Stage-1 cache-management run.
    Cache(CacheRunReport),
    /// Stage-2 content-service run.
    Service(ServiceRunReport),
    /// Joint two-stage run.
    Joint(JointReport),
}

impl CellOutcome {
    /// The stage-1 report, if this is a cache cell.
    pub fn cache(&self) -> Option<&CacheRunReport> {
        match self {
            CellOutcome::Cache(r) => Some(r),
            _ => None,
        }
    }

    /// The stage-2 report, if this is a service cell.
    pub fn service(&self) -> Option<&ServiceRunReport> {
        match self {
            CellOutcome::Service(r) => Some(r),
            _ => None,
        }
    }

    /// The joint report, if this is a joint cell.
    pub fn joint(&self) -> Option<&JointReport> {
        match self {
            CellOutcome::Joint(r) => Some(r),
            _ => None,
        }
    }

    /// The curve the paper plots for this workload: cumulative reward
    /// (cache and joint) or queue backlog (service).
    pub fn headline_curve(&self) -> &TimeSeries {
        match self {
            CellOutcome::Cache(r) => &r.cumulative_reward,
            CellOutcome::Service(r) => &r.queue,
            CellOutcome::Joint(r) => &r.cumulative_cache_reward,
        }
    }
}

/// Mean/CI aggregation of one `(scenario, policy)` group across its seed
/// replicates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleSummary {
    /// Index into the plan's scenario list.
    pub scenario: usize,
    /// Index into the plan's policy menu — the group key to join cells on
    /// (labels drop policy parameters, so two parameterizations of one
    /// kind share a label but never a policy index).
    pub policy: usize,
    /// Display label of the policy (not necessarily unique per group).
    pub label: String,
    /// Per-slot mean and 95% CI band of the group's headline curves.
    pub curve: CurveSummary,
    /// Seed replicates missing from this ensemble because a claim-mode
    /// campaign quarantined their cells (see
    /// [`ExperimentPlan::max_attempts`]). Always 0 outside claim mode and
    /// on healthy campaigns; when non-zero,
    /// [`curve`](EnsembleSummary::curve) folds only the surviving
    /// replicates.
    pub quarantined: usize,
}

/// Everything a grid run produced: per-cell reports (in `cell_ids` order)
/// plus per-group ensemble summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// One full single-run report per cell.
    pub cells: Vec<CellReport>,
    /// One mean/CI summary per `(scenario, policy)` group.
    pub ensembles: Vec<EnsembleSummary>,
}

impl ExperimentReport {
    /// The cell at `(scenario, replicate, policy)`, if present.
    pub fn cell(&self, scenario: usize, replicate: usize, policy: usize) -> Option<&CellReport> {
        self.cells.iter().find(|c| {
            c.id.scenario == scenario && c.id.replicate == replicate && c.id.policy == policy
        })
    }

    /// The ensemble summary of `(scenario, policy index)`, if present.
    pub fn ensemble_at(&self, scenario: usize, policy: usize) -> Option<&EnsembleSummary> {
        self.ensembles
            .iter()
            .find(|e| e.scenario == scenario && e.policy == policy)
    }

    /// The first ensemble summary of `(scenario, policy-label)`, if any.
    ///
    /// Labels drop policy parameters (every `Lyapunov { v }` is
    /// `"lyapunov"`), so a plan sweeping parameters of one kind has
    /// several ensembles per label — use [`ensemble_at`] with the policy
    /// index to address a specific one.
    ///
    /// [`ensemble_at`]: ExperimentReport::ensemble_at
    pub fn ensemble(&self, scenario: usize, label: &str) -> Option<&EnsembleSummary> {
        self.ensembles
            .iter()
            .find(|e| e.scenario == scenario && e.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceLevel;

    fn tiny_cache() -> CacheScenario {
        CacheScenario {
            n_rsus: 2,
            regions_per_rsu: 2,
            age_cap: 5,
            max_age_min: 3,
            max_age_max: 4,
            horizon: 80,
            ..CacheScenario::default()
        }
    }

    #[test]
    fn cache_grid_shapes_and_order() {
        let plan = ExperimentPlan::cache(
            vec![tiny_cache()],
            vec![CachePolicyKind::Myopic, CachePolicyKind::Never],
        )
        .replicate_seeds(vec![5, 6]);
        assert_eq!(plan.n_cells(), 4);
        let report = plan.run().unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.ensembles.len(), 2);
        // Report order: seed-major, then policy.
        assert_eq!(report.cells[0].id.seed, 5);
        assert_eq!(report.cells[1].id.policy, 1);
        assert_eq!(report.cells[2].id.seed, 6);
        let myopic = report.ensemble(0, "myopic").unwrap();
        assert_eq!(myopic.curve.replicates, 2);
        assert_eq!(myopic.curve.mean.len(), 80);
        // Myopic caching beats never-update on mean cumulative reward.
        let never = report.ensemble(0, "never").unwrap();
        assert!(myopic.curve.final_mean() > never.curve.final_mean());
    }

    #[test]
    fn cells_match_standalone_single_runs() {
        let plan = ExperimentPlan::cache(
            vec![tiny_cache()],
            vec![
                CachePolicyKind::ValueIteration { gamma: 0.9 },
                CachePolicyKind::Myopic,
            ],
        )
        .replicate_seeds(vec![11, 12]);
        let report = plan.run().unwrap();
        for cell in &report.cells {
            let mut scenario = tiny_cache();
            scenario.seed = cell.id.seed;
            let standalone = CacheSimulation::new(scenario).unwrap();
            let kind = [
                CachePolicyKind::ValueIteration { gamma: 0.9 },
                CachePolicyKind::Myopic,
            ][cell.id.policy];
            let want = standalone.run(kind).unwrap();
            assert_eq!(
                cell.outcome.cache().unwrap(),
                &want,
                "cell {:?} must equal its standalone run",
                cell.id
            );
        }
    }

    #[test]
    fn empty_seed_list_uses_scenario_seed() {
        let plan = ExperimentPlan::cache(vec![tiny_cache()], vec![CachePolicyKind::Never]);
        let report = plan.run().unwrap();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].id.seed, tiny_cache().seed);
    }

    #[test]
    fn service_grid_runs_shared_traces() {
        let scenario = ServiceScenario {
            horizon: 200,
            levels: ServiceLevel::standard_menu(),
            ..ServiceScenario::default()
        };
        let plan = ExperimentPlan::service(
            vec![scenario],
            vec![
                ServicePolicyKind::Lyapunov { v: 20.0 },
                ServicePolicyKind::AlwaysServe,
            ],
        )
        .replicate_seeds(vec![1, 2, 3]);
        let report = plan.run().unwrap();
        assert_eq!(report.cells.len(), 6);
        let lyap = report.ensemble(0, "lyapunov").unwrap();
        assert_eq!(lyap.curve.replicates, 3);
        assert_eq!(lyap.curve.mean.len(), 200);
        // Always-serve keeps the mean queue at or below Lyapunov's.
        let always = report.ensemble(0, "always-serve").unwrap();
        assert!(always.curve.mean.mean() <= lyap.curve.mean.mean() + 1e-9);
    }

    #[test]
    fn joint_grid_labels_embed_both_policies() {
        let scenario = JointScenario {
            network: vanet::NetworkConfig {
                n_regions: 4,
                n_rsus: 2,
                road_length_m: 800.0,
                ..vanet::NetworkConfig::default()
            },
            age_cap: 5,
            max_age_min: 3,
            max_age_max: 4,
            horizon: 60,
            warmup: 10,
            ..JointScenario::default()
        };
        let report = ExperimentPlan::joint(vec![scenario])
            .replicate_seeds(vec![7, 8])
            .run()
            .unwrap();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].label, "myopic+lyapunov");
        assert!(report.cells[0].outcome.joint().is_some());
        assert_eq!(report.ensembles.len(), 1);
    }

    #[test]
    fn empty_grids_are_rejected() {
        assert!(ExperimentPlan::cache(vec![], vec![CachePolicyKind::Never])
            .run()
            .is_err());
        assert!(ExperimentPlan::cache(vec![tiny_cache()], vec![])
            .run()
            .is_err());
        assert!(
            ExperimentPlan::service(vec![ServiceScenario::default()], vec![])
                .run()
                .is_err()
        );
    }

    #[test]
    fn parameter_sweeps_keep_distinct_ensembles() {
        // Two parameterizations of one kind share a label but must keep
        // separate, addressable ensembles.
        let plan = ExperimentPlan::cache(
            vec![tiny_cache()],
            vec![
                CachePolicyKind::Random { probability: 0.1 },
                CachePolicyKind::Random { probability: 0.9 },
            ],
        )
        .replicate_seeds(vec![1, 2]);
        let report = plan.run().unwrap();
        assert_eq!(report.ensembles.len(), 2);
        let lazy = report.ensemble_at(0, 0).unwrap();
        let eager = report.ensemble_at(0, 1).unwrap();
        assert_eq!(lazy.label, eager.label);
        assert_ne!(lazy.policy, eager.policy);
        // More updates ⇒ different curves; the two groups must not have
        // been merged.
        assert_ne!(
            lazy.curve.final_mean(),
            eager.curve.final_mean(),
            "distinct parameterizations must aggregate separately"
        );
        // The label lookup still resolves (to the first match).
        assert_eq!(report.ensemble(0, "random").unwrap().policy, 0);
    }

    #[test]
    fn recording_mode_threads_to_cells_without_changing_curves() {
        let plan = ExperimentPlan::cache(
            vec![tiny_cache()],
            vec![CachePolicyKind::Myopic, CachePolicyKind::Never],
        )
        .replicate_seeds(vec![5, 6]);
        let full = plan.clone().run().unwrap();
        let lean = plan.recording(RecordingMode::SummaryOnly).run().unwrap();
        assert_eq!(full.ensembles, lean.ensembles, "ensembles are mode-free");
        for (a, b) in full.cells.iter().zip(&lean.cells) {
            let (a, b) = (a.outcome.cache().unwrap(), b.outcome.cache().unwrap());
            assert!(b.aoi_traces.iter().all(|t| t.is_empty()));
            assert_eq!(a.aoi_summaries, b.aoi_summaries);
            assert_eq!(a.cumulative_reward, b.cumulative_reward);
            assert_eq!(a.updates, b.updates);
        }
    }

    #[test]
    fn streamed_ensembles_match_batch_run() {
        let plan = ExperimentPlan::cache(
            vec![tiny_cache()],
            vec![
                CachePolicyKind::ValueIteration { gamma: 0.9 },
                CachePolicyKind::Myopic,
            ],
        )
        .replicate_seeds(vec![11, 12, 13]);
        let batch = plan.clone().run().unwrap();
        let streamed = plan.clone().run_ensembles().unwrap();
        assert_eq!(
            batch.ensembles, streamed,
            "streaming must not change results"
        );
        // Also identical under summary-only cells and forced-serial execution.
        let lean = plan
            .clone()
            .recording(RecordingMode::SummaryOnly)
            .workers(1)
            .run_ensembles()
            .unwrap();
        assert_eq!(batch.ensembles, lean);
    }

    #[test]
    fn streamed_ensembles_cover_service_and_joint_grids() {
        let service = ExperimentPlan::service(
            vec![ServiceScenario {
                horizon: 120,
                ..ServiceScenario::default()
            }],
            vec![ServicePolicyKind::AlwaysServe],
        )
        .replicate_seeds(vec![1, 2]);
        assert_eq!(
            service.run().unwrap().ensembles,
            service.run_ensembles().unwrap()
        );
        let joint = ExperimentPlan::joint(vec![JointScenario {
            network: vanet::NetworkConfig {
                n_regions: 4,
                n_rsus: 2,
                road_length_m: 800.0,
                ..vanet::NetworkConfig::default()
            },
            age_cap: 5,
            max_age_min: 3,
            max_age_max: 4,
            horizon: 50,
            warmup: 10,
            ..JointScenario::default()
        }])
        .replicate_seeds(vec![7, 8])
        .recording(RecordingMode::SummaryOnly);
        assert_eq!(
            joint.run().unwrap().ensembles,
            joint.run_ensembles().unwrap()
        );
    }

    #[test]
    fn cell_accessors() {
        let plan = ExperimentPlan::cache(vec![tiny_cache()], vec![CachePolicyKind::Never])
            .replicate_seeds(vec![1]);
        let report = plan.run().unwrap();
        assert!(report.cell(0, 0, 0).is_some());
        assert!(report.cell(0, 1, 0).is_none());
        let cell = report.cell(0, 0, 0).unwrap();
        assert!(cell.outcome.service().is_none());
        assert!(cell.outcome.joint().is_none());
        assert_eq!(cell.outcome.headline_curve().len(), 80);
    }

    #[test]
    fn cell_artifact_names_parse_back() {
        let id = CellId {
            scenario: 2,
            replicate: 13,
            seed: 99,
            policy: 4,
        };
        for compression in [Compression::None, Compression::Deflate] {
            let path = ExperimentPlan::cell_artifact_path_with(Path::new("d"), id, compression);
            let name = path.file_name().unwrap().to_str().unwrap();
            assert_eq!(
                ExperimentPlan::parse_cell_artifact_name(name),
                Some(((2, 13, 4), compression)),
                "{name}"
            );
        }
        // Spellings `CellId::coords` never writes must not alias a cell.
        for alias in ["cell-s+2-r13-p4.trace.jsonl", "cell-s02-r13-p4.trace.jsonl"] {
            assert_eq!(
                ExperimentPlan::parse_cell_artifact_name(alias),
                None,
                "{alias}"
            );
        }
        let d = Path::new("d");
        for other in [
            ExperimentPlan::ensemble_artifact_path(d, 2, 4),
            ExperimentPlan::cell_lease_path(d, id),
            ExperimentPlan::cell_quarantine_path(d, id),
        ] {
            let name = other.file_name().unwrap().to_str().unwrap();
            assert_eq!(
                ExperimentPlan::parse_cell_artifact_name(name),
                None,
                "{name}"
            );
        }
    }
}
