//! Stage-1 simulator: AoI-aware cache management (the paper's Fig. 1a).
//!
//! `N_R` RSUs each cache `L′` contents; every slot the MBS (via a
//! [`CacheUpdatePolicy`] per RSU) decides which content, if any, to refresh.
//! The simulator records the post-action AoI trace of every content, the
//! per-slot Eq. 1 reward, and the cumulative reward curve the paper plots.

use crate::aoi::{Age, AgeVector};
use crate::catalog::Catalog;
use crate::engine::RsuCacheEngine;
use crate::policy::{CachePolicyKind, CacheUpdatePolicy, CompiledRsuMdp, RsuSpec};
use crate::AoiCacheError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simkit::persist::{
    self, ArtifactKind, ArtifactWriter, Compression, Manifest, SharedArtifactWriter,
};
use simkit::{
    executor, RecordingMode, SeedSequence, SlotClock, Summary, TimeSeries, TraceRecorder,
};
use std::path::Path;
use vanet::Zipf;

/// Configuration of a stage-1 cache-management experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheScenario {
    /// Number of RSUs `N_R`.
    pub n_rsus: usize,
    /// Contents cached per RSU `L′`.
    pub regions_per_rsu: usize,
    /// Age cap `A_cap` of the MDP state space (must be ≥ `max_age_max`).
    pub age_cap: u32,
    /// Lower bound of the per-content freshness limit `A^max_h`.
    pub max_age_min: u32,
    /// Upper bound of the per-content freshness limit `A^max_h`.
    pub max_age_max: u32,
    /// The Eq. 1 AoI weight `w`.
    pub weight: f64,
    /// Per-update MBS→RSU communication cost.
    pub update_cost: f64,
    /// Zipf exponent of the static per-RSU content popularity.
    pub zipf_exponent: f64,
    /// Simulation length in slots (the paper runs 1000).
    pub horizon: usize,
    /// Root seed; everything (catalog, initial ages, policy learning, run)
    /// derives from it.
    pub seed: u64,
}

impl Default for CacheScenario {
    /// The paper's Fig. 1a setup: 4 RSUs × 5 contents = 20 contents managed
    /// by the MBS, 1000 slots, randomized per-content `A^max`.
    fn default() -> Self {
        CacheScenario {
            n_rsus: 4,
            regions_per_rsu: 5,
            age_cap: 9,
            max_age_min: 4,
            max_age_max: 8,
            // The cost is calibrated so that refreshing even the least
            // popular content near its limit is marginally profitable —
            // matching the paper's observation that "each content is updated
            // before the AoI value exceeds the maximum".
            weight: 1.0,
            update_cost: 0.25,
            zipf_exponent: 0.8,
            horizon: 1000,
            seed: 7,
        }
    }
}

impl CacheScenario {
    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadParameter`] /
    /// [`AoiCacheError::BadScenario`] for inconsistent settings.
    pub fn validate(&self) -> Result<(), AoiCacheError> {
        if self.n_rsus == 0 || self.regions_per_rsu == 0 {
            return Err(AoiCacheError::BadParameter {
                what: "n_rsus/regions_per_rsu",
                valid: ">= 1",
            });
        }
        if self.max_age_min == 0 || self.max_age_max < self.max_age_min {
            return Err(AoiCacheError::BadParameter {
                what: "max-age bounds",
                valid: "1 <= min <= max",
            });
        }
        if self.age_cap < self.max_age_max {
            return Err(AoiCacheError::BadScenario {
                why: "age cap must be at least the largest max age",
            });
        }
        if self.horizon == 0 {
            return Err(AoiCacheError::BadParameter {
                what: "horizon",
                valid: ">= 1",
            });
        }
        Ok(())
    }

    /// Total number of contents `L = N_R · L′`.
    pub fn n_contents(&self) -> usize {
        self.n_rsus * self.regions_per_rsu
    }
}

/// A fully instantiated stage-1 experiment: catalog, per-RSU specs and
/// initial ages, all derived deterministically from the scenario seed so
/// that every policy faces the identical problem.
///
/// Each RSU's exact MDP is compiled into its solver kernel at most
/// once — lazily, on the first run of an MDP-based policy kind — and then
/// shared by every subsequent [`run`](CacheSimulation::run): comparing five
/// MDP policy kinds against one simulation enumerates each model a single
/// time, while baseline-only experiments never build the models at all.
#[derive(Debug, Clone)]
pub struct CacheSimulation {
    scenario: CacheScenario,
    catalog: Catalog,
    specs: Vec<RsuSpec>,
    compiled: std::sync::OnceLock<Vec<CompiledRsuMdp>>,
    initial_ages: Vec<AgeVector>,
    recording: RecordingMode,
}

impl CacheSimulation {
    /// Instantiates the experiment (draws the catalog, popularity and
    /// initial ages from the scenario seed).
    ///
    /// # Errors
    ///
    /// Propagates scenario validation errors.
    pub fn new(scenario: CacheScenario) -> Result<Self, AoiCacheError> {
        scenario.validate()?;
        let mut seeds = SeedSequence::new(scenario.seed);
        let mut rng = seeds.rng("catalog");
        let catalog = Catalog::random(
            scenario.n_contents(),
            scenario.max_age_min,
            scenario.max_age_max,
            &mut rng,
        )?;
        // lint:allow(panic-hygiene): Scenario::validate already rejected a zero cap.
        let cap = Age::new(scenario.age_cap).expect("validated >= 1");

        // Popularity: Zipf weights with a per-RSU random rank permutation so
        // the hot content is not always local index 0.
        let zipf = Zipf::new(scenario.regions_per_rsu, scenario.zipf_exponent)
            .map_err(AoiCacheError::from)?;
        let base_pmf = zipf.pmf();
        let mut pop_rng = seeds.rng("popularity");
        let mut init_rng = seeds.rng("init-ages");

        let mut specs = Vec::with_capacity(scenario.n_rsus);
        let mut initial_ages = Vec::with_capacity(scenario.n_rsus);
        for k in 0..scenario.n_rsus {
            let lo = k * scenario.regions_per_rsu;
            let hi = lo + scenario.regions_per_rsu;
            // Random permutation of the Zipf ranks (Fisher–Yates).
            let mut popularity = base_pmf.clone();
            for i in (1..popularity.len()).rev() {
                let j = pop_rng.gen_range(0..=i);
                popularity.swap(i, j);
            }
            specs.push(RsuSpec {
                max_ages: catalog.max_ages(lo..hi),
                popularity,
                age_cap: cap,
                weight: scenario.weight,
                update_cost: scenario.update_cost,
            });
            // Paper: initial AoI values are random.
            let ages: Vec<Age> = (0..scenario.regions_per_rsu)
                // lint:allow(panic-hygiene): gen_range(1..=cap) draws are >= 1.
                .map(|_| Age::new(init_rng.gen_range(1..=scenario.age_cap)).expect(">= 1"))
                .collect();
            initial_ages.push(AgeVector::from_ages(ages, cap)?);
        }
        Ok(CacheSimulation {
            scenario,
            catalog,
            specs,
            compiled: std::sync::OnceLock::new(),
            initial_ages,
            recording: RecordingMode::Full,
        })
    }

    /// The scenario this experiment was built from.
    pub fn scenario(&self) -> &CacheScenario {
        &self.scenario
    }

    /// How much of the per-content AoI traces runs of this experiment
    /// retain (default: [`RecordingMode::Full`]).
    pub fn recording(&self) -> RecordingMode {
        self.recording
    }

    /// Sets the AoI-trace retention policy of subsequent runs.
    ///
    /// The retention policy is a *measurement* knob, not part of the
    /// experiment identity: every scalar statistic, the per-slot reward
    /// series and the cumulative-reward curve are identical in every mode —
    /// only how much of the `O(horizon × contents)` per-content trace data
    /// is kept changes ([`RecordingMode::SummaryOnly`] keeps none, shrinking
    /// a run's trace memory to O(contents)).
    pub fn set_recording(&mut self, mode: RecordingMode) {
        self.recording = mode;
    }

    /// Builder-style [`set_recording`](CacheSimulation::set_recording).
    #[must_use]
    pub fn with_recording(mut self, mode: RecordingMode) -> Self {
        self.recording = mode;
        self
    }

    /// The drawn content catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The per-RSU problem specs (inputs to policy construction).
    pub fn specs(&self) -> &[RsuSpec] {
        &self.specs
    }

    /// The per-RSU compiled MDPs shared by every run of this experiment,
    /// built (and cached) on first use. The per-RSU compiles are
    /// independent and deterministic, so they fan out across the shared
    /// executor — one job per RSU.
    ///
    /// # Errors
    ///
    /// Propagates model-construction and compilation errors.
    pub fn compiled(&self) -> Result<&[CompiledRsuMdp], AoiCacheError> {
        if self.compiled.get().is_none() {
            let workers = executor::worker_count(self.specs.len(), true, 1);
            let built = executor::parallel_map(workers, &self.specs, |_, spec| {
                CompiledRsuMdp::from_spec(spec)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
            // A concurrent caller may have won the race; either value is
            // identical (deterministic construction), so the loser is
            // simply dropped.
            let _ = self.compiled.set(built);
        }
        self.compiled
            .get()
            .map(Vec::as_slice)
            .ok_or(AoiCacheError::Internal {
                what: "compiled kernels missing right after initialization",
            })
    }

    /// Builds one policy of the given kind per RSU (solving on the shared,
    /// lazily compiled kernels for the MDP-based kinds) and runs the
    /// experiment. This is exactly the cell body a grid
    /// [`ExperimentPlan`](crate::ExperimentPlan) executes, so a single run
    /// and the corresponding grid cell produce equal reports.
    ///
    /// Each RSU's policy is built from its own deterministic RNG stream
    /// (derived up front, in RSU order), so the per-RSU solves fan out
    /// across the shared executor without changing results.
    ///
    /// # Errors
    ///
    /// Propagates policy-construction errors.
    pub fn run(&self, kind: CachePolicyKind) -> Result<CacheRunReport, AoiCacheError> {
        let policies = self.build_policies(kind)?;
        self.run_with(policies, kind.label().to_string())
    }

    /// [`run`](CacheSimulation::run), but **spilling** every retained
    /// trace sample to the artifact file at `path` slot by slot instead of
    /// holding it in memory: the returned report's
    /// [`aoi_traces`](CacheRunReport::aoi_traces) are empty (the samples
    /// live on disk) while every other field — summaries, reward curves,
    /// scalar statistics — is identical to an in-memory run's. Re-reading
    /// the artifact ([`simkit::persist::read_artifact`]) reconstructs the
    /// traces bit-identically to what an in-memory run would have
    /// retained; the artifact also carries the reward and
    /// cumulative-reward series, so it is self-contained.
    ///
    /// # Errors
    ///
    /// Propagates policy-construction errors and artifact write failures
    /// ([`AoiCacheError::Persist`]).
    pub fn run_artifact(
        &self,
        kind: CachePolicyKind,
        path: &Path,
    ) -> Result<CacheRunReport, AoiCacheError> {
        self.run_artifact_with(kind, path, Compression::None)
    }

    /// [`run_artifact`](CacheSimulation::run_artifact) under an explicit
    /// artifact encoding. With [`Compression::Deflate`] the samples stream
    /// through the codec of [`simkit::persist::compress`] (the caller
    /// picks the path — conventionally with the `.z` suffix, see
    /// [`Compression::apply_to`]); the per-sample write path stays
    /// allocation-free and [`simkit::persist::read_artifact`] reads both
    /// encodings transparently.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_artifact`](CacheSimulation::run_artifact).
    pub fn run_artifact_with(
        &self,
        kind: CachePolicyKind,
        path: &Path,
        compression: Compression,
    ) -> Result<CacheRunReport, AoiCacheError> {
        let policies = self.build_policies(kind)?;
        let manifest = Manifest {
            artifact: ArtifactKind::Trace,
            scenario: "cache".to_string(),
            policy: kind.label().to_string(),
            seed: Some(self.scenario.seed),
            recording: self.recording,
            config_hash: persist::config_hash(&self.scenario),
        };
        let writer = ArtifactWriter::create_with(path, &manifest, compression)
            .map_err(AoiCacheError::from)?
            .shared();
        let report = self.run_with_sink(policies, kind.label().to_string(), Some(&writer))?;
        ArtifactWriter::finish_shared(writer).map_err(AoiCacheError::from)?;
        Ok(report)
    }

    /// The per-RSU initial AoI vectors drawn from the scenario seed (the
    /// state every run — simulated or served — starts from).
    pub fn initial_ages(&self) -> &[AgeVector] {
        &self.initial_ages
    }

    /// Builds one policy of `kind` per RSU from per-RSU deterministic RNG
    /// streams (solving on the shared compiled kernels for MDP kinds).
    /// The same policy tables drive simulator runs and the online
    /// `aoi-serve` engine.
    ///
    /// # Errors
    ///
    /// Propagates policy-construction errors.
    pub fn build_policies(
        &self,
        kind: CachePolicyKind,
    ) -> Result<Vec<Box<dyn CacheUpdatePolicy>>, AoiCacheError> {
        let compiled = if kind.uses_mdp() {
            Some(self.compiled()?)
        } else {
            None
        };
        let mut seeds = SeedSequence::new(self.scenario.seed);
        let _ = seeds.rng("catalog");
        let _ = seeds.rng("popularity");
        let _ = seeds.rng("init-ages");
        let build_seeds: Vec<u64> = (0..self.specs.len())
            .map(|_| seeds.derive("policy-build"))
            .collect();
        let workers = executor::worker_count(self.specs.len(), kind.uses_mdp(), 1);
        executor::parallel_map(workers, &build_seeds, |k, seed| {
            let mut rng = StdRng::seed_from_u64(*seed);
            kind.build_with(compiled.map(|c| &c[k]), &mut rng)
        })
        .into_iter()
        .collect::<Result<_, _>>()
    }

    /// Builds the per-RSU clock-agnostic stage-1 cores for `kind`: one
    /// [`RsuCacheEngine`] per RSU, loaded with this experiment's solved
    /// policy table, reward model, freshness limits and seed-derived
    /// initial ages. [`run`](CacheSimulation::run) drives exactly these
    /// cores through its slot loop; the online `aoi-serve` layer drives
    /// the same cores from an external request stream.
    ///
    /// # Errors
    ///
    /// Propagates policy-construction errors.
    pub fn cache_engines(
        &self,
        kind: CachePolicyKind,
    ) -> Result<Vec<RsuCacheEngine>, AoiCacheError> {
        let policies = self.build_policies(kind)?;
        self.assemble_engines(policies)
    }

    /// Wraps caller-supplied policies into per-RSU engine cores (the
    /// shared assembly step of [`cache_engines`](Self::cache_engines) and
    /// every run entry point).
    fn assemble_engines(
        &self,
        policies: Vec<Box<dyn CacheUpdatePolicy>>,
    ) -> Result<Vec<RsuCacheEngine>, AoiCacheError> {
        if policies.len() != self.specs.len() {
            return Err(AoiCacheError::BadParameter {
                what: "policies",
                valid: "one per RSU",
            });
        }
        let mut engines = Vec::with_capacity(self.specs.len());
        for (k, policy) in policies.into_iter().enumerate() {
            let spec = &self.specs[k];
            engines.push(RsuCacheEngine::new(
                policy,
                spec.reward_model()?,
                self.initial_ages[k].clone(),
                spec.max_ages.clone(),
                spec.weight,
                spec.update_cost,
            )?);
        }
        Ok(engines)
    }

    /// Runs the experiment with caller-supplied per-RSU policies.
    ///
    /// # Errors
    ///
    /// Returns [`AoiCacheError::BadParameter`] if the policy count does not
    /// match the RSU count.
    pub fn run_with(
        &self,
        policies: Vec<Box<dyn CacheUpdatePolicy>>,
        label: String,
    ) -> Result<CacheRunReport, AoiCacheError> {
        self.run_with_sink(policies, label, None)
    }

    /// The shared run body: an in-memory run when `artifact` is `None`,
    /// a spilling run streaming into the artifact's channels otherwise.
    ///
    /// Everything the slot loop touches is allocated up front (the
    /// recorders pre-size their retained buffers to the exact retained
    /// length, or register their artifact channel), so the loop itself
    /// performs zero heap allocation per slot — see
    /// `core/tests/alloc_free.rs`, which covers the spilling path too.
    fn run_with_sink(
        &self,
        policies: Vec<Box<dyn CacheUpdatePolicy>>,
        label: String,
        artifact: Option<&SharedArtifactWriter>,
    ) -> Result<CacheRunReport, AoiCacheError> {
        let mut seeds = SeedSequence::new(self.scenario.seed);
        let mut rng = seeds.rng("run");
        let n_rsus = self.scenario.n_rsus;
        let per_rsu = self.scenario.regions_per_rsu;
        let horizon = self.scenario.horizon;
        let mut engines = self.assemble_engines(policies)?;
        let mut aoi_recorders: Vec<TraceRecorder> = Vec::with_capacity(n_rsus * per_rsu);
        for k in 0..n_rsus {
            for h in 0..per_rsu {
                let name = format!("rsu{k}/content{h}");
                aoi_recorders.push(match artifact {
                    Some(writer) => TraceRecorder::to_artifact(name, self.recording, writer)?,
                    None => TraceRecorder::new(name, self.recording, horizon),
                });
            }
        }
        let mut clock = SlotClock::new();
        let mut reward_series = TimeSeries::with_capacity("reward", horizon);
        let mut updates = 0u64;
        let mut violation_content_slots = 0u64;
        let mut aoi_ratio_sum = 0.0;
        let mut utility_sum = 0.0;
        let mut cost_sum = 0.0;

        // Per slot: per-RSU decisions, refreshes, Eq. 1 reward accounting,
        // per-content recording, and aging — each RSU's state transition
        // delegated to its [`RsuCacheEngine`] core, in the exact legacy
        // statement order (bit-identity is pinned by
        // `core/tests/engine_identity.rs`).
        for _ in 0..horizon {
            let now = clock.now();
            let mut slot_reward = 0.0;
            for (k, engine) in engines.iter_mut().enumerate() {
                let spec = &self.specs[k];
                let decision = engine.decide_static(now, &spec.popularity, &mut rng);
                if let Some(h) = decision {
                    engine.apply_refresh(h)?;
                    updates += 1;
                }
                // Post-action bookkeeping.
                let utility = engine.aoi_utility(&spec.popularity);
                let cost = engine.action_cost(decision.is_some());
                slot_reward += spec.weight * utility - cost;
                utility_sum += spec.weight * utility;
                cost_sum += cost;
                for h in 0..per_rsu {
                    let age = engine.age(h);
                    let max_age = spec.max_ages[h];
                    aoi_recorders[k * per_rsu + h].record(now, f64::from(age.get()));
                    aoi_ratio_sum += age.ratio_to(max_age);
                    if age.exceeds(max_age) {
                        violation_content_slots += 1;
                    }
                }
            }
            reward_series.push(now, slot_reward);
            for engine in &mut engines {
                engine.advance();
            }
            clock.tick();
        }

        let mut aoi_traces = Vec::with_capacity(aoi_recorders.len());
        let mut aoi_summaries = Vec::with_capacity(aoi_recorders.len());
        for recorder in aoi_recorders {
            let (series, summary) = recorder.into_parts();
            aoi_traces.push(series);
            aoi_summaries.push(summary);
        }
        let content_slots = (horizon * n_rsus * per_rsu) as u64;
        let cumulative_reward = reward_series.cumulative();
        if let Some(writer) = artifact {
            // The headline curves stay in the report either way (they are
            // O(horizon)); writing them too makes the artifact
            // self-contained.
            let mut writer = writer.borrow_mut();
            writer.series(&reward_series)?;
            writer.series(&cumulative_reward)?;
        }
        Ok(CacheRunReport {
            policy: label,
            recording: self.recording,
            aoi_traces,
            aoi_summaries,
            cumulative_reward,
            reward: reward_series,
            updates,
            violation_content_slots,
            content_slots,
            mean_aoi_ratio: aoi_ratio_sum / content_slots as f64,
            mean_utility: utility_sum / horizon as f64,
            mean_cost: cost_sum / horizon as f64,
            horizon: horizon as u64,
            n_rsus,
            regions_per_rsu: per_rsu,
        })
    }
}

/// Everything measured in one stage-1 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheRunReport {
    /// Label of the policy that produced this run.
    pub policy: String,
    /// How much of the per-content AoI traces this run retained.
    pub recording: RecordingMode,
    /// Post-action AoI trace per content, indexed `rsu · L′ + content` —
    /// complete under [`RecordingMode::Full`], strided under
    /// [`RecordingMode::Decimate`], empty under
    /// [`RecordingMode::SummaryOnly`].
    pub aoi_traces: Vec<TimeSeries>,
    /// Exact per-content summary statistics (Welford mean/variance and
    /// min/max over **every** post-action age, regardless of `recording`),
    /// indexed like `aoi_traces`.
    pub aoi_summaries: Vec<Summary>,
    /// Per-slot Eq. 1 reward (summed over RSUs).
    pub reward: TimeSeries,
    /// Cumulative reward curve (the paper's rising curve in Fig. 1a).
    pub cumulative_reward: TimeSeries,
    /// Total updates pushed.
    pub updates: u64,
    /// `(content, slot)` pairs whose post-action age exceeded `A^max`.
    pub violation_content_slots: u64,
    /// Total `(content, slot)` pairs observed.
    pub content_slots: u64,
    /// Mean post-action `age / A^max` over all content-slots.
    pub mean_aoi_ratio: f64,
    /// Mean per-slot weighted AoI utility (Eq. 2 × w, summed over RSUs).
    pub mean_utility: f64,
    /// Mean per-slot update cost (Eq. 3, summed over RSUs).
    pub mean_cost: f64,
    /// Slots simulated.
    pub horizon: u64,
    /// RSUs simulated.
    pub n_rsus: usize,
    /// Contents per RSU.
    pub regions_per_rsu: usize,
}

impl CacheRunReport {
    /// The AoI trace of one content.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn aoi_trace(&self, rsu: usize, content: usize) -> &TimeSeries {
        assert!(rsu < self.n_rsus && content < self.regions_per_rsu);
        &self.aoi_traces[rsu * self.regions_per_rsu + content]
    }

    /// The exact AoI summary statistics of one content (available in every
    /// [`RecordingMode`], including `SummaryOnly`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn aoi_summary(&self, rsu: usize, content: usize) -> Summary {
        assert!(rsu < self.n_rsus && content < self.regions_per_rsu);
        self.aoi_summaries[rsu * self.regions_per_rsu + content]
    }

    /// Fraction of content-slots in violation of their freshness limit.
    pub fn violation_rate(&self) -> f64 {
        self.violation_content_slots as f64 / self.content_slots as f64
    }

    /// Mean updates pushed per slot (across all RSUs).
    pub fn updates_per_slot(&self) -> f64 {
        self.updates as f64 / self.horizon as f64
    }

    /// Final value of the cumulative reward curve.
    pub fn final_cumulative_reward(&self) -> f64 {
        self.cumulative_reward.last().map_or(0.0, |p| p.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scenario small enough for exact solvers in debug builds.
    fn tiny() -> CacheScenario {
        CacheScenario {
            n_rsus: 2,
            regions_per_rsu: 3,
            age_cap: 6,
            max_age_min: 3,
            max_age_max: 5,
            weight: 1.0,
            update_cost: 0.2,
            zipf_exponent: 0.8,
            horizon: 300,
            seed: 42,
        }
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut s = tiny();
        s.age_cap = 3;
        assert!(CacheSimulation::new(s).is_err());
        let mut s = tiny();
        s.n_rsus = 0;
        assert!(CacheSimulation::new(s).is_err());
        let mut s = tiny();
        s.horizon = 0;
        assert!(CacheSimulation::new(s).is_err());
        let mut s = tiny();
        s.max_age_min = 0;
        assert!(CacheSimulation::new(s).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = CacheSimulation::new(tiny())
            .unwrap()
            .run(CachePolicyKind::Myopic)
            .unwrap();
        let b = CacheSimulation::new(tiny())
            .unwrap()
            .run(CachePolicyKind::Myopic)
            .unwrap();
        assert_eq!(a.final_cumulative_reward(), b.final_cumulative_reward());
        assert_eq!(a.updates, b.updates);
    }

    #[test]
    fn report_shapes() {
        let report = CacheSimulation::new(tiny())
            .unwrap()
            .run(CachePolicyKind::Myopic)
            .unwrap();
        assert_eq!(report.aoi_traces.len(), 6);
        assert_eq!(report.reward.len(), 300);
        assert_eq!(report.cumulative_reward.len(), 300);
        assert_eq!(report.content_slots, 300 * 6);
        let trace = report.aoi_trace(1, 2);
        assert_eq!(trace.len(), 300);
        // Post-action ages are always within [1, cap].
        for p in trace.iter() {
            assert!(p.value >= 1.0 && p.value <= 6.0);
        }
    }

    #[test]
    fn never_policy_costs_nothing_and_violates() {
        let report = CacheSimulation::new(tiny())
            .unwrap()
            .run(CachePolicyKind::Never)
            .unwrap();
        assert_eq!(report.updates, 0);
        assert_eq!(report.mean_cost, 0.0);
        // All ages saturate at the cap > max ages: violations everywhere in
        // steady state.
        assert!(report.violation_rate() > 0.5, "{}", report.violation_rate());
    }

    #[test]
    fn vi_policy_keeps_popular_contents_fresh() {
        // The optimal policy under Eq. 2's hyperbolic utility concentrates
        // updates on the popular contents (the paper's Fig. 1a accordingly
        // plots two *selected* contents of one RSU): after a warm-up, the
        // most popular content of every RSU must stay within its freshness
        // limit, tracing the sawtooth the paper shows.
        let sim = CacheSimulation::new(tiny()).unwrap();
        let report = sim
            .run(CachePolicyKind::ValueIteration { gamma: 0.9 })
            .unwrap();
        assert!(report.updates > 0);
        let warmup = 50;
        for (k, spec) in sim.specs().iter().enumerate() {
            let hot = spec
                .popularity
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(h, _)| h)
                .unwrap();
            let limit = f64::from(spec.max_ages[hot].get());
            for p in report.aoi_trace(k, hot).iter().skip(warmup) {
                assert!(
                    p.value <= limit,
                    "rsu{k} hot content {hot} violated: age {} > {limit} at {}",
                    p.value,
                    p.slot
                );
            }
        }
        // And the optimal policy must never violate *more* than never-update.
        let never = sim.run(CachePolicyKind::Never).unwrap();
        assert!(report.violation_rate() < never.violation_rate());
    }

    #[test]
    fn vi_beats_baselines_on_reward() {
        let sim = CacheSimulation::new(tiny()).unwrap();
        let vi = sim
            .run(CachePolicyKind::ValueIteration { gamma: 0.9 })
            .unwrap();
        let never = sim.run(CachePolicyKind::Never).unwrap();
        let random = sim
            .run(CachePolicyKind::Random { probability: 0.5 })
            .unwrap();
        assert!(
            vi.final_cumulative_reward() > never.final_cumulative_reward(),
            "vi {} vs never {}",
            vi.final_cumulative_reward(),
            never.final_cumulative_reward()
        );
        assert!(
            vi.final_cumulative_reward() > random.final_cumulative_reward(),
            "vi {} vs random {}",
            vi.final_cumulative_reward(),
            random.final_cumulative_reward()
        );
    }

    #[test]
    fn cumulative_reward_rises_under_vi() {
        // The paper's Fig. 1a observation: cumulative MBS reward keeps
        // rising under the proposed policy.
        let report = CacheSimulation::new(tiny())
            .unwrap()
            .run(CachePolicyKind::ValueIteration { gamma: 0.9 })
            .unwrap();
        let curve: Vec<f64> = report.cumulative_reward.values().collect();
        let quarter = curve.len() / 4;
        assert!(curve[2 * quarter] > curve[quarter]);
        assert!(curve[3 * quarter] > curve[2 * quarter]);
    }

    #[test]
    fn updates_per_slot_respects_constraint() {
        // At most one update per RSU per slot.
        let report = CacheSimulation::new(tiny())
            .unwrap()
            .run(CachePolicyKind::Periodic { period: 1 })
            .unwrap();
        assert!(report.updates_per_slot() <= 2.0 + 1e-12);
        assert!((report.updates_per_slot() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn average_reward_policy_matches_discounted_long_run() {
        // RVI solves the long-run criterion the paper actually states; its
        // realized reward must be at least the discounted policy's (up to
        // simulation noise from the shared random initial ages).
        let sim = CacheSimulation::new(tiny()).unwrap();
        let avg = sim.run(CachePolicyKind::AverageReward).unwrap();
        let vi = sim
            .run(CachePolicyKind::ValueIteration { gamma: 0.95 })
            .unwrap();
        let gap = (avg.final_cumulative_reward() - vi.final_cumulative_reward()).abs();
        assert!(
            gap / vi.final_cumulative_reward() < 0.05,
            "avg-reward {} vs discounted {}",
            avg.final_cumulative_reward(),
            vi.final_cumulative_reward()
        );
    }

    #[test]
    fn receding_horizon_approaches_vi_with_depth() {
        let sim = CacheSimulation::new(tiny()).unwrap();
        let vi = sim
            .run(CachePolicyKind::ValueIteration { gamma: 0.95 })
            .unwrap();
        let shallow = sim
            .run(CachePolicyKind::RecedingHorizon { horizon: 2 })
            .unwrap();
        let deep = sim
            .run(CachePolicyKind::RecedingHorizon { horizon: 40 })
            .unwrap();
        // Trajectory rewards are not exactly monotone in depth (different
        // tie-breaks), but both lookaheads must land within a few percent
        // of the infinite-horizon optimum, and beat a blind baseline.
        let gap_shallow = (vi.final_cumulative_reward() - shallow.final_cumulative_reward()).abs();
        let gap_deep = (vi.final_cumulative_reward() - deep.final_cumulative_reward()).abs();
        assert!(gap_shallow / vi.final_cumulative_reward() < 0.05);
        assert!(gap_deep / vi.final_cumulative_reward() < 0.05);
        let random = sim
            .run(CachePolicyKind::Random { probability: 0.5 })
            .unwrap();
        assert!(deep.final_cumulative_reward() > random.final_cumulative_reward());
    }

    #[test]
    fn sarsa_policy_is_competent() {
        let sim = CacheSimulation::new(tiny()).unwrap();
        let sarsa = sim
            .run(CachePolicyKind::Sarsa {
                gamma: 0.9,
                steps: 60_000,
            })
            .unwrap();
        let never = sim.run(CachePolicyKind::Never).unwrap();
        assert!(sarsa.final_cumulative_reward() > 1.5 * never.final_cumulative_reward());
    }

    #[test]
    fn specs_accessors() {
        let sim = CacheSimulation::new(tiny()).unwrap();
        assert_eq!(sim.specs().len(), 2);
        assert_eq!(sim.catalog().len(), 6);
        assert_eq!(sim.scenario().n_contents(), 6);
        for spec in sim.specs() {
            assert!((spec.popularity.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn baseline_runs_do_not_compile_mdps() {
        let sim = CacheSimulation::new(tiny()).unwrap();
        let _ = sim.run(CachePolicyKind::Never).unwrap();
        let _ = sim.run(CachePolicyKind::Myopic).unwrap();
        assert!(
            sim.compiled.get().is_none(),
            "baselines must not trigger MDP compilation"
        );
        let _ = sim
            .run(CachePolicyKind::ValueIteration { gamma: 0.9 })
            .unwrap();
        assert!(sim.compiled.get().is_some(), "MDP kinds compile lazily");
    }

    #[test]
    fn run_with_validates_policy_count() {
        let sim = CacheSimulation::new(tiny()).unwrap();
        let err = sim.run_with(vec![], "empty".to_string());
        assert!(err.is_err());
    }

    #[test]
    fn decimate_one_reports_equal_full() {
        let sim = CacheSimulation::new(tiny()).unwrap();
        assert_eq!(sim.recording(), RecordingMode::Full);
        let full = sim.run(CachePolicyKind::Myopic).unwrap();
        let dec = sim
            .clone()
            .with_recording(RecordingMode::Decimate(1))
            .run(CachePolicyKind::Myopic)
            .unwrap();
        // Everything except the mode tag itself must be identical.
        assert_eq!(dec.recording, RecordingMode::Decimate(1));
        let relabeled = CacheRunReport {
            recording: RecordingMode::Full,
            ..dec
        };
        assert_eq!(relabeled, full, "Decimate(1) must reproduce Full exactly");
    }

    #[test]
    fn summary_only_matches_post_hoc_summaries_of_full_traces() {
        let sim = CacheSimulation::new(tiny()).unwrap();
        let full = sim.run(CachePolicyKind::Myopic).unwrap();
        let summary = sim
            .clone()
            .with_recording(RecordingMode::SummaryOnly)
            .run(CachePolicyKind::Myopic)
            .unwrap();
        // Traces are dropped, one (empty) slot per content remains.
        assert_eq!(summary.aoi_traces.len(), 6);
        assert!(summary.aoi_traces.iter().all(|t| t.is_empty()));
        // The streamed statistics equal a post-hoc pass over the full
        // traces to well below 1e-12 (same accumulator, same sample order
        // — bitwise equal in fact).
        for (k, trace) in full.aoi_traces.iter().enumerate() {
            let post_hoc: simkit::RunningStats = trace.values().collect();
            let want = post_hoc.summary();
            let got = summary.aoi_summaries[k];
            assert_eq!(got.count, want.count, "content {k}");
            assert!((got.mean - want.mean).abs() < 1e-12, "content {k}");
            assert!((got.std_dev - want.std_dev).abs() < 1e-12, "content {k}");
            assert_eq!(got.min, want.min, "content {k}");
            assert_eq!(got.max, want.max, "content {k}");
        }
        // Every scalar statistic and the headline curves are unaffected.
        assert_eq!(summary.cumulative_reward, full.cumulative_reward);
        assert_eq!(summary.reward, full.reward);
        assert_eq!(summary.updates, full.updates);
        assert_eq!(summary.mean_aoi_ratio, full.mean_aoi_ratio);
        assert_eq!(summary.aoi_summaries, full.aoi_summaries);
    }

    #[test]
    fn decimated_traces_stride_and_keep_exact_summaries() {
        let sim = CacheSimulation::new(tiny())
            .unwrap()
            .with_recording(RecordingMode::Decimate(10));
        let report = sim.run(CachePolicyKind::Never).unwrap();
        for trace in &report.aoi_traces {
            assert_eq!(trace.len(), 30, "300 slots / 10");
        }
        for summary in &report.aoi_summaries {
            assert_eq!(summary.count, 300, "stats must see every slot");
        }
    }
}
