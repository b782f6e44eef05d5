//! The full two-stage scheme on the vehicular-network substrate.
//!
//! Each slot:
//!
//! 1. the network advances (mobility, requests, popularity estimates),
//! 2. **stage 1** — every RSU's cache policy picks an update using the
//!    *live* popularity estimate; updates are priced by the network's cost
//!    model (congestion models see the slot's concurrency),
//! 3. **stage 2** — every RSU's service policy drains its request queue;
//!    requests for contents older than their freshness limit are *stale
//!    hits* and incur an extra MBS-fetch cost,
//! 4. ages advance.

use crate::aoi::{Age, AgeVector};
use crate::catalog::Catalog;
use crate::engine::{RsuCacheEngine, RsuServiceEngine};
use crate::policy::{CachePolicyKind, CacheUpdatePolicy, CompiledRsuMdp, RsuSpec};
use crate::reward::RewardModel;
use crate::service::{ServiceLevel, ServicePolicy, ServicePolicyKind};
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
use vanet::{Network, NetworkConfig, RsuId};

/// Configuration of a joint two-stage experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointScenario {
    /// The road/traffic/request substrate.
    pub network: NetworkConfig,
    /// Age cap `A_cap`.
    pub age_cap: u32,
    /// Lower bound of per-content `A^max_h`.
    pub max_age_min: u32,
    /// Upper bound of per-content `A^max_h`.
    pub max_age_max: u32,
    /// The Eq. 1 AoI weight `w`.
    pub weight: f64,
    /// Stage-1 cache policy.
    pub cache_policy: CachePolicyKind,
    /// Stage-2 service policy.
    pub service_policy: ServicePolicyKind,
    /// Service-level menu of every RSU.
    pub levels: Vec<ServiceLevel>,
    /// Extra cost charged when a request hits a stale cached content (the
    /// RSU falls back to fetching from the MBS).
    pub mbs_fetch_cost: f64,
    /// Slots simulated (after warm-up).
    pub horizon: usize,
    /// Mobility-only warm-up slots.
    pub warmup: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for JointScenario {
    fn default() -> Self {
        JointScenario {
            network: NetworkConfig::default(),
            age_cap: 9,
            max_age_min: 4,
            max_age_max: 8,
            weight: 1.0,
            cache_policy: CachePolicyKind::Myopic,
            service_policy: ServicePolicyKind::Lyapunov { v: 20.0 },
            // Scaled to the default network's offered load (~15–20 requests
            // per slot per RSU at full traffic); the standard three-level
            // menu of the standalone stage-2 scenario would be overloaded.
            levels: vec![
                ServiceLevel::new(0.0, 0.0),
                ServiceLevel::new(1.0, 8.0),
                ServiceLevel::new(3.0, 25.0),
            ],
            mbs_fetch_cost: 1.0,
            horizon: 1000,
            warmup: 50,
            seed: 23,
        }
    }
}

impl JointScenario {
    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns parameter/scenario errors for inconsistent settings.
    pub fn validate(&self) -> Result<(), AoiCacheError> {
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
        if self.levels.is_empty() {
            return Err(AoiCacheError::BadParameter {
                what: "levels",
                valid: "non-empty",
            });
        }
        if !self.mbs_fetch_cost.is_finite() || self.mbs_fetch_cost < 0.0 {
            return Err(AoiCacheError::BadParameter {
                what: "mbs_fetch_cost",
                valid: ">= 0 and finite",
            });
        }
        Ok(())
    }
}

/// Everything measured in one joint run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointReport {
    /// How much of the per-RSU backlog traces this run retained.
    pub recording: RecordingMode,
    /// Stage-1 per-slot Eq. 1 reward (live popularity).
    pub cache_reward: TimeSeries,
    /// Cumulative stage-1 reward.
    pub cumulative_cache_reward: TimeSeries,
    /// Per-RSU backlog trajectories — complete under
    /// [`RecordingMode::Full`], strided under [`RecordingMode::Decimate`],
    /// empty under [`RecordingMode::SummaryOnly`].
    pub queues: Vec<TimeSeries>,
    /// Exact per-RSU backlog summary statistics (over every slot,
    /// regardless of `recording`).
    pub queue_summaries: Vec<Summary>,
    /// Total requests issued by vehicles.
    pub total_requests: u64,
    /// Requests that hit a stale cached content.
    pub stale_requests: u64,
    /// Cache updates pushed.
    pub updates: u64,
    /// Mean backlog across RSUs and slots.
    pub mean_queue: f64,
    /// Mean per-slot service cost (all RSUs).
    pub mean_service_cost: f64,
    /// Mean per-slot update cost (all RSUs).
    pub mean_update_cost: f64,
    /// Mean per-slot stale-fallback cost (all RSUs).
    pub mean_stale_cost: f64,
}

impl JointReport {
    /// Fraction of requests served from fresh cache content.
    pub fn freshness_rate(&self) -> f64 {
        if self.total_requests == 0 {
            return 1.0;
        }
        1.0 - self.stale_requests as f64 / self.total_requests as f64
    }

    /// Mean per-slot total cost (service + updates + stale fallbacks).
    pub fn mean_total_cost(&self) -> f64 {
        self.mean_service_cost + self.mean_update_cost + self.mean_stale_cost
    }
}

/// Runs the full two-stage scheme, retaining every per-RSU backlog sample
/// ([`RecordingMode::Full`]).
///
/// # Errors
///
/// Propagates scenario validation, network construction and policy
/// construction errors.
pub fn run_joint(scenario: &JointScenario) -> Result<JointReport, AoiCacheError> {
    run_joint_recorded(scenario, RecordingMode::Full)
}

/// [`run_joint`] with an explicit backlog-trace retention policy.
///
/// The retention policy is a measurement knob, not part of the experiment
/// identity: every scalar statistic, the reward series and the cumulative
/// reward curve are identical in every mode — only how much of the
/// `O(horizon × RSUs)` backlog trace data is kept changes.
///
/// # Errors
///
/// Propagates scenario validation, network construction and policy
/// construction errors.
pub fn run_joint_recorded(
    scenario: &JointScenario,
    recording: RecordingMode,
) -> Result<JointReport, AoiCacheError> {
    run_joint_sunk(scenario, recording, None)
}

/// [`run_joint_recorded`], but **spilling** every retained backlog sample
/// to the artifact file at `path` slot by slot, under the given encoding
/// (see [`simkit::persist::compress`]): the returned report's
/// [`queues`](JointReport::queues) are empty (the samples live on disk)
/// while every other field is identical to an in-memory run's. The
/// artifact also carries the cache-reward and cumulative-reward series;
/// re-reading it reconstructs each series bit-identically under either
/// encoding.
///
/// # Errors
///
/// Same conditions as [`run_joint_recorded`], plus artifact write
/// failures ([`AoiCacheError::Persist`]).
pub fn run_joint_artifact_with(
    scenario: &JointScenario,
    recording: RecordingMode,
    path: &Path,
    compression: Compression,
) -> Result<JointReport, AoiCacheError> {
    scenario.validate()?;
    let manifest = Manifest {
        artifact: ArtifactKind::Trace,
        scenario: "joint".to_string(),
        policy: format!(
            "{}+{}",
            scenario.cache_policy.label(),
            scenario.service_policy.label()
        ),
        seed: Some(scenario.seed),
        recording,
        config_hash: persist::config_hash(scenario),
    };
    let writer = ArtifactWriter::create_with(path, &manifest, compression)
        .map_err(AoiCacheError::from)?
        .shared();
    let report = run_joint_sunk(scenario, recording, Some(&writer))?;
    ArtifactWriter::finish_shared(writer).map_err(AoiCacheError::from)?;
    Ok(report)
}

fn run_joint_sunk(
    scenario: &JointScenario,
    recording: RecordingMode,
    artifact: Option<&SharedArtifactWriter>,
) -> Result<JointReport, AoiCacheError> {
    scenario.validate()?;
    let mut seeds = SeedSequence::new(scenario.seed);
    let mut network = Network::new(scenario.network)?;
    let layout = network.layout().clone();
    let n_rsus = layout.n_rsus();
    // lint:allow(panic-hygiene): Scenario::validate already rejected a zero cap.
    let cap = Age::new(scenario.age_cap).expect("validated >= 1");

    // Catalog over all regions.
    let mut catalog_rng = seeds.rng("catalog");
    let catalog = Catalog::random(
        layout.n_regions(),
        scenario.max_age_min,
        scenario.max_age_max,
        &mut catalog_rng,
    )?;

    // Per-RSU problem specs; the build-time popularity is the (uniform)
    // initial estimate — live estimates flow in during the run.
    let specs: Vec<RsuSpec> = (0..n_rsus)
        .map(|k| {
            let coverage = layout.coverage(RsuId(k));
            let n_local = coverage.end - coverage.start;
            RsuSpec {
                max_ages: catalog.max_ages(coverage.clone()),
                popularity: vec![1.0 / n_local as f64; n_local],
                age_cap: cap,
                weight: scenario.weight,
                update_cost: network.update_cost(RsuId(k), 1),
            }
        })
        .collect();

    // Per-RSU MDP compiles and solves are independent, so they fan out
    // across the shared executor; each RSU builds from its own
    // deterministic RNG stream (derived up front, in RSU order), keeping
    // results identical for any worker count.
    let build_seeds: Vec<u64> = (0..n_rsus).map(|_| seeds.derive("policy-build")).collect();
    let workers = executor::worker_count(n_rsus, scenario.cache_policy.uses_mdp(), 1);
    type BuiltRsu = (
        Box<dyn CacheUpdatePolicy>,
        Box<dyn ServicePolicy>,
        RewardModel,
    );
    let built: Vec<BuiltRsu> = executor::parallel_map(workers, &build_seeds, |k, seed| {
        let spec = &specs[k];
        // Compile the RSU's MDP once (when the policy kind solves one) so
        // the solver sweeps the compiled kernel rather than the trait callback.
        let compiled = if scenario.cache_policy.uses_mdp() {
            Some(CompiledRsuMdp::from_spec(spec)?)
        } else {
            None
        };
        let mut rng = StdRng::seed_from_u64(*seed);
        let cache_policy = scenario
            .cache_policy
            .build_with(compiled.as_ref(), &mut rng)?;
        let service_policy = scenario.service_policy.build()?;
        let reward = spec.reward_model()?;
        Ok::<BuiltRsu, AoiCacheError>((cache_policy, service_policy, reward))
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    let mut init_rng = seeds.rng("init-ages");
    let ages: Vec<AgeVector> = (0..n_rsus)
        .map(|k| {
            let n_local = layout.coverage_len(RsuId(k));
            let v: Vec<Age> = (0..n_local)
                // lint:allow(panic-hygiene): gen_range(1..=cap) draws are >= 1.
                .map(|_| Age::new(init_rng.gen_range(1..=scenario.age_cap)).expect(">= 1"))
                .collect();
            AgeVector::from_ages(v, cap)
        })
        .collect::<Result<_, _>>()?;

    // Assemble the clock-agnostic per-RSU cores the slot loop drives (the
    // same `RsuCacheEngine`/`RsuServiceEngine` ops the standalone
    // simulator and the `aoi-serve` engine compose).
    let mut cache_engines: Vec<RsuCacheEngine> = Vec::with_capacity(n_rsus);
    let mut service_engines: Vec<RsuServiceEngine> = Vec::with_capacity(n_rsus);
    for (k, ((cache_policy, service_policy, reward), ages_k)) in
        built.into_iter().zip(ages).enumerate()
    {
        cache_engines.push(RsuCacheEngine::new(
            cache_policy,
            reward,
            ages_k,
            specs[k].max_ages.clone(),
            scenario.weight,
            specs[k].update_cost,
        )?);
        service_engines.push(RsuServiceEngine::new(service_policy));
    }

    let mut rng = seeds.rng("run");
    network.warm_up(scenario.warmup, &mut rng);

    let mut queue_recorders: Vec<TraceRecorder> = Vec::with_capacity(n_rsus);
    for k in 0..n_rsus {
        let name = format!("rsu{k}/queue");
        queue_recorders.push(match artifact {
            Some(writer) => TraceRecorder::to_artifact(name, recording, writer)?,
            None => TraceRecorder::new(name, recording, scenario.horizon),
        });
    }
    let mut reward_series = TimeSeries::with_capacity("cache reward", scenario.horizon);
    let mut clock = SlotClock::new();

    let mut total_requests = 0u64;
    let mut stale_requests = 0u64;
    let mut updates = 0u64;
    let mut service_cost_sum = 0.0;
    let mut update_cost_sum = 0.0;
    let mut stale_cost_sum = 0.0;
    let mut queue_sum = 0.0;

    // Hoisted slot-loop scratch: the decision/arrival buffers and the live
    // popularity estimate are reused every slot instead of reallocated.
    let mut decisions: Vec<Option<usize>> = Vec::with_capacity(n_rsus);
    let mut arrivals = vec![0.0f64; n_rsus];
    let mut popularity: Vec<f64> = Vec::new();

    for _ in 0..scenario.horizon {
        let now = clock.now();
        let slot = network.step(&mut rng);

        // Stage 1: collect decisions first so congestion pricing sees the
        // slot's true concurrency. (The engine core is told the *base*
        // update cost — the congestion-priced cost is only knowable after
        // every RSU has decided.)
        decisions.clear();
        for k in 0..n_rsus {
            network.popularity_into(RsuId(k), &mut popularity);
            decisions.push(cache_engines[k].decide(
                now,
                &popularity,
                specs[k].update_cost,
                &mut rng,
            ));
        }
        let concurrent = decisions.iter().filter(|d| d.is_some()).count();
        let mut slot_reward = 0.0;
        for k in 0..n_rsus {
            if let Some(h) = decisions[k] {
                cache_engines[k].apply_refresh(h)?;
                updates += 1;
                let cost = network.update_cost(RsuId(k), concurrent.max(1));
                update_cost_sum += cost;
                slot_reward -= cost;
            }
            network.popularity_into(RsuId(k), &mut popularity);
            slot_reward += scenario.weight * cache_engines[k].aoi_utility(&popularity);
        }
        reward_series.push(now, slot_reward);

        // Stage 2: per-RSU arrivals and freshness accounting.
        arrivals.fill(0.0);
        for request in &slot.requests {
            total_requests += 1;
            let k = request.rsu.0;
            arrivals[k] += 1.0;
            let local = request.region.0 - layout.coverage(request.rsu).start;
            let age = cache_engines[k].age(local);
            if age.exceeds(catalog.max_age(request.region.0)) {
                stale_requests += 1;
                stale_cost_sum += scenario.mbs_fetch_cost;
            }
        }
        for k in 0..n_rsus {
            let decision = service_engines[k].decide(now, &scenario.levels, &mut rng)?;
            let level = scenario.levels[decision];
            service_engines[k].apply(arrivals[k], level);
            service_cost_sum += level.cost;
            queue_sum += service_engines[k].backlog();
            queue_recorders[k].record(now, service_engines[k].backlog());
        }

        for engine in &mut cache_engines {
            engine.advance();
        }
        clock.tick();
    }

    let mut queue_series = Vec::with_capacity(n_rsus);
    let mut queue_summaries = Vec::with_capacity(n_rsus);
    for recorder in queue_recorders.drain(..) {
        let (series, summary) = recorder.into_parts();
        queue_series.push(series);
        queue_summaries.push(summary);
    }
    let horizon = scenario.horizon as f64;
    let cumulative_cache_reward = reward_series.cumulative();
    if let Some(writer) = artifact {
        let mut writer = writer.borrow_mut();
        writer.series(&reward_series)?;
        writer.series(&cumulative_cache_reward)?;
    }
    Ok(JointReport {
        recording,
        cumulative_cache_reward,
        cache_reward: reward_series,
        queues: queue_series,
        queue_summaries,
        total_requests,
        stale_requests,
        updates,
        mean_queue: queue_sum / (horizon * n_rsus as f64),
        mean_service_cost: service_cost_sum / horizon,
        mean_update_cost: update_cost_sum / horizon,
        mean_stale_cost: stale_cost_sum / horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> JointScenario {
        let network = NetworkConfig {
            n_regions: 6,
            n_rsus: 2,
            road_length_m: 1200.0,
            ..NetworkConfig::default()
        };
        JointScenario {
            network,
            age_cap: 6,
            max_age_min: 3,
            max_age_max: 5,
            horizon: 400,
            warmup: 30,
            seed: 5,
            ..JointScenario::default()
        }
    }

    #[test]
    fn runs_and_reports() {
        let report = run_joint(&tiny()).unwrap();
        assert_eq!(report.queues.len(), 2);
        assert_eq!(report.cache_reward.len(), 400);
        assert!(report.total_requests > 0);
        assert!(report.updates > 0);
        assert!(report.freshness_rate() >= 0.0 && report.freshness_rate() <= 1.0);
        assert!(report.mean_total_cost() > 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_joint(&tiny()).unwrap();
        let b = run_joint(&tiny()).unwrap();
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.stale_requests, b.stale_requests);
    }

    #[test]
    fn active_caching_is_fresher_than_never() {
        let mut never = tiny();
        never.cache_policy = CachePolicyKind::Never;
        let mut myopic = tiny();
        myopic.cache_policy = CachePolicyKind::Myopic;
        let r_never = run_joint(&never).unwrap();
        let r_myopic = run_joint(&myopic).unwrap();
        assert!(
            r_myopic.freshness_rate() > r_never.freshness_rate(),
            "myopic {} vs never {}",
            r_myopic.freshness_rate(),
            r_never.freshness_rate()
        );
    }

    #[test]
    fn lyapunov_queues_stay_bounded() {
        let report = run_joint(&tiny()).unwrap();
        for q in &report.queues {
            let last = q.last().unwrap().value;
            assert!(last < 200.0, "queue exploded: {last}");
        }
    }

    #[test]
    fn cost_greedy_service_starves_queues() {
        let mut s = tiny();
        s.service_policy = ServicePolicyKind::CostGreedy;
        let report = run_joint(&s).unwrap();
        // Nothing is ever served, so the mean queue dominates the Lyapunov
        // run's.
        let lyap = run_joint(&tiny()).unwrap();
        assert!(report.mean_queue > lyap.mean_queue);
        assert!(report.mean_service_cost < lyap.mean_service_cost + 1e-9);
    }

    #[test]
    fn recording_modes_share_everything_but_queue_traces() {
        let full = run_joint(&tiny()).unwrap();
        assert_eq!(full.recording, RecordingMode::Full);
        let summary = run_joint_recorded(&tiny(), RecordingMode::SummaryOnly).unwrap();
        assert!(summary.queues.iter().all(|q| q.is_empty()));
        assert_eq!(
            summary.cumulative_cache_reward,
            full.cumulative_cache_reward
        );
        assert_eq!(summary.cache_reward, full.cache_reward);
        assert_eq!(summary.total_requests, full.total_requests);
        assert_eq!(summary.stale_requests, full.stale_requests);
        assert_eq!(summary.updates, full.updates);
        assert_eq!(summary.mean_queue, full.mean_queue);
        assert_eq!(summary.queue_summaries, full.queue_summaries);
        // The streamed summaries equal a post-hoc pass over the full traces.
        for (trace, want) in full.queues.iter().zip(&summary.queue_summaries) {
            let post_hoc: simkit::RunningStats = trace.values().collect();
            assert_eq!(post_hoc.summary(), *want);
        }
        // Decimate(1) is Full.
        let dec = run_joint_recorded(&tiny(), RecordingMode::Decimate(1)).unwrap();
        assert_eq!(dec.queues, full.queues);
    }

    #[test]
    fn validation() {
        let mut s = tiny();
        s.age_cap = 2;
        assert!(run_joint(&s).is_err());
        let mut s = tiny();
        s.horizon = 0;
        assert!(run_joint(&s).is_err());
        let mut s = tiny();
        s.levels.clear();
        assert!(run_joint(&s).is_err());
        let mut s = tiny();
        s.mbs_fetch_cost = -1.0;
        assert!(run_joint(&s).is_err());
    }
}
