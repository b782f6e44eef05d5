//! The sharded online serving engine.

use crate::error::ServeError;
use crate::report::{MbsRefresh, ServeOutcome, ShardStats};
use aoi_cache::persist::{ArtifactKind, ArtifactWriter, Manifest, PersistError};
use aoi_cache::{
    CachePolicyKind, CacheScenario, CacheSimulation, Compression, RecordingMode, RsuCacheEngine,
    RsuServiceEngine, ServiceLevel, ServicePolicyKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simkit::{executor, SeedSequence, TimeSlot};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use vanet::{Request, RequestTrace};

/// Work units (one per shard-slot plus one per request) a window must
/// carry per executor worker before the `workers: 0` default fans it out.
/// Spawning and joining the scoped workers costs 65–90 µs per call on a
/// 2-vCPU host, while serving costs 1–2 µs per slot at 4 requests per
/// RSU, so pooling breaks even only from windows of a few thousand
/// slots.
pub const MIN_WORK_PER_WORKER: usize = 1 << 15;

/// Everything needed to assemble a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The stage-1 experiment the policy tables are compiled for: catalog,
    /// per-RSU freshness limits and initial ages all derive from its seed,
    /// exactly as they would for [`CacheSimulation::run`].
    pub scenario: CacheScenario,
    /// Stage-1 cache-update policy compiled into each shard.
    pub cache_policy: CachePolicyKind,
    /// Stage-2 service policy instantiated in each shard.
    pub service_policy: ServicePolicyKind,
    /// The service-level menu every shard chooses from each slot.
    pub levels: Vec<ServiceLevel>,
    /// Seed of the serving-side RNG streams (one independent stream per
    /// shard, derived up-front in RSU order).
    pub serve_seed: u64,
    /// Executor workers for [`ServeEngine::serve`]. `0` sizes the pool
    /// from the window's work, `shards × slots + requests` units: a
    /// window under `2 ×` [`MIN_WORK_PER_WORKER`] units (a one-slot
    /// window at 4 requests per RSU is 20) runs inline on the calling
    /// thread, and a larger one gets one worker per
    /// `MIN_WORK_PER_WORKER` units, capped by the shard count and the
    /// hardware. `w ≥ 1` uses exactly `w` workers. Decisions and
    /// telemetry are bit-identical for any value.
    pub workers: usize,
}

impl ServeConfig {
    /// The telemetry manifest's `config_hash`: a fingerprint of the
    /// serving setup (scenario, both policies and the service-level
    /// menu), so `verify`/`diff` tell a changed setup apart. `workers` is
    /// left out because it never changes a telemetry byte; `serve_seed`
    /// is the manifest's own `seed` field.
    pub fn config_hash(&self) -> u64 {
        aoi_cache::persist::config_hash(&(
            &self.scenario,
            &self.cache_policy,
            &self.service_policy,
            &self.levels,
        ))
    }
}

impl Default for ServeConfig {
    /// Myopic stage-1 + drift-plus-penalty stage-2 over the default
    /// Fig. 1a scenario and the standard service menu.
    fn default() -> Self {
        ServeConfig {
            scenario: CacheScenario::default(),
            cache_policy: CachePolicyKind::Myopic,
            service_policy: ServicePolicyKind::Lyapunov { v: 20.0 },
            levels: ServiceLevel::standard_menu(),
            serve_seed: 1,
            workers: 0,
        }
    }
}

/// Where a served window's telemetry goes: one `simkit::persist` artifact
/// per shard (`serve-rsu<k>-from<slot>.jsonl`, plus the compression
/// suffix when applicable) under `dir`.
#[derive(Debug, Clone)]
pub struct TelemetrySpec {
    /// Directory the per-shard artifact files are created in.
    pub dir: PathBuf,
    /// On-disk encoding of each artifact.
    pub compression: Compression,
}

impl TelemetrySpec {
    /// Plain-JSONL telemetry under `dir`.
    pub fn plain(dir: &Path) -> Self {
        TelemetrySpec {
            dir: dir.to_path_buf(),
            compression: Compression::None,
        }
    }

    /// The artifact path for shard `rsu` of the window starting at
    /// `start`.
    pub fn shard_path(&self, rsu: usize, start: TimeSlot) -> PathBuf {
        let name = format!("serve-rsu{rsu}-from{}.jsonl", start.index());
        self.compression.apply_to(&self.dir.join(name))
    }
}

/// One RSU's serving state: both engine cores, the shard's private RNG
/// stream, and the running popularity estimate the stage-1 policy sees.
struct RsuShard {
    cache: RsuCacheEngine,
    service: RsuServiceEngine,
    rng: StdRng,
    /// Per-content request counts observed so far (Laplace-smoothed into
    /// the popularity estimate each slot).
    counts: Vec<u64>,
    observed: u64,
}

/// What one shard hands back after serving a window.
struct ShardRun {
    /// Per-slot stage-1 decision (at most one refresh per shard per slot).
    refreshes: Vec<Option<usize>>,
    stats: ShardStats,
}

impl RsuShard {
    /// Smoothed popularity estimate: `(count+1) / (observed+contents)`.
    /// Uniform before any request, converging to the empirical
    /// distribution — the serving-side analogue of the simulator's static
    /// popularity vector.
    fn popularity(&self, into: &mut Vec<f64>) {
        into.clear();
        let denom = (self.observed + self.counts.len() as u64) as f64;
        into.extend(self.counts.iter().map(|c| (c + 1) as f64 / denom));
    }

    /// Serves every slot of this shard's request stream. `telemetry`
    /// carries the artifact destination plus the manifest to stamp it
    /// with.
    fn run_window(
        &mut self,
        start: TimeSlot,
        slots: &[Vec<Request>],
        levels: &[ServiceLevel],
        regions_per_rsu: usize,
        rsu: usize,
        telemetry: Option<(&TelemetrySpec, &Manifest)>,
    ) -> Result<ShardRun, ServeError> {
        let mut writer = telemetry
            .map(|(spec, manifest)| -> Result<_, PersistError> {
                let mut w = ArtifactWriter::create_with(
                    &spec.shard_path(rsu, start),
                    manifest,
                    spec.compression,
                )?;
                let requests = w.channel("requests", RecordingMode::Full)?;
                let stale = w.channel("stale-hits", RecordingMode::Full)?;
                let backlog = w.channel("backlog", RecordingMode::Full)?;
                Ok((w, requests, stale, backlog))
            })
            .transpose()?;
        let mut refreshes = Vec::with_capacity(slots.len());
        let mut stats = ShardStats::default();
        let mut popularity = Vec::with_capacity(self.counts.len());
        let base = rsu * regions_per_rsu;
        for (t, requests) in slots.iter().enumerate() {
            let now = TimeSlot::new(start.index() + t as u64);
            // Ingest: requests inside this RSU's coverage feed the
            // popularity estimate the MBS decides from.
            let local = |r: &Request| {
                let region = r.region.0;
                (region >= base && region < base + regions_per_rsu).then(|| region - base)
            };
            for request in requests {
                if let Some(h) = local(request) {
                    self.counts[h] += 1;
                    self.observed += 1;
                }
            }
            // Stage 1: the MBS refresh decision for this shard, applied
            // before this slot's requests are answered.
            self.popularity(&mut popularity);
            let decision = self.cache.decide_static(now, &popularity, &mut self.rng);
            if let Some(h) = decision {
                self.cache.apply_refresh(h)?;
                stats.refreshes += 1;
            }
            refreshes.push(decision);
            // Answer the slot's requests from the (possibly refreshed)
            // cache state.
            let mut slot_stale = 0u64;
            for request in requests {
                stats.requests += 1;
                match local(request) {
                    Some(h) if self.cache.is_stale(h) => {
                        stats.stale_hits += 1;
                        slot_stale += 1;
                    }
                    Some(_) => stats.fresh_hits += 1,
                    None => stats.misses += 1,
                }
            }
            // Stage 2: pick a service level for the slot's arrivals and
            // run the queue dynamics.
            let level = self.service.decide(now, levels, &mut self.rng)?;
            self.service.apply(requests.len() as f64, levels[level]);
            stats.service_cost += levels[level].cost;
            if let Some((w, ch_requests, ch_stale, ch_backlog)) = writer.as_mut() {
                w.sample(*ch_requests, now, requests.len() as f64)?;
                w.sample(*ch_stale, now, slot_stale as f64)?;
                w.sample(*ch_backlog, now, self.service.backlog())?;
            }
            self.cache.advance();
        }
        stats.backlog = self.service.backlog();
        if let Some((w, ..)) = writer {
            w.finish()?;
        }
        Ok(ShardRun { refreshes, stats })
    }
}

/// The online request-serving engine: one shard per RSU, each holding the
/// same clock-agnostic cores the simulators drive, advanced here by an
/// **external** request stream instead of a synthetic arrival process.
///
/// [`serve`](ServeEngine::serve) runs each shard's stream as one
/// `simkit::executor` job (inline on the calling thread for windows too
/// small to split, see [`ServeConfig::workers`]) and merges the stage-1
/// refresh decisions into a single slot-major, RSU-ordered hand-off log.
/// Every shard owns its RNG stream and its slice of the request window,
/// so the decisions, the report and the telemetry bytes are identical for
/// any worker count — serving is a deterministic function of the config
/// and the request trace.
pub struct ServeEngine {
    shards: Vec<Mutex<RsuShard>>,
    levels: Vec<ServiceLevel>,
    regions_per_rsu: usize,
    workers: usize,
    manifest: Manifest,
    next_slot: TimeSlot,
}

impl ServeEngine {
    /// Compiles the stage-1 policy tables (exactly as
    /// [`CacheSimulation::cache_engines`] would for a simulated run) and
    /// assembles one shard per RSU.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation and policy-construction errors;
    /// rejects a service-level menu that
    /// [`ServiceLevel::validate_menu`] does not accept.
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        ServiceLevel::validate_menu(&config.levels)?;
        let manifest = Manifest {
            artifact: ArtifactKind::Trace,
            scenario: "serve".to_string(),
            policy: format!(
                "{}+{}",
                config.cache_policy.label(),
                config.service_policy.label()
            ),
            seed: Some(config.serve_seed),
            recording: RecordingMode::Full,
            config_hash: config.config_hash(),
        };
        let sim = CacheSimulation::new(config.scenario)?;
        let cache_engines = sim.cache_engines(config.cache_policy)?;
        let mut seeds = SeedSequence::new(config.serve_seed);
        let mut shards = Vec::with_capacity(cache_engines.len());
        for engine in cache_engines {
            let contents = engine.contents();
            shards.push(Mutex::new(RsuShard {
                cache: engine,
                service: RsuServiceEngine::new(config.service_policy.build()?),
                rng: StdRng::seed_from_u64(seeds.derive("shard")),
                counts: vec![0; contents],
                observed: 0,
            }));
        }
        Ok(ServeEngine {
            shards,
            levels: config.levels,
            regions_per_rsu: config.scenario.regions_per_rsu,
            workers: config.workers,
            manifest,
            next_slot: TimeSlot::ZERO,
        })
    }

    /// Number of RSU shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The slot the next served window starts at.
    pub fn next_slot(&self) -> TimeSlot {
        self.next_slot
    }

    /// Serves one window of external requests and reports the aggregate
    /// outcome. The engine's clock advances by the window length, so
    /// consecutive calls serve one continuous timeline.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadParameter`] if a request addresses an RSU
    /// outside the engine, and propagates engine-core errors.
    pub fn serve(&mut self, window: &RequestTrace) -> Result<ServeOutcome, ServeError> {
        self.serve_inner(window, None)
    }

    /// [`serve`](ServeEngine::serve), additionally streaming per-shard
    /// telemetry artifacts (channels `requests`, `stale-hits`, `backlog`;
    /// see `docs/artifact-format.md`) under `telemetry.dir`. Each shard
    /// writes its own file from its own worker; `aoi-artifacts verify`
    /// accepts them like any other artifact.
    ///
    /// # Errors
    ///
    /// Same as [`serve`](ServeEngine::serve), plus artifact I/O failures.
    pub fn serve_recorded(
        &mut self,
        window: &RequestTrace,
        telemetry: &TelemetrySpec,
    ) -> Result<ServeOutcome, ServeError> {
        self.serve_inner(window, Some(telemetry))
    }

    fn serve_inner(
        &mut self,
        window: &RequestTrace,
        telemetry: Option<&TelemetrySpec>,
    ) -> Result<ServeOutcome, ServeError> {
        let n = self.shards.len();
        let slots = window.len();
        // Slot-major ingress split into per-shard streams; each shard
        // sees only its own RSU's requests.
        let mut split: Vec<Vec<Vec<Request>>> = vec![vec![Vec::new(); slots]; n];
        for (t, requests) in window.iter().enumerate() {
            for request in requests {
                if request.rsu.0 >= n {
                    return Err(ServeError::BadParameter {
                        what: "request rsu",
                        valid: "an RSU shard index of this engine",
                    });
                }
                split[request.rsu.0][t].push(*request);
            }
        }
        let start = self.next_slot;
        let levels = &self.levels;
        let regions_per_rsu = self.regions_per_rsu;
        let manifest = &self.manifest;
        let workers = match self.workers {
            0 => executor::worker_count(
                n * slots + window.total_requests(),
                true,
                MIN_WORK_PER_WORKER,
            )
            .min(n),
            w => w,
        };
        let runs: Vec<ShardRun> = executor::parallel_map(workers, &self.shards, |k, shard| {
            // Each job locks only its own shard (uncontended by
            // construction), so a poisoned mutex means a previous serve
            // call already panicked — re-raise.
            let mut shard = shard.lock().expect("RSU shard mutex poisoned");
            shard.run_window(
                start,
                &split[k],
                levels,
                regions_per_rsu,
                k,
                telemetry.map(|spec| (spec, manifest)),
            )
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        // Ordered hand-off: merge per-shard stage-1 decisions slot-major
        // in RSU order — the stream the MBS would push refreshes in.
        let mut refreshes = Vec::new();
        for t in 0..slots {
            for (k, run) in runs.iter().enumerate() {
                if let Some(content) = run.refreshes[t] {
                    refreshes.push(MbsRefresh {
                        slot: TimeSlot::new(start.index() + t as u64),
                        rsu: k,
                        content,
                    });
                }
            }
        }
        let per_rsu: Vec<ShardStats> = runs.iter().map(|run| run.stats).collect();
        self.next_slot = TimeSlot::new(start.index() + slots as u64);
        Ok(ServeOutcome {
            start,
            slots,
            requests: per_rsu.iter().map(|s| s.requests).sum(),
            fresh_hits: per_rsu.iter().map(|s| s.fresh_hits).sum(),
            stale_hits: per_rsu.iter().map(|s| s.stale_hits).sum(),
            misses: per_rsu.iter().map(|s| s.misses).sum(),
            refreshes,
            per_rsu,
        })
    }
}
