//! The timed bodies, one per workload. Each runs in a child process of its
//! own: it sets up, reports `ready`, waits for `go`, does exactly the work
//! a user of the shipped binaries would wait for, and reports `done` with
//! its counts, digests and peak memory.

use crate::util::{self, BoxError, Digest};
use aoi_cache::presets::{fig1a_ensemble, fig1b_ensemble};
use aoi_cache::{
    CachePolicyKind, CacheScenario, Compression, EnsembleSummary, ExperimentPlan, ServicePolicyKind,
};
use aoi_serve::{MbsRefresh, ServeConfig, ServeEngine};
use simkit::{sample_poisson, SeedSequence, Stopwatch};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use vanet::{RegionId, Request, RequestTrace, RsuId, VehicleId, Zipf};

/// The two grids `ensemble` runs (Fig. 1a cache policies, Fig. 1b service
/// policies), over one replicate seed.
pub fn ensemble_plans(rep_seed: u64) -> Vec<ExperimentPlan> {
    vec![
        fig1a_ensemble(1).replicate_seeds(vec![rep_seed]),
        fig1b_ensemble(1).replicate_seeds(vec![rep_seed]),
    ]
}

/// The plans of `ensemble --out DIR --compress --resume --horizon H`.
pub fn campaign_plans(rep_seed: u64, horizon: usize, dir: &Path) -> Vec<ExperimentPlan> {
    ensemble_plans(rep_seed)
        .into_iter()
        .zip(["fig1a", "fig1b"])
        .map(|(plan, tag)| {
            plan.horizon(horizon)
                .artifact_dir(dir.join(tag))
                .compress(Compression::Deflate)
                .resume(true)
        })
        .collect()
}

/// Digest of what `ensemble` prints: every group's label, final mean,
/// final CI half-width (f64 bits), replicate count and quarantine gap.
pub fn ensemble_digest(digest: &mut Digest, ensembles: &[EnsembleSummary]) {
    for e in ensembles {
        digest.bytes(e.label.as_bytes());
        digest.f64(e.curve.final_mean());
        digest.f64(e.curve.final_ci_half_width());
        digest.u64(e.curve.replicates as u64);
        digest.u64(e.quarantined as u64);
    }
}

/// The Fig. 1a sanity signal: both exact MDP policies end with a higher
/// cumulative reward than the myopic and never-refresh baselines.
pub fn mdp_beats_baselines(cache: &[EnsembleSummary]) -> bool {
    let last = |label: &str| {
        cache
            .iter()
            .find(|e| e.label == label)
            .map(|e| e.curve.final_mean())
    };
    match (
        last("mdp-vi"),
        last("mdp-avg"),
        last("myopic"),
        last("never"),
    ) {
        (Some(vi), Some(avg), Some(myopic), Some(never)) => {
            vi > myopic && vi > never && avg > myopic && avg > never
        }
        _ => false,
    }
}

/// `fig1a-ensemble`: the in-memory `ensemble --workers 1` grids.
pub fn ensemble(rep_seed: u64) -> Result<(), BoxError> {
    let plans: Vec<ExperimentPlan> = ensemble_plans(rep_seed)
        .into_iter()
        .map(|p| p.workers(1))
        .collect();
    let cells: usize = plans.iter().map(ExperimentPlan::n_cells).sum();
    util::ready_and_wait()?;
    let mut digest = Digest::new();
    let mut quality = true;
    for (i, plan) in plans.iter().enumerate() {
        let (ensembles, _) = plan.run_ensembles_resumable()?;
        if i == 0 {
            quality = mdp_beats_baselines(&ensembles);
        }
        ensemble_digest(&mut digest, &ensembles);
    }
    util::report_done(&[
        ("cells", cells.to_string()),
        ("failed", "0".to_string()),
        ("digest", digest.hex()),
        ("quality", u8::from(quality).to_string()),
        ("peak_rss_kb", util::peak_rss_kb().to_string()),
    ])
}

/// Lease TTL of the campaign workers (`--lease-ttl-ms`). A waiting
/// worker's backoff sleeps scale with it (TTL/16 growing to TTL/4), so
/// the 30 s default would add up to a second of sleep granularity to a
/// campaign of a few seconds.
pub const CAMPAIGN_LEASE_TTL_MS: u64 = 1000;

/// `campaign`: one `ensemble --resume --claim --compress --workers 1
/// --lease-ttl-ms 1000` worker sharing `dir` with its peers.
pub fn campaign_worker(
    rep_seed: u64,
    horizon: usize,
    dir: &Path,
    worker_id: &str,
) -> Result<(), BoxError> {
    let plans: Vec<ExperimentPlan> = campaign_plans(rep_seed, horizon, dir)
        .into_iter()
        .map(|p| {
            p.claim(true)
                .worker_id(worker_id)
                .lease_ttl_ms(CAMPAIGN_LEASE_TTL_MS)
                .workers(1)
        })
        .collect();
    let cells: usize = plans.iter().map(ExperimentPlan::n_cells).sum();
    util::ready_and_wait()?;
    let mut digest = Digest::new();
    let (mut quarantined, mut claimed) = (0usize, 0usize);
    for plan in &plans {
        let (ensembles, resume) = plan.run_ensembles_resumable()?;
        quarantined += resume.quarantined.len();
        claimed += resume.claimed.len();
        ensemble_digest(&mut digest, &ensembles);
    }
    util::report_done(&[
        ("cells", cells.to_string()),
        ("failed", quarantined.to_string()),
        ("claimed", claimed.to_string()),
        ("digest", digest.hex()),
        ("peak_rss_kb", util::peak_rss_kb().to_string()),
    ])
}

/// `campaign-resume`: one `ensemble --resume --compress --workers 1` over
/// a finished campaign directory.
pub fn resume(rep_seed: u64, horizon: usize, dir: &Path) -> Result<(), BoxError> {
    let plans: Vec<ExperimentPlan> = campaign_plans(rep_seed, horizon, dir)
        .into_iter()
        .map(|p| p.workers(1))
        .collect();
    let cells: usize = plans.iter().map(ExperimentPlan::n_cells).sum();
    util::ready_and_wait()?;
    let mut digest = Digest::new();
    let (mut skipped, mut recomputed) = (0usize, 0usize);
    for plan in &plans {
        let (ensembles, resume) = plan.run_ensembles_resumable()?;
        skipped += resume.skipped.len();
        recomputed += resume.recomputed.len() + resume.invalidated.len();
        ensemble_digest(&mut digest, &ensembles);
    }
    util::report_done(&[
        ("cells", cells.to_string()),
        ("failed", recomputed.to_string()),
        ("skipped", skipped.to_string()),
        ("digest", digest.hex()),
        ("peak_rss_kb", util::peak_rss_kb().to_string()),
    ])
}

/// The `aoi-serve` binary's engine configuration (mdp-vi γ 0.9 stage 1,
/// Lyapunov V = 20 stage 2, default Fig. 1a scenario).
pub fn serve_config(seed: u64, workers: usize) -> ServeConfig {
    ServeConfig {
        scenario: CacheScenario::default(),
        cache_policy: CachePolicyKind::ValueIteration { gamma: 0.9 },
        service_policy: ServicePolicyKind::Lyapunov { v: 20.0 },
        serve_seed: seed,
        workers,
        ..ServeConfig::default()
    }
}

/// Poisson(`rate`) requests per RSU per slot for Zipf-popular contents of
/// the RSU's own coverage: the `aoi-serve` load generator.
pub fn generate_trace(seed: u64, slots: usize, rate: f64) -> Result<RequestTrace, BoxError> {
    let scenario = CacheScenario::default();
    let zipf = Zipf::new(scenario.regions_per_rsu, scenario.zipf_exponent)?;
    let mut rng = SeedSequence::new(seed).rng("load-gen");
    let mut vehicle = 0u64;
    let mut windows = Vec::with_capacity(slots);
    for _ in 0..slots {
        let mut requests = Vec::new();
        for k in 0..scenario.n_rsus {
            for _ in 0..sample_poisson(rate, &mut rng) {
                requests.push(Request {
                    vehicle: VehicleId(vehicle),
                    rsu: RsuId(k),
                    region: RegionId(k * scenario.regions_per_rsu + zipf.sample(&mut rng)),
                });
                vehicle += 1;
            }
        }
        windows.push(requests);
    }
    Ok(RequestTrace::from_slots(windows))
}

/// Records `trace` at `path` (written beside it, then renamed into place).
pub fn write_trace(trace: &RequestTrace, path: &Path) -> Result<(), BoxError> {
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    // lint:allow(atomic-persistence): benchmark input fixture, written to a
    // temporary and renamed into place below.
    let file = std::fs::File::create(&tmp)?;
    let mut out = BufWriter::new(file);
    trace.write_to(&mut out)?;
    out.flush()?;
    drop(out);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

pub fn read_trace(path: &Path) -> Result<RequestTrace, BoxError> {
    let file = std::fs::File::open(path)?;
    Ok(RequestTrace::read_from(BufReader::new(file))?)
}

pub fn refresh_digest(digest: &mut Digest, refreshes: &[MbsRefresh]) {
    for r in refreshes {
        digest.u64(r.slot.index());
        digest.u64(r.rsu as u64);
        digest.u64(r.content as u64);
    }
}

/// `serve-stream`: replays the recorded trace through one engine, one
/// slot per `serve` call, closed loop. With `check_bulk` it afterwards
/// serves the whole trace in one call on a fresh engine and reports that
/// refresh log's digest for comparison.
pub fn serve(trace_path: &Path, seed: u64, check_bulk: bool) -> Result<(), BoxError> {
    let trace = read_trace(trace_path)?;
    let windows: Vec<RequestTrace> = trace
        .iter()
        .map(|slot| RequestTrace::from_slots(vec![slot.to_vec()]))
        .collect();
    let mut engine = ServeEngine::new(serve_config(seed, 0))?;
    let shards = engine.shard_count();
    util::ready_and_wait()?;
    let mut latencies = Vec::with_capacity(windows.len());
    let mut digest = Digest::new();
    let (mut requests, mut fresh, mut hits, mut refreshes, mut errors) = (0u64, 0u64, 0u64, 0, 0);
    for window in &windows {
        let watch = Stopwatch::start();
        let served = engine.serve(window);
        latencies.push(watch.elapsed_seconds());
        match served {
            Ok(outcome) => {
                refresh_digest(&mut digest, &outcome.refreshes);
                refreshes += outcome.refreshes.len();
                requests += outcome.requests;
                fresh += outcome.fresh_hits;
                hits += outcome.fresh_hits + outcome.stale_hits;
            }
            Err(_) => errors += 1,
        }
    }
    let peak = util::peak_rss_kb();
    util::report_done(&[
        ("calls", windows.len().to_string()),
        ("failed", errors.to_string()),
        ("requests", requests.to_string()),
        ("refreshes", refreshes.to_string()),
        ("expected_refreshes", (shards * windows.len()).to_string()),
        (
            "fresh_rate",
            (fresh as f64 / hits.max(1) as f64).to_string(),
        ),
        ("p50_ms", (1e3 * util::median(&latencies)).to_string()),
        (
            "p99_ms",
            (1e3 * util::quantile(&latencies, 0.99)).to_string(),
        ),
        ("digest", digest.hex()),
        ("peak_rss_kb", peak.to_string()),
    ])?;
    if check_bulk {
        let mut bulk = ServeEngine::new(serve_config(seed, 0))?;
        let outcome = bulk.serve(&trace)?;
        let mut digest = Digest::new();
        refresh_digest(&mut digest, &outcome.refreshes);
        let mut out = std::io::stdout();
        writeln!(out, "bulk digest={}", digest.hex())?;
        out.flush()?;
    }
    Ok(())
}
