//! Serving is a deterministic function of the config and the request
//! trace: the same window must yield identical decisions, reports and
//! telemetry bytes for **any** worker count, in both executor feature
//! configurations.

use aoi_cache::{CachePolicyKind, CacheScenario, Compression, ServiceLevel, ServicePolicyKind};
use aoi_serve::{MbsRefresh, ServeConfig, ServeEngine, TelemetrySpec, MIN_WORK_PER_WORKER};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::PathBuf;
use vanet::{RegionId, Request, RequestTrace, RsuId, VehicleId, Zipf};

fn scenario() -> CacheScenario {
    CacheScenario {
        n_rsus: 3,
        regions_per_rsu: 4,
        age_cap: 7,
        max_age_min: 3,
        max_age_max: 6,
        horizon: 50,
        seed: 23,
        ..CacheScenario::default()
    }
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        scenario: scenario(),
        cache_policy: CachePolicyKind::ValueIteration { gamma: 0.9 },
        service_policy: ServicePolicyKind::Lyapunov { v: 20.0 },
        serve_seed: 77,
        workers,
        ..ServeConfig::default()
    }
}

/// A synthetic external workload: Zipf-popular contents, round-robin
/// RSUs, with some requests deliberately outside the receiving RSU's
/// coverage (misses).
fn trace(slots: usize, seed: u64) -> RequestTrace {
    let s = scenario();
    let zipf = Zipf::new(s.regions_per_rsu, 0.9).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vehicle = 0u64;
    let mut windows = Vec::with_capacity(slots);
    for t in 0..slots {
        let mut requests = Vec::new();
        for k in 0..s.n_rsus {
            for _ in 0..(1 + (t + k) % 3) {
                // Every 7th request targets the *next* RSU's coverage.
                let owner = if vehicle.is_multiple_of(7) {
                    (k + 1) % s.n_rsus
                } else {
                    k
                };
                let region = owner * s.regions_per_rsu + zipf.sample(&mut rng);
                requests.push(Request {
                    vehicle: VehicleId(vehicle),
                    rsu: RsuId(k),
                    region: RegionId(region),
                });
                vehicle += 1;
            }
        }
        windows.push(requests);
    }
    RequestTrace::from_slots(windows)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aoi-serve-det-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn outcome_is_identical_for_any_worker_count() {
    let window = trace(40, 5);
    let mut baseline = None;
    for workers in [0, 1, 2, 3, 8] {
        let mut engine = ServeEngine::new(config(workers)).unwrap();
        let outcome = engine.serve(&window).unwrap();
        assert!(outcome.requests > 0 && outcome.misses > 0);
        match &baseline {
            None => baseline = Some(outcome),
            Some(expected) => assert_eq!(&outcome, expected, "workers={workers}"),
        }
    }
}

/// What serving a trace window by window adds up to: the concatenated
/// refresh log, per-RSU integer counters summed over the windows
/// (requests, fresh, stale, misses, refreshes) and the final backlog.
/// `service_cost` is left out: its per-window f64 sums round differently.
#[derive(Debug, PartialEq)]
struct Replay {
    refreshes: Vec<MbsRefresh>,
    counters: Vec<[u64; 5]>,
    backlog: Vec<f64>,
}

fn replay(workers: usize, trace: &RequestTrace, window_slots: usize) -> Replay {
    let mut engine = ServeEngine::new(config(workers)).unwrap();
    let slots: Vec<Vec<Request>> = trace.iter().map(<[Request]>::to_vec).collect();
    let mut replay = Replay {
        refreshes: Vec::new(),
        counters: vec![[0; 5]; engine.shard_count()],
        backlog: Vec::new(),
    };
    for chunk in slots.chunks(window_slots) {
        let outcome = engine
            .serve(&RequestTrace::from_slots(chunk.to_vec()))
            .unwrap();
        replay.refreshes.extend(outcome.refreshes);
        for (sum, s) in replay.counters.iter_mut().zip(&outcome.per_rsu) {
            let counts = [
                s.requests,
                s.fresh_hits,
                s.stale_hits,
                s.misses,
                s.refreshes,
            ];
            for (total, c) in sum.iter_mut().zip(counts) {
                *total += c;
            }
        }
        replay.backlog = outcome.per_rsu.iter().map(|s| s.backlog).collect();
    }
    assert_eq!(engine.next_slot().index(), trace.len() as u64);
    replay
}

#[test]
fn windowing_never_changes_serving() {
    // Large enough that the whole trace as one window crosses the
    // `workers: 0` fan-out threshold, while its 1- and 7-slot windows
    // run inline: both branches of the default get compared.
    let slots = 2 * MIN_WORK_PER_WORKER / 8;
    let window = trace(slots, 13);
    let shards = scenario().n_rsus;
    assert!(shards * slots + window.total_requests() >= 2 * MIN_WORK_PER_WORKER);
    // At most 3 requests per RSU per slot.
    assert!(7 * (shards + 3 * shards) < 2 * MIN_WORK_PER_WORKER);
    let mut baseline = None;
    for workers in [0, 1, 3] {
        for window_slots in [1, 7, slots] {
            let replayed = replay(workers, &window, window_slots);
            match &baseline {
                None => {
                    assert!(replayed
                        .counters
                        .iter()
                        .all(|c| c[0] > 0 && c[3] > 0 && c[4] > 0));
                    baseline = Some(replayed);
                }
                Some(expected) => assert_eq!(
                    &replayed, expected,
                    "workers={workers} window_slots={window_slots}"
                ),
            }
        }
    }
}

#[test]
fn telemetry_bytes_are_identical_for_any_worker_count() {
    let window = trace(25, 9);
    let reference = temp_dir("ref");
    let mut engine = ServeEngine::new(config(1)).unwrap();
    let spec = TelemetrySpec::plain(&reference);
    let expected = engine.serve_recorded(&window, &spec).unwrap();
    for workers in [3, 6] {
        let dir = temp_dir(&format!("w{workers}"));
        let mut engine = ServeEngine::new(config(workers)).unwrap();
        let spec = TelemetrySpec::plain(&dir);
        let outcome = engine.serve_recorded(&window, &spec).unwrap();
        assert_eq!(outcome, expected);
        for rsu in 0..engine.shard_count() {
            let name = spec.shard_path(rsu, outcome.start);
            let got = fs::read(&name).unwrap();
            let want = fs::read(reference.join(name.file_name().unwrap())).unwrap();
            assert_eq!(got, want, "telemetry bytes differ for rsu {rsu}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&reference).unwrap();
}

#[test]
fn compressed_telemetry_round_trips_and_clock_advances() {
    let dir = temp_dir("z");
    let mut engine = ServeEngine::new(config(0)).unwrap();
    let spec = TelemetrySpec {
        dir: dir.clone(),
        compression: Compression::Deflate,
    };
    let first = engine.serve_recorded(&trace(10, 1), &spec).unwrap();
    let second = engine.serve_recorded(&trace(10, 2), &spec).unwrap();
    assert_eq!(first.start.index(), 0);
    assert_eq!(second.start.index(), 10, "clock continues across windows");
    for rsu in 0..engine.shard_count() {
        for outcome in [&first, &second] {
            let path = spec.shard_path(rsu, outcome.start);
            let artifact = aoi_cache::persist::read_artifact(&path).unwrap();
            assert_eq!(artifact.channels.len(), 3);
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn config_hash_covers_the_serving_setup_but_not_workers() {
    let base = config(0);
    let hash = base.config_hash();
    assert_eq!(config(3).config_hash(), hash, "workers never change bytes");
    let levels = ServeConfig {
        levels: vec![ServiceLevel::new(0.0, 0.0), ServiceLevel::new(1.0, 2.0)],
        ..config(0)
    };
    assert_ne!(levels.config_hash(), hash, "levels must be hashed");
    let service = ServeConfig {
        service_policy: ServicePolicyKind::Lyapunov { v: 5.0 },
        ..config(0)
    };
    assert_ne!(service.config_hash(), hash, "service policy must be hashed");

    // The telemetry manifest carries exactly this hash.
    let dir = temp_dir("hash");
    let mut engine = ServeEngine::new(base).unwrap();
    let spec = TelemetrySpec::plain(&dir);
    let outcome = engine.serve_recorded(&trace(3, 9), &spec).unwrap();
    let artifact = aoi_cache::persist::read_artifact(&spec.shard_path(0, outcome.start)).unwrap();
    assert_eq!(artifact.manifest.config_hash, hash);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_rsu_is_rejected() {
    let mut engine = ServeEngine::new(config(0)).unwrap();
    let window = RequestTrace::from_slots(vec![vec![Request {
        vehicle: VehicleId(0),
        rsu: RsuId(99),
        region: RegionId(0),
    }]]);
    assert!(engine.serve(&window).is_err());
}
