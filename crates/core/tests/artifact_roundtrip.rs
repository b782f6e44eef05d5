//! Artifact round-trip suite at the simulator/engine level: a spilling
//! run must (a) retain no full traces in memory, (b) leave every other
//! report field identical to an in-memory run, and (c) produce artifacts
//! whose re-read series are **bit-identical** to what the in-memory run
//! retained.

use aoi_cache::persist::{read_artifact, ArtifactKind, PersistError};
use aoi_cache::presets::smoke_grid;
use aoi_cache::{
    run_joint_artifact_with, run_joint_recorded, CachePolicyKind, CacheRunReport, CacheScenario,
    CacheSimulation, Compression, ExperimentPlan, JointScenario, RecordingMode, ServicePolicyKind,
    ServiceScenario,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per call (no tempfile crate in the offline
/// workspace); removed by each test on success.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("aoi-artifacts-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny() -> CacheScenario {
    CacheScenario {
        n_rsus: 2,
        regions_per_rsu: 3,
        age_cap: 6,
        max_age_min: 3,
        max_age_max: 5,
        horizon: 300,
        seed: 42,
        ..CacheScenario::default()
    }
}

/// Asserts that `spilled` + its artifact reproduce `in_memory` exactly.
fn assert_cache_roundtrip(
    in_memory: &CacheRunReport,
    spilled: &CacheRunReport,
    path: &std::path::Path,
) {
    // The spilling run keeps no trace samples in memory...
    assert!(spilled.aoi_traces.iter().all(|t| t.is_empty()));
    // ...but everything else matches the in-memory run bit for bit.
    assert_eq!(spilled.aoi_summaries, in_memory.aoi_summaries);
    assert_eq!(spilled.reward, in_memory.reward);
    assert_eq!(spilled.cumulative_reward, in_memory.cumulative_reward);
    assert_eq!(spilled.updates, in_memory.updates);
    assert_eq!(spilled.mean_aoi_ratio, in_memory.mean_aoi_ratio);

    let artifact = read_artifact(path).unwrap();
    assert_eq!(artifact.manifest.artifact, ArtifactKind::Trace);
    assert_eq!(artifact.manifest.recording, in_memory.recording);
    let n = in_memory.aoi_traces.len();
    assert_eq!(
        artifact.channels.len(),
        n + 2,
        "traces + reward + cumulative"
    );
    for (k, want) in in_memory.aoi_traces.iter().enumerate() {
        assert_eq!(&artifact.channels[k].series, want, "channel {k} bitwise");
        assert_eq!(
            artifact.channels[k].summary,
            Some(in_memory.aoi_summaries[k]),
            "channel {k} summary"
        );
    }
    assert_eq!(artifact.channels[n].series, in_memory.reward);
    assert_eq!(artifact.channels[n + 1].series, in_memory.cumulative_reward);
}

#[test]
fn cache_run_artifact_roundtrips_in_every_mode() {
    let dir = scratch_dir("cache");
    for (i, mode) in [
        RecordingMode::Full,
        RecordingMode::Decimate(7),
        RecordingMode::SummaryOnly,
    ]
    .into_iter()
    .enumerate()
    {
        let sim = CacheSimulation::new(tiny()).unwrap().with_recording(mode);
        let in_memory = sim.run(CachePolicyKind::Myopic).unwrap();
        let path = dir.join(format!("run-{i}.trace.jsonl"));
        let spilled = sim
            .run_artifact_with(CachePolicyKind::Myopic, &path, Compression::None)
            .unwrap();
        assert_cache_roundtrip(&in_memory, &spilled, &path);
        let artifact = read_artifact(&path).unwrap();
        assert_eq!(artifact.manifest.policy, "myopic");
        assert_eq!(artifact.manifest.seed, Some(42));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn joint_run_artifact_roundtrips() {
    let scenario = JointScenario {
        network: vanet::NetworkConfig {
            n_regions: 6,
            n_rsus: 2,
            road_length_m: 1200.0,
            ..vanet::NetworkConfig::default()
        },
        age_cap: 6,
        max_age_min: 3,
        max_age_max: 5,
        horizon: 200,
        warmup: 20,
        seed: 5,
        ..JointScenario::default()
    };
    let dir = scratch_dir("joint");
    let path = dir.join("joint.trace.jsonl");
    let in_memory = run_joint_recorded(&scenario, RecordingMode::Full).unwrap();
    let spilled =
        run_joint_artifact_with(&scenario, RecordingMode::Full, &path, Compression::None).unwrap();

    assert!(spilled.queues.iter().all(|q| q.is_empty()));
    assert_eq!(spilled.queue_summaries, in_memory.queue_summaries);
    assert_eq!(spilled.cache_reward, in_memory.cache_reward);
    assert_eq!(spilled.total_requests, in_memory.total_requests);

    let artifact = read_artifact(&path).unwrap();
    assert_eq!(artifact.manifest.policy, "myopic+lyapunov");
    let n = in_memory.queues.len();
    assert_eq!(artifact.channels.len(), n + 2);
    for (k, want) in in_memory.queues.iter().enumerate() {
        assert_eq!(&artifact.channels[k].series, want, "queue {k} bitwise");
    }
    assert_eq!(artifact.channels[n].series, in_memory.cache_reward);
    assert_eq!(
        artifact.channels[n + 1].series,
        in_memory.cumulative_cache_reward
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn grid_with_artifact_dir_matches_in_memory_run_bitwise() {
    let dir = scratch_dir("grid");
    let in_memory = smoke_grid().run().unwrap();
    let report = smoke_grid().artifact_dir(&dir).run().unwrap();

    // Ensembles and every non-trace cell field are unchanged.
    assert_eq!(report.ensembles, in_memory.ensembles);
    assert_eq!(report.cells.len(), in_memory.cells.len());
    for (got, want) in report.cells.iter().zip(&in_memory.cells) {
        let (got, want) = (got.outcome.cache().unwrap(), want.outcome.cache().unwrap());
        assert!(got.aoi_traces.iter().all(|t| t.is_empty()));
        assert_eq!(got.aoi_summaries, want.aoi_summaries);
        assert_eq!(got.cumulative_reward, want.cumulative_reward);
    }

    // Every cell artifact re-reads bit-identically to the in-memory cell.
    for cell in &in_memory.cells {
        let path = ExperimentPlan::cell_artifact_path(&dir, cell.id);
        let artifact = read_artifact(&path).unwrap();
        let want = cell.outcome.cache().unwrap();
        for (k, trace) in want.aoi_traces.iter().enumerate() {
            assert_eq!(&artifact.channels[k].series, trace, "{:?} ch{k}", cell.id);
        }
        assert_eq!(artifact.manifest.seed, Some(cell.id.seed));
    }

    // Every ensemble artifact re-reads bit-identically too.
    for ensemble in &in_memory.ensembles {
        let path = ExperimentPlan::ensemble_artifact_path(&dir, ensemble.scenario, ensemble.policy);
        let artifact = read_artifact(&path).unwrap();
        assert_eq!(artifact.manifest.artifact, ArtifactKind::Ensemble);
        assert_eq!(artifact.curves.len(), 1);
        let got = &artifact.curves[0];
        assert_eq!(got.label, ensemble.label);
        assert_eq!(got.scenario, ensemble.scenario);
        assert_eq!(got.policy, ensemble.policy);
        assert_eq!(got.curve, ensemble.curve, "ensemble curve bitwise");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn streamed_ensembles_with_artifacts_match_batch() {
    let dir = scratch_dir("streamed");
    let batch = smoke_grid().run().unwrap();
    let streamed = smoke_grid()
        .artifact_dir(&dir)
        .recording(RecordingMode::SummaryOnly)
        .run_ensembles()
        .unwrap();
    assert_eq!(batch.ensembles, streamed);
    // The streamed grid wrote the same artifact set.
    for ensemble in &streamed {
        let path = ExperimentPlan::ensemble_artifact_path(&dir, ensemble.scenario, ensemble.policy);
        let artifact = read_artifact(&path).unwrap();
        assert_eq!(artifact.curves[0].curve, ensemble.curve);
    }
    for cell in smoke_grid().cell_ids() {
        assert!(
            ExperimentPlan::cell_artifact_path(&dir, cell).exists(),
            "{cell:?} artifact missing"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An ensemble manifest carries the recording of the cells it folds, as
/// `aoi-artifacts merge` reads it back from them: the plan's for cache
/// grids, always `Full` for service grids (service cells are written
/// `Full` whatever the plan asks).
#[test]
fn ensemble_manifests_carry_their_cells_recording() {
    let service = ExperimentPlan::service(
        vec![ServiceScenario {
            horizon: 80,
            ..ServiceScenario::default()
        }],
        vec![ServicePolicyKind::AlwaysServe],
    )
    .replicate_seeds(vec![1, 2]);
    for (tag, plan) in [("service", service), ("cache", smoke_grid())] {
        let dir = scratch_dir(tag);
        let plan = plan
            .recording(RecordingMode::SummaryOnly)
            .artifact_dir(&dir);
        plan.run_ensembles().unwrap();
        for cell in plan.cell_ids() {
            let cell_recording = read_artifact(&ExperimentPlan::cell_artifact_path(&dir, cell))
                .unwrap()
                .manifest
                .recording;
            let path = ExperimentPlan::ensemble_artifact_path(&dir, cell.scenario, cell.policy);
            let ensemble = read_artifact(&path).unwrap();
            assert_eq!(
                ensemble.manifest.recording, cell_recording,
                "{tag} {cell:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn unwritable_artifact_dir_is_reported() {
    let plan = smoke_grid().artifact_dir("/proc/definitely/not/writable");
    match plan.run() {
        Err(aoi_cache::AoiCacheError::Persist(PersistError::Io { .. })) => {}
        other => panic!("expected a persist error, got {other:?}"),
    }
}
