//! Resume suite for `ExperimentPlan`: a grid with an artifact directory
//! must produce **bit-identical** ensembles whether it runs cold, fully
//! warm, or half-interrupted — and every damaged, stale or foreign cell
//! artifact must force a recompute, never a silent skip.

use aoi_cache::persist::{read_artifact, Compression, PersistError};
use aoi_cache::{
    CachePolicyKind, CacheScenario, CacheSimulation, ExperimentPlan, JointScenario, ResumeReport,
    ServicePolicyKind, ServiceScenario,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per call; removed by each test on success.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("aoi-resume-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_cache() -> CacheScenario {
    CacheScenario {
        n_rsus: 2,
        regions_per_rsu: 2,
        age_cap: 5,
        max_age_min: 3,
        max_age_max: 4,
        horizon: 60,
        ..CacheScenario::default()
    }
}

fn cache_plan(dir: &Path) -> ExperimentPlan {
    ExperimentPlan::cache(
        vec![tiny_cache()],
        vec![CachePolicyKind::Myopic, CachePolicyKind::Never],
    )
    .replicate_seeds(vec![5, 6, 7])
    .artifact_dir(dir)
}

/// Every artifact file under `dir`, re-read into comparable form.
fn read_dir_artifacts(dir: &Path) -> Vec<(String, aoi_cache::persist::Artifact)> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().to_string();
            (name, read_artifact(&p).unwrap())
        })
        .collect()
}

#[test]
fn warm_and_interrupted_resumes_are_bit_identical_to_cold() {
    let cold_dir = scratch_dir("cold");
    let (cold, report) = cache_plan(&cold_dir).run_ensembles_resumable().unwrap();
    assert!(report.is_cold());
    assert_eq!(report.recomputed.len(), 6);
    let cold_files = read_dir_artifacts(&cold_dir);
    assert_eq!(cold_files.len(), 6 + 2, "6 cells + 2 ensembles");

    // Fully warm: every cell skipped, results and artifacts identical.
    let (warm, report) = cache_plan(&cold_dir)
        .resume(true)
        .run_ensembles_resumable()
        .unwrap();
    assert!(report.is_warm(), "{report}");
    assert_eq!(report.skipped.len(), 6);
    assert_eq!(warm, cold, "warm ensembles must be bit-identical");
    assert_eq!(read_dir_artifacts(&cold_dir), cold_files);

    // Interrupted: delete one cell artifact mid-grid; only it recomputes,
    // and the directory converges back to the cold run's bytes-for-bytes
    // reconstruction.
    let victim = ExperimentPlan::cell_artifact_path(
        &cold_dir,
        report.skipped[3], // s0-r1-p1
    );
    std::fs::remove_file(&victim).unwrap();
    let (resumed, report) = cache_plan(&cold_dir)
        .resume(true)
        .run_ensembles_resumable()
        .unwrap();
    assert_eq!(report.skipped.len(), 5);
    assert_eq!(report.recomputed.len(), 1);
    assert!(report.invalidated.is_empty());
    assert_eq!(resumed, cold, "interrupted resume must be bit-identical");
    assert_eq!(read_dir_artifacts(&cold_dir), cold_files);
    std::fs::remove_dir_all(&cold_dir).unwrap();
}

/// Every file under `dir` with its bytes: what `cmp` compares.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().to_string();
            (name, std::fs::read(&p).unwrap())
        })
        .collect()
}

/// The inode of every ensemble artifact under `dir`. Writing an artifact
/// renames a new file into place, so an unchanged inode means the file
/// was left alone.
#[cfg(unix)]
fn ensemble_inodes(dir: &Path) -> BTreeMap<String, u64> {
    use std::os::unix::fs::MetadataExt;
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with("ensemble-"))
        .map(|e| {
            let name = e.file_name().to_string_lossy().to_string();
            (name, e.metadata().unwrap().ino())
        })
        .collect()
}

/// A full resume finds every ensemble artifact byte-identical to what it
/// would write and leaves each file in place (same inode), in both
/// encodings and in claim mode; the directory still equals the cold one.
#[cfg(unix)]
#[test]
fn warm_resume_leaves_every_ensemble_file_in_place() {
    for compression in [Compression::None, Compression::Deflate] {
        let dir = scratch_dir("ensembles-in-place");
        let plan = |d: &Path| cache_plan(d).compress(compression);
        let (cold, report) = plan(&dir).run_ensembles_resumable().unwrap();
        assert_eq!(
            (report.ensembles_unchanged, report.ensembles_written),
            (0, 2),
            "{compression:?}: {report}"
        );
        let cold_bytes = dir_bytes(&dir);
        let inodes = ensemble_inodes(&dir);
        assert_eq!(inodes.len(), 2);

        for claim in [false, true] {
            let (warm, report) = plan(&dir)
                .resume(true)
                .claim(claim)
                .run_ensembles_resumable()
                .unwrap();
            assert!(report.is_warm(), "{report}");
            assert_eq!(warm, cold);
            assert_eq!(
                (report.ensembles_unchanged, report.ensembles_written),
                (2, 0),
                "{compression:?} claim={claim}: {report}"
            );
            assert!(report
                .to_string()
                .contains("ensembles: 2 unchanged, 0 written"));
            assert_eq!(
                ensemble_inodes(&dir),
                inodes,
                "{compression:?} claim={claim}"
            );
            let mut now = dir_bytes(&dir);
            // Claim mode leaves its health journal beside the artifacts.
            now.retain(|name, _| !name.starts_with("events-"));
            assert_eq!(now, cold_bytes, "{compression:?} claim={claim}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Seven ensemble groups: enough to damage six ensemble files in six
/// different ways and keep one intact.
fn seven_group_plan(dir: &Path, horizon: usize, compression: Compression) -> ExperimentPlan {
    ExperimentPlan::cache(
        vec![CacheScenario {
            horizon,
            ..tiny_cache()
        }],
        vec![
            CachePolicyKind::Myopic,
            CachePolicyKind::Never,
            CachePolicyKind::AgeThreshold { margin: 1 },
            CachePolicyKind::AgeThreshold { margin: 2 },
            CachePolicyKind::Periodic { period: 2 },
            CachePolicyKind::Periodic { period: 3 },
            CachePolicyKind::Random { probability: 0.3 },
        ],
    )
    .replicate_seeds(vec![5, 6])
    .artifact_dir(dir)
    .compress(compression)
}

/// An ensemble file whose bytes differ in any way from what the run would
/// write is rewritten to exactly the cold run's bytes: a flipped byte in
/// the middle or at the very end (for a compressed file, its checksum), a
/// truncated file, the other encoding's file at this encoding's path, a
/// file from a different horizon, and a trailing byte after the footer or
/// stream. The intact one is left in place.
#[cfg(unix)]
#[test]
fn damaged_or_stale_ensembles_are_rewritten_to_the_cold_bytes() {
    for compression in [Compression::None, Compression::Deflate] {
        let other = match compression {
            Compression::None => Compression::Deflate,
            Compression::Deflate => Compression::None,
        };
        let cold_dir = scratch_dir("ensembles-cold");
        let (cold, _) = seven_group_plan(&cold_dir, 60, compression)
            .run_ensembles_resumable()
            .unwrap();
        let cold_bytes = dir_bytes(&cold_dir);
        let other_encoding = scratch_dir("ensembles-other-encoding");
        seven_group_plan(&other_encoding, 60, other)
            .run_ensembles()
            .unwrap();
        let other_horizon = scratch_dir("ensembles-other-horizon");
        seven_group_plan(&other_horizon, 40, compression)
            .run_ensembles()
            .unwrap();

        let dir = scratch_dir("ensembles-damaged");
        for (name, bytes) in &cold_bytes {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let path = |d: &Path, policy: usize, c: Compression| {
            ExperimentPlan::ensemble_artifact_path_with(d, 0, policy, c)
        };
        let mut bytes = std::fs::read(path(&dir, 0, compression)).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x01;
        std::fs::write(path(&dir, 0, compression), &bytes).unwrap();
        let mut bytes = std::fs::read(path(&dir, 1, compression)).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(path(&dir, 1, compression), &bytes).unwrap();
        let bytes = std::fs::read(path(&dir, 2, compression)).unwrap();
        std::fs::write(path(&dir, 2, compression), &bytes[..bytes.len() / 2]).unwrap();
        std::fs::copy(path(&other_encoding, 3, other), path(&dir, 3, compression)).unwrap();
        std::fs::copy(
            path(&other_horizon, 4, compression),
            path(&dir, 4, compression),
        )
        .unwrap();
        let mut bytes = std::fs::read(path(&dir, 5, compression)).unwrap();
        bytes.push(b'\n');
        std::fs::write(path(&dir, 5, compression), &bytes).unwrap();
        let intact =
            ensemble_inodes(&dir)[&format!("ensemble-s0-p6.jsonl{}", compression.suffix())];

        let (resumed, report) = seven_group_plan(&dir, 60, compression)
            .resume(true)
            .run_ensembles_resumable()
            .unwrap();
        assert!(report.is_warm(), "{report}");
        assert_eq!(resumed, cold);
        assert_eq!(
            (report.ensembles_unchanged, report.ensembles_written),
            (1, 6),
            "{compression:?}: {report}"
        );
        assert_eq!(dir_bytes(&dir), cold_bytes, "{compression:?}");
        assert_eq!(
            ensemble_inodes(&dir)[&format!("ensemble-s0-p6.jsonl{}", compression.suffix())],
            intact,
            "{compression:?}: the intact ensemble is left in place"
        );
        for d in [cold_dir, other_encoding, other_horizon, dir] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }
}

#[test]
fn truncated_footer_forces_recompute() {
    let dir = scratch_dir("truncated");
    let (cold, _) = cache_plan(&dir).run_ensembles_resumable().unwrap();
    let victim = dir.join("cell-s0-r0-p0.trace.jsonl");
    let text = std::fs::read_to_string(&victim).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    std::fs::write(&victim, lines[..lines.len() - 1].join("\n")).unwrap();
    // The truncated artifact itself reads as such.
    assert_eq!(read_artifact(&victim), Err(PersistError::Truncated));

    let (resumed, report) = cache_plan(&dir)
        .resume(true)
        .run_ensembles_resumable()
        .unwrap();
    assert_eq!(report.invalidated.len(), 1, "{report}");
    assert!(report.invalidated[0].1.contains("truncated"));
    assert_eq!(report.skipped.len(), 5);
    assert_eq!(resumed, cold);
    // The rewritten artifact verifies again.
    assert!(read_artifact(&victim).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn config_hash_mismatch_after_a_preset_change_forces_recompute() {
    let dir = scratch_dir("hash");
    cache_plan(&dir).run_ensembles().unwrap();

    // The "preset" changes (a different update cost): every existing cell
    // artifact is stale and must be invalidated, not silently reused.
    let changed = CacheScenario {
        update_cost: 0.35,
        ..tiny_cache()
    };
    let changed_plan = ExperimentPlan::cache(
        vec![changed],
        vec![CachePolicyKind::Myopic, CachePolicyKind::Never],
    )
    .replicate_seeds(vec![5, 6, 7])
    .artifact_dir(&dir)
    .resume(true);
    let (resumed, report) = changed_plan.run_ensembles_resumable().unwrap();
    assert_eq!(report.invalidated.len(), 6, "{report}");
    assert!(report.skipped.is_empty(), "no stale cell may be reused");
    assert!(report.invalidated[0].1.contains("config hash mismatch"));

    // And the recomputed grid equals a cold run of the changed plan.
    let cold_dir = scratch_dir("hash-cold");
    let changed_cold = ExperimentPlan::cache(
        vec![changed],
        vec![CachePolicyKind::Myopic, CachePolicyKind::Never],
    )
    .replicate_seeds(vec![5, 6, 7])
    .artifact_dir(&cold_dir)
    .run_ensembles()
    .unwrap();
    assert_eq!(resumed, changed_cold);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&cold_dir).unwrap();
}

#[test]
fn foreign_and_unknown_version_artifacts_force_recompute() {
    let dir = scratch_dir("foreign");
    let (cold, _) = cache_plan(&dir).run_ensembles_resumable().unwrap();

    // A file from a future format version...
    let future = dir.join("cell-s0-r0-p0.trace.jsonl");
    std::fs::write(
        &future,
        "{\"kind\":\"manifest\",\"format\":99,\"artifact\":\"trace\",\"scenario\":\"cache\",\
         \"policy\":\"myopic\",\"seed\":5,\"recording\":\"full\",\"config_hash\":\"00\"}\n\
         {\"kind\":\"footer\",\"channels\":0,\"curves\":0,\"samples\":0}\n",
    )
    .unwrap();
    // ...and a foreign artifact written by some other run entirely (valid
    // format, wrong seed/configuration).
    let foreign = dir.join("cell-s0-r1-p0.trace.jsonl");
    let sim = CacheSimulation::new(CacheScenario {
        seed: 999,
        ..tiny_cache()
    })
    .unwrap();
    sim.run_artifact_with(CachePolicyKind::Myopic, &foreign, Compression::None)
        .unwrap();

    let (resumed, report) = cache_plan(&dir)
        .resume(true)
        .run_ensembles_resumable()
        .unwrap();
    assert_eq!(report.invalidated.len(), 2, "{report}");
    assert!(report
        .invalidated
        .iter()
        .any(|(_, why)| why.contains("unsupported artifact format")));
    assert!(report
        .invalidated
        .iter()
        .any(|(_, why)| why.contains("mismatch")));
    assert_eq!(resumed, cold);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partially_written_compressed_artifact_forces_recompute() {
    let dir = scratch_dir("z-partial");
    let plan = |d: &Path| cache_plan(d).compress(Compression::Deflate);
    let (cold, _) = plan(&dir).run_ensembles_resumable().unwrap();

    let victim = dir.join("cell-s0-r2-p1.trace.jsonl.z");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(read_artifact(&victim), Err(PersistError::Truncated));

    let (resumed, report) = plan(&dir).resume(true).run_ensembles_resumable().unwrap();
    assert_eq!(report.invalidated.len(), 1, "{report}");
    assert_eq!(report.skipped.len(), 5);
    assert_eq!(resumed, cold);
    assert_eq!(std::fs::read(&victim).unwrap(), bytes, "rewritten whole");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compressed_grids_match_plain_grids_and_resume() {
    let plain_dir = scratch_dir("plain");
    let packed_dir = scratch_dir("packed");
    let cold_plain = cache_plan(&plain_dir).run_ensembles().unwrap();
    let cold_packed = cache_plan(&packed_dir)
        .compress(Compression::Deflate)
        .run_ensembles()
        .unwrap();
    assert_eq!(cold_plain, cold_packed, "encoding must not change results");

    // The decoded artifacts agree too (paths differ only by suffix).
    for (name, artifact) in read_dir_artifacts(&packed_dir) {
        let plain_name = name.strip_suffix(".z").unwrap();
        let plain = read_artifact(&plain_dir.join(plain_name)).unwrap();
        assert_eq!(artifact, plain, "{name}");
    }

    // A warm compressed resume skips everything.
    let (warm, report) = cache_plan(&packed_dir)
        .compress(Compression::Deflate)
        .resume(true)
        .run_ensembles_resumable()
        .unwrap();
    assert!(report.is_warm(), "{report}");
    assert_eq!(warm, cold_packed);
    std::fs::remove_dir_all(&plain_dir).unwrap();
    std::fs::remove_dir_all(&packed_dir).unwrap();
}

#[test]
fn service_and_joint_grids_resume_bit_identically() {
    // Service grid.
    let dir = scratch_dir("service");
    let plan = |d: &Path| {
        ExperimentPlan::service(
            vec![ServiceScenario {
                horizon: 120,
                ..ServiceScenario::default()
            }],
            vec![
                ServicePolicyKind::Lyapunov { v: 20.0 },
                ServicePolicyKind::AlwaysServe,
            ],
        )
        .replicate_seeds(vec![1, 2])
        .artifact_dir(d)
    };
    let (cold, _) = plan(&dir).run_ensembles_resumable().unwrap();
    std::fs::remove_file(dir.join("cell-s0-r0-p1.trace.jsonl")).unwrap();
    let (resumed, report) = plan(&dir).resume(true).run_ensembles_resumable().unwrap();
    assert_eq!(report.skipped.len(), 3, "{report}");
    assert_eq!(report.recomputed.len(), 1);
    assert_eq!(resumed, cold);
    std::fs::remove_dir_all(&dir).unwrap();

    // Joint grid.
    let dir = scratch_dir("joint");
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
        horizon: 50,
        warmup: 10,
        ..JointScenario::default()
    };
    let plan = |d: &Path| {
        ExperimentPlan::joint(vec![scenario.clone()])
            .replicate_seeds(vec![7, 8])
            .artifact_dir(d)
    };
    let (cold, _) = plan(&dir).run_ensembles_resumable().unwrap();
    std::fs::remove_file(dir.join("cell-s0-r1-p0.trace.jsonl")).unwrap();
    let (resumed, report) = plan(&dir).resume(true).run_ensembles_resumable().unwrap();
    assert_eq!(report.skipped.len(), 1, "{report}");
    assert_eq!(report.recomputed.len(), 1);
    assert_eq!(resumed, cold);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Anything unreadable squatting at a cell's artifact path — even a
/// directory — is invalidated and cleared for recompute, never an abort:
/// resume treats "cannot read" exactly like "stale".
#[test]
fn directory_at_cell_artifact_path_is_invalidated_and_recomputed() {
    let dir = scratch_dir("squatter");
    let (cold, _) = cache_plan(&dir).run_ensembles_resumable().unwrap();
    let victim = dir.join("cell-s0-r0-p1.trace.jsonl");
    std::fs::remove_file(&victim).unwrap();
    std::fs::create_dir(&victim).unwrap();
    std::fs::write(victim.join("junk"), "not an artifact").unwrap();

    let (resumed, report) = cache_plan(&dir)
        .resume(true)
        .run_ensembles_resumable()
        .unwrap();
    assert_eq!(report.invalidated.len(), 1, "{report}");
    assert_eq!(report.skipped.len(), 5);
    assert_eq!(resumed, cold);
    assert!(victim.is_file(), "the squatter was cleared and rewritten");
    assert!(read_artifact(&victim).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crashed writer's orphaned `*.tmp-<pid>-<seq>` temporary is swept when its
/// cell recomputes — and its presence never counts as a finished cell
/// (the artifact only exists under its final name after a completed
/// finish).
#[test]
fn orphaned_temporaries_are_swept_on_recompute() {
    let dir = scratch_dir("orphan-tmp");
    let (cold, _) = cache_plan(&dir).run_ensembles_resumable().unwrap();
    let victim = dir.join("cell-s0-r1-p0.trace.jsonl");
    std::fs::remove_file(&victim).unwrap();
    // The crashed worker got halfway: a torn temporary, no final file.
    let orphan = dir.join("cell-s0-r1-p0.trace.jsonl.tmp-99999");
    std::fs::write(&orphan, "{\"kind\":\"manifest\",\"form").unwrap();
    // A temporary of a cell that is NOT being recomputed must survive the
    // sweep (a live worker of a shared campaign may be streaming to it).
    let live = dir.join("cell-s0-r2-p0.trace.jsonl.tmp-88888");
    std::fs::write(&live, "in flight").unwrap();

    let (resumed, report) = cache_plan(&dir)
        .resume(true)
        .run_ensembles_resumable()
        .unwrap();
    assert_eq!(report.recomputed.len(), 1, "missing, not invalid: {report}");
    assert_eq!(report.skipped.len(), 5);
    assert_eq!(resumed, cold);
    assert!(!orphan.exists(), "the orphaned temporary must be swept");
    assert!(live.exists(), "other cells' temporaries are left alone");
    assert!(read_artifact(&victim).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_misconfigurations_are_rejected() {
    // resume without an artifact directory.
    let plan = ExperimentPlan::cache(vec![tiny_cache()], vec![CachePolicyKind::Never]).resume(true);
    assert!(plan.run_ensembles().is_err());
    // resume on the batch engine (full per-cell reports cannot be
    // reconstructed from artifacts).
    let dir = scratch_dir("reject");
    let plan = ExperimentPlan::cache(vec![tiny_cache()], vec![CachePolicyKind::Never])
        .artifact_dir(&dir)
        .resume(true);
    assert!(plan.run().is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_report_accounting_is_complete() {
    let report = ResumeReport::default();
    assert_eq!(report.n_cells(), 0);
    assert!(report.is_cold() && report.is_warm());

    let dir = scratch_dir("accounting");
    let (_, cold) = cache_plan(&dir).run_ensembles_resumable().unwrap();
    assert_eq!(cold.n_cells(), 6);
    let (_, warm) = cache_plan(&dir)
        .resume(true)
        .run_ensembles_resumable()
        .unwrap();
    assert_eq!(warm.n_cells(), 6);
    let text = warm.to_string();
    assert!(text.contains("6 skipped"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance bar for the compression codec on real workloads: a
/// `Full`-mode fig1a artifact (the paper's 4×5×1000-slot scenario) must
/// shrink at least 3× on disk while re-reading bit-identically.
#[test]
fn full_mode_fig1a_artifact_shrinks_3x_and_rereads_bitwise() {
    let dir = scratch_dir("fig1a-ratio");
    let scenario = CacheScenario::default(); // the fig1a preset scale
    let sim = CacheSimulation::new(scenario).unwrap();
    let plain = dir.join("fig1a.trace.jsonl");
    let packed = dir.join("fig1a.trace.jsonl.z");
    // Myopic needs no MDP solve, so the debug-build test stays quick; the
    // artifact's shape (20 AoI channels × 1000 slots + reward curves) is
    // identical for every policy.
    let a = sim
        .run_artifact_with(CachePolicyKind::Myopic, &plain, Compression::None)
        .unwrap();
    let b = sim
        .run_artifact_with(CachePolicyKind::Myopic, &packed, Compression::Deflate)
        .unwrap();
    assert_eq!(a, b, "reports must not depend on the encoding");

    let plain_len = std::fs::metadata(&plain).unwrap().len();
    let packed_len = std::fs::metadata(&packed).unwrap().len();
    assert!(
        packed_len * 3 <= plain_len,
        "fig1a artifact must shrink >= 3x: {plain_len} -> {packed_len}"
    );
    assert_eq!(
        read_artifact(&plain).unwrap(),
        read_artifact(&packed).unwrap(),
        "both encodings must reconstruct the identical artifact"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
