//! Crash-safety suite for the distributed campaign runner: lease-claimed
//! grids must be **bit-identical** to a cold single-process run no matter
//! how the cells are partitioned across workers, stale leases of dead
//! workers must be taken over, and cells completed by other workers must
//! be counted as stolen — never recomputed into a conflicting artifact.

use aoi_cache::{CachePolicyKind, CacheScenario, ExperimentPlan};
use simkit::lease::{self, Claim};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A unique scratch directory per call; removed by each test on success.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("aoi-crash-{}-{tag}-{n}", std::process::id()));
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

/// The shared 2-policy × 3-replicate grid (6 cells, 2 ensembles).
fn plan(dir: &Path) -> ExperimentPlan {
    ExperimentPlan::cache(
        vec![tiny_cache()],
        vec![CachePolicyKind::Myopic, CachePolicyKind::Never],
    )
    .replicate_seeds(vec![5, 6, 7])
    .artifact_dir(dir)
}

fn claim_plan(dir: &Path, worker: &str) -> ExperimentPlan {
    plan(dir).resume(true).claim(true).worker_id(worker)
}

/// Artifact files under `dir` (leases and temporaries excluded), re-read
/// into comparable form.
fn read_dir_artifacts(dir: &Path) -> Vec<(String, aoi_cache::persist::Artifact)> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            // Health journals and quarantine markers are worker telemetry,
            // not run artifacts — a campaign dir carries them legitimately.
            (name.ends_with(".jsonl") || name.ends_with(".jsonl.z"))
                && !simkit::supervise::is_journal_name(&name)
                && !simkit::supervise::is_quarantine_name(&name)
        })
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().to_string();
            (name, aoi_cache::persist::read_artifact(&p).unwrap())
        })
        .collect()
}

/// Lease files left under `dir`.
fn leftover_leases(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".lease"))
        .collect()
}

#[test]
fn single_worker_campaign_is_bit_identical_to_cold_run() {
    let cold_dir = scratch_dir("cold");
    let (cold, _) = plan(&cold_dir).run_ensembles_resumable().unwrap();
    let cold_files = read_dir_artifacts(&cold_dir);

    let dir = scratch_dir("claimed");
    let (claimed, report) = claim_plan(&dir, "w1").run_ensembles_resumable().unwrap();
    assert_eq!(claimed, cold, "claimed campaign must match the cold run");
    assert_eq!(read_dir_artifacts(&dir), cold_files, "artifact bytes too");
    assert_eq!(report.claimed.len(), 6, "{report}");
    assert_eq!(report.recomputed.len(), 6);
    assert!(report.expired.is_empty());
    assert!(report.stolen.is_empty());
    assert!(leftover_leases(&dir).is_empty(), "all leases released");
    let text = report.to_string();
    assert!(text.contains("claimed"), "{text}");

    // Warm second pass: everything skips, nothing is claimed.
    let (warm, report) = claim_plan(&dir, "w1").run_ensembles_resumable().unwrap();
    assert_eq!(warm, cold);
    assert!(report.is_warm(), "{report}");
    assert!(report.claimed.is_empty());
    std::fs::remove_dir_all(&cold_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two workers sharing one directory partition the grid between them:
/// claimed sets are disjoint, every cell lands exactly once, and both
/// workers report ensembles bit-identical to a cold single-process run.
#[test]
fn concurrent_workers_partition_the_grid_without_conflicts() {
    let cold_dir = scratch_dir("cold");
    let (cold, _) = plan(&cold_dir).run_ensembles_resumable().unwrap();
    let cold_files = read_dir_artifacts(&cold_dir);

    let dir = scratch_dir("shared");
    let (a, b) = std::thread::scope(|scope| {
        let dir_a = dir.clone();
        let dir_b = dir.clone();
        let ha = scope.spawn(move || {
            claim_plan(&dir_a, "worker-a")
                .run_ensembles_resumable()
                .unwrap()
        });
        let hb = scope.spawn(move || {
            claim_plan(&dir_b, "worker-b")
                .run_ensembles_resumable()
                .unwrap()
        });
        (ha.join().unwrap(), hb.join().unwrap())
    });

    let (ensembles_a, report_a) = a;
    let (ensembles_b, report_b) = b;
    assert_eq!(ensembles_a, cold, "worker A: {report_a}");
    assert_eq!(ensembles_b, cold, "worker B: {report_b}");
    assert_eq!(read_dir_artifacts(&dir), cold_files, "artifact bytes too");
    assert!(leftover_leases(&dir).is_empty());

    // No cell is claimed by both workers (the leases arbitrated), and
    // every cell is accounted exactly once per worker.
    for id in &report_a.claimed {
        assert!(
            !report_b.claimed.contains(id),
            "cell {id:?} claimed by both workers"
        );
    }
    assert_eq!(report_a.n_cells(), 6, "{report_a}");
    assert_eq!(report_b.n_cells(), 6, "{report_b}");
    assert_eq!(
        report_a.claimed.len() + report_b.claimed.len(),
        6,
        "every cell computed exactly once: {report_a} / {report_b}"
    );
    std::fs::remove_dir_all(&cold_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A SIGKILLed worker leaves an expired lease and no artifact: the next
/// worker takes the lease over (reported in `expired`) and recomputes the
/// cell, converging on the cold run's bytes.
#[test]
fn stale_lease_of_dead_worker_is_taken_over() {
    let cold_dir = scratch_dir("cold");
    let (cold, _) = plan(&cold_dir).run_ensembles_resumable().unwrap();

    let dir = scratch_dir("stale");
    // Fabricate the dead worker: a lease claimed far in the past whose
    // guard is abandoned (SIGKILL runs no destructors).
    let plan_probe = plan(&dir);
    let stale_cell = plan_probe.cell_ids()[0];
    let lease_path = ExperimentPlan::cell_lease_path(&dir, stale_cell);
    let ttl = Duration::from_millis(1_000);
    match lease::claim_at(&lease_path, "dead-worker", ttl, lease::wall_ms() - 60_000).unwrap() {
        Claim::Acquired(guard) => guard.abandon(),
        other => panic!("expected Acquired, got {other:?}"),
    }
    assert!(lease_path.exists());

    let (claimed, report) = claim_plan(&dir, "survivor")
        .run_ensembles_resumable()
        .unwrap();
    assert_eq!(claimed, cold);
    assert!(
        report.expired.contains(&stale_cell),
        "takeover must be reported: {report}"
    );
    assert!(report.claimed.contains(&stale_cell));
    assert!(leftover_leases(&dir).is_empty());
    let text = report.to_string();
    assert!(text.contains("expired leases"), "{text}");
    std::fs::remove_dir_all(&cold_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cell held by another live worker is never recomputed: this worker
/// waits, observes the finished artifact, and counts the cell as stolen.
#[test]
fn cell_completed_by_another_worker_counts_as_stolen() {
    let cold_dir = scratch_dir("cold");
    let (cold, _) = plan(&cold_dir).run_ensembles_resumable().unwrap();

    let dir = scratch_dir("stolen");
    let plan_probe = plan(&dir);
    let held_cell = plan_probe.cell_ids()[0];
    let lease_path = ExperimentPlan::cell_lease_path(&dir, held_cell);
    let cell_file = ExperimentPlan::cell_artifact_path(&dir, held_cell);
    let cold_cell = ExperimentPlan::cell_artifact_path(&cold_dir, held_cell);

    // The "other worker": holds the lease, finishes its cell after a
    // while (bytes borrowed from the cold run — cells are deterministic,
    // so this is exactly what it would compute), then releases.
    let guard = match lease::claim(&lease_path, "other-worker", Duration::from_secs(30)).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    let other = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let tmp = aoi_cache::persist::tmp_path(&cell_file);
        std::fs::copy(&cold_cell, &tmp).unwrap();
        std::fs::rename(&tmp, &cell_file).unwrap();
        guard.release().unwrap();
    });

    // Short TTL so the waiting worker polls quickly; the lease is
    // heartbeat-free but released long before it could expire.
    let (claimed, report) = claim_plan(&dir, "waiter")
        .lease_ttl_ms(2_000)
        .run_ensembles_resumable()
        .unwrap();
    other.join().unwrap();
    assert_eq!(claimed, cold);
    assert!(
        report.stolen.contains(&held_cell),
        "the waited-out cell must be reported stolen: {report}"
    );
    assert!(
        !report.claimed.contains(&held_cell),
        "a stolen cell was never claimed here: {report}"
    );
    assert_eq!(report.claimed.len(), 5);
    let text = report.to_string();
    assert!(text.contains("stolen"), "{text}");
    std::fs::remove_dir_all(&cold_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn claim_misconfigurations_are_rejected() {
    let dir = scratch_dir("reject");
    // claim without resume.
    assert!(plan(&dir).claim(true).run_ensembles().is_err());
    // claim without an artifact directory.
    let bare = ExperimentPlan::cache(vec![tiny_cache()], vec![CachePolicyKind::Never])
        .resume(true)
        .claim(true);
    assert!(bare.run_ensembles().is_err());
    // A zero TTL would make every lease expired on arrival.
    assert!(claim_plan(&dir, "w")
        .lease_ttl_ms(0)
        .run_ensembles()
        .is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Claim mode with compiled MDP kernels: a claimed cold run over a
/// 2-replicate grid of exact-MDP policies writes cell and ensemble
/// artifacts byte-identical to a plain cold run's.
#[test]
fn claimed_mdp_grid_is_byte_identical_to_plain_cold_run() {
    let mdp_plan = |dir: &Path| {
        ExperimentPlan::cache(
            vec![tiny_cache()],
            vec![
                CachePolicyKind::ValueIteration { gamma: 0.9 },
                CachePolicyKind::AverageReward,
            ],
        )
        .replicate_seeds(vec![5, 6])
        .artifact_dir(dir)
    };
    let cold_dir = scratch_dir("mdp-cold");
    let (cold, _) = mdp_plan(&cold_dir).run_ensembles_resumable().unwrap();

    let dir = scratch_dir("mdp-claimed");
    let (claimed, report) = mdp_plan(&dir)
        .resume(true)
        .claim(true)
        .worker_id("mdp")
        .run_ensembles_resumable()
        .unwrap();
    assert_eq!(claimed, cold, "{report}");
    assert_eq!(report.claimed.len(), 4, "{report}");
    assert!(report.quarantined.is_empty(), "{report}");
    let bytes = |dir: &Path| {
        read_dir_artifacts(dir)
            .into_iter()
            .map(|(name, _)| (name.clone(), std::fs::read(dir.join(name)).unwrap()))
            .collect::<Vec<_>>()
    };
    let cold_bytes = bytes(&cold_dir);
    assert_eq!(cold_bytes.len(), 4 + 2, "4 cells and 2 ensembles");
    assert_eq!(bytes(&dir), cold_bytes);
    assert!(leftover_leases(&dir).is_empty());
    std::fs::remove_dir_all(&cold_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
