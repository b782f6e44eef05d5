//! Exhaustive crash-point sweep for the supervised campaign runner.
//!
//! The fault harness counts every artifact-write operation a campaign
//! performs ([`FaultSchedule::counting`]); the sweeps here then re-run the
//! campaign once per operation index `K in 0..N`, injecting a failure at
//! exactly that point:
//!
//! * **kill** — the worker process aborts at `K` (spawned as a child so
//!   the abort is real); a rescue worker must recover the directory to
//!   byte-identical-to-cold, with no torn artifact, leaked lease or
//!   silent gap;
//! * **fail-writes** — a latched write failure at `K` must surface
//!   *loudly* (quarantined cells in the report, or an error when the
//!   fault reaches the ensemble writes), and a relaunch must heal;
//! * **fail-write-once** — a transient failure at `K` must be absorbed
//!   by the retry budget: the campaign completes with no quarantine and
//!   byte-identical artifacts.
//!
//! Plus a quarantine end-to-end smoke driving the **real binaries**: a
//! poisoned `ensemble --claim` run must exit 3, `aoi-artifacts health`
//! must report the quarantined cells (exit 1), and a relaunch without the
//! poison must heal to bit-identity with a cold run.
//!
//! Ignored by default (the sweeps spawn one run per injection point); run
//! them in release with `--ignored`. The fault harness is process-global,
//! so every test holds one process-wide lock and the tests run one at a
//! time at any test-thread count.

use aoi_cache::{CachePolicyKind, CacheScenario, ExperimentPlan};
use simkit::faults::{self, FaultKind, FaultSchedule};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

const ENSEMBLE: &str = env!("CARGO_BIN_EXE_ensemble");
const ARTIFACTS: &str = env!("CARGO_BIN_EXE_aoi-artifacts");

/// The fault schedule is process-global; every test holds this lock so no
/// campaign runs while another test has a fault armed.
static FAULTS: Mutex<()> = Mutex::new(());

/// Takes the fault-harness lock (a test that panicked while holding it
/// leaves nothing worth guarding) and disarms whatever schedule such a
/// test left behind.
fn lock_faults() -> MutexGuard<'static, ()> {
    let guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear();
    guard
}

/// A unique scratch directory per call and tag; removed by each test on
/// success.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aoi-cp-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deliberately tiny grid (2 policies × 2 seeds, 12 slots) so the
/// operation count N — and with it the sweep — stays small.
fn tiny_cache() -> CacheScenario {
    CacheScenario {
        n_rsus: 1,
        regions_per_rsu: 2,
        age_cap: 4,
        max_age_min: 2,
        max_age_max: 3,
        horizon: 12,
        ..CacheScenario::default()
    }
}

fn plan(dir: &Path) -> ExperimentPlan {
    ExperimentPlan::cache(
        vec![tiny_cache()],
        vec![CachePolicyKind::Myopic, CachePolicyKind::Never],
    )
    .replicate_seeds(vec![5, 6])
    .artifact_dir(dir)
}

fn claim_plan(dir: &Path, worker: &str) -> ExperimentPlan {
    // Short TTL: the kill sweep's rescue workers wait out the doomed
    // worker's stale leases once per injection point, and the cells here
    // compute orders of magnitude faster than even this TTL.
    plan(dir)
        .resume(true)
        .claim(true)
        .worker_id(worker)
        .lease_ttl_ms(500)
}

/// Number of injection points a cold run of the sweep grid passes: a
/// counting dry run over the same workload every sweep iteration re-runs,
/// in the scratch directory `tag` (one per test).
fn injection_points(tag: &str) -> u64 {
    let dir = scratch_dir(tag);
    faults::inject_schedule(FaultSchedule::counting());
    plan(&dir).run_ensembles().unwrap();
    let n = faults::operations();
    faults::clear();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(n > 0, "the sweep grid must write through the fault hook");
    n
}

/// Final-name artifact bytes under `dir` (telemetry, leases and
/// temporaries excluded) — the byte-identity currency of every sweep.
fn artifact_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter_map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            let is_artifact = (name.ends_with(".jsonl") || name.ends_with(".jsonl.z"))
                && !simkit::supervise::is_journal_name(&name)
                && !simkit::supervise::is_quarantine_name(&name);
            is_artifact.then(|| (name, std::fs::read(&path).unwrap()))
        })
        .collect()
}

/// Asserts the invariant that must hold after *any* fault, recovered or
/// not: every file under a final artifact name still verifies (torn
/// cells exist only as temporaries, if at all).
fn assert_no_torn_artifact(dir: &Path, what: &str) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if (name.ends_with(".jsonl") || name.ends_with(".jsonl.z"))
            && !simkit::supervise::is_journal_name(&name)
            && !simkit::supervise::is_quarantine_name(&name)
        {
            aoi_cache::persist::read_artifact(&path)
                .unwrap_or_else(|e| panic!("{what}: torn artifact under final name {name}: {e}"));
        }
    }
}

/// Asserts no lease file survives — the invariant of every *completed*
/// campaign pass. (An aborted worker's stale leases are legitimate until
/// a rescue worker takes them over.)
fn assert_leases_released(dir: &Path, what: &str) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().to_string();
        assert!(!name.ends_with(".lease"), "{what}: leaked lease {name}");
    }
}

/// Worker entry for the kill sweep: spawned by
/// `killed_worker_sweep_recovers_at_every_injection_point` with
/// `AOI_SWEEP_DIR` and a `SIMKIT_FAULT=kill:K` plan armed. A no-op when
/// run directly (CI's `--ignored` pass included).
#[test]
#[ignore = "kill-sweep worker entry; a no-op unless spawned by the sweep"]
fn kill_sweep_worker_entry() {
    let _guard = lock_faults();
    let Ok(dir) = std::env::var("AOI_SWEEP_DIR") else {
        return;
    };
    faults::arm_from_env().unwrap();
    // The armed kill plan aborts this process mid-campaign; if K is past
    // the end of the op stream the run simply completes.
    let _ = claim_plan(Path::new(&dir), "doomed").run_ensembles_resumable();
}

#[test]
#[ignore = "spawns one child process per injection point; run via --ignored (CI)"]
fn killed_worker_sweep_recovers_at_every_injection_point() {
    let _guard = lock_faults();
    let cold_dir = scratch_dir("kill-cold");
    let (cold, _) = plan(&cold_dir).run_ensembles_resumable().unwrap();
    let cold_bytes = artifact_bytes(&cold_dir);
    let n = injection_points("kill-count");
    println!("kill sweep: {n} injection points");

    let me = std::env::current_exe().unwrap();
    for k in 0..n {
        let dir = scratch_dir(&format!("kill-{k}"));
        let status = Command::new(&me)
            .args(["kill_sweep_worker_entry", "--exact", "--ignored"])
            .env("AOI_SWEEP_DIR", &dir)
            .env("SIMKIT_FAULT", format!("kill:{k}"))
            .env_remove("AOI_POISON_CELL")
            .status()
            .expect("spawn kill-sweep worker");
        assert!(
            !status.success(),
            "K={k}: the doomed worker must abort mid-campaign"
        );
        assert_no_torn_artifact(&dir, &format!("K={k} post-crash"));

        // Rescue worker: takes over the dead worker's leases (if the
        // abort left any) and finishes the campaign bit-identically.
        let (recovered, report) = claim_plan(&dir, "rescue")
            .run_ensembles_resumable()
            .unwrap();
        assert_eq!(recovered, cold, "K={k}: {report}");
        assert!(report.quarantined.is_empty(), "K={k}: {report}");
        assert_eq!(
            artifact_bytes(&dir),
            cold_bytes,
            "K={k}: recovered artifact bytes must match the cold run"
        );
        assert_no_torn_artifact(&dir, &format!("K={k} post-recovery"));
        assert_leases_released(&dir, &format!("K={k} post-recovery"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&cold_dir).unwrap();
}

#[test]
#[ignore = "runs the campaign once per injection point; run via --ignored (CI)"]
fn latched_write_failure_is_loud_at_every_injection_point() {
    let _guard = lock_faults();
    let cold_dir = scratch_dir("fw-cold");
    let (cold, _) = plan(&cold_dir).run_ensembles_resumable().unwrap();
    let cold_bytes = artifact_bytes(&cold_dir);
    let n = injection_points("fw-count");
    println!("fail-writes sweep: {n} injection points");

    for k in 0..n {
        let dir = scratch_dir(&format!("fw-{k}"));
        faults::inject_schedule(FaultSchedule::at(k, FaultKind::FailWrites));
        let outcome = claim_plan(&dir, "doomed")
            .max_attempts(2)
            .run_ensembles_resumable();
        faults::clear();
        // Never a silent gap: either the campaign completed around
        // quarantined cells (reporting them), or the latched fault also
        // reached the ensemble writes and the run errored.
        match outcome {
            Ok((_, report)) => assert!(
                !report.quarantined.is_empty(),
                "K={k}: a latched write fault must quarantine cells: {report}"
            ),
            Err(e) => assert!(e.to_string().contains("injected"), "K={k}: {e}"),
        }
        assert_no_torn_artifact(&dir, &format!("K={k} post-fault"));
        assert_leases_released(&dir, &format!("K={k} post-fault"));

        let (recovered, report) = claim_plan(&dir, "rescue")
            .run_ensembles_resumable()
            .unwrap();
        assert_eq!(recovered, cold, "K={k}: {report}");
        assert!(report.quarantined.is_empty(), "K={k}: {report}");
        assert_eq!(artifact_bytes(&dir), cold_bytes, "K={k}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&cold_dir).unwrap();
}

#[test]
#[ignore = "runs the campaign once per injection point; run via --ignored (CI)"]
fn transient_write_failure_is_absorbed_at_every_injection_point() {
    let _guard = lock_faults();
    let cold_dir = scratch_dir("fwo-cold");
    let (cold, _) = plan(&cold_dir).run_ensembles_resumable().unwrap();
    let cold_bytes = artifact_bytes(&cold_dir);
    let n = injection_points("fwo-count");
    println!("fail-write-once sweep: {n} injection points");

    for k in 0..n {
        let dir = scratch_dir(&format!("fwo-{k}"));
        faults::inject_schedule(FaultSchedule::at(k, FaultKind::FailWriteOnce));
        let outcome = claim_plan(&dir, "flaky")
            .max_attempts(2)
            .run_ensembles_resumable();
        faults::clear();
        match outcome {
            Ok((ensembles, report)) => {
                // The one failing write hit a cell: its retry succeeded
                // (the trigger consumes itself), nothing quarantined, and
                // the campaign is bit-identical to cold in one pass.
                assert!(
                    report.quarantined.is_empty(),
                    "K={k}: a transient failure must be absorbed by the retry budget: {report}"
                );
                assert!(
                    !report.attempts.is_empty(),
                    "K={k}: the absorbed failure must be accounted as a retry: {report}"
                );
                assert_eq!(ensembles, cold, "K={k}: {report}");
                assert_eq!(artifact_bytes(&dir), cold_bytes, "K={k}");
            }
            Err(e) => {
                // The one-shot landed in an ensemble write, where there is
                // no retry layer — loud, and a relaunch heals.
                assert!(e.to_string().contains("injected"), "K={k}: {e}");
                let (recovered, report) = claim_plan(&dir, "rescue")
                    .run_ensembles_resumable()
                    .unwrap();
                assert_eq!(recovered, cold, "K={k}: {report}");
                assert_eq!(artifact_bytes(&dir), cold_bytes, "K={k}");
            }
        }
        assert_no_torn_artifact(&dir, &format!("K={k}"));
        assert_leases_released(&dir, &format!("K={k}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&cold_dir).unwrap();
}

// --- quarantine end-to-end smoke (real binaries) ---------------------------

fn run_ensemble(out: &Path, extra: &[&str], poison: Option<&str>) -> std::process::ExitStatus {
    let mut cmd = Command::new(ENSEMBLE);
    cmd.args(["2", "--horizon", "60", "--out", &out.display().to_string()]);
    cmd.args(extra);
    cmd.env_remove("SIMKIT_FAULT");
    match poison {
        Some(cell) => cmd.env("AOI_POISON_CELL", cell),
        None => cmd.env_remove("AOI_POISON_CELL"),
    };
    let output = cmd.output().expect("spawn ensemble");
    eprintln!("{}", String::from_utf8_lossy(&output.stderr));
    output.status
}

fn artifacts_tool(args: &[&str]) -> (std::process::ExitStatus, String) {
    let output = Command::new(ARTIFACTS)
        .args(args)
        .output()
        .expect("spawn aoi-artifacts");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    println!("aoi-artifacts {args:?}:\n{stdout}");
    eprintln!("{}", String::from_utf8_lossy(&output.stderr));
    (output.status, stdout)
}

/// A campaign with one always-panicking cell (the `AOI_POISON_CELL` test
/// hook, honoured by the claim engine in any process) must finish with
/// exit 3, `aoi-artifacts health` must report the quarantine (exit 1),
/// and a relaunch without the poison must heal to bit-identity — after
/// which `health` is clean again (exit 0).
#[test]
#[ignore = "spawns full-campaign child processes; run via --ignored (CI)"]
fn poisoned_campaign_exits_3_health_reports_and_relaunch_heals() {
    let _guard = lock_faults();
    let cold = scratch_dir("poison-cold");
    assert!(run_ensemble(&cold, &[], None).success());

    let out = scratch_dir("poison-out");
    let claim_flags = [
        "--resume",
        "--claim",
        "--lease-ttl-ms",
        "1000",
        "--max-attempts",
        "2",
    ];
    // Cell s0-r1-p0 exists in both the fig1a and fig1b grids, so both
    // campaigns quarantine one cell and the bin reports a degraded run.
    let status = run_ensemble(&out, &claim_flags, Some("s0-r1-p0"));
    assert_eq!(
        status.code(),
        Some(3),
        "a degraded campaign must exit with the quarantine status"
    );

    let (status, stdout) = artifacts_tool(&["health", &out.display().to_string()]);
    assert_eq!(status.code(), Some(1), "health must gate on quarantines");
    assert!(stdout.contains("quarantined"), "{stdout}");
    assert!(stdout.contains("poisoned by AOI_POISON_CELL"), "{stdout}");

    // Relaunch without the poison: the campaign heals bit-identically
    // and the post-mortem is clean (journals remain — markers do not).
    assert!(run_ensemble(&out, &claim_flags, None).success());
    let (status, stdout) = artifacts_tool(&["health", &out.display().to_string()]);
    assert!(
        status.success(),
        "a healed campaign reports clean: {stdout}"
    );
    assert!(stdout.contains("no quarantined cells"), "{stdout}");
    let (status, _) = artifacts_tool(&[
        "diff",
        &cold.display().to_string(),
        &out.display().to_string(),
    ]);
    assert!(status.success(), "healed campaign must diff clean vs cold");
    std::fs::remove_dir_all(&cold).unwrap();
    std::fs::remove_dir_all(&out).unwrap();
}
