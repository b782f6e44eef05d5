//! The claim-mode boundary of the grid engine: leasing — with its lease
//! files, health journal, retries and quarantine markers — is the only
//! optional part, and it stays off outside claim mode. A plain or resumed
//! artifact run leaves no claim-only file behind, and a failing cell
//! aborts it on the spot, where a claimed run retries the same failure
//! away.
//!
//! Lives in its own integration-test binary: the fault harness is
//! process-global, so every test here holds [`HARNESS`] while it runs.

use aoi_cache::{CachePolicyKind, CacheScenario, ExperimentPlan};
use simkit::faults::{self, FaultKind, FaultPlan};
use simkit::supervise;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes the tests: an armed fault would hit any run in the process.
static HARNESS: Mutex<()> = Mutex::new(());

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aoi-boundary-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The 2-policy × 2-replicate grid (2 waves of 2 cells).
fn plan(dir: &Path) -> ExperimentPlan {
    ExperimentPlan::cache(
        vec![CacheScenario {
            n_rsus: 2,
            regions_per_rsu: 2,
            age_cap: 5,
            max_age_min: 3,
            max_age_max: 4,
            horizon: 60,
            ..CacheScenario::default()
        }],
        vec![CachePolicyKind::Myopic, CachePolicyKind::Never],
    )
    .replicate_seeds(vec![5, 6])
    .artifact_dir(dir)
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
        .collect();
    names.sort();
    names
}

/// Lease files, health journals and quarantine markers under `dir`.
fn claim_only_files(dir: &Path) -> Vec<String> {
    file_names(dir)
        .into_iter()
        .filter(|n| {
            n.ends_with(".lease")
                || supervise::is_journal_name(n)
                || supervise::is_quarantine_name(n)
        })
        .collect()
}

#[test]
fn plain_and_resumed_artifact_runs_leave_no_claim_only_files() {
    let _harness = HARNESS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_dir("files");
    let (cold, report) = plan(&dir).run_ensembles_resumable().unwrap();
    assert_eq!(report.recomputed.len(), 4, "{report}");
    assert!(claim_only_files(&dir).is_empty(), "{:?}", file_names(&dir));

    // A resumed run over a half-finished directory recomputes the missing
    // cell, still without touching a lease or a journal.
    let dropped = plan(&dir).cell_ids()[3];
    std::fs::remove_file(ExperimentPlan::cell_artifact_path(&dir, dropped)).unwrap();
    let (warm, report) = plan(&dir).resume(true).run_ensembles_resumable().unwrap();
    assert_eq!(warm, cold);
    assert_eq!(report.recomputed, vec![dropped], "{report}");
    assert!(report.claimed.is_empty() && report.attempts.is_empty());
    assert!(claim_only_files(&dir).is_empty(), "{:?}", file_names(&dir));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failing_cell_aborts_a_plain_run_without_retry() {
    let _harness = HARNESS.lock().unwrap_or_else(|e| e.into_inner());
    let cold_dir = scratch_dir("cold");
    let (cold, _) = plan(&cold_dir).run_ensembles_resumable().unwrap();

    // One transient write failure inside the first wave. A retry would
    // absorb it; outside claim mode there is none, so the run returns the
    // error and never reaches the second wave or the ensemble writes.
    let abort_dir = scratch_dir("abort");
    let transient = FaultPlan {
        after_samples: 10,
        kind: FaultKind::FailWriteOnce,
    };
    faults::inject(transient);
    let outcome = plan(&abort_dir).resume(true).run_ensembles_resumable();
    faults::clear();
    let err = outcome.expect_err("a failing cell must abort a plain run");
    assert!(err.to_string().contains("injected"), "{err}");
    let names = file_names(&abort_dir);
    assert!(
        !names
            .iter()
            .any(|n| n.contains("-r1-") || n.starts_with("ensemble-")),
        "the run must stop at the failing wave: {names:?}"
    );
    assert!(claim_only_files(&abort_dir).is_empty(), "{names:?}");

    // The same transient failure under claim mode is retried away: the
    // campaign completes bit-identically to the cold run.
    let dir = scratch_dir("claimed");
    faults::inject(transient);
    let outcome = plan(&dir)
        .resume(true)
        .claim(true)
        .worker_id("retry")
        .lease_ttl_ms(2_000)
        .run_ensembles_resumable();
    faults::clear();
    let (claimed, report) = outcome.unwrap();
    assert_eq!(claimed, cold, "{report}");
    assert_eq!(
        report.attempts.len(),
        1,
        "exactly one cell retried: {report}"
    );
    assert!(report.quarantined.is_empty(), "{report}");
    for d in [&cold_dir, &abort_dir, &dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
