//! Supervision suite for the claim-mode campaign engine: a cell that
//! panics on every attempt must be **quarantined** after exactly the
//! retry budget — the rest of the campaign completing bit-identically to
//! a cold run, with no leaked lease, a parseable quarantine marker, a
//! health journal accounting every claim/retry/quarantine, and a resume
//! report that owns up to the gap. A relaunch without the poison must
//! then heal the campaign completely.
//!
//! Lives in its own integration-test binary: the `AOI_POISON_CELL` hook
//! is process-global, and this file's tests own it outright.

use aoi_cache::{CachePolicyKind, CacheScenario, ExperimentPlan};
use simkit::supervise::{self, EventKind};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aoi-supervise-{}-{tag}", std::process::id()));
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

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn poisoned_cell_quarantines_after_exact_budget_and_the_rest_completes() {
    let cold_dir = scratch_dir("cold");
    let (cold, _) = plan(&cold_dir).run_ensembles_resumable().unwrap();

    // The poisoned cell: scenario 0, replicate 1 (seed 6), Myopic.
    let dir = scratch_dir("poison");
    let poison = plan(&dir)
        .cell_ids()
        .into_iter()
        .find(|id| id.replicate == 1 && id.policy == 0)
        .unwrap();
    assert_eq!(poison.coords(), "s0-r1-p0");
    std::env::set_var("AOI_POISON_CELL", poison.coords());
    let (ensembles, report) = claim_plan(&dir, "sup")
        .max_attempts(3)
        .lease_ttl_ms(2_000) // small TTL => short retry backoffs
        .run_ensembles_resumable()
        .unwrap();
    std::env::remove_var("AOI_POISON_CELL");

    // The gap is owned, with the panic message, after exactly 3 tries.
    assert_eq!(report.quarantined.len(), 1, "{report}");
    let (qid, why) = &report.quarantined[0];
    assert_eq!(*qid, poison);
    assert!(why.contains("poisoned by AOI_POISON_CELL"), "{why}");
    assert_eq!(report.attempts, vec![(poison, 3)], "{report}");
    let text = report.to_string();
    assert!(text.contains("QUARANTINED"), "{text}");
    assert!(
        text.contains("supervision: 1 retried, 1 quarantined"),
        "{text}"
    );

    // Every other cell completed bit-identically to the cold run.
    for id in plan(&dir).cell_ids() {
        let mine = ExperimentPlan::cell_artifact_path(&dir, id);
        let colds = ExperimentPlan::cell_artifact_path(&cold_dir, id);
        if id == poison {
            assert!(!mine.exists(), "a quarantined cell leaves no artifact");
        } else {
            assert_eq!(
                std::fs::read(&mine).unwrap(),
                std::fs::read(&colds).unwrap(),
                "cell {} must match the cold bytes",
                id.coords()
            );
        }
    }
    assert!(
        !file_names(&dir).iter().any(|n| n.ends_with(".lease")),
        "no leaked lease: {:?}",
        file_names(&dir)
    );

    // The poisoned group folds the two surviving replicates and reports
    // the gap; the untouched policy's ensemble matches the cold run.
    let poisoned_group = ensembles
        .iter()
        .find(|e| e.scenario == 0 && e.policy == 0)
        .unwrap();
    assert_eq!(poisoned_group.quarantined, 1);
    let survivors_dir = scratch_dir("survivors");
    let survivors = ExperimentPlan::cache(vec![tiny_cache()], vec![CachePolicyKind::Myopic])
        .replicate_seeds(vec![5, 7])
        .artifact_dir(&survivors_dir)
        .run_ensembles()
        .unwrap();
    assert_eq!(poisoned_group.curve, survivors[0].curve);
    // Its ensemble artifact hashes the cells it folded, so it is the
    // artifact a plan of just the surviving seeds writes, byte for byte.
    assert_eq!(
        std::fs::read(ExperimentPlan::ensemble_artifact_path(&dir, 0, 0)).unwrap(),
        std::fs::read(ExperimentPlan::ensemble_artifact_path(&survivors_dir, 0, 0)).unwrap(),
        "a gap group's ensemble artifact must equal the survivors' one"
    );
    let healthy_group = ensembles
        .iter()
        .find(|e| e.scenario == 0 && e.policy == 1)
        .unwrap();
    assert_eq!(healthy_group, cold.iter().find(|e| e.policy == 1).unwrap());

    // The quarantine marker is parseable and attributes the failure.
    let marker =
        supervise::Quarantine::read(&ExperimentPlan::cell_quarantine_path(&dir, poison)).unwrap();
    assert_eq!(marker.item, "s0-r1-p0");
    assert_eq!(marker.worker, "sup");
    assert_eq!(marker.attempts, 3);
    assert!(marker.error.contains("poisoned"), "{}", marker.error);

    // The health journal accounts the whole story: 3 claims of the
    // poisoned cell, 2 retries, 1 quarantine, a release per completion.
    let journal = supervise::read_journal(&dir.join(supervise::journal_file_name("sup"))).unwrap();
    assert_eq!(journal.worker, "sup");
    let count = |kind: EventKind, item: &str| {
        journal
            .events
            .iter()
            .filter(|e| e.kind == kind && e.item == item)
            .count()
    };
    assert_eq!(count(EventKind::Claim, "s0-r1-p0"), 3, "{journal:?}");
    assert_eq!(count(EventKind::Retry, "s0-r1-p0"), 2, "{journal:?}");
    assert_eq!(count(EventKind::Quarantine, "s0-r1-p0"), 1, "{journal:?}");
    assert_eq!(
        count(EventKind::Release, "s0-r1-p0"),
        3,
        "released on every attempt"
    );
    assert!(
        journal.events.iter().any(|e| e.kind == EventKind::Backoff),
        "retries wait on the backoff schedule: {journal:?}"
    );

    // Relaunch without the poison: the campaign heals — the quarantined
    // cell recomputes, its marker is cleared, and the ensembles are
    // bit-identical to the cold run's.
    let (healed, report) = claim_plan(&dir, "sup")
        .max_attempts(3)
        .run_ensembles_resumable()
        .unwrap();
    assert_eq!(healed, cold, "{report}");
    assert!(report.quarantined.is_empty(), "{report}");
    assert!(report.claimed.contains(&poison), "{report}");
    assert!(
        !file_names(&dir)
            .iter()
            .any(|n| supervise::is_quarantine_name(n)),
        "marker must be cleared on recompute: {:?}",
        file_names(&dir)
    );
    for d in [cold_dir, dir, survivors_dir] {
        std::fs::remove_dir_all(&d).unwrap();
    }
}

#[test]
fn zero_retry_budget_is_rejected_in_claim_mode() {
    let dir = scratch_dir("zero-budget");
    let err = claim_plan(&dir, "w")
        .max_attempts(0)
        .run_ensembles()
        .expect_err("a zero retry budget must be rejected");
    assert!(err.to_string().contains("max_attempts"), "{err}");
    // Outside claim mode the knob is inert and unvalidated.
    plan(&dir).max_attempts(0).run_ensembles().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
