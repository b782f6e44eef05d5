//! End-to-end campaign tests driving the **real binaries**: a worker
//! process killed mid-grid (via the `SIMKIT_FAULT` harness) must leave a
//! recoverable directory, a relaunched worker must finish the campaign,
//! and `aoi-artifacts merge`/`diff` must certify bit-identity with a cold
//! single-process run.
//!
//! Ignored by default (each test runs several child processes over the
//! full fig1a+fig1b ensemble presets); CI runs them in release with
//! `cargo test -p aoi-bench --release -- --ignored`.

use std::path::{Path, PathBuf};
use std::process::Command;

const ENSEMBLE: &str = env!("CARGO_BIN_EXE_ensemble");
const ARTIFACTS: &str = env!("CARGO_BIN_EXE_aoi-artifacts");

/// A unique scratch directory per call; removed by each test on success.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aoi-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Common flags: a small but real campaign (2 seeds, shortened horizon).
fn ensemble_args(out: &Path) -> Vec<String> {
    vec![
        "2".to_string(),
        "--horizon".to_string(),
        "60".to_string(),
        "--out".to_string(),
        out.display().to_string(),
    ]
}

fn run_ensemble(out: &Path, extra: &[&str], fault: Option<&str>) -> std::process::ExitStatus {
    let mut cmd = Command::new(ENSEMBLE);
    cmd.args(ensemble_args(out));
    cmd.args(extra);
    match fault {
        Some(spec) => cmd.env("SIMKIT_FAULT", spec),
        None => cmd.env_remove("SIMKIT_FAULT"),
    };
    let output = cmd.output().expect("spawn ensemble");
    if !output.status.success() {
        eprintln!(
            "--- ensemble stderr ---\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    output.status
}

fn artifacts_tool(args: &[&str]) -> std::process::ExitStatus {
    let output = Command::new(ARTIFACTS)
        .args(args)
        .output()
        .expect("spawn aoi-artifacts");
    println!(
        "aoi-artifacts {args:?}:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
    eprintln!("{}", String::from_utf8_lossy(&output.stderr));
    output.status
}

fn assert_diff_clean(a: &Path, b: &Path) {
    let status = artifacts_tool(&["diff", &a.display().to_string(), &b.display().to_string()]);
    assert!(
        status.success(),
        "directories must diff clean: {a:?} vs {b:?}"
    );
}

/// A worker SIGKILLed mid-grid (the fault harness aborts the process: no
/// destructors, exactly like `kill -9`) leaves stale leases and in-flight
/// temporaries behind. A relaunched worker takes the expired leases over,
/// finishes the campaign, and the directory is bit-identical to a cold
/// single-process run.
#[test]
#[ignore = "spawns several full-campaign child processes; run via --ignored (CI)"]
fn killed_worker_campaign_recovers_bit_identically() {
    let cold = scratch_dir("kill-cold");
    assert!(run_ensemble(&cold, &[], None).success());

    let out = scratch_dir("kill-out");
    // Doomed worker: aborts a few hundred samples in, mid-fig1a. Short
    // TTL so the relaunch takes its leases over quickly.
    let claim_flags = ["--resume", "--claim", "--lease-ttl-ms", "1000"];
    let doomed = run_ensemble(&out, &claim_flags, Some("kill:500"));
    assert!(!doomed.success(), "the doomed worker must die mid-grid");

    // Relaunch (same flags, no fault): takes over and finishes.
    assert!(run_ensemble(&out, &claim_flags, None).success());

    // No lease survives a completed campaign.
    for sub in ["fig1a", "fig1b"] {
        for entry in std::fs::read_dir(out.join(sub)).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().to_string();
            assert!(!name.ends_with(".lease"), "leftover lease {sub}/{name}");
        }
    }
    assert_diff_clean(&cold, &out);
    std::fs::remove_dir_all(&cold).unwrap();
    std::fs::remove_dir_all(&out).unwrap();
}

/// Disjoint partial directories (each worker kept only its own cells)
/// merge into a directory bit-identical to a cold run — ensembles
/// recomputed from the fused cells included.
#[test]
#[ignore = "spawns full-campaign child processes; run via --ignored (CI)"]
fn split_campaign_merges_bit_identically() {
    let cold = scratch_dir("merge-cold");
    assert!(run_ensemble(&cold, &[], None).success());

    // Split the cold run's cells into two disjoint partial directories,
    // alternating cells between "workers" (ensembles stay behind — each
    // partial dir holds only what its worker computed).
    let part_a = scratch_dir("merge-a");
    let part_b = scratch_dir("merge-b");
    let mut split = 0usize;
    for sub in ["fig1a", "fig1b"] {
        std::fs::create_dir_all(part_a.join(sub)).unwrap();
        std::fs::create_dir_all(part_b.join(sub)).unwrap();
        let mut cells: Vec<String> = std::fs::read_dir(cold.join(sub))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .filter(|n| n.starts_with("cell-"))
            .collect();
        cells.sort();
        for (k, name) in cells.iter().enumerate() {
            let target = if k % 2 == 0 { &part_a } else { &part_b };
            std::fs::copy(cold.join(sub).join(name), target.join(sub).join(name)).unwrap();
            split += 1;
        }
    }
    assert!(split >= 4, "the campaign must have cells to split");

    let merged = scratch_dir("merge-out");
    let status = artifacts_tool(&[
        "merge",
        &merged.display().to_string(),
        &part_a.display().to_string(),
        &part_b.display().to_string(),
    ]);
    assert!(status.success(), "merge must fuse the partial directories");
    assert_diff_clean(&cold, &merged);

    for dir in [cold, part_a, part_b, merged] {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A degraded campaign (one cell quarantined in each grid) merges back
/// into exactly its own directory: the engine and merge both hash the
/// cells an ensemble folded, so a group with a quarantine gap gets the
/// same manifest either way.
#[test]
#[ignore = "spawns full-campaign child processes; run via --ignored (CI)"]
fn quarantined_campaign_merges_to_itself() {
    let out = scratch_dir("degraded-out");
    let output = Command::new(ENSEMBLE)
        .args(ensemble_args(&out))
        .args(["--resume", "--claim", "--max-attempts", "2"])
        .args(["--lease-ttl-ms", "1000"])
        .env("AOI_POISON_CELL", "s0-r1-p0")
        .env_remove("SIMKIT_FAULT")
        .output()
        .expect("spawn ensemble");
    assert_eq!(
        output.status.code(),
        Some(3),
        "a campaign with quarantined cells exits 3: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let merged = scratch_dir("degraded-merged");
    let status = artifacts_tool(&[
        "merge",
        &merged.display().to_string(),
        &out.display().to_string(),
    ]);
    assert!(status.success(), "merge must accept the surviving cells");
    assert_diff_clean(&out, &merged);
    for dir in [out, merged] {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Merging directories from two *different* campaigns is a configuration
/// conflict, not a quiet wrong answer.
#[test]
#[ignore = "spawns full-campaign child processes; run via --ignored (CI)"]
fn merge_refuses_mismatched_campaigns() {
    let a = scratch_dir("mismatch-a");
    assert!(run_ensemble(&a, &[], None).success());
    let b = scratch_dir("mismatch-b");
    // Same grid shape, different horizon: every cell hash differs.
    let output = Command::new(ENSEMBLE)
        .args(["2", "--horizon", "50", "--out", &b.display().to_string()])
        .env_remove("SIMKIT_FAULT")
        .output()
        .expect("spawn ensemble");
    assert!(output.status.success());

    let merged = scratch_dir("mismatch-out");
    let status = artifacts_tool(&[
        "merge",
        &merged.display().to_string(),
        &a.display().to_string(),
        &b.display().to_string(),
    ]);
    assert_eq!(
        status.code(),
        Some(2),
        "config mismatch must be a hard error"
    );
    for dir in [a, b, merged] {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
