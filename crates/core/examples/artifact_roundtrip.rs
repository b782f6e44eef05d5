//! CI smoke for the artifact round trip: a small `ExperimentPlan` run
//! once in memory and then with an artifact directory, serially and on a
//! forced 4-worker fan-out, asserting each time that (a) the reports
//! agree on every non-trace field, (b) every spilled cell artifact
//! re-reads **bit-identically** to the in-memory cell's traces, and (c)
//! every ensemble artifact re-reads bit-identically to the in-memory
//! ensemble curves.
//!
//! ```sh
//! cargo run --release -p aoi-cache --example artifact_roundtrip
//! ```

use aoi_cache::persist::read_artifact;
use aoi_cache::presets::smoke_grid;
use aoi_cache::{ExperimentPlan, ExperimentReport};
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("artifact round-trip smoke");
    let in_memory = smoke_grid().run()?;
    let mut samples = 0usize;
    for workers in [1, 4] {
        let dir = std::env::temp_dir().join(format!(
            "aoi-artifact-smoke-{}-w{workers}",
            std::process::id()
        ));
        let spilled = smoke_grid().workers(workers).artifact_dir(&dir).run()?;
        samples = check_spill(&dir, &in_memory, &spilled)?;
        std::fs::remove_dir_all(&dir)?;
        println!("  {workers} worker(s): spilled grid matches the in-memory run");
    }
    println!(
        "OK: {} cells ({samples} trace samples) and {} ensembles spilled, \
         re-read and diffed bit-identically",
        in_memory.cells.len(),
        in_memory.ensembles.len()
    );
    Ok(())
}

/// Checks one spilled run against the in-memory report; returns the number
/// of trace samples compared.
fn check_spill(
    dir: &Path,
    in_memory: &ExperimentReport,
    spilled: &ExperimentReport,
) -> Result<usize, Box<dyn std::error::Error>> {
    // The grid's results must not depend on whether artifacts were written.
    assert_eq!(spilled.ensembles, in_memory.ensembles, "ensembles differ");
    let mut samples = 0usize;
    for (got, want) in spilled.cells.iter().zip(&in_memory.cells) {
        let (got, want) = (got.outcome.cache().unwrap(), want.outcome.cache().unwrap());
        assert!(
            got.aoi_traces.iter().all(|t| t.is_empty()),
            "spilling cells must retain no traces in memory"
        );
        assert_eq!(got.aoi_summaries, want.aoi_summaries, "summaries differ");
        assert_eq!(got.cumulative_reward, want.cumulative_reward);
        samples += want.aoi_traces.iter().map(|t| t.len()).sum::<usize>();
    }

    // Diff every cell artifact against the in-memory report, bit by bit.
    for cell in &in_memory.cells {
        let path = ExperimentPlan::cell_artifact_path(dir, cell.id);
        let artifact = read_artifact(&path)?;
        let want = cell.outcome.cache().unwrap();
        for (k, trace) in want.aoi_traces.iter().enumerate() {
            assert_eq!(
                &artifact.channels[k].series, trace,
                "cell {:?} channel {k} not bit-identical",
                cell.id
            );
            assert_eq!(artifact.channels[k].summary, Some(want.aoi_summaries[k]));
        }
    }
    for ensemble in &in_memory.ensembles {
        let path = ExperimentPlan::ensemble_artifact_path(dir, ensemble.scenario, ensemble.policy);
        let artifact = read_artifact(&path)?;
        assert_eq!(
            artifact.curves[0].curve, ensemble.curve,
            "ensemble {} not bit-identical",
            ensemble.label
        );
    }

    Ok(samples)
}
