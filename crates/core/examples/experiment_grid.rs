//! CI smoke grid: a small `ExperimentPlan` (2 cache policies × 2 seeds)
//! run twice — serial and with a forced 4-worker fan-out — asserting the
//! two reports are bit-identical.
//!
//! ```sh
//! cargo run -p aoi-cache --example experiment_grid
//! ```

use aoi_cache::presets::smoke_grid;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("experiment-grid smoke");

    let serial = smoke_grid().workers(1).run()?;
    let pooled = smoke_grid().workers(4).run()?;
    assert_eq!(
        serial, pooled,
        "grid reports must be bit-identical for any worker count"
    );

    assert_eq!(serial.cells.len(), 4, "2 policies × 2 seeds");
    assert_eq!(serial.ensembles.len(), 2);
    for ensemble in &serial.ensembles {
        println!(
            "  {:<10} final cumulative reward {:>9.2} ± {:.2} (95% CI, n={})",
            ensemble.label,
            ensemble.curve.final_mean(),
            ensemble.curve.final_ci_half_width(),
            ensemble.curve.replicates,
        );
    }
    let vi = serial.ensemble(0, "mdp-vi").expect("vi ensemble");
    let myopic = serial.ensemble(0, "myopic").expect("myopic ensemble");
    assert!(
        vi.curve.final_mean() >= myopic.curve.final_mean(),
        "the exact MDP policy must not trail the myopic baseline"
    );
    println!("ok: serial and 4-worker grids agree bit-for-bit");
    Ok(())
}
