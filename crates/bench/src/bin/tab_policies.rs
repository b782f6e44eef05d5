//! Extension table — cache-policy comparison at the paper's Fig. 1a scale.
//!
//! Runs every stage-1 policy on the identical 4×5 scenario (same catalog,
//! initial ages and popularity) and reports the reward / staleness / cost
//! profile of each. Not a paper artifact (the paper reports no tables);
//! this is the standard ablation for the design choices in DESIGN.md.
//!
//! ```sh
//! cargo run --release -p aoi-bench --bin tab_policies [--out DIR] [--compress]
//! ```
//!
//! With `--out DIR` each policy's run spills its AoI traces to
//! `DIR/tab-<i>-<policy>.trace.jsonl` as it executes — the table is then
//! produced without ever holding a full trace in memory (`--compress`
//! writes `.z` files through the streaming codec).

use aoi_cache::presets::fig1a_scenario;
use aoi_cache::{CachePolicyKind, CacheSimulation};
use simkit::table::{fmt_f64, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = aoi_bench::CliSpec {
        bin: "tab_policies",
        about: "cache-policy comparison table at the paper's Fig. 1a scale",
        workers: false,
        out: true,
        resume: false,
        claim: false,
        horizon: false,
        positional: None,
        extras: &[],
    }
    .parse()?;
    let scenario = fig1a_scenario();
    let sim = CacheSimulation::new(scenario)?;

    let kinds = [
        CachePolicyKind::ValueIteration { gamma: 0.95 },
        CachePolicyKind::AverageReward,
        CachePolicyKind::QLearning {
            gamma: 0.95,
            steps: 400_000,
        },
        CachePolicyKind::Myopic,
        CachePolicyKind::Index { threshold: 0.05 },
        CachePolicyKind::AgeThreshold { margin: 1 },
        CachePolicyKind::Periodic { period: 1 },
        CachePolicyKind::Random { probability: 0.5 },
        CachePolicyKind::Never,
    ];

    let mut table = Table::new([
        "policy",
        "cum. reward",
        "mean aoi/max",
        "violation rate",
        "updates/slot",
        "cost/slot",
    ]);
    for (i, kind) in kinds.into_iter().enumerate() {
        let r = match &args.out {
            Some(dir) => {
                let path = args
                    .compression
                    .apply_to(&dir.join(format!("tab-{i}-{}.trace.jsonl", kind.label())));
                sim.run_artifact_with(kind, &path, args.compression)?
            }
            None => sim.run(kind)?,
        };
        eprintln!("ran {}", r.policy);
        table.row([
            r.policy.clone(),
            fmt_f64(r.final_cumulative_reward()),
            fmt_f64(r.mean_aoi_ratio),
            fmt_f64(r.violation_rate()),
            fmt_f64(r.updates_per_slot()),
            fmt_f64(r.mean_cost),
        ]);
    }
    println!("{}", table.render());
    println!("csv:\n{}", table.to_csv());
    Ok(())
}
