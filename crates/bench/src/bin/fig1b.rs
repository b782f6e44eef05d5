//! Fig. 1b — "delay-aware content service".
//!
//! Reproduces the paper's second evaluation artifact: the UV latency
//! (request backlog `Q[t]`) of one RSU over 1000 slots under the proposed
//! Lyapunov drift-plus-penalty rule, compared against the two baseline
//! extremes the paper's own Eq. 5 sanity analysis describes: always-serve
//! (latency-greedy) and cost-greedy (never serve while idling is free).
//!
//! All three policies face the identical Poisson arrival trace.
//!
//! ```sh
//! cargo run --release -p aoi-bench --bin fig1b [--out DIR] [--compress] [--horizon N]
//! ```
//!
//! With `--out DIR` each policy's queue/cost series is persisted as a
//! `simkit::persist` artifact (`DIR/fig1b-<policy>.trace.jsonl`;
//! `--compress` writes `.z` files through the streaming codec).

use aoi_cache::presets::{fig1b_policies, fig1b_scenario};
use aoi_cache::{compare_service, write_service_artifact_with, ServiceScenario};
use simkit::plot::AsciiPlot;
use simkit::table::{fmt_f64, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = aoi_bench::CliSpec {
        bin: "fig1b",
        about: "Fig. 1b — UV latency under the proposed service rule and two baselines",
        workers: false,
        out: true,
        resume: false,
        claim: false,
        horizon: true,
        positional: None,
        extras: &[],
    }
    .parse()?;
    let scenario = ServiceScenario {
        horizon: args.horizon.unwrap_or(fig1b_scenario().horizon),
        ..fig1b_scenario()
    };
    println!(
        "Fig. 1b scenario: Poisson({}) arrivals, {} service levels, V = {}, horizon {}\n",
        scenario.arrival_rate,
        scenario.levels.len(),
        scenario.v,
        scenario.horizon
    );
    let reports = compare_service(&scenario, &fig1b_policies())?;
    if let Some(dir) = &args.out {
        for report in &reports {
            let path = args
                .compression
                .apply_to(&dir.join(format!("fig1b-{}.trace.jsonl", report.policy)));
            write_service_artifact_with(&scenario, report, &path, args.compression)?;
            println!("artifacts: wrote {}", path.display());
        }
        println!();
    }

    let mut plot = AsciiPlot::new("Fig. 1b: UV latency Q[t]", 72, 14).y_label("queue length");
    for r in &reports {
        let named = aoi_bench::rename(r.queue.downsample(72), r.policy.clone());
        plot = plot.series(&named);
    }
    println!("{}", plot.render());

    let mut table = Table::new([
        "policy",
        "mean queue",
        "final queue",
        "mean cost",
        "served",
        "stability",
    ]);
    for r in &reports {
        table.row([
            r.policy.clone(),
            fmt_f64(r.mean_queue),
            fmt_f64(r.queue.last().map_or(0.0, |p| p.value)),
            fmt_f64(r.mean_cost),
            fmt_f64(r.total_served),
            format!("{:?}", r.stability),
        ]);
    }
    println!("{}", table.render());

    println!(
        "csv: slot,{}",
        reports
            .iter()
            .map(|r| r.policy.clone())
            .collect::<Vec<_>>()
            .join(",")
    );
    for i in (0..scenario.horizon).step_by(25) {
        let row: Vec<String> = reports
            .iter()
            .map(|r| format!("{}", r.queue.iter().nth(i).map_or(0.0, |p| p.value)))
            .collect();
        println!("csv: {},{}", i, row.join(","));
    }
    Ok(())
}
