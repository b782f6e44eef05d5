//! Fig. 1a — "AoI-aware content caching".
//!
//! Reproduces the paper's first evaluation artifact: 4 RSUs × 5 contents
//! (20 contents managed by the MBS), 1000 slots, random initial AoI and
//! per-content `A^max`. The proposed MDP update policy keeps each managed
//! content's AoI below its maximum while the cumulative MBS reward keeps
//! rising.
//!
//! Output: the AoI traces of two selected contents of RSU 1 (the two most
//! popular, which the optimal policy maintains), the cumulative reward
//! curve, an ASCII rendering of both, and CSV for external plotting.
//!
//! ```sh
//! cargo run --release -p aoi-bench --bin fig1a [--out DIR] [--compress] [--horizon N]
//! ```
//!
//! With `--out DIR` the run **spills** its AoI traces to
//! `DIR/fig1a.trace.jsonl` slot by slot (no full trace stays in memory,
//! even in `Full` recording mode) and the figure below is rendered from
//! the **re-read** artifact — the round trip is bit-identical.
//! `--compress` streams the artifact through the
//! `simkit::persist::compress` codec instead (`fig1a.trace.jsonl.z`).

use aoi_cache::persist::read_artifact;
use aoi_cache::presets::{fig1a_policy, fig1a_scenario};
use aoi_cache::{CacheScenario, CacheSimulation};
use simkit::plot::AsciiPlot;
use simkit::table::{fmt_f64, Table};
use simkit::TimeSeries;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = aoi_bench::CliSpec {
        bin: "fig1a",
        about: "Fig. 1a — AoI traces and cumulative reward of the proposed MDP policy",
        workers: false,
        out: true,
        resume: false,
        claim: false,
        horizon: true,
        positional: None,
        extras: &[],
    }
    .parse()?;
    let scenario = CacheScenario {
        horizon: args.horizon.unwrap_or(fig1a_scenario().horizon),
        ..fig1a_scenario()
    };
    println!(
        "Fig. 1a scenario: {} RSUs x {} contents, horizon {}, seed {}\n",
        scenario.n_rsus, scenario.regions_per_rsu, scenario.horizon, scenario.seed
    );
    let sim = CacheSimulation::new(scenario)?;
    let (report, artifact) = match &args.out {
        Some(dir) => {
            let path = args.compression.apply_to(&dir.join("fig1a.trace.jsonl"));
            let report = sim.run_artifact_with(fig1a_policy(), &path, args.compression)?;
            let artifact = read_artifact(&path)?;
            println!(
                "artifacts: traces spilled to and re-read from {}\n",
                path.display()
            );
            (report, Some(artifact))
        }
        None => (sim.run(fig1a_policy())?, None),
    };
    // With --out the report holds no traces — the figure's series come
    // from the re-read artifact (channels are in rsu-major content order).
    let per = scenario.regions_per_rsu;
    let aoi = |rsu: usize, content: usize| -> &TimeSeries {
        match &artifact {
            Some(a) => &a.channels[rsu * per + content].series,
            None => report.aoi_trace(rsu, content),
        }
    };

    // The paper: "we select two contents in the cache of RSU 1 and show
    // them over time". Select, among the contents of RSU 1 that the policy
    // *maintains* (post-warm-up ages never exceed A^max), the two with the
    // largest sawtooth amplitude — the visually informative traces.
    let rsu = 0usize;
    let spec = &sim.specs()[rsu];
    let (warmup, window) = aoi_bench::figure_window(scenario.horizon);
    let mut candidates: Vec<(usize, f64)> = (0..spec.popularity.len())
        .filter_map(|h| {
            let tail: Vec<f64> = aoi(rsu, h).values().skip(warmup).collect();
            let max = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = tail.iter().copied().fold(f64::INFINITY, f64::min);
            let maintained = max <= f64::from(spec.max_ages[h].get());
            maintained.then_some((h, max - min))
        })
        .collect();
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite amplitudes"));
    let c1 = candidates.first().map_or(0, |c| c.0);
    let c2 = candidates.get(1).map_or(1, |c| c.0);

    let trace1 = aoi_bench::window_of(
        aoi(rsu, c1),
        warmup,
        window,
        format!("content {c1} (Amax={})", spec.max_ages[c1].get()),
    );
    let trace2 = aoi_bench::window_of(
        aoi(rsu, c2),
        warmup,
        window,
        format!("content {c2} (Amax={})", spec.max_ages[c2].get()),
    );
    let plot = AsciiPlot::new(
        format!(
            "Fig. 1a (top): AoI of two contents of RSU 1, slots {warmup}..{}",
            warmup + window
        ),
        72,
        12,
    )
    .series(&trace1)
    .series(&trace2)
    .y_label("AoI (slots)");
    println!("{}", plot.render());

    let reward = aoi_bench::rename(
        report.cumulative_reward.downsample(72),
        "cumulative reward".to_string(),
    );
    let plot = AsciiPlot::new("Fig. 1a (bottom): cumulative MBS reward", 72, 10)
        .series(&reward)
        .y_label("reward");
    println!("{}", plot.render());

    let mut summary = Table::new(["metric", "value"]);
    summary
        .row(["policy", report.policy.as_str()])
        .row([
            "final cumulative reward",
            &fmt_f64(report.final_cumulative_reward()),
        ])
        .row(["updates per slot", &fmt_f64(report.updates_per_slot())])
        .row(["mean AoI / Amax", &fmt_f64(report.mean_aoi_ratio)])
        .row([
            "violation rate (all 20 contents)",
            &fmt_f64(report.violation_rate()),
        ])
        .row([
            "selected contents max AoI",
            &fmt_f64(
                aoi(rsu, c1)
                    .max()
                    .unwrap_or(0.0)
                    .max(aoi(rsu, c2).max().unwrap_or(0.0)),
            ),
        ]);
    println!("{}", summary.render());

    // CSV of the full-resolution series the paper plots.
    println!("csv: slot,aoi_content_{c1},aoi_content_{c2},cumulative_reward");
    let t1 = aoi(rsu, c1);
    let t2 = aoi(rsu, c2);
    for ((p1, p2), pr) in t1
        .iter()
        .zip(t2.iter())
        .zip(report.cumulative_reward.iter())
    {
        if p1.slot.index() % 25 == 0 {
            println!(
                "csv: {},{},{},{:.2}",
                p1.slot.index(),
                p1.value,
                p2.value,
                pr.value
            );
        }
    }
    Ok(())
}
