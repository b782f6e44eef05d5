//! `aoi-serve` — open-loop load generator driving the online serving
//! engine, with a requests/second headline.
//!
//! Generates a Poisson × Zipf request stream (the same arrival idiom the
//! `vanet` substrate uses), pushes it through an [`aoi_serve::ServeEngine`]
//! compiled from the paper's default Fig. 1a scenario, and reports how
//! many requests per wall-clock second the engine answered. Policy
//! compilation happens before the clock starts — the headline measures
//! serving, not solving.
//!
//! `--trace FILE` replays a recorded `vanet` request-trace file instead
//! of generating load; `--record FILE` writes the generated workload in
//! that same format (see [`vanet::RequestTrace::write_to`]); `--json
//! FILE` emits the headline as a machine-readable summary (the
//! `BENCH_PR10.json` emission path); `--out DIR` streams per-shard
//! `simkit::persist` telemetry artifacts.

use aoi_bench::{CliSpec, ExtraFlag};
use aoi_cache::{CachePolicyKind, CacheScenario, ServicePolicyKind};
use aoi_serve::{ServeConfig, ServeEngine, ServeOutcome, TelemetrySpec};
use simkit::{sample_poisson, SeedSequence, Stopwatch};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use vanet::{RegionId, Request, RequestTrace, RsuId, VehicleId, Zipf};

const EXTRAS: &[ExtraFlag] = &[
    ExtraFlag {
        name: "--rate",
        value: Some("R"),
        help: "mean requests per RSU per slot (Poisson; default 4)",
    },
    ExtraFlag {
        name: "--seed",
        value: Some("N"),
        help: "workload + serving seed (default 42)",
    },
    ExtraFlag {
        name: "--trace",
        value: Some("FILE"),
        help: "replay a recorded request-trace file instead of generating",
    },
    ExtraFlag {
        name: "--record",
        value: Some("FILE"),
        help: "write the generated workload as a request-trace file",
    },
    ExtraFlag {
        name: "--json",
        value: Some("FILE"),
        help: "write the headline as a JSON summary",
    },
];

/// Open-loop workload: every slot, every RSU receives `Poisson(rate)`
/// requests for Zipf-popular contents of its own coverage.
fn generate(
    scenario: &CacheScenario,
    slots: usize,
    rate: f64,
    seed: u64,
) -> Result<RequestTrace, Box<dyn std::error::Error>> {
    let zipf = Zipf::new(scenario.regions_per_rsu, scenario.zipf_exponent)?;
    let mut rng = SeedSequence::new(seed).rng("load-gen");
    let mut vehicle = 0u64;
    let mut windows = Vec::with_capacity(slots);
    for _ in 0..slots {
        let mut requests = Vec::new();
        for k in 0..scenario.n_rsus {
            let n = sample_poisson(rate, &mut rng);
            for _ in 0..n {
                let region = k * scenario.regions_per_rsu + zipf.sample(&mut rng);
                requests.push(Request {
                    vehicle: VehicleId(vehicle),
                    rsu: RsuId(k),
                    region: RegionId(region),
                });
                vehicle += 1;
            }
        }
        windows.push(requests);
    }
    Ok(RequestTrace::from_slots(windows))
}

fn headline_json(
    scenario: &CacheScenario,
    config: &ServeConfig,
    slots: usize,
    rate: f64,
    outcome: &ServeOutcome,
    elapsed: f64,
    rps: f64,
) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"pr\": 10,\n",
            "  \"title\": \"aoi-serve online serving throughput (load-gen -> sharded engine cores)\",\n",
            "  \"command\": \"cargo run --release -p aoi-bench --bin aoi-serve\",\n",
            "  \"config\": {{\"n_rsus\": {}, \"regions_per_rsu\": {}, \"slots\": {}, \"rate\": {}, ",
            "\"cache_policy\": \"{}\", \"service_policy\": \"{}\", \"workers\": {}}},\n",
            "  \"results\": {{\"requests\": {}, \"elapsed_seconds\": {:.6}, ",
            "\"requests_per_second\": {:.1}, \"hit_rate\": {:.4}, \"fresh_rate\": {:.4}, ",
            "\"stale_hits\": {}, \"misses\": {}, \"refreshes\": {}}}\n",
            "}}\n",
        ),
        scenario.n_rsus,
        scenario.regions_per_rsu,
        slots,
        rate,
        config.cache_policy.label(),
        config.service_policy.label(),
        config.workers,
        outcome.requests,
        elapsed,
        rps,
        outcome.hit_rate(),
        outcome.fresh_rate(),
        outcome.stale_hits,
        outcome.misses,
        outcome.refreshes.len(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliSpec {
        bin: "aoi-serve",
        about: "open-loop load generator + online serving engine (requests/second headline)",
        workers: true,
        out: true,
        resume: false,
        claim: false,
        horizon: true,
        positional: None,
        extras: EXTRAS,
    }
    .parse()?;
    let slots = args.horizon.unwrap_or(2000);
    let rate: f64 = match args.extra("--rate") {
        Some(v) => v
            .parse()
            .ok()
            .filter(|r: &f64| r.is_finite() && *r > 0.0)
            .ok_or("aoi-serve: --rate needs a positive number (try --help)")?,
        None => 4.0,
    };
    let seed: u64 = match args.extra("--seed") {
        Some(v) => v
            .parse()
            .map_err(|_| "aoi-serve: --seed needs an integer (try --help)")?,
        None => 42,
    };
    let scenario = CacheScenario::default();
    let window = match args.extra("--trace") {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("aoi-serve: open {path}: {e}"))?;
            RequestTrace::read_from(BufReader::new(file))?
        }
        None => generate(&scenario, slots, rate, seed)?,
    };
    if let Some(path) = args.extra("--record") {
        // lint:allow(atomic-persistence): user-requested CLI output, not a
        // campaign artifact — a torn file on crash is visible and rerunnable.
        let file = File::create(path).map_err(|e| format!("aoi-serve: create {path}: {e}"))?;
        let mut out = BufWriter::new(file);
        window.write_to(&mut out)?;
        out.flush()?;
    }
    let config = ServeConfig {
        scenario,
        cache_policy: CachePolicyKind::ValueIteration { gamma: 0.9 },
        service_policy: ServicePolicyKind::Lyapunov { v: 20.0 },
        serve_seed: seed,
        workers: args.workers.unwrap_or(0),
        ..ServeConfig::default()
    };
    println!(
        "aoi-serve: compiling {} policy tables for {} RSUs x {} contents ...",
        config.cache_policy.label(),
        scenario.n_rsus,
        scenario.regions_per_rsu
    );
    let mut engine = ServeEngine::new(config.clone())?;
    let watch = Stopwatch::start();
    let outcome = match &args.out {
        Some(dir) => engine.serve_recorded(
            &window,
            &TelemetrySpec {
                dir: dir.clone(),
                compression: args.compression,
            },
        )?,
        None => engine.serve(&window)?,
    };
    let elapsed = watch.elapsed_seconds();
    let rps = watch.per_second(outcome.requests);
    println!(
        "aoi-serve: served {} requests over {} slots x {} shards",
        outcome.requests,
        outcome.slots,
        engine.shard_count()
    );
    println!(
        "  answers: {} fresh + {} stale hits ({:.1}% hit rate, {:.1}% fresh), {} misses",
        outcome.fresh_hits,
        outcome.stale_hits,
        100.0 * outcome.hit_rate(),
        100.0 * outcome.fresh_rate(),
        outcome.misses
    );
    println!(
        "  MBS refreshes pushed (ordered hand-off): {}",
        outcome.refreshes.len()
    );
    println!("  wall time {elapsed:.3}s — {rps:.0} requests/second");
    if let Some(dir) = &args.out {
        println!("  telemetry artifacts under {}", dir.display());
    }
    if let Some(path) = args.extra("--json") {
        let json = headline_json(
            &scenario,
            &config,
            outcome.slots,
            rate,
            &outcome,
            elapsed,
            rps,
        );
        // lint:allow(atomic-persistence): user-requested CLI output, not a
        // campaign artifact — a torn file on crash is visible and rerunnable.
        let mut file = File::create(path).map_err(|e| format!("aoi-serve: create {path}: {e}"))?;
        file.write_all(json.as_bytes())?;
        println!("  headline written to {path}");
    }
    Ok(())
}
