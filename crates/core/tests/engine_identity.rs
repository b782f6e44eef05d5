//! Driver-vs-core identity suite.
//!
//! The stage-1/stage-2 engine cores ([`aoi_cache::RsuCacheEngine`],
//! [`aoi_cache::RsuServiceEngine`]) were extracted out of the monolithic
//! simulation loops; the acceptance bar for that refactor is **bit
//! identity**, pinned here three ways:
//!
//! 1. *Goldens* — report fields captured from the pre-refactor simulator
//!    (exact `f64` bit patterns and a trace checksum) must still fall out
//!    of today's [`CacheSimulation::run`] and [`run_joint`]. Any change to
//!    RNG draw order, `f64` operation order, or accounting breaks these.
//! 2. *Hand-rolled driver* — a test-local slot loop over the public engine
//!    core API ([`CacheSimulation::cache_engines`]) must reproduce the
//!    built-in driver's report bit for bit, proving the driver is nothing
//!    but `decide → refresh → account → advance` glue with no hidden
//!    state of its own.
//! 3. *Driver variants* — recording modes change trace retention, never
//!    results.
//!
//! The whole suite is feature-free on purpose: CI runs it under both
//! `--features parallel` and `--no-default-features`, so an executor that
//! perturbed results would fail here, not in a downstream experiment.

use aoi_cache::{
    run_joint, CachePolicyKind, CacheRunReport, CacheScenario, CacheSimulation, JointScenario,
    RecordingMode, ServicePolicyKind,
};
use simkit::{SeedSequence, TimeSeries};
use vanet::NetworkConfig;

/// Order-sensitive checksum over the exact bit patterns of a series.
fn series_checksum(series: &TimeSeries) -> u64 {
    let mut acc = 0u64;
    for p in series.iter() {
        acc = acc.wrapping_mul(31).wrapping_add(p.value.to_bits());
    }
    acc
}

/// Same checksum over a raw sample vector (for the hand-rolled driver).
fn values_checksum(values: &[f64]) -> u64 {
    let mut acc = 0u64;
    for v in values {
        acc = acc.wrapping_mul(31).wrapping_add(v.to_bits());
    }
    acc
}

/// The scenario the goldens were captured under (pre-refactor commit).
fn golden_cache_scenario() -> CacheScenario {
    CacheScenario {
        n_rsus: 2,
        regions_per_rsu: 3,
        age_cap: 6,
        max_age_min: 3,
        max_age_max: 5,
        horizon: 250,
        seed: 11,
        ..CacheScenario::default()
    }
}

/// One pre-refactor cache-run golden: counters plus exact `f64` bits.
struct CacheGolden {
    kind: CachePolicyKind,
    updates: u64,
    violations: u64,
    cumulative_bits: u64,
    ratio_bits: u64,
    utility_bits: u64,
    cost_bits: u64,
    series: u64,
}

const CACHE_GOLDENS: &[CacheGolden] = &[
    CacheGolden {
        kind: CachePolicyKind::ValueIteration { gamma: 0.9 },
        updates: 500,
        violations: 1,
        cumulative_bits: 0x4093d0227ade512a,
        ratio_bits: 0x3fe048e8a71de698,
        utility_bits: 0x401649ddacebd833,
        cost_bits: 0x3fe0000000000000,
        series: 0x6601eb911224af63,
    },
    CacheGolden {
        kind: CachePolicyKind::Myopic,
        updates: 500,
        violations: 993,
        cumulative_bits: 0x40927613c5f63a8e,
        ratio_bits: 0x3ff05990dca34b64,
        utility_bits: 0x4014e780cab68197,
        cost_bits: 0x3fe0000000000000,
        series: 0xbf7b854cfff9044e,
    },
    CacheGolden {
        kind: CachePolicyKind::Random { probability: 0.3 },
        updates: 161,
        violations: 906,
        cumulative_bits: 0x4084038387437180,
        ratio_bits: 0x3ff10e560418938e,
        utility_bits: 0x4005c834c3da90dd,
        cost_bits: 0x3fc49ba5e353f7cf,
        series: 0x6256727bc9d8a4cf,
    },
];

#[test]
fn cache_reports_match_pre_refactor_goldens() {
    let sim = CacheSimulation::new(golden_cache_scenario()).expect("valid scenario");
    for golden in CACHE_GOLDENS {
        let r = sim.run(golden.kind).expect("run succeeds");
        let label = golden.kind.label();
        assert_eq!(r.updates, golden.updates, "{label}: updates");
        assert_eq!(
            r.violation_content_slots, golden.violations,
            "{label}: violations"
        );
        assert_eq!(
            r.final_cumulative_reward().to_bits(),
            golden.cumulative_bits,
            "{label}: cumulative reward bits"
        );
        assert_eq!(
            r.mean_aoi_ratio.to_bits(),
            golden.ratio_bits,
            "{label}: mean AoI ratio bits"
        );
        assert_eq!(
            r.mean_utility.to_bits(),
            golden.utility_bits,
            "{label}: mean utility bits"
        );
        assert_eq!(
            r.mean_cost.to_bits(),
            golden.cost_bits,
            "{label}: mean cost bits"
        );
        assert_eq!(
            series_checksum(&r.reward),
            golden.series,
            "{label}: reward series checksum"
        );
    }
}

#[test]
fn joint_reports_match_pre_refactor_goldens() {
    let network = NetworkConfig {
        n_regions: 6,
        n_rsus: 2,
        road_length_m: 1200.0,
        ..NetworkConfig::default()
    };
    let base = JointScenario {
        network,
        age_cap: 6,
        max_age_min: 3,
        max_age_max: 5,
        horizon: 400,
        warmup: 30,
        seed: 5,
        ..JointScenario::default()
    };
    let mut vi = base.clone();
    vi.cache_policy = CachePolicyKind::ValueIteration { gamma: 0.9 };
    vi.service_policy = ServicePolicyKind::AlwaysServe;

    struct JointGolden<'a> {
        scenario: &'a JointScenario,
        requests: u64,
        stale: u64,
        updates: u64,
        queue_bits: u64,
        svc_bits: u64,
        upd_bits: u64,
        stale_cost_bits: u64,
        series: u64,
    }
    let cases = [
        JointGolden {
            scenario: &base,
            requests: 8340,
            stale: 1868,
            updates: 607,
            queue_bits: 0x4024ea3d70a3d70a,
            svc_bits: 0x40174f5c28f5c28f,
            upd_bits: 0x3ff847ae147ae148,
            stale_cost_bits: 0x4012ae147ae147ae,
            series: 0x755a70ad82c85db8,
        },
        JointGolden {
            scenario: &vi,
            requests: 8340,
            stale: 370,
            updates: 800,
            queue_bits: 0x4024d9999999999a,
            svc_bits: 0x4018000000000000,
            upd_bits: 0x4000000000000000,
            stale_cost_bits: 0x3fed99999999999a,
            series: 0x6385c26fb7e3e93f,
        },
    ];
    for JointGolden {
        scenario,
        requests,
        stale,
        updates,
        queue_bits: queue,
        svc_bits: svc,
        upd_bits: upd,
        stale_cost_bits: stale_cost,
        series,
    } in cases
    {
        let r = run_joint(scenario).expect("joint run succeeds");
        let label = scenario.cache_policy.label();
        assert_eq!(r.total_requests, requests, "{label}: requests");
        assert_eq!(r.stale_requests, stale, "{label}: stale requests");
        assert_eq!(r.updates, updates, "{label}: updates");
        assert_eq!(r.mean_queue.to_bits(), queue, "{label}: mean queue bits");
        assert_eq!(
            r.mean_service_cost.to_bits(),
            svc,
            "{label}: service cost bits"
        );
        assert_eq!(
            r.mean_update_cost.to_bits(),
            upd,
            "{label}: update cost bits"
        );
        assert_eq!(
            r.mean_stale_cost.to_bits(),
            stale_cost,
            "{label}: stale cost bits"
        );
        assert_eq!(
            series_checksum(&r.cache_reward),
            series,
            "{label}: cache reward series checksum"
        );
    }
}

/// What the hand-rolled driver accumulates; mirrors the report fields the
/// built-in driver derives from its slot loop.
struct DriverTally {
    updates: u64,
    violations: u64,
    aoi_ratio_sum: f64,
    utility_sum: f64,
    cost_sum: f64,
    rewards: Vec<f64>,
}

/// Re-implements the simulate driver from scratch against the public
/// engine-core API: same RNG stream (`SeedSequence` label `"run"`), same
/// per-slot statement order (per-RSU decide → refresh → Eq. 1 accounting
/// → per-content AoI bookkeeping, then one synchronized `advance`).
fn hand_rolled_drive(sim: &CacheSimulation, kind: CachePolicyKind) -> DriverTally {
    let scenario = sim.scenario();
    let mut engines = sim.cache_engines(kind).expect("engines assemble");
    let mut rng = SeedSequence::new(scenario.seed).rng("run");
    let mut tally = DriverTally {
        updates: 0,
        violations: 0,
        aoi_ratio_sum: 0.0,
        utility_sum: 0.0,
        cost_sum: 0.0,
        rewards: Vec::with_capacity(scenario.horizon),
    };
    for t in 0..scenario.horizon {
        let now = simkit::TimeSlot::new(t as u64);
        let mut slot_reward = 0.0;
        for (engine, spec) in engines.iter_mut().zip(sim.specs()) {
            let decision = engine.decide_static(now, &spec.popularity, &mut rng);
            if let Some(h) = decision {
                engine.apply_refresh(h).expect("in-range content");
                tally.updates += 1;
            }
            let utility = engine.aoi_utility(&spec.popularity);
            let cost = engine.action_cost(decision.is_some());
            slot_reward += spec.weight * utility - cost;
            tally.utility_sum += spec.weight * utility;
            tally.cost_sum += cost;
            for h in 0..engine.contents() {
                let age = engine.age(h);
                let max_age = spec.max_ages[h];
                tally.aoi_ratio_sum += age.ratio_to(max_age);
                if age.exceeds(max_age) {
                    tally.violations += 1;
                }
            }
        }
        tally.rewards.push(slot_reward);
        for engine in &mut engines {
            engine.advance();
        }
    }
    tally
}

#[test]
fn hand_rolled_driver_reproduces_run_bit_for_bit() {
    let sim = CacheSimulation::new(golden_cache_scenario()).expect("valid scenario");
    // Random consumes the run RNG every slot; VI never touches it. Both
    // must agree with the built-in driver, proving the stream handling is
    // in the policies/engines, not the driver.
    for kind in [
        CachePolicyKind::ValueIteration { gamma: 0.9 },
        CachePolicyKind::Random { probability: 0.3 },
        CachePolicyKind::Myopic,
    ] {
        let report = sim.run(kind).expect("run succeeds");
        let tally = hand_rolled_drive(&sim, kind);
        let label = kind.label();
        assert_eq!(tally.updates, report.updates, "{label}: updates");
        assert_eq!(
            tally.violations, report.violation_content_slots,
            "{label}: violations"
        );
        let content_slots = report.content_slots as f64;
        let horizon = report.horizon as f64;
        assert_eq!(
            (tally.aoi_ratio_sum / content_slots).to_bits(),
            report.mean_aoi_ratio.to_bits(),
            "{label}: mean AoI ratio"
        );
        assert_eq!(
            (tally.utility_sum / horizon).to_bits(),
            report.mean_utility.to_bits(),
            "{label}: mean utility"
        );
        assert_eq!(
            (tally.cost_sum / horizon).to_bits(),
            report.mean_cost.to_bits(),
            "{label}: mean cost"
        );
        assert_eq!(
            values_checksum(&tally.rewards),
            series_checksum(&report.reward),
            "{label}: reward series"
        );
        let cumulative: f64 = {
            let mut acc = 0.0;
            for v in &tally.rewards {
                acc += v;
            }
            acc
        };
        assert_eq!(
            cumulative.to_bits(),
            report.final_cumulative_reward().to_bits(),
            "{label}: cumulative reward"
        );
    }
}

/// Everything two reports must share for us to call them identical:
/// every scalar compared on exact bits, every retained trace compared by
/// order-sensitive checksum, every streaming summary field-by-field.
fn assert_reports_identical(a: &CacheRunReport, b: &CacheRunReport, what: &str) {
    assert_eq!(a.updates, b.updates, "{what}: updates");
    assert_eq!(
        a.violation_content_slots, b.violation_content_slots,
        "{what}: violations"
    );
    assert_eq!(a.content_slots, b.content_slots, "{what}: content slots");
    assert_eq!(
        a.mean_aoi_ratio.to_bits(),
        b.mean_aoi_ratio.to_bits(),
        "{what}: mean AoI ratio"
    );
    assert_eq!(
        a.mean_utility.to_bits(),
        b.mean_utility.to_bits(),
        "{what}: mean utility"
    );
    assert_eq!(
        a.mean_cost.to_bits(),
        b.mean_cost.to_bits(),
        "{what}: mean cost"
    );
    assert_eq!(
        series_checksum(&a.reward),
        series_checksum(&b.reward),
        "{what}: reward series"
    );
    assert_eq!(
        series_checksum(&a.cumulative_reward),
        series_checksum(&b.cumulative_reward),
        "{what}: cumulative reward series"
    );
    assert_eq!(
        a.aoi_summaries.len(),
        b.aoi_summaries.len(),
        "{what}: summary count"
    );
    for (i, (sa, sb)) in a.aoi_summaries.iter().zip(&b.aoi_summaries).enumerate() {
        assert_eq!(sa.count, sb.count, "{what}: summary {i} count");
        assert_eq!(
            sa.mean.to_bits(),
            sb.mean.to_bits(),
            "{what}: summary {i} mean"
        );
        assert_eq!(
            sa.std_dev.to_bits(),
            sb.std_dev.to_bits(),
            "{what}: summary {i} std dev"
        );
        assert_eq!(
            sa.min.map(f64::to_bits),
            sb.min.map(f64::to_bits),
            "{what}: summary {i} min"
        );
        assert_eq!(
            sa.max.map(f64::to_bits),
            sb.max.map(f64::to_bits),
            "{what}: summary {i} max"
        );
        assert_eq!(
            sa.sum.to_bits(),
            sb.sum.to_bits(),
            "{what}: summary {i} sum"
        );
    }
}

#[test]
fn recording_modes_change_retention_never_results() {
    let scenario = golden_cache_scenario();
    let kind = CachePolicyKind::Random { probability: 0.3 };
    let full = CacheSimulation::new(scenario)
        .expect("valid scenario")
        .with_recording(RecordingMode::Full)
        .run(kind)
        .expect("full run");
    for mode in [RecordingMode::Decimate(10), RecordingMode::SummaryOnly] {
        let other = CacheSimulation::new(scenario)
            .expect("valid scenario")
            .with_recording(mode)
            .run(kind)
            .expect("run");
        assert_reports_identical(&full, &other, &format!("{mode:?} vs Full"));
    }
    // The retention itself must actually differ — otherwise the test above
    // compared a mode against itself.
    let decimated = CacheSimulation::new(scenario)
        .expect("valid scenario")
        .with_recording(RecordingMode::Decimate(10))
        .run(kind)
        .expect("run");
    assert!(decimated.aoi_traces[0].len() < full.aoi_traces[0].len());
    let summary_only = CacheSimulation::new(scenario)
        .expect("valid scenario")
        .with_recording(RecordingMode::SummaryOnly)
        .run(kind)
        .expect("run");
    assert_eq!(summary_only.aoi_traces[0].len(), 0);
}
