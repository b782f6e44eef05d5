//! Criterion benches: end-to-end experiment throughput.
//!
//! `bench_fig1a` / `bench_fig1b` time reduced-scale versions of the two
//! paper artifacts (small enough to iterate; the full-scale binaries are
//! `cargo run --release -p aoi-bench --bin fig1a` / `fig1b`). `bench_joint`
//! times the two-stage scheme per slot on the vanet substrate.
//! `bench_artifact_read` times `persist::read_artifact` on one fig1a-sized
//! cell trace (22 channels × 5,000 slots), plain and compressed.

use aoi_cache::presets::fig1b_policies;
use aoi_cache::{
    compare_service, run_joint, CachePolicyKind, CacheScenario, CacheSimulation, JointScenario,
    ServiceScenario,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simkit::persist::{read_artifact, ArtifactKind, ArtifactWriter, Compression, Manifest};
use simkit::{RecordingMode, TimeSlot};

fn bench_fig1a(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1a");
    group.sample_size(10);
    let scenario = CacheScenario {
        n_rsus: 2,
        regions_per_rsu: 3,
        age_cap: 6,
        max_age_min: 3,
        max_age_max: 5,
        horizon: 1000,
        ..CacheScenario::default()
    };
    let sim = CacheSimulation::new(scenario).expect("valid scenario");
    group.throughput(Throughput::Elements(scenario.horizon as u64));
    group.bench_function("solve_and_run_vi", |b| {
        b.iter(|| {
            std::hint::black_box(
                sim.run(CachePolicyKind::ValueIteration { gamma: 0.95 })
                    .expect("runs"),
            )
        })
    });
    group.bench_function("run_myopic", |b| {
        b.iter(|| std::hint::black_box(sim.run(CachePolicyKind::Myopic).expect("runs")))
    });
    group.finish();
}

fn bench_fig1b(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1b");
    let scenario = ServiceScenario {
        horizon: 1000,
        ..ServiceScenario::default()
    };
    group.throughput(Throughput::Elements(3 * scenario.horizon as u64));
    group.bench_function("three_policies_1000_slots", |b| {
        b.iter(|| {
            std::hint::black_box(compare_service(&scenario, &fig1b_policies()).expect("runs"))
        })
    });
    group.finish();
}

fn bench_joint(c: &mut Criterion) {
    let mut group = c.benchmark_group("joint");
    group.sample_size(10);
    let mut scenario = JointScenario::default();
    scenario.network.n_regions = 8;
    scenario.network.n_rsus = 2;
    scenario.network.road_length_m = 1600.0;
    scenario.horizon = 500;
    scenario.warmup = 20;
    group.throughput(Throughput::Elements(scenario.horizon as u64));
    group.bench_function("two_stage_500_slots", |b| {
        b.iter(|| std::hint::black_box(run_joint(&scenario).expect("runs")))
    });
    group.finish();
}

fn bench_artifact_read(c: &mut Criterion) {
    const CHANNELS: usize = 22;
    const SLOTS: u64 = 5_000;
    let mut group = c.benchmark_group("artifact_read");
    group.sample_size(10);
    group.throughput(Throughput::Elements(CHANNELS as u64 * SLOTS));
    let manifest = Manifest {
        artifact: ArtifactKind::Trace,
        scenario: "artifact-read".to_string(),
        policy: "mdp-vi".to_string(),
        seed: Some(1),
        recording: RecordingMode::Full,
        config_hash: 0,
    };
    for (name, compression) in [
        ("plain", Compression::None),
        ("compressed", Compression::Deflate),
    ] {
        let path = compression.apply_to(&std::env::temp_dir().join(format!(
            "aoi-bench-artifact-read-{}.trace.jsonl",
            std::process::id()
        )));
        let mut writer =
            ArtifactWriter::create_with(&path, &manifest, compression).expect("create artifact");
        let chs: Vec<_> = (0..CHANNELS)
            .map(|i| writer.channel(&format!("rsu{}/content{i}", i % 2), RecordingMode::Full))
            .collect::<Result<_, _>>()
            .expect("declare channels");
        // Sawtooth ages and their running means, as a fig1a cell records.
        for t in 0..SLOTS {
            for (i, &ch) in chs.iter().enumerate() {
                let age = (t + i as u64) % (3 + i as u64 % 5);
                let value = if i % 2 == 0 {
                    age as f64
                } else {
                    age as f64 / (t + 1) as f64
                };
                writer
                    .sample(ch, TimeSlot::new(t), value)
                    .expect("write sample");
            }
        }
        writer.finish().expect("finish artifact");
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(read_artifact(&path).expect("reads")))
        });
        std::fs::remove_file(&path).expect("remove artifact");
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fig1a,
    bench_fig1b,
    bench_joint,
    bench_artifact_read
);
criterion_main!(benches);
