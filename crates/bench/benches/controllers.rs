//! Criterion benches: the stage-2 service core and its queue and
//! drift-plus-penalty primitives.

use aoi_cache::{LyapunovServicePolicy, RsuServiceEngine, ServiceLevel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lyapunov::{DecisionOption, DriftPlusPenalty, Queue};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simkit::TimeSlot;

fn menu(n: usize) -> Vec<DecisionOption> {
    (0..n)
        .map(|i| DecisionOption::new(i as f64 * 0.5, i as f64))
        .collect()
}

fn bench_dpp_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("dpp_decide");
    for n in [2usize, 8, 32] {
        let options = menu(n);
        let dpp = DriftPlusPenalty::new(20.0).expect("valid V");
        group.bench_with_input(BenchmarkId::from_parameter(n), &options, |b, options| {
            let mut q = 0.0;
            b.iter(|| {
                q = (q + 1.7) % 100.0;
                std::hint::black_box(dpp.decide(q, options).expect("non-empty"))
            })
        });
    }
    group.finish();
}

/// One slot of the per-RSU stage-2 core every driver runs: the paper's
/// Eq. 5 decision on the pre-arrival backlog, then the queue dynamics.
fn bench_service_engine_step(c: &mut Criterion) {
    let levels: Vec<ServiceLevel> = (0..4)
        .map(|i| ServiceLevel::new(f64::from(i) * 0.5, f64::from(i)))
        .collect();
    c.bench_function("service_engine_step", |b| {
        let policy = LyapunovServicePolicy::new(20.0).expect("valid V");
        let mut engine = RsuServiceEngine::new(Box::new(policy));
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| {
            let d = engine
                .decide(TimeSlot::ZERO, &levels, &mut rng)
                .expect("valid decision");
            std::hint::black_box(engine.apply(0.9, levels[d]))
        })
    });
}

fn bench_queue_step(c: &mut Criterion) {
    c.bench_function("queue_step", |b| {
        let mut q = Queue::new();
        b.iter(|| std::hint::black_box(q.step(1.3, 1.1)))
    });
}

/// A whole stage-2 ensemble grid through the experiment engine (the Fig. 1b
/// policy menu over replicate arrival traces): controller decisions, queue
/// dynamics and the engine's cell fan-out, end to end.
fn bench_service_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_grid");
    group.sample_size(10);
    let plan = aoi_cache::presets::fig1b_ensemble(3);
    group.bench_function("fig1b_3traces", |b| b.iter(|| plan.run().expect("runs")));
    group.finish();
}

criterion_group!(
    benches,
    bench_dpp_decide,
    bench_service_engine_step,
    bench_queue_step,
    bench_service_grid
);
criterion_main!(benches);
