//! The simulation step-loop benchmarks backing the allocation-free hot
//! path: per-slot state encoding and policy decisions at fig1a scale, the
//! full step loop under every [`RecordingMode`], the fig1b service loop,
//! and an allocation census comparing the modes (and the pre-refactor
//! `Vec`-per-encode path) on the fig1a preset.

use aoi_cache::presets::{fig1a_scenario, fig1b_scenario};
use aoi_cache::{
    Age, AgeVector, CachePolicyKind, CacheSimulation, CompiledRsuMdp, RecordingMode, RsuSpec,
    ServicePolicyKind,
};
use criterion::{criterion_group, Criterion};
use mdp::ProductSpace;
use simkit::executor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread. The count is per thread, so
    /// tests the harness runs in parallel never see each other's
    /// allocations (the code under test runs on the calling thread).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread in teardown has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: a pure pass-through to the System allocator; the only addition is
// a thread-local counter bump, which neither allocates nor affects
// GlobalAlloc's contract.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards `System.alloc`'s own contract unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds GlobalAlloc's layout contract, which is
        // forwarded verbatim to the System allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards `System.dealloc`'s own contract unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by the matching alloc/realloc below,
        // which delegate to System, so System may free it.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards `System.realloc`'s own contract unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr`/`layout` obey the caller's GlobalAlloc contract and
        // came from System via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One RSU of the fig1a preset (5 contents at age cap 9 → 59 049 states).
fn fig1a_rsu_spec() -> RsuSpec {
    let scenario = fig1a_scenario();
    let sim = CacheSimulation::new(scenario).expect("valid preset");
    sim.specs()[0].clone()
}

/// The per-slot policy decision at fig1a scale: the historical path
/// materialized a `Vec<usize>` of age coordinates per decision
/// (`ProductSpace::encode(&ages.coords())`); the current path streams them
/// (`encode_state` → `encode_iter`). Same table lookup either way, so the
/// gap is exactly the per-slot allocation cost the refactor removed.
fn bench_decide(c: &mut Criterion) {
    let spec = fig1a_rsu_spec();
    let compiled = CompiledRsuMdp::from_spec(&spec).expect("compiles");
    let policy = mdp::solver::ValueIteration::new(0.95)
        .solve_compiled(&compiled.kernel)
        .expect("solves")
        .policy;
    let model = &compiled.model;
    let cap = spec.age_cap;
    let ages = AgeVector::from_ages(
        (0..spec.n_contents())
            .map(|h| Age::new(1 + (h as u32 * 3) % cap.get()).expect(">= 1"))
            .collect(),
        cap,
    )
    .expect("within cap");
    let legacy_space =
        ProductSpace::new(vec![cap.get() as usize; spec.n_contents()]).expect("fits");

    let mut group = c.benchmark_group("sim_step/decide");
    group.bench_function("legacy_alloc_encode", |b| {
        b.iter(|| {
            let coords = std::hint::black_box(&ages).coords();
            let state = legacy_space.encode(&coords).expect("within cap");
            policy.action(state).checked_sub(1)
        })
    });
    group.bench_function("streamed_encode", |b| {
        b.iter(|| {
            let state = model.encode_state(std::hint::black_box(&ages), 0);
            policy.action(state).checked_sub(1)
        })
    });
    group.finish();
}

/// The full fig1a step loop (4 RSUs × 5 contents × 1000 slots) under every
/// trace-retention mode; the policy is myopic so the loop body, not an MDP
/// solve, dominates. Throughput differences between the modes come from
/// trace retention alone — every statistic is identical.
fn bench_step_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_step/fig1a");
    group.sample_size(10);
    let scenario = fig1a_scenario();
    group.throughput(criterion::Throughput::Elements(scenario.horizon as u64));
    let sim = CacheSimulation::new(scenario).expect("valid preset");
    for (label, mode) in [
        ("full", RecordingMode::Full),
        ("decimate10", RecordingMode::Decimate(10)),
        ("summary_only", RecordingMode::SummaryOnly),
    ] {
        let sim = sim.clone().with_recording(mode);
        group.bench_function(label, |b| {
            b.iter(|| std::hint::black_box(sim.run(CachePolicyKind::Myopic).expect("runs")))
        });
    }
    group.finish();
}

/// The fig1b service loop (1000 slots, Lyapunov rule): already
/// allocation-free per slot; tracked here so regressions in the stage-2
/// step path show up alongside the stage-1 numbers.
fn bench_service_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_step/fig1b");
    let scenario = fig1b_scenario();
    group.throughput(criterion::Throughput::Elements(scenario.horizon as u64));
    group.bench_function("lyapunov", |b| {
        b.iter(|| {
            std::hint::black_box(
                aoi_cache::run_service(&scenario, ServicePolicyKind::Lyapunov { v: 20.0 })
                    .expect("runs"),
            )
        })
    });
    group.finish();
}

/// Allocation census on the fig1a preset: allocations per run and the
/// per-slot delta (run at 1000 vs 500 slots), per recording mode, plus the
/// count the pre-refactor encode path would have added back. Every mode
/// must show a per-slot delta of exactly zero.
fn allocation_report() {
    println!("\nsim_step allocation census (fig1a preset, myopic policy):");
    let scenario = fig1a_scenario();
    let slots_per_run = scenario.n_rsus as u64 * scenario.horizon as u64;
    for (label, mode) in [
        ("full", RecordingMode::Full),
        ("decimate10", RecordingMode::Decimate(10)),
        ("summary_only", RecordingMode::SummaryOnly),
    ] {
        let long = CacheSimulation::new(scenario)
            .expect("valid preset")
            .with_recording(mode);
        let short = CacheSimulation::new(aoi_cache::CacheScenario {
            horizon: scenario.horizon / 2,
            ..scenario
        })
        .expect("valid preset")
        .with_recording(mode);
        executor::serialized(|| {
            let _ = long.run(CachePolicyKind::Myopic).expect("warm-up");
            let _ = short.run(CachePolicyKind::Myopic).expect("warm-up");
            let per_long = allocations_during(|| {
                let _ = long.run(CachePolicyKind::Myopic).expect("runs");
            });
            let per_short = allocations_during(|| {
                let _ = short.run(CachePolicyKind::Myopic).expect("runs");
            });
            println!(
                "  {label:<12} {per_long:>5} allocations/run, per-slot delta {} \
                 (1000 vs 500 slots)",
                per_long as i64 - per_short as i64
            );
        });
    }
    println!(
        "  (pre-refactor decide path: one coords Vec per RSU-slot = {slots_per_run} \
         extra allocations/run on this preset)"
    );
}

criterion_group!(benches, bench_decide, bench_step_loop, bench_service_loop);

fn main() {
    let mut criterion = Criterion::configure_from_args();
    benches(&mut criterion);
    allocation_report();
    criterion.final_summary();
}
