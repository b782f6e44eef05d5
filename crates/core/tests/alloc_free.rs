//! Simulation-loop companion to `mdp/tests/alloc_free.rs`: the per-slot
//! body of [`CacheSimulation::run_with`] must perform **zero heap
//! allocation per slot** after warm-up. A counting wrapper around the
//! system allocator tallies every allocation per thread; running
//! the identical experiment at a short and a long horizon must allocate
//! exactly the same number of times (everything the slot loop touches —
//! state encoding, decision contexts, reward accumulators, trace recorders
//! — is set up before the first slot).
//!
//! Compiling the cache MDP into its solver kernel must not allocate per
//! `(state, action)` row either: two model sizes make the same number of
//! allocations. The stage-2 core's slot (`RsuServiceEngine` under the
//! paper's drift-plus-penalty policy) allocates nothing at all.
//!
//! Runs are wrapped in `executor::serialized` so allocation counts stay
//! deterministic on any host (no pool threads).

use aoi_cache::persist::Compression;
use aoi_cache::{
    Age, CachePolicyKind, CacheScenario, CacheSimulation, LyapunovServicePolicy, RecordingMode,
    RsuServiceEngine, RsuSpec, ServiceLevel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simkit::{executor, TimeSlot};
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

/// The tiny exact-solver scenario of the cache_sim test suite, at a
/// caller-chosen horizon (the catalog, popularity and initial ages derive
/// from the seed only, so two horizons describe the same problem).
fn sim(horizon: usize, recording: RecordingMode) -> CacheSimulation {
    let scenario = CacheScenario {
        n_rsus: 2,
        regions_per_rsu: 3,
        age_cap: 6,
        max_age_min: 3,
        max_age_max: 5,
        horizon,
        seed: 42,
        ..CacheScenario::default()
    };
    CacheSimulation::new(scenario)
        .unwrap()
        .with_recording(recording)
}

/// Asserts that running `kind` allocates exactly as often at 64 slots as
/// at 512: whatever the run allocates is per-run setup, never per-slot.
fn assert_horizon_free(kind: CachePolicyKind, recording: RecordingMode) {
    let short = sim(64, recording);
    let long = sim(512, recording);
    executor::serialized(|| {
        // Warm-up: lazy per-RSU kernel compiles, thread-locals.
        let _ = short.run(kind).unwrap();
        let _ = long.run(kind).unwrap();
        let a = allocations_during(|| {
            let _ = short.run(kind).unwrap();
        });
        let b = allocations_during(|| {
            let _ = long.run(kind).unwrap();
        });
        assert_eq!(
            a,
            b,
            "{} ({recording:?}): allocation count must not scale with the \
             horizon (64 slots: {a}, 512 slots: {b})",
            kind.label()
        );
    });
}

/// The spilling path must be horizon-free **in memory** too: streaming
/// every retained sample to the artifact file costs file bytes, never
/// heap — so a `Full`-mode spilled run allocates exactly as often at 64
/// slots as at 512 (all setup: recorders, channel records, the writer's
/// buffer), which is precisely the "no full traces resident" guarantee of
/// `ExperimentPlan::artifact_dir` at the single-run level.
fn assert_horizon_free_spilled(
    kind: CachePolicyKind,
    recording: RecordingMode,
    compression: Compression,
) {
    let dir = std::env::temp_dir().join(format!("aoi-alloc-free-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let short = sim(64, recording);
    let long = sim(512, recording);
    let path_a = compression.apply_to(&dir.join("short.trace.jsonl"));
    let path_b = compression.apply_to(&dir.join("long.trace.jsonl"));
    executor::serialized(|| {
        let _ = short.run_artifact_with(kind, &path_a, compression).unwrap();
        let _ = long.run_artifact_with(kind, &path_b, compression).unwrap();
        let a = allocations_during(|| {
            let _ = short.run_artifact_with(kind, &path_a, compression).unwrap();
        });
        let b = allocations_during(|| {
            let _ = long.run_artifact_with(kind, &path_b, compression).unwrap();
        });
        assert_eq!(
            a,
            b,
            "{} ({recording:?}, spilled, {compression:?}): allocation count \
             must not scale with the horizon (64 slots: {a}, 512 slots: {b})",
            kind.label()
        );
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One test function for every simulation scenario: they share the
/// same warm-up discipline and runs on the calling thread, whose
/// allocations alone the counter tallies.
#[test]
fn simulation_hot_loop_is_allocation_free() {
    // The paper's policy: table lookup through the no-alloc state encoding.
    assert_horizon_free(
        CachePolicyKind::ValueIteration { gamma: 0.9 },
        RecordingMode::Full,
    );
    // Baselines, including an RNG-driven one.
    assert_horizon_free(CachePolicyKind::Myopic, RecordingMode::Full);
    assert_horizon_free(
        CachePolicyKind::Random { probability: 0.5 },
        RecordingMode::Full,
    );
    // Every trace-retention mode.
    for recording in [
        RecordingMode::Full,
        RecordingMode::Decimate(8),
        RecordingMode::SummaryOnly,
    ] {
        assert_horizon_free(CachePolicyKind::Myopic, recording);
    }
    // Spilling to a disk artifact keeps the loop heap-free as well — the
    // retained `Full` trace goes to the file, not to resident memory.
    assert_horizon_free_spilled(
        CachePolicyKind::Myopic,
        RecordingMode::Full,
        Compression::None,
    );
    assert_horizon_free_spilled(
        CachePolicyKind::ValueIteration { gamma: 0.9 },
        RecordingMode::Full,
        Compression::None,
    );
    // ...and the streaming compressor's buffers are all sized at creation,
    // so the compressed spilling path is per-sample allocation-free too.
    assert_horizon_free_spilled(
        CachePolicyKind::Myopic,
        RecordingMode::Full,
        Compression::Deflate,
    );
}

/// Allocations made compiling the cache MDP of `n_contents` contents at
/// age cap `cap` (`cap^n_contents` states, `n_contents + 1` actions).
fn compile_allocations(n_contents: usize, cap: u32) -> usize {
    let spec = RsuSpec {
        max_ages: vec![Age::new(cap - 1).unwrap(); n_contents],
        popularity: vec![1.0 / n_contents as f64; n_contents],
        age_cap: Age::new(cap).unwrap(),
        weight: 1.0,
        update_cost: 0.3,
    };
    let mdp = spec.mdp().unwrap();
    allocations_during(|| {
        let kernel = mdp.compile().unwrap();
        assert!(kernel.has_dense_layout());
        assert_eq!(kernel.n_states(), (cap as usize).pow(n_contents as u32));
    })
}

/// Compilation allocates the kernel's arrays up front and enumerates rows
/// without touching the heap: 256 states and 59,049 states (the fig1a
/// solver size) cost the same number of allocations.
#[test]
fn compile_does_not_allocate_per_row() {
    let small = compile_allocations(4, 4);
    let large = compile_allocations(5, 9);
    assert_eq!(
        small, large,
        "compile allocations must not scale with rows (small {small}, large {large})"
    );
}

/// One stage-2 slot — the drift-plus-penalty decision on the pre-arrival
/// backlog, then the queue dynamics — reads the service menu in place:
/// 512 slots of `RsuServiceEngine` under `LyapunovServicePolicy` make no
/// allocation.
#[test]
fn service_engine_slot_is_allocation_free() {
    let levels = ServiceLevel::standard_menu();
    let policy = LyapunovServicePolicy::new(20.0).unwrap();
    let mut engine = RsuServiceEngine::new(Box::new(policy));
    let mut rng = StdRng::seed_from_u64(3);
    let mut served = 0.0;
    let allocations = allocations_during(|| {
        for t in 0..512u32 {
            let d = engine
                .decide(TimeSlot::new(u64::from(t)), &levels, &mut rng)
                .unwrap();
            served += engine.apply(f64::from(t % 4), levels[d]);
        }
    });
    assert!(served > 0.0, "the policy must serve as well as idle");
    assert_eq!(
        allocations, 0,
        "stage-2 slots allocated {allocations} times"
    );
}
