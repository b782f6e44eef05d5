//! Verifies the acceptance criterion that compiled solvers perform **zero
//! heap allocation per sweep**: the allocation count of a solve must not
//! grow with the number of sweeps performed.
//!
//! A counting wrapper around the system allocator tallies every allocation
//! per thread; solving the same compiled model with a small and a
//! large sweep budget must allocate exactly the same number of times (all
//! buffers are set up before the first sweep).

use mdp::solver::{evaluate_policy_compiled, PolicyIteration, StopReason, ValueIteration};
use mdp::{reference, CompiledMdp, FiniteMdp, FnMdp, Transition};
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

/// Allocations the calling thread makes while running `f` serially
/// (inside `executor::serialized`, so every sweep runs on this thread and
/// is counted).
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    executor::serialized(f);
    ALLOCATIONS.with(Cell::get) - before
}

/// A 16×14 gridworld (224 states × 4 actions) — comparable in size to the
/// per-RSU cache MDP presets (e.g. 3 contents at age cap 6 → 216 states).
fn compiled_model() -> CompiledMdp {
    let (mdp, _) = reference::gridworld(16, 14, 0.15);
    CompiledMdp::compile(&mdp).unwrap()
}

#[test]
fn value_iteration_sweeps_do_not_allocate() {
    let compiled = compiled_model();
    // Serial path: the sweep loop itself must be allocation-free, so the
    // total allocation count is independent of the sweep budget.
    let solver = ValueIteration::new(0.95).tolerance(0.0);
    // Warm up (thread-locals, lazy runtime state).
    let _ = solver.max_sweeps(3).solve_compiled(&compiled).unwrap();
    let short = allocations_during(|| {
        let _ = solver.max_sweeps(5).solve_compiled(&compiled).unwrap();
    });
    let long = allocations_during(|| {
        let _ = solver.max_sweeps(400).solve_compiled(&compiled).unwrap();
    });
    assert_eq!(
        short, long,
        "allocation count must not scale with sweeps (short {short}, long {long})"
    );
}

/// `mdp` with every action listed twice: each state's best action ties
/// with its copy, so the action-gap certificate never holds and a policy
/// solve runs its full sweep budget.
fn doubled_actions(mdp: &impl FiniteMdp) -> CompiledMdp {
    let m = mdp.n_actions();
    CompiledMdp::compile(&FnMdp::new(mdp.n_states(), 2 * m, |s, a, out| {
        mdp.transitions(s, a % m, out)
    }))
    .unwrap()
}

#[test]
fn certified_policy_sweeps_do_not_allocate() {
    // The gridworld runs the CSR gap backups, the deterministic chain the
    // dense ones. Tolerance 0 and exact ties keep both solves sweeping to
    // the cap, so every budget ends on the same `NotConverged` path.
    let (grid, _) = reference::gridworld(16, 14, 0.15);
    let (chain, _) = reference::chain(224, 1.0);
    for (compiled, dense) in [
        (doubled_actions(&grid), false),
        (doubled_actions(&chain), true),
    ] {
        assert_eq!(compiled.has_dense_layout(), dense);
        let solver = ValueIteration::new(0.95).tolerance(0.0);
        let _ = solver.max_sweeps(3).solve_policy(&compiled).unwrap_err();
        let short = allocations_during(|| {
            let _ = solver.max_sweeps(5).solve_policy(&compiled).unwrap_err();
        });
        let long = allocations_during(|| {
            let _ = solver.max_sweeps(400).solve_policy(&compiled).unwrap_err();
        });
        assert_eq!(
            short, long,
            "allocation count must not scale with sweeps (short {short}, long {long})"
        );
    }
}

/// A deterministic 224-state, 3-action model with scattered destinations
/// and distinct rewards: no exact ties, so a policy solve certifies in its
/// modified-policy-iteration phase on the dense sweep path.
fn scattered_model() -> CompiledMdp {
    let n = 224;
    CompiledMdp::compile(&FnMdp::new(n, 3, |s, a, out| {
        let next = (s * 7 + a * 13 + 1) % n;
        let reward = ((s * 31 + a * 17) % 101) as f64 / 100.0 - 0.5;
        out.push(Transition::new(next, 1.0, reward));
    }))
    .unwrap()
}

#[test]
fn certified_modified_policy_solve_does_not_allocate_per_sweep() {
    let compiled = scattered_model();
    assert!(compiled.has_dense_layout());
    let solve = |gamma: f64| ValueIteration::new(gamma).solve_policy(&compiled).unwrap();
    let (fast, slow) = (solve(0.9), solve(0.99));
    for outcome in [&fast, &slow] {
        assert_eq!(outcome.counters.stop, StopReason::Certified);
        assert!(outcome.counters.eval_sweeps > 0, "{:?}", outcome.counters);
    }
    assert!(
        slow.counters.sweeps + slow.counters.eval_sweeps
            > fast.counters.sweeps + fast.counters.eval_sweeps,
        "γ = 0.99 must sweep more: {:?} vs {:?}",
        slow.counters,
        fast.counters
    );
    let fast = allocations_during(|| {
        let _ = solve(0.9);
    });
    let slow = allocations_during(|| {
        let _ = solve(0.99);
    });
    assert_eq!(
        fast, slow,
        "allocation count must not scale with sweeps (γ 0.9: {fast}, γ 0.99: {slow})"
    );
}

#[test]
fn policy_evaluation_sweeps_do_not_allocate() {
    let compiled = compiled_model();
    let policy = ValueIteration::new(0.9)
        .solve_compiled(&compiled)
        .unwrap()
        .policy;
    let _ = evaluate_policy_compiled(&compiled, &policy, 0.9, 0.0, 3);
    let short = allocations_during(|| {
        let _ = evaluate_policy_compiled(&compiled, &policy, 0.9, 0.0, 5);
    });
    let long = allocations_during(|| {
        let _ = evaluate_policy_compiled(&compiled, &policy, 0.9, 0.0, 400);
    });
    assert_eq!(
        short, long,
        "allocation count must not scale with sweeps (short {short}, long {long})"
    );
}

#[test]
fn policy_iteration_inner_sweeps_do_not_allocate() {
    let compiled = compiled_model();
    // Policy iteration allocates per improvement *round* (values vector,
    // final policy), never per evaluation sweep: tightening the inner
    // tolerance by orders of magnitude must not change the count.
    let solve = |tol: f64| {
        PolicyIteration::new(0.95)
            .eval_tolerance(tol)
            .solve_compiled(&compiled)
            .unwrap()
    };
    let _ = solve(1e-4);
    let coarse_rounds = solve(1e-4).rounds;
    let fine_rounds = solve(1e-12).rounds;
    if coarse_rounds == fine_rounds {
        let coarse = allocations_during(|| {
            let _ = solve(1e-4);
        });
        let fine = allocations_during(|| {
            let _ = solve(1e-12);
        });
        assert_eq!(
            coarse, fine,
            "equal rounds must allocate equally (coarse {coarse}, fine {fine})"
        );
    }
}
