//! Pool-reuse and serial-equivalence tests for every compiled sweep solver
//! (companion to the counting-allocator suite in `alloc_free.rs`): a
//! pooled solve must create **exactly one** worker pool, however many
//! sweeps, improvement rounds or backward-induction stages it runs, and
//! must return bit for bit what the same solve returns inside
//! `executor::serialized`, which must create none.
//!
//! The executor's pool counter is process-global, so everything lives in a
//! single test function in its own integration-test binary — no concurrent
//! test can race the deltas. `force_workers` drives the pooled path even on
//! single-CPU hosts, where automatic sizing would correctly stay serial.

#![cfg(feature = "parallel")]

use mdp::solver::{
    evaluate_policy_compiled, BackwardInduction, PolicyIteration, RelativeValueIteration,
    ValueIteration,
};
use mdp::{reference, CompiledMdp};
use simkit::executor::{force_workers, pools_created, serialized};

/// Runs `solve` pooled (with the forced worker count) and then inside
/// `serialized`; asserts the pooled run spawned exactly one pool and the
/// serial run none, and returns both results.
fn pooled_and_serial<T>(what: &str, solve: impl Fn() -> T) -> (T, T) {
    let before = pools_created();
    let pooled = solve();
    assert_eq!(
        pools_created() - before,
        1,
        "{what} must spawn exactly one pool"
    );
    let before = pools_created();
    let serial = serialized(&solve);
    assert_eq!(
        pools_created(),
        before,
        "serial {what} must not spawn pools"
    );
    (pooled, serial)
}

#[test]
fn each_solve_creates_exactly_one_pool() {
    let (model, gamma) = reference::gridworld(24, 24, 0.15);
    let compiled = CompiledMdp::compile(&model).unwrap();
    force_workers(Some(3));

    // Backward induction: 40 stages, one persistent pool.
    let (bi, bi_serial) = pooled_and_serial("a 40-stage backward induction", || {
        BackwardInduction::new(40)
            .gamma(gamma)
            .solve_compiled(&compiled)
            .unwrap()
    });
    assert_eq!(bi.stage_policies.len(), 40);
    assert_eq!(bi.stage_values, bi_serial.stage_values);
    assert_eq!(bi.stage_policies, bi_serial.stage_policies);

    // Value iteration: many sweeps, still one pool.
    let (vi, vi_serial) = pooled_and_serial("a multi-sweep value iteration", || {
        ValueIteration::new(0.95).solve_compiled(&compiled).unwrap()
    });
    assert!(vi.sweeps > 5, "expected a multi-sweep solve");
    assert_eq!(vi, vi_serial, "pool must not change results");

    // The certified policy-only solve.
    let (certified, certified_serial) = pooled_and_serial("a certified policy solve", || {
        ValueIteration::new(0.95).solve_policy(&compiled).unwrap()
    });
    assert!(
        certified.counters.sweeps > 5,
        "expected a multi-sweep solve"
    );
    assert_eq!(certified, certified_serial);
    assert_eq!(certified.policy, vi.policy);

    // Policy iteration: several improvement rounds, each with its own
    // evaluation sweeps — still exactly one pool.
    let (pi, pi_serial) = pooled_and_serial("a multi-round policy iteration", || {
        PolicyIteration::new(0.95)
            .solve_compiled(&compiled)
            .unwrap()
    });
    assert!(pi.converged);
    assert!(pi.rounds >= 2, "expected a multi-round solve");
    assert_eq!(pi, pi_serial);

    // Policy evaluation of the optimal policy.
    let (values, values_serial) = pooled_and_serial("a policy evaluation", || {
        evaluate_policy_compiled(&compiled, &vi.policy, 0.95, 1e-10, 10_000).unwrap()
    });
    assert_eq!(values, values_serial);

    // Relative value iteration (the `mdp-avg` cache policy's solver).
    let (rvi, rvi_serial) = pooled_and_serial("a relative value iteration", || {
        RelativeValueIteration::new()
            .tolerance(1e-9)
            .solve_compiled(&compiled)
            .unwrap()
    });
    assert!(rvi.sweeps > 5, "expected a multi-sweep solve");
    assert_eq!(rvi, rvi_serial);

    force_workers(None);
}
