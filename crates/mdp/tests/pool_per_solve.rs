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

use mdp::solver::{
    evaluate_policy_compiled, BackwardInduction, PolicyIteration, RelativeValueIteration,
    StopReason, ValueIteration,
};
use mdp::{reference, CompiledMdp, FnMdp, Transition};
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

/// A deterministic `n`-state, 3-action model with scattered destinations
/// and distinct rewards (no exact action ties).
fn scattered_model(n: usize) -> CompiledMdp {
    CompiledMdp::compile(&FnMdp::new(n, 3, |s, a, out| {
        let next = (s * 7 + a * 13 + 1) % n;
        let reward = ((s * 31 + a * 17) % 101) as f64 / 100.0 - 0.5;
        out.push(Transition::new(next, 1.0, reward));
    }))
    .unwrap()
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

    // The policy-only solve on the gridworld, whose optimal policy has
    // exact action ties: the exact phase gives way to plain value
    // iteration restarted inside the same sweep loop, so still one pool.
    let (tied, tied_serial) = pooled_and_serial("a restarted policy solve", || {
        ValueIteration::new(0.95).solve_policy(&compiled).unwrap()
    });
    assert!(tied.counters.sweeps > 5, "expected a multi-sweep solve");
    assert_eq!(tied.counters.stop, StopReason::Tolerance);
    assert_eq!(tied.counters.evaluations, 0, "expected a restart");
    assert_eq!(tied, tied_serial);
    assert_eq!(tied.policy, vi.policy);

    // Policy solves certified on a dense kernel: full sweeps alternate
    // with exact evaluations of their argmax in one loop, one pool, at a
    // fast- and a slow-mixing discount.
    let scattered = scattered_model(4096);
    for gamma in [0.5, 0.95, 0.99] {
        let (certified, certified_serial) = pooled_and_serial("a certified policy solve", || {
            ValueIteration::new(gamma).solve_policy(&scattered).unwrap()
        });
        assert_eq!(certified.counters.stop, StopReason::Certified);
        assert!(
            certified.counters.sweeps > 1,
            "γ={gamma}: expected several full sweeps"
        );
        assert!(
            certified.counters.evaluations > 0,
            "γ={gamma}: expected exact evaluations"
        );
        assert_eq!(certified, certified_serial, "γ={gamma}");
        let full = serialized(|| {
            ValueIteration::new(gamma)
                .solve_compiled(&scattered)
                .unwrap()
        });
        assert_eq!(certified.policy, full.policy, "γ={gamma}");
    }

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
