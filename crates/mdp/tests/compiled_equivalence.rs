//! Differential tests: the compiled CSR kernel against the trait-callback
//! reference solvers, and serial against parallel sweeps.
//!
//! Invariants:
//! * compiled value iteration reproduces the callback reference's values
//!   (within 1e-10 at matched tolerances) and its exact policy,
//! * compiled policy iteration matches callback policy iteration,
//! * compiled backward induction and relative value iteration match their
//!   callback references,
//! * parallel and serial sweeps return bit-for-bit identical values and
//!   identical policies.

use mdp::solver::{BackwardInduction, PolicyIteration, RelativeValueIteration, ValueIteration};
use mdp::{reference, CompiledMdp, TabularMdp};
use proptest::prelude::*;
use simkit::executor;

/// Strategy: a random dense-ish MDP with normalized rows and rewards in
/// [-1, 1] (same construction as the solver proptests).
fn arb_mdp(max_states: usize, max_actions: usize) -> impl Strategy<Value = TabularMdp> {
    (2..=max_states, 1..=max_actions).prop_flat_map(|(n, m)| {
        let row = proptest::collection::vec((0..n, 0.05f64..1.0, -1.0f64..1.0), 1..=3usize.min(n));
        proptest::collection::vec(row, n * m).prop_map(move |rows| {
            let mut b = TabularMdp::builder(n, m);
            for (i, row) in rows.into_iter().enumerate() {
                let total: f64 = row.iter().map(|(_, w, _)| w).sum();
                for (dest, w, r) in row {
                    b = b.transition(i / m, i % m, dest, w / total, r);
                }
            }
            b.build().expect("normalized rows build")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn value_iteration_matches_callback_reference(mdp in arb_mdp(8, 3)) {
        let gamma = 0.9;
        let solver = ValueIteration::new(gamma).tolerance(1e-12);
        let compiled = solver.solve(&mdp).unwrap();
        let callback = solver.solve_callback(&mdp).unwrap();
        prop_assert!(compiled.converged && callback.converged);
        for (a, b) in compiled.values.iter().zip(&callback.values) {
            prop_assert!((a - b).abs() < 1e-10, "value gap {a} vs {b}");
        }
        prop_assert_eq!(compiled.policy.actions(), callback.policy.actions());
    }

    #[test]
    fn policy_iteration_matches_callback_reference(mdp in arb_mdp(7, 3)) {
        let gamma = 0.9;
        let solver = PolicyIteration::new(gamma).eval_tolerance(1e-12);
        let compiled = solver.solve(&mdp).unwrap();
        let callback = solver.solve_callback(&mdp).unwrap();
        prop_assert!(compiled.converged && callback.converged);
        prop_assert_eq!(compiled.policy.actions(), callback.policy.actions());
        for (a, b) in compiled.values.iter().zip(&callback.values) {
            prop_assert!((a - b).abs() < 1e-8, "value gap {a} vs {b}");
        }
    }

    #[test]
    fn backward_induction_matches_callback_reference(mdp in arb_mdp(6, 3)) {
        let solver = BackwardInduction::new(12).gamma(0.95);
        let compiled = solver.solve(&mdp).unwrap();
        let callback = solver.solve_callback(&mdp).unwrap();
        for (cv, rv) in compiled.stage_values.iter().zip(&callback.stage_values) {
            for (a, b) in cv.iter().zip(rv) {
                prop_assert!((a - b).abs() < 1e-10, "stage value gap {a} vs {b}");
            }
        }
        for (cp, rp) in compiled.stage_policies.iter().zip(&callback.stage_policies) {
            prop_assert_eq!(cp.actions(), rp.actions());
        }
    }

    #[test]
    fn parallel_and_serial_policies_agree_bitwise(mdp in arb_mdp(8, 4)) {
        let gamma = 0.92;
        let solver = ValueIteration::new(gamma);
        let serial = executor::serialized(|| solver.solve(&mdp)).unwrap();
        let parallel = solver.solve(&mdp).unwrap();
        prop_assert_eq!(serial.sweeps, parallel.sweeps);
        prop_assert_eq!(&serial.values, &parallel.values);
        prop_assert_eq!(serial.policy.actions(), parallel.policy.actions());
    }
}

/// Parallel-vs-serial on a model large enough to actually engage the worker
/// pool (the proptest models above stay under the fan-out threshold).
#[test]
fn large_model_parallel_sweeps_are_bitwise_identical() {
    let (mdp, gamma) = reference::gridworld(72, 72, 0.12);
    let compiled = CompiledMdp::compile(&mdp).unwrap();
    assert!(
        compiled.n_states() >= 4096,
        "must clear the fan-out threshold"
    );

    let solver = ValueIteration::new(gamma).tolerance(1e-10);
    let serial = executor::serialized(|| solver.solve_compiled(&compiled)).unwrap();
    let parallel = solver.solve_compiled(&compiled).unwrap();
    assert_eq!(serial.sweeps, parallel.sweeps);
    assert_eq!(serial.values, parallel.values, "bit-for-bit values");
    assert_eq!(serial.policy.actions(), parallel.policy.actions());

    let pi = PolicyIteration::new(gamma);
    let pi_serial = executor::serialized(|| pi.solve_compiled(&compiled)).unwrap();
    let pi_parallel = pi.solve_compiled(&compiled).unwrap();
    assert_eq!(pi_serial.rounds, pi_parallel.rounds);
    assert_eq!(pi_serial.values, pi_parallel.values, "bit-for-bit values");
    assert_eq!(pi_serial.policy.actions(), pi_parallel.policy.actions());
}

#[test]
fn relative_vi_matches_callback_reference() {
    for (w, h, slip) in [(3usize, 3usize, 0.1f64), (4, 3, 0.2)] {
        let (mdp, _) = reference::gridworld(w, h, slip);
        let solver = RelativeValueIteration::new().tolerance(1e-10);
        let compiled = solver.solve(&mdp).unwrap();
        let callback = solver.solve_callback(&mdp).unwrap();
        assert!(
            (compiled.gain - callback.gain).abs() < 1e-8,
            "gain {} vs {}",
            compiled.gain,
            callback.gain
        );
        assert_eq!(compiled.policy.actions(), callback.policy.actions());
        for (a, b) in compiled.bias.iter().zip(&callback.bias) {
            assert!((a - b).abs() < 1e-8, "bias gap {a} vs {b}");
        }
    }
}

/// A compiled model is itself a [`FiniteMdp`], so compiling a compiled
/// model must be a fixed point.
#[test]
fn recompilation_is_identity() {
    let (mdp, _) = reference::chain(12, 0.8);
    let once = CompiledMdp::compile(&mdp).unwrap();
    let twice = CompiledMdp::compile(&once).unwrap();
    assert_eq!(once, twice);
}
