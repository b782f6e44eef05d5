//! Differential tests for the deterministic dense sweep path: on models
//! where every `(state, action)` row has at most one transition (the cache
//! MDP under static popularity), blocked backups run action-major over the
//! dense mirror — and must agree **bitwise** with the per-state CSR
//! gather, at every block split, and through every solver.

use mdp::solver::{BackwardInduction, PolicyIteration, RelativeValueIteration, ValueIteration};
use mdp::{CompiledMdp, TabularMdp};
use proptest::prelude::*;
use simkit::executor;

/// Strategy: a random **deterministic** MDP — every row is either empty
/// (invalid action) or a single probability-1.0 transition; action 0 stays
/// valid everywhere so compilation's every-state-has-an-action check holds.
fn arb_det_mdp(max_states: usize, max_actions: usize) -> impl Strategy<Value = TabularMdp> {
    (2..=max_states, 1..=max_actions).prop_flat_map(|(n, m)| {
        let row = (0..n, -1.0f64..1.0, proptest::bool::ANY);
        proptest::collection::vec(row, n * m).prop_map(move |rows| {
            let mut b = TabularMdp::builder(n, m);
            for (i, (dest, reward, valid)) in rows.into_iter().enumerate() {
                if valid || i % m == 0 {
                    b = b.transition(i / m, i % m, dest, 1.0, reward);
                }
            }
            b.build().expect("deterministic rows build")
        })
    })
}

/// A value function that exercises every state distinctly without RNG.
fn probe_values(n: usize) -> Vec<f64> {
    (0..n)
        .map(|s| (s.wrapping_mul(2_654_435_761) % 1_000) as f64 / 500.0 - 1.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One blocked backup over the dense mirror equals per-state CSR
    /// backups bit for bit — full range and chunked at widths 1, 2, 7, n.
    #[test]
    fn dense_blocked_backups_match_scalar_bitwise(mdp in arb_det_mdp(10, 4)) {
        let gamma = 0.93;
        let kernel = CompiledMdp::compile(&mdp).unwrap();
        prop_assert!(kernel.is_deterministic(), "mirror must engage");
        let n = kernel.n_states();
        let values = probe_values(n);

        // CSR reference: per-state max over per-row left-to-right gathers.
        let reference: Vec<f64> = (0..n)
            .map(|s| {
                (0..kernel.n_actions())
                    .filter_map(|a| kernel.q_value(s, a, &values, gamma))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let per_state: Vec<f64> = (0..n)
            .map(|s| kernel.backup_state(s, &values, gamma))
            .collect();
        prop_assert_eq!(&per_state, &reference);

        for width in [1usize, 2, 7, n] {
            let mut out = vec![0.0f64; n];
            let mut start = 0;
            while start < n {
                let end = (start + width).min(n);
                kernel.backup_block(start..end, &values, &mut out[start..end], gamma);
                start = end;
            }
            prop_assert_eq!(&out, &reference, "block width {}", width);
        }
    }

    /// Value iteration through the dense blocked sweeps against the
    /// trait-callback reference.
    #[test]
    fn value_iteration_dense_matches_callback(mdp in arb_det_mdp(8, 3)) {
        let solver = ValueIteration::new(0.9).tolerance(1e-12);
        let kernel = CompiledMdp::compile(&mdp).unwrap();
        prop_assert!(kernel.is_deterministic());
        let dense = solver.solve_compiled(&kernel).unwrap();
        let callback = solver.solve_callback(&mdp).unwrap();
        prop_assert!(dense.converged && callback.converged);
        for (a, b) in dense.values.iter().zip(&callback.values) {
            prop_assert!((a - b).abs() < 1e-10, "value gap {} vs {}", a, b);
        }
        prop_assert_eq!(dense.policy.actions(), callback.policy.actions());
    }

    /// Policy iteration (dense blocked evaluation sweeps) against the
    /// callback reference.
    #[test]
    fn policy_iteration_dense_matches_callback(mdp in arb_det_mdp(7, 3)) {
        let solver = PolicyIteration::new(0.9).eval_tolerance(1e-12);
        let kernel = CompiledMdp::compile(&mdp).unwrap();
        prop_assert!(kernel.is_deterministic());
        let dense = solver.solve_compiled(&kernel).unwrap();
        let callback = solver.solve_callback(&mdp).unwrap();
        prop_assert!(dense.converged && callback.converged);
        prop_assert_eq!(dense.policy.actions(), callback.policy.actions());
        for (a, b) in dense.values.iter().zip(&callback.values) {
            prop_assert!((a - b).abs() < 1e-8, "value gap {} vs {}", a, b);
        }
    }

    /// Backward induction (dense blocked stage backups) against the
    /// callback reference — stage values and stage policies.
    #[test]
    fn backward_induction_dense_matches_callback(mdp in arb_det_mdp(6, 3)) {
        let solver = BackwardInduction::new(12).gamma(0.95);
        let kernel = CompiledMdp::compile(&mdp).unwrap();
        prop_assert!(kernel.is_deterministic());
        let dense = solver.solve_compiled(&kernel).unwrap();
        let callback = solver.solve_callback(&mdp).unwrap();
        for (dv, rv) in dense.stage_values.iter().zip(&callback.stage_values) {
            for (a, b) in dv.iter().zip(rv) {
                prop_assert!((a - b).abs() < 1e-10, "stage value gap {} vs {}", a, b);
            }
        }
        for (dp, rp) in dense.stage_policies.iter().zip(&callback.stage_policies) {
            prop_assert_eq!(dp.actions(), rp.actions());
        }
    }

    /// Parallel and serial dense sweeps stay bitwise identical (the same
    /// invariant the CSR kernel holds, now through the dense dispatch).
    #[test]
    fn dense_parallel_and_serial_agree_bitwise(mdp in arb_det_mdp(8, 4)) {
        let kernel = CompiledMdp::compile(&mdp).unwrap();
        prop_assert!(kernel.is_deterministic());
        let solver = ValueIteration::new(0.92);
        let serial = executor::serialized(|| solver.solve_compiled(&kernel)).unwrap();
        let parallel = solver.solve_compiled(&kernel).unwrap();
        prop_assert_eq!(serial.sweeps, parallel.sweeps);
        prop_assert_eq!(&serial.values, &parallel.values);
        prop_assert_eq!(serial.policy.actions(), parallel.policy.actions());
    }
}

/// A deterministic AoI-shaped counter (age advances or resets at a cost):
/// unichain under every stationary policy, so relative value iteration
/// applies — compiled (dense sweeps) against the callback reference.
#[test]
fn relative_vi_dense_matches_callback() {
    let n = 9usize;
    let mut b = TabularMdp::builder(n, 2);
    for s in 0..n {
        // Action 0: age one more slot (saturating), utility decays as 1/age.
        b = b.transition(s, 0, (s + 1).min(n - 1), 1.0, 1.0 / (s + 2) as f64);
        // Action 1: refresh to age 1, paying an update cost.
        b = b.transition(s, 1, 0, 1.0, 1.0 - 0.3);
    }
    let mdp = b.build().expect("builds");
    let kernel = CompiledMdp::compile(&mdp).unwrap();
    assert!(kernel.is_deterministic());

    let solver = RelativeValueIteration::new().tolerance(1e-10);
    let dense = solver.solve_compiled(&kernel).unwrap();
    let callback = solver.solve_callback(&mdp).unwrap();
    assert!(
        (dense.gain - callback.gain).abs() < 1e-8,
        "gain {} vs {}",
        dense.gain,
        callback.gain
    );
    assert_eq!(dense.policy.actions(), callback.policy.actions());
    for (a, b) in dense.bias.iter().zip(&callback.bias) {
        assert!((a - b).abs() < 1e-8, "bias gap {a} vs {b}");
    }
}

/// A single stochastic row anywhere in the model must disable the dense
/// mirror — and the CSR blocked path it falls back to still matches the
/// per-state backup.
#[test]
fn stochastic_row_disables_dense_mirror() {
    let mut b = TabularMdp::builder(4, 2);
    for s in 0..4usize {
        b = b.transition(s, 0, (s + 1) % 4, 1.0, 0.1 * s as f64);
    }
    b = b
        .transition(0, 1, 1, 0.5, 0.2)
        .transition(0, 1, 2, 0.5, 0.4);
    let mdp = b.build().expect("builds");
    let kernel = CompiledMdp::compile(&mdp).unwrap();
    assert!(!kernel.is_deterministic(), "mixed model must stay on CSR");

    let values = probe_values(4);
    let mut out = vec![0.0f64; 4];
    kernel.backup_block(0..4, &values, &mut out, 0.9);
    for (s, &v) in out.iter().enumerate() {
        assert_eq!(v, kernel.backup_state(s, &values, 0.9));
    }
}
