//! Differential tests for the dense kernel layout: on unit-mass
//! deterministic models (every `(state, action)` row empty or a single
//! probability-1.0 transition — the cache MDP under static popularity) the
//! kernel stores only the action-major dense planes. Blocked backups over
//! them must agree **bitwise** with the per-state backup at every block
//! split and through every solver, and every row-level accessor must
//! answer as the model's own callback does.

use mdp::solver::{
    bellman_residual, greedy_policy, BackwardInduction, PolicyIteration, RelativeValueIteration,
    ValueIteration,
};
use mdp::{CompiledMdp, FiniteMdp, TabularMdp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

    /// One blocked backup over the dense planes equals the per-state
    /// backups bit for bit — full range and chunked at widths 1, 2, 7, n.
    #[test]
    fn dense_blocked_backups_match_scalar_bitwise(mdp in arb_det_mdp(10, 4)) {
        let gamma = 0.93;
        let kernel = CompiledMdp::compile(&mdp).unwrap();
        prop_assert!(kernel.has_dense_layout(), "dense layout must engage");
        let n = kernel.n_states();
        let values = probe_values(n);

        // Reference: per-state max over the row-level Q values.
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
        assert_ranked_matches_per_state(&kernel, &values, gamma);
    }

    /// Value iteration through the dense blocked sweeps against the
    /// trait-callback reference.
    #[test]
    fn value_iteration_dense_matches_callback(mdp in arb_det_mdp(8, 3)) {
        let solver = ValueIteration::new(0.9).tolerance(1e-12);
        let kernel = CompiledMdp::compile(&mdp).unwrap();
        prop_assert!(kernel.has_dense_layout());
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
        prop_assert!(kernel.has_dense_layout());
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
        prop_assert!(kernel.has_dense_layout());
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
        prop_assert!(kernel.has_dense_layout());
        let solver = ValueIteration::new(0.92);
        let serial = executor::serialized(|| solver.solve_compiled(&kernel)).unwrap();
        let parallel = solver.solve_compiled(&kernel).unwrap();
        prop_assert_eq!(serial.sweeps, parallel.sweeps);
        prop_assert_eq!(&serial.values, &parallel.values);
        prop_assert_eq!(serial.policy.actions(), parallel.policy.actions());
    }

    /// The dense layout stores no transition list, yet every row-level
    /// accessor answers as the model's callback does: rows, validity,
    /// expected rewards, Q values, the greedy policy, the residual, the
    /// transition count, and samples (the same seeded RNG gives the same
    /// draw and leaves the same stream behind).
    #[test]
    fn dense_layout_accessors_match_callback(mdp in arb_det_mdp(10, 4)) {
        let gamma = 0.9;
        let kernel = CompiledMdp::compile(&mdp).unwrap();
        prop_assert!(kernel.has_dense_layout());
        let values = probe_values(kernel.n_states());
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let mut transitions = 0;
        for s in 0..mdp.n_states() {
            for a in 0..mdp.n_actions() {
                mdp.transitions(s, a, &mut want);
                kernel.transitions(s, a, &mut got);
                prop_assert_eq!(&want, &got, "row ({}, {})", s, a);
                transitions += want.len();
                prop_assert_eq!(kernel.is_valid(s, a), mdp.is_action_valid(s, a));
                prop_assert_eq!(FiniteMdp::is_action_valid(&kernel, s, a), mdp.is_action_valid(s, a));
                prop_assert_eq!(kernel.expected_reward(s, a), mdp.expected_reward(s, a));
                prop_assert_eq!(
                    FiniteMdp::expected_reward(&kernel, s, a),
                    mdp.expected_reward(s, a)
                );
                let callback_q = (!want.is_empty()).then(|| {
                    want.iter()
                        .map(|t| t.probability * (t.reward + gamma * values[t.next]))
                        .sum::<f64>()
                });
                prop_assert_eq!(kernel.q_value(s, a, &values, gamma), callback_q);
                if !want.is_empty() {
                    let seed = (s * 31 + a) as u64;
                    let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    prop_assert_eq!(kernel.sample(s, a, &mut r1), mdp.sample(s, a, &mut r2));
                    prop_assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
                }
            }
        }
        prop_assert_eq!(kernel.n_transitions(), transitions);
        prop_assert_eq!(
            kernel.greedy_policy(&values, gamma).unwrap(),
            greedy_policy(&mdp, &values, gamma)
        );
        prop_assert_eq!(
            kernel.bellman_residual(&values, gamma),
            bellman_residual(&mdp, &values, gamma)
        );
    }
}

/// A deterministic AoI-shaped counter (age advances or resets at a cost),
/// solved by relative value iteration — compiled (dense sweeps) against
/// the callback reference. The model is not unichain under every
/// stationary policy: "refresh at state 3, age elsewhere" has two
/// recurrent classes, `{0, 1, 2, 3}` and the absorbing cap state `8`.
/// It is communicating, though (refreshing reaches state 0 and ageing
/// reaches every state from there), so the optimal gain is the same in
/// every state and the iteration converges.
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
    assert!(kernel.has_dense_layout());

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

/// Each state's `(best, runner-up, argmax)` from its row-level Q values:
/// actions ascending, strict improvement, the runner-up `-∞` for a lone
/// valid action and equal to the best on an exact tie.
fn ranked_reference(
    kernel: &CompiledMdp,
    s: usize,
    values: &[f64],
    gamma: f64,
) -> (f64, f64, usize) {
    let (mut best, mut runner_up, mut argmax) = (f64::NEG_INFINITY, f64::NEG_INFINITY, 0);
    for a in 0..kernel.n_actions() {
        let Some(q) = kernel.q_value(s, a, values, gamma) else {
            continue;
        };
        if q > best {
            (runner_up, best, argmax) = (best, q, a);
        } else if q > runner_up {
            runner_up = q;
        }
    }
    (best, runner_up, argmax)
}

/// The ranked backups of every state range of `kernel` — whole, and split
/// into pieces of 7 and 1,024 states, so ranges start mid register block —
/// equal the per-state reference bit for bit: values (which also equal
/// `backup_state`), runner-ups, the smallest action gap, and argmaxes.
fn assert_ranked_matches_per_state(kernel: &CompiledMdp, values: &[f64], gamma: f64) {
    let n = kernel.n_states();
    let reference: Vec<(f64, f64, usize)> = (0..n)
        .map(|s| ranked_reference(kernel, s, values, gamma))
        .collect();
    for (s, &(best, ..)) in reference.iter().enumerate() {
        assert_eq!(
            best.to_bits(),
            kernel.backup_state(s, values, gamma).to_bits(),
            "state {s}"
        );
    }
    let bits = |(best, runner_up, argmax): (f64, f64, usize)| {
        (best.to_bits(), runner_up.to_bits(), argmax)
    };
    let margin = |ranks: &[(f64, f64, usize)]| {
        ranks
            .iter()
            .map(|&(best, runner_up, _)| best - runner_up)
            .fold(f64::INFINITY, f64::min)
    };
    for width in [7, 1_024, n] {
        let mut start = 0;
        while start < n {
            let end = (start + width).min(n);
            let mut ranked = Vec::with_capacity(end - start);
            let mut next = start;
            kernel.backup_block_ranked(start..end, values, gamma, |s, best, runner_up, argmax| {
                assert_eq!(s, next, "states visited in order");
                next += 1;
                ranked.push((best, runner_up, argmax));
            });
            assert_eq!(next, end, "every state visited");
            for (j, (&got, &want)) in ranked.iter().zip(&reference[start..end]).enumerate() {
                assert_eq!(bits(got), bits(want), "width {width}, state {}", start + j);
            }
            assert_eq!(
                margin(&ranked).to_bits(),
                margin(&reference[start..end]).to_bits(),
                "width {width}, states {start}..{end}"
            );
            let mut out = vec![f64::NAN; end - start];
            kernel.backup_block(start..end, values, &mut out, gamma);
            for (j, (&got, &(want, ..))) in out.iter().zip(&reference[start..end]).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "width {width}, state {}",
                    start + j
                );
            }
            start = end;
        }
    }
}

/// A dense `n`-state, 3-action model with scattered destinations: every
/// 11th state has only action 0 valid (a lone action, runner-up `-∞`),
/// every other state ≡ 3 (mod 5) lacks action 2 (a `-∞` row inside the
/// register block), and in even states action 1 repeats action 0's row, so
/// their Qs tie exactly.
fn ranked_model(n: usize) -> CompiledMdp {
    let kernel = CompiledMdp::compile(&mdp::FnMdp::new(n, 3, |s, a, out| {
        if (s % 11 == 0 && a > 0) || (s % 5 == 3 && a == 2) {
            return;
        }
        let a = if s % 2 == 0 && a == 1 { 0 } else { a };
        let next = (s * 7 + a * 13 + 1) % n;
        let reward = ((s * 31 + a * 17) % 101) as f64 / 100.0 - 0.5;
        out.push(mdp::Transition::new(next, 1.0, reward));
    }))
    .unwrap();
    assert!(kernel.has_dense_layout());
    kernel
}

/// The dense backup kernel against the per-state backup at state counts
/// below one register block, just past one (4 + 1 and 8 + 1), and above
/// one 1,024-state sweep block without being a multiple of 4 or 8, on a
/// model with invalid rows and exact ties (the ties must show: some runner-up
/// equals its best).
#[test]
fn dense_ranked_backups_match_per_state_bitwise() {
    for n in [1, 2, 3, 5, 7, 9, 1_031, 2_403] {
        let kernel = ranked_model(n);
        for gamma in [0.0, 0.9, 1.0] {
            assert_ranked_matches_per_state(&kernel, &probe_values(n), gamma);
        }
        let values = probe_values(n);
        let ranks: Vec<_> = (0..n)
            .map(|s| ranked_reference(&kernel, s, &values, 0.9))
            .collect();
        assert_eq!(
            ranks[0].1,
            f64::NEG_INFINITY,
            "state 0 has one valid action"
        );
        if n > 1_000 {
            assert!(
                ranks.iter().any(|&(best, runner_up, _)| best == runner_up),
                "some best Q ties exactly"
            );
        }
    }
}

/// The CSR kernel's ranked backups (one state at a time) against the same
/// per-state reference.
#[test]
fn csr_ranked_backups_match_per_state_bitwise() {
    let (grid, gamma) = mdp::reference::gridworld(40, 30, 0.15);
    let kernel = CompiledMdp::compile(&grid).unwrap();
    assert!(!kernel.has_dense_layout());
    assert_ranked_matches_per_state(&kernel, &probe_values(kernel.n_states()), gamma);
}

/// Per-state backups must equal the blocked backup of the whole range.
fn assert_blocked_matches_per_state(kernel: &CompiledMdp) {
    let n = kernel.n_states();
    let values = probe_values(n);
    let mut out = vec![0.0f64; n];
    kernel.backup_block(0..n, &values, &mut out, 0.9);
    for (s, &v) in out.iter().enumerate() {
        assert_eq!(v, kernel.backup_state(s, &values, 0.9), "state {s}");
    }
}

/// Layout selection: a single stochastic row — here the model's last,
/// after invalid rows, so the dense pass runs to it before compilation
/// switches — selects CSR, and the blocked CSR path still matches the
/// per-state backup and the model's rows.
#[test]
fn stochastic_row_selects_csr() {
    let mut b = TabularMdp::builder(4, 2);
    for s in 0..4usize {
        b = b.transition(s, 0, (s + 1) % 4, 1.0, 0.1 * s as f64);
    }
    b = b
        .transition(3, 1, 1, 0.5, 0.2)
        .transition(3, 1, 2, 0.5, 0.4);
    let mdp = b.build().expect("builds");
    let kernel = CompiledMdp::compile(&mdp).unwrap();
    assert!(!kernel.has_dense_layout(), "mixed model must stay on CSR");
    assert!(kernel.has_unit_mass_rows());
    assert_eq!(kernel.n_transitions(), 6);
    let (mut want, mut got) = (Vec::new(), Vec::new());
    for s in 0..4 {
        for a in 0..2 {
            mdp.transitions(s, a, &mut want);
            kernel.transitions(s, a, &mut got);
            assert_eq!(want, got, "row ({s}, {a})");
            assert_eq!(kernel.is_valid(s, a), mdp.is_action_valid(s, a));
        }
    }
    assert_blocked_matches_per_state(&kernel);
}

/// Layout selection: deterministic rows of probability 0.6 are not unit
/// mass, so the kernel takes the CSR layout (keeping the probabilities)
/// and the blocked path still matches the per-state backup.
#[test]
fn deterministic_partial_mass_selects_csr() {
    let mdp = mdp::FnMdp::new(5, 2, |s, a, out| {
        out.push(mdp::Transition::new((s + a + 1) % 5, 0.6, 0.25 * a as f64));
    });
    let kernel = CompiledMdp::compile(&mdp).unwrap();
    assert!(!kernel.has_dense_layout());
    assert!(!kernel.has_unit_mass_rows());
    let mut got = Vec::new();
    kernel.transitions(2, 1, &mut got);
    assert_eq!(got, vec![mdp::Transition::new(4, 0.6, 0.25)]);
    assert_blocked_matches_per_state(&kernel);
}

/// A `-0.0` reward is stored as the CSR layout stored it, `0.0 + 1.0·r =
/// +0.0`: it reads back equal (`==`) to the model's row, and the Q values,
/// blocked backups and samples carry `+0.0` bits.
#[test]
fn negative_zero_reward_reads_back_as_positive_zero() {
    let mdp = TabularMdp::builder(2, 1)
        .transition(0, 0, 1, 1.0, -0.0)
        .transition(1, 0, 0, 1.0, -0.0)
        .build()
        .expect("builds");
    let kernel = CompiledMdp::compile(&mdp).unwrap();
    assert!(kernel.has_dense_layout());
    let (mut want, mut got) = (Vec::new(), Vec::new());
    mdp.transitions(0, 0, &mut want);
    kernel.transitions(0, 0, &mut got);
    assert_eq!(want, got);
    assert_eq!(got[0].reward.to_bits(), 0.0f64.to_bits());
    assert_eq!(kernel.expected_reward(0, 0).to_bits(), 0.0f64.to_bits());
    let values = [-0.0, -0.0];
    let q = kernel.q_value(0, 0, &values, 0.5).unwrap();
    assert_eq!(q.to_bits(), 0.0f64.to_bits());
    let mut out = [1.0; 2];
    kernel.backup_block(0..2, &values, &mut out, 0.5);
    assert_eq!(out.map(f64::to_bits), [0.0f64.to_bits(); 2]);
    let (next, reward) = kernel.sample(1, 0, &mut StdRng::seed_from_u64(1));
    assert_eq!((next, reward.to_bits()), (0, 0.0f64.to_bits()));
}
